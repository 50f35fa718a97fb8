"""Exact scalar arithmetic over Q and over the prime fields F_p.

Rational scalars are `fractions.Fraction`; F_p scalars are plain ints kept
in the canonical range [0, p).  Every routine in this package that touches
coefficients goes through a FieldSpec, so swapping the base field never
changes code paths elsewhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError

# Fraction over Q, canonical residue (int) over F_p.
Scalar = Fraction | int


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n below 3.3e24; larger n are refused."""
    if n >= _MR_EXACT_BELOW:
        raise PreconditionError(
            f"field modulus {n} is beyond the exact primality bound {_MR_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Q when `p` is None, else F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise PreconditionError(f"field modulus must be prime, got {self.p}")

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @staticmethod
    def from_name(name: str) -> "FieldSpec":
        if name == "Q":
            return QQ
        if name.startswith("Fp:"):
            try:
                p = int(name[3:])
            except ValueError:
                raise PreconditionError(f"bad field name {name!r}") from None
            return FieldSpec(p)
        raise PreconditionError(f"unknown field {name!r}; expected 'Q' or 'Fp:<prime>'")

    # ----- element construction ---------------------------------------------

    def coerce(self, value) -> Scalar:
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise PreconditionError(f"denominator divisible by p={self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    # ----- arithmetic ---------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)

    def is_zero(self, a: Scalar) -> bool:
        return not a

    # ----- text & sampling ------------------------------------------------------

    def format_scalar(self, a: Scalar) -> str:
        # Fraction prints "n" or "n/d"; residues print as plain ints.
        return str(a)

    def parse_scalar(self, text: str) -> Scalar:
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"bad scalar {text!r} for field {self.name}") from None

    def random_scalar(self, rng: random.Random) -> Scalar:
        if self.p is None:
            return Fraction(rng.randint(-9, 9))  # bounded height keeps Q runs fast
        return rng.randrange(self.p)


QQ = FieldSpec(None)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
