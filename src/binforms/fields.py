"""The scalar fields Q and F_p, and their canonical scalars.

Rational scalars are `fractions.Fraction`; F_p scalars are plain ints kept
in the canonical range [0, p).  A FieldSpec is a modulus (None for Q) and a
name; `coerce` is the one place a value becomes canonical, and the rest is
zero and one, parsing and random sampling.  It carries no arithmetic: glue
code computes with Python's operators and reduces each result through
`coerce`, while the inner loops of `linalg.rref` and of the polynomial layer
in `forms` pick one plain-int kernel per field kind by `p`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import PreconditionError

# Fraction over Q, canonical residue (int) over F_p.
Scalar = Fraction | int
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)  # shared: Fractions are immutable
_MAX_EXPONENT = 4300  # Python's default int-to-str digit limit


def _oversized(value: Decimal) -> bool:
    """More than `_MAX_EXPONENT` digits or an exponent beyond ±it: `parse_scalar`'s rule for text."""
    _, digits, exponent = value.as_tuple()
    return len(digits) > _MAX_EXPONENT or type(exponent) is int and abs(exponent) > _MAX_EXPONENT


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
        if isinstance(name, str) and name.startswith("Fp:"):
            try:
                p = int(name[3:])
            except ValueError:
                raise PreconditionError(f"bad field name {name!r}") from None
            return FieldSpec(p)
        shown = name if isinstance(name, Decimal) else repr(name)  # 1.5, as JSON wrote it
        raise PreconditionError(f"unknown field {shown}; expected 'Q' or 'Fp:<prime>'")

    # ----- element construction ---------------------------------------------

    def coerce(self, value) -> Scalar:
        """The canonical scalar for an exact number: an int, or anything `Fraction` takes exactly
        (a Fraction, a Decimal, an integral or rational number type).  Text, bools and floats are
        refused: text enters through `parse_scalar`, which guards its exponent, and a Decimal
        is refused unless `_oversized` clears it.

        Glue code passes each result of Python arithmetic on scalars through here:
        over F_p that reduces it mod p, over Q a Fraction is returned as it is.
        """
        if type(value) is int:  # the common case, ahead of the ABC checks
            return Fraction(value) if self.p is None else value % self.p
        if self.p is None and type(value) is Fraction:  # already canonical
            return value
        if isinstance(value, (str, bool, float)):
            raise PreconditionError(f"expected an exact scalar, got {value!r}")
        if isinstance(value, Decimal) and _oversized(value):
            raise PreconditionError(f"Decimal scalar beyond {_MAX_EXPONENT} digits or exponent")
        try:
            value = Fraction(value)
        except (TypeError, ValueError, OverflowError):  # not a number; a Decimal NaN or infinity
            raise PreconditionError(f"expected an exact scalar, got {value!r}") from None
        if self.p is None:
            return value
        if value.denominator % self.p == 0:
            raise PreconditionError(f"denominator divisible by p={self.p}")
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    @property
    def zero(self) -> Scalar:
        return _Q_ZERO if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return _Q_ONE if self.p is None else 1

    # ----- text & sampling ------------------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        """Refuses a numerator or denominator past Python's int-to-str digit limit, a rule on
        input size only (output is written at any length); checks an exponent before expanding it."""
        try:
            if abs(int(text.lower().partition("e")[2] or 0)) > _MAX_EXPONENT:
                raise ValueError
            value = Fraction(text)
            str(value)  # ValueError beyond the int-to-str digit limit
            return self.coerce(value)
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"bad scalar {text!r} for field {self.name}") from None

    def random_scalar(self, rng: random.Random) -> int:
        """An int, not a Fraction over Q: `randint(-9, 9)` there (bounded height keeps Q runs fast), a residue
        over F_p.  `spaces.span` and `forms.form` take an int at its value, so it enters with no Fraction built."""
        return rng.randint(-9, 9) if self.p is None else rng.randrange(self.p)


QQ = FieldSpec(None)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
