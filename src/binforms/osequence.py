"""Eventually-constant integer sequences used as Hilbert functions.

An OSequence stores a finite prefix plus the eventual value.  constant=None
is the one non-constant case allowed: the sequence of the zero ideal,
H_i = i+1 forever.  Normalization trims the prefix so equal sequences
compare equal structurally.

Text syntax: "1,2,3,4,3,2,1(1)" is prefix + eventual constant; a bare list
"1,2,3,2,1,0" treats the last entry as the constant; "(+)" marks the
zero-ideal sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class OSequence:
    prefix: tuple[int, ...]
    constant: int | None  # None: H_i = i+1 beyond the prefix (zero ideal)

    def value(self, i: int) -> int:
        if i < 0:
            return 0
        if i < len(self.prefix):
            return self.prefix[i]
        return self.constant if self.constant is not None else i + 1

    def values(self, upto: int) -> tuple[int, ...]:
        """(H_0, …, H_upto), read as one slice of the prefix and its padding."""
        head = self.prefix[: max(upto + 1, 0)]
        if self.constant is None:
            return head + tuple(range(len(head) + 1, upto + 2))
        return head + (self.constant,) * (upto + 1 - len(head))

    @property
    def is_zero_ideal(self) -> bool:
        return self.constant is None

    def order(self) -> int | None:
        """Smallest i with H_i < i+1 (the ideal's initial degree); None if never."""
        for i, h in enumerate(self.prefix):
            if h < i + 1:
                return i
        if self.constant is None:
            return None
        return max(len(self.prefix), self.constant)

    def stabilization(self) -> int:
        """Smallest s with H_i = constant for all i >= s: the prefix length, as `oseq` trims its end."""
        if self.constant is None:
            raise PreconditionError("zero-ideal sequence never stabilizes")
        return len(self.prefix)

    def e(self, i: int) -> int:
        """First difference the Hilbert-function way: e_i = H_{i-1} - H_i."""
        return self.value(i - 1) - self.value(i)

    def __str__(self) -> str:
        body = ",".join(str(v) for v in self.prefix)
        tail = "+" if self.constant is None else str(self.constant)
        return f"{body}({tail})" if body else f"({tail})"


def oseq(values, constant: int | None) -> OSequence:
    """Normalizing constructor: trims prefix entries equal to the eventual value."""
    prefix = list(values)
    if not set(map(type, prefix)) <= {int} or (prefix and min(prefix) < 0):
        raise PreconditionError("Hilbert function values must be non-negative ints")
    if constant is not None and (type(constant) is not int or constant < 0):
        raise PreconditionError("eventual constant must be a non-negative int")
    if constant is None:
        while prefix and prefix[-1] == len(prefix):
            prefix.pop()
    else:
        while prefix and prefix[-1] == constant:
            prefix.pop()
    return OSequence(tuple(prefix), constant)


def parse_oseq(text: str) -> OSequence:
    text = text.strip()
    if not text:
        raise PreconditionError("empty Hilbert-function text")
    const: int | None
    if text.endswith(")"):
        body, _, ctext = text[:-1].rpartition("(")
        ctext = ctext.strip()
        const = None if ctext == "+" else _int(ctext)
    else:
        parts = [p for p in text.split(",") if p.strip()]
        if not parts:
            raise PreconditionError(f"bad Hilbert-function text {text!r}")
        body, const = ",".join(parts[:-1]), _int(parts[-1])
    values = [_int(p) for p in body.split(",") if p.strip()]
    return oseq(values, const)


def _int(s: str) -> int:
    try:
        return int(s.strip())
    except ValueError:
        raise PreconditionError(f"bad integer {s!r} in Hilbert-function text") from None

