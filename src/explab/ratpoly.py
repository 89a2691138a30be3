"""Exact univariate polynomials in the time variable t over the rationals.

Coefficients are `fractions.Fraction` values stored densely in ascending
degree with no trailing zeros, so equal polynomials always compare and hash
equal. The zero polynomial has an empty coefficient tuple and degree -1.
All arithmetic is exact; floats are rejected at construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = ["RatPoly", "as_fraction"]

RationalLike = Union[int, str, Fraction]


# CPython refuses to print an int of more decimal digits than this (its
# default int_max_str_digits); Fraction("1e<n>") computes 10**n, so a
# decimal exponent is held to the same bound before any digits exist
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e[-+]?[0_]*([0-9_]+)\s*\Z", re.IGNORECASE)
# the smallest integer of MAX_DIGITS + 1 digits; an int of fewer bits is below it
_TOO_LONG = 10 ** MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()


def _printable(value: Fraction) -> Fraction:
    for n in (value.numerator, value.denominator):
        if n.bit_length() >= _TOO_LONG_BITS and abs(n) >= _TOO_LONG:
            raise ValueError("coefficient beyond %d digits" % MAX_DIGITS)
    return value


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int/str/Fraction to Fraction, refusing inexact types and
    bool (a JSON true is not the number 1). A string with a zero
    denominator or a decimal exponent beyond MAX_DIGITS is a ValueError,
    and so is a string or int whose numerator or denominator has more than
    MAX_DIGITS digits, which could not be printed. A Fraction, the result
    of exact arithmetic, is taken as it is."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent[1].replace("_", "") if exponent else ""
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise ValueError("decimal exponent beyond %d" % MAX_DIGITS)
        try:
            return _printable(Fraction(value))
        except ZeroDivisionError:
            raise ValueError("zero denominator") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return _printable(Fraction(value))
    raise TypeError("exact rational expected, got %r" % (value,))


class RatPoly:
    """Immutable polynomial p(t) with rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def constant(cls, value: RationalLike) -> "RatPoly":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "RatPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @classmethod
    def t(cls) -> "RatPoly":
        return cls((0, 1))

    # -- basic queries -----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == RatPoly((other,))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RatPoly", self._coeffs))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return RatPoly(tuple(c * f for c in self._coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly(out)

    __rmul__ = __mul__

    def __call__(self, t0):
        """Horner evaluation. Exact for int/Fraction arguments.

        A float, or a float ndarray elementwise, is evaluated in floats on
        float(c): the same bits as Horner on the Fraction coefficients,
        whose mixed operators convert both operands to float first.
        """
        floats = (isinstance(t0, float)
                  or getattr(getattr(t0, "dtype", None), "kind", None) == "f")
        if not self._coeffs:
            if floats and not isinstance(t0, float):
                import numpy as np  # numpy is loaded: t0 is one of its arrays
                return np.zeros(t0.shape)
            return 0.0 if isinstance(t0, float) else Fraction(0)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * t0 + (float(c) if floats else c)
        return acc

    # -- calculus ----------------------------------------------------

    def differentiate(self) -> "RatPoly":
        return RatPoly(tuple(k * self._coeffs[k] for k in range(1, len(self._coeffs))))

    # -- serialization -----------------------------------------------

    def to_strings(self) -> list:
        """Ascending-degree coefficient strings, "num/den" with "/1" omitted."""
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "RatPoly":
        """Read `to_strings` output, a list or tuple; a float (JSON 0.1) or
        bool is refused, and so is any other container: a bare string would
        read digit by digit, and an object by its keys."""
        if not isinstance(items, (list, tuple)):
            raise TypeError("a list of coefficient strings expected, got %r" % (items,))
        return cls(items)

    def __repr__(self) -> str:
        return "RatPoly(%r)" % (self.to_strings(),)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                var = "t" if k == 1 else "t^%d" % k
                if c == 1:
                    body = var
                elif c == -1:
                    body = "-" + var
                else:
                    body = "%s*%s" % (c, var)
            if parts and not body.startswith("-"):
                parts.append("+ " + body)
            elif parts:
                parts.append("- " + body[1:])
            else:
                parts.append(body)
        return " ".join(parts)
