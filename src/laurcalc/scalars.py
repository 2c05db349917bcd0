"""Exact scalars: rationals with an adjoined imaginary unit.

All arithmetic in the library happens over Q(i).  A scalar is a pair of
``fractions.Fraction`` values (real and imaginary part); equality is exact
and there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GQ:
    """A Gaussian rational a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GQ is immutable")

    # -- conversions -------------------------------------------------

    @staticmethod
    def of(x) -> "GQ":
        if isinstance(x, GQ):
            return x
        if isinstance(x, (int, Fraction)):
            return GQ(x)
        raise TypeError(f"cannot coerce {x!r} to GQ")

    @staticmethod
    def _coerce(x):
        if isinstance(x, GQ):
            return x
        if isinstance(x, (int, Fraction)):
            return GQ(x)
        return None

    def rational(self) -> Fraction:
        """Return self as a Fraction; raises if the imaginary part is nonzero."""
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = GQ._coerce(other)
        if other is None:
            return NotImplemented
        return GQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __sub__(self, other):
        other = GQ._coerce(other)
        if other is None:
            return NotImplemented
        return GQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GQ.of(other) - self

    def __mul__(self, other):
        other = GQ._coerce(other)
        if other is None:
            return NotImplemented
        return GQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GQ._coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GQ(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GQ.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GQ(1) / self ** (-k)
        out = GQ(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "GQ":
        return GQ(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Modulus squared, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- equality / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GQ(other)
        if not isinstance(other, GQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


def gq_from_string(s: str) -> GQ:
    """Parse "p/q", "p/q + r/s i", "p/q - r/s i" or "r/s i" into a GQ."""
    t = s.replace(" ", "")
    if "i" not in t:
        return GQ(Fraction(t))
    t = t[: t.rindex("i")]
    if t.endswith("*"):
        t = t[:-1]
    # split off the real part, if any, at the last top-level +/- sign; a
    # sign after e or E belongs to an exponent
    for k in range(len(t) - 1, 0, -1):
        if t[k] in "+-" and t[k - 1] not in "+-*/eE":
            re_part, im_part = t[:k], t[k:]
            break
    else:
        re_part, im_part = "", t
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    re = Fraction(re_part) if re_part else Fraction(0)
    return GQ(re, im)


def gq_to_string(x: GQ) -> str:
    """Serialize a GQ in the decimal-free "p/q" / "p/q ± r/s i" form."""
    if x.im == 0:
        return f"{x.re.numerator}/{x.re.denominator}"
    re = f"{x.re.numerator}/{x.re.denominator}"
    sign = "+" if x.im >= 0 else "-"
    im = abs(x.im)
    return f"{re} {sign} {im.numerator}/{im.denominator} i"
