"""Exact scalars: rationals with an adjoined imaginary unit.

All arithmetic in the library happens over Q(i).  A scalar stores
(a + b*i)/d as three Python ints with gcd(a, b, d) = 1 and d > 0, so every
value has exactly one representation and equality compares the three
ints.  The arithmetic works on the ints alone; ``fractions.Fraction``
appears only where a caller asks for one (``re``, ``im``, ``rational``,
``norm2``) and when a string other than the canonical "p/q" is parsed
(``_read_ratio``).  There is no floating point anywhere.

Vectors are held the same way inside the library: ``_over_lcm`` brings
ints, Fractions, numeric strings or GQs to int pairs over their least
common denominator, one form per vector, ``_real_over_lcm`` is the one
place that refuses a nonzero imaginary part, and ``_int_rows`` does the
same for the rows of a real matrix.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

_MODULUS = sys.hash_info.modulus
_INF = sys.hash_info.inf


def _read_ratio(s: str):
    """(n, d) in lowest terms with d > 0 for a numeric string.  The form the
    writers emit, [+-]digits[/digits] in ASCII with a nonzero denominator, is
    read with int() and one gcd; any other string as Fraction(s) reads or
    refuses it, but a decimal exponent past the int string limit is refused."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if s.isascii() and digits.isdigit() and (den.isdigit() or not slash):
        n, d = int(num), int(den or 1)  # past the int string limit, int() refuses as it does in Fraction(s)
        if d:
            g = gcd(n, d)
            return n // g, d // g
    m = re.search(r"[eE]([-+]?[\d_]+)\s*$", s)
    if m and 0 < sys.get_int_max_str_digits() < abs(int(m[1])):
        raise ValueError(f"exponent {m[1]} in {s!r} exceeds the int string limit {sys.get_int_max_str_digits()}")
    x = Fraction(s)
    return x.numerator, x.denominator


def _ratio(x):
    """(numerator, denominator) of an int, Fraction or numeric string."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        return _read_ratio(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {x!r}")


def _lowest(n, d):
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _fraction_str(n, d):
    """str(Fraction(n, d)), for d > 0."""
    n, d = _lowest(n, d)
    return f"{n}" if d == 1 else f"{n}/{d}"


def _rational_hash(n, d):
    """hash(Fraction(n, d)) for d > 0, computed from the ints."""
    if d % _MODULUS == 0:
        n, d = _lowest(n, d)
    if d % _MODULUS == 0:
        h = _INF
    else:
        h = abs(n) * pow(d, -1, _MODULUS) % _MODULUS
    if n < 0:
        h = -h
    return -2 if h == -1 else h


class GQ:
    """A Gaussian rational a + b*i with exact rational a, b."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_a(self, re)
            _set_b(self, im)
            _set_d(self, 1)
            return
        p, q = _ratio(re)
        r, s = _ratio(im)
        # both parts are reduced, so over their lcm the gcd of all three is 1
        d = q * s // gcd(q, s)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GQ is immutable")

    # -- conversions -------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(x) -> "GQ":
        y = GQ._coerce(x)
        if y is None:
            raise TypeError(f"cannot coerce {x!r} to GQ")
        return y

    @staticmethod
    def _coerce(x):
        if isinstance(x, GQ):
            return x
        if isinstance(x, int):
            return _mk(x, 0, 1)
        if isinstance(x, Fraction):
            return _mk(x.numerator, 0, x.denominator)
        return None

    def rational(self) -> Fraction:
        """Return self as a Fraction; raises if the imaginary part is nonzero."""
        if self._b:
            raise ValueError(f"{self} is not real")
        return Fraction(self._a, self._d)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not GQ:
            other = GQ._coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _mk(self._a + other._a, self._b + other._b, d)
        return _mk(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _mk(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GQ:
            other = GQ._coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _mk(self._a - other._a, self._b - other._b, d)
        return _mk(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return GQ.of(other) - self

    def __mul__(self, other):
        if type(other) is not GQ:
            other = GQ._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b and not e:
            return _mk(a * c, 0, self._d * other._d)
        return _mk(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GQ:
            other = GQ._coerce(other)
            if other is None:
                return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _mk(a * f, b * f, d * c)
        n = c * c + e * e
        return _mk((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        return GQ.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return ONE / self ** (-k)
        if not self._b:
            # gcd(a, d) = 1 gives gcd(a^k, d^k) = 1
            return _mk(self._a**k, 0, self._d**k)
        # square and multiply on the Gaussian integer a + b*i, reduced once
        a, b, pa, pb, d = self._a, self._b, 1, 0, self._d**k
        while k:
            if k & 1:
                pa, pb = pa * a - pb * b, pa * b + pb * a
            a, b = a * a - b * b, 2 * a * b
            k >>= 1
        return _mk(pa, pb, d)

    def conj(self) -> "GQ":
        return _mk(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """Modulus squared, an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- equality / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GQ):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction for a real value, of the pair (re, im)
        # otherwise; int hashes equal the hashes of equal Fractions
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return hash(a) if not b else hash((a, b))
        if not b:
            return _rational_hash(a, d)
        return hash((_rational_hash(a, d), _rational_hash(b, d)))

    def __repr__(self):
        # str() of the Fraction parts
        a, b, d = self._a, self._b, self._d
        if not b:
            return _fraction_str(a, d)
        if not a:
            return f"{_fraction_str(b, d)}*i"
        sign = "+" if b > 0 else "-"
        return f"{_fraction_str(a, d)} {sign} {_fraction_str(abs(b), d)}*i"


_new = object.__new__
_set_a = GQ._a.__set__
_set_b = GQ._b.__set__
_set_d = GQ._d.__set__


def _mk(a, b, d):
    """The GQ (a + b*i)/d for d != 0, brought to lowest terms with d > 0."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _new(GQ)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _triple(x: GQ):
    """The normalized ints (a, b, d) with x = (a + b*i)/d."""
    return x._a, x._b, x._d


def _parts(x):
    """(a, b, d) with x = (a + b*i)/d in lowest terms, for an int, Fraction,
    numeric string or GQ."""
    if type(x) is GQ:
        return x._a, x._b, x._d
    if type(x) is Fraction:
        return x.numerator, 0, x.denominator
    n, d = _ratio(x)
    return n, 0, d


def _over_lcm(values):
    """(pairs, d): the values as int pairs (a, b) over their least common
    denominator d, value k being (a_k + b_k*i)/d.  The lcm of reduced
    denominators leaves gcd(d, every a, every b) = 1, so a vector has one
    such form."""
    triples = [_parts(x) for x in values]
    d = lcm(*[e for _, _, e in triples])
    if d == 1:
        return [(a, b) for a, b, _ in triples], 1
    return [(a * (d // e), b * (d // e)) for a, b, e in triples], d


def _real_over_lcm(values):
    """(ints, d): ``_over_lcm`` for real values; a value with a nonzero
    imaginary part is a ValueError naming it."""
    pairs, d = _over_lcm(values)
    for a, b in pairs:
        if b:
            raise ValueError(f"{_mk(a, b, d)} is not real")
    return [a for a, _ in pairs], d


def _int_rows(vectors):
    """Real vectors as tuples of ints over one denominator: (rows, e)."""
    vectors = [tuple(v) for v in vectors]
    flat, e = _real_over_lcm([x for v in vectors for x in v])
    it = iter(flat)
    return tuple(tuple(islice(it, len(v))) for v in vectors), e


def _re_im(pairs):
    """The real and the imaginary parts of int pairs, as two lists."""
    return [a for a, _ in pairs], [b for _, b in pairs]


def _fractions(ints, d):
    """The vector ints / d as a tuple of Fraction, for the names that hand
    out Fractions."""
    return tuple(Fraction(x, d) for x in ints)


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


def gq_from_string(s: str) -> GQ:
    """Parse "p/q", "p/q + r/s i", "p/q - r/s i" or "r/s i" into a GQ."""
    t = s.replace(" ", "")
    if "i" not in t:
        n, d = _read_ratio(t)
        return _mk(n, 0, d)
    if not t.endswith("i"):
        raise ValueError(f"text after the imaginary unit in {s!r}")
    star = t.endswith("*i")
    t = t[: -2 if star else -1]
    # split off the real part, if any, at the last top-level +/- sign; a
    # sign after e or E belongs to an exponent
    for k in range(len(t) - 1, 0, -1):
        if t[k] in "+-" and t[k - 1] not in "+-*/eE":
            re_part, im_part = t[:k], t[k:]
            break
    else:
        re_part, im_part = "", t
    # a bare "i", "+i" or "-i" has the coefficient 1 or -1; "*i" needs one
    if im_part in ("", "+", "-"):
        if star:
            raise ValueError(f"no coefficient before '*i' in {s!r}")
        im_part += "1"
    b, e = _read_ratio(im_part)
    a, d = _read_ratio(re_part) if re_part else (0, 1)
    return _mk(a * e, b * d, d * e)


def _ratio_str(n, d):
    """n/d as the decimal-free "p/q" in lowest terms, for d > 0."""
    n, d = _lowest(n, d)
    return f"{n}/{d}"


def gq_to_string(x: GQ) -> str:
    """Serialize a GQ in the decimal-free "p/q" / "p/q ± r/s i" form."""
    a, b, d = _triple(x)
    if not b:
        return _ratio_str(a, d)
    sign = "+" if b > 0 else "-"
    return f"{_ratio_str(a, d)} {sign} {_ratio_str(abs(b), d)} i"
