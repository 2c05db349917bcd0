"""Field axioms and string round-trips for the Gaussian rational scalars."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from laurcalc import GQ, gq_from_string, gq_to_string
from laurcalc import io as lio
from laurcalc.scalars import _ratio, _triple

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gqs = st.builds(GQ, fracs, fracs)


@given(gqs, gqs, gqs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gqs)
def test_inverse(a):
    if not a.is_zero():
        assert a * (GQ(1) / a) == GQ(1)
    assert a + (-a) == GQ(0)


def test_a_number_minus_a_gq():
    # an int or a Fraction on the left leaves the subtraction to GQ.__rsub__
    for a in (GQ(Fraction(3, 4)), GQ(Fraction(1, 2), Fraction(-5, 3)), GQ(0, 7)):
        for x in (0, 2, -3, Fraction(3, 4), Fraction(-7, 6)):
            assert x - a == GQ(x) - a and type(x - a) is GQ
    assert 1 - GQ(Fraction(1, 3), 2) == GQ(Fraction(2, 3), -2)


@given(gqs)
def test_string_roundtrip(a):
    assert gq_from_string(gq_to_string(a)) == a


@given(gqs, st.integers(min_value=0, max_value=8))
def test_pow(a, k):
    expect = GQ(1)
    for _ in range(k):
        expect = expect * a
    assert a**k == expect


def test_parsing_forms():
    assert gq_from_string("3/4") == GQ(Fraction(3, 4))
    assert gq_from_string("-1/2 + 5/3 i") == GQ(Fraction(-1, 2), Fraction(5, 3))
    assert gq_from_string("0/1 - 2/1 i") == GQ(0, Fraction(-2))
    # a sign inside an exponent does not split off the real part
    assert gq_from_string("2+1e-3i") == GQ(2, Fraction(1, 1000))
    assert gq_from_string("2-1E+2i") == GQ(2, -100)


@pytest.mark.parametrize("s", ["3i7", "7i/2", "1 - i)", "2+3i*", "i1"])
def test_text_after_the_imaginary_unit_is_refused(s):
    # an i with more text after it ends no imaginary part
    with pytest.raises(ValueError, match="text after the imaginary unit"):
        gq_from_string(s)


@pytest.mark.parametrize("s", ["*i", "+*i", "2+*i", "2-*i", "- * i"])
def test_star_i_without_a_coefficient_is_refused(s):
    # a bare i, +i or -i has the coefficient 1 or -1, but *i follows a written one
    with pytest.raises(ValueError, match=r"no coefficient before '\*i'"):
        gq_from_string(s)


def test_huge_exponent_is_refused_not_expanded():
    """A decimal exponent beyond the int string limit is a ValueError
    wherever a string becomes a Fraction.  Fraction itself would build the
    power of ten, so the calls run in a subprocess with a timeout."""
    probe = """
import sys
from laurcalc.io import ParseFailure, frac_from_str
from laurcalc.scalars import GQ, gq_from_string
limit = sys.get_int_max_str_digits()
assert gq_from_string(f"1e{limit}") == GQ(10**limit)
for parse, s in [(gq_from_string, "1e99999999"), (gq_from_string, "2+1e-99999999i"), (GQ, "-1E+99999999"),
                 (frac_from_str, f"1e{limit + 1}")]:
    try:
        parse(s)
    except (ValueError, ParseFailure) as e:
        print(e.__cause__ or e)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    exponents = ["99999999", "-99999999", "+99999999", str(sys.get_int_max_str_digits() + 1)]
    assert [line.split(" in ")[0] for line in done.stdout.splitlines()] == [f"exponent {e}" for e in exponents]


def test_norm_and_conjugate():
    a = GQ(Fraction(3), Fraction(-4))
    assert a.norm2() == Fraction(25)
    assert (a * a.conj()).re == Fraction(25)


# -- the integer-triple representation ----------------------------------


@given(fracs, fracs)
def test_parts_are_fractions(a, b):
    x = GQ(a, b)
    assert x.re == a and x.im == b
    assert type(x.re) is Fraction and type(x.im) is Fraction


@given(fracs, fracs)
def test_hash_matches_fractions(a, b):
    # set and dict order feed the outputs, so the hashes are those of the
    # Fraction for a real value and of the pair (re, im) otherwise
    assert hash(GQ(a)) == hash(a)
    if b != 0:
        assert hash(GQ(a, b)) == hash((a, b))


def test_hash_with_modulus_denominator():
    # denominators divisible by the hash modulus 2**61 - 1, where the
    # unreduced real or imaginary part must be reduced first
    p = 2**61 - 1
    for re, im in [
        (Fraction(1, p), 0),
        (Fraction(-1, p), Fraction(1, 3)),
        (Fraction(p, 3), Fraction(1, p)),
    ]:
        x = GQ(re, im)
        assert hash(x) == (hash(re) if im == 0 else hash((re, im)))


@given(gqs, gqs)
def test_triple_is_normalized(x, y):
    a, b, d = _triple(x * y + y)
    assert d > 0 and gcd(a, b, d) == 1
    assert _triple(x + y - y) == _triple(x)
    if not y.is_zero():
        assert _triple((x * y) / y) == _triple(x)


@given(st.integers(min_value=-10**6, max_value=10**6), fracs)
def test_equality_with_int_and_fraction(n, q):
    assert GQ(n) == n and GQ(q) == q
    assert GQ(n, 1) != n and GQ(q, 1) != q
    assert (GQ(q) == n) == (q == n)


@given(fracs, fracs)
def test_strings_match_fraction_parts(a, b):
    # repr keys the sorted output order, so it must stay str() of the parts
    x = GQ(a, b)
    sign = "+" if b > 0 else "-"
    if b == 0:
        assert repr(x) == str(a)
    elif a == 0:
        assert repr(x) == f"{b}*i"
    else:
        assert repr(x) == f"{a} {sign} {abs(b)}*i"
    want = f"{a.numerator}/{a.denominator}"
    if b != 0:
        want += f" {sign} {abs(b).numerator}/{abs(b).denominator} i"
    assert gq_to_string(x) == want


def test_repr_and_string_table():
    table = [
        (GQ(0), "0", "0/1"),
        (GQ(5), "5", "5/1"),
        (GQ(Fraction(-3, 4)), "-3/4", "-3/4"),
        (GQ(0, 1), "1*i", "0/1 + 1/1 i"),
        (GQ(0, Fraction(-2, 3)), "-2/3*i", "0/1 - 2/3 i"),
        (GQ(Fraction(1, 2), Fraction(1, 3)), "1/2 + 1/3*i", "1/2 + 1/3 i"),
        (GQ(Fraction(-7, 6), Fraction(-5, 4)), "-7/6 - 5/4*i", "-7/6 - 5/4 i"),
        (GQ(2, -1), "2 - 1*i", "2/1 - 1/1 i"),
    ]
    for x, r, s in table:
        assert repr(x) == r
        assert gq_to_string(x) == s


def test_immutable():
    x = GQ(1, 2)
    for name in ("re", "_a"):
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
    assert x == GQ(1, 2)


def test_division_by_zero():
    for x in (GQ(1), GQ(1, 1)):
        with pytest.raises(ZeroDivisionError):
            x / GQ(0)


def test_arithmetic_builds_no_fraction(monkeypatch):
    xs = [GQ(Fraction(3, 4)), GQ(-2), GQ(Fraction(1, 2), Fraction(-5, 3)), GQ(0, 7)]
    q = Fraction(3, 4)
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        built.append(args)
        return real_new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x in xs:
        for y in xs:
            x + y, x - y, x * y, x / y, x == y, x + 1, 2 * x, x - q
        x**3, x ** (-2), -x, x.conj(), hash(x), x == q, x == 1
    assert built == []


# -- the string reader against a Fraction-based reference ----------------


def _reference_fraction(s):
    """Fraction(s), refusing a decimal exponent beyond the int string limit:
    the reader every string went through before the canonical form was read
    on ints."""
    m = re.search(r"[eE]([-+]?[\d_]+)\s*$", s)
    if m and 0 < sys.get_int_max_str_digits() < abs(int(m[1])):
        raise ValueError(f"exponent {m[1]} in {s!r} exceeds the int string limit {sys.get_int_max_str_digits()}")
    return Fraction(s)


def _reference_gq(s):
    t = s.replace(" ", "")
    if "i" not in t:
        return GQ(_reference_fraction(t))
    if not t.endswith("i"):
        raise ValueError(f"text after the imaginary unit in {s!r}")
    t = t[:-1]
    if t.endswith("*"):
        t = t[:-1]
    for k in range(len(t) - 1, 0, -1):
        if t[k] in "+-" and t[k - 1] not in "+-*/eE":
            re_part, im_part = t[:k], t[k:]
            break
    else:
        re_part, im_part = "", t
    # only a bare i has an implied coefficient; "*i" follows a written one
    if im_part in ("", "+", "-") and s.replace(" ", "").endswith("*i"):
        raise ValueError(f"no coefficient before '*i' in {s!r}")
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = _reference_fraction(im_part)
    real = _reference_fraction(re_part) if re_part else Fraction(0)
    return GQ(real, im)


def _reference_frac_from_str(s):
    try:
        return _reference_fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise lio.ParseFailure(f"not a number: {s!r}") from e


def _outcome(read, s):
    """The value read, as ints, or the exception's type and text, with those
    of its cause."""
    try:
        x = read(s)
    except Exception as e:  # noqa: BLE001 - the refusal is the outcome compared
        cause = e.__cause__
        return type(e), str(e), type(cause), str(cause)
    return _triple(x) if isinstance(x, GQ) else (type(x), x)


_LIMIT = sys.get_int_max_str_digits()
_CANONICAL = st.from_regex(r"[+-]?\d+(/\d+)?([+-]\d*(/\d+)?\*?i)?", fullmatch=True)


@given(st.one_of(st.text("0123456789+-/_ .eEi*", max_size=14), _CANONICAL))
@example("1" * (_LIMIT + 1))
@example("-" + "7" * (_LIMIT + 1) + "/3")
@example("1/" + "2" * (_LIMIT + 1))
@example("9" * _LIMIT + "/" + "6" * _LIMIT)
@example(f"1e{_LIMIT + 1}")
@example(f"2+1e-{_LIMIT + 1}i")
@example("1/0")
@example("-0/0003")
@example("\u0661\u0662/\u0663")  # Arabic-Indic digits
@example("\uff12")  # a fullwidth digit
@example("\u00b2")  # a superscript digit, which int() refuses
@example("1/-2")
@example(" 3/4 ")
@example("3i7")
@example("1 - i)")
@example("7i/2")
@example("*i")
@example("+*i")
@example("2+*i")
@example("2-*i")
def test_reader_matches_the_fraction_reference(s):
    """_ratio, gq_from_string, GQ(str) and io.frac_from_str read every string
    to the reference's value, or refuse it with the reference's exception
    type and text."""
    ratio = _outcome(_reference_fraction, s)
    if ratio[0] is Fraction:
        ratio = (tuple, (ratio[1].numerator, ratio[1].denominator))
    assert _outcome(_ratio, s) == ratio
    assert _outcome(gq_from_string, s) == _outcome(_reference_gq, s)
    assert _outcome(GQ, s) == _outcome(lambda t: GQ(_reference_fraction(t)), s)
    assert _outcome(lio.frac_from_str, s) == _outcome(_reference_frac_from_str, s)
