"""Field axioms and string round-trips for the Gaussian rational scalars."""

from fractions import Fraction

from hypothesis import given, strategies as st

from laurcalc import GQ, gq_from_string, gq_to_string

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


def test_norm_and_conjugate():
    a = GQ(Fraction(3), Fraction(-4))
    assert a.norm2() == Fraction(25)
    assert (a * a.conj()).re == Fraction(25)
