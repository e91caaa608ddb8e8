import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.exactnum import (
    GaussianRational,
    I_UNIT,
    ONE,
    ScalarParseError,
    ZERO,
    as_scalar,
    format_scalar,
    parse_scalar,
)


def rand_scalar(rng, bound=9):
    return GaussianRational(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
    )


def test_field_axioms_bulk():
    rng = random.Random(12345)
    for _ in range(10_000):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO
        if not b.is_zero():
            assert (a / b) * b == a


def test_involution_and_modulus():
    rng = random.Random(777)
    for _ in range(2_000):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a
        prod = a * a.conj()
        assert prod.im == 0
        assert prod.re == a.re * a.re + a.im * a.im
        assert prod.re >= 0
    assert I_UNIT * I_UNIT == -ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


_frac = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)


@settings(max_examples=300)
@given(_frac, _frac)
def test_parse_format_round_trip(re, im):
    z = GaussianRational(re, im)
    assert parse_scalar(format_scalar(z)) == z


@settings(max_examples=300)
@given(_frac, _frac, _frac, _frac)
def test_arithmetic_matches_fractions(r1, i1, r2, i2):
    a = GaussianRational(r1, i1)
    b = GaussianRational(r2, i2)
    s = a * b
    assert s.re == r1 * r2 - i1 * i2
    assert s.im == r1 * i2 + i1 * r2


@pytest.mark.parametrize(
    "text,re,im",
    [
        ("5", 5, 0),
        ("-3", -3, 0),
        ("0", 0, 0),
        ("3/4", Fraction(3, 4), 0),
        ("-3/4", Fraction(-3, 4), 0),
        ("2i", 0, 2),
        ("1i", 0, 1),
        ("-1/2i", 0, Fraction(-1, 2)),
        ("0i", 0, 0),
        ("3+4i", 3, 4),
        ("1-2i", 1, -2),
        ("3/4+1/2i", Fraction(3, 4), Fraction(1, 2)),
        ("-2/3-5/7i", Fraction(-2, 3), Fraction(-5, 7)),
    ],
)
def test_parse_valid(text, re, im):
    assert parse_scalar(text) == GaussianRational(Fraction(re), Fraction(im))


@pytest.mark.parametrize(
    "text",
    ["i", "-i", "1.5", "1 + 2i", "", "2/0", "1//2", "--3", "+4", "4+i",
     "3i+4", " 1", "1 ", "1+2j", "2 i", "1e3", "4/-2", "3+-2i",
     # no trailing newline, and ASCII digits only
     "5\n", "3-4i\n", "2i\n", "1/2\n", "\u0663", "1/\uff12", "\uff13+1i", "1-\u0662i"],
)
def test_parse_rejects(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(text)


def test_parse_rejects_non_string():
    with pytest.raises(ScalarParseError):
        parse_scalar(1.5)  # type: ignore[arg-type]


def test_format_canonical():
    assert format_scalar(I_UNIT) == "1i"
    assert format_scalar(-I_UNIT) == "-1i"
    assert format_scalar(ZERO) == "0"
    assert format_scalar(GaussianRational(Fraction(1, 2))) == "1/2"
    assert format_scalar(GaussianRational(Fraction(3), Fraction(-4, 5))) == "3-4/5i"
    assert format_scalar(GaussianRational(Fraction(-1, 3), Fraction(2))) == "-1/3+2i"
    assert format_scalar(GaussianRational(0, Fraction(-7, 2))) == "-7/2i"


def test_as_scalar_coercions():
    assert as_scalar(3) == GaussianRational(3)
    assert as_scalar(Fraction(2, 5)) == GaussianRational(Fraction(2, 5))
    assert as_scalar("1-2i") == GaussianRational(1, -2)
    z = GaussianRational(1, 1)
    assert as_scalar(z) is z
    with pytest.raises(TypeError):
        as_scalar(1.5)


def test_immutability_and_hash():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)  # type: ignore[misc]
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))
    assert len({GaussianRational(1, 2), GaussianRational(1, 2), ONE}) == 2


def test_pickle_and_copy_round_trip():
    for z in (ZERO, ONE, I_UNIT, GaussianRational(Fraction(-3, 7), Fraction(2 ** 200, 3))):
        for back in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z), copy.copy(z)):
            assert back == z and hash(back) == hash(z)
            assert isinstance(back.re, Fraction) and isinstance(back.im, Fraction)
