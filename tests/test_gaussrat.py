"""GaussRat against a (Fraction, Fraction) pair oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from fwalg.gaussrat import I, MINUS_I, ONE, ZERO, GaussRat

from conftest import from_pairs, im_pair, re_pair

BIG = 2 ** 64


def _rand_part(rng: random.Random, big: bool) -> Fraction:
    if big:
        return Fraction(rng.randint(-BIG * 1000, BIG * 1000), rng.randint(1, BIG * 10))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 8))


def _rand_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Small, big, zero, pure real and pure imaginary values, mixed."""
    kind = rng.choice(("small", "small", "big", "zero", "real", "imag", "mixed"))
    if kind == "zero":
        return Fraction(0), Fraction(0)
    re = _rand_part(rng, kind == "big")
    im = _rand_part(rng, kind in ("big", "mixed") and rng.random() < 0.5)
    if kind == "real":
        im = Fraction(0)
    elif kind == "imag":
        re = Fraction(0)
    return re, im


def _pairs(n: int, seed: int):
    rng = random.Random(seed)
    return [_rand_pair(rng) for _ in range(n)]


def _check(x: GaussRat, re: Fraction, im: Fraction) -> None:
    assert (x.re, x.im) == (re, im)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (re, im)
    if re == 0 and im == 0:
        assert (a, b, d) == (0, 0, 1)


def _seed_str(re: Fraction, im: Fraction) -> str:
    """The text format of the two-Fraction GaussRat, written out as a reference."""
    def imag(v: Fraction) -> str:
        mag = abs(v)
        num = "i" if mag.numerator == 1 else f"{mag.numerator}i"
        den = "" if mag.denominator == 1 else f"/{mag.denominator}"
        return ("-" if v < 0 else "") + num + den
    if im == 0:
        return str(re)
    if re == 0:
        return imag(im)
    return f"{re}{'+' if im > 0 else '-'}{imag(abs(im))}"


def test_construction_is_canonical():
    for re, im in _pairs(500, 1):
        _check(GaussRat(re, im), re, im)
    _check(GaussRat(), Fraction(0), Fraction(0))
    _check(GaussRat(3), Fraction(3), Fraction(0))
    _check(GaussRat(0, -2), Fraction(0), Fraction(-2))
    _check(GaussRat(Fraction(1, 6), Fraction(-1, 4)), Fraction(1, 6), Fraction(-1, 4))
    assert (GaussRat(Fraction(1, 6), Fraction(-1, 4))._a,
            GaussRat(Fraction(1, 6), Fraction(-1, 4))._d) == (2, 12)


def test_integer_pairs_match_fraction_views():
    rng = random.Random(5)
    for re, im in _pairs(300, 11):
        x = GaussRat(re, im)
        assert re_pair(x) == (re.numerator, re.denominator)
        assert im_pair(x) == (im.numerator, im.denominator)
        # any multiple of either pair, of either sign, gives the same number
        k, m = rng.choice((1, -1, 3, -4)), rng.choice((1, -2, 5))
        _check(from_pairs(k * re.numerator, k * re.denominator,
                          m * im.numerator, m * im.denominator), re, im)
        # a shared denominator or a zero part, of either sign
        a, b, d = rng.randint(-30, 30), rng.randint(-30, 30), rng.choice((1, -1, 6, -8, 9))
        e = rng.choice((1, -3, 4))
        _check(from_pairs(a, d, b, d), Fraction(a, d), Fraction(b, d))
        _check(from_pairs(a, d, 0, e), Fraction(a, d), Fraction(0))
        _check(from_pairs(0, e, b, d), Fraction(0), Fraction(b, d))
    with pytest.raises(ZeroDivisionError):
        from_pairs(1, 0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        from_pairs(1, 1, 0, 0)


def test_arithmetic_matches_pair_oracle():
    pairs = _pairs(600, 2)
    for (r1, i1), (r2, i2) in zip(pairs, pairs[1:] + pairs[:1]):
        x, y = GaussRat(r1, i1), GaussRat(r2, i2)
        _check(x + y, r1 + r2, i1 + i2)
        _check(x - y, r1 - r2, i1 - i2)
        _check(x * y, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        norm = r2 * r2 + i2 * i2
        if norm:
            _check(x / y, (r1 * r2 + i1 * i2) / norm, (i1 * r2 - r1 * i2) / norm)
        _check(-x, -r1, -i1)
        _check(x.conjugate(), r1, -i1)
        assert x.is_zero == (r1 == 0 and i1 == 0) == (not x)


def test_mixed_operands_with_int_and_fraction():
    for re, im in _pairs(200, 3):
        x = GaussRat(re, im)
        for s in (0, 2, -7, Fraction(3, 5), Fraction(-BIG, 3)):
            _check(x + s, re + s, im)
            _check(s + x, re + s, im)
            _check(x - s, re - s, im)
            _check(s - x, s - re, -im)
            _check(x * s, re * s, im * s)
            _check(s * x, re * s, im * s)
            if s:
                _check(x / s, re / s, im / s)


def test_equality_and_hash():
    pairs = _pairs(400, 4)
    for (r1, i1), (r2, i2) in zip(pairs, pairs[1:] + pairs[:1]):
        x, y = GaussRat(r1, i1), GaussRat(r2, i2)
        assert (x == y) == ((r1, i1) == (r2, i2))
        assert (x != y) == ((r1, i1) != (r2, i2))
        if r2 or i2:
            z = x * y / y  # equal to x, reached through unreduced intermediates
            assert z == x and hash(z) == hash(x)
        expected_hash = hash(r1) if i1 == 0 else hash((r1, i1))
        assert hash(x) == expected_hash
        if i1 == 0:
            assert x == r1 and r1 == x and hash(x) == hash(r1)
            if r1.denominator == 1:
                assert x == int(r1) and int(r1) == x and hash(x) == hash(int(r1))
        else:
            assert x != r1 and x != r1.numerator
    assert GaussRat(Fraction(1, 2)) != 0 and GaussRat(Fraction(1, 2)) != 1
    assert GaussRat(Fraction(4, 2)) == 2
    assert GaussRat(1) == True  # noqa: E712 - bool is an int, as for Fraction
    assert GaussRat(1) != 1.0  # floats are not coefficients
    assert {GaussRat(1): "x"}[1] == "x"


def test_str_and_repr_keep_the_text_format():
    for re, im in _pairs(400, 5):
        x = GaussRat(re, im)
        assert str(x) == _seed_str(re, im)
        assert repr(x) == f"GaussRat({re!r}, {im!r})"
    assert str(GaussRat(Fraction(1, 2), Fraction(1, 3))) == "1/2+i/3"
    assert str(GaussRat(Fraction(-3, 4), -2)) == "-3/4-2i"
    assert str(GaussRat(0, Fraction(-1, 2))) == "-i/2"
    assert str(GaussRat(0, 5)) == "5i"
    assert str(GaussRat(7)) == "7" and str(ZERO) == "0"
    assert repr(I) == "GaussRat(Fraction(0, 1), Fraction(1, 1))"


def test_constants():
    assert ZERO == 0 and ONE == 1
    assert I * I == -1 and MINUS_I == -I and I * MINUS_I == 1


def test_division_by_zero_raises():
    for x in (ONE, I, GaussRat(Fraction(BIG, 3), -5), ZERO):
        with pytest.raises(ZeroDivisionError):
            x / ZERO
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            x / Fraction(0)


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2", None, 1j])
def test_only_int_and_fraction_components(bad):
    with pytest.raises(TypeError):
        GaussRat(bad)
    with pytest.raises(TypeError):
        GaussRat(1, bad)
    with pytest.raises(TypeError):
        GaussRat.coerce(bad)


def test_non_numbers_are_not_operands():
    x = GaussRat(1, 1)
    for bad in (0.5, "1"):
        for op in (lambda: x + bad, lambda: bad + x, lambda: x - bad,
                   lambda: bad - x, lambda: x * bad, lambda: bad * x, lambda: x / bad):
            with pytest.raises(TypeError):
                op()
