from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fwalg.gaussrat import GaussRat, I, binom_coeff
from fwalg.opalg import (
    BETA, E, F, MASS, MC2, O, VELOCITY, NonIncreasingOrder, OperatorExpr,
    SymbolRegistry, DuplicateSymbol, ad_exp_conjugate, anticommutator,
    commutator, exp_series, normalize, one, scale, sym, word, zero,
)

from conftest import rand_expr, rand_raw_term

b, o, f, e = sym(BETA), sym(O), sym(F), sym(E)


def mass_term():
    return word(1, [BETA], mass_power=-1)


# -- normalization -------------------------------------------------------------

def test_beta_squared_is_identity():
    assert b * b == one()


def test_odd_beta_swap():
    assert o * b == -(b * o)


def test_merge_after_rewriting():
    assert b * o + o * b + b * o == b * o


def test_mc2_generator_folds_into_mass_power():
    assert sym(MC2) * word(1, [O], mass_power=1) == o
    assert word(1, [MC2, BETA, MC2]) == word(1, [BETA], mass_power=-2)


def test_normalize_accepts_raw_terms():
    raw = [(GaussRat(1), 0, 0, (O, BETA, O, BETA))]
    # O beta O beta = -O O beta beta = -O^2
    assert normalize(raw) == -(o * o)


def test_normalize_idempotent_on_expressions():
    x = b * o * f + e * o - word(Fraction(2, 3), [BETA, F])
    assert normalize(normalize(x)) == normalize(x)


# -- ring operations --------------------------------------------------------------

def test_mul_example_beta_o_squared():
    assert (b * o) * (b * o) == -(o * o)


def test_mul_identity_and_additive_inverse(rng):
    for _ in range(50):
        x = rand_expr(rng)
        assert x * one() == x
        assert one() * x == x
        assert x + scale(-1, x) == zero()


def test_mul_associative_distributive(rng):
    for _ in range(300):
        x, y, z = (rand_expr(rng, max_terms=2, max_len=3) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def test_scalar_ops():
    assert 2 * o == o + o
    assert o / 2 + o / 2 == o
    assert Fraction(1, 3) * (3 * f) == f
    assert (b * o) ** 2 == -(o * o)
    assert f ** 0 == one()


# -- commutators --------------------------------------------------------------------

def test_commutator_beta_odd():
    assert commutator(b, o) == 2 * (b * o)


def test_commutator_beta_even_vanishes():
    assert commutator(b, f).is_zero


def test_commutator_stays_formal():
    x = commutator(o, f)
    assert x == o * f - f * o
    assert len(x) == 2


def test_nested_commutator_identity():
    # [[O,F],[[O,F],F]] - [[O,[[O,F],F]],F] = -[O,[[[O,F],F],F]]
    x = commutator(o, f)
    w = commutator(x, f)
    lhs = commutator(x, w) - commutator(commutator(o, w), f)
    rhs = -commutator(o, commutator(w, f))
    assert lhs == rhs


def test_commutator_properties(rng):
    for _ in range(300):
        x, y, z = (rand_expr(rng, max_terms=2, max_len=3) for _ in range(3))
        assert commutator(x, y) == -commutator(y, x)
        jac = (commutator(x, commutator(y, z))
               + commutator(y, commutator(z, x))
               + commutator(z, commutator(x, y)))
        assert jac.is_zero
        assert anticommutator(x, y) == anticommutator(y, x)


def test_commutator_bilinear(rng):
    for _ in range(200):
        x, y, z = (rand_expr(rng, max_terms=2, max_len=3) for _ in range(3))
        c = GaussRat(Fraction(3, 2), Fraction(-1, 3))
        assert commutator(x + scale(c, y), z) \
            == commutator(x, z) + scale(c, commutator(y, z))
        assert commutator(z, x + scale(c, y)) \
            == commutator(z, x) + scale(c, commutator(z, y))


# -- adjoint -----------------------------------------------------------------------

def test_adjoint_i_beta_o_is_self_adjoint():
    x = scale(I, b * o)
    assert x.adjoint() == x


def test_adjoint_generator():
    assert f.adjoint() == f


def test_adjoint_involution_and_antihomomorphism(rng):
    for _ in range(300):
        x = rand_expr(rng)
        y = rand_expr(rng)
        assert x.adjoint().adjoint() == x
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()


# -- parity ------------------------------------------------------------------------

def test_parity_split_dirac_form():
    h = mass_term() + e + o
    even, odd = h.parity_split()
    assert even == mass_term() + e
    assert odd == o


def test_parity_split_two_odd_factors_even():
    x = o * f * o
    even, odd = x.parity_split()
    assert even == x and odd.is_zero


def test_parity_split_commutator_odd():
    x = commutator(o, f)
    even, odd = x.parity_split()
    assert even.is_zero and odd == x


def test_parity_beta_relations(rng):
    for _ in range(300):
        x = rand_expr(rng)
        even, odd = x.parity_split()
        assert even + odd == x
        assert (b * even - even * b).is_zero
        assert (b * odd + odd * b).is_zero


# -- weight schemes and truncation ----------------------------------------------------

def test_velocity_truncation_keeps_order6_drops_order8():
    keep = word(Fraction(3, 64), [], mass_power=4) * anticommutator(
        o * o, commutator(o, commutator(o, f)))
    drop = word(1, [], mass_power=5) * anticommutator(o * o, commutator(o, f) ** 2)
    total = keep + drop
    assert total.truncate(VELOCITY, 6) == keep
    assert all(t.order(VELOCITY) == 8 for t in drop.terms)


def test_truncate_identity_when_order_high(rng):
    for _ in range(50):
        x = rand_expr(rng)
        assert x.truncate(VELOCITY, 100) == x
        assert x.truncate(MASS, 100) == x


def test_truncate_idempotent(rng):
    for _ in range(50):
        x = rand_expr(rng)
        for scheme in (VELOCITY, MASS):
            t = x.truncate(scheme, 3)
            assert t.truncate(scheme, 3) == t


def test_order_additive_under_mul(rng):
    for _ in range(300):
        a = OperatorExpr([rand_raw_term(rng, max_len=3)])
        bterm = OperatorExpr([rand_raw_term(rng, max_len=3)])
        prod = a * bterm
        assert len(prod) == 1
        for scheme in (VELOCITY, MASS):
            assert (prod.min_order(scheme)
                    == a.min_order(scheme) + bterm.min_order(scheme))


def test_mass_order_of_rest_term():
    assert mass_term().min_order(MASS) == -1
    assert mass_term().min_order(VELOCITY) == 0


# -- series -----------------------------------------------------------------------

def test_ad_exp_conjugate_zero_exponent(rng):
    k = rand_expr(rng)
    assert ad_exp_conjugate(zero(), k, VELOCITY, 6) == k.truncate(VELOCITY, 6)


def test_ad_exp_conjugate_free_particle_order2():
    s = word(GaussRat(0, Fraction(-1, 2)), [BETA, O], mass_power=1)
    k = mass_term() + o
    expected = mass_term() + word(Fraction(1, 2), [BETA, O, O], mass_power=1)
    assert ad_exp_conjugate(s, k, VELOCITY, 2) == expected


def test_ad_exp_conjugate_rejects_order_zero_exponent():
    with pytest.raises(NonIncreasingOrder):
        ad_exp_conjugate(b, mass_term(), VELOCITY, 4)


def test_exp_series_unitary(rng):
    s = word(GaussRat(0, Fraction(-1, 2)), [BETA, O], mass_power=1)
    u = exp_series(scale(I, s), VELOCITY, 6)
    assert (u * u.adjoint()).truncate(VELOCITY, 6) == one()


def test_exp_series_rejects_order_zero():
    with pytest.raises(NonIncreasingOrder):
        exp_series(one(), VELOCITY, 4)


# -- registry -----------------------------------------------------------------------

def test_registry_builtins_and_custom():
    reg = SymbolRegistry()
    assert "beta" in reg and "O" in reg and "m" in reg
    q = reg.register("Q", "odd", 3)
    assert reg.lookup("Q") is q
    with pytest.raises(DuplicateSymbol):
        reg.register("Q", "even", 0)
    with pytest.raises(DuplicateSymbol):
        reg.register("beta", "even", 0)


def test_binom_coeff_half_values():
    half = Fraction(1, 2)
    assert [binom_coeff(half, n) for n in range(5)] == [
        Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16),
        Fraction(-5, 128)]


# -- hypothesis: normal form is stable under re-normalization ------------------------

@st.composite
def raw_terms(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        length = draw(st.integers(0, 4))
        syms = tuple(draw(st.sampled_from((BETA, O, F, E, MC2)))
                     for _ in range(length))
        coeff = GaussRat(
            Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5))),
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
        )
        terms.append((coeff, draw(st.integers(-1, 2)), draw(st.integers(0, 1)), syms))
    return terms


@given(raw_terms())
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_hypothesis(terms):
    x = normalize(terms)
    assert normalize(x) == x
    rebuilt = normalize(list(x.terms))
    assert rebuilt == x


def test_determinism_under_term_order(rng):
    for _ in range(100):
        raw = [rand_raw_term(rng) for _ in range(4)]
        x = OperatorExpr(raw)
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert OperatorExpr(shuffled) == x
        # + merges two normal forms; it must agree with normalizing their terms
        a, b = OperatorExpr(shuffled[:2]), OperatorExpr(shuffled[2:])
        assert a + b == b + a == normalize(list(a.terms) + list(b.terms)) == x
        assert a + a == normalize(list(a.terms) * 2)
