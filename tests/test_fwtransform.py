from fractions import Fraction

import pytest

from fwalg.gaussrat import GaussRat, I
from fwalg.opalg import (
    BETA, E, F, MASS, O, VELOCITY, commutator, exp_series, one, scale, sym,
    word, zero,
)
from fwalg.fwtransform import (
    BareFAnomaly, MissingMassTerm, NoConvergence, NotStationary,
    UnsupportedScheme, bch_combine, combine_steps, corrected_pipeline,
    correction_exponent, eriksen_condition_check, eriksen_series,
    eriksen_unitary_series, finalize_bare_f, fw_pipeline, fw_step,
    sign_operator_series, split_hamiltonian,
)
from fwalg import reference as ref
from fwalg.opalg import SymbolRegistry

from conftest import rand_expr_min_weight

b, o, f, e = sym(BETA), sym(O), sym(F), sym(E)


def dirac_h():
    return ref.mass_term() + e + o


# -- split ------------------------------------------------------------------------

def test_split_dirac_form():
    mass, even, odd = split_hamiltonian(dirac_h())
    assert mass == ref.mass_term()
    assert even == e
    assert odd == o


def test_split_mass_only():
    mass, even, odd = split_hamiltonian(ref.mass_term())
    assert even.is_zero and odd.is_zero


def test_split_even_word():
    ofo = word(1, [O, F, O], mass_power=2)
    _, even, odd = split_hamiltonian(ref.mass_term() + ofo)
    assert even == ofo and odd.is_zero


def test_split_missing_mass():
    with pytest.raises(MissingMassTerm):
        split_hamiltonian(e + o)
    with pytest.raises(MissingMassTerm):
        split_hamiltonian(2 * ref.mass_term() + o)


# -- single step --------------------------------------------------------------------

def test_fw_step_first():
    k = ref.mass_term() + f + o
    s, k2 = fw_step(k, VELOCITY, 6)
    assert s == ref.first_step()
    assert finalize_bare_f(k2) == ref.h_prime_34()


def test_fw_step_no_odd_is_identity():
    k = ref.mass_term() + f
    s, k2 = fw_step(k, VELOCITY, 6)
    assert s.is_zero and k2 == k


def test_fw_step_second_matches_printed_exponent():
    k = ref.mass_term() + f + o
    _, k1 = fw_step(k, VELOCITY, 6)
    s1, _ = fw_step(k1, VELOCITY, 6)
    assert s1 == ref.s_prime_34()


def test_fw_step_raises_odd_min_order():
    scheme = VELOCITY
    k = ref.mass_term() + f + o
    prev = 0
    for _ in range(3):
        _, k = fw_step(k, scheme, 6)
        odd = k.parity_split()[1]
        if odd.is_zero:
            break
        assert odd.min_order(scheme) > prev
        prev = odd.min_order(scheme)


# -- pipelines ----------------------------------------------------------------------

def test_pipeline_vc6_reproduces_closed_forms():
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    assert len(rec.steps) == 3
    assert rec.h_orig == ref.h_orig_35()
    assert rec.steps[0] == ref.first_step()
    assert rec.steps[1] == ref.s_prime_34()
    assert finalize_bare_f(rec.intermediates[0]) == ref.h_prime_34()


def test_pipeline_vc6_second_intermediate_modulo_inert_kinetic():
    # The printed second intermediate omits an inert odd O^5 term that the
    # exact conjugation retains; the difference must be exactly that pair.
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    inert_h = word(Fraction(1, 6), [O] * 5, mass_power=4)
    assert finalize_bare_f(rec.intermediates[1]) == ref.h_dprime_34() + inert_h
    inert_s = word(GaussRat(0, Fraction(-1, 12)), [BETA] + [O] * 5, mass_power=5)
    assert rec.steps[2] == ref.s_dprime_34() + inert_s


def test_pipeline_m4_reproduces_closed_forms():
    rec = fw_pipeline(dirac_h(), MASS, 4)
    assert tuple(rec.steps) == ref.steps_m4()
    assert rec.h_orig == ref.h_orig_40()


def test_pipeline_free_particle_order8():
    rec = fw_pipeline(ref.mass_term() + o, VELOCITY, 8)
    assert rec.h_orig == ref.free_particle_22()
    assert len(rec.steps) == 4


def test_pipeline_stable_under_extra_steps():
    rec3 = fw_pipeline(dirac_h(), VELOCITY, 6, max_steps=3)
    rec9 = fw_pipeline(dirac_h(), VELOCITY, 6, max_steps=9)
    assert rec3.h_orig == rec9.h_orig
    assert rec3.steps == rec9.steps


def test_pipeline_no_convergence():
    with pytest.raises(NoConvergence):
        fw_pipeline(ref.mass_term() + o, VELOCITY, 8, max_steps=1)


def test_pipeline_steps_odd_hermitian():
    for scheme, order in ((VELOCITY, 6), (MASS, 4)):
        rec = fw_pipeline(dirac_h(), scheme, order)
        for s in rec.steps:
            assert s.parity_split()[0].is_zero
            assert s.adjoint() == s


def test_pipeline_step_unitarity():
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    for s in rec.steps:
        u = exp_series(scale(I, s), VELOCITY, 6)
        assert (u * u.adjoint()).truncate(VELOCITY, 6) == one()


def test_finalize_bare_f_anomaly():
    with pytest.raises(BareFAnomaly):
        finalize_bare_f(2 * f)
    with pytest.raises(BareFAnomaly):
        finalize_bare_f(f, expected=GaussRat(0))
    assert finalize_bare_f(e, expected=GaussRat(0)) == e


def test_finalize_bare_f_rewrites_only_bare_term():
    x = f + commutator(o, f)
    out = finalize_bare_f(x)
    assert out == e + commutator(o, f)


# -- BCH -----------------------------------------------------------------------------

def test_bch_trivial_operands():
    a = scale(I, ref.first_step())
    assert bch_combine(a, zero(), VELOCITY, 6) == a
    assert bch_combine(zero(), a, VELOCITY, 6) == a


def test_bch_low_orders_match_printed_formula():
    # Two free generators of weight one: through order 4 the series must be
    # A + B + [A,B]/2 + [A,[A,B]]/12 - [B,[A,B]]/12 - [A,[B,[A,B]]]/24.
    reg = SymbolRegistry()
    x = sym(reg.register("x", "even", 1))
    y = sym(reg.register("y", "even", 1))
    got = bch_combine(x, y, VELOCITY, 4)
    expected = (
        x + y
        + Fraction(1, 2) * commutator(x, y)
        + Fraction(1, 12) * commutator(x, commutator(x, y))
        - Fraction(1, 12) * commutator(y, commutator(x, y))
        - Fraction(1, 24) * commutator(x, commutator(y, commutator(x, y)))
    )
    assert got == expected


def test_bch_leading_even_part_of_two_steps():
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    s, s1 = rec.steps[0], rec.steps[1]
    z = bch_combine(scale(I, s1), scale(I, s), VELOCITY, 6)
    even4 = z.parity_split()[0].order_slice(VELOCITY, 4)
    half_comm = (Fraction(1, 2) * commutator(s, s1)).order_slice(VELOCITY, 4)
    assert even4 == half_comm
    # [S,S'] = -(beta/8m^3c^6)[O^2,F] at leading order
    lead = commutator(s, s1).order_slice(VELOCITY, 4)
    printed = Fraction(-1, 8) * word(1, [BETA], mass_power=3) * commutator(o * o, f)
    assert lead == printed


def test_bch_against_series_multiplication_oracle(rng):
    for _ in range(150):
        max_order = rng.choice((2, 3, 3, 4, 4, 5, 6))
        a = rand_expr_min_weight(rng, VELOCITY)
        c = rand_expr_min_weight(rng, VELOCITY)
        z = bch_combine(a, c, VELOCITY, max_order)
        lhs = (exp_series(a, VELOCITY, max_order)
               * exp_series(c, VELOCITY, max_order)).truncate(VELOCITY, max_order)
        rhs = exp_series(z, VELOCITY, max_order)
        assert lhs == rhs


# -- combination and correction ---------------------------------------------------------

def test_combine_single_step():
    rec = fw_pipeline(ref.mass_term() + o, VELOCITY, 2)
    r = combine_steps(rec)
    assert r == rec.steps[0]


def test_combined_exponent_not_odd_for_two_steps():
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    r = combine_steps(rec)
    assert not r.parity_split()[0].is_zero


def test_correction_exponent_vc6():
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    r = combine_steps(rec)
    c = correction_exponent(r, VELOCITY, 6)
    # leading order: the printed correction exponent beta [O^2,F]/(16 m^3 c^6)
    printed = Fraction(1, 16) * word(1, [BETA], mass_power=3) * commutator(o * o, f)
    assert c.order_slice(VELOCITY, 4) == printed
    # defining property: the recombined exponent is odd through the order
    z_tot = bch_combine(c, scale(I, r), VELOCITY, 6)
    assert z_tot.parity_split()[0].is_zero
    # structure: even and anti-Hermitian
    assert c.parity_split()[1].is_zero
    assert c.adjoint() == -c


def test_correction_exponent_m4_matches_half_commutator_form():
    rec = fw_pipeline(dirac_h(), MASS, 4)
    r = combine_steps(rec)
    c = correction_exponent(r, MASS, 4)
    s, s1, s2 = rec.steps[0], rec.steps[1], rec.steps[2]
    expected = (Fraction(-1, 2) * commutator(s, s1 + s2)).truncate(MASS, 4)
    assert c == expected


def test_correction_exponent_trivial_when_odd():
    assert correction_exponent(ref.first_step(), VELOCITY, 6).is_zero


def test_apply_correction_vc6():
    rec = corrected_pipeline(dirac_h(), VELOCITY, 6)
    assert rec.h_corrected == ref.h_corr_38()
    assert rec.h_corrected - rec.h_orig == ref.delta_37()


def test_apply_correction_m4():
    rec = corrected_pipeline(dirac_h(), MASS, 4)
    assert rec.h_corrected == ref.h_corr_43()


def test_apply_correction_free_particle_is_noop():
    rec = corrected_pipeline(ref.mass_term() + o, VELOCITY, 8)
    assert rec.correction_exponent.is_zero
    assert rec.h_corrected == rec.h_orig == ref.free_particle_22()


def test_corrected_hamiltonians_even_and_hermitian():
    for scheme, order in ((VELOCITY, 6), (MASS, 4)):
        rec = corrected_pipeline(dirac_h(), scheme, order)
        assert rec.h_corrected.parity_split()[1].is_zero
        assert rec.h_corrected.adjoint() == rec.h_corrected


# -- square-root route ---------------------------------------------------------------

def test_eriksen_series_order8():
    h_e = eriksen_series(dirac_h(), 8)
    assert h_e == ref.eriksen_24().subs_symbol(F, E)


def test_eriksen_series_free_particle():
    assert eriksen_series(ref.mass_term() + o, 8) == ref.free_particle_22()


def test_eriksen_series_no_odd_is_trivial():
    h = ref.mass_term() + e
    assert eriksen_series(h, 6) == h
    assert eriksen_unitary_series(h, 6) == one()


def test_eriksen_series_rejects_nonstationary():
    with pytest.raises(NotStationary):
        eriksen_series(ref.mass_term() + f + o, 6)


def test_eriksen_series_velocity_only():
    with pytest.raises(UnsupportedScheme):
        eriksen_series(dirac_h(), 4, MASS)


def test_sign_operator_commutes_with_h_squared():
    h = dirac_h()
    lam = sign_operator_series(h, 6)
    h2 = (h * h).truncate(VELOCITY, 6)
    assert commutator(lam, h2).truncate(VELOCITY, 6).is_zero


def test_beta_lambda_commutes_with_symmetrized_product():
    h = dirac_h()
    lam = sign_operator_series(h, 6)
    bl = (b * lam).truncate(VELOCITY, 6)
    lb = (lam * b).truncate(VELOCITY, 6)
    assert commutator(bl, bl + lb).truncate(VELOCITY, 6).is_zero


def test_eriksen_unitary_series_unitary_and_condition():
    u = eriksen_unitary_series(dirac_h(), 6)
    assert (u * u.adjoint()).truncate(VELOCITY, 6) == one()
    assert (b * u - u.adjoint() * b).truncate(VELOCITY, 6).is_zero


def test_method_equivalence_stationary():
    h_e = eriksen_series(dirac_h(), 8)
    rec6 = corrected_pipeline(dirac_h(), VELOCITY, 6)
    assert h_e.truncate(VELOCITY, 6) == rec6.h_corrected.subs_symbol(F, E)
    rec4 = corrected_pipeline(dirac_h(), MASS, 4)
    assert h_e.truncate(MASS, 4) == rec4.h_corrected.subs_symbol(F, E)


def test_method_equivalence_full_order_eight():
    # the corrected iteration and the square-root route agree at the highest
    # order the engine ships references for, all A24-class terms included
    rec8 = corrected_pipeline(dirac_h(), VELOCITY, 8)
    assert len(rec8.steps) == 4
    assert rec8.h_corrected.subs_symbol(F, E) == eriksen_series(dirac_h(), 8)


def test_pipeline_with_custom_odd_generator():
    # a weight-2 odd generator: odd orders are even numbers, but the
    # iteration and correction go through unchanged
    reg = SymbolRegistry()
    q = sym(reg.register("Q", "odd", 2))
    rec = corrected_pipeline(ref.mass_term() + q, VELOCITY, 8)
    assert rec.h_corrected.parity_split()[1].is_zero
    assert rec.h_corrected.adjoint() == rec.h_corrected
    # beta sqrt(m^2c^4 + Q^2) expansion: same binomial coefficients
    expected = (ref.mass_term()
                + Fraction(1, 2) * word(1, [BETA], mass_power=1) * q ** 2
                - Fraction(1, 8) * word(1, [BETA], mass_power=3) * q ** 4)
    assert rec.h_corrected == expected


def test_pipeline_rejects_weightless_odd_generator():
    from fwalg.opalg import NonIncreasingOrder
    reg = SymbolRegistry()
    q = sym(reg.register("Q0", "odd", 0))
    with pytest.raises(NonIncreasingOrder):
        fw_pipeline(ref.mass_term() + q, VELOCITY, 4)


# -- Eriksen condition -----------------------------------------------------------------

def test_condition_check_vc6():
    rec = corrected_pipeline(dirac_h(), VELOCITY, 6)
    rep = eriksen_condition_check(rec)
    assert rep.corrected.is_zero
    assert not rep.uncorrected.is_zero
    lead = rep.uncorrected.order_slice(VELOCITY, 4)
    expected = Fraction(-1, 8) * word(1, [], mass_power=3) * commutator(o * o, f)
    assert lead == expected


def test_condition_check_m4():
    rec = corrected_pipeline(dirac_h(), MASS, 4)
    rep = eriksen_condition_check(rec)
    assert rep.corrected.is_zero
    assert not rep.uncorrected.is_zero


def test_condition_check_single_step_trivial():
    rec = corrected_pipeline(ref.mass_term() + o, VELOCITY, 2)
    assert len(rec.steps) == 1
    rep = eriksen_condition_check(rec)
    assert rep.uncorrected.is_zero and rep.corrected.is_zero


def test_combined_exponent_conjugation_matches_step_product():
    # conjugating once with exp(iR) reproduces the step-by-step result, a
    # further cross-check of the exponent recombination; the truncated
    # exponent tails can only touch the discarded top-order odd residue
    # (their commutator with the mass term lowers the order by one)
    from fwalg.opalg import ad_exp_conjugate
    for scheme, order in ((VELOCITY, 6), (MASS, 4)):
        rec = corrected_pipeline(dirac_h(), scheme, order)
        k0 = dirac_h().subs_symbol(E, F).truncate(scheme, order)
        via_r = ad_exp_conjugate(rec.combined_exponent, k0, scheme, order)
        assert via_r.parity_split()[0] == rec.k_final.parity_split()[0]
        delta_odd = (via_r - rec.k_final).parity_split()[1]
        assert delta_odd.truncate(scheme, order - 1).is_zero
