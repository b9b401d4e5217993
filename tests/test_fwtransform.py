from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from fwalg.gaussrat import ONE, GaussRat, I, binom_coeff
from fwalg.opalg import (
    BETA, E, F, MASS, O, VELOCITY, AlgebraError, NonIncreasingOrder, OperatorExpr,
    ad_exp_conjugate, commutator, exp_series, log_series, mul_trunc, one, scale, sym, word, zero,
)
from fwalg.fwtransform import (
    BareFAnomaly, MissingMassTerm, NoConvergence, NotHermitian, NotStationary,
    TransformError, UnsupportedScheme, _bch_word_table, _binomial_series, apply_correction,
    bch_combine, corrected_pipeline, correction_exponent, eriksen_condition_check, eriksen_series,
    eriksen_unitary_series, finalize_bare_f, fw_pipeline, fw_step,
    sign_operator_series, split_hamiltonian,
)
from fwalg import reference as ref
from fwalg.opalg import SymbolRegistry
from fwalg.shell import main as fw_main

from conftest import (
    elimination_correction_exponent, free_fw_hamiltonian, free_fw_unitary,
    polar_correction_exponent, rand_expr, rand_expr_min_weight,
)

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


def test_pipeline_takes_at_most_max_order_steps():
    # the odd part a step removes has order >= 0 and below max_order, and
    # its minimum order rises with every step, so a run ends by itself
    reg = SymbolRegistry()
    q = sym(reg.register("Q", "odd", 2))
    p = sym(reg.register("P", "even", 1))
    m = ref.mass_term()
    for scheme in (VELOCITY, MASS):
        for h in (dirac_h(), m + f + o, m + p + o, m + q, m + p + q):
            for max_order in range(1, 9):
                assert len(fw_pipeline(h, scheme, max_order).steps) <= max_order
    # the bound is reached: F + O under mass counting removes one order per step
    for max_order in range(1, 9):
        assert len(fw_pipeline(m + f + o, MASS, max_order).steps) == max_order


def test_pipeline_no_convergence():
    # E mc^2 has mass order -1, so the first step's commutator with it
    # leaves odd terms at order 0 again: the odd part's order does not rise
    h = ref.mass_term() + word(1, [E], mass_power=-1) + o
    with pytest.raises(NoConvergence, match="odd part stalled at mass order 0"):
        fw_pipeline(h, MASS, 4)


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


def _all_blocks(total):
    """Every block sequence of ``total`` letters, unpruned, in enumeration order."""
    if total == 0:
        yield ()
        return
    for first_total in range(1, total + 1):
        for p in range(first_total + 1):
            for rest in _all_blocks(total - first_total):
                yield ((p, first_total - p),) + rest


def test_bch_word_table_equals_dynkin_sum_per_word():
    # Oracle: Dynkin's coefficient (-1)^(n-1) / (n |w| prod p_i! q_i!) of every
    # unpruned block sequence within budget, summed per letter word. The
    # brackets of ...ab and ...ba differ only in sign, so the table holds the
    # first's sum, negated, in the second's; a word ending xx brackets to zero.
    every = []
    for total in range(1, 9):
        for seq in _all_blocks(total):
            letters = "".join("a" * p + "b" * q for p, q in seq)
            denom = len(seq) * len(letters)
            for p, q in seq:
                denom *= factorial(p) * factorial(q)
            every.append((letters, Fraction((-1) ** (len(seq) - 1), denom)))
    for a_min, b_min in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 2)):
        for budget in range(9):
            expected = {}
            for letters, c in every:
                if letters.count("a") * a_min + letters.count("b") * b_min <= budget:
                    expected[letters] = expected.get(letters, 0) + c
            folded = {}
            for w, c in expected.items():
                if len(w) >= 2 and w[-1] == w[-2]:
                    continue
                if w.endswith("ab"):
                    w, c = w[:-2] + "ba", -c
                folded[w] = folded.get(w, 0) + c
            folded = {w: GaussRat(c) for w, c in folded.items() if c}
            table = _bch_word_table(budget, a_min, b_min)
            assert not any(w.endswith("ab") for w, _ in table)
            assert len(table) == len(folded)
            assert dict(table) == folded, (a_min, b_min, budget)


def _fraction_word_table(budget, a_min, b_min):
    """The word table expanded directly in Fraction arithmetic: the oracle.

    X = exp(a) exp(b) - 1 as its blocks a^p b^q (p + q >= 1) by weight, the
    powers of X as letter strings, log(1 + X) summed by hand, then the same
    fold as the table: no word ending xx, ...ab into ...ba negated, each sum
    over the word length.
    """
    blocks = sorted(
        (p * a_min + q * b_min, "a" * p + "b" * q, Fraction(1, factorial(p) * factorial(q)))
        for p in range(budget // a_min + 1)
        for q in range((budget - p * a_min) // b_min + 1) if p or q)
    log = {}
    power = {"": (0, Fraction(1))}  # X^n as word -> (weight, coefficient)
    n = 0
    while power:
        n += 1
        nxt = {}
        for u, (wu, cu) in power.items():
            for wv, v, cv in blocks:
                if wu + wv > budget:
                    break
                prev = nxt.get(u + v)
                nxt[u + v] = (wu + wv, cu * cv if prev is None else prev[1] + cu * cv)
        for w, (_, c) in nxt.items():
            log[w] = log.get(w, 0) + Fraction((-1) ** (n - 1), n) * c
        power = nxt
    folded = {}
    for w, c in log.items():
        if len(w) >= 2:
            if w[-1] == w[-2]:
                continue
            if w[-1] == "b":
                w, c = w[:-2] + "ba", -c
        folded[w] = folded.get(w, 0) + c
    return {w: GaussRat(c / len(w)) for w, c in folded.items() if c}


#: The tables that corrected vc14 builds: its left operands (a step exponent
#: or a correction slice) have minimum order 3 or more.
_VC14_TABLES = [(14, a_min, 1) for a_min in range(3, 15)] + [
    (14, a_min, 4) for a_min in (6, 8, 10, 12, 14)]


def test_bch_word_table_equals_fraction_expansion():
    keys = [(budget, a_min, b_min) for budget in range(11)
            for a_min in range(1, 5) for b_min in range(1, 5)] + _VC14_TABLES
    for key in keys:
        table = _bch_word_table(*key)
        assert len(table) == len(dict(table))
        assert dict(table) == _fraction_word_table(*key), key


# -- combination and correction ---------------------------------------------------------

def test_combine_single_step():
    rec = corrected_pipeline(ref.mass_term() + o, VELOCITY, 2)
    r = rec.combined_exponent
    assert r == rec.steps[0]


def _combined_exponent_bch(record):
    """R by folding the step exponents through ``bch_combine``, one step at a
    time: the route R took before it was read as iR = log U. Kept as the log
    series' oracle."""
    z = zero()
    for s in record.steps:
        z = bch_combine(scale(I, s), z, record.scheme, record.max_order)
    return scale(-I, z)


_HAMILTONIANS = {"even": lambda: ref.mass_term() + e, "free": lambda: ref.mass_term() + o,
                 "dirac": dirac_h}


@pytest.mark.parametrize("h, scheme, order, n_steps", [
    ("even", VELOCITY, 4, 0), ("free", VELOCITY, 2, 1),
    ("dirac", VELOCITY, 6, 3), ("dirac", VELOCITY, 8, 4), ("dirac", VELOCITY, 10, 5),
    ("dirac", VELOCITY, 12, 6), ("dirac", MASS, 4, 4), ("dirac", MASS, 6, 6),
    ("dirac", MASS, 8, 8),
], ids=["no-steps", "one-step", "vc6", "vc8", "vc10", "vc12", "m4", "m6", "m8"])
def test_combined_exponent_log_of_step_product_equals_bch_fold(h, scheme, order, n_steps):
    rec = corrected_pipeline(_HAMILTONIANS[h](), scheme, order)
    assert len(rec.steps) == n_steps
    r = rec.combined_exponent
    assert r == _combined_exponent_bch(rec)
    assert exp_series(scale(I, r), scheme, order) == rec.unitary
    if n_steps < 2:
        assert r == (rec.steps[0] if rec.steps else zero())


@pytest.mark.parametrize("scheme, order", [(VELOCITY, 4), (MASS, 2)])
def test_block_diagonal_input_transforms_unchanged(scheme, order):
    # no odd part, so no steps: the combined exponent and the correction are zero
    h = ref.mass_term() + e
    rec = corrected_pipeline(h, scheme, order)
    assert rec.steps == []
    assert rec.combined_exponent.is_zero and rec.correction_exponent.is_zero
    assert rec.h_corrected == rec.h_orig == h
    rep = eriksen_condition_check(rec)
    assert rep.uncorrected.is_zero and rep.corrected.is_zero


def test_combined_exponent_not_odd_for_two_steps():
    rec = corrected_pipeline(dirac_h(), VELOCITY, 6)
    r = rec.combined_exponent
    assert not r.parity_split()[0].is_zero


def test_correction_exponent_vc6():
    rec = corrected_pipeline(dirac_h(), VELOCITY, 6)
    r = rec.combined_exponent
    c = correction_exponent(rec.unitary, VELOCITY, 6)
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
    rec = corrected_pipeline(dirac_h(), MASS, 4)
    c = correction_exponent(rec.unitary, MASS, 4)
    s, s1, s2 = rec.steps[0], rec.steps[1], rec.steps[2]
    expected = (Fraction(-1, 2) * commutator(s, s1 + s2)).truncate(MASS, 4)
    assert c == expected


def test_correction_exponent_trivial_when_odd():
    # an odd exponent already meets the Eriksen condition: U = exp(iS), S odd
    u = exp_series(scale(I, ref.first_step()), VELOCITY, 6)
    assert correction_exponent(u, VELOCITY, 6).is_zero


def _correction_exponent_from_scratch(r, scheme, max_order):
    """Reference elimination: C is the plain sum of the subtracted slices, and
    every pass recombines C with iR from scratch."""
    z = scale(I, r)
    c = zero()
    for _ in range(max_order + 2):
        z_tot = bch_combine(c, z, scheme, max_order) if not c.is_zero else z.truncate(scheme, max_order)
        even = z_tot.parity_split()[0]
        if even.is_zero:
            return c
        c = c - even.order_slice(scheme, even.min_order(scheme))
    raise AssertionError("even residual not exhausted")


@pytest.mark.parametrize("scheme, order", [
    (VELOCITY, 6), (VELOCITY, 8), (VELOCITY, 10), (MASS, 4), (MASS, 5), (MASS, 6),
], ids=["vc6", "vc8", "vc10", "m4", "m5", "m6"])
def test_correction_exponent_equals_from_scratch_elimination(scheme, order):
    rec = corrected_pipeline(dirac_h(), scheme, order)
    r = rec.combined_exponent
    c = correction_exponent(rec.unitary, scheme, order)
    assert not c.is_zero
    assert c == _correction_exponent_from_scratch(r, scheme, order)
    # defining property, through one fresh recombination
    assert bch_combine(c, scale(I, r), scheme, order).parity_split()[0].is_zero
    assert c.parity_split()[1].is_zero
    assert c.adjoint() == -c


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


def test_free_particle_closed_form_truncates_to_the_transcription():
    assert free_fw_hamiltonian(VELOCITY, 8) == ref.free_particle_22()


@pytest.mark.parametrize("scheme, order", [
    (VELOCITY, 8), (VELOCITY, 16), (VELOCITY, 24), (VELOCITY, 32), (VELOCITY, 40), (MASS, 9),
], ids=["vc8", "vc16", "vc24", "vc32", "vc40", "m9"])
def test_free_particle_closed_form_on_both_routes(scheme, order):
    # beta sqrt(m^2c^4 + O^2) at orders the transcription does not print;
    # its words are powers of O alone, built with no operator product
    h = ref.mass_term() + o
    closed = free_fw_hamiltonian(scheme, order)
    assert corrected_pipeline(h, scheme, order).h_corrected == closed
    if scheme == VELOCITY:
        assert eriksen_series(h, order) == closed


@pytest.mark.parametrize("order", [8, 16, 24])
def test_free_particle_unitary_closed_form(order):
    # (E + mc^2 + beta O)/sqrt(2E(E + mc^2)), E = sqrt(m^2c^4 + O^2)
    assert eriksen_unitary_series(ref.mass_term() + o, order) == free_fw_unitary(order)


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


def _eriksen_unitary_by_symmetrized_sum(h, max_order):
    """The former U: w = beta lambda + lambda beta - 2 from two products."""
    lam = sign_operator_series(h, max_order)
    beta_lam = mul_trunc(b, lam, VELOCITY, max_order)
    lam_beta = mul_trunc(lam, b, VELOCITY, max_order)
    w = beta_lam + lam_beta - 2 * one()
    g = scale(Fraction(1, 2), _binomial_series(scale(Fraction(1, 4), w), Fraction(-1, 2),
                                               VELOCITY, max_order))
    return mul_trunc(one() + beta_lam, g, VELOCITY, max_order)


def _eriksen_series_by_conjugation(h, max_order):
    """The former H': the full U, then U H U^dag as two products."""
    u_e = _eriksen_unitary_by_symmetrized_sum(h, max_order)
    h = h.truncate(VELOCITY, max_order)
    return mul_trunc(mul_trunc(u_e, h, VELOCITY, max_order), u_e.adjoint(),
                     VELOCITY, max_order)


@pytest.mark.parametrize("h", [dirac_h(), ref.mass_term() + o, ref.mass_term() + e],
                         ids=["dirac", "free", "no-odd"])
def test_eriksen_series_equals_conjugation_by_u(h):
    for order in range(15):
        assert eriksen_series(h, order) == _eriksen_series_by_conjugation(h, order), order


def test_eriksen_unitary_series_equals_symmetrized_sum_formula():
    for h in (dirac_h(), ref.mass_term() + o):
        for order in range(13):
            assert eriksen_unitary_series(h, order) == _eriksen_unitary_by_symmetrized_sum(
                h, order), order


@pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
def test_corrected_unitary_is_eriksens(order):
    # The paper's uniqueness property at operator level: a unitary with
    # beta U = U^dag beta is unique, so after F -> E the corrected exp(C) U
    # equals Eriksen's U term for term, while the step product U does not.
    # Stronger than equal Hamiltonians, which a wrong unitary commuting with
    # H' would leave equal.
    h = dirac_h()
    rec = corrected_pipeline(h, VELOCITY, order)
    u_e = eriksen_unitary_series(h, order)
    u_corr = mul_trunc(exp_series(rec.correction_exponent, VELOCITY, order), rec.unitary,
                       VELOCITY, order)
    assert u_corr.subs_symbol(F, E) == u_e
    assert rec.unitary.subs_symbol(F, E) != u_e
    assert order != 12 or len(u_e) == 603


_DECLARED = SymbolRegistry()
_WORD_SYMBOLS = (BETA, O, E) + tuple(
    _DECLARED.register(f"K{parity[0]}{weight}", parity, weight)
    for parity in ("odd", "even") for weight in (1, 2, 3))


@st.composite
def hermitian_hamiltonians(draw):
    """beta mc^2 + A + A^dag, A a sum of one to three random words.

    The first word starts with an odd symbol, so that H usually has an odd
    part for the transformation to remove.
    """
    odd_first = st.sampled_from([s for s in _WORD_SYMBOLS if s.is_odd])
    raw = []
    for n in range(draw(st.integers(1, 3))):
        coeff = GaussRat(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                         Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2))))
        syms = draw(st.lists(st.sampled_from(_WORD_SYMBOLS), min_size=1,
                             max_size=2 if n else 3))
        if not n:
            syms[0] = draw(odd_first)
        raw.append((coeff, draw(st.integers(-1, 1)), 0, tuple(syms)))
    a = OperatorExpr(raw)
    return ref.mass_term() + a + a.adjoint()


def _outcome(route, h, order):
    try:
        return route(h, order)
    except (TransformError, AlgebraError) as exc:
        return type(exc)


@given(hermitian_hamiltonians(), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_eriksen_series_equals_conjugation_by_u_on_random_hermitian_h(h, order):
    assert h.adjoint() == h
    assert _outcome(eriksen_series, h, order) == _outcome(_eriksen_series_by_conjugation,
                                                          h, order)


@given(hermitian_hamiltonians(),
       st.sampled_from([(VELOCITY, 6), (VELOCITY, 7), (MASS, 4), (MASS, 5)]))
@settings(max_examples=60, deadline=None)
def test_correction_exponent_on_random_hermitian_h(h, scheme_order):
    # E + O keeps C nonzero in most examples; on the bare random H it is zero
    scheme, order = scheme_order
    rec = _outcome(lambda h, order: corrected_pipeline(h, scheme, order), h + e + o, order)
    if isinstance(rec, type):
        return
    c = rec.correction_exponent
    assert c == polar_correction_exponent(rec.unitary, scheme, order)
    assert c.parity_split()[1].is_zero and c.adjoint() == -c
    assert eriksen_condition_check(rec).corrected.is_zero


_NOT_HERMITIAN = {"i*O": scale(I, o), "beta*O": b * o, "i*E": scale(I, e)}


@pytest.mark.parametrize("extra", list(_NOT_HERMITIAN))
def test_square_root_route_rejects_non_hermitian_h(extra):
    h = dirac_h() + _NOT_HERMITIAN[extra]
    for route in (sign_operator_series, eriksen_unitary_series, eriksen_series):
        with pytest.raises(NotHermitian):
            route(h, 4)


@pytest.mark.parametrize("h, order", [
    (ref.mass_term() + o + scale(I, e), 2),
    (ref.mass_term() + o + scale(I, e), 4),
    (ref.mass_term() + o + scale(GaussRat(0, 2), b), 4),
], ids=["i*E-order2", "i*E-order4", "2i*beta-order4"])
def test_iterative_routes_reject_non_hermitian_h(h, order):
    # Each once passed, or failed with an untyped step check or NoConvergence.
    for route in (fw_pipeline, corrected_pipeline):
        with pytest.raises(NotHermitian):
            route(h, VELOCITY, order)


_NOT_HERMITIAN_SPECS = {
    **{extra: f"H = beta*m + E + O + {extra}; scheme vc; order 4; method eriksen;"
       for extra in _NOT_HERMITIAN},
    **{f"i*E-{method}": f"H = beta*m + O + i*E; order 2; method {method};"
       for method in ("fw", "fw-corrected")},
}


@pytest.mark.parametrize("case", list(_NOT_HERMITIAN_SPECS))
def test_cli_transform_non_hermitian_h_exit_2(tmp_path, capsys, case):
    spec = tmp_path / "h.fw"
    spec.write_text(_NOT_HERMITIAN_SPECS[case] + "\n")
    assert fw_main(["transform", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "NotHermitian" in err, err


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


# -- order 10: the two routes agree beyond the printed equations -------------------------

@pytest.fixture(scope="module")
def order_ten():
    return corrected_pipeline(dirac_h(), VELOCITY, 10), eriksen_series(dirac_h(), 10)


def test_method_equivalence_order_ten(order_ten):
    # commutator terms keep the working symbol F, hence the rename
    rec10, h_e = order_ten
    assert len(h_e) == 130
    assert rec10.h_corrected.subs_symbol(F, E) == h_e


def test_method_equivalence_mass_order_five(order_ten):
    _, h_e = order_ten
    rec5 = corrected_pipeline(dirac_h(), MASS, 5)
    assert rec5.h_corrected.subs_symbol(F, E) == h_e.truncate(MASS, 5)


def test_condition_check_order_ten(order_ten):
    rep = eriksen_condition_check(order_ten[0])
    assert rep.corrected_ok
    assert not rep.uncorrected.is_zero


# -- order 12: the same agreement two orders further -----------------------------------

@pytest.fixture(scope="module")
def order_twelve():
    return corrected_pipeline(dirac_h(), VELOCITY, 12), eriksen_series(dirac_h(), 12)


def test_method_equivalence_order_twelve(order_twelve):
    rec12, h_e = order_twelve
    assert len(h_e) == 352
    assert rec12.h_corrected.subs_symbol(F, E) == h_e


def test_method_equivalence_mass_order_six(order_twelve):
    _, h_e = order_twelve
    rec6 = corrected_pipeline(dirac_h(), MASS, 6)
    assert rec6.h_corrected.subs_symbol(F, E) == h_e.truncate(MASS, 6)


def test_condition_check_order_twelve(order_twelve):
    rep = eriksen_condition_check(order_twelve[0])
    assert rep.corrected_ok
    assert not rep.uncorrected.is_zero


# -- order 14: the agreement two orders further again --------------------------------

def test_method_equivalence_order_fourteen():
    h_e = eriksen_series(dirac_h(), 14)
    assert len(h_e) == 946
    assert corrected_pipeline(dirac_h(), VELOCITY, 14).h_corrected.subs_symbol(F, E) == h_e


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


# -- truncated series -----------------------------------------------------------------

@pytest.mark.parametrize("scheme", [VELOCITY, MASS], ids=["velocity", "mass"])
def test_series_equal_uncapped_sums_then_truncate(rng, scheme):
    """Each series against its sum of uncapped powers or nested commutators.

    Every power of x and every nested commutator with s has order >= n, so
    the terms with n <= max_order - (lowest order of the start) are all that
    can survive the truncation.
    """
    for _ in range(12):
        x = rand_expr_min_weight(rng, scheme, max_terms=2, max_len=3)
        k_order = rng.randint(2, 4)
        # K may start below order 0 (the mass term in the mass scheme), so a
        # term of S above the order cap can still land at or below it.
        s = (rand_expr_min_weight(rng, scheme, max_terms=2, max_len=3)
             + word(1, [O], mass_power=k_order + 1))
        k = rand_expr(rng, max_terms=2, max_len=3) + ref.mass_term()
        order = rng.randint(1, 4)
        powers = [one()]
        for _ in range(order):
            powers.append(powers[-1] * x)
        assert exp_series(x, scheme, order) == OperatorExpr.combine(
            (Fraction(1, factorial(n)), p) for n, p in enumerate(powers)).truncate(scheme, order)
        for alpha in (Fraction(-1, 2), Fraction(1, 3)):
            assert _binomial_series(x, alpha, scheme, order) == OperatorExpr.combine(
                (binom_coeff(alpha, n), p) for n, p in enumerate(powers)
            ).truncate(scheme, order)
        assert log_series(x, scheme, order) == OperatorExpr.combine(
            (Fraction((-1) ** (n - 1), n), p) for n, p in enumerate(powers) if n
        ).truncate(scheme, order)
        nested = [k]
        for _ in range(k_order - k.min_order(scheme)):
            nested.append(commutator(s, nested[-1]))
        i_powers = (ONE, I, -ONE, -I)
        assert ad_exp_conjugate(s, k, scheme, k_order) == OperatorExpr.combine(
            (i_powers[n % 4] * Fraction(1, factorial(n)), c) for n, c in enumerate(nested)
        ).truncate(scheme, k_order)
    with pytest.raises(NonIncreasingOrder):
        _binomial_series(one(), Fraction(-1, 2), scheme, 4)
    with pytest.raises(NonIncreasingOrder):
        log_series(one(), scheme, 4)


def _per_term_sum(pairs):
    """sum of c * x, one GaussRat multiply and add per term (the integer sum's oracle)."""
    acc = {}
    for c, x in pairs:
        for t in x.terms:
            acc[t.key] = acc.get(t.key, GaussRat(0)) + GaussRat.coerce(c) * t.coeff
    return OperatorExpr([(v, m, h, w) for (w, m, h), v in acc.items()])


@pytest.mark.parametrize("scheme", [VELOCITY, MASS], ids=["velocity", "mass"])
def test_series_and_bch_equal_per_term_sums_of_their_terms(rng, scheme):
    """The integer sums against per-term GaussRat sums of the same powers or brackets."""
    for _ in range(12):
        x = scale(Fraction(1, 3), rand_expr_min_weight(rng, scheme, max_terms=3, max_len=3))
        s = scale(I, rand_expr_min_weight(rng, scheme, max_terms=2, max_len=3))
        k = rand_expr(rng, max_terms=3, max_len=3) + ref.mass_term()
        order = rng.randint(1, 4)
        powers = [one()]
        while not powers[-1].is_zero:
            powers.append(mul_trunc(powers[-1], x.truncate(scheme, order), scheme, order))
        assert exp_series(x, scheme, order) == _per_term_sum(
            (Fraction(1, factorial(n)), p) for n, p in enumerate(powers))
        alpha = Fraction(-1, 2)
        assert _binomial_series(x, alpha, scheme, order) == _per_term_sum(
            (binom_coeff(alpha, n), p) for n, p in enumerate(powers))
        nested = [k.truncate(scheme, order)]
        while not nested[-1].is_zero:
            nested.append(commutator(s, nested[-1], scheme, order))
        i_powers = (ONE, I, -ONE, -I)
        assert ad_exp_conjugate(s, k, scheme, order) == _per_term_sum(
            (i_powers[n % 4] * Fraction(1, factorial(n)), c) for n, c in enumerate(nested))
        a, c = x, rand_expr_min_weight(rng, scheme, max_terms=2, max_len=3)
        a_t, c_t = a.truncate(scheme, order), c.truncate(scheme, order)
        memo = {"a": a_t, "b": c_t}

        def bracket(letters):
            if letters not in memo:
                memo[letters] = commutator(memo[letters[0]], bracket(letters[1:]), scheme, order)
            return memo[letters]

        table = _bch_word_table(order, a.min_order(scheme), c.min_order(scheme))
        assert bch_combine(a, c, scheme, order) == _per_term_sum(
            (coeff, bracket(letters)) for letters, coeff in table)


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


def test_condition_check_reads_the_records_step_product(monkeypatch):
    # The corrected run builds U = ... exp(iS') exp(iS) once; the check
    # multiplies with that same object instead of expanding the steps again.
    import fwalg.fwtransform as fwt
    exp_args, mul_args = [], []
    real_exp, real_mul = fwt.exp_series, fwt.mul_trunc

    def counting_exp(x, scheme, max_order):
        exp_args.append(x)
        return real_exp(x, scheme, max_order)

    def spying_mul(a, b, scheme, max_order):
        mul_args.extend((a, b))
        return real_mul(a, b, scheme, max_order)

    monkeypatch.setattr(fwt, "exp_series", counting_exp)
    rec = corrected_pipeline(dirac_h(), VELOCITY, 8)
    step_exponents = [scale(I, s) for s in rec.steps]

    def step_expansions():
        return sum(x in step_exponents for x in exp_args)

    assert step_expansions() == len(rec.steps) == 4
    u = rec.unitary
    monkeypatch.setattr(fwt, "mul_trunc", spying_mul)
    rep = eriksen_condition_check(rec)
    assert rep.corrected_ok
    assert step_expansions() == len(rec.steps)
    assert rec.unitary is u
    assert any(x is u for x in mul_args)
    # A record of the plain iteration has no U and no C, and no stage or
    # check builds them for it.
    bare = fw_pipeline(dirac_h(), VELOCITY, 8)
    for read in (eriksen_condition_check, apply_correction, lambda r: r.combined_exponent):
        with pytest.raises(TransformError):
            read(bare)
    assert bare.unitary is None and bare.correction_exponent is None
    assert bare.h_corrected is None


def test_corrected_run_forms_r_only_where_it_is_read(monkeypatch):
    # The corrected run takes one log, for C; R = -i log U is one more log,
    # formed each time the record's combined_exponent is read.
    import fwalg.fwtransform as fwt
    calls = []
    real = fwt.log_series

    def counting(x, scheme, max_order):
        calls.append(x)
        return real(x, scheme, max_order)

    monkeypatch.setattr(fwt, "log_series", counting)
    rec = corrected_pipeline(dirac_h(), VELOCITY, 8)
    assert len(calls) == 1
    r = rec.combined_exponent
    assert len(calls) == 2
    assert exp_series(scale(I, r), VELOCITY, 8) == rec.unitary


def test_eriksen_series_builds_no_intermediate_terms(monkeypatch):
    # Every intermediate of the square-root route stays a graded form, its
    # selections and sums too: terms are built (by opalg._terms_of) only when
    # the output is read. The code before graded selection built 376 terms
    # during the call, and 837 in the corrected run below.
    import fwalg.opalg as opalg
    built = []
    real = opalg._terms_of

    def counting(d, entries):
        built.append(len(entries))
        return real(d, entries)

    monkeypatch.setattr(opalg, "_terms_of", counting)
    h = eriksen_series(dirac_h(), 10)
    assert sum(built) == 0
    assert len(h.terms) == 130 and sum(built) == 130
    # the corrected route reads coefficients, adjoints and substitutions on
    # the graded form too, and its C is a series in U, so it builds none
    built.clear()
    eriksen_condition_check(corrected_pipeline(dirac_h(), VELOCITY, 8))
    assert sum(built) == 0


@pytest.mark.parametrize("scheme, order", [
    (VELOCITY, 6), (VELOCITY, 7), (VELOCITY, 8), (VELOCITY, 9), (VELOCITY, 12), (MASS, 4),
    (MASS, 5), (MASS, 6), (MASS, 7), (MASS, 8),
], ids=["vc6", "vc7", "vc8", "vc9", "vc12", "m4", "m5", "m6", "m7", "m8"])
def test_correction_exponent_equals_log_of_polar_factor(scheme, order):
    # C, read from U in closed form, against the order-by-order Dynkin elimination
    rec = corrected_pipeline(dirac_h(), scheme, order)
    c = elimination_correction_exponent(rec.combined_exponent, scheme, order)
    assert not c.is_zero
    assert c == rec.correction_exponent


@pytest.mark.parametrize("scheme, order", [
    (VELOCITY, 14), (VELOCITY, 16), (MASS, 9), (MASS, 10),
], ids=["vc14", "vc16", "m9", "m10"])
def test_correction_exponent_equals_polar_oracle_beyond_elimination(scheme, order):
    # the series in -B^dag B against the square root of beta U^dag beta U,
    # at orders where the Dynkin elimination is too slow for tier-1
    rec = corrected_pipeline(dirac_h(), scheme, order)
    assert not rec.correction_exponent.is_zero
    assert rec.correction_exponent == polar_correction_exponent(rec.unitary, scheme, order)


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
