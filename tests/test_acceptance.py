"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
same checks back the ``fw verify`` command.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fwalg.gaussrat import GaussRat, I
from fwalg.opalg import (
    BETA, E, F, MASS, O, VELOCITY, OperatorExpr, commutator, exp_series,
    normalize, scale, sym, word,
)
from fwalg.fwtransform import (
    bch_combine, corrected_pipeline, eriksen_condition_check, eriksen_series,
    finalize_bare_f, fw_pipeline,
)
from fwalg import diracred, numlab, reference as ref

from conftest import rand_expr, rand_expr_min_weight, rand_raw_term

CASES = 10_000


def _report(number: int, name: str, ok: bool, note: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"ACCEPTANCE {number:02d} {status} {name}{suffix}")
    assert ok, f"criterion {number}: {name}"


def dirac_h():
    return ref.mass_term() + sym(E) + sym(O)


@pytest.fixture(scope="module")
def vc6_record():
    return corrected_pipeline(dirac_h(), VELOCITY, 6)


@pytest.fixture(scope="module")
def m4_record():
    return corrected_pipeline(dirac_h(), MASS, 4)


def test_criterion_01_original_method_vc6():
    t0 = time.perf_counter()
    rec = fw_pipeline(dirac_h(), VELOCITY, 6)
    elapsed = time.perf_counter() - t0
    assert len(rec.steps) == 3
    report = ref.diff(rec.h_orig, ref.build(ref.H_ORIG_35))
    # word-level fingerprints of the printed 3/64 and 5/128 coefficients:
    # O^3 F O receives -2 * 3/64 from the anticommutator alone, and F O^4
    # receives 3/64 + 5/128 from the anticommutator plus the commutator
    a = rec.h_orig.coefficient((O, O, O, F, O), mass_power=4)
    b = rec.h_orig.coefficient((F, O, O, O, O), mass_power=4)
    coeffs_ok = a == Fraction(-3, 32) and b == Fraction(11, 128)
    _report(1, "iterative method reproduces the order-(v/c)^6 closed form",
            report.is_empty and coeffs_ok and elapsed < 10.0,
            f"{elapsed:.2f}s")


def test_criterion_02_intermediates_vc6(vc6_record):
    rec = vc6_record
    exact = (
        rec.steps[0] == ref.first_step()
        and finalize_bare_f(rec.intermediates[0]) == ref.build(ref.H_PRIME_34)
        and rec.steps[1] == ref.build(ref.S_PRIME_34)
    )
    # The printed second intermediate and third exponent omit one inert odd
    # kinetic term each (order max_order - 1, removable with no retained side
    # effects); the exact conjugation keeps them. Assert the difference is
    # exactly that documented pair, and report it rather than hide it.
    inert_h = word(Fraction(1, 6), [O] * 5, mass_power=4)
    inert_s = word(GaussRat(0, Fraction(-1, 12)), [BETA] + [O] * 5, mass_power=5)
    h2_delta = finalize_bare_f(rec.intermediates[1]) - ref.build(ref.H_DPRIME_34)
    s2_delta = rec.steps[2] - ref.build(ref.S_DPRIME_34)
    documented = h2_delta == inert_h and s2_delta == inert_s
    note = ("S, H', S' exact; H''/S'' differ from the printed lines by the "
            "inert odd pair O^5/(6m^4c^8) and -(i/12) beta O^5/(m^5c^10)")
    _report(2, "every intermediate matches the printed lines", exact and documented,
            note)


def test_criterion_03_corrected_method_vc6(vc6_record):
    rec = vc6_record
    ok_h = ref.diff(rec.h_corrected, ref.build(ref.H_CORR_38)).is_empty
    ok_delta = (rec.h_corrected - rec.h_orig) == ref.build(ref.DELTA_37)
    _report(3, "corrected Hamiltonian and correction delta both exact",
            ok_h and ok_delta)


def test_criterion_04_mass_scheme(m4_record):
    rec = m4_record
    steps_ok = tuple(rec.steps) == ref.build(ref.STEPS_39)
    orig_ok = rec.h_orig == ref.build(ref.H_ORIG_40)
    corr_ok = rec.h_corrected == ref.build(ref.H_CORR_43)
    target_term = (Fraction(-1, 32) * word(1, [], mass_power=4)
                   * commutator(sym(O), commutator(commutator(
                       commutator(sym(O), sym(F)), sym(F)), sym(F))))
    contains_term = all(
        rec.h_corrected.coefficient(t.word, t.mass_power, t.hbar_power) == t.coeff
        for t in target_term.terms
    )
    _report(4, "mass-power scheme reproduces steps and both Hamiltonians",
            steps_ok and orig_ok and corr_ok and contains_term)


def test_criterion_05_square_root_route(vc6_record, m4_record):
    h_e = eriksen_series(dirac_h(), 8)
    target = ref.build(ref.ERIKSEN_24).subs_symbol(F, E)
    full_ok = ref.diff(h_e, target).is_empty
    vc6_ok = h_e.truncate(VELOCITY, 6) == vc6_record.h_corrected.subs_symbol(F, E)
    m4_ok = h_e.truncate(MASS, 4) == m4_record.h_corrected.subs_symbol(F, E)
    _report(5, "square-root series equals the order-8 closed form and its truncations",
            full_ok and vc6_ok and m4_ok)


def test_criterion_06_eriksen_condition(vc6_record, m4_record):
    ok = True
    for rec in (vc6_record, m4_record):
        r = rec.combined_exponent
        ok = ok and not r.parity_split()[0].is_zero
        z_tot = bch_combine(rec.correction_exponent, scale(I, r),
                            rec.scheme, rec.max_order)
        ok = ok and z_tot.parity_split()[0].is_zero
        cond = eriksen_condition_check(rec)
        ok = ok and cond.corrected.is_zero and not cond.uncorrected.is_zero
    _report(6, "combined exponent even part eliminated; beta U = U^dag beta exact",
            ok)


def test_criterion_07_dirac_reduction():
    abstract = ref.build(ref.H_CORR_38).truncate(VELOCITY, 4)
    concrete = diracred.instantiate(abstract, max_field_order=3)
    target = ref.build(ref.DIRAC_13)
    report = ref.diff(concrete, target)
    # magnetic -(1/2) e hbar/(mc), spin-orbit/Darwin 1/8 weights present exactly
    mag = concrete_coeff(concrete, ((diracred.a_atom(2, (1,)),), (), 0, (1, 0, 3), 1, 1, 1, 1))
    so = concrete_coeff(concrete, ((diracred.phi_atom((2,)),), (3,), 0, (0, 0, 1), 1, 1, 2, 2))
    darwin = concrete_coeff(concrete, ((diracred.phi_atom((1, 1)),), (), 0, (0, 0, 0), 1, 2, 2, 2))
    kinetic = concrete_coeff(concrete, (() , (1, 1, 1, 1), 0, (1, 0, 0), 0, 0, 4, 3))
    weights_ok = (mag == Fraction(-1, 2) and so == Fraction(1, 4)
                  and darwin == Fraction(1, 8) and kinetic == Fraction(-1, 8))
    _report(7, "electromagnetic reduction matches the field form term by term",
            report.is_empty and weights_ok)


def concrete_coeff(expr, key):
    for t in expr.terms:
        if t.key == key:
            return t.coeff
    return GaussRat(0)


def test_criterion_08_numerical_exactness():
    t0 = time.perf_counter()
    ok = True
    for p in (0.0, 0.5, 2.0):
        model = numlab.free_model(p)
        u = numlab.eriksen_unitary(model)
        eps_exact = model.rest_energy * np.sqrt(1 + p * p)
        block = numlab.positive_block_spectrum(model, u)
        ok = ok and numlab.block_diag_residual(model, u) <= 1e-10
        ok = ok and numlab.eriksen_condition_residual(model, u) <= 1e-10
        ok = ok and float(np.max(np.abs(block - eps_exact))) <= 1e-12
    lattice = numlab.lattice_model(n_sites=256,
                                   potential=numlab.regularized_well(0.35, 0.7))
    assert lattice.hamiltonian.shape == (1024, 1024)
    u = numlab.eriksen_unitary(lattice)
    ok = ok and numlab.block_diag_residual(lattice, u) <= 1e-10
    ok = ok and numlab.eriksen_condition_residual(lattice, u) <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(8, "block-diagonalization exact on free and 1024-dim lattice models",
            ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_09_convergence_divergence():
    rep_c = numlab.convergence_probe(numlab.free_model(0.5), orders=(2, 4, 6, 8))
    rep_d = numlab.convergence_probe(numlab.free_model(1.5), orders=(2, 4, 6, 8))
    decreasing = all(a > b for a, b in zip(rep_c.norms, rep_c.norms[1:]))
    tail = rep_d.norms[-3:]
    increasing_tail = tail[0] <= tail[1] <= tail[2]
    ok = (rep_c.classification == "converging" and decreasing
          and rep_d.classification == "diverging" and increasing_tail)
    _report(9, "expansion contributions shrink at p/(mc)=0.5 and grow at 1.5", ok)


def test_criterion_10_randomized_property_suites():
    rng = random.Random(987654321)
    t0 = time.perf_counter()

    for _ in range(CASES):
        raw = [rand_raw_term(rng) for _ in range(rng.randint(1, 3))]
        x = OperatorExpr(raw)
        assert normalize(x) == x

    for _ in range(CASES):
        x = rand_expr(rng, max_terms=2, max_len=3)
        y = rand_expr(rng, max_terms=2, max_len=3)
        z = rand_expr(rng, max_terms=2, max_len=3)
        jac = (commutator(x, commutator(y, z))
               + commutator(y, commutator(z, x))
               + commutator(z, commutator(x, y)))
        assert jac.is_zero

    for _ in range(CASES):
        x = rand_expr(rng)
        assert x.adjoint().adjoint() == x

    beta_e = sym(BETA)
    for _ in range(CASES):
        x = rand_expr(rng)
        even, odd = x.parity_split()
        assert even + odd == x
        assert (beta_e * even - even * beta_e).is_zero
        assert (beta_e * odd + odd * beta_e).is_zero

    for _ in range(CASES):
        max_order = rng.choice((2, 3, 3, 4, 4, 5, 6))
        a = rand_expr_min_weight(rng, VELOCITY, max_terms=2, max_len=3)
        c = rand_expr_min_weight(rng, VELOCITY, max_terms=2, max_len=3)
        z = bch_combine(a, c, VELOCITY, max_order)
        lhs = (exp_series(a, VELOCITY, max_order)
               * exp_series(c, VELOCITY, max_order)).truncate(VELOCITY, max_order)
        assert lhs == exp_series(z, VELOCITY, max_order)

    elapsed = time.perf_counter() - t0
    _report(10, f"five randomized suites, {CASES} cases each, zero failures",
            True, f"{elapsed:.1f}s")
