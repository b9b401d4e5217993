"""Second, independent transcription of every closed-form expression.

Each builder below was re-typed from the source in a different arrangement
(grouped by beta prefix, different term order) so that a typo in either copy
shows up as a structural difference.
"""

from fractions import Fraction

import pytest

from fwalg.gaussrat import GaussRat
from fwalg.opalg import (
    BETA, E, F, MASS, O, VELOCITY, anticommutator, commutator, sym, word,
)
from fwalg import reference as ref

b, o, f, e = sym(BETA), sym(O), sym(F), sym(E)
i_ = GaussRat(0, 1)


def u(k):
    return word(1, [], mass_power=k)


def mc2(k=1):
    return word(1, [], mass_power=-k)


M = word(1, [BETA], mass_power=-1)
O2 = o * o


def twin_h_prime_34():
    beta_block = (O2 / 2 * u(1) - O2 ** 2 / 8 * u(3) + o ** 6 / 144 * u(5)
                  + commutator(o, f) / 2 * u(1)
                  - commutator(o, commutator(o, commutator(o, f))) / 48 * u(3))
    plain = (e
             - commutator(o, commutator(o, f)) / 8 * u(2)
             + commutator(o, commutator(o, commutator(o, commutator(o, f)))) / 384 * u(4)
             - o ** 3 / 3 * u(2) + o ** 5 / 30 * u(4))
    return M + b * beta_block + plain


def twin_s_prime_34():
    return i_ * (-commutator(o, f) / 4 * u(2)
                 + b * (o ** 3 / 6 * u(3) - o ** 5 / 60 * u(5))
                 + commutator(o, commutator(o, commutator(o, f))) / 96 * u(4))


def twin_h_dprime_34():
    beta_block = (O2 / 2 * u(1) - O2 ** 2 / 8 * u(3) + o ** 6 / 16 * u(5)
                  - commutator(o, f) ** 2 / 8 * u(3)
                  - commutator(o ** 3, f) / 6 * u(3)
                  - anticommutator(O2, commutator(o, f)) / 8 * u(3))
    plain = (e
             - commutator(o, commutator(o, f)) / 8 * u(2)
             + anticommutator(O2, commutator(o, commutator(o, f))) * Fraction(3, 64) * u(4)
             + commutator(O2, commutator(O2, f)) * Fraction(5, 128) * u(4)
             + commutator(commutator(o, f), f) / 4 * u(2))
    return M + b * beta_block + plain


def twin_s_dprime_34():
    return i_ * (-b * commutator(commutator(o, f), f) / 8 * u(3)
                 + commutator(o ** 3, f) / 12 * u(4)
                 + anticommutator(O2, commutator(o, f)) / 16 * u(4))


def twin_h_orig_35():
    return (M + e
            + b * (O2 / 2 * u(1) - O2 ** 2 / 8 * u(3) + o ** 6 / 16 * u(5)
                   - commutator(o, f) ** 2 / 8 * u(3))
            - commutator(o, commutator(o, f)) / 8 * u(2)
            + Fraction(3, 64) * anticommutator(O2, commutator(o, commutator(o, f))) * u(4)
            + Fraction(5, 128) * commutator(O2, commutator(O2, f)) * u(4))


def twin_h_corr_38():
    return (M + e
            + b * (O2 / 2 * u(1) - O2 ** 2 / 8 * u(3) + o ** 6 / 16 * u(5)
                   + anticommutator(o, commutator(commutator(o, f), f)) / 16 * u(3))
            - commutator(o, commutator(o, f)) / 8 * u(2)
            + Fraction(3, 64) * anticommutator(O2, commutator(o, commutator(o, f))) * u(4)
            + Fraction(1, 128) * commutator(O2, commutator(O2, f)) * u(4))


def twin_steps_39():
    s = -i_ * b * o / 2 * u(1)
    s1 = i_ * (-commutator(o, f) / 4 * u(2) + b * o ** 3 / 6 * u(3)
               + commutator(o, commutator(o, commutator(o, f))) / 96 * u(4))
    s2 = i_ * (-b * commutator(commutator(o, f), f) / 8 * u(3)
               + commutator(o ** 3, f) / 12 * u(4)
               + anticommutator(O2, commutator(o, f)) / 16 * u(4))
    s3 = -i_ * commutator(commutator(commutator(o, f), f), f) / 16 * u(4)
    return s, s1, s2, s3


def twin_h_orig_40():
    return (M + e
            + b * (O2 / 2 * u(1) - O2 ** 2 / 8 * u(3)
                   - commutator(o, f) ** 2 / 8 * u(3))
            - commutator(o, commutator(o, f)) / 8 * u(2)
            + Fraction(3, 64) * anticommutator(O2, commutator(o, commutator(o, f))) * u(4)
            + Fraction(5, 128) * commutator(O2, commutator(O2, f)) * u(4)
            + Fraction(1, 32) * commutator(commutator(o, f),
                                           commutator(commutator(o, f), f)) * u(4))


def twin_h_corr_43():
    return (M + e
            + b * (O2 / 2 * u(1) - O2 ** 2 / 8 * u(3)
                   + anticommutator(o, commutator(commutator(o, f), f)) / 16 * u(3))
            - commutator(o, commutator(o, f)) / 8 * u(2)
            + Fraction(3, 64) * anticommutator(O2, commutator(o, commutator(o, f))) * u(4)
            + Fraction(1, 128) * commutator(O2, commutator(O2, f)) * u(4)
            - Fraction(1, 32) * commutator(
                o, commutator(commutator(commutator(o, f), f), f)) * u(4))


def twin_free_22():
    return b * (mc2() + O2 / 2 * u(1) - O2 ** 2 / 8 * u(3)
                + o ** 6 / 16 * u(5) - 5 * o ** 8 / 128 * u(7))


def twin_a24_25():
    cof = commutator(o, f)
    co2f = commutator(O2, f)
    inner = (24 * anticommutator(O2, cof * cof)
             - 20 * co2f * co2f
             - 14 * anticommutator(O2, commutator(co2f, f))
             - 4 * commutator(o, commutator(o, commutator(co2f, f)))
             + Fraction(9, 2) * commutator(commutator(o, commutator(o, co2f)), f)
             - Fraction(9, 2) * commutator(commutator(o, cof), co2f)
             + Fraction(5, 2) * commutator(O2, commutator(o, commutator(cof, f))))
    return b * inner / 256 * u(5)


def twin_eriksen_24():
    poly1 = 8 * mc2(4) - 6 * mc2(2) * O2 + 5 * O2 ** 2
    poly2 = 2 * mc2(2) - O2
    return (twin_free_22() + e
            - anticommutator(poly1, commutator(o, commutator(o, f))) / 128 * u(6)
            + anticommutator(poly2, commutator(O2, commutator(O2, f))) / 512 * u(6)
            + b * anticommutator(o, commutator(commutator(o, f), f)) / 16 * u(3)
            - commutator(o, commutator(commutator(commutator(o, f), f), f)) / 32 * u(4)
            + Fraction(11, 1024) * commutator(
                O2, commutator(O2, commutator(o, commutator(o, f)))) * u(6)
            + twin_a24_25())


TWINS = [
    (ref.H_PRIME_34, twin_h_prime_34),
    (ref.S_PRIME_34, twin_s_prime_34),
    (ref.H_DPRIME_34, twin_h_dprime_34),
    (ref.S_DPRIME_34, twin_s_dprime_34),
    (ref.H_ORIG_35, twin_h_orig_35),
    (ref.H_CORR_38, twin_h_corr_38),
    (ref.H_ORIG_40, twin_h_orig_40),
    (ref.H_CORR_43, twin_h_corr_43),
    (ref.FREE_PARTICLE_22, twin_free_22),
    (ref.A24_25, twin_a24_25),
    (ref.ERIKSEN_24, twin_eriksen_24),
]


@pytest.mark.parametrize("ref_id,twin", TWINS, ids=[t[0] for t in TWINS])
def test_double_entry_transcription(ref_id, twin):
    report = ref.diff(ref.build(ref_id), twin())
    assert report.is_empty, report.render()


def test_double_entry_steps_39():
    for built, twin in zip(ref.build(ref.STEPS_39), twin_steps_39()):
        assert built == twin


def test_unknown_reference_id():
    with pytest.raises(KeyError):
        ref.build("H_made_up")


# -- structural invariants ----------------------------------------------------------

HAMILTONIAN_IDS = (ref.H_PRIME_34, ref.H_DPRIME_34, ref.H_ORIG_35, ref.H_CORR_38,
                   ref.H_ORIG_40, ref.H_CORR_43, ref.ERIKSEN_24, ref.A24_25,
                   ref.FREE_PARTICLE_22)


@pytest.mark.parametrize("ref_id", HAMILTONIAN_IDS)
def test_hamiltonian_references_hermitian(ref_id):
    x = ref.build(ref_id)
    assert x.adjoint() == x


@pytest.mark.parametrize("ref_id", (ref.H_ORIG_35, ref.H_CORR_38, ref.H_ORIG_40,
                                    ref.H_CORR_43, ref.ERIKSEN_24, ref.A24_25,
                                    ref.FREE_PARTICLE_22))
def test_final_hamiltonian_references_even(ref_id):
    assert ref.build(ref_id).parity_split()[1].is_zero


@pytest.mark.parametrize("ref_id", (ref.S_PRIME_34, ref.S_DPRIME_34))
def test_step_references_odd_hermitian(ref_id):
    x = ref.build(ref_id)
    assert x.parity_split()[0].is_zero
    assert x.adjoint() == x


def test_steps_39_odd_hermitian():
    for s in ref.build(ref.STEPS_39):
        assert s.parity_split()[0].is_zero
        assert s.adjoint() == s


def test_delta_37_connects_35_and_38():
    assert ref.build(ref.H_CORR_38) - ref.build(ref.H_ORIG_35) == ref.build(ref.DELTA_37)


def test_eriksen24_truncations_match_lower_orders():
    full = ref.build(ref.ERIKSEN_24)
    assert full.truncate(VELOCITY, 6) == ref.build(ref.H_CORR_38)
    assert full.truncate(MASS, 4) == ref.build(ref.H_CORR_43)


def test_mass_truncation_of_full_form_matches_43_term_multiset():
    kept = ref.build(ref.ERIKSEN_24).truncate(MASS, 4)
    assert {t.key for t in kept.terms} == {t.key for t in ref.build(ref.H_CORR_43).terms}


# -- transcription coefficient audit ----------------------------------------------------

def test_a24_coefficient_table():
    coeffs = [c for c, _ in ref._A24_PARTS]
    assert coeffs.count(Fraction(9, 2)) == 1
    assert coeffs.count(Fraction(-9, 2)) == 1
    assert Fraction(11, 1024) not in coeffs
    assert Fraction(-11, 1024) not in coeffs


def test_eriksen24_high_order_table_has_the_11_1024():
    coeffs = [c for c, _ in ref._ERIKSEN_24_HIGH_PARTS]
    assert coeffs.count(Fraction(11, 1024)) == 1
    assert coeffs == [Fraction(-1, 128), Fraction(1, 512), Fraction(11, 1024)]


# -- differ ------------------------------------------------------------------------------

def test_diff_equal_is_empty():
    x = ref.build(ref.H_CORR_38)
    assert ref.diff(x, x).is_empty
    assert ref.diff(x, x).render() == "identical"


def test_diff_between_35_and_38_reports_delta_terms():
    report = ref.diff(ref.build(ref.H_ORIG_35), ref.build(ref.H_CORR_38))
    assert not report.is_empty
    delta_keys = {t.key for t in ref.build(ref.DELTA_37).terms}
    touched = ({k for k, _ in report.only_in_a}
               | {k for k, _ in report.only_in_b}
               | {k for k, _, _ in report.coeff_mismatch})
    assert touched == delta_keys


def test_diff_detects_coefficient_change():
    x = ref.build(ref.H_ORIG_35)
    y = x + word(Fraction(1, 1000), [O, F], mass_power=1)
    report = ref.diff(x, y)
    assert len(report.only_in_b) == 1 and not report.only_in_a
