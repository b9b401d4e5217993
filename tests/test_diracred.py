import random
from fractions import Fraction

import pytest
import sympy as sp

from fwalg.gaussrat import GaussRat
from fwalg.opalg import (
    BETA, E, F, O, VELOCITY, OperatorExpr, SymbolRegistry, commutator, sym,
    word,
)
from fwalg.diracred import (
    BETA_ATOM, CliffordAtom, FieldAtom, FieldContext, FieldExpr, GAMMA5,
    PiAtom, UnreducedWord, _word_of, alpha_atom, a_atom, b_field, div_e,
    e_field, field_term, instantiate, phi_atom, polarization,
    reference_field_hamiltonian, sigma_atom,
)
from fwalg import reference as ref


# -- explicit Dirac-representation matrices -----------------------------------------

_S = [sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
      sp.Matrix([[1, 0], [0, -1]])]
_Z2 = sp.zeros(2, 2)
_I2 = sp.eye(2)

BETA_M = sp.diag(1, 1, -1, -1)
ALPHA_M = [sp.Matrix(sp.BlockMatrix([[_Z2, s], [s, _Z2]])) for s in _S]
SIGMA_M = [sp.Matrix(sp.BlockMatrix([[s, _Z2], [_Z2, s]])) for s in _S]
GAMMA5_M = sp.Matrix(sp.BlockMatrix([[_Z2, _I2], [_I2, _Z2]]))


def atom_matrix(atom: CliffordAtom) -> sp.Matrix:
    if atom.kind == "beta":
        return BETA_M
    if atom.kind == "gamma5":
        return GAMMA5_M
    if atom.kind == "sigma":
        return SIGMA_M[atom.axis - 1]
    return ALPHA_M[atom.axis - 1]


def unit_matrix(unit) -> sp.Matrix:
    b, g = unit
    inner = {0: sp.eye(4), 1: GAMMA5_M}.get(g)
    if inner is None:
        inner = SIGMA_M[g - 2] if g <= 4 else ALPHA_M[g - 5]
    return (BETA_M if b else sp.eye(4)) * inner


def gauss_to_sympy(c: GaussRat):
    return sp.Rational(c.re.numerator, c.re.denominator) \
        + sp.I * sp.Rational(c.im.numerator, c.im.denominator)


def test_clifford_relations_against_matrices():
    # alpha_i alpha_j = delta_ij + i eps_ijk Sigma_k, and the mixed products
    for i in range(3):
        for j in range(3):
            assert ALPHA_M[i] * ALPHA_M[j] == SIGMA_M[i] * SIGMA_M[j]
    assert SIGMA_M[0] * ALPHA_M[1] == sp.I * ALPHA_M[2]
    assert ALPHA_M[0] * SIGMA_M[1] == sp.I * ALPHA_M[2]
    assert SIGMA_M[1] * ALPHA_M[0] == -sp.I * ALPHA_M[2]
    assert SIGMA_M[0] * ALPHA_M[0] == GAMMA5_M
    for i in range(3):
        assert BETA_M * ALPHA_M[i] == -ALPHA_M[i] * BETA_M
        assert BETA_M * SIGMA_M[i] == SIGMA_M[i] * BETA_M
    assert BETA_M * GAMMA5_M == -GAMMA5_M * BETA_M


def test_unit_products_against_matrices():
    rng = random.Random(7)
    atoms = ([BETA_ATOM, GAMMA5]
             + [sigma_atom(i) for i in (1, 2, 3)]
             + [alpha_atom(i) for i in (1, 2, 3)])
    for _ in range(400):
        seq = [rng.choice(atoms) for _ in range(rng.randint(1, 6))]
        x = field_term(1, seq)
        assert len(x) == 1
        t = x.terms[0]
        got = gauss_to_sympy(t.coeff) * unit_matrix(t.unit)
        expected = sp.eye(4)
        for a in seq:
            expected = expected * atom_matrix(a)
        assert sp.simplify(got - expected) == sp.zeros(4, 4)


# -- differential-operator oracle ------------------------------------------------------

X, Y, Z, T_ = sp.symbols("x y z t", real=True)
COORDS = (X, Y, Z)
E_CH, C_L, HBAR, MASS_SYM = sp.symbols("e c hbar m_e", positive=True)
PHI_F = sp.Function("Phi")(X, Y, Z, T_)
A_F = [sp.Function(f"A{i}")(X, Y, Z, T_) for i in (1, 2, 3)]
PSI = sp.Matrix([sp.Function(f"psi{k}")(X, Y, Z, T_) for k in range(4)])


def pi_op(i, v):
    return -sp.I * HBAR * sp.diff(v, COORDS[i - 1]) - (E_CH / C_L) * A_F[i - 1] * v


def t_op(v):
    return -sp.I * HBAR * sp.diff(v, T_)


def field_atom_scalar(atom: FieldAtom):
    base = PHI_F if atom.base == "Phi" else A_F[atom.axis - 1]
    out = base
    for ax in atom.sderiv:
        out = sp.diff(out, COORDS[ax - 1])
    for _ in range(atom.tderiv):
        out = sp.diff(out, T_)
    return out


def apply_field_expr(expr: FieldExpr, v: sp.Matrix) -> sp.Matrix:
    total = sp.zeros(4, 1)
    for t in expr.terms:
        w = v
        for _ in range(t.t_power):
            w = w.applyfunc(t_op)
        for axis in reversed(t.pis):
            w = w.applyfunc(lambda comp, ax=axis: pi_op(ax, comp))
        scalar = gauss_to_sympy(t.coeff)
        scalar *= E_CH ** t.e_power * HBAR ** t.hbar_power * C_L ** t.c_power
        scalar *= (MASS_SYM * C_L ** 2) ** (-t.mass_power)
        for atom in t.fields:
            scalar *= field_atom_scalar(atom)
        total = total + scalar * (unit_matrix(t.unit) * w)
    return total


def apply_abstract(expr: OperatorExpr, v: sp.Matrix) -> sp.Matrix:
    """Direct substitution: O, E, F, beta act as composed operators."""
    total = sp.zeros(4, 1)
    for t in expr.terms:
        w = v
        for s in reversed(t.word):
            if s == BETA:
                w = BETA_M * w
            elif s == O:
                w = sp.Matrix(sum(
                    (C_L * ALPHA_M[i - 1] * w.applyfunc(
                        lambda comp, ax=i: pi_op(ax, comp))
                     for i in (1, 2, 3)),
                    start=sp.zeros(4, 1)))
            elif s == E:
                w = E_CH * PHI_F * w
            elif s == F:
                w = E_CH * PHI_F * w + w.applyfunc(t_op)
            else:
                raise AssertionError(s.name)
        scalar = gauss_to_sympy(t.coeff) * (MASS_SYM * C_L ** 2) ** (-t.mass_power)
        scalar *= HBAR ** t.hbar_power
        total = total + scalar * w
    return total


def assert_reduction_matches_operator(abstract: OperatorExpr):
    reduced = instantiate(abstract)
    direct = apply_abstract(abstract, PSI)
    via_engine = apply_field_expr(reduced, PSI)
    delta = sp.expand(direct - via_engine)
    assert sp.simplify(delta) == sp.zeros(4, 1), abstract


o_, f_, e_ = sym(O), sym(F), sym(E)


@pytest.mark.parametrize("abstract", [
    o_ * o_,
    commutator(o_, f_),
    commutator(o_, commutator(o_, f_)),
    o_ * e_ * o_,
    sym(BETA) * o_ * o_ * word(1, [], mass_power=1),
    commutator(commutator(o_, f_), f_),
], ids=["O2", "[O,F]", "[O,[O,F]]", "OEO", "betaO2u", "[[O,F],F]"])
def test_reduction_against_operator_oracle(abstract):
    assert_reduction_matches_operator(abstract)


def _raw(x: FieldExpr) -> list:
    return [(t.coeff, t.e_power, t.hbar_power, t.c_power, t.mass_power, t.unit,
             _word_of(t)) for t in x.terms]


def test_reduction_oracle_random_words(rng):
    pool = (BETA, O, E, F)
    total = FieldExpr.zero()
    for _ in range(6):
        length = rng.randint(1, 3)
        w = [rng.choice(pool) for _ in range(length)]
        assert_reduction_matches_operator(word(1, w))
        # + merges two normal forms; it must agree with normalizing raw tuples
        x = instantiate(word(1, w))
        assert total + x == FieldExpr(_raw(total) + _raw(x))
        assert total - x == FieldExpr(_raw(total) + _raw(-x))
        total = total + x
    # the shared + never mixes the two algebras
    with pytest.raises(TypeError):
        word(1, w) + total
    with pytest.raises(TypeError):
        total + word(1, w)


# -- named identities -----------------------------------------------------------------

def test_pauli_identity():
    got = instantiate(o_ * o_)
    pi2 = FieldExpr.zero()
    for i in (1, 2, 3):
        pi2 = pi2 + field_term(1, [PiAtom(i), PiAtom(i)], c_power=2)
    mag = FieldExpr.zero()
    for i in (1, 2, 3):
        mag = mag + field_term(-1, [sigma_atom(i)],
                               e_power=1, hbar_power=1, c_power=1) * b_field(i)
    assert got == pi2 + mag


def test_commutator_of_o_and_f_is_electric():
    got = instantiate(commutator(o_, f_))
    expected = FieldExpr.zero()
    for i in (1, 2, 3):
        expected = expected + field_term(GaussRat(0, 1), [alpha_atom(i)],
                                         e_power=1, hbar_power=1,
                                         c_power=1) * e_field(i)
    assert got == expected


def test_eq13_reproduced():
    abstract = ref.h_corr_38().truncate(VELOCITY, 4)
    concrete = instantiate(abstract, max_field_order=3)
    report = ref.diff(concrete, reference_field_hamiltonian())
    assert report.is_empty, report.render()


def test_eq13_from_mass_scheme_input_agrees():
    abstract = ref.h_corr_43().truncate(VELOCITY, 4)
    concrete = instantiate(abstract, max_field_order=3)
    assert concrete == reference_field_hamiltonian()


def test_free_field_context():
    abstract = ref.h_corr_38().truncate(VELOCITY, 4)
    got = instantiate(abstract, ctx=FieldContext(has_scalar=False, has_vector=False),
                      max_field_order=3)
    expected = FieldExpr.zero() + field_term(1, [BETA_ATOM], mass_power=-1)
    pi2 = FieldExpr.zero()
    for i in (1, 2, 3):
        pi2 = pi2 + field_term(1, [PiAtom(i), PiAtom(i)], c_power=2)
    expected = expected + field_term(Fraction(1, 2), [BETA_ATOM], mass_power=1) * pi2
    expected = expected + (field_term(Fraction(-1, 8), [BETA_ATOM], mass_power=3)
                           * pi2 * pi2)
    # with A = 0 the reordering corrections (all carrying one A factor) vanish
    expected = expected.truncate_field_order(3)
    assert got == expected
    assert all(not t.fields and not t.t_power for t in got.terms)


def test_hermiticity_at_working_order():
    concrete = instantiate(ref.h_corr_38().truncate(VELOCITY, 4), max_field_order=3)
    assert (concrete - concrete.adjoint()).truncate_field_order(3).is_zero
    assert concrete.parity_split()[1].is_zero


def test_unreduced_word_on_unknown_generator():
    reg = SymbolRegistry()
    q = reg.register("Q", "odd", 1)
    with pytest.raises(UnreducedWord):
        instantiate(sym(q))


# -- printed coefficients (magnetic full weight, spin-orbit Thomas half) ------------------

def _coeff_of(expr: FieldExpr, key):
    for t in expr.terms:
        if t.key == key:
            return t.coeff
    return GaussRat(0)


def test_magnetic_and_thomas_half_coefficients():
    concrete = instantiate(ref.h_corr_38().truncate(VELOCITY, 4), max_field_order=3)
    # magnetic: -(e hbar/2mc)(beta Sigma.B); the d1A2 component of B3 carries -1/2
    magnetic_key = ((a_atom(2, (1,)),), (), 0, (1, 4), 1, 1, 1, 1)
    pauli = _coeff_of(concrete, magnetic_key)
    assert pauli == GaussRat(Fraction(-1, 2))
    # spin-orbit: (e hbar/8m^2c^2)(Sigma.[pi x E] - Sigma.[E x pi]); in potential
    # form the Sigma_1 (d2 Phi) pi3 cross term carries 2 * 1/8 = 1/4
    so_key = ((phi_atom((2,)),), (3,), 0, (0, 2), 1, 1, 2, 2)
    so = _coeff_of(concrete, so_key)
    assert so == GaussRat(Fraction(1, 4))
    # the Thomas half: the spin-electric coupling is half-weighted relative to
    # the magnetic one after accounting for the extra 1/(mc^2)
    assert so.re / pauli.re == Fraction(-1, 2)


def test_darwin_coefficient():
    concrete = instantiate(ref.h_corr_38().truncate(VELOCITY, 4), max_field_order=3)
    # -(e hbar^2/8m^2c^2) div E contains +(e hbar^2/8m^2c^2) laplacian(Phi)
    key = ((phi_atom((1, 1)),), (), 0, (0, 0), 1, 2, 2, 2)
    assert _coeff_of(concrete, key) == GaussRat(Fraction(1, 8))


def test_polarization_is_beta_sigma():
    # the matrix in the magnetic term must be beta Sigma_i
    x = polarization(2)
    assert len(x) == 1
    assert x.terms[0].unit == (1, 3)


def test_div_e_builder():
    got = div_e()
    expected = FieldExpr.zero()
    for i in (1, 2, 3):
        expected = expected + field_term(-1, [phi_atom((i, i))])
        expected = expected + field_term(-1, [a_atom(i, (i,), 1)], c_power=-1)
    assert got == expected


def test_render_conventional_full_decomposition():
    from fwalg.diracred import render_conventional
    concrete = instantiate(ref.h_corr_38().truncate(VELOCITY, 4), max_field_order=3)
    rendered = render_conventional(concrete)
    assert rendered.splitlines() == [
        "1 * beta mc^2",
        "1/2 * beta pi^2 /m",
        "-1/8 * beta pi^4 /(m^3 c^2)",
        "1 * e Phi",
        "-1/2 * (e hbar/(m c)) (beta Sigma).B",
        "1/8 * (e hbar/(m^2 c^2)) (Sigma.[pi x E] - Sigma.[E x pi])",
        "-1/8 * (e hbar^2/(m^2 c^2)) div E",
    ]


def test_render_conventional_leftover_is_raw():
    from fwalg.diracred import render_conventional
    stray = field_term(1, [sigma_atom(1), phi_atom()], e_power=2)
    rendered = render_conventional(field_term(1, [BETA_ATOM], mass_power=-1) + stray)
    assert "beta mc^2" in rendered
    assert "raw" in rendered
