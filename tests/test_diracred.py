import random
from fractions import Fraction

import pytest
import sympy as sp

from fwalg.gaussrat import GaussRat, I, MINUS_I, ONE
from fwalg.opalg import (
    BETA, E, F, O, VELOCITY, OperatorExpr, SymbolRegistry, commutator, sym,
    word,
)
from fwalg.diracred import (
    BETA_ATOM, FieldAtom, FieldContext, FieldExpr, FieldTerm, GAMMA5,
    PiAtom, TAtom, UnreducedWord, _held, _normalize_field, _unit_mul, _word_of,
    alpha_atom,
    a_atom, b_field, div_e, e_field, field_term, instantiate, phi_atom,
    polarization, reference_field_hamiltonian, sigma_atom,
)
from fwalg import reference as ref

from conftest import rand_coeff, rand_expr


# -- explicit Dirac-representation matrices -----------------------------------------

_S = [sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
      sp.Matrix([[1, 0], [0, -1]])]
_Z2 = sp.zeros(2, 2)
_I2 = sp.eye(2)

BETA_M = sp.diag(1, 1, -1, -1)
ALPHA_M = [sp.Matrix(sp.BlockMatrix([[_Z2, s], [s, _Z2]])) for s in _S]
SIGMA_M = [sp.Matrix(sp.BlockMatrix([[s, _Z2], [_Z2, s]])) for s in _S]
GAMMA5_M = sp.Matrix(sp.BlockMatrix([[_Z2, _I2], [_I2, _Z2]]))


#: Each named atom's matrix, written out on its own: alpha_i is not built
#: from gamma5 Sigma_i here.
ATOM_MATRICES = {BETA_ATOM: BETA_M, GAMMA5: GAMMA5_M,
                 **{sigma_atom(i): SIGMA_M[i - 1] for i in (1, 2, 3)},
                 **{alpha_atom(i): ALPHA_M[i - 1] for i in (1, 2, 3)}}


def atom_matrix(atom) -> sp.Matrix:
    return ATOM_MATRICES[atom]


def unit_matrix(unit) -> sp.Matrix:
    """beta^b gamma5^a Sigma_k, with Sigma_0 = 1."""
    b, a, k = unit
    return ((BETA_M if b else sp.eye(4)) * (GAMMA5_M if a else sp.eye(4))
            * (SIGMA_M[k - 1] if k else sp.eye(4)))


UNITS = [(b, a, k) for b in (0, 1) for a in (0, 1) for k in (0, 1, 2, 3)]


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


def test_unit_mul_on_all_pairs_against_matrices():
    # the sixteen units are sixteen distinct matrices, and the product rule
    # agrees with the matrix product on all 16 x 16 pairs
    assert len({tuple(unit_matrix(u)) for u in UNITS}) == 16
    for x in UNITS:
        for y in UNITS:
            coeff, unit = _unit_mul(x, y)
            assert gauss_to_sympy(coeff) * unit_matrix(unit) \
                == unit_matrix(x) * unit_matrix(y), (x, y)


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


def _reduce_word(atoms):
    """Normal-order a word of field/pi/T atoms: the oracle of ``_normalize_field``.

    Each of the four commutation rules written out on its own, and the scan
    restarted from the left after every swap. Returns branches (coeff,
    e_shift, hbar_shift, c_shift, fields, pis, t_power).
    """
    results = []
    stack = [(ONE, 0, 0, 0, list(atoms))]
    while stack:
        coeff, de, dh, dc, seq = stack.pop()
        changed = True
        while changed:
            changed = False
            for idx in range(len(seq) - 1):
                x, y = seq[idx], seq[idx + 1]
                if isinstance(x, TAtom) and not isinstance(y, TAtom):
                    if isinstance(y, FieldAtom):
                        # T f = f T - i hbar (d_t f)
                        rest = seq[:idx] + [y.d_time()] + seq[idx + 2:]
                        stack.append((coeff * MINUS_I, de, dh + 1, dc, rest))
                    else:  # PiAtom
                        # T pi_i = pi_i T + i hbar (e/c) (d_t A_i)
                        rest = seq[:idx] + [a_atom(y.axis, (), 1)] + seq[idx + 2:]
                        stack.append((coeff * I, de + 1, dh + 1, dc - 1, rest))
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
                if isinstance(x, PiAtom) and isinstance(y, FieldAtom):
                    # pi_i f = f pi_i - i hbar (d_i f)
                    rest = seq[:idx] + [y.d_spatial(x.axis)] + seq[idx + 2:]
                    stack.append((coeff * MINUS_I, de, dh + 1, dc, rest))
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
                if isinstance(x, PiAtom) and isinstance(y, PiAtom) and x.axis > y.axis:
                    # pi_i pi_j = pi_j pi_i + i hbar (e/c) (d_i A_j - d_j A_i)
                    i, j = x.axis, y.axis
                    rest1 = seq[:idx] + [a_atom(j, (i,))] + seq[idx + 2:]
                    rest2 = seq[:idx] + [a_atom(i, (j,))] + seq[idx + 2:]
                    stack.append((coeff * I, de + 1, dh + 1, dc - 1, rest1))
                    stack.append((coeff * MINUS_I, de + 1, dh + 1, dc - 1, rest2))
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
                if (isinstance(x, FieldAtom) and isinstance(y, FieldAtom)
                        and x.sort_key > y.sort_key):
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
        fields = tuple(a for a in seq if isinstance(a, FieldAtom))
        pis = tuple(a.axis for a in seq if isinstance(a, PiAtom))
        t_power = sum(1 for a in seq if isinstance(a, TAtom))
        results.append((coeff, de, dh, dc, fields, pis, t_power))
    return results


def _normalize_by_restart(raw):
    """``_normalize_field``'s terms, each word reduced by ``_reduce_word``."""
    acc = {}
    for coeff0, e_power, hbar_power, c_power, mass_power, unit, atoms in raw:
        for coeff, de, dh, dc, fields, pis, t_power in _reduce_word(atoms):
            key = (fields, pis, t_power, unit, e_power + de, hbar_power + dh,
                   c_power + dc, mass_power)
            prev = acc.get(key)
            acc[key] = coeff0 * coeff if prev is None else prev + coeff0 * coeff
    terms = [FieldTerm(c, *key) for key, c in acc.items() if not c.is_zero]
    return sorted(terms, key=lambda t: t.sort_key)


def _random_atom(rng):
    kind = rng.random()
    if kind < 0.3:
        return rng.choice([phi_atom(), phi_atom((2,)), phi_atom((), 1), a_atom(1),
                           a_atom(3, (1, 2)), a_atom(2, (), 1)])
    if kind < 0.8:
        return PiAtom(rng.choice((1, 2, 3)))
    return TAtom()


def test_normalize_field_equals_restarting_reducer(rng):
    # words of fields, pis (repeated and descending axes among them) and T;
    # one raw tuple or several that share keys
    for _ in range(300):
        raw = [(GaussRat(rng.randint(-3, 3) or 1, rng.randint(-1, 1)), rng.randint(0, 1),
                rng.randint(0, 1), 0, rng.randint(0, 1), (rng.randint(0, 1), 0, 0),
                [_random_atom(rng) for _ in range(rng.randint(0, 6))])
               for _ in range(rng.randint(1, 3))]
        assert ([(t.key, t.coeff) for t in _normalize_field(raw)]
                == [(t.key, t.coeff) for t in _normalize_by_restart(raw)]), raw


# -- sums: one pass of the term merge ------------------------------------------------

_FIELD_PIECES = [field_term(1, atoms) for atoms in (
    (), (BETA_ATOM,), (sigma_atom(1),), (PiAtom(2),), (phi_atom(),), (a_atom(3), sigma_atom(3)))]


def _rand_field(rng):
    return FieldExpr.combine((rand_coeff(rng), rng.choice(_FIELD_PIECES))
                             for _ in range(rng.randint(0, 4)))


def _dict_merge(x, y):
    """x + y by a dict merge of the terms, one term per key, sorted."""
    if not y.terms:
        return x
    if not x.terms:
        return y
    acc = {t.key: t for t in x.terms}
    for t in y.terms:
        prev = acc.get(t.key)
        acc[t.key] = t if prev is None else prev.with_coeff(prev.coeff + t.coeff)
    terms = sorted((t for t in acc.values() if not t.coeff.is_zero), key=lambda t: t.sort_key)
    return _held(tuple(terms))


def test_add_and_sub_equal_the_dict_merge(rng):
    # the terms are compared in order, so the sort is checked too
    empty = FieldExpr.zero()
    cancelled = 0
    for _ in range(200):
        x, y = _rand_field(rng), _rand_field(rng)
        for a, b in ((x, y), (x, empty), (empty, y), (x, x), (x, -x), (x, x + y)):
            total, difference = a + b, a - b
            for out, oracle in ((total, _dict_merge(a, b)), (difference, _dict_merge(a, -b))):
                assert out == oracle
                assert [(t.key, t.coeff) for t in out.terms] == [
                    (t.key, t.coeff) for t in oracle.terms]
            cancelled += total.is_zero + difference.is_zero
    assert cancelled >= 400


def test_unmerged_left_terms_come_back_as_the_same_objects(rng):
    for _ in range(100):
        x, y = _rand_field(rng), _rand_field(rng)
        right = {t.key for t in y}
        for out in (x + y, x - y):
            by_key = {t.key: t for t in out}
            for t in x:
                if t.key not in right:
                    assert by_key[t.key] is t
        for t, u in zip(y, FieldExpr.zero() + y):
            assert t is u


def branch_expansion(abstract, ctx=FieldContext(), max_field_order=None):
    """The substitution expanded term by term into every branch of its word.

    O contributes three branches (one per alpha_i pi_i), F two (e Phi and T)
    and E one; all branches of all terms are normalized together. An
    independent route to instantiate's result, kept as its oracle.
    """
    raw = []
    for term in abstract.terms:
        branches = [(term.coeff, 0, term.hbar_power, 0, term.mass_power, (0, 0, 0), [])]
        for s in term.word:
            grown = []
            for coeff, ep, hp, cp, mp, unit, w in branches:
                if s == BETA:
                    u_coeff, unit2 = _unit_mul(unit, (1, 0, 0))
                    grown.append((coeff * u_coeff, ep, hp, cp, mp, unit2, w))
                elif s == O:
                    for i in (1, 2, 3):
                        u_coeff, unit2 = _unit_mul(unit, (0, 1, i))
                        grown.append((coeff * u_coeff, ep, hp, cp + 1, mp, unit2,
                                      w + [PiAtom(i)]))
                else:
                    if ctx.has_scalar:
                        grown.append((coeff, ep + 1, hp, cp, mp, unit, w + [phi_atom()]))
                    if s == F:
                        grown.append((coeff, ep, hp, cp, mp, unit, w + [TAtom()]))
            branches = grown
        raw.extend(branches)
    out = FieldExpr(raw)
    if not ctx.has_vector:
        out = out.filter(lambda t: all(f.base != "A" for f in t.fields))
    if max_field_order is not None:
        out = out.truncate_field_order(max_field_order)
    return out


_CONTEXTS = [FieldContext(has_scalar=s, has_vector=v)
             for s in (True, False) for v in (True, False)]


def test_instantiate_matches_branch_expansion(rng):
    # random words over beta, O, E, F with mass and hbar powers, every
    # potential context, untruncated and at two weak-field orders
    for _ in range(40):
        abstract = rand_expr(rng, max_terms=3, max_len=4)
        for ctx in _CONTEXTS:
            for cut in (None, 2, 3):
                assert instantiate(abstract, ctx, cut) == \
                    branch_expansion(abstract, ctx, cut), (abstract, ctx, cut)


def test_instantiate_eriksen_closed_form_hermitian_and_even():
    concrete = instantiate(ref.eriksen_24().truncate(VELOCITY, 6))
    assert len(concrete) == 1628
    assert concrete == concrete.adjoint()
    assert concrete.parity_split()[1].is_zero


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
    magnetic_key = ((a_atom(2, (1,)),), (), 0, (1, 0, 3), 1, 1, 1, 1)
    pauli = _coeff_of(concrete, magnetic_key)
    assert pauli == GaussRat(Fraction(-1, 2))
    # spin-orbit: (e hbar/8m^2c^2)(Sigma.[pi x E] - Sigma.[E x pi]); in potential
    # form the Sigma_1 (d2 Phi) pi3 cross term carries 2 * 1/8 = 1/4
    so_key = ((phi_atom((2,)),), (3,), 0, (0, 0, 1), 1, 1, 2, 2)
    so = _coeff_of(concrete, so_key)
    assert so == GaussRat(Fraction(1, 4))
    # the Thomas half: the spin-electric coupling is half-weighted relative to
    # the magnetic one after accounting for the extra 1/(mc^2)
    assert so.re / pauli.re == Fraction(-1, 2)


def test_darwin_coefficient():
    concrete = instantiate(ref.h_corr_38().truncate(VELOCITY, 4), max_field_order=3)
    # -(e hbar^2/8m^2c^2) div E contains +(e hbar^2/8m^2c^2) laplacian(Phi)
    key = ((phi_atom((1, 1)),), (), 0, (0, 0, 0), 1, 2, 2, 2)
    assert _coeff_of(concrete, key) == GaussRat(Fraction(1, 8))


def test_polarization_is_beta_sigma():
    # the matrix in the magnetic term must be beta Sigma_i
    x = polarization(2)
    assert len(x) == 1
    assert x.terms[0].unit == (1, 0, 2)


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


def test_verify_dirac_builds_the_conventional_catalog_once(monkeypatch):
    # The catalog is constant data: its block products are formed on first use.
    import fwalg.diracred as diracred
    from fwalg.shell import verify_dirac
    builds = []
    real = diracred._pi_squared

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(diracred, "_pi_squared", counting)
    diracred._conventional_catalog.cache_clear()
    results = verify_dirac() + verify_dirac()
    assert all(r.ok for r in results)
    assert len(builds) == 1


def test_render_conventional_leftover_is_raw():
    from fwalg.diracred import render_conventional
    stray = field_term(1, [sigma_atom(1), phi_atom()], e_power=2)
    rendered = render_conventional(field_term(1, [BETA_ATOM], mass_power=-1) + stray)
    assert "beta mc^2" in rendered
    assert "raw" in rendered
    assert rendered.splitlines() == ["1 * beta mc^2", "raw (1 e^2 Sigma1 Phi)"]
    # every unit name prints, and the raw lines follow the term order
    more = (field_term(2, [GAMMA5, a_atom(3)], e_power=2)
            + field_term(MINUS_I, [BETA_ATOM, alpha_atom(2), PiAtom(1)], c_power=3))
    assert render_conventional(stray + more).splitlines() == [
        "raw (-i c^3 beta alpha2 pi1)",
        "raw (1 e^2 Sigma1 Phi)",
        "raw (2 e^2 g5 A3)",
    ]


def test_field_term_rebuilds_from_its_key():
    for t in reference_field_hamiltonian():
        again = FieldTerm(t.coeff, *t.key)
        assert (again.key, again.sort_key, again.coeff) == (t.key, t.sort_key, t.coeff)
        assert repr(again) == repr(t)
