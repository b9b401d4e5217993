import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwalg.opalg import (
    BETA, E, F, O, VELOCITY, SymbolRegistry, commutator, sym, word,
)
from fwalg import numlab, reference as ref
from fwalg.numlab import (
    ALPHAS, BETA4, PROBE_MAX_LATTICE_ORDER, PROBE_MAX_ORDER, InvalidBeta, MatrixModel,
    NumericError, SingularSign, UnboundSymbol, _components, _order_norm, block_diag_residual,
    convergence_probe,
    eriksen_condition_residual, eriksen_unitary, evaluate_symbolic,
    free_model, free_series_term, lattice_model, positive_block_spectrum,
    regularized_well, sign_operator, unitarity_defect,
)


def small_well():
    return lattice_model(n_sites=64, potential=regularized_well(0.35, 0.7))


# -- models ------------------------------------------------------------------------

def test_free_model_structure():
    m = free_model(0.5)
    assert m.hamiltonian.shape == (4, 4)
    assert np.allclose(m.hamiltonian, m.hamiltonian.conj().T)
    assert np.allclose(m.beta @ m.beta, np.eye(4))


def test_free_model_vector_momentum():
    m = free_model([0.3, 0.4, 0.0])
    evals = np.linalg.eigvalsh(m.hamiltonian)
    eps = np.sqrt(1 + 0.25)
    assert np.allclose(np.sort(evals), [-eps, -eps, eps, eps])


@pytest.mark.parametrize("p", [[], [0.1, 0.2, 0.3, 0.4], [[0.1]]],
                         ids=["empty", "four", "nested"])
def test_free_model_rejects_bad_momentum(p):
    # a fourth component used to be dropped from H but kept in p_over_mc
    with pytest.raises(NumericError, match="one to three components") as info:
        free_model(p)
    assert "\n" not in str(info.value)


def test_free_model_partial_momentum():
    assert free_model([0.3, 0.4]).params["p_over_mc"] == 0.5
    assert np.array_equal(free_model([0.3, 0.4]).hamiltonian,
                          free_model([0.3, 0.4, 0.0]).hamiltonian)
    assert np.array_equal(free_model(0.5).hamiltonian, free_model([0.5]).hamiltonian)


@pytest.mark.parametrize("potential", [[0.1] * 3, [0.1] * 9, 0.1, [[0.1] * 8]],
                         ids=["short", "long", "scalar", "nested"])
def test_lattice_model_rejects_potential_of_wrong_length(potential):
    with pytest.raises(NumericError, match="n_sites = 8") as info:
        lattice_model(8, potential=potential)
    assert "\n" not in str(info.value)


def test_lattice_model_structure():
    m = small_well()
    n = 4 * 64
    assert m.hamiltonian.shape == (n, n)
    assert np.allclose(m.hamiltonian, m.hamiltonian.conj().T)
    assert np.allclose(m.beta @ m.beta, np.eye(n))
    assert np.min(np.abs(np.linalg.eigvalsh(m.hamiltonian))) > 0.1


@pytest.mark.parametrize("n_sites", [64, 63])
def test_lattice_model_matches_loop_reference(n_sites):
    spacing, hbar, mass, c = 0.1, 1.0, 1.0, 1.0
    well = regularized_well(0.35, 0.7)
    x = (np.arange(n_sites) - n_sites / 2) * spacing
    p_mat = np.zeros((n_sites, n_sites), dtype=complex)
    for j in range(n_sites):
        p_mat[j, (j + 1) % n_sites] = -1j * hbar / (2 * spacing)
        p_mat[j, (j - 1) % n_sites] = 1j * hbar / (2 * spacing)
    v = np.array([float(well(xi)) for xi in x])
    eye_n = np.eye(n_sites)
    h_ref = (c * np.kron(p_mat, ALPHAS[0])
             + mass * c ** 2 * np.kron(eye_n, BETA4)
             + np.kron(np.diag(v), np.eye(4)))
    m = lattice_model(n_sites=n_sites, potential=well)
    assert np.array_equal(m.hamiltonian, h_ref)
    assert np.array_equal(m.beta, np.kron(eye_n, BETA4))


@pytest.mark.parametrize("n_sites", [3, 4, 63])
def test_lattice_model_matches_dense_kron_construction(n_sites):
    # Oracle: the dense construction, c kron(p, alpha1) with p built from a
    # rolled identity, plus the rest and potential diagonal.
    spacing, hbar, mass, c = 0.3, 0.7, 1.3, 1.1
    well = regularized_well(0.35, 0.7)
    x = (np.arange(n_sites) - n_sites / 2) * spacing
    hop = np.roll(np.eye(n_sites), 1, axis=1)
    p_mat = (-1j * hbar / (2 * spacing)) * hop + (1j * hbar / (2 * spacing)) * hop.T
    h_ref = c * np.kron(p_mat, ALPHAS[0])
    h_ref[np.diag_indices(4 * n_sites)] += (mass * c ** 2 * np.tile(np.diag(BETA4), n_sites)
                                           + np.repeat([float(well(xi)) for xi in x], 4))
    m = lattice_model(n_sites=n_sites, spacing=spacing, potential=well,
                      mass=mass, c=c, hbar=hbar)
    assert np.array_equal(m.hamiltonian, h_ref)


@pytest.mark.parametrize("n_sites", [0, 1, 2])
def test_lattice_model_rejects_fewer_than_three_sites(n_sites):
    with pytest.raises(NumericError) as info:
        lattice_model(n_sites=n_sites)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("beta", [
    np.array([[1.0, 0.1], [0.1, -1.0]]),
    np.diag([1.0, 2.0]),
    np.diag([1.0, 1j]),
    np.ones(2),
], ids=["off-diagonal", "entry-2", "entry-i", "vector"])
def test_matrix_model_rejects_bad_beta(beta):
    with pytest.raises(InvalidBeta) as info:
        MatrixModel(kind="bad", hamiltonian=np.eye(2, dtype=complex), beta=beta)
    assert isinstance(info.value, NumericError)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("model", [free_model([0.3, 0.4, 0.2]), small_well()],
                         ids=["free3d", "lattice64"])
def test_parity_parts_match_dense_beta_products(model):
    h, beta = model.hamiltonian, model.beta
    assert np.array_equal(model.odd_part, 0.5 * (h - beta @ h @ beta))
    assert np.array_equal(model.even_potential,
                          0.5 * (h + beta @ h @ beta) - model.rest_energy * beta)


# -- exact one-step transformation ----------------------------------------------------

def test_unitary_at_rest_is_identity():
    m = free_model(0.0)
    assert np.allclose(eriksen_unitary(m), np.eye(4), atol=1e-14)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_free_unitary_blocks_and_spectrum(p):
    m = free_model(p)
    u = eriksen_unitary(m)
    assert unitarity_defect(u) <= 1e-12
    assert block_diag_residual(m, u) <= 1e-10
    assert eriksen_condition_residual(m, u) <= 1e-10
    eps = np.sqrt(1 + p * p)
    assert np.max(np.abs(positive_block_spectrum(m, u) - eps)) <= 1e-12


def test_identity_leaves_residual():
    m = free_model(0.5)
    assert block_diag_residual(m, np.eye(4)) > 0.1


def test_lattice_unitary_residuals():
    m = small_well()
    u = eriksen_unitary(m)
    assert unitarity_defect(u) <= 1e-11
    assert block_diag_residual(m, u) <= 1e-10
    assert eriksen_condition_residual(m, u) <= 1e-10
    spec = np.sort(np.linalg.eigvalsh(m.hamiltonian))
    spec_t = np.sort(np.linalg.eigvalsh(u @ m.hamiltonian @ u.conj().T))
    assert np.max(np.abs(spec - spec_t)) <= 1e-10


def test_sign_operator_squares_to_identity():
    m = small_well()
    lam = sign_operator(m)
    assert np.allclose(lam @ lam, np.eye(4 * 64), atol=1e-11)


def _dense_reference(model):
    """sign(H) and the Eriksen U from one full eigh each and a dense beta."""
    beta = model.beta
    n = beta.shape[0]
    evals, vecs = np.linalg.eigh(model.hamiltonian)
    lam = (vecs * np.sign(evals)) @ vecs.conj().T
    core_evals, core_vecs = np.linalg.eigh(2.0 * np.eye(n) + beta @ lam + lam @ beta)
    inv_sqrt = (core_vecs / np.sqrt(core_evals)) @ core_vecs.conj().T
    return lam, (np.eye(n) + beta @ lam) @ inv_sqrt


# The pattern of H decouples into blocks of these sizes: central differences
# make alpha_1 pair spinor components 1-4 and 2-3 on neighbouring sites, so an
# even chain splits into four staggered sublattices and an odd one into two.
BLOCK_MODELS = {
    "lattice64": (small_well, [64] * 4),
    "lattice63": (lambda: lattice_model(n_sites=63,
                                        potential=regularized_well(0.35, 0.7)),
                  [126] * 2),
    "free1d": (lambda: free_model(0.5), [2, 2]),
    "free3d": (lambda: free_model([0.3, 0.4, 0.2]), [4]),
}


@pytest.mark.parametrize("name", BLOCK_MODELS)
def test_blockwise_functions_match_dense_reference(name):
    build, sizes = BLOCK_MODELS[name]
    m = build()
    lam_ref, u_ref = _dense_reference(m)
    assert np.max(np.abs(sign_operator(m) - lam_ref)) <= 1e-12
    assert np.max(np.abs(eriksen_unitary(m) - u_ref)) <= 1e-12
    assert sorted(len(idx) for idx in _components(m.hamiltonian)) == sizes


@pytest.mark.parametrize("name", BLOCK_MODELS)
def test_components_partition_and_decouple(name):
    m = BLOCK_MODELS[name][0]()
    lam = sign_operator(m)
    beta = m.beta
    core = 2.0 * np.eye(beta.shape[0]) + beta @ lam + lam @ beta
    for mat in (m.hamiltonian, core):
        comps = _components(mat)
        n = mat.shape[0]
        assert np.array_equal(np.sort(np.concatenate(comps)), np.arange(n))
        label = np.empty(n, dtype=int)
        for k, idx in enumerate(comps):
            label[idx] = k
        assert not np.any(mat[label[:, None] != label[None, :]])
    # the core never couples the two beta sectors, so each block of H splits
    signs = m.beta_signs
    for idx in _components(core):
        assert np.all(signs[idx] == signs[idx[0]])


def _components_min_at(mat):
    """The components by min-label propagation scattered with np.minimum.at.

    Each round lowers both ends of every nonzero to the least of their two
    labels, one unbuffered scatter per end, then jumps each label to its
    label's label.
    """
    rows, cols = np.nonzero(mat)
    label = np.arange(mat.shape[0])
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _assert_same_components(mat):
    got, want = _components(mat), _components_min_at(mat)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@st.composite
def _patterns(draw):
    n = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 1.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    gen = np.random.default_rng(seed)
    mat = np.where(gen.random((n, n)) < density, gen.normal(size=(n, n)), 0.0)
    if draw(st.booleans()):
        mat = mat + mat.T  # symmetric; otherwise each triangle is drawn alone
    perm = gen.permutation(n) if draw(st.booleans()) else np.arange(n)
    return mat[np.ix_(perm, perm)]


@given(_patterns())
@settings(max_examples=300, deadline=None)
def test_components_match_min_at_oracle(mat):
    _assert_same_components(mat)


@pytest.mark.parametrize("mat", [
    np.eye(200, dtype=complex),
    np.eye(200, k=1) + np.eye(200),
    np.eye(200, k=-1),
    np.eye(200) + np.roll(np.eye(200), 1, axis=1),
    np.ones((120, 120)),
    np.kron(np.eye(5), np.ones((24, 24))),
    np.kron(np.ones((24, 24)), np.eye(5)),
    np.zeros((7, 7)),
    np.ones((1, 1)),
    np.zeros((1, 1)),
], ids=["diagonal", "path", "subdiagonal", "ring", "dense", "dense-blocks",
        "interleaved-blocks", "zero", "one", "one-zero"])
def test_components_match_min_at_oracle_on_shapes(mat):
    _assert_same_components(mat)


@pytest.mark.parametrize("name", BLOCK_MODELS)
def test_components_match_min_at_oracle_on_models(name):
    m = BLOCK_MODELS[name][0]()
    _assert_same_components(m.hamiltonian)
    _assert_same_components(eriksen_unitary(m))


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(mat):
        calls.append(mat.shape[0])
        return eigh(mat)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_equal_blocks_share_one_eigh(eigh_calls):
    # alpha_1 alone makes spinor pairs 1-4 and 2-3 two equal copies of one
    # chain, so H's four blocks of 64 are two distinct ones, each with a
    # core of two blocks of 32
    m = small_well()
    want = _dense_reference(m)[1]
    eigh_calls.clear()
    u = eriksen_unitary(m)
    assert sorted(eigh_calls) == [32] * 4 + [64] * 2
    assert np.max(np.abs(u - want)) <= 1e-12


def test_only_equal_blocks_share(eigh_calls):
    m = small_well()
    m.hamiltonian[0, 0] += 1e-3
    want = _dense_reference(m)[1]
    eigh_calls.clear()
    u = eriksen_unitary(m)
    assert sorted(eigh_calls) == [32] * 6 + [64] * 3
    assert np.max(np.abs(u - want)) <= 1e-12


def test_equal_blocks_with_different_beta_signs_do_not_share():
    # two equal blocks of H whose beta signs are swapped: their U blocks differ
    m = MatrixModel(kind="pair", hamiltonian=np.kron(np.eye(2), [[0.3, 1.0], [1.0, -0.2]]),
                    beta=np.diag([1.0, -1.0, -1.0, 1.0]))
    u = eriksen_unitary(m)
    assert np.max(np.abs(u - _dense_reference(m)[1])) <= 1e-12
    assert not np.allclose(u[:2, :2], u[2:, 2:])


def test_singular_sign_raised_in_shared_block(eigh_calls):
    # shift both copies of one block so that they stay equal and have a zero
    # eigenvalue: the check sees it before any core is built
    m = small_well()
    h = m.hamiltonian
    comps = _components(h)
    blk = h[np.ix_(comps[0], comps[0])]
    twins = [idx for idx in comps if np.array_equal(h[np.ix_(idx, idx)], blk)]
    assert len(twins) == 2
    evals = np.linalg.eigvalsh(blk)
    shift = evals[np.argmin(np.abs(evals))]
    for idx in twins:
        h[idx, idx] -= shift
    with pytest.raises(SingularSign):
        eriksen_unitary(m)
    assert eigh_calls == [64, 64]
    with pytest.raises(SingularSign):
        sign_operator(m)


def _dense_checks(model, u):
    """The checks on u from full-matrix products and one full eigvalsh."""
    beta = model.beta
    t = u @ model.hamiltonian @ u.conj().T
    upper = np.flatnonzero(model.beta_signs > 0)
    return (np.linalg.norm(0.5 * (t - beta @ t @ beta)),
            np.linalg.norm(beta @ u - u.conj().T @ beta),
            np.sort(np.linalg.eigvalsh(t[np.ix_(upper, upper)])))


def _random_unitary(gen, n):
    q, _ = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))
    return q


@pytest.mark.parametrize("name", BLOCK_MODELS)
def test_checks_on_u_match_dense_formulas(name):
    m = BLOCK_MODELS[name][0]()
    comps = _components(m.hamiltonian)
    n = m.hamiltonian.shape[0]
    label = np.empty(n, dtype=int)
    for k, idx in enumerate(comps):
        label[idx] = k
    u_exact = eriksen_unitary(m)
    assert not np.any(u_exact[label[:, None] != label[None, :]])
    # a unitary with H's blocks that leaves large residuals, the same with
    # one entry below the diagonal that joins the first and last block, and
    # a dense unitary that joins every block into one
    gen = np.random.default_rng(3)
    u_blocks = np.zeros_like(u_exact)
    for idx in comps:
        u_blocks[np.ix_(idx, idx)] = _random_unitary(gen, idx.size)
    u_joined = u_blocks.copy()
    u_joined[comps[-1][0], comps[0][0]] = 1.0
    for u in (u_exact, u_blocks, u_joined, _random_unitary(gen, n)):
        residual, condition, spectrum = _dense_checks(m, u)
        assert abs(block_diag_residual(m, u) - residual) <= 1e-12
        assert abs(eriksen_condition_residual(m, u) - condition) <= 1e-12
        assert np.max(np.abs(positive_block_spectrum(m, u) - spectrum)) <= 1e-12


def test_singular_sign_raised():
    m = free_model(0.0)
    m.hamiltonian = m.hamiltonian * 0.0
    with pytest.raises(SingularSign):
        sign_operator(m)


# -- symbolic-to-matrix bridge ----------------------------------------------------------

def test_evaluate_symbolic_beta():
    m = small_well()
    assert np.allclose(evaluate_symbolic(sym(BETA), m), m.beta)


def test_evaluate_symbolic_unbound():
    reg = SymbolRegistry()
    q = reg.register("Q", "odd", 1)
    with pytest.raises(UnboundSymbol):
        evaluate_symbolic(sym(q), free_model(0.5))


def test_evaluate_symbolic_commutator_identity():
    m = small_well()
    lhs = evaluate_symbolic(commutator(sym(O), sym(E)), m)
    rhs = m.odd_part @ m.even_potential - m.even_potential @ m.odd_part
    assert np.allclose(lhs, rhs)


def test_evaluate_symbolic_homomorphism(rng):
    from conftest import rand_expr
    m = free_model(0.4)
    for _ in range(50):
        a = rand_expr(rng, max_terms=2, max_len=3)
        b = rand_expr(rng, max_terms=2, max_len=3)
        prod = evaluate_symbolic(a * b, m)
        sep = evaluate_symbolic(a, m) @ evaluate_symbolic(b, m)
        assert np.allclose(prod, sep, atol=1e-12)


def _term_by_term(expr, model):
    """Each term's matrix from the identity, one product per generator."""
    n = model.beta.shape[0]
    lookup = {"beta": model.beta, "O": model.odd_part, "E": model.even_potential,
              "F": model.even_potential}
    total = np.zeros((n, n), dtype=complex)
    for t in expr.terms:
        mat = np.eye(n, dtype=complex)
        for s in t.word:
            mat = mat @ lookup[s.name]
        scale = model.rest_energy ** (-t.mass_power) * model.hbar ** t.hbar_power
        total += complex(t.coeff.re) * scale * mat + 1j * complex(t.coeff.im) * scale * mat
    return total


def test_evaluate_symbolic_shared_prefixes_match_term_by_term():
    # the order slices of the closed form share long prefixes (beta O ..., O O ...)
    closed_form = ref.build(ref.ERIKSEN_24).subs_symbol(F, E)
    # the third model's even potential is dense, so E is no diagonal scaling there
    rng = np.random.default_rng(5)
    h = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    dense_even = MatrixModel(kind="dense", hamiltonian=h + h.conj().T,
                             beta=np.diag(np.tile([1.0, -1.0], 64)))
    for model in (fine_lattice(), lattice_model(n_sites=32, spacing=2.0,
                                                potential=regularized_well(0.2, 4.0)),
                  dense_even):
        assert model.beta.shape == (128, 128)
        for k in (0, 2, 4, 6, 8):
            part = closed_form.order_slice(VELOCITY, k)
            got, want = evaluate_symbolic(part, model), _term_by_term(part, model)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_closed_form_truncation_error_scales_as_p8():
    # spectral error of the order-6 closed form against beta*eps drops as p^8
    h35 = ref.h_orig_35().subs_symbol(F, E)
    errors = []
    for p in (0.1, 0.2):
        m = free_model(p)
        mat = evaluate_symbolic(h35, m)
        exact = np.sqrt(1 + p * p) * m.beta
        errors.append(np.linalg.norm(mat - exact, 2) / p ** 8)
    assert abs(errors[0] - errors[1]) / errors[0] < 0.1


def test_rest_energy_units_respected():
    m = free_model(0.5, mass=2.0, c=3.0)
    mat = evaluate_symbolic(word(1, [], mass_power=-1), m)
    assert np.allclose(mat, 18.0 * np.eye(4))


# -- convergence probe --------------------------------------------------------------------

def test_free_series_term_values():
    m = free_model(0.5)
    for n, expected in ((1, 0.5 * 0.25), (2, 0.125 * 0.25 ** 2)):
        mat = evaluate_symbolic(free_series_term(n), m)
        assert np.isclose(np.linalg.norm(mat, 2), expected)


def test_probe_converging_below_threshold():
    rep = convergence_probe(free_model(0.5))
    assert rep.classification == "converging"
    assert not rep.boundary
    assert all(a > b for a, b in zip(rep.norms, rep.norms[1:]))


def test_probe_diverging_above_threshold():
    rep = convergence_probe(free_model(1.5))
    assert rep.classification == "diverging"
    tail = rep.norms[-3:]
    assert tail[0] <= tail[1] <= tail[2]


def test_probe_boundary_flag():
    rep = convergence_probe(free_model(1.0))
    assert rep.boundary
    assert rep.classification == "converging"


def test_probe_requires_three_orders():
    with pytest.raises(ValueError):
        convergence_probe(free_model(0.5), orders=(2, 4))


def test_probe_lattice_regimes():
    # fine lattice: momentum cutoff far above mc, the expansion blows up
    fine = lattice_model(n_sites=32, spacing=0.1,
                         potential=regularized_well(0.35, 0.7))
    rep = convergence_probe(fine)
    assert rep.classification == "diverging"
    # coarse lattice: cutoff below mc, the families shrink with order
    coarse = lattice_model(n_sites=32, spacing=2.0,
                           potential=regularized_well(0.2, 4.0))
    rep2 = convergence_probe(coarse)
    assert rep2.classification == "converging"


def fine_lattice():
    return lattice_model(n_sites=32, spacing=0.1, potential=regularized_well(0.35, 0.7))


def test_probe_lattice_matches_closed_form_slices():
    # up to order 8 the series' slices are those of the transcribed closed form
    model = fine_lattice()
    closed_form = ref.build(ref.ERIKSEN_24).subs_symbol(F, E)
    rep = convergence_probe(model, orders=(2, 4, 6, 8))
    parts = {k: closed_form.order_slice(VELOCITY, k) for k in (2, 4, 6, 8)}
    assert rep.norms == [_order_norm(part, model, k) for k, part in parts.items()]
    # the blockwise norm against one dense SVD per order
    dense = [np.linalg.norm(evaluate_symbolic(part, model), 2) for part in parts.values()]
    assert np.allclose(rep.norms, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["lattice64", "lattice63", "free1d", "free3d"])
def test_order_norm_matches_dense_norm(name):
    # the slices of the closed form, and products that are not Hermitian
    model = BLOCK_MODELS[name][0]()
    closed_form = ref.build(ref.ERIKSEN_24).subs_symbol(F, E)
    parts = [closed_form.order_slice(VELOCITY, k) for k in (0, 2, 4, 6, 8)]
    parts += [sym(O) * sym(E), sym(BETA) * sym(O) * sym(O) * sym(E) + sym(E), free_series_term(3)]
    for part in parts:
        mat = evaluate_symbolic(part, model)
        dense = np.linalg.norm(mat, 2)
        assert abs(_order_norm(part, model, 0) - dense) <= 1e-12 * dense
    assert len(_components(evaluate_symbolic(parts[4], model))) > 1


def test_probe_lattice_past_the_closed_form():
    rep = convergence_probe(fine_lattice(), orders=(2, 4, 6, 8, 10, 12))
    assert rep.classification == "diverging"
    assert rep.norms[-2] > rep.norms[-3] > 0.0
    assert rep.norms[-1] > rep.norms[-2]


@pytest.mark.parametrize("orders", [(2, 3, 4), (-2, 0, 2), (2, 4, 7)])
@pytest.mark.parametrize("model", [fine_lattice(), free_model(0.5)],
                         ids=["lattice", "free"])
def test_probe_rejects_odd_and_negative_orders(model, orders):
    with pytest.raises(ValueError, match="nonnegative even"):
        convergence_probe(model, orders=orders)


def test_probe_rejects_orders_over_the_limit():
    model = free_model(0.5)
    assert len(convergence_probe(model, orders=(2, 4, PROBE_MAX_ORDER)).norms) == 3
    with pytest.raises(ValueError, match=f"at most {PROBE_MAX_ORDER}, got {PROBE_MAX_ORDER + 2}"):
        convergence_probe(model, orders=(2, 4, PROBE_MAX_ORDER + 2))


def test_probe_rejects_lattice_orders_over_the_lattice_limit(monkeypatch):
    # a lattice forms the Eriksen series at the largest order, so its limit
    # is far below the free model's; the check comes before any series work
    monkeypatch.setattr(numlab, "eriksen_series", None)
    with pytest.raises(ValueError, match=f"at most {PROBE_MAX_LATTICE_ORDER}, got "
                                         f"{PROBE_MAX_LATTICE_ORDER + 2}"):
        convergence_probe(fine_lattice(), orders=(2, 4, PROBE_MAX_LATTICE_ORDER + 2))


def test_probe_report_lines():
    rep = convergence_probe(free_model(1.0))
    lines = rep.lines()
    assert lines[0].startswith("regime")
    assert lines[-1] == "classification converging (boundary)"


def test_corrected_unitary_converges_to_exact_one():
    # the step product alone block-diagonalizes but saturates at a fixed
    # distance from the exact one-step unitary (its even-rotation offset);
    # the corrected product keeps converging to it as the order grows
    from fwalg.gaussrat import I as i_unit
    from fwalg.opalg import E as E_SYM, F as F_SYM, exp_series, one, scale, word
    from fwalg.fwtransform import corrected_pipeline

    model = lattice_model(n_sites=32, spacing=2.0,
                          potential=regularized_well(0.3, 1.2))
    u_exact = eriksen_unitary(model)
    h = word(1, [BETA], mass_power=-1) + sym(E_SYM) + sym(O)
    errs_plain, errs_corr = [], []
    for order in (4, 6, 8):
        rec = corrected_pipeline(h, VELOCITY, order)
        u_sym = one()
        for s in rec.steps:
            u_sym = (exp_series(scale(i_unit, s), VELOCITY, order)
                     * u_sym).truncate(VELOCITY, order)
        corr_sym = (exp_series(rec.correction_exponent, VELOCITY, order)
                    * u_sym).truncate(VELOCITY, order)
        u_plain = evaluate_symbolic(u_sym.subs_symbol(F_SYM, E_SYM), model)
        u_corr = evaluate_symbolic(corr_sym.subs_symbol(F_SYM, E_SYM), model)
        errs_plain.append(np.linalg.norm(u_plain - u_exact))
        errs_corr.append(np.linalg.norm(u_corr - u_exact))
    assert errs_corr[0] > errs_corr[1] > errs_corr[2]
    assert errs_corr[2] < 0.5 * errs_plain[2]


def test_truncated_symbolic_unitary_residual_decreases_with_order():
    # evaluating the truncated step product numerically: the off-block
    # residual is small but nonzero and shrinks as the order grows
    from fwalg.gaussrat import I as i_unit
    from fwalg.opalg import exp_series, one, scale
    from fwalg.fwtransform import fw_pipeline

    m = free_model(0.3)
    residuals = []
    for order in (2, 4, 6):
        rec = fw_pipeline(ref.mass_term() + sym(O), VELOCITY, order)
        u_sym = one()
        for s in rec.steps:
            u_sym = (exp_series(scale(i_unit, s), VELOCITY, order)
                     * u_sym).truncate(VELOCITY, order)
        u = evaluate_symbolic(u_sym, m)
        residuals.append(block_diag_residual(m, u))
    assert all(r > 1e-14 for r in residuals)
    assert residuals[0] > residuals[1] > residuals[2]
