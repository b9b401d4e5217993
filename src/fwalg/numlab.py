"""Numerical validation on finite matrix models.

Two model families: the 4x4 free-momentum Dirac Hamiltonian and a 1D lattice
Dirac operator (central differences, periodic boundary) with a static
potential well. The one-step block-diagonalizing unitary is computed exactly
through the eigendecomposition: lambda = H (H^2)^(-1/2) and
U = (1 + beta lambda)(2 + beta lambda + lambda beta)^(-1/2), all via the
same spectral calculus. Each matrix function is evaluated blockwise over the
connected components of the matrix's exact nonzero pattern: a Hermitian
matrix that is block-diagonal up to a permutation has the direct sum of its
blocks' eigendecompositions as its own, so the blockwise result is f(H)
itself. Blocks that are equal entry for entry are decomposed once, and the
result is written into each of their index sets; on the lattice, alpha_1
makes spinor pairs 1-4 and 2-3 two equal copies of one chain. A spectral
norm is the largest over the distinct blocks in the same way. The checks on
a unitary u form U H U^dag and its residuals blockwise too, over the
components of the joint pattern of H and u. Symbolic
expressions are evaluated into matrices by direct substitution, which makes
the symbolic layer checkable against exact linear algebra.

Tolerances here are engineering choices for double precision at dimensions
up to a few thousand, not claims from any analytic source.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .fwtransform import eriksen_series
from .gaussrat import binom_coeff
from .opalg import BETA, E, F, O, VELOCITY, OperatorExpr, sym, word


class NumericError(Exception):
    pass


class SingularSign(NumericError):
    """The Hamiltonian has a (near-)zero eigenvalue; the sign operator is undefined."""


class UnboundSymbol(NumericError):
    """A symbolic generator has no matrix realization in the model."""


class InvalidBeta(NumericError):
    """The model's beta is not a diagonal matrix of +1 and -1 entries."""


def _lazy_numpy():
    """numpy as loaded, or a module that loads it on first attribute access.

    The exact engine never builds a matrix, so importing numlab (which the
    package does) loads no numpy; ``fw transform`` starts without it.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


@functools.cache
def _dirac_matrices():
    """(alpha_1, alpha_2, alpha_3), beta: the 4x4 Dirac matrices, built on first use."""
    alpha1 = np.array([[0, 0, 0, 1],
                       [0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [1, 0, 0, 0]], dtype=complex)
    alpha2 = np.array([[0, 0, 0, -1j],
                       [0, 0, 1j, 0],
                       [0, -1j, 0, 0],
                       [1j, 0, 0, 0]], dtype=complex)
    alpha3 = np.array([[0, 0, 1, 0],
                       [0, 0, 0, -1],
                       [1, 0, 0, 0],
                       [0, -1, 0, 0]], dtype=complex)
    beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return (alpha1, alpha2, alpha3), beta


def __getattr__(name):
    # ALPHAS and BETA4 are numpy arrays, so they too are made on first use.
    if name == "ALPHAS":
        return _dirac_matrices()[0]
    if name == "BETA4":
        return _dirac_matrices()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class MatrixModel:
    """Concrete Hermitian realization of a Dirac-type Hamiltonian."""

    kind: str
    hamiltonian: np.ndarray
    beta: np.ndarray
    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        beta = np.asarray(self.beta)
        if (beta.ndim != 2 or beta.shape[0] != beta.shape[1]
                or np.count_nonzero(beta) != np.count_nonzero(np.diagonal(beta))
                or not np.isin(np.diag(beta), (1, -1)).all()):
            raise InvalidBeta("beta must be a square diagonal matrix with "
                              "entries +1 and -1")

    @property
    def rest_energy(self) -> float:
        return self.mass * self.c ** 2

    @property
    def beta_signs(self) -> np.ndarray:
        """The diagonal of beta as a real +-1 vector."""
        return np.diag(self.beta).real

    @property
    def even_potential(self) -> np.ndarray:
        """H_even minus the rest term; what the symbol E maps to."""
        h = self.hamiltonian
        h_even = 0.5 * (h + _sandwich(self.beta_signs, h))
        return h_even - self.rest_energy * self.beta

    @property
    def odd_part(self) -> np.ndarray:
        """Block-off-diagonal part of H; what the symbol O maps to."""
        h = self.hamiltonian
        return 0.5 * (h - _sandwich(self.beta_signs, h))


def _sandwich(signs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """beta @ mat @ beta for beta = diag(signs), elementwise."""
    return signs[:, None] * mat * signs


def free_model(p_over_mc, mass: float = 1.0, c: float = 1.0) -> MatrixModel:
    """4x4 free-particle model; momentum given in units of mc.

    A scalar is the momentum along x; a sequence holds one to three
    Cartesian components, the missing ones zero.
    """
    p = np.atleast_1d(np.asarray(p_over_mc, dtype=float))
    if p.ndim != 1 or not 1 <= p.size <= 3:
        raise NumericError(f"momentum needs one to three components, got shape {p.shape}")
    alphas, beta = _dirac_matrices()
    h = mass * c ** 2 * beta
    for comp, alpha in zip(p, alphas):
        h = h + c * (comp * mass * c) * alpha
    return MatrixModel(kind="free_momentum", hamiltonian=h, beta=beta.copy(),
                       mass=mass, c=c,
                       params={"p_over_mc": math.hypot(*p)})


def lattice_model(n_sites: int = 256, spacing: float = 0.1,
                  potential=None, mass: float = 1.0, c: float = 1.0,
                  hbar: float = 1.0) -> MatrixModel:
    """1D Dirac operator on a periodic chain, 4 spinor components per site.

    Central differences leave the usual doubler branch in the spectrum; it
    is irrelevant for the unitary-transformation checks performed here.
    They need at least 3 sites: on fewer, a site's two neighbours coincide.
    """
    n = n_sites
    if n < 3:
        raise NumericError(f"lattice needs at least 3 sites for central "
                           f"differences, got {n}")
    x = (np.arange(n) - n / 2) * spacing
    if potential is None:
        v = np.zeros(n)
    elif callable(potential):
        v = np.array([float(potential(xi)) for xi in x])
    else:
        v = np.asarray(potential, dtype=float)
        if v.shape != (n,):
            raise NumericError(f"potential needs one value per site (n_sites = {n}), "
                               f"got shape {v.shape}")
    (alpha1, _, _), beta = _dirac_matrices()
    signs = np.tile(np.diag(beta), n)
    # c p alpha1 couples site j to j + 1 and j - 1 only: with p[j, j + 1] =
    # -i hbar / 2a and p[j + 1, j] = +i hbar / 2a, fill those 4x4 blocks.
    h = np.zeros((4 * n, 4 * n), dtype=complex)
    blocks = h.reshape(n, 4, n, 4)  # blocks[j, :, k, :] is the block of sites j, k
    j = np.arange(n)
    blocks[j, :, (j + 1) % n, :] = c * ((-1j * hbar / (2 * spacing)) * alpha1)
    blocks[(j + 1) % n, :, j, :] = c * ((1j * hbar / (2 * spacing)) * alpha1)
    h[np.diag_indices(4 * n)] += mass * c ** 2 * signs + np.repeat(v, 4)
    return MatrixModel(kind="lattice1d", hamiltonian=h, beta=np.diag(signs),
                       mass=mass, c=c, hbar=hbar,
                       params={"n_sites": n, "spacing": spacing,
                               "x": x, "potential": v})


def regularized_well(depth: float, width: float):
    """Smooth attractive well -depth / sqrt(1 + (x/width)^2)."""
    def v(x):
        return -depth / np.sqrt(1.0 + (x / width) ** 2)
    return v


# -- exact one-step transformation ------------------------------------------------

def _components(mat: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of mat's exact nonzero pattern.

    The pattern is read as an undirected graph, so no entry of mat, in
    either triangle, couples two components. Min-label propagation with
    pointer jumping: each round, every index takes the least label among
    itself and its neighbours (one ``minimum.reduceat`` over the row-sorted
    nonzeros of the symmetrized pattern), then the label of its label.
    Every label is an index of the same component and never grows, and at
    the fixed point both ends of every nonzero share one label.
    """
    n = mat.shape[0]
    pattern = mat != 0
    pattern |= pattern.T
    counts = np.count_nonzero(pattern, axis=1)
    present = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[present]
    cols = np.flatnonzero(pattern) % n
    label = np.arange(n)
    while True:
        new = label.copy()
        new[present] = np.minimum(label[present], np.minimum.reduceat(label[cols], starts))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _distinct_blocks(mat: np.ndarray, tags=None) -> list:
    """(blk, idxs): each distinct block of mat's pattern, with its index sets.

    Components whose submatrices are equal entry for entry, bytes and shape
    (so -0.0 and 0.0 differ), share one entry, listed where the first of
    them occurs. ``tags``, a vector over mat's indices, must be equal on the
    index sets of one entry too.
    """
    groups = {}
    for idx in _components(mat):
        blk = mat[np.ix_(idx, idx)]
        key = (blk.shape, blk.tobytes(), None if tags is None else tags[idx].tobytes())
        groups.setdefault(key, (blk, []))[1].append(idx)
    return list(groups.values())


def _eigh_blocks(mat: np.ndarray, check, tags=None) -> list:
    """(idxs, evals, vecs): one eigh per distinct block of mat's pattern.

    ``check`` sees every eigenvalue of mat at once, and raises if the
    spectrum is outside the domain of the function about to be applied.
    """
    blocks = [(idxs, *np.linalg.eigh(blk)) for blk, idxs in _distinct_blocks(mat, tags)]
    check(np.concatenate([evals for idxs, evals, _ in blocks for _ in idxs]))
    return blocks


def _hermitian_function(mat: np.ndarray, fn, check) -> np.ndarray:
    """fn(mat) for Hermitian mat, with one eigh per distinct block of its pattern."""
    out = np.zeros_like(mat)
    for idxs, evals, vecs in _eigh_blocks(mat, check):
        blk = (vecs * fn(evals)) @ vecs.conj().T
        for idx in idxs:
            out[np.ix_(idx, idx)] = blk
    return out


#: The smallest |eigenvalue| of H, over its spectral range, and of U's core.
SIGN_THRESHOLD = 1e-8


def _sign_check(evals):
    scale = np.max(np.abs(evals))
    if scale == 0.0 or np.min(np.abs(evals)) < SIGN_THRESHOLD * scale:
        raise SingularSign(f"smallest |eigenvalue| below {SIGN_THRESHOLD} of spectral range")


def sign_operator(model: MatrixModel) -> np.ndarray:
    """lambda = H (H^2)^(-1/2) via eigendecomposition."""
    return _hermitian_function(model.hamiltonian, np.sign, _sign_check)


def eriksen_unitary(model: MatrixModel) -> np.ndarray:
    """U = (1 + beta lambda)(2 + beta lambda + lambda beta)^(-1/2).

    lambda is a function of H, so it and U vanish between the components of
    H's pattern, and U is built one distinct block of H at a time: blocks of
    H that are equal, with equal beta signs, have equal cores and equal U
    blocks. The sign check still sees H's whole spectrum. beta is applied
    elementwise, so the entries of each core block that couple the two beta
    sectors cancel exactly and the core splits along them too.
    """
    def check(evals):
        if np.min(evals) < SIGN_THRESHOLD:
            raise SingularSign("2 + beta lambda + lambda beta is numerically singular")
    signs = model.beta_signs
    u = np.zeros_like(model.hamiltonian)
    for idxs, evals, vecs in _eigh_blocks(model.hamiltonian, _sign_check, signs):
        s = signs[idxs[0]]
        lam = (vecs * np.sign(evals)) @ vecs.conj().T
        beta_lam = s[:, None] * lam
        eye = np.eye(s.size)
        core = 2.0 * eye + beta_lam + lam * s
        inv_sqrt = _hermitian_function(core, lambda ev: 1.0 / np.sqrt(ev), check)
        blk = (eye + beta_lam) @ inv_sqrt
        for idx in idxs:
            u[np.ix_(idx, idx)] = blk
    return u


def _transformed_blocks(model: MatrixModel, u: np.ndarray):
    """(idx, U H U^dag restricted to idx) over the joint pattern of H and u.

    H and u vanish between these components, so U H U^dag does too and is
    the direct sum of the yielded blocks. A dense u gives one block.
    """
    h = model.hamiltonian
    for idx in _components((h != 0) | (u != 0)):
        ix = np.ix_(idx, idx)
        u_blk = u[ix]
        yield idx, u_blk @ h[ix] @ u_blk.conj().T


def block_diag_residual(model: MatrixModel, u: np.ndarray) -> float:
    """Frobenius norm of the beta-odd (block-off-diagonal) part of U H U^dag."""
    signs = model.beta_signs
    return float(np.linalg.norm([
        np.linalg.norm(0.5 * (t - _sandwich(signs[idx], t)))
        for idx, t in _transformed_blocks(model, u)]))


def eriksen_condition_residual(model: MatrixModel, u: np.ndarray) -> float:
    """Frobenius norm of beta U - U^dag beta, one component of u's pattern at a time."""
    signs = model.beta_signs
    norms = []
    for idx in _components(u):
        u_blk, s = u[np.ix_(idx, idx)], signs[idx]
        norms.append(np.linalg.norm(s[:, None] * u_blk - u_blk.conj().T * s))
    return float(np.linalg.norm(norms))


def unitarity_defect(u: np.ndarray) -> float:
    n = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))


def positive_block_spectrum(model: MatrixModel, u: np.ndarray) -> np.ndarray:
    """Eigenvalues of the transformed Hamiltonian on the upper-spinor block."""
    upper = model.beta_signs > 0
    spectra = []
    for idx, t in _transformed_blocks(model, u):
        keep = np.flatnonzero(upper[idx])
        spectra.append(np.linalg.eigvalsh(t[np.ix_(keep, keep)]))
    return np.sort(np.concatenate(spectra))


# -- symbolic-to-matrix bridge ------------------------------------------------------

def evaluate_symbolic(expr: OperatorExpr, model: MatrixModel) -> np.ndarray:
    """Substitute matrices for generators; stationary models only.

    beta -> beta matrix, O -> odd part of H, E and F -> even potential part.
    The substitution is a homomorphism of the word algebra. The words are
    walked in lexicographic order, so a prefix shared with the next word is
    multiplied out once: a stack keeps only the prefix products that the
    next word still needs, at most one per factor of the longest word.
    A generator whose matrix is diagonal (beta always, the even potential on
    a lattice) is held as its diagonal, and a product with it is a row or
    column scaling, not a matrix product.
    """
    n = model.beta.shape[0]
    even = _diagonal_or_dense(model.even_potential)
    lookup = {
        BETA.name: _diagonal_or_dense(model.beta),
        O.name: _diagonal_or_dense(model.odd_part),
        E.name: even,
        F.name: even,
    }
    total = np.zeros((n, n), dtype=complex)
    rest = model.rest_energy
    terms = sorted(expr.terms, key=lambda t: t.sort_key[3])
    # stack[i] is the product of the first i factors of the last word; the
    # empty product is the identity, held as its diagonal
    stack = [np.ones(n)]
    for term, after in zip(terms, terms[1:] + [None]):
        names = term.sort_key[3]
        keep = _shared_prefix(names, after.sort_key[3]) if after else 0
        mat = stack[-1]
        for j in range(len(stack) - 1, len(names)):
            factor = lookup.get(names[j])
            if factor is None:
                raise UnboundSymbol(f"generator {names[j]!r} has no matrix realization")
            mat = _times(mat, factor)
            if j < keep:
                stack.append(mat)
        del stack[keep + 1:]
        coeff = complex(term.coeff.re) + 1j * complex(term.coeff.im)
        coeff *= rest ** (-term.mass_power) * model.hbar ** term.hbar_power
        if mat.ndim == 1:
            total[np.diag_indices(n)] += coeff * mat
        else:
            total += coeff * mat
    return total


def _diagonal_or_dense(mat: np.ndarray) -> np.ndarray:
    """mat's diagonal if mat is diagonal, else mat itself."""
    diag = np.diagonal(mat)
    return diag.copy() if np.count_nonzero(mat) == np.count_nonzero(diag) else mat


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, where a 1-D operand stands for the diagonal matrix it holds."""
    if b.ndim == 1:
        return a * b  # scales a's columns, or multiplies two diagonals
    if a.ndim == 1:
        return a[:, None] * b
    return a @ b


def _shared_prefix(a: tuple, b: tuple) -> int:
    """The length of the longest common prefix of two tuples."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


# -- convergence probe ----------------------------------------------------------------

def free_series_term(n: int) -> OperatorExpr:
    """Order-2n term of beta sqrt(m^2c^4 + O^2): C(1/2, n) beta O^(2n)/(mc^2)^(2n-1)."""
    return word(binom_coeff(Fraction(1, 2), n), [BETA] + [O] * (2 * n),
                mass_power=2 * n - 1)


@dataclass
class ProbeReport:
    """Order-resolved contribution norms with an operational classification.

    The series is flagged diverging when the norms are non-decreasing over
    the last three recorded orders, unless they are all zero: such a series
    terminates. A regime parameter at exactly one is flagged as the
    boundary case.
    """

    orders: list[int]
    norms: list[float]
    classification: str
    regime: str
    boundary: bool = False

    def lines(self) -> list[str]:
        out = [f"regime {self.regime}"]
        for k, v in zip(self.orders, self.norms):
            out.append(f"order {k:3d}  norm {v:.6e}")
        tag = " (boundary)" if self.boundary else ""
        out.append(f"classification {self.classification}{tag}")
        return out

    def record(self) -> dict:
        return {
            "regime": self.regime,
            "orders": list(self.orders),
            "norms": list(self.norms),
            "classification": self.classification,
            "boundary": self.boundary,
        }


def _classify(norms: list[float]) -> str:
    if len(norms) < 3:
        raise ValueError("need at least three orders to classify")
    tail = norms[-3:]
    if tail[0] <= tail[1] <= tail[2] and tail[2] > 0.0:
        return "diverging"
    return "converging"


def _order_norm(expr: OperatorExpr, model: MatrixModel, order: int) -> float:
    """Spectral norm of expr's matrix; ValueError if it overflows a double.

    The matrix is block-diagonal up to a permutation along the components of
    its pattern, so its norm is the largest over its distinct blocks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mat = evaluate_symbolic(expr, model)
        norm = (max(float(np.linalg.norm(blk, 2)) for blk, _ in _distinct_blocks(mat))
                if np.isfinite(mat).all() else math.inf)
    if not math.isfinite(norm):
        raise ValueError(f"norm at order {order} is not finite in double precision")
    return norm


#: The largest order ``convergence_probe`` takes. A free-model order k costs
#: a word of k + 1 generators and C(1/2, k/2) in exact fractions: order 1000
#: takes about 0.015 s, and every even order up to it about 1.6 s together.
PROBE_MAX_ORDER = 1000
#: The largest order on a lattice, where ``eriksen_series`` is formed at it:
#: 1 s at 16 on a 16-site lattice, and about 3.5 times more per two orders.
PROBE_MAX_LATTICE_ORDER = 16


def convergence_probe(model: MatrixModel, orders=(2, 4, 6, 8)) -> ProbeReport:
    """Per-order contribution norms of the block-diagonalized expansion.

    Free models probe the kinetic square-root series; potential models probe
    the order slices of the Eriksen series of beta mc^2 + E + O, formed once
    at the largest order asked for (qualitative only). Orders above
    ``PROBE_MAX_ORDER``, or on a lattice above ``PROBE_MAX_LATTICE_ORDER``,
    are rejected before any series work.
    """
    orders = sorted(orders)
    if len(set(orders)) < len(orders):
        raise ValueError(f"orders must be distinct, got {orders}")
    if any(k < 0 or k % 2 for k in orders):
        raise ValueError("the block-diagonal series has nonnegative even orders only")
    limit = PROBE_MAX_ORDER if model.kind == "free_momentum" else PROBE_MAX_LATTICE_ORDER
    if orders and orders[-1] > limit:
        raise ValueError(f"orders must be at most {limit}, got {orders[-1]}")
    if model.kind == "free_momentum":
        norms = [_order_norm(free_series_term(k // 2), model, k) for k in orders]
        regime = model.params.get("p_over_mc", 0.0)
        return ProbeReport(orders=list(orders), norms=norms,
                           classification=_classify(norms),
                           regime=f"p/(mc) = {regime}",
                           boundary=bool(abs(regime - 1.0) < 1e-12))
    series = eriksen_series(word(1, [BETA], mass_power=-1) + sym(E) + sym(O),
                            max(orders, default=0))
    norms = [_order_norm(series.order_slice(VELOCITY, k), model, k) for k in orders]
    depth = float(np.min(model.params.get("potential", np.zeros(1))))
    return ProbeReport(orders=list(orders), norms=norms,
                       classification=_classify(norms),
                       regime=f"well depth {depth:.3f} mc^2")
