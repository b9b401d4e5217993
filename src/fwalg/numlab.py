"""Numerical validation on finite matrix models.

Two model families: the 4x4 free-momentum Dirac Hamiltonian and a 1D lattice
Dirac operator (central differences, periodic boundary) with a static
potential well. The one-step block-diagonalizing unitary is computed exactly
through the eigendecomposition: lambda = H (H^2)^(-1/2) and
U = (1 + beta lambda)(2 + beta lambda + lambda beta)^(-1/2), all via the
same spectral calculus. Symbolic expressions are evaluated into matrices by
direct substitution, which makes the symbolic layer checkable against exact
linear algebra.

Tolerances here are engineering choices for double precision at dimensions
up to a few thousand, not claims from any analytic source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gaussrat import binom_coeff
from .opalg import BETA, E, F, O, OperatorExpr, word


class NumericError(Exception):
    pass


class SingularSign(NumericError):
    """The Hamiltonian has a (near-)zero eigenvalue; the sign operator is undefined."""


class UnboundSymbol(NumericError):
    """A symbolic generator has no matrix realization in the model."""


_ALPHA1 = np.array([[0, 0, 0, 1],
                    [0, 0, 1, 0],
                    [0, 1, 0, 0],
                    [1, 0, 0, 0]], dtype=complex)
_ALPHA2 = np.array([[0, 0, 0, -1j],
                    [0, 0, 1j, 0],
                    [0, -1j, 0, 0],
                    [1j, 0, 0, 0]], dtype=complex)
_ALPHA3 = np.array([[0, 0, 1, 0],
                    [0, 0, 0, -1],
                    [1, 0, 0, 0],
                    [0, -1, 0, 0]], dtype=complex)
_BETA4 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

ALPHAS = (_ALPHA1, _ALPHA2, _ALPHA3)
BETA4 = _BETA4


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

    @property
    def rest_energy(self) -> float:
        return self.mass * self.c ** 2

    @property
    def even_potential(self) -> np.ndarray:
        """H_even minus the rest term; what the symbol E maps to."""
        h_even = 0.5 * (self.hamiltonian + self.beta @ self.hamiltonian @ self.beta)
        return h_even - self.rest_energy * self.beta

    @property
    def odd_part(self) -> np.ndarray:
        """Block-off-diagonal part of H; what the symbol O maps to."""
        return 0.5 * (self.hamiltonian - self.beta @ self.hamiltonian @ self.beta)


def free_model(p_over_mc, mass: float = 1.0, c: float = 1.0) -> MatrixModel:
    """4x4 free-particle model; momentum given in units of mc."""
    p = np.atleast_1d(np.asarray(p_over_mc, dtype=float))
    if p.size == 1:
        p = np.array([float(p[0]), 0.0, 0.0])
    h = mass * c ** 2 * _BETA4
    for comp, alpha in zip(p, ALPHAS):
        h = h + c * (comp * mass * c) * alpha
    return MatrixModel(kind="free_momentum", hamiltonian=h, beta=_BETA4.copy(),
                       mass=mass, c=c,
                       params={"p_over_mc": float(np.linalg.norm(p))})


def lattice_model(n_sites: int = 256, spacing: float = 0.1,
                  potential=None, mass: float = 1.0, c: float = 1.0,
                  hbar: float = 1.0) -> MatrixModel:
    """1D Dirac operator on a periodic chain, 4 spinor components per site.

    Central differences leave the usual doubler branch in the spectrum; it
    is irrelevant for the unitary-transformation checks performed here.
    """
    n = n_sites
    x = (np.arange(n) - n / 2) * spacing
    p_mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        p_mat[j, (j + 1) % n] = -1j * hbar / (2 * spacing)
        p_mat[j, (j - 1) % n] = 1j * hbar / (2 * spacing)
    if potential is None:
        v = np.zeros(n)
    elif callable(potential):
        v = np.array([float(potential(xi)) for xi in x])
    else:
        v = np.asarray(potential, dtype=float)
    eye_n = np.eye(n)
    h = (c * np.kron(p_mat, _ALPHA1)
         + mass * c ** 2 * np.kron(eye_n, _BETA4)
         + np.kron(np.diag(v), np.eye(4)))
    beta = np.kron(eye_n, _BETA4)
    return MatrixModel(kind="lattice1d", hamiltonian=h, beta=beta,
                       mass=mass, c=c, hbar=hbar,
                       params={"n_sites": n, "spacing": spacing,
                               "x": x, "potential": v})


def regularized_well(depth: float, width: float):
    """Smooth attractive well -depth / sqrt(1 + (x/width)^2)."""
    def v(x):
        return -depth / np.sqrt(1.0 + (x / width) ** 2)
    return v


# -- exact one-step transformation ------------------------------------------------

def sign_operator(model: MatrixModel, threshold: float = 1e-8) -> np.ndarray:
    """lambda = H (H^2)^(-1/2) via eigendecomposition."""
    evals, vecs = np.linalg.eigh(model.hamiltonian)
    scale = np.max(np.abs(evals))
    if scale == 0.0 or np.min(np.abs(evals)) < threshold * scale:
        raise SingularSign(
            f"smallest |eigenvalue| below {threshold} of spectral range"
        )
    return (vecs * np.sign(evals)) @ vecs.conj().T


def eriksen_unitary(model: MatrixModel, threshold: float = 1e-8) -> np.ndarray:
    """U = (1 + beta lambda)(2 + beta lambda + lambda beta)^(-1/2)."""
    lam = sign_operator(model, threshold)
    beta = model.beta
    n = beta.shape[0]
    beta_lam = beta @ lam
    core = 2.0 * np.eye(n) + beta_lam + lam @ beta
    evals, vecs = np.linalg.eigh(core)
    if np.min(evals) < threshold:
        raise SingularSign("2 + beta lambda + lambda beta is numerically singular")
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return (np.eye(n) + beta_lam) @ inv_sqrt


def block_diag_residual(model: MatrixModel, u: np.ndarray) -> float:
    """Frobenius norm of the beta-odd (block-off-diagonal) part of U H U^dag."""
    transformed = u @ model.hamiltonian @ u.conj().T
    odd = 0.5 * (transformed - model.beta @ transformed @ model.beta)
    return float(np.linalg.norm(odd))


def eriksen_condition_residual(model: MatrixModel, u: np.ndarray) -> float:
    """Frobenius norm of beta U - U^dag beta."""
    return float(np.linalg.norm(model.beta @ u - u.conj().T @ model.beta))


def unitarity_defect(u: np.ndarray) -> float:
    n = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))


def positive_block_spectrum(model: MatrixModel, u: np.ndarray) -> np.ndarray:
    """Eigenvalues of the transformed Hamiltonian on the upper-spinor block."""
    transformed = u @ model.hamiltonian @ u.conj().T
    proj = np.where(np.isclose(np.diag(model.beta).real, 1.0))[0]
    block = transformed[np.ix_(proj, proj)]
    return np.sort(np.linalg.eigvalsh(block))


# -- symbolic-to-matrix bridge ------------------------------------------------------

def evaluate_symbolic(expr: OperatorExpr, model: MatrixModel) -> np.ndarray:
    """Substitute matrices for generators; stationary models only.

    beta -> beta matrix, O -> odd part of H, E and F -> even potential part.
    The substitution is a homomorphism of the word algebra.
    """
    n = model.beta.shape[0]
    lookup = {
        BETA.name: model.beta,
        O.name: model.odd_part,
        E.name: model.even_potential,
        F.name: model.even_potential,
    }
    total = np.zeros((n, n), dtype=complex)
    rest = model.rest_energy
    for term in expr.terms:
        mat = np.eye(n, dtype=complex)
        for s in term.word:
            try:
                mat = mat @ lookup[s.name]
            except KeyError:
                raise UnboundSymbol(
                    f"generator {s.name!r} has no matrix realization"
                ) from None
        coeff = complex(term.coeff.re) + 1j * complex(term.coeff.im)
        coeff *= rest ** (-term.mass_power) * model.hbar ** term.hbar_power
        total = total + coeff * mat
    return total


# -- convergence probe ----------------------------------------------------------------

def free_series_term(n: int) -> OperatorExpr:
    """Order-2n term of beta sqrt(m^2c^4 + O^2): C(1/2, n) beta O^(2n)/(mc^2)^(2n-1)."""
    return word(binom_coeff(Fraction(1, 2), n), [BETA] + [O] * (2 * n),
                mass_power=2 * n - 1)


@dataclass
class ProbeReport:
    """Order-resolved contribution norms with an operational classification.

    The series is flagged diverging when the norms are non-decreasing over
    the last three recorded orders; a regime parameter at exactly one is
    flagged as the boundary case.
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
    if tail[0] <= tail[1] <= tail[2]:
        return "diverging"
    return "converging"


def convergence_probe(model: MatrixModel, orders=(2, 4, 6, 8)) -> ProbeReport:
    """Per-order contribution norms of the block-diagonalized expansion.

    Free models probe the kinetic square-root series; potential models probe
    the order slices of the full order-8 closed form (qualitative only).
    """
    orders = sorted(orders)
    if model.kind == "free_momentum":
        norms = []
        for k in orders:
            if k < 0 or k % 2:
                raise ValueError("free-particle series has nonnegative even orders only")
            mat = evaluate_symbolic(free_series_term(k // 2), model)
            norms.append(float(np.linalg.norm(mat, 2)))
        regime = model.params.get("p_over_mc", 0.0)
        return ProbeReport(orders=list(orders), norms=norms,
                           classification=_classify(norms),
                           regime=f"p/(mc) = {regime}",
                           boundary=bool(abs(regime - 1.0) < 1e-12))
    from . import reference
    from .opalg import E as E_SYM, F as F_SYM, VELOCITY
    closed_form = reference.build(reference.ERIKSEN_24).subs_symbol(F_SYM, E_SYM)
    norms = []
    for k in orders:
        mat = evaluate_symbolic(closed_form.order_slice(VELOCITY, k), model)
        norms.append(float(np.linalg.norm(mat, 2)))
    depth = float(np.min(model.params.get("potential", np.zeros(1))))
    return ProbeReport(orders=list(orders), norms=norms,
                       classification=_classify(norms),
                       regime=f"well depth {depth:.3f} mc^2")
