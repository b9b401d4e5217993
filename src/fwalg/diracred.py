"""Reduction of abstract operator expressions to a Dirac particle in an
electromagnetic field.

The abstract generators are substituted as O -> c alpha.pi, E -> e Phi and
F -> e Phi + T, where pi = p - (e/c)A is the kinetic momentum and T stands
for the -i hbar d/dt bookkeeping operator riding along with the potential.
Products of the 4x4 matrices 1, gamma5, Sigma_i, alpha_i, beta close on a
sixteen-element basis and are reduced through exact structure constants.

Fields are the potentials Phi and A_i, kept as commuting symbols with
spatial/time derivative indices. Because partial derivatives commute, words
of potential symbols have a unique normal form: the basis is free, so the
structural equality of reduced expressions decides operator equality. There
is no calculus engine, only the commutation rules

    [pi_i, f]     = -i hbar (d_i f)
    [pi_i, pi_j]  = i hbar (e/c) (d_i A_j - d_j A_i)
    [T, f]        = -i hbar (d_t f)
    [T, pi_i]     = i hbar (e/c) (d_t A_i)

The electric and magnetic field combinations E_i = -d_i Phi - (1/c) d_t A_i
and B_i = (curl A)_i exist as builder helpers and in the rendering layer;
internally everything is held in potential form. The charge e is the signed
charge of the particle and is carried as a formal power, never a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .gaussrat import GaussRat, ONE
from .opalg import BETA, E, F, O, OperatorExpr, SparseSum

_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def eps(i: int, j: int, k: int) -> int:
    return _EPS.get((i, j, k), 0)


class ReductionError(Exception):
    pass


class UnreducedWord(ReductionError):
    """A word contains a generator with no concrete substitution."""


# -- the sixteen-element matrix basis -----------------------------------------
#
# Inner codes: 0 = identity, 1 = gamma5, 2..4 = Sigma_1..3, 5..7 = alpha_1..3.
# A full basis element is beta^b times an inner element; beta commutes with
# 1 and Sigma and anticommutes with gamma5 and alpha.

_ID, _G5 = 0, 1


def _sigma(i: int) -> int:
    return 1 + i


def _alpha(i: int) -> int:
    return 4 + i


def _inner_is_odd(g: int) -> bool:
    return g == _G5 or g >= 5


def _inner_axis(g: int) -> int:
    return g - 1 if 2 <= g <= 4 else g - 4


def _inner_mul(g: int, h: int) -> tuple[GaussRat, int]:
    if g == _ID:
        return ONE, h
    if h == _ID:
        return ONE, g
    if g == _G5 and h == _G5:
        return ONE, _ID
    if g == _G5:
        return (ONE, h + 3) if h <= 4 else (ONE, h - 3)
    if h == _G5:
        return (ONE, g + 3) if g <= 4 else (ONE, g - 3)
    gi, hi = _inner_axis(g), _inner_axis(h)
    g_sig, h_sig = g <= 4, h <= 4
    if g_sig == h_sig:
        # Sigma.Sigma or alpha.alpha
        if gi == hi:
            return ONE, _ID
        k = 6 - gi - hi
        return GaussRat(0, eps(gi, hi, k)), _sigma(k)
    # mixed Sigma/alpha product
    if gi == hi:
        return ONE, _G5
    k = 6 - gi - hi
    return GaussRat(0, eps(gi, hi, k)), _alpha(k)


def _unit_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[GaussRat, tuple[int, int]]:
    """(beta^b1 g1)(beta^b2 g2) with the sign from moving beta^b2 left."""
    b1, g1 = a
    b2, g2 = b
    sign = -1 if (b2 and _inner_is_odd(g1)) else 1
    coeff, g = _inner_mul(g1, g2)
    if sign < 0:
        coeff = -coeff
    return coeff, (b1 ^ b2, g)


_INNER_NAMES = {0: "1", 1: "g5", 2: "Sigma1", 3: "Sigma2", 4: "Sigma3",
                5: "alpha1", 6: "alpha2", 7: "alpha3"}


# -- atoms ---------------------------------------------------------------------

@dataclass(frozen=True)
class CliffordAtom:
    """One of beta, gamma5, Sigma_i, alpha_i."""

    kind: str          # "beta", "gamma5", "sigma", "alpha"
    axis: int = 0      # 1..3 where applicable

    def unit(self) -> tuple[int, int]:
        if self.kind == "beta":
            return (1, _ID)
        if self.kind == "gamma5":
            return (0, _G5)
        if self.kind == "sigma":
            return (0, _sigma(self.axis))
        if self.kind == "alpha":
            return (0, _alpha(self.axis))
        raise ValueError(self.kind)


@dataclass(frozen=True)
class PiAtom:
    """Kinetic momentum component pi_i."""

    axis: int


@dataclass(frozen=True)
class TAtom:
    """The -i hbar d/dt bookkeeping operator carried inside F."""


@dataclass(frozen=True)
class FieldAtom:
    """Commuting potential symbol with derivative bookkeeping.

    base is "Phi" or "A" (axis 1..3 for the vector potential); sderiv is the
    sorted tuple of spatial derivative axes and tderiv the number of time
    derivatives.
    """

    base: str
    axis: int = 0
    sderiv: tuple[int, ...] = ()
    tderiv: int = 0

    def sort_key(self):
        rank = 0 if self.base == "Phi" else 1
        return (rank, self.axis, self.sderiv, self.tderiv)

    def d_spatial(self, axis: int) -> "FieldAtom":
        return FieldAtom(self.base, self.axis,
                         tuple(sorted(self.sderiv + (axis,))), self.tderiv)

    def d_time(self) -> "FieldAtom":
        return FieldAtom(self.base, self.axis, self.sderiv, self.tderiv + 1)

    def label(self) -> str:
        name = self.base + (str(self.axis) if self.axis else "")
        prefix = "".join(f"d{i}" for i in self.sderiv) + "dt" * self.tderiv
        return prefix + name


BETA_ATOM = CliffordAtom("beta")
GAMMA5 = CliffordAtom("gamma5")


def sigma_atom(i: int) -> CliffordAtom:
    return CliffordAtom("sigma", i)


def alpha_atom(i: int) -> CliffordAtom:
    return CliffordAtom("alpha", i)


def phi_atom(sderiv=(), tderiv=0) -> FieldAtom:
    return FieldAtom("Phi", 0, tuple(sorted(sderiv)), tderiv)


def a_atom(axis: int, sderiv=(), tderiv=0) -> FieldAtom:
    return FieldAtom("A", axis, tuple(sorted(sderiv)), tderiv)


@dataclass(frozen=True)
class FieldContext:
    """Which potentials are switched on; the substitution rules read this."""

    has_scalar: bool = True
    has_vector: bool = True


# -- terms and expressions -------------------------------------------------------

class FieldTerm:
    """coeff e^ep hbar^hp c^cp (1/(mc^2))^mp * unit * fields * pis * T^tp."""

    __slots__ = ("coeff", "e_power", "hbar_power", "c_power", "mass_power",
                 "unit", "fields", "pis", "t_power")

    def __init__(self, coeff, e_power, hbar_power, c_power, mass_power,
                 unit, fields, pis, t_power):
        self.coeff = coeff
        self.e_power = e_power
        self.hbar_power = hbar_power
        self.c_power = c_power
        self.mass_power = mass_power
        self.unit = unit
        self.fields = fields
        self.pis = pis
        self.t_power = t_power

    @property
    def key(self):
        return (self.fields, self.pis, self.t_power, self.unit,
                self.e_power, self.hbar_power, self.c_power, self.mass_power)

    @property
    def field_order(self) -> int:
        """Mass power plus number of field factors; the weak-field grading."""
        return self.mass_power + len(self.fields)

    @property
    def is_odd(self) -> bool:
        return _inner_is_odd(self.unit[1])

    def with_coeff(self, coeff: GaussRat) -> "FieldTerm":
        return FieldTerm(coeff, self.e_power, self.hbar_power, self.c_power,
                         self.mass_power, self.unit, self.fields, self.pis,
                         self.t_power)

    def __repr__(self):
        parts = [str(self.coeff)]
        for name, p in (("e", self.e_power), ("hbar", self.hbar_power),
                        ("c", self.c_power), ("u", self.mass_power)):
            if p:
                parts.append(f"{name}^{p}")
        if self.unit[0]:
            parts.append("beta")
        if self.unit[1]:
            parts.append(_INNER_NAMES[self.unit[1]])
        parts.extend(f.label() for f in self.fields)
        parts.extend(f"pi{i}" for i in self.pis)
        if self.t_power:
            parts.append(f"T^{self.t_power}")
        return "(" + " ".join(parts) + ")"


def _reduce_word(atoms: Sequence):
    """Normal-order a word of field/pi/T atoms.

    Yields branches (coeff, e_shift, hbar_shift, c_shift, fields, pis, t_power)
    with canonical order: sorted fields, then pis with ascending axes, then T.
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
                        stack.append((coeff * GaussRat(0, -1), de, dh + 1, dc, rest))
                    else:  # PiAtom
                        # T pi_i = pi_i T + i hbar (e/c) (d_t A_i)
                        rest = seq[:idx] + [a_atom(y.axis, (), 1)] + seq[idx + 2:]
                        stack.append((coeff * GaussRat(0, 1), de + 1, dh + 1, dc - 1, rest))
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
                if isinstance(x, PiAtom) and isinstance(y, FieldAtom):
                    # pi_i f = f pi_i - i hbar (d_i f)
                    rest = seq[:idx] + [y.d_spatial(x.axis)] + seq[idx + 2:]
                    stack.append((coeff * GaussRat(0, -1), de, dh + 1, dc, rest))
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
                if isinstance(x, PiAtom) and isinstance(y, PiAtom) and x.axis > y.axis:
                    # pi_i pi_j = pi_j pi_i + i hbar (e/c) (d_i A_j - d_j A_i)
                    i, j = x.axis, y.axis
                    rest1 = seq[:idx] + [a_atom(j, (i,))] + seq[idx + 2:]
                    rest2 = seq[:idx] + [a_atom(i, (j,))] + seq[idx + 2:]
                    stack.append((coeff * GaussRat(0, 1), de + 1, dh + 1, dc - 1, rest1))
                    stack.append((coeff * GaussRat(0, -1), de + 1, dh + 1, dc - 1, rest2))
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
                if (isinstance(x, FieldAtom) and isinstance(y, FieldAtom)
                        and x.sort_key() > y.sort_key()):
                    seq[idx], seq[idx + 1] = y, x
                    changed = True
                    break
        fields = tuple(a for a in seq if isinstance(a, FieldAtom))
        pis = tuple(a.axis for a in seq if isinstance(a, PiAtom))
        t_power = sum(1 for a in seq if isinstance(a, TAtom))
        results.append((coeff, de, dh, dc, fields, pis, t_power))
    return results


def _normalize_field(raw: Iterable) -> tuple[FieldTerm, ...]:
    """Normal form of raw field tuples.

    A raw tuple is ``(coeff, e_power, hbar_power, c_power, mass_power, unit,
    word)``: the Clifford unit already multiplied out, the word a list of
    field/pi/T atoms in any order.
    """
    acc: dict = {}
    for coeff0, e_power, hbar_power, c_power, mass_power, unit, word in raw:
        if coeff0.is_zero:
            continue
        for (coeff, de, dh, dc, fields, pis, t_power) in _reduce_word(word):
            total = coeff0 * coeff
            if total.is_zero:
                continue
            key = (fields, pis, t_power, unit, e_power + de, hbar_power + dh,
                   c_power + dc, mass_power)
            prev = acc.get(key)
            acc[key] = total if prev is None else prev + total
    terms = [
        FieldTerm(c, key[4], key[5], key[6], key[7], key[3], key[0], key[1], key[2])
        for key, c in acc.items() if not c.is_zero
    ]
    terms.sort(key=_field_sort_key)
    return tuple(terms)


def _field_sort_key(t: FieldTerm):
    return (t.mass_power, t.e_power, t.hbar_power, t.c_power, t.unit,
            tuple(f.sort_key() for f in t.fields), t.pis, t.t_power)


def _word_of(t: FieldTerm) -> list:
    return (list(t.fields)
            + [PiAtom(i) for i in t.pis]
            + [TAtom() for _ in range(t.t_power)])


class FieldExpr(SparseSum):
    """Normalized sum of field terms (Clifford unit times commutative word)."""

    __slots__ = ()

    _sort_key = staticmethod(_field_sort_key)

    def __init__(self, terms=(), _normalized=False):
        self._terms = terms if _normalized else _normalize_field(terms)

    @classmethod
    def one(cls) -> "FieldExpr":
        return _F_ONE

    def __mul__(self, other):
        if not isinstance(other, FieldExpr):
            return self._times_scalar(other)
        raw = []
        for a in self._terms:
            for b in other._terms:
                u_coeff, unit = _unit_mul(a.unit, b.unit)
                raw.append((
                    a.coeff * b.coeff * u_coeff,
                    a.e_power + b.e_power,
                    a.hbar_power + b.hbar_power,
                    a.c_power + b.c_power,
                    a.mass_power + b.mass_power,
                    unit,
                    _word_of(a) + _word_of(b),
                ))
        return FieldExpr(raw)

    def adjoint(self) -> "FieldExpr":
        raw = []
        for t in self._terms:
            b, g = t.unit
            sign = -1 if (b and _inner_is_odd(g)) else 1
            coeff = t.coeff.conjugate()
            if sign < 0:
                coeff = -coeff
            raw.append((coeff, t.e_power, t.hbar_power, t.c_power,
                        t.mass_power, t.unit, _word_of(t)[::-1]))
        return FieldExpr(raw)

    def truncate_field_order(self, max_order: int) -> "FieldExpr":
        return self.filter(lambda t: t.field_order <= max_order)


_F_ONE = FieldExpr((FieldTerm(ONE, 0, 0, 0, 0, (0, _ID), (), (), 0),), _normalized=True)


def field_term(coeff, atoms: Sequence = (), e_power: int = 0, hbar_power: int = 0,
               c_power: int = 0, mass_power: int = 0) -> FieldExpr:
    """Single-term expression from a mixed atom sequence."""
    unit = (0, _ID)
    coeff = GaussRat.coerce(coeff)
    word = []
    for a in atoms:
        if isinstance(a, CliffordAtom):
            u_coeff, unit = _unit_mul(unit, a.unit())
            coeff = coeff * u_coeff
        else:
            word.append(a)
    return FieldExpr([(coeff, e_power, hbar_power, c_power, mass_power, unit, word)])


# -- field combination builders ---------------------------------------------------

def e_field(i: int, sderiv=(), tderiv=0) -> FieldExpr:
    """E_i = -d_i Phi - (1/c) d_t A_i, with optional extra derivatives."""
    return (field_term(-1, [phi_atom(tuple(sderiv) + (i,), tderiv)])
            + field_term(-1, [a_atom(i, sderiv, tderiv + 1)], c_power=-1))


def b_field(k: int, sderiv=(), tderiv=0) -> FieldExpr:
    """B_k = (curl A)_k, with optional extra derivatives."""
    out = FieldExpr.zero()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            s = eps(k, i, j)
            if s:
                out = out + field_term(s, [a_atom(j, tuple(sderiv) + (i,), tderiv)])
    return out


def div_e() -> FieldExpr:
    out = FieldExpr.zero()
    for i in (1, 2, 3):
        out = out + e_field(i, sderiv=(i,))
    return out


# -- instantiation ---------------------------------------------------------------

def instantiate(abstract: OperatorExpr, ctx: FieldContext = FieldContext(),
                max_field_order: int | None = None) -> FieldExpr:
    """Substitute the concrete Dirac realization into an abstract expression.

    O -> c alpha.pi, E -> e Phi, F -> e Phi + T, beta -> beta. Unknown
    generators raise UnreducedWord. The optional truncation drops terms with
    mass_power + (number of field factors) above max_field_order, the usual
    weak-field bookkeeping.
    """
    total_raw = []
    for term in abstract.terms:
        branches = [(term.coeff, 0, term.hbar_power, 0, term.mass_power, (0, _ID), [])]
        for s in term.word:
            new_branches = []
            for (coeff, ep, hp, cp, mp, unit, w) in branches:
                if s == BETA:
                    u_coeff, unit2 = _unit_mul(unit, (1, _ID))
                    new_branches.append((coeff * u_coeff, ep, hp, cp, mp, unit2, w))
                elif s == O:
                    for i in (1, 2, 3):
                        u_coeff, unit2 = _unit_mul(unit, (0, _alpha(i)))
                        new_branches.append((coeff * u_coeff, ep, hp, cp + 1, mp,
                                             unit2, w + [PiAtom(i)]))
                elif s == E:
                    if ctx.has_scalar:
                        new_branches.append((coeff, ep + 1, hp, cp, mp, unit,
                                             w + [phi_atom()]))
                elif s == F:
                    if ctx.has_scalar:
                        new_branches.append((coeff, ep + 1, hp, cp, mp, unit,
                                             w + [phi_atom()]))
                    new_branches.append((coeff, ep, hp, cp, mp, unit, w + [TAtom()]))
                else:
                    raise UnreducedWord(
                        f"no concrete substitution for generator {s.name!r}"
                    )
            branches = new_branches
        total_raw.extend(branches)
    out = FieldExpr(total_raw)
    if not ctx.has_vector:
        out = out.filter(lambda t: all(f.base != "A" for f in t.fields))
    if max_field_order is not None:
        out = out.truncate_field_order(max_field_order)
    return out


# -- reference form of the transformed electromagnetic Hamiltonian ----------------

def polarization(i: int) -> FieldExpr:
    """The matrix multiplying the magnetic field term: beta Sigma_i."""
    return field_term(1, [BETA_ATOM, sigma_atom(i)])


# -- conventional rendering --------------------------------------------------------

def _pi_squared() -> FieldExpr:
    out = FieldExpr.zero()
    for i in (1, 2, 3):
        out = out + field_term(1, [PiAtom(i), PiAtom(i)])
    return out


def _sigma_pi_e_pair() -> FieldExpr:
    """Sigma.[pi x E] - Sigma.[E x pi] as one block (they share monomials)."""
    out = FieldExpr.zero()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                s = eps(i, j, k)
                if not s:
                    continue
                sig = field_term(s, [sigma_atom(i)])
                out = out + sig * field_term(1, [PiAtom(j)]) * e_field(k)
                out = out - sig * e_field(j) * field_term(1, [PiAtom(k)])
    return out


def _conventional_catalog() -> list[tuple[str, FieldExpr]]:
    pi2 = _pi_squared()
    beta_sigma_b = FieldExpr.zero()
    for i in (1, 2, 3):
        beta_sigma_b = beta_sigma_b + polarization(i) * b_field(i)
    return [
        ("beta mc^2", field_term(1, [BETA_ATOM], mass_power=-1)),
        ("beta pi^2 /m", field_term(1, [BETA_ATOM], c_power=2, mass_power=1) * pi2),
        ("beta pi^4 /(m^3 c^2)",
         (field_term(1, [BETA_ATOM], c_power=4, mass_power=3)
          * pi2 * pi2).truncate_field_order(3)),
        ("e Phi", field_term(1, [phi_atom()], e_power=1)),
        ("(e hbar/(m c)) (beta Sigma).B",
         field_term(1, [], e_power=1, hbar_power=1, c_power=1, mass_power=1)
         * beta_sigma_b),
        ("(e hbar/(m^2 c^2)) (Sigma.[pi x E] - Sigma.[E x pi])",
         field_term(1, [], e_power=1, hbar_power=1, c_power=2, mass_power=2)
         * _sigma_pi_e_pair()),
        ("(e hbar^2/(m^2 c^2)) div E",
         field_term(1, [], e_power=1, hbar_power=2, c_power=2, mass_power=2)
         * div_e()),
    ]


#: Eq. (13) in catalog order: beta (mc^2 + pi^2/2m - pi^4/8m^3c^2) + e Phi
#: - (e hbar/2mc) (beta Sigma).B
#: + (e hbar/8m^2c^2) (Sigma.[pi x E] - Sigma.[E x pi] - hbar div E).
_EQ13_MULTIPLES = (1, Fraction(1, 2), Fraction(-1, 8), 1, Fraction(-1, 2),
                   Fraction(1, 8), Fraction(-1, 8))


def render_conventional(expr: FieldExpr) -> str:
    """Best-effort display through the standard field combinations.

    Each catalog block is peeled off when every one of its monomials appears
    with one consistent rational multiple; whatever remains is printed in raw
    potential form. The decomposition is exact, never lossy.
    """
    remaining = expr
    lines = []
    for label, block in _conventional_catalog():
        probe = block.terms[0]
        coeff = None
        for t in remaining.terms:
            if t.key == probe.key:
                coeff = t.coeff / probe.coeff
                break
        if coeff is None or coeff.is_zero:
            continue
        candidate = remaining - block * coeff
        if all(all(t.key != bt.key for t in candidate.terms) for bt in block.terms):
            remaining = candidate
            lines.append(f"{coeff} * {label}")
    for t in remaining.terms:
        lines.append(f"raw {t!r}")
    return "\n".join(lines) if lines else "0"


def reference_field_hamiltonian() -> FieldExpr:
    """Kinetic expansion, potential, magnetic, spin-orbit and contact terms.

    Eq. (13) as multiples of the conventional blocks, which are built in the
    printed momentum-left ordering and lowered to potential form; the
    weak-field truncation of the pi^4 block (mass power plus field count
    <= 3) matches the bookkeeping of the printed equation.
    """
    h = FieldExpr.zero()
    for coeff, (_, block) in zip(_EQ13_MULTIPLES, _conventional_catalog()):
        h = h + block * coeff
    return h
