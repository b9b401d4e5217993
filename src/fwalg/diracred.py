"""Reduction of abstract operator expressions to a Dirac particle in an
electromagnetic field.

The abstract generators are substituted as O -> c alpha.pi, E -> e Phi and
F -> e Phi + T, where pi = p - (e/c)A is the kinetic momentum and T stands
for the -i hbar d/dt bookkeeping operator riding along with the potential.
The 4x4 matrices close on a sixteen-element basis that factors as beta x
gamma5 x Pauli: a Clifford unit is the triple (b, a, k) = beta^b gamma5^a
Sigma_k, with Sigma_0 = 1 and alpha_k = gamma5 Sigma_k, and two units
multiply by one rule (``_unit_mul``).

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
from functools import cache
from operator import attrgetter
from typing import Iterable, Sequence

from .gaussrat import GaussRat, I, MINUS_I, ONE
from .opalg import BETA, E, F, O, OperatorExpr

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
# A unit (b, a, k) is beta^b gamma5^a Sigma_k, with Sigma_0 = 1; the alphas
# are alpha_k = gamma5 Sigma_k. beta anticommutes with gamma5 and commutes
# with Sigma, gamma5 commutes with Sigma, and a unit's parity is a.

BETA_ATOM = (1, 0, 0)
GAMMA5 = (0, 1, 0)


def sigma_atom(i: int) -> tuple:
    return (0, 0, i)


def alpha_atom(i: int) -> tuple:
    return (0, 1, i)


def _unit_mul(x: tuple, y: tuple) -> tuple[GaussRat, tuple]:
    """(beta^b gamma5^a Sigma_k)(beta^b' gamma5^a' Sigma_k') as coeff * unit.

    Moving beta^b' left past gamma5^a gives (-1)^(a b'); the Pauli parts
    multiply by Sigma_i Sigma_j = delta_ij + i eps_ijk Sigma_k, and the beta
    and gamma5 bits each combine by XOR.
    """
    b, a, i = x
    b2, a2, j = y
    if not (i and j):
        coeff, k = ONE, i or j
    elif i == j:
        coeff, k = ONE, 0
    else:
        k = 6 - i - j
        coeff = I if eps(i, j, k) > 0 else MINUS_I
    return (-coeff if a and b2 else coeff), (b ^ b2, a ^ a2, k)


# -- atoms ---------------------------------------------------------------------

@dataclass(frozen=True)
class PiAtom:
    """Kinetic momentum component pi_i."""

    axis: int


@dataclass(frozen=True)
class TAtom:
    """The -i hbar d/dt bookkeeping operator carried inside F."""


class FieldAtom:
    """Commuting potential symbol with derivative bookkeeping.

    base is "Phi" or "A" (axis 1..3 for the vector potential); sderiv is the
    sorted tuple of spatial derivative axes and tderiv the number of time
    derivatives. Interned, as ``OperatorSymbol`` is: equal atoms are
    identical, so they hash and compare by identity, and ``sort_key`` is
    read once, at construction.
    """

    __slots__ = ("base", "axis", "sderiv", "tderiv", "sort_key")

    _interned: dict = {}

    def __new__(cls, base: str, axis: int = 0, sderiv: tuple[int, ...] = (),
                tderiv: int = 0):
        key = (base, axis, sderiv, tderiv)
        self = cls._interned.get(key)
        if self is None:
            self = cls._interned[key] = super().__new__(cls)
            self.base = base
            self.axis = axis
            self.sderiv = sderiv
            self.tderiv = tderiv
            self.sort_key = (0 if base == "Phi" else 1, axis, sderiv, tderiv)
        return self

    def __reduce__(self):
        # copies and unpickled atoms go through __new__, so stay interned
        return FieldAtom, (self.base, self.axis, self.sderiv, self.tderiv)

    def __repr__(self):
        return (f"FieldAtom(base={self.base!r}, axis={self.axis!r}, "
                f"sderiv={self.sderiv!r}, tderiv={self.tderiv!r})")

    def d_spatial(self, axis: int) -> "FieldAtom":
        return FieldAtom(self.base, self.axis,
                         tuple(sorted(self.sderiv + (axis,))), self.tderiv)

    def d_time(self) -> "FieldAtom":
        return FieldAtom(self.base, self.axis, self.sderiv, self.tderiv + 1)

    def label(self) -> str:
        name = self.base + (str(self.axis) if self.axis else "")
        prefix = "".join(f"d{i}" for i in self.sderiv) + "dt" * self.tderiv
        return prefix + name


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
    """coeff e^ep hbar^hp c^cp (1/(mc^2))^mp * unit * fields * pis * T^tp.

    Built as ``FieldTerm(coeff, *key)``, where ``key`` is ``(fields, pis,
    t_power, unit, e_power, hbar_power, c_power, mass_power)``, the one
    layout of a term's fields; ``key`` and ``sort_key`` are made here, once.
    """

    __slots__ = ("coeff", "fields", "pis", "t_power", "unit", "e_power",
                 "hbar_power", "c_power", "mass_power", "key", "sort_key")

    def __init__(self, coeff, fields, pis, t_power, unit, e_power, hbar_power,
                 c_power, mass_power):
        self.coeff = coeff
        self.fields, self.pis, self.t_power, self.unit = fields, pis, t_power, unit
        self.e_power, self.hbar_power = e_power, hbar_power
        self.c_power, self.mass_power = c_power, mass_power
        self.key = (fields, pis, t_power, unit, e_power, hbar_power, c_power, mass_power)
        self.sort_key = (mass_power, e_power, hbar_power, c_power, unit,
                         tuple(f.sort_key for f in fields), pis, t_power)

    @property
    def field_order(self) -> int:
        """Mass power plus number of field factors; the weak-field grading."""
        return self.mass_power + len(self.fields)

    @property
    def is_odd(self) -> bool:
        return self.unit[1] == 1

    def with_coeff(self, coeff: GaussRat) -> "FieldTerm":
        return FieldTerm(coeff, *self.key)

    def __repr__(self):
        parts = [str(self.coeff)]
        for name, p in (("e", self.e_power), ("hbar", self.hbar_power),
                        ("c", self.c_power), ("u", self.mass_power)):
            if p:
                parts.append(f"{name}^{p}")
        b, a, k = self.unit
        if b:
            parts.append("beta")
        if k:
            parts.append(("alpha" if a else "Sigma") + str(k))
        elif a:
            parts.append("g5")
        parts.extend(f.label() for f in self.fields)
        parts.extend(f"pi{i}" for i in self.pis)
        if self.t_power:
            parts.append(f"T^{self.t_power}")
        return "(" + " ".join(parts) + ")"


def _commute(x, y):
    """The correction branches of ``x y = y x + ...``; None if x y is in order.

    The normal order is sorted fields, then pis with ascending axes, then T.
    A branch ``(coeff, e_shift, hbar_shift, c_shift, atom)`` is one atom
    standing in for the pair, times coeff and the shifted powers. Two
    fields out of order commute: no branch.
    """
    tx, ty = type(x), type(y)
    if tx is TAtom:
        if ty is FieldAtom:  # T f = f T - i hbar (d_t f)
            return [(MINUS_I, 0, 1, 0, y.d_time())]
        if ty is PiAtom:  # T pi_i = pi_i T + i hbar (e/c) (d_t A_i)
            return [(I, 1, 1, -1, a_atom(y.axis, (), 1))]
    elif tx is PiAtom:
        if ty is FieldAtom:  # pi_i f = f pi_i - i hbar (d_i f)
            return [(MINUS_I, 0, 1, 0, y.d_spatial(x.axis))]
        if ty is PiAtom and x.axis > y.axis:
            # pi_i pi_j = pi_j pi_i + i hbar (e/c) (d_i A_j - d_j A_i)
            return [(I, 1, 1, -1, a_atom(y.axis, (x.axis,))),
                    (MINUS_I, 1, 1, -1, a_atom(x.axis, (y.axis,)))]
    elif ty is FieldAtom and x.sort_key > y.sort_key:
        return []
    return None


def _normalize_field(raw: Iterable) -> tuple[FieldTerm, ...]:
    """Normal form of raw field tuples.

    A raw tuple is ``(coeff, e_power, hbar_power, c_power, mass_power, unit,
    word)``: the Clifford unit already multiplied out, the word a list of
    field/pi/T atoms in any order. Each word is sorted by adjacent swaps,
    stepping back one place after each; a swap leaves the branches of
    ``_commute`` to be sorted in turn. Each normal word is summed under its
    ``FieldTerm.key``, and the sums become terms.
    """
    acc: dict = {}
    for coeff0, e_power, hbar_power, c_power, mass_power, unit, word in raw:
        if coeff0.is_zero:
            continue
        stack = [(coeff0, e_power, hbar_power, c_power, list(word))]
        while stack:
            coeff, e, h, c, seq = stack.pop()
            idx, last = 0, len(seq) - 1
            while idx < last:
                x, y = seq[idx], seq[idx + 1]
                branches = _commute(x, y)
                if branches is None:
                    idx += 1
                    continue
                for dcoeff, de, dh, dc, atom in branches:
                    stack.append((coeff * dcoeff, e + de, h + dh, c + dc,
                                  seq[:idx] + [atom] + seq[idx + 2:]))
                seq[idx], seq[idx + 1] = y, x
                idx = max(idx - 1, 0)
            fields = tuple(a for a in seq if isinstance(a, FieldAtom))
            pis = tuple(a.axis for a in seq if isinstance(a, PiAtom))
            key = (fields, pis, len(seq) - len(fields) - len(pis), unit, e, h, c, mass_power)
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
    return tuple(sorted((FieldTerm(c, *key) for key, c in acc.items() if not c.is_zero),
                        key=attrgetter("sort_key")))


def _merged(pairs: Iterable) -> "FieldExpr":
    """The sum of ``(coefficient, term)`` pairs: one term per key, sorted, zeros dropped.

    A term whose coefficient comes through unchanged is kept as it is.
    """
    acc: dict = {}
    for c, t in pairs:
        key = t.key
        prev = acc.get(key)
        acc[key] = (c, t) if prev is None else (prev[0] + c, prev[1])
    terms = [t if c is t.coeff else t.with_coeff(c) for c, t in acc.values() if not c.is_zero]
    terms.sort(key=attrgetter("sort_key"))
    return _held(tuple(terms))


def _held(terms: tuple) -> "FieldExpr":
    """An expression holding terms that are already normal, as they are."""
    out = object.__new__(FieldExpr)
    out.terms = terms
    return out


def _word_of(t: FieldTerm) -> list:
    return (list(t.fields)
            + [PiAtom(i) for i in t.pis]
            + [TAtom() for _ in range(t.t_power)])


class FieldExpr:
    """Normalized sum of field terms (Clifford unit times commutative word).

    Immutable: ``terms`` holds one term per ``FieldTerm.key``, sorted by
    ``sort_key``. The constructor always normalizes raw field tuples
    (``_normalize_field``); results that are already normal are held as
    they are by ``_held``.
    A sum of normal forms is one pass of the term merge ``_merged`` over
    the operands' ``(coefficient, term)`` pairs, never a second
    normalization, and a term that merges with nothing comes back as the
    same object.
    """

    __slots__ = ("terms",)

    def __init__(self, raw: Iterable = ()):
        self.terms = _normalize_field(raw)

    @classmethod
    def zero(cls) -> "FieldExpr":
        return _held(())

    @classmethod
    def combine(cls, pairs: Iterable) -> "FieldExpr":
        """The sum of ``coeff * x`` over ``(coeff, x)`` pairs, merged and sorted once.

        A chain of ``+`` would rebuild the running sum for every pair.
        """
        scaled = ((GaussRat.coerce(c), x) for c, x in pairs)
        return _merged((c * t.coeff, t) for c, x in scaled for t in x.terms)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self):
        body = " + ".join(map(repr, self.terms)) or "0"
        return f"<FieldExpr {body}>"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return _merged([(t.coeff, t) for t in self.terms + other.terms])

    def __sub__(self, other):
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return _merged([(t.coeff, t) for t in self.terms]
                       + [(-t.coeff, t) for t in other.terms])

    def __neg__(self):
        return -1 * self

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction, GaussRat)):
            return FieldExpr.combine([(c, self)])
        return NotImplemented

    # -- selection -----------------------------------------------------------

    def filter(self, keep):
        """The sum of the terms for which ``keep(term)`` holds."""
        kept = tuple(t for t in self.terms if keep(t))
        return self if len(kept) == len(self.terms) else _held(kept)

    def parity_split(self):
        """(even part, odd part) with respect to beta."""
        return self.filter(lambda t: not t.is_odd), self.filter(lambda t: t.is_odd)

    def truncate_field_order(self, max_order: int) -> "FieldExpr":
        return self.filter(lambda t: t.field_order <= max_order)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return len(self) == len(other) and all(
            a.key == b.key and a.coeff == b.coeff for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple((t.key, t.coeff) for t in self.terms))

    def __mul__(self, other):
        if not isinstance(other, FieldExpr):
            return self.__rmul__(other)
        raw = []
        for a in self.terms:
            for b in other.terms:
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
        for t in self.terms:
            # (beta^b gamma5^a Sigma_k)^dag = (-1)^(a b) beta^b gamma5^a Sigma_k
            b, a, _ = t.unit
            coeff = t.coeff.conjugate()
            raw.append((-coeff if a and b else coeff, t.e_power, t.hbar_power,
                        t.c_power, t.mass_power, t.unit, _word_of(t)[::-1]))
        return FieldExpr(raw)


def field_term(coeff, atoms: Sequence = (), e_power: int = 0, hbar_power: int = 0,
               c_power: int = 0, mass_power: int = 0) -> FieldExpr:
    """Single-term expression from a mixed atom sequence.

    Each Clifford unit among the atoms is folded into the term's unit.
    """
    unit = (0, 0, 0)
    coeff = GaussRat.coerce(coeff)
    word = []
    for a in atoms:
        if isinstance(a, tuple):
            u_coeff, unit = _unit_mul(unit, a)
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
    return FieldExpr.combine(
        (s, field_term(1, [a_atom(j, tuple(sderiv) + (i,), tderiv)]))
        for (axis, i, j), s in _EPS.items() if axis == k)


def div_e() -> FieldExpr:
    return FieldExpr.combine((1, e_field(i, sderiv=(i,))) for i in (1, 2, 3))


# -- instantiation ---------------------------------------------------------------

def _images(ctx: FieldContext) -> dict:
    """Each generator's concrete image under the substitution."""
    phi = field_term(1, [phi_atom()], e_power=1) if ctx.has_scalar else FieldExpr.zero()
    odd = FieldExpr.combine(
        (1, field_term(1, [alpha_atom(i), PiAtom(i)], c_power=1)) for i in (1, 2, 3))
    return {BETA: field_term(1, [BETA_ATOM]), O: odd, E: phi,
            F: phi + field_term(1, [TAtom()])}


def instantiate(abstract: OperatorExpr, ctx: FieldContext = FieldContext(),
                max_field_order: int | None = None) -> FieldExpr:
    """Substitute the concrete Dirac realization into an abstract expression.

    O -> c alpha.pi, E -> e Phi, F -> e Phi + T, beta -> beta, extended to
    words as a homomorphism: each term is the product of its generators'
    images in ``FieldExpr``'s own algebra. Without a scalar potential E -> 0
    and F -> T. Unknown generators raise UnreducedWord. The optional
    truncation drops terms with mass_power + (number of field factors)
    above max_field_order, the usual weak-field bookkeeping.
    """
    images = _images(ctx)
    pieces = []
    for term in abstract.terms:
        piece = field_term(term.coeff, hbar_power=term.hbar_power,
                           mass_power=term.mass_power)
        for s in term.word:
            image = images.get(s)
            if image is None:
                raise UnreducedWord(f"no concrete substitution for generator {s.name!r}")
            piece = piece * image
        pieces.append((1, piece))
    out = FieldExpr.combine(pieces)
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
    return FieldExpr.combine((1, field_term(1, [PiAtom(i), PiAtom(i)])) for i in (1, 2, 3))


def _sigma_pi_e_pair() -> FieldExpr:
    """Sigma.[pi x E] - Sigma.[E x pi] as one block (they share monomials)."""
    return FieldExpr.combine(
        (sign * s, field_term(1, [sigma_atom(i)]) * left * right)
        for (i, j, k), s in _EPS.items()
        for sign, left, right in ((1, field_term(1, [PiAtom(j)]), e_field(k)),
                                  (-1, e_field(j), field_term(1, [PiAtom(k)]))))


@cache
def _conventional_catalog() -> tuple[tuple[str, FieldExpr], ...]:
    """(label, block) of the seven conventional blocks, built on first use."""
    pi2 = _pi_squared()
    beta_sigma_b = FieldExpr.combine((1, polarization(i) * b_field(i)) for i in (1, 2, 3))
    return (
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
    )


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
    return FieldExpr.combine(
        (coeff, block) for coeff, (_, block) in zip(_EQ13_MULTIPLES, _conventional_catalog()))
