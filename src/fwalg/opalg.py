"""Canonical noncommutative graded operator algebra.

Generators carry a parity (commuting or anticommuting with the involution
beta) and a velocity weight used for order counting. Words are free products
of generators; the only rewriting rules are

* ``beta * beta = 1``,
* ``X * beta = beta * X`` for even X and ``X * beta = -beta * X`` for odd X,
  so every beta migrates to the leftmost slot of a word,
* the rest-energy generator ``m`` (the constant mc^2 times the identity) is
  central and is folded into the mass bookkeeping exponent of each term.

A term is an exact Gaussian-rational coefficient times an integer power of
1/(mc^2), an integer power of hbar and a word of generators with beta at most
once, leftmost. An expression is the canonically ordered, merged sum of
terms. Structural equality of these normal forms is the engine's definition
of operator equality; no simplification beyond the rules above is performed.

The mass exponent may be negative: the Dirac rest term ``beta mc^2`` is the
word ``(beta,)`` carrying one net power of mc^2 (``mass_power = -1``).
Printers reinstate the paired ``m^k c^(2k)`` factors textually.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .gaussrat import GaussRat, I, ONE, ZERO

EVEN = "even"
ODD = "odd"


class AlgebraError(Exception):
    pass


class NonIncreasingOrder(AlgebraError):
    """Series exponent contains terms of order < 1 and would not terminate."""


class DuplicateSymbol(AlgebraError):
    pass


class OperatorSymbol:
    """Atomic generator with a fixed parity and velocity weight."""

    __slots__ = ("name", "parity", "weight_vc", "_hash")

    def __init__(self, name: str, parity: str, weight_vc: int):
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be {EVEN!r} or {ODD!r}")
        if weight_vc < 0:
            raise ValueError("weight_vc must be nonnegative")
        self.name = name
        self.parity = parity
        self.weight_vc = weight_vc
        self._hash = hash((name, parity, weight_vc))

    @property
    def is_odd(self) -> bool:
        return self.parity == ODD

    def __eq__(self, other):
        if isinstance(other, OperatorSymbol):
            return (
                self.name == other.name
                and self.parity == other.parity
                and self.weight_vc == other.weight_vc
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OperatorSymbol({self.name!r}, {self.parity!r}, {self.weight_vc})"


#: The beta involution (block structure marker).
BETA = OperatorSymbol("beta", EVEN, 0)
#: Generic odd operator, one power of v/c.
O = OperatorSymbol("O", ODD, 1)
#: Even working combination absorbing the time derivative, two powers of v/c.
F = OperatorSymbol("F", EVEN, 2)
#: Even potential-type operator, two powers of v/c.
E = OperatorSymbol("E", EVEN, 2)
#: Rest energy mc^2; central, folded into the mass exponent on normalization.
MC2 = OperatorSymbol("m", EVEN, 0)

BUILTIN_SYMBOLS = (BETA, O, F, E, MC2)


class SymbolRegistry:
    """Name -> symbol table. Built-ins are preloaded; names are unique."""

    def __init__(self):
        self._symbols: dict[str, OperatorSymbol] = {s.name: s for s in BUILTIN_SYMBOLS}

    def register(self, name: str, parity: str, weight_vc: int) -> OperatorSymbol:
        if name in self._symbols:
            raise DuplicateSymbol(f"symbol {name!r} is already registered")
        sym = OperatorSymbol(name, parity, weight_vc)
        self._symbols[name] = sym
        return sym

    def lookup(self, name: str) -> OperatorSymbol:
        return self._symbols[name]

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def symbols(self) -> list[OperatorSymbol]:
        return list(self._symbols.values())


class WeightScheme:
    """Order functional used for truncation.

    ``velocity`` counts the summed v/c weights of the word factors; ``mass``
    counts the net power of 1/(mc^2). Both are additive under multiplication.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("velocity", "mass"):
            raise ValueError("kind must be 'velocity' or 'mass'")
        self.kind = kind

    def order_of(self, term: "Term") -> int:
        if self.kind == "velocity":
            return sum(s.weight_vc for s in term.word)
        return term.mass_power

    def __eq__(self, other):
        return isinstance(other, WeightScheme) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"WeightScheme({self.kind!r})"


VELOCITY = WeightScheme("velocity")
MASS = WeightScheme("mass")


class Term:
    """coeff * (1/(mc^2))^mass_power * hbar^hbar_power * word."""

    __slots__ = ("coeff", "mass_power", "hbar_power", "word")

    def __init__(self, coeff: GaussRat, mass_power: int, hbar_power: int,
                 word: tuple[OperatorSymbol, ...]):
        self.coeff = coeff
        self.mass_power = mass_power
        self.hbar_power = hbar_power
        self.word = word

    @property
    def key(self):
        return (self.word, self.mass_power, self.hbar_power)

    @property
    def is_odd(self) -> bool:
        """True when the word has an odd number of odd factors."""
        return bool(sum(1 for s in self.word if s.is_odd) & 1)

    def order(self, scheme: WeightScheme) -> int:
        return scheme.order_of(self)

    def with_coeff(self, coeff: GaussRat) -> "Term":
        return Term(coeff, self.mass_power, self.hbar_power, self.word)

    def __repr__(self):
        names = " ".join(s.name for s in self.word) or "1"
        return f"Term({self.coeff} * {names}, u^{self.mass_power}, hbar^{self.hbar_power})"


def _normalize_raw(raw: Iterable) -> tuple[Term, ...]:
    acc: dict = {}
    for item in raw:
        if isinstance(item, Term):
            coeff, mass, hbar, word = item.coeff, item.mass_power, item.hbar_power, item.word
        else:
            coeff, mass, hbar, word = item
        if coeff.is_zero:
            continue
        sign = 1
        beta = 0
        odd_count = 0
        out: list[OperatorSymbol] = []
        for s in word:
            if s.name == "beta":
                if odd_count & 1:
                    sign = -sign
                beta ^= 1
            elif s.name == "m":
                mass -= 1
            else:
                if s.is_odd:
                    odd_count += 1
                out.append(s)
        normal_word = ((BETA,) if beta else ()) + tuple(out)
        key = (normal_word, mass, hbar)
        value = coeff if sign > 0 else -coeff
        prev = acc.get(key)
        acc[key] = value if prev is None else prev + value
    terms = [
        Term(c, key[1], key[2], key[0])
        for key, c in acc.items()
        if not c.is_zero
    ]
    terms.sort(key=_term_sort_key)
    return tuple(terms)


def _term_sort_key(t: Term):
    return (
        t.mass_power,
        t.hbar_power,
        len(t.word),
        tuple(s.name for s in t.word),
    )


_SCALARS = (int, Fraction, GaussRat)


class SparseSum:
    """Immutable canonical sum of terms: one term per ``term.key``, sorted.

    The core shared by both term algebras, this module's words and the
    Dirac field terms of ``diracred``. It holds every operation that needs
    nothing but term keys and coefficients; a sum of two normal forms is a
    merge of their terms, never a second normalization. A subclass
    normalizes raw input in its constructor (``_normalized=True`` accepts
    terms that are already normal), forms products and sets ``_sort_key``,
    the canonical term order. Its terms provide ``key``, ``coeff``,
    ``is_odd`` and ``with_coeff``.
    """

    __slots__ = ("_terms",)

    @classmethod
    def _new(cls, terms: tuple):
        return cls(terms, _normalized=True)

    @classmethod
    def zero(cls):
        return cls._new(())

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterator:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = {t.key: t for t in self._terms}
        for t in other._terms:
            key = t.key
            prev = acc.get(key)
            acc[key] = t if prev is None else prev.with_coeff(prev.coeff + t.coeff)
        terms = [t for t in acc.values() if not t.coeff.is_zero]
        terms.sort(key=self._sort_key)
        return self._new(tuple(terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(tuple(t.with_coeff(-t.coeff) for t in self._terms))

    def _scaled(self, c):
        c = GaussRat.coerce(c)
        if c.is_zero:
            return self._new(())
        return self._new(tuple(t.with_coeff(c * t.coeff) for t in self._terms))

    def _times_scalar(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = _times_scalar

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(1, 1) / other)
        return NotImplemented

    # -- selection -----------------------------------------------------------

    def filter(self, keep):
        """The sum of the terms for which ``keep(term)`` holds."""
        kept = tuple(t for t in self._terms if keep(t))
        return self if len(kept) == len(self._terms) else self._new(kept)

    def parity_split(self):
        """(even part, odd part) with respect to beta."""
        return self.filter(lambda t: not t.is_odd), self.filter(lambda t: t.is_odd)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return len(self._terms) == len(other._terms) and all(
            a.key == b.key and a.coeff == b.coeff
            for a, b in zip(self._terms, other._terms))

    def __hash__(self):
        return hash(tuple((t.key, t.coeff) for t in self._terms))

    def __repr__(self):
        body = " + ".join(repr(t) for t in self._terms) or "0"
        return f"<{type(self).__name__} {body}>"


class OperatorExpr(SparseSum):
    """Normalized sum of terms; the universal currency of the engine.

    Immutable after construction. All arithmetic returns new normalized
    expressions, so results are independent of evaluation order.
    """

    __slots__ = ()

    _sort_key = staticmethod(_term_sort_key)

    def __init__(self, terms: Sequence = (), _normalized: bool = False):
        self._terms = terms if _normalized else _normalize_raw(terms)

    # Bound on the class itself, because bench/tracing.py wraps
    # OperatorExpr's own __add__ to count additions.
    __add__ = SparseSum.__add__

    @classmethod
    def one(cls) -> "OperatorExpr":
        return _ONE_EXPR

    # -- word queries --------------------------------------------------------

    def coefficient(self, word_syms: Sequence[OperatorSymbol],
                    mass_power: int = 0, hbar_power: int = 0) -> GaussRat:
        key = (tuple(word_syms), mass_power, hbar_power)
        for t in self._terms:
            if t.key == key:
                return t.coeff
        return ZERO

    def min_order(self, scheme: WeightScheme):
        if not self._terms:
            return None
        return min(t.order(scheme) for t in self._terms)

    def truncate(self, scheme: WeightScheme, max_order: int) -> "OperatorExpr":
        return self.filter(lambda t: t.order(scheme) <= max_order)

    def order_slice(self, scheme: WeightScheme, order: int) -> "OperatorExpr":
        return self.filter(lambda t: t.order(scheme) == order)

    def contains_symbol(self, s: OperatorSymbol) -> bool:
        return any(s in t.word for t in self._terms)

    # -- word products -------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, OperatorExpr):
            return self._times_scalar(other)
        raw = []
        for a in self._terms:
            for b in other._terms:
                raw.append((
                    a.coeff * b.coeff,
                    a.mass_power + b.mass_power,
                    a.hbar_power + b.hbar_power,
                    a.word + b.word,
                ))
        return OperatorExpr(raw)

    def __pow__(self, n: int) -> "OperatorExpr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = OperatorExpr.one()
        for _ in range(n):
            out = out * self
        return out

    def adjoint(self) -> "OperatorExpr":
        return OperatorExpr([
            (t.coeff.conjugate(), t.mass_power, t.hbar_power, t.word[::-1])
            for t in self._terms
        ])

    def subs_symbol(self, old: OperatorSymbol, new: OperatorSymbol) -> "OperatorExpr":
        if old.parity != new.parity:
            raise AlgebraError("substitution must preserve parity")
        raw = []
        for t in self._terms:
            w = tuple(new if s == old else s for s in t.word)
            raw.append((t.coeff, t.mass_power, t.hbar_power, w))
        return OperatorExpr(raw)


_ONE_EXPR = OperatorExpr((Term(ONE, 0, 0, ()),), _normalized=True)


# -- construction helpers ----------------------------------------------------

def word(coeff, symbols: Sequence[OperatorSymbol],
         mass_power: int = 0, hbar_power: int = 0) -> OperatorExpr:
    """Single-term expression coeff * symbols with the given exponents."""
    return OperatorExpr([(GaussRat.coerce(coeff), mass_power, hbar_power, tuple(symbols))])


def sym(s: OperatorSymbol) -> OperatorExpr:
    return word(1, [s])


def one() -> OperatorExpr:
    return _ONE_EXPR


def zero() -> OperatorExpr:
    return OperatorExpr.zero()


# -- operations (module-level contract surface) ------------------------------

def normalize(raw) -> OperatorExpr:
    """Normalize an expression or an iterable of raw/Term entries.

    Raw entries are ``(coeff, mass_power, hbar_power, word)`` tuples whose
    word may contain beta and m generators in arbitrary positions.
    """
    if isinstance(raw, OperatorExpr):
        return OperatorExpr(raw.terms)
    return OperatorExpr(list(raw))


def scale(c, x: SparseSum) -> SparseSum:
    return x._scaled(c)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b - b * a


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b + b * a


def ad_exp_conjugate(s: OperatorExpr, k: OperatorExpr,
                     scheme: WeightScheme, max_order: int) -> OperatorExpr:
    """exp(iS) K exp(-iS) as the nested-commutator series, exact to max_order.

    The series sum_n (i^n/n!) ad_S^n(K) terminates under truncation because
    every application of ad_S raises the minimum order by at least one.
    """
    result = k.truncate(scheme, max_order)
    if s.is_zero:
        return result
    s_min = s.min_order(scheme)
    if s_min < 1:
        raise NonIncreasingOrder(
            f"exponent has minimum {scheme.kind} order {s_min}; need >= 1"
        )
    s = s.truncate(scheme, max_order)
    nested = result
    factor = ONE
    n = 0
    while True:
        n += 1
        factor = factor * I / n
        nested = commutator(s, nested).truncate(scheme, max_order)
        if nested.is_zero:
            break
        result = result + scale(factor, nested)
    return result


def exp_series(x: OperatorExpr, scheme: WeightScheme, max_order: int) -> OperatorExpr:
    """Power series of exp(x) truncated at max_order; requires min order >= 1."""
    if x.is_zero:
        return one()
    x_min = x.min_order(scheme)
    if x_min < 1:
        raise NonIncreasingOrder(
            f"exponent has minimum {scheme.kind} order {x_min}; need >= 1"
        )
    x = x.truncate(scheme, max_order)
    result = one()
    power = one()
    factor = Fraction(1)
    n = 0
    while True:
        n += 1
        factor = factor / n
        power = (power * x).truncate(scheme, max_order)
        if power.is_zero:
            break
        result = result + scale(factor, power)
    return result
