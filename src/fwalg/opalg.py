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

import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .gaussrat import GaussRat, I, ONE, ZERO, _reduced

EVEN = "even"
ODD = "odd"


class AlgebraError(Exception):
    pass


class NonIncreasingOrder(AlgebraError):
    """Series exponent contains terms of order < 1 and would not terminate."""


class DuplicateSymbol(AlgebraError):
    pass


class OperatorSymbol:
    """Atomic generator with a fixed parity and velocity weight.

    Interned: constructing a ``(name, parity, weight_vc)`` triple a second
    time returns the first object, so equal symbols are identical and words
    hash and compare by identity. A builtin's name belongs to the builtin
    alone: any other parity or weight under it raises ``ValueError``.
    """

    __slots__ = ("name", "parity", "weight_vc", "is_odd")

    _interned: dict = {}
    _reserved: frozenset = frozenset()  # the builtins' names, once they exist

    def __new__(cls, name: str, parity: str, weight_vc: int):
        key = (name, parity, weight_vc)
        self = cls._interned.get(key)
        if self is None:
            if name in cls._reserved:
                raise ValueError(f"{name!r} is a builtin symbol's name")
            if parity not in (EVEN, ODD):
                raise ValueError(f"parity must be {EVEN!r} or {ODD!r}")
            if weight_vc < 0:
                raise ValueError("weight_vc must be nonnegative")
            self = cls._interned[key] = super().__new__(cls)
            self.name = name
            self.parity = parity
            self.weight_vc = weight_vc
            self.is_odd = parity == ODD
        return self

    def __reduce__(self):
        # copies and unpickled symbols go through __new__, so stay interned
        return OperatorSymbol, (self.name, self.parity, self.weight_vc)

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
OperatorSymbol._reserved = frozenset(s.name for s in BUILTIN_SYMBOLS)


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
    ``order_of(term)`` reads the term's ``vc_order`` or ``mass_power``.
    """

    __slots__ = ("kind", "order_of")

    def __init__(self, kind: str):
        if kind not in ("velocity", "mass"):
            raise ValueError("kind must be 'velocity' or 'mass'")
        self.kind = kind
        self.order_of = attrgetter("vc_order" if kind == "velocity" else "mass_power")

    def __eq__(self, other):
        return isinstance(other, WeightScheme) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"WeightScheme({self.kind!r})"


VELOCITY = WeightScheme("velocity")
MASS = WeightScheme("mass")


class Term:
    """coeff * (1/(mc^2))^mass_power * hbar^hbar_power * word.

    A read-only view of one graded entry, built by ``_terms_of`` when an
    expression's ``.terms`` is first read, and never mutated. It keeps the
    entry's grading: ``vc_order``, the summed v/c weight; ``is_odd``, whether
    the word has an odd number of odd factors; and the word's ``names``,
    which go into ``sort_key``, the canonical term order (exponents, word
    length, names).
    """

    __slots__ = ("coeff", "mass_power", "hbar_power", "word",
                 "vc_order", "is_odd", "sort_key")

    def __init__(self, coeff: GaussRat, mass_power: int, hbar_power: int,
                 word: tuple[OperatorSymbol, ...], vc_order: int, is_odd: bool,
                 names: tuple[str, ...]):
        self.coeff, self.mass_power, self.hbar_power = coeff, mass_power, hbar_power
        self.word, self.vc_order, self.is_odd = word, vc_order, is_odd
        self.sort_key = (mass_power, hbar_power, len(word), names)

    @property
    def key(self):
        return (self.word, self.mass_power, self.hbar_power)

    def order(self, scheme: WeightScheme) -> int:
        return scheme.order_of(self)

    def __repr__(self):
        names = " ".join(s.name for s in self.word) or "1"
        return f"Term({self.coeff} * {names}, u^{self.mass_power}, hbar^{self.hbar_power})"


def _normalize_raw(rows: Sequence) -> "OperatorExpr":
    """The kernel result of integer rows ``(a, b, d, mass, hbar, word)``.

    Each row is the term ``(a + b*i)/d * word``, with d nonzero and of
    either sign and the word's generators in any order. Every row is lifted
    to the lcm D > 0 of the d's, which takes d's sign into the numerators;
    one pass over each word moves beta to the front (a sign per odd
    factor it crosses), folds m into the mass power and grades the rest.
    The lifted numerators are summed by word key in the integer accumulator
    that ``OperatorExpr.combine`` fills, and leave through ``_collect``
    graded under velocity; its content gcd brings D down to the lcm of the
    reduced denominators, so rows in any terms give the canonical form.
    """
    big = lcm(*(row[2] for row in rows))
    acc: dict = {}
    for a, b, d, mass, hbar, word in rows:
        beta = odd = flip = False
        vc = 0
        rest = []
        for s in word:
            if s is BETA:
                flip ^= odd
                beta = not beta
            elif s is MC2:
                mass -= 1
            else:
                vc += s.weight_vc
                odd ^= s.is_odd
                rest.append(s)
        lift = -big // d if flip else big // d
        key = (tuple(rest), beta, mass, hbar)
        prev = acc.get(key)
        if prev is None:
            acc[key] = [a * lift, b * lift, (vc, odd), _UNGRADED]
        else:
            prev[0] += a * lift
            prev[1] += b * lift
    return _collect(acc, big, VELOCITY.kind)


def _rows(raw: Iterable) -> list:
    """The ``_normalize_raw`` rows of raw ``(coeff, mass, hbar, word)`` tuples or terms."""
    return [(c._a, c._b, c._d, m, h, w) for c, m, h, w in (
        (t.coeff, t.mass_power, t.hbar_power, t.word) if type(t) is Term else t for t in raw)]


_MINUS_ONE = -ONE


class OperatorExpr:
    """Normalized sum of terms; the universal currency of the engine.

    Immutable. Every expression is a kernel result: it holds the product
    kernel's graded form and nothing derived from it. That form is the
    scheme kind whose order sorts the entries (``_kind``), the common
    denominator D (``_d``) and the sorted entries (``_entries``); see
    ``_graded``. The constructor, ``word``, ``sym``, ``one``, ``zero``,
    records and unpickling normalize raw words straight into it
    (``_normalize_raw``). Every operation reads that form: sums, products,
    selections, scaling, the adjoint, substitution, word queries, ``len``,
    equality and hashing. Two views are built when first read
    (``__getattr__``) and kept: ``_other``, the entries re-sorted under the
    other scheme's order, and ``.terms``, a read-only view in the canonical
    term order, which iteration and ``repr`` read. Pickles and copies hold
    the terms and normalize them again, so neither view is kept.
    """

    __slots__ = ("_kind", "_d", "_entries", "_other", "_terms")

    def __new__(cls, raw: Iterable = ()):
        return _normalize_raw(_rows(raw))

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return _held(VELOCITY.kind, 1, [])

    def __getattr__(self, name):
        # Reached for an unset slot only: a view, before it is first read.
        if name == "_terms":
            value = _terms_of(*_canonical_rows(self))
        elif name == "_other":
            order = _OTHER_ORDER[self._kind]
            value = sorted([(order(e),) + e[1:] for e in self._entries], key=_entry_order)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __reduce__(self):
        return type(self), (self.terms,)

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    def __repr__(self):
        body = " + ".join(map(repr, self._terms)) or "0"
        return f"<OperatorExpr {body}>"

    # -- linear structure ----------------------------------------------------

    @classmethod
    def combine(cls, pairs: Iterable) -> "OperatorExpr":
        """The sum of ``coeff * x`` over ``(coeff, x)`` pairs, in integers.

        Every graded form enters one accumulator over the lcm of the
        ``coeff`` and form denominators, with an empty second grading, and
        leaves through ``_collect`` like a product, graded under the first
        operand's kind. No ``GaussRat`` is formed per input term.
        """
        pairs = [(GaussRat.coerce(c), x) for c, x in pairs]
        big = lcm(*(c._d * x._d for c, x in pairs))
        acc: dict = {}
        for c, x in pairs:
            lift = big // (c._d * x._d)
            p, q = c._a * lift, c._b * lift
            for _, rest, beta, a, b, m, h, grading in x._entries:
                key = (rest, beta, m, h)
                re, im = p * a - q * b, p * b + q * a
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [re, im, grading, _UNGRADED]
                else:
                    prev[0] += re
                    prev[1] += im
        return _collect(acc, big, pairs[0][1]._kind if pairs else VELOCITY.kind)

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr.combine(((ONE, self), (ONE, other)))

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr.combine(((ONE, self), (_MINUS_ONE, other)))

    def __neg__(self):
        return self._scaled(_MINUS_ONE)

    def _scaled(self, c):
        c = GaussRat.coerce(c)
        if c.is_zero:
            return OperatorExpr.zero()
        p, q = c._a, c._b
        return _reduced_result(self._kind, self._d * c._d, [
            (o, rest, beta, p * a - q * b, p * b + q * a, m, h, grading)
            for o, rest, beta, a, b, m, h, grading in self._entries])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self._scaled(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(1, 1) / other)
        return NotImplemented

    # -- comparison: D and the numerators by word key ------------------------

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return _keyed(self) == _keyed(other)

    def __hash__(self):
        d, nums = _keyed(self)
        return hash((d, frozenset(nums.items())))

    # -- word queries --------------------------------------------------------

    def coefficient(self, word_syms: Sequence[OperatorSymbol],
                    mass_power: int = 0, hbar_power: int = 0) -> GaussRat:
        w = tuple(word_syms)
        beta = w[:1] == (BETA,)
        key = (w[1:] if beta else w, beta, mass_power, hbar_power)
        for _, rest, has_beta, a, b, m, h, _ in self._entries:
            if (rest, has_beta, m, h) == key:
                return _reduced(a, b, self._d)
        return ZERO

    def contains_symbol(self, s: OperatorSymbol) -> bool:
        if s is BETA:
            return any(e[2] for e in self._entries)
        return any(s in e[1] for e in self._entries)

    # -- selection -----------------------------------------------------------

    def min_order(self, scheme: WeightScheme):
        entries = _graded(self, scheme)
        return entries[0][0] if entries else None

    def truncate(self, scheme: WeightScheme, max_order: int) -> "OperatorExpr":
        return self._window(scheme, -_NO_CAP, max_order)

    def order_slice(self, scheme: WeightScheme, order: int) -> "OperatorExpr":
        return self._window(scheme, order, order)

    def _window(self, scheme: WeightScheme, low: int, high: int) -> "OperatorExpr":
        """The terms of order low..high under scheme: one slice of its sorted form."""
        entries = _graded(self, scheme)
        return _kept(self, scheme.kind, entries[bisect_left(entries, low, key=_entry_order):
                                                bisect_right(entries, high, key=_entry_order)])

    def parity_split(self):
        """(even part, odd part) with respect to beta."""
        even, odd = [], []
        for e in self._entries:
            (odd if e[7][1] else even).append(e)
        return _kept(self, self._kind, even), _kept(self, self._kind, odd)

    # -- word products -------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, OperatorExpr):
            return self.__rmul__(other)
        return mul_trunc(self, other, VELOCITY, _NO_CAP)

    def __pow__(self, n: int) -> "OperatorExpr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = _ONE_EXPR
        for _ in range(n):
            out = out * self
        return out

    def adjoint(self) -> "OperatorExpr":
        """Each word reversed, each coefficient conjugated; no renormalization.

        A normal word ``beta r`` reverses to ``r' beta``, and beta moves back
        to the front past every factor of ``r``: one sign when r holds an odd
        number of odd factors, which is the entry's parity. The map is a
        bijection on normal words that keeps every order, so nothing merges
        and the entries stay sorted.
        """
        return _held(self._kind, self._d, [
            (o, rest[::-1], beta, -a, b, m, h, g) if beta and g[1] else
            (o, rest[::-1], beta, a, -b, m, h, g)
            for o, rest, beta, a, b, m, h, g in self._entries])

    def subs_symbol(self, old: OperatorSymbol, new: OperatorSymbol) -> "OperatorExpr":
        """Every ``old`` in the words replaced by ``new`` of the same parity.

        Each entry's word, its rest with beta put back in front, is renamed
        and normalized again, so the grading follows ``new``'s weight and
        words that become equal merge.
        """
        if old.parity != new.parity:
            raise AlgebraError("substitution must preserve parity")
        d = self._d
        return _normalize_raw([
            (a, b, d, m, h, tuple(new if s is old else s for s in (BETA,) * beta + rest))
            for _, rest, beta, a, b, m, h, _ in self._entries])


# -- the product kernel --------------------------------------------------------
#
# Every word product goes through ``_accumulate`` and ``_collect``, and works
# on graded forms: an operand's coefficients as integer numerators over one
# common denominator, its terms sorted by order, each with its word split
# into a beta flag and the rest, and the rest's grading, its v/c order and
# parity. A pair product is four integer multiplies, sums are plain integers,
# and each output term's grading is read from its two factors, not from its
# word. ``_collect`` hands the product on in the same graded form, reduced by
# one content gcd, so a bracket or a series power that feeds the next product
# is never turned into terms and graded again. Every other operation reads
# the graded form too: ``OperatorExpr.combine`` (so ``+`` and ``-``) sums
# graded forms in one integer accumulator and hands the sum on the same way;
# ``parity_split``, ``truncate``, ``order_slice`` and ``min_order`` select
# entries; ``-x``, scalar ``*`` and ``/`` (``_scaled``) multiply numerators,
# each reduced by its content gcd (``_reduced_result``); the adjoint maps
# each entry in place; ``len`` counts the entries, a coefficient is one key
# match, and equality and the hash compare D and the numerators by key. Raw
# words enter the same way: ``_normalize_raw`` sums integer rows in the
# accumulator that ``combine`` fills and hands them on through ``_collect``.
# ``_canonical_rows`` reads the form back in the canonical term order, with
# each word's names read off its symbols, for ``_terms_of`` and for the
# record codec, which writes each coefficient's parts from the numerators
# and D and reads a record straight into rows. So every expression holds a
# graded form from the start, and names, terms and ``GaussRat``s are built
# only for an expression whose terms or coefficients are read.
#
# The order of a graded form is its scheme's: velocity reads ``vc_order``,
# mass ``mass_power``; a form asked for under the other scheme is re-sorted
# once and kept. An uncapped product is the velocity product under a cap
# that no pair reaches, so an operand multiplied both ways is graded once.

_NO_CAP = sys.maxsize
_entry_order = itemgetter(0)
_name = attrgetter("name")
#: The grading of the empty word: a sum's entries pair with it in ``_collect``.
_UNGRADED = (0, False)
#: An entry's order under the scheme other than its form's kind.
_OTHER_ORDER = {VELOCITY.kind: itemgetter(5), MASS.kind: lambda e: e[7][0]}


def _graded(x: OperatorExpr, scheme: WeightScheme) -> list:
    """x's graded entries, sorted by the order of ``scheme``.

    Each coefficient is ``(a + b*i)/D``, with D (``x._d``) the lcm of the
    terms' reduced denominators. Each entry is one term, ``(order, rest,
    has beta, a, b, mass, hbar, grading)``, where ``rest`` is the word
    without its leading beta and ``grading`` the rest's ``(vc_order,
    is_odd)``; beta is even and of weight zero, so the rest's order and
    parity are the term's. x holds its entries sorted under ``x._kind``;
    under the other scheme they are x's ``_other`` view, re-sorted when
    first asked for.
    """
    return x._entries if scheme.kind == x._kind else x._other


def _keyed(x: OperatorExpr) -> tuple:
    """``(D, {(rest, has beta, mass, hbar): (a, b)})``: x's value, whatever its form's kind.

    D is the lcm of the reduced denominators, so equal expressions give
    equal pairs.
    """
    return x._d, {(rest, beta, m, h): (a, b) for _, rest, beta, a, b, m, h, _ in x._entries}


def _kept(x: OperatorExpr, kind: str, kept: list) -> OperatorExpr:
    """x if ``kept`` holds all of x's entries, else their kernel result under ``kind``."""
    return x if len(kept) == len(x._entries) else _reduced_result(kind, x._d, kept)


def _reduced_result(kind: str, d: int, entries: list) -> OperatorExpr:
    """The kernel result of entries over d, already sorted by the order of ``kind``.

    d and the numerators are divided by their content gcd, so d is the lcm
    of the reduced denominators.
    """
    g = d
    for e in entries:
        g = gcd(g, e[3], e[4])
        if g == 1:
            break
    if g != 1:
        entries = [(o, rest, beta, a // g, b // g, m, h, grading)
                   for o, rest, beta, a, b, m, h, grading in entries]
    return _held(kind, d // g, entries)


def _held(kind: str, d: int, entries: list) -> OperatorExpr:
    """A kernel result holding entries over d, sorted by the order of ``kind``, and no views."""
    out = object.__new__(OperatorExpr)
    out._kind, out._d, out._entries = kind, d, entries
    return out


def _accumulate(acc: dict, left: list, right: list, cap: int,
                negate: bool = False) -> dict:
    """Add the pair products of two operands' graded entries of order <= cap into acc.

    acc maps each output key ``(rest, has beta, mass, hbar)`` to ``[a, b,
    left grading, right grading]``: the summed numerator over ``D_left *
    D_right`` and the gradings of the first pair that formed the key. With
    ``negate`` the products are subtracted. Both words are normal, so a pair
    multiplies in O(1): the left beta stays leftmost, a right beta crosses
    the left rest (one sign per odd factor there) and the two betas cancel
    or leave one. The right entries are split by beta first, so that sign
    is taken once per left entry. The output rest is the left rest followed
    by the right one. Each list is sorted by order, so each loop stops at
    the first pair over the cap.
    """
    if not right:
        return acc
    plain = [e for e in right if not e[2]]
    crossed = [e for e in right if e[2]]
    room = cap - right[0][0]
    for oa, rest_a, beta_a, a, b, ma, ha, ga in left:
        if oa > room:
            break
        if negate:
            a, b = -a, -b
        # the right beta crosses the left rest: one sign per odd factor
        xa, xb = (-a, -b) if ga[1] else (a, b)
        for part, beta, pa, pb in ((plain, beta_a, a, b), (crossed, not beta_a, xa, xb)):
            for ob, rest, _, c, d, mb, hb, gb in part:
                if oa + ob > cap:
                    break
                key = (rest_a + rest, beta, ma + mb, ha + hb)
                re, im = pa * c - pb * d, pa * d + pb * c
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [re, im, ga, gb]
                else:
                    prev[0] += re
                    prev[1] += im
    return acc


def _collect(acc: dict, d: int, kind: str) -> OperatorExpr:
    """The kernel result of an ``_accumulate`` dict whose numerators are over d.

    Terms whose sums cancel are dropped. The others become the graded
    entries under the scheme of ``kind``: numerators and d divided by their
    one content gcd, so d is the lcm of the reduced denominators; order and
    parity are the sum and XOR of the factors'. The result holds that form
    only; its terms are built when first read.
    """
    g = d
    for v in acc.values():
        g = gcd(g, v[0], v[1])
        if g == 1:
            break
    mass = kind == "mass"
    entries = []
    for (rest, beta, m, h), (a, b, ga, gb) in acc.items():
        if a or b:
            vc = ga[0] + gb[0]
            entries.append((m if mass else vc, rest, beta, a // g, b // g,
                            m, h, (vc, ga[1] ^ gb[1])))
    entries.sort(key=_entry_order)
    return _held(kind, d // g, entries)


def _canonical_rows(x: OperatorExpr) -> tuple:
    """``(D, rows)``: x's graded entries over D, in the canonical term order.

    Each row is ``(sort key, word, a, b, vc_order, is_odd)`` for the term
    ``(a + b*i)/D * word``, with beta put back in front of the word when the
    entry has one. The sort key ``(mass, hbar, word length, names)``, with
    the names read off the word, is the canonical term order; ``_terms_of``
    and the record codec both read these rows, so the order is defined here
    alone.
    """
    rows = []
    for _, rest, beta, a, b, m, h, (vc, odd) in x._entries:
        if beta:
            rest = (BETA,) + rest
        rows.append(((m, h, len(rest), tuple(map(_name, rest))), rest, a, b, vc, odd))
    rows.sort(key=_entry_order)
    return x._d, rows


def _terms_of(d: int, rows: list) -> tuple:
    """The terms of ``_canonical_rows`` over d, one ``_reduced`` each.

    The slots are filled here rather than by a ``Term(...)`` call per row:
    every kernel result that is read comes through this loop, and the call
    made it about 9 % slower on a 352-term form (CPython 3.11).
    """
    terms = []
    new = object.__new__
    for key, w, a, b, vc, odd in rows:
        t = new(Term)
        t.coeff = _reduced(a, b, d)
        t.mass_power, t.hbar_power, t.word, t.vc_order, t.is_odd = key[0], key[1], w, vc, odd
        t.sort_key = key
        terms.append(t)
    return tuple(terms)


def mul_trunc(a: OperatorExpr, b: OperatorExpr, scheme: WeightScheme,
              max_order: int) -> OperatorExpr:
    """``(a * b).truncate(scheme, max_order)``, without forming the dropped terms.

    Both weight schemes are additive, so a pair's order is the sum of its
    factors' orders, each computed once per operand.
    """
    acc = _accumulate({}, _graded(a, scheme), _graded(b, scheme), max_order)
    return _collect(acc, a._d * b._d, scheme.kind)


# -- construction helpers ----------------------------------------------------

def word(coeff, symbols: Sequence[OperatorSymbol],
         mass_power: int = 0, hbar_power: int = 0) -> OperatorExpr:
    """Single-term expression coeff * symbols with the given exponents."""
    return OperatorExpr([(GaussRat.coerce(coeff), mass_power, hbar_power, tuple(symbols))])


def sym(s: OperatorSymbol) -> OperatorExpr:
    return word(1, [s])


_ONE_EXPR = OperatorExpr([(ONE, 0, 0, ())])


def one() -> OperatorExpr:
    return _ONE_EXPR


def zero() -> OperatorExpr:
    return OperatorExpr.zero()


# -- operations (module-level contract surface) ------------------------------

def normalize(raw) -> OperatorExpr:
    """The normal form of an iterable of raw/Term entries; an expression as it is.

    An ``OperatorExpr`` is normal already. Raw entries are ``(coeff,
    mass_power, hbar_power, word)`` tuples whose word may contain beta and
    m generators in arbitrary positions.
    """
    if isinstance(raw, OperatorExpr):
        return raw
    return OperatorExpr(raw)


def scale(c, x: OperatorExpr) -> OperatorExpr:
    return x._scaled(c)


def commutator(a: OperatorExpr, b: OperatorExpr, scheme: WeightScheme | None = None,
               max_order: int | None = None) -> OperatorExpr:
    """[a, b]; given a scheme, only its terms of order <= max_order are formed.

    ``scheme`` and ``max_order`` come together or not at all. ``ab`` and
    ``-ba`` meet in one accumulator, so terms that cancel are never built.
    """
    if (scheme is None) != (max_order is None):
        raise TypeError("commutator needs both scheme and max_order, or neither")
    if scheme is None:
        scheme, max_order = VELOCITY, _NO_CAP
    left, right = _graded(a, scheme), _graded(b, scheme)
    acc = _accumulate(_accumulate({}, left, right, max_order), right, left, max_order,
                      negate=True)
    return _collect(acc, a._d * b._d, scheme.kind)


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b + b * a


def require_order_at_least_one(x: OperatorExpr, scheme: WeightScheme, what: str):
    """x's minimum order (None for zero); NonIncreasingOrder if it is below 1.

    Only then does a series in x terminate under truncation: each power of x,
    each nested commutator with x, raises the minimum order by at least one.
    """
    low = x.min_order(scheme)
    if low is not None and low < 1:
        raise NonIncreasingOrder(f"{what} has minimum {scheme.kind} order {low}; need >= 1")
    return low


def series_sum(start: OperatorExpr, step: Callable[[OperatorExpr], OperatorExpr],
               ratio: Callable[[int], object]) -> OperatorExpr:
    """The sum of ``c_n * step^n(start)`` over n = 0, 1, ..., up to the first zero term.

    ``c_0 = 1`` and ``c_n = c_(n-1) * ratio(n)``. ``step`` is a capped
    product with, or a capped commutator by, an operand that passed
    ``require_order_at_least_one``, so some power is zero. Each ``step``
    result is a kernel result: it is graded once, handed to the next step
    as it is, and never turned into terms; every term meets the others in
    one integer sum, ``OperatorExpr.combine``, itself a kernel result.
    """
    pairs = []
    c = ONE
    n = 0
    while not start.is_zero:
        pairs.append((c, start))
        n += 1
        c = c * ratio(n)
        start = step(start)
    return OperatorExpr.combine(pairs)


def ad_exp_conjugate(s: OperatorExpr, k: OperatorExpr,
                     scheme: WeightScheme, max_order: int) -> OperatorExpr:
    """exp(iS) K exp(-iS) as the nested-commutator series, exact to max_order.

    The series sum_n (i^n/n!) ad_S^n(K) terminates under truncation because
    every application of ad_S raises the minimum order by at least one.
    S is not truncated first: a term of S above the cap still lands at or
    below it against a term of K of negative order, and the capped
    commutator forms exactly the pairs that do.
    """
    require_order_at_least_one(s, scheme, "exponent")
    return series_sum(k.truncate(scheme, max_order),
                      lambda nested: commutator(s, nested, scheme, max_order),
                      lambda n: I / n)


def exp_series(x: OperatorExpr, scheme: WeightScheme, max_order: int) -> OperatorExpr:
    """Power series of exp(x) truncated at max_order; requires min order >= 1."""
    require_order_at_least_one(x, scheme, "exponent")
    x = x.truncate(scheme, max_order)
    return series_sum(one(), lambda power: mul_trunc(power, x, scheme, max_order),
                      lambda n: Fraction(1, n))


def log_series(x: OperatorExpr, scheme: WeightScheme, max_order: int) -> OperatorExpr:
    """Power series of log(1 + x) truncated at max_order; requires min order >= 1."""
    require_order_at_least_one(x, scheme, "log argument")
    x = x.truncate(scheme, max_order)
    return series_sum(x, lambda power: mul_trunc(power, x, scheme, max_order),
                      lambda n: Fraction(-n, n + 1))
