import random
from fractions import Fraction
from math import gcd

import pytest

from fwalg import gaussrat, opalg
from fwalg.fwtransform import _binomial_series, bch_combine
from fwalg.gaussrat import GaussRat, I, _reduced, binom_coeff
from fwalg.opalg import (
    BETA, BUILTIN_SYMBOLS, E, F, MC2, O, VELOCITY, OperatorExpr, SymbolRegistry, log_series,
    mul_trunc, one, scale, zero,
)
from fwalg.shell import RECORD_SCHEMA, _int_field, _int_pair, _word_field


WORD_SYMBOLS = (BETA, O, F, E)
RAW_SYMBOLS = (BETA, O, F, E, MC2)  # m allowed in raw words pre-normalization


def rand_coeff(rng: random.Random, allow_zero: bool = False) -> GaussRat:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0)
    c = GaussRat(re, im)
    if not allow_zero and c.is_zero:
        return GaussRat(1)
    return c


def rand_raw_term(rng: random.Random, max_len: int = 4, symbols=RAW_SYMBOLS):
    length = rng.randint(0, max_len)
    w = tuple(rng.choice(symbols) for _ in range(length))
    return (rand_coeff(rng), rng.randint(-1, 2), rng.randint(0, 1), w)


def rand_expr(rng: random.Random, max_terms: int = 3, max_len: int = 4,
              symbols=WORD_SYMBOLS) -> OperatorExpr:
    n = rng.randint(1, max_terms)
    return OperatorExpr([rand_raw_term(rng, max_len, symbols) for _ in range(n)])


def rand_expr_min_weight(rng: random.Random, scheme, min_order: int = 1,
                         max_terms: int = 2, max_len: int = 3) -> OperatorExpr:
    """Random expression whose minimum order under the scheme is >= min_order."""
    while True:
        x = rand_expr(rng, max_terms, max_len)
        kept = tuple(t for t in x.terms if t.order(scheme) >= min_order)
        if kept:
            return OperatorExpr(kept)


def is_canonical(terms) -> bool:
    """Whether terms are already the normal form of their sum.

    That holds when the sort keys strictly increase (so no key repeats),
    beta is at most the first factor, no word holds the m generator and no
    coefficient is zero.
    """
    prev = None
    for t in terms:
        names = t.sort_key[3]
        if (t.coeff.is_zero or "m" in names or "beta" in names[1:]
                or (prev is not None and not prev < t.sort_key)):
            return False
        prev = t.sort_key
    return True


def _slot_set(x, name: str) -> bool:
    try:
        object.__getattribute__(x, name)
    except AttributeError:
        return False
    return True


def terms_built(x) -> bool:
    """Whether x's terms exist yet (a kernel result builds them when read)."""
    return _slot_set(x, "_terms")


def other_built(x) -> bool:
    """Whether x's entries re-sorted under its other scheme exist yet (built when asked for)."""
    return _slot_set(x, "_other")


def held_forms(x) -> dict:
    """``{kind: entries}`` of the entries x holds: its own, and the re-sorted ones once built."""
    forms = {x._kind: x._entries}
    if other_built(x):
        forms["mass" if x._kind == "velocity" else "velocity"] = x._other
    return forms


def graded_by_key(d: int, entries: list) -> tuple:
    """``(D, {(rest, has beta, mass, hbar): (order, a, b, grading)})`` of graded entries over D.

    Checks on the way that the entries are sorted by order and keyed once
    each, and that each grading is ``(vc_order, is_odd)``, without the names.
    """
    assert [e[0] for e in entries] == sorted(e[0] for e in entries)
    assert all(len(e[7]) == 2 for e in entries)
    by_key = {(rest, beta, m, h): (o, a, b, grading)
              for o, rest, beta, a, b, m, h, grading in entries}
    assert len(by_key) == len(entries)
    return d, by_key


def elimination_correction_exponent(r, scheme, max_order) -> OperatorExpr:
    """Even anti-Hermitian C with even(log(exp(C) exp(iR))) = 0 to max_order.

    The order-by-order Dynkin elimination, kept as the oracle of the
    closed-form C that ``correction_exponent`` reads from U. Built on the
    running exponent Z = log(exp(C) exp(iR)), which starts at iR: each pass
    takes the lowest even slice of Z, negated, as delta and folds it in,
    Z <- log(exp(delta) exp(Z)). Delta's order is high, so its BCH word
    table is small. C is the fold of the slices,
    exp(C) = ... exp(delta_2) exp(delta_1); such an even C is unique order
    by order, so this is the C of a from-scratch recombination per pass.
    """
    z = scale(I, r).truncate(scheme, max_order)
    c = zero()
    last = None
    for _ in range(max_order + 2):
        even = z.parity_split()[0]
        if even.is_zero:
            return c
        k = even.min_order(scheme)
        if last is not None and k <= last:
            raise AssertionError(f"even residual stalled at order {k}")
        last = k
        delta = -even.order_slice(scheme, k)
        z = bch_combine(delta, z, scheme, max_order)
        c = bch_combine(delta, c, scheme, max_order)
    raise AssertionError("even residual not exhausted within order budget")


def polar_correction_exponent(u, scheme, max_order) -> OperatorExpr:
    """C = log((1 - 2 odd(U^dag) U)^(1/2) U^dag), a second closed form.

    exp(C) U = (beta U^dag beta U)^(1/2), and U^dag U = 1 turns the
    argument into -2 odd(U^dag) U, which starts at order 1. Kept as the
    oracle of ``correction_exponent``'s series in -B^dag B (B = odd(U)) at
    orders beyond the Dynkin elimination's reach in tier-1.
    """
    u_dag = u.adjoint()
    x = scale(-2, mul_trunc(u_dag.parity_split()[1], u, scheme, max_order))
    u_corr = _binomial_series(x, Fraction(1, 2), scheme, max_order)
    return log_series(mul_trunc(u_corr, u_dag, scheme, max_order) - one(), scheme, max_order)


# -- closed forms of the free particle, H = beta mc^2 + O, at any order --------------

def _power_series(coeffs: list, alpha: Fraction, n_max: int) -> list:
    """Coefficients of (1 + w(y))^alpha through y^n_max, w(y) = sum_n coeffs[n] y^n.

    Summed as sum_k binom(alpha, k) w^k, Fraction arithmetic on the
    coefficient lists; w has no constant term, so k stops at n_max.
    """
    assert coeffs[0] == 0
    out = [Fraction(0)] * (n_max + 1)
    power = [Fraction(1)] + [Fraction(0)] * n_max
    for k in range(n_max + 1):
        c = binom_coeff(alpha, k)
        out = [a + c * p for a, p in zip(out, power)]
        power = [sum(power[i] * coeffs[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    return out


def free_fw_hamiltonian(scheme, max_order) -> OperatorExpr:
    """beta E = beta mc^2 sum_n binom(1/2, n) (O^2/m^2c^4)^n, truncated at max_order.

    E = sqrt(m^2c^4 + O^2); the words are powers of O alone, so the series
    is built term by term from ``binom_coeff``, with no operator product.
    """
    return OperatorExpr([
        (GaussRat(binom_coeff(Fraction(1, 2), n)), 2 * n - 1, 0, (BETA,) + (O,) * (2 * n))
        for n in range(max_order + 2)]).truncate(scheme, max_order)


def free_fw_unitary(max_order) -> OperatorExpr:
    """U = (E + mc^2 + beta O)/sqrt(2E(E + mc^2)), truncated at velocity order max_order.

    With y = O^2/m^2c^4 and s = (1 + y)^(1/2), E = mc^2 s and
    U = f(y) + beta (O/mc^2) g(y), where f = ((1 + 1/s)/2)^(1/2) and
    g = f/(1 + s): every factor is a function of O^2, which commutes with
    beta O. f = (1 + w)^(1/2) with w = ((1 + y)^(-1/2) - 1)/2, and
    1/(1 + s) = (1/2)(1 + v)^(-1) with v = (s - 1)/2.
    """
    n_max = max_order // 2

    def half_excess(alpha):  # ((1 + y)^alpha - 1)/2
        return [Fraction(0)] + [binom_coeff(alpha, n) / 2 for n in range(1, n_max + 1)]

    f = _power_series(half_excess(Fraction(-1, 2)), Fraction(1, 2), n_max)
    inv = [c / 2 for c in _power_series(half_excess(Fraction(1, 2)), Fraction(-1), n_max)]
    g = [sum(f[i] * inv[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    return OperatorExpr(
        [(GaussRat(f[n]), 2 * n, 0, (O,) * (2 * n)) for n in range(n_max + 1)]
        + [(GaussRat(g[n]), 2 * n + 1, 0, (BETA,) + (O,) * (2 * n + 1)) for n in range(n_max + 1)]
    ).truncate(VELOCITY, max_order)


# -- the record codec's term-path oracles --------------------------------------------

def re_pair(c: GaussRat) -> tuple[int, int]:
    """The real part as (numerator, denominator) in lowest terms, denominator > 0."""
    g = gcd(c._a, c._d)
    return c._a // g, c._d // g


def im_pair(c: GaussRat) -> tuple[int, int]:
    """The imaginary part as (numerator, denominator) in lowest terms, denominator > 0."""
    g = gcd(c._b, c._d)
    return c._b // g, c._d // g


def from_pairs(re_num: int, re_den: int, im_num: int, im_den: int) -> GaussRat:
    """re_num/re_den + (im_num/im_den) i from integers, in any terms and signs."""
    if not (re_den and im_den):
        raise ZeroDivisionError("GaussRat component with zero denominator")
    if re_den < 0:
        re_num, re_den = -re_num, -re_den
    if im_den < 0:
        im_num, im_den = -im_num, -im_den
    if not im_num or re_den == im_den:
        return _reduced(re_num, im_num, re_den)
    if not re_num:
        return _reduced(0, im_num, im_den)
    return _reduced(re_num * im_den, im_num * re_den, re_den * im_den)


def serialize_record_oracle(expr: OperatorExpr) -> dict:
    """``serialize_record`` read term by term, each term's order recomputed from its word."""
    builtin = {s.name for s in BUILTIN_SYMBOLS}
    terms = sorted(expr.terms, key=lambda t: (
        t.mass_power, t.hbar_power, len(t.word), tuple(s.name for s in t.word)))
    symbols = {}
    for t in terms:
        for s in t.word:
            if s.name not in builtin and s.name not in symbols:
                symbols[s.name] = {"parity": s.parity, "weight_vc": s.weight_vc}
    return {
        "schema": RECORD_SCHEMA,
        "symbols": symbols,
        "terms": [
            {
                "coeff_re": list(re_pair(t.coeff)),
                "coeff_im": list(im_pair(t.coeff)),
                "mass_power": t.mass_power,
                "hbar_power": t.hbar_power,
                "word": [s.name for s in t.word],
            }
            for t in terms
        ],
    }


def parse_record_oracle(data: dict) -> OperatorExpr:
    """``parse_record`` of a well-formed record dict, one ``GaussRat`` per term."""
    registry = SymbolRegistry()
    for name, info in data.get("symbols", {}).items():
        registry.register(name, info["parity"], info["weight_vc"])
    symbols = {s.name: s for s in registry.symbols()}
    raw = []
    for entry in data["terms"]:
        re_num, re_den = _int_pair(entry, "coeff_re")
        im_num, im_den = _int_pair(entry, "coeff_im")
        word = _word_field(entry, symbols)
        raw.append((from_pairs(re_num, re_den, im_num, im_den),
                    _int_field(entry, "mass_power"), _int_field(entry, "hbar_power"), word))
    return OperatorExpr(raw)


@pytest.fixture
def made(monkeypatch):
    """Counts of the ``GaussRat``s and ``Term``s made while the test runs.

    Every ``GaussRat`` is made by its constructor or by ``gaussrat._new``
    (``_triple``, ``_reduced``), and every ``Term`` by its constructor or by
    ``opalg._terms_of``; each of them is wrapped.
    """
    counts = {"GaussRat": 0, "Term": 0}
    real_new, real_init, real_terms_of = gaussrat._new, GaussRat.__init__, opalg._terms_of
    real_term_init = opalg.Term.__init__

    def new(cls, *args):
        counts["GaussRat"] += cls is GaussRat
        return real_new(cls, *args)

    def init(self, *args, **kwargs):
        counts["GaussRat"] += 1
        real_init(self, *args, **kwargs)

    def terms_of(d, rows):
        counts["Term"] += len(rows)
        return real_terms_of(d, rows)

    def term_init(self, *args):
        counts["Term"] += 1
        real_term_init(self, *args)

    monkeypatch.setattr(gaussrat, "_new", new)
    monkeypatch.setattr(GaussRat, "__init__", init)
    monkeypatch.setattr(opalg, "_terms_of", terms_of)
    monkeypatch.setattr(opalg.Term, "__init__", term_init)
    return counts


@pytest.fixture
def rng():
    return random.Random(20240811)
