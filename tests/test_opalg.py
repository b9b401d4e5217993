import copy
import pickle
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from fwalg.gaussrat import GaussRat, I, binom_coeff
from fwalg.opalg import (
    BETA, E, F, MASS, MC2, O, VELOCITY, NonIncreasingOrder, OperatorExpr,
    OperatorSymbol, SymbolRegistry, DuplicateSymbol, ad_exp_conjugate, anticommutator,
    commutator, exp_series, mul_trunc, normalize, one, scale, sym, word, zero,
    Term, _canonical_rows, _graded, _normalize_raw, _terms_of,
)
from fwalg.shell import parse_record, parse_spec, serialize_record

from conftest import (
    RAW_SYMBOLS, graded_by_key, held_forms, is_canonical, other_built, rand_coeff, rand_expr,
    rand_raw_term, terms_built,
)

b, o, f, e = sym(BETA), sym(O), sym(F), sym(E)


def mass_term():
    return word(1, [BETA], mass_power=-1)


# -- normalization -------------------------------------------------------------

def test_beta_squared_is_identity():
    assert b * b == one()


def test_odd_beta_swap():
    assert o * b == -(b * o)


def test_merge_after_rewriting():
    assert b * o + o * b + b * o == b * o


def test_mc2_generator_folds_into_mass_power():
    assert sym(MC2) * word(1, [O], mass_power=1) == o
    assert word(1, [MC2, BETA, MC2]) == word(1, [BETA], mass_power=-2)


def test_normalize_accepts_raw_terms():
    raw = [(GaussRat(1), 0, 0, (O, BETA, O, BETA))]
    # O beta O beta = -O O beta beta = -O^2
    assert normalize(raw) == -(o * o)


def test_normalize_idempotent_on_expressions():
    x = b * o * f + e * o - word(Fraction(2, 3), [BETA, F])
    assert normalize(normalize(x)) == normalize(x)
    assert normalize(x) is x  # an expression is normal already


# -- ring operations --------------------------------------------------------------

def test_mul_example_beta_o_squared():
    assert (b * o) * (b * o) == -(o * o)


def test_mul_identity_and_additive_inverse(rng):
    for _ in range(50):
        x = rand_expr(rng)
        assert x * one() == x
        assert one() * x == x
        assert x + scale(-1, x) == zero()


def test_mul_associative_distributive(rng):
    for _ in range(300):
        x, y, z = (rand_expr(rng, max_terms=2, max_len=3) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def _concatenated(x, y, sign=1):
    """Raw terms of sign * x y: every pair's words concatenated, nothing else."""
    return [(sign * s.coeff * t.coeff, s.mass_power + t.mass_power,
             s.hbar_power + t.hbar_power, s.word + t.word) for s in x for t in y]


def _assert_kernel_matches_definition(x, y, scheme, k):
    """Every product route equals normalize-the-concatenation, then truncate."""
    product = normalize(_concatenated(x, y))
    bracket = normalize(_concatenated(x, y) + _concatenated(y, x, -1))
    assert x * y == product
    assert mul_trunc(x, y, scheme, k) == product.truncate(scheme, k)
    assert commutator(x, y) == bracket
    assert commutator(x, y, scheme, k) == bracket.truncate(scheme, k)
    return product, bracket


def test_product_kernel_matches_definition(rng):
    # raw operands with m and negative mass powers; half of them beta-leading
    dropped = kept = 0
    for scheme in (VELOCITY, MASS):
        for _ in range(200):
            x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
            y = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
            if rng.random() < 0.5:
                x = b * x
            k = rng.randint(-2, 6)
            product, _ = _assert_kernel_matches_definition(x, y, scheme, k)
            full = product.truncate(scheme, k)
            dropped += len(full) < len(product)
            kept += not full.is_zero
    assert dropped > 50 and kept > 50


#: Fermat numbers 2**(2**n) + 1 are pairwise coprime; these are all past 2**64.
_COPRIME_DENOMINATORS = [2 ** (2 ** n) + 1 for n in range(6, 12)]


def _big_coeff(rng):
    """A real, imaginary or complex coefficient over pairwise coprime denominators."""
    re_den, im_den = rng.sample(_COPRIME_DENOMINATORS, 2)
    re = Fraction(rng.randint(1, 2 ** 70) * rng.choice((-1, 1)), re_den)
    im = Fraction(rng.randint(1, 2 ** 70) * rng.choice((-1, 1)), im_den)
    return GaussRat(*rng.choice(((re, 0), (0, im), (re, im))))


def test_product_kernel_big_coprime_denominators_and_cancelling_brackets(rng):
    parts = {"real": 0, "imaginary": 0, "complex": 0}
    cancelled = partial = 0
    for scheme in (VELOCITY, MASS):
        for _ in range(60):
            x, y = (normalize((_big_coeff(rng), *rand_raw_term(rng)[1:]) for _ in range(3))
                    for _ in range(2))
            if rng.random() < 0.5:
                x = b * x
            k = rng.randint(-1, 6)
            _assert_kernel_matches_definition(x, y, scheme, k)
            # [x, 2x] cancels completely; in [x, x + y] the x x pairs cancel
            _, full = _assert_kernel_matches_definition(x, 2 * x, scheme, k)
            assert full.is_zero
            _, part = _assert_kernel_matches_definition(x, x + y, scheme, k)
            assert part == commutator(x, y)
            cancelled += not (x * x).is_zero
            partial += not part.is_zero
            for t in x:
                parts["complex" if t.coeff.re and t.coeff.im
                      else "real" if t.coeff.re else "imaginary"] += 1
    assert min(parts.values()) > 20 and cancelled > 50 and partial > 50


def test_operand_graded_under_each_order_function(rng):
    # the same operands graded under the velocity and mass orders, capped and
    # uncapped, and again, each result against its definition
    for _ in range(60):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        y = b * rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        product = normalize(_concatenated(x, y))
        k = rng.randint(-1, 5)
        for _ in range(2):
            assert mul_trunc(x, y, VELOCITY, k) == product.truncate(VELOCITY, k)
            assert mul_trunc(x, y, MASS, k - 1) == product.truncate(MASS, k - 1)
            assert x * y == product
            assert mul_trunc(y, y, MASS, k) == normalize(_concatenated(y, y)).truncate(MASS, k)


def test_operand_graded_once_for_uncapped_and_velocity_products(rng):
    # an uncapped product is the velocity product under no cap, so an operand
    # multiplied both ways holds one graded form
    for _ in range(30):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        y = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        x * y, commutator(x, y), mul_trunc(x, y, VELOCITY, rng.randint(0, 5))
        assert x._kind == y._kind == "velocity" and not (other_built(x) or other_built(y))


def test_grade_cache_ignored_by_equality_hash_pickle_and_copy(rng):
    # a pickle or copy holds the terms; what it gives back holds the one
    # velocity form of a fresh expression, not the mass form x took on
    for _ in range(30):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        fresh = OperatorExpr(x.terms)
        plain_pickle = pickle.dumps(fresh)
        x * x, mul_trunc(x, x, VELOCITY, 3), commutator(x, x, MASS, 2)
        assert x._kind == fresh._kind == "velocity" and other_built(x) and not other_built(fresh)
        assert x == fresh and hash(x) == hash(fresh)
        assert pickle.dumps(x) == plain_pickle
        for back in (pickle.loads(plain_pickle), pickle.loads(pickle.dumps(x)),
                     copy.deepcopy(x), copy.copy(x)):
            assert back._kind == "velocity" and not other_built(back)
            assert back == x and hash(back) == hash(x)
            assert back * back == x * x


def test_scalar_ops():
    assert 2 * o == o + o
    assert o / 2 + o / 2 == o
    assert Fraction(1, 3) * (3 * f) == f
    assert (b * o) ** 2 == -(o * o)
    assert f ** 0 == one()


# -- commutators --------------------------------------------------------------------

def test_commutator_beta_odd():
    assert commutator(b, o) == 2 * (b * o)


def test_commutator_beta_even_vanishes():
    assert commutator(b, f).is_zero


def test_commutator_stays_formal():
    x = commutator(o, f)
    assert x == o * f - f * o
    assert len(x) == 2


@pytest.mark.parametrize("cap", [{"scheme": VELOCITY}, {"max_order": 3}],
                         ids=["scheme-only", "max_order-only"])
def test_commutator_rejects_half_a_cap(cap):
    with pytest.raises(TypeError, match="both scheme and max_order"):
        commutator(o, f, **cap)


def test_nested_commutator_identity():
    # [[O,F],[[O,F],F]] - [[O,[[O,F],F]],F] = -[O,[[[O,F],F],F]]
    x = commutator(o, f)
    w = commutator(x, f)
    lhs = commutator(x, w) - commutator(commutator(o, w), f)
    rhs = -commutator(o, commutator(w, f))
    assert lhs == rhs


def test_commutator_properties(rng):
    for _ in range(300):
        x, y, z = (rand_expr(rng, max_terms=2, max_len=3) for _ in range(3))
        assert commutator(x, y) == -commutator(y, x)
        jac = (commutator(x, commutator(y, z))
               + commutator(y, commutator(z, x))
               + commutator(z, commutator(x, y)))
        assert jac.is_zero
        assert anticommutator(x, y) == anticommutator(y, x)


def test_commutator_bilinear(rng):
    for _ in range(200):
        x, y, z = (rand_expr(rng, max_terms=2, max_len=3) for _ in range(3))
        c = GaussRat(Fraction(3, 2), Fraction(-1, 3))
        assert commutator(x + scale(c, y), z) \
            == commutator(x, z) + scale(c, commutator(y, z))
        assert commutator(z, x + scale(c, y)) \
            == commutator(z, x) + scale(c, commutator(z, y))


# -- adjoint -----------------------------------------------------------------------

def test_adjoint_i_beta_o_is_self_adjoint():
    x = scale(I, b * o)
    assert x.adjoint() == x


def test_adjoint_generator():
    assert f.adjoint() == f


def test_adjoint_involution_and_antihomomorphism(rng):
    for _ in range(300):
        x = rand_expr(rng)
        y = rand_expr(rng)
        assert x.adjoint().adjoint() == x
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()


def test_adjoint_equals_normal_form_of_reversed_words(rng):
    # beta and odd generators stand anywhere in the raw words, so the normal
    # words reached have a leading beta or none and either parity
    seen = set()
    for _ in range(300):
        x = rand_expr(rng, max_terms=5, max_len=6, symbols=RAW_SYMBOLS)
        expected = normalize([(t.coeff.conjugate(), t.mass_power, t.hbar_power, t.word[::-1])
                              for t in x])
        assert x.adjoint() == expected
        _assert_grading_fresh(x.adjoint())
        seen.update((bool(t.word) and t.word[0] is BETA, t.is_odd) for t in x)
    assert len(seen) == 4


# -- parity ------------------------------------------------------------------------

def test_parity_split_dirac_form():
    h = mass_term() + e + o
    even, odd = h.parity_split()
    assert even == mass_term() + e
    assert odd == o


def test_parity_split_two_odd_factors_even():
    x = o * f * o
    even, odd = x.parity_split()
    assert even == x and odd.is_zero


def test_parity_split_commutator_odd():
    x = commutator(o, f)
    even, odd = x.parity_split()
    assert even.is_zero and odd == x


def test_parity_beta_relations(rng):
    for _ in range(300):
        x = rand_expr(rng)
        even, odd = x.parity_split()
        assert even + odd == x
        assert (b * even - even * b).is_zero
        assert (b * odd + odd * b).is_zero


# -- weight schemes and truncation ----------------------------------------------------

def test_velocity_truncation_keeps_order6_drops_order8():
    keep = word(Fraction(3, 64), [], mass_power=4) * anticommutator(
        o * o, commutator(o, commutator(o, f)))
    drop = word(1, [], mass_power=5) * anticommutator(o * o, commutator(o, f) ** 2)
    total = keep + drop
    assert total.truncate(VELOCITY, 6) == keep
    assert all(t.order(VELOCITY) == 8 for t in drop.terms)


def test_truncate_identity_when_order_high(rng):
    for _ in range(50):
        x = rand_expr(rng)
        assert x.truncate(VELOCITY, 100) == x
        assert x.truncate(MASS, 100) == x


def test_truncate_idempotent(rng):
    for _ in range(50):
        x = rand_expr(rng)
        for scheme in (VELOCITY, MASS):
            t = x.truncate(scheme, 3)
            assert t.truncate(scheme, 3) == t


def test_order_additive_under_mul(rng):
    for _ in range(300):
        a = OperatorExpr([rand_raw_term(rng, max_len=3)])
        bterm = OperatorExpr([rand_raw_term(rng, max_len=3)])
        prod = a * bterm
        assert len(prod) == 1
        for scheme in (VELOCITY, MASS):
            assert (prod.min_order(scheme)
                    == a.min_order(scheme) + bterm.min_order(scheme))


# -- term grading ------------------------------------------------------------------

def _fresh_grading(t):
    """Velocity order, parity and sort key recomputed from the word."""
    return (sum(s.weight_vc for s in t.word),
            sum(1 for s in t.word if s.parity == "odd") % 2 == 1,
            (t.mass_power, t.hbar_power, len(t.word), tuple(s.name for s in t.word)))


def _assert_grading_fresh(x):
    keys = []
    for t in x.terms:
        fresh = _fresh_grading(t)
        assert (t.vc_order, t.is_odd, t.sort_key) == fresh
        assert t.order(VELOCITY) == fresh[0]
        assert t.order(MASS) == t.mass_power
        keys.append(fresh[2])
    assert keys == sorted(keys)


def test_term_caches_match_recomputation(rng):
    for _ in range(150):
        x, y = (rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS) for _ in range(2))
        k = rng.randint(0, 6)
        derived = [
            x * y, y * x, mul_trunc(x, y, VELOCITY, k), mul_trunc(y, x, MASS, k - 2),
            x + y, x - y, -x, scale(I, x), x.adjoint(), x.adjoint() + y,
            y.truncate(VELOCITY, k),
            commutator(x, y, VELOCITY, k), commutator(x, y), commutator(y, x, MASS, k - 2),
            commutator(x, x + y), commutator(x + y, x, VELOCITY, k), *x.parity_split(),
            OperatorExpr(tuple(_recoeff(t, 2 * t.coeff) for t in x.terms)),
            _normalize_raw(_rows_of([rand_raw_term(rng) for _ in range(5)], rng)),
            OperatorExpr.combine([(2, x), (I, y), (-1, x * y)]),
            pickle.loads(pickle.dumps(x)), copy.deepcopy(y),
        ]
        for z in derived:
            _assert_grading_fresh(z)
            _assert_grading_fresh(z + x)
            assert len(z) == len(z.terms)


_Q = OperatorSymbol("Q", "odd", 3)


def _raw_anywhere(rng, max_len=5):
    """Raw terms with beta and m put anywhere in their words, Q among the others."""
    raw = []
    for _ in range(rng.randint(1, 4)):
        c, mass, hbar, w = rand_raw_term(rng, max_len=max_len, symbols=RAW_SYMBOLS + (_Q,))
        w = list(w)
        for s in (BETA, MC2, BETA):
            w.insert(rng.randint(0, len(w)), s)
        raw.append((c, mass, hbar, tuple(w)))
    return raw


def _rows_of(raw, rng):
    """``_normalize_raw`` rows of raw terms, each pair in random terms and signs."""
    rows = []
    for c, mass, hbar, w in raw:
        k = rng.choice((1, -1, 2, -3, 12))
        rows.append((k * c._a, k * c._b, k * c._d, mass, hbar, w))
    return rows


def _by_products(raw):
    """The sum of raw terms, each word multiplied out factor by factor."""
    expected = zero()
    for c, mass, hbar, w in raw:
        product = word(c, [], mass, hbar)
        for s in w:
            product = product * sym(s)
        expected = expected + product
    return expected


def test_normalize_raw_grades_words_with_beta_and_m_anywhere(rng):
    # the oracle multiplies each word out factor by factor in the product kernel
    for _ in range(200):
        raw = _raw_anywhere(rng)
        x = _normalize_raw(_rows_of(raw, rng))
        _assert_grading_fresh(x)
        assert all(MC2 not in t.word and BETA not in t.word[1:] for t in x)
        assert x == _by_products(raw)


def test_kernel_results_hand_on_the_graded_form_of_their_terms(rng):
    # what a commutator or a capped product hands to the next product is the
    # graded form of its own terms: the same D and numerators per word key
    for _ in range(80):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        y = scale(Fraction(1, rng.choice((2, 3, 6))), rand_expr(rng, max_terms=4))
        k = rng.randint(0, 6)
        for scheme, results in (
                (VELOCITY, (commutator(x, y, VELOCITY, k), mul_trunc(x, y, VELOCITY, k))),
                (MASS, (commutator(y, x, MASS, k - 2), mul_trunc(y, x, MASS, k - 2))),
                (VELOCITY, (commutator(x, y), x * y))):
            for r in results:
                assert r._kind == scheme.kind and not other_built(r)
                handed = graded_by_key(r._d, r._entries)
                assert handed == graded_by_key(*_graded_terms(r.terms, scheme))


def _graded_terms(terms, scheme):
    """The graded form of canonical terms under ``scheme``, read term by term.

    The oracle for the form every expression holds.
    """
    order = scheme.order_of
    terms = sorted(terms, key=order)
    d = lcm(*(t.coeff._d for t in terms))
    entries = []
    for t in terms:
        c = t.coeff
        a, b = c._a * (d // c._d), c._b * (d // c._d)
        w = t.word
        beta = bool(w) and w[0] is BETA
        entries.append((order(t), w[1:] if beta else w, beta, a, b, t.mass_power,
                        t.hbar_power, (t.vc_order, t.is_odd)))
    return d, entries


def _made_from_raw(rng):
    raw = _raw_anywhere(rng)
    return OperatorExpr(raw), _by_products(raw)


def _made_from_terms(rng):
    x, y = (rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS) for _ in range(2))
    return OperatorExpr(list(x.terms) + list(y.terms) + list(x.terms)), x + y + x


def _made_by_word(rng):
    c, mass, hbar, w = rand_raw_term(rng, symbols=RAW_SYMBOLS + (_Q,))
    return word(c, w, mass, hbar), _by_products([(c, mass, hbar, w)])


def _made_by_sym(rng):
    s = rng.choice(RAW_SYMBOLS + (_Q,))
    return sym(s), _by_products([(GaussRat(1), 0, 0, (s,))])


def _made_from_record(rng, shuffled=False):
    x = rand_expr(rng, max_terms=5, symbols=(BETA, O, F, E, _Q))
    record = serialize_record(x)
    if shuffled:
        rng.shuffle(record["terms"])
    return parse_record(record), x


def _made_by_subs_symbol(rng):
    # O (weight 1) becomes Q (weight 3) beside Q's own terms, so words merge;
    # the oracle renames the words of the terms and normalizes them
    x = rand_expr(rng, max_terms=5, symbols=(BETA, O, F, _Q))
    return x.subs_symbol(O, _Q), normalize(
        (t.coeff, t.mass_power, t.hbar_power, tuple(_Q if s is O else s for s in t.word))
        for t in x.terms)


def _copied(copier):
    def made(rng):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        x.min_order(MASS)  # x takes on a mass form as well, which a copy does not keep
        return copier(x), x
    return made


_MAKERS = {
    "raw": _made_from_raw,
    "terms": _made_from_terms,
    "word": _made_by_word,
    "sym": _made_by_sym,
    "one": lambda rng: (one(), _by_products([(GaussRat(1), 0, 0, ())])),
    "zero": lambda rng: (zero(), one() - one()),
    "record": _made_from_record,
    "shuffled-record": lambda rng: _made_from_record(rng, shuffled=True),
    "subs_symbol": _made_by_subs_symbol,
    "pickle": _copied(lambda x: pickle.loads(pickle.dumps(x))),
    "copy": _copied(copy.copy),
    "deepcopy": _copied(copy.deepcopy),
}


@pytest.mark.parametrize("make", _MAKERS.values(), ids=_MAKERS.keys())
def test_every_way_of_making_an_expression_gives_one_graded_form(rng, make):
    # each expression holds the velocity form it was made with and no terms
    # (one() is shared, so earlier reads may have added its mass form and
    # terms); under both orders the form equals the oracle's grading of the
    # expression's own terms
    for _ in range(30):
        x, expected = make(rng)
        assert x._kind == "velocity"
        assert x is one() or not (other_built(x) or terms_built(x))
        assert x == expected
        for scheme in (VELOCITY, MASS):
            assert graded_by_key(x._d, _graded(x, scheme)) == graded_by_key(
                *_graded_terms(x.terms, scheme))
        assert is_canonical(x.terms)
        _assert_grading_fresh(x)


def test_combine_hands_on_a_graded_form_equal_to_the_term_sum(rng):
    # operands in velocity and mass kernel forms, mixed; the oracle
    # normalizes the scaled terms of every operand together
    kinds = set()
    for _ in range(120):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        y = scale(Fraction(1, rng.choice((2, 3, 6))), rand_expr(rng, max_terms=4))
        k = rng.randint(-1, 5)
        operands = [x, y, mul_trunc(x, y, MASS, k), commutator(y, x, VELOCITY, k), x * y]
        rng.shuffle(operands)
        pairs = [(rand_coeff(rng), z) for z in operands[:rng.randint(1, 5)]]
        out = OperatorExpr.combine(pairs)
        assert not terms_built(out) and not any(terms_built(z) for _, z in pairs)
        kind = out._kind
        assert not other_built(out)
        kinds.add(kind)
        oracle = normalize([(c * t.coeff, t.mass_power, t.hbar_power, t.word)
                            for c, z in pairs for t in z])
        assert out == oracle
        _assert_grading_fresh(out)
        scheme = MASS if kind == "mass" else VELOCITY
        assert graded_by_key(out._d, out._entries) == graded_by_key(
            *_graded_terms(out.terms, scheme))
        again = OperatorExpr.combine([(1, out), (-1, oracle)])
        assert again.is_zero and not terms_built(again) and again.terms == ()
    assert kinds == {"velocity", "mass"}
    assert OperatorExpr.combine([]) == zero()


# -- the term path of each operation, kept as the graded operations' oracle ---------

def _recoeff(t, c):
    """The ``Term`` t with coefficient c."""
    return Term(c, t.mass_power, t.hbar_power, t.word, t.vc_order, t.is_odd, t.sort_key[3])


def _from_terms(terms):
    return OperatorExpr(tuple(terms))


def _term_filter(x, keep):
    return _from_terms(t for t in x.terms if keep(t))


def _term_scaled(x, c):
    c = GaussRat.coerce(c)
    return _from_terms(() if c.is_zero else (_recoeff(t, c * t.coeff) for t in x.terms))


def _term_min_order(x, scheme):
    return min((t.order(scheme) for t in x.terms), default=None)


def _term_adjoint(x):
    terms = []
    for t in x.terms:
        w, names, c = t.word, t.sort_key[3], t.coeff.conjugate()
        if w and w[0] is BETA:
            w, names = (BETA,) + w[:0:-1], ("beta",) + names[:0:-1]
            if t.is_odd:
                c = -c
        else:
            w, names = w[::-1], names[::-1]
        terms.append(Term(c, t.mass_power, t.hbar_power, w, t.vc_order, t.is_odd, names))
    terms.sort(key=lambda t: t.sort_key)
    return _from_terms(terms)


def _term_coefficient(x, word_syms, mass_power=0, hbar_power=0):
    key = (tuple(word_syms), mass_power, hbar_power)
    for t in x.terms:
        if t.key == key:
            return t.coeff
    return GaussRat(0)


def _term_contains_symbol(x, s):
    return any(s in t.word for t in x.terms)


def _term_equal(x, y):
    return len(x.terms) == len(y.terms) and all(
        a.key == b.key and a.coeff == b.coeff for a, b in zip(x.terms, y.terms))


def _term_hash_key(x):
    return tuple((t.key, t.coeff) for t in x.terms)


def _kernel_results(x, y, k):
    """Makers of velocity and mass kernel results: products, brackets and sums."""
    return (
        lambda: mul_trunc(x, y, VELOCITY, k), lambda: mul_trunc(y, x, MASS, k - 2),
        lambda: commutator(x, y, VELOCITY, k), lambda: commutator(y, x, MASS, k - 2),
        lambda: OperatorExpr.combine([(I, mul_trunc(y, x, MASS, k)), (2, x * y)]),
        lambda: OperatorExpr.combine([(2, x * y), (-1, mul_trunc(y, x, MASS, k))]))


def test_selection_on_the_graded_form_equals_term_selection(rng):
    # velocity and mass kernel results of products, brackets and sums, each
    # selected, scaled, negated and counted under both schemes while its
    # terms are unread; the oracle is the term path on the same terms. A
    # window under the scheme a result is not graded by re-sorts its form,
    # kept beside it.
    schemes = {"velocity": VELOCITY, "mass": MASS}
    seen = set()
    for _ in range(40):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS)
        y = scale(Fraction(1, rng.choice((2, 3, 6))), rand_expr(rng, max_terms=4))
        k = rng.randint(0, 6)
        for make in _kernel_results(x, y, k):
            oracle_in = _from_terms(make().terms)
            for scheme in (VELOCITY, MASS):
                orders = sorted({t.order(scheme) for t in oracle_in}) or [0]
                cuts = [orders[0] - 1, *orders, orders[-1] + 1]
                c = rng.choice((3, -6, Fraction(2, 3), GaussRat(0, Fraction(1, 3)),
                                GaussRat(Fraction(3, 2), 3)))

                def window(lo, hi):
                    return lambda z: _term_filter(z, lambda t: lo <= t.order(scheme) <= hi)

                ops = [(lambda z: z.min_order(scheme), lambda z: _term_min_order(z, scheme)),
                       (OperatorExpr.parity_split,
                        lambda z: (_term_filter(z, lambda t: not t.is_odd),
                                   _term_filter(z, lambda t: t.is_odd))),
                       (lambda z: -z, lambda z: _term_scaled(z, -1)),
                       (lambda z: scale(c, z), lambda z: _term_scaled(z, c)),
                       (lambda z: 2 * z, lambda z: _term_scaled(z, 2)),
                       (lambda z: z / 3, lambda z: _term_scaled(z, Fraction(1, 3))),
                       (len, lambda z: len(z.terms))]
                ops += [(lambda z, n=n: z.truncate(scheme, n), window(-10 ** 9, n))
                        for n in cuts]
                ops += [(lambda z, n=n: z.order_slice(scheme, n), window(n, n)) for n in cuts]
                for op, term_op in ops:
                    r = make()
                    kind = r._kind
                    assert not other_built(r)
                    out, expected = op(r), term_op(oracle_in)
                    assert not terms_built(r)
                    results = out if isinstance(out, tuple) else (out,)
                    results = [z for z in results if isinstance(z, OperatorExpr)]
                    assert not any(terms_built(z) for z in results)
                    if results:
                        expected = expected if isinstance(expected, tuple) else (expected,)
                        assert all(map(_term_equal, results, expected))
                    else:
                        assert out == expected
                    for z in results:
                        assert set(held_forms(z)) <= {kind, scheme.kind}
                        _assert_grading_fresh(z)
                        for held, entries in held_forms(z).items():
                            assert graded_by_key(z._d, entries) == graded_by_key(
                                *_graded_terms(z.terms, schemes[held]))
                        seen.add("nothing" if z.is_zero else
                                 "everything" if z is r else "some")
                    seen.add((kind, scheme.kind))
    assert seen == {"nothing", "everything", "some", *(
        (a, b) for a in schemes for b in schemes)}


def test_graded_queries_equal_the_term_path(rng):
    # adjoint, coefficient, contains_symbol, len, == and hash on velocity
    # and mass kernel results, raw operands among them, against the term
    # path each replaced; a result's terms stay unbuilt throughout
    q = OperatorSymbol("Q", "odd", 3)
    symbols = (BETA, O, F, E, MC2, q)
    schemes = {"velocity": VELOCITY, "mass": MASS}
    pool, kinds = [], set()
    for _ in range(40):
        x = rand_expr(rng, max_terms=4, symbols=RAW_SYMBOLS + (q,))
        y = scale(Fraction(1, rng.choice((2, 3, 6))), rand_expr(rng, max_terms=4))
        k = rng.randint(0, 6)
        operands = [x, y, *(make() for make in _kernel_results(x, y, k))]
        for z in operands:
            assert not terms_built(z)
            oracle = _from_terms(_terms_of(*_canonical_rows(z)))
            kinds.add(z._kind)
            adj = z.adjoint()
            assert not terms_built(adj) and _term_equal(adj, _term_adjoint(oracle))
            _assert_grading_fresh(adj)
            held = adj._kind
            assert not other_built(adj)
            assert graded_by_key(adj._d, adj._entries) == graded_by_key(
                *_graded_terms(adj.terms, schemes[held]))
            assert _term_equal(adj.adjoint(), oracle)
            keys = [t.key for t in oracle.terms]
            keys += [(w, m + 1, h) for w, m, h in keys]  # absent: mass shifted
            keys += [(w[::-1], m, h) for w, m, h in keys]  # beta last unless alone
            keys += [((), 0, 0), ((BETA,), -1, 0), ((BETA, BETA), 0, 0), ((MC2,), 0, 0)]
            for w, m, h in keys:
                assert z.coefficient(w, m, h) == _term_coefficient(oracle, w, m, h)
            for s in symbols:
                assert z.contains_symbol(s) == _term_contains_symbol(oracle, s)
            assert z == oracle and hash(z) == hash(oracle) and len(z) == len(oracle.terms)
            nothing = OperatorExpr.zero()
            assert (z == nothing) == (len(z) == 0) and not terms_built(nothing)
            assert not terms_built(z)
            pool += [z, oracle, adj]
    # equal values in different forms (re-graded, scaled back, summed with
    # zero) and near misses (same keys, other numerators; one more term)
    pairs = list(zip(pool, pool[1:]))
    for z in pool[::5]:
        pairs += [(z, z + zero()), (z, scale(2, z) / 2), (z, -(-z)),
                  (z, mul_trunc(z, one(), MASS, 10 ** 6)), (scale(2, z), z),
                  (z, z + word(1, [F], 7)), (z.adjoint(), z)]
    for a, b in pairs:
        assert (a == b) == (not a != b) == _term_equal(a, b)
    buckets = {}
    for z in chain.from_iterable(pairs):
        buckets.setdefault(_term_hash_key(z), set()).add(hash(z))
    assert all(len(hashes) == 1 for hashes in buckets.values())
    # distinct values hash apart but for rare clashes (CPython hashes -1 as -2)
    assert len(set().union(*buckets.values())) >= 0.99 * len(buckets)
    assert sum(map(_term_equal, *zip(*pairs))) > len(pool) // 2
    assert kinds == set(schemes)


def _dict_merge(x, y):
    """x + y by a dict merge of the terms, one term per key, sorted."""
    if not y.terms:
        return x
    if not x.terms:
        return y
    acc = {t.key: t for t in x.terms}
    for t in y.terms:
        prev = acc.get(t.key)
        acc[t.key] = t if prev is None else _recoeff(prev, prev.coeff + t.coeff)
    terms = sorted((t for t in acc.values() if not t.coeff.is_zero), key=lambda t: t.sort_key)
    return OperatorExpr(tuple(terms))


def test_add_and_sub_equal_the_dict_merge(rng):
    # the terms are compared in order, so the sort is checked too
    empty = zero()
    cancelled = 0
    for _ in range(200):
        x, y = rand_expr(rng, max_terms=4), rand_expr(rng, max_terms=4)
        for a, b in ((x, y), (x, empty), (empty, y), (x, x), (x, -x), (x, x + y)):
            total, difference = a + b, a - b
            for out, oracle in ((total, _dict_merge(a, b)), (difference, _dict_merge(a, -b))):
                assert out == oracle
                assert [(t.key, t.coeff) for t in out.terms] == [
                    (t.key, t.coeff) for t in oracle.terms]
            cancelled += total.is_zero + difference.is_zero
    assert cancelled >= 400


def test_mass_order_of_rest_term():
    assert mass_term().min_order(MASS) == -1
    assert mass_term().min_order(VELOCITY) == 0


# -- series -----------------------------------------------------------------------

def test_ad_exp_conjugate_zero_exponent(rng):
    k = rand_expr(rng)
    assert ad_exp_conjugate(zero(), k, VELOCITY, 6) == k.truncate(VELOCITY, 6)


def test_ad_exp_conjugate_free_particle_order2():
    s = word(GaussRat(0, Fraction(-1, 2)), [BETA, O], mass_power=1)
    k = mass_term() + o
    expected = mass_term() + word(Fraction(1, 2), [BETA, O, O], mass_power=1)
    assert ad_exp_conjugate(s, k, VELOCITY, 2) == expected


def test_ad_exp_conjugate_keeps_exponent_terms_above_the_cap():
    # S = O/(mc^2)^3 sits above the mass cap 2, but i[S, beta mc^2] lands on it
    s = word(1, [O], mass_power=3)
    expected = mass_term() + word(GaussRat(0, -2), [BETA, O], mass_power=2)
    assert ad_exp_conjugate(s, mass_term(), MASS, 2) == expected


def test_ad_exp_conjugate_rejects_order_zero_exponent():
    with pytest.raises(NonIncreasingOrder):
        ad_exp_conjugate(b, mass_term(), VELOCITY, 4)


def test_exp_series_unitary(rng):
    s = word(GaussRat(0, Fraction(-1, 2)), [BETA, O], mass_power=1)
    u = exp_series(scale(I, s), VELOCITY, 6)
    assert (u * u.adjoint()).truncate(VELOCITY, 6) == one()


def test_exp_series_rejects_order_zero():
    with pytest.raises(NonIncreasingOrder):
        exp_series(one(), VELOCITY, 4)


# -- registry -----------------------------------------------------------------------

def test_registry_builtins_and_custom():
    reg = SymbolRegistry()
    assert "beta" in reg and "O" in reg and "m" in reg
    q = reg.register("Q", "odd", 3)
    assert reg.lookup("Q") is q
    with pytest.raises(DuplicateSymbol):
        reg.register("Q", "even", 0)
    with pytest.raises(DuplicateSymbol):
        reg.register("beta", "even", 0)


def test_symbols_are_interned():
    assert OperatorSymbol("O", "odd", 1) is O
    q1 = SymbolRegistry().register("Q", "odd", 1)
    q2 = SymbolRegistry().register("Q", "odd", 1)
    assert q1 is q2
    for other in (OperatorSymbol("Q", "even", 1), OperatorSymbol("Q", "odd", 2)):
        assert other is not q1
        assert other != q1
    assert (q1, O) == (OperatorSymbol("Q", "odd", 1), OperatorSymbol("O", "odd", 1))
    assert copy.deepcopy(q1) is q1
    assert pickle.loads(pickle.dumps((q1, O))) == (q1, O)


def test_interned_symbols_survive_record_round_trip():
    spec = parse_spec("symbol Q odd 1; H = beta*m + Q*O + 1/2 * O*Q;")
    x = spec.hamiltonian
    back = parse_record(serialize_record(x))
    assert back == x
    assert [t.word for t in back] == [t.word for t in x]
    assert any(OperatorSymbol("Q", "odd", 1) in t.word for t in back)


def test_symbol_validation_still_fires():
    with pytest.raises(ValueError):
        OperatorSymbol("P", "both", 1)
    # a builtin's name takes no other parity or weight
    for name, parity, weight in (("beta", "odd", 3), ("m", "odd", 1), ("E", "even", 1)):
        with pytest.raises(ValueError, match=f"{name!r} is a builtin"):
            OperatorSymbol(name, parity, weight)
    with pytest.raises(ValueError):
        OperatorSymbol("P", "odd", -1)
    with pytest.raises(ValueError):
        SymbolRegistry().register("P", "odd", -1)


def test_binom_coeff_half_values():
    half = Fraction(1, 2)
    assert [binom_coeff(half, n) for n in range(5)] == [
        Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16),
        Fraction(-5, 128)]


# -- hypothesis: normal form is stable under re-normalization ------------------------

@st.composite
def raw_terms(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        length = draw(st.integers(0, 4))
        syms = tuple(draw(st.sampled_from((BETA, O, F, E, MC2)))
                     for _ in range(length))
        coeff = GaussRat(
            Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5))),
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
        )
        terms.append((coeff, draw(st.integers(-1, 2)), draw(st.integers(0, 1)), syms))
    return terms


@given(raw_terms())
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_hypothesis(terms):
    x = normalize(terms)
    assert normalize(x) == x
    rebuilt = normalize(list(x.terms))
    assert rebuilt == x


def test_determinism_under_term_order(rng):
    for _ in range(100):
        raw = [rand_raw_term(rng) for _ in range(4)]
        x = OperatorExpr(raw)
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert OperatorExpr(shuffled) == x
        # + merges two normal forms; it must agree with normalizing their terms
        a, b = OperatorExpr(shuffled[:2]), OperatorExpr(shuffled[2:])
        assert a + b == b + a == normalize(list(a.terms) + list(b.terms)) == x
        assert a + a == normalize(list(a.terms) * 2)
