import random
from fractions import Fraction

import pytest

from fwalg.fwtransform import _binomial_series
from fwalg.gaussrat import GaussRat
from fwalg.opalg import BETA, E, F, MC2, O, OperatorExpr, log_series, mul_trunc, one, sym


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


def polar_correction_exponent(rec) -> OperatorExpr:
    """C from Eriksen's condition alone (E. Eriksen, Phys. Rev. 111, 1011 (1958)).

    U_corr = exp(C) U with C even, so exp(C) commutes with beta, and
    beta U_corr = U_corr^dag beta gives U_corr^2 = beta U^dag beta U. Hence
    U_corr = (beta U^dag beta U)^(1/2), a binomial series, and
    C = log(U_corr U^dag). Truncating at the record's order is exact in the
    mass scheme too: U, beta and C have no term of negative order.
    """
    scheme, order = rec.scheme, rec.max_order
    b, u, u_dag = sym(BETA), rec.unitary, rec.unitary.adjoint()
    u_corr_sq = mul_trunc(mul_trunc(b, u_dag, scheme, order), mul_trunc(b, u, scheme, order),
                          scheme, order)
    u_corr = _binomial_series(u_corr_sq - one(), Fraction(1, 2), scheme, order)
    return log_series(mul_trunc(u_corr, u_dag, scheme, order) - one(), scheme, order)


@pytest.fixture
def rng():
    return random.Random(20240811)
