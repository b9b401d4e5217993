"""Block-diagonalization pipelines for Dirac-type Hamiltonians.

Three routes are provided:

* the classic iterative method: repeated conjugation with exp(iS),
  S = -(i/2mc^2) beta O, until the retained odd part is gone;
* its correction: the step unitaries are multiplied into one truncated
  product U = ... exp(iS') exp(iS), whose exponent is read as
  iR = log U; the even anti-Hermitian C that fixes it, so that the total
  transformation exp(C) U meets the Eriksen condition
  beta U = U^dag beta, is read from U's parity halves A = even(U) and
  B = odd(U): exp(C) = (A^dag A)^(-1/2) A^dag = (1 - B^dag B)^(-1/2) A^dag,
  resting on A^dag A + B^dag B = 1 and A^dag B = -B^dag A (U^dag U =
  U U^dag = 1 split by parity);
* the direct square-root route: the sign operator lambda = H (H^2)^(-1/2)
  is expanded as a binomial series, which defines Eriksen's one-step
  unitary U = (1 + beta lambda) g with g = (2 + beta lambda + lambda
  beta)^(-1/2). H' = U H U^dag is formed without U: g is even, Hermitian
  and commutes with beta and lambda; lambda H = H lambda = |H|;
  lambda^2 = 1; and beta X beta = even(X) - odd(X). Together these give
  U H U^dag = g (1 + beta lambda) H (1 + lambda beta) g
  = 2 g (even(H) + beta even(|H|)) g, two products of even operands.
  The identity needs a Hermitian H (so that lambda and g are Hermitian).

Nonstationary convention: pipelines conjugate K = H - i hbar d/dt where the
even potential and the time derivative travel together as the single atomic
symbol F. Commutators with F therefore generate all time-derivative terms
implicitly, and the lone bare F left at the end (coefficient preserved from
the input) is rewritten back to E on finalization.

``corrected_pipeline`` orders the corrected route's stages: the iteration,
then the step product U, kept on the record, then C read from U, then the
conjugation by exp(C). No stage fills in another's results, and the Eriksen
condition check reads the same U and C. R = -i log U is formed only where
it is read, by the record's ``combined_exponent``.
``bch_combine`` sums the Dynkin series by bracket word, one Goldberg
coefficient per word (K. Goldberg, Duke Math. J. 23, 13 (1956)).

Brackets, nested commutators and series powers stay in the product
kernel's graded form (integer numerators over one denominator, sorted by
order) from one commutator or capped product to the next, and into the
integer sum that combines them (``OperatorExpr.combine``, ``+`` and
``-``); their parity splits, truncations, order slices, scalings,
adjoints, coefficients and substitutions read the graded form too, and
the input is normalized straight into it. Terms are built only where
they are read: a stage's output and the words of the BCH table's log
series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .gaussrat import GaussRat, I, ONE
from .opalg import (
    BETA, E, EVEN, F, VELOCITY, OperatorExpr, OperatorSymbol, WeightScheme,
    ad_exp_conjugate, commutator, exp_series, log_series, mul_trunc, one,
    require_order_at_least_one, scale, series_sum, sym, word,
)


class TransformError(Exception):
    pass


class MissingMassTerm(TransformError):
    """Input Hamiltonian lacks the unit-coefficient beta mc^2 term."""


class NoConvergence(TransformError):
    """The odd part's minimum order did not rise over a step."""


class BareFAnomaly(TransformError):
    """The bare linear F coefficient changed during the transformation."""


class OddResidual(TransformError):
    """Odd terms below the working order survived the correction."""


class NotStationary(TransformError):
    """The square-root route needs a stationary Hamiltonian (no F symbol)."""


class UnsupportedScheme(TransformError):
    """The square-root route counts orders in the velocity scheme only."""


class NotHermitian(TransformError):
    """Every route needs a Hermitian Hamiltonian."""


_MASS_TERM = word(1, [BETA], mass_power=-1)


@dataclass
class TransformRecord:
    """Everything produced by one pipeline run.

    ``steps`` holds the exponents S, S', S'', ... of the per-step unitaries
    exp(iS); ``intermediates`` the conjugated operators after each step, with
    the bare even symbol still F. ``unitary`` U = ... exp(iS') exp(iS) is
    the product of the step unitaries' exponential series, truncated at
    ``max_order``; ``correction_exponent`` C is even and anti-Hermitian,
    read from U's halves A = even(U), B = odd(U) as
    exp(C) = (A^dag A)^(-1/2) A^dag (A^dag A + B^dag B = 1 and
    A^dag B = -B^dag A, as U is unitary), and U_corr = exp(C) U meets
    the Eriksen condition beta U_corr = U_corr^dag beta. ``corrected_pipeline``
    sets both; a record of the plain iteration has neither.
    ``combined_exponent`` R, with iR = log U, is not stored: it is formed
    from U each time it is read.
    """

    scheme: WeightScheme
    max_order: int
    steps: list[OperatorExpr] = field(default_factory=list)
    intermediates: list[OperatorExpr] = field(default_factory=list)
    h_orig: OperatorExpr | None = None
    h_corrected: OperatorExpr | None = None
    unitary: OperatorExpr | None = None
    correction_exponent: OperatorExpr | None = None
    k_final: OperatorExpr | None = None
    bare_f_coeff: GaussRat = ONE

    @property
    def combined_exponent(self) -> OperatorExpr:
        """R = -i log U; TransformError on a record with no step product."""
        if self.unitary is None:
            raise TransformError("record has no step product U")
        return scale(-I, log_series(self.unitary - one(), self.scheme, self.max_order))


def split_hamiltonian(h: OperatorExpr) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """Split H into (beta mc^2, even rest, odd rest).

    The mass term must be present with coefficient exactly one.
    """
    c = h.coefficient((BETA,), mass_power=-1)
    if c != 1:
        raise MissingMassTerm(
            f"expected unit beta mc^2 term, found coefficient {c}"
        )
    rest = h - _MASS_TERM
    even, odd = rest.parity_split()
    return _MASS_TERM, even, odd


def _require_hermitian(h: OperatorExpr) -> None:
    """NotHermitian unless H equals its adjoint."""
    if h.adjoint() != h:
        raise NotHermitian("input Hamiltonian is not Hermitian")


def fw_step(k: OperatorExpr, scheme: WeightScheme,
            max_order: int) -> tuple[OperatorExpr, OperatorExpr]:
    """One iteration: S = -(i/2mc^2) beta * odd(K), K' = exp(iS) K exp(-iS)."""
    _, _, odd = split_hamiltonian(k)
    prefactor = word(GaussRat(0, Fraction(-1, 2)), [BETA], mass_power=1)
    s = mul_trunc(prefactor, odd, scheme, max_order)
    if s.is_zero:
        return s, k
    _check_step(s)
    k_next = ad_exp_conjugate(s, k, scheme, max_order)
    return s, k_next


def _check_step(s: OperatorExpr) -> None:
    if not s.parity_split()[0].is_zero:
        raise TransformError("step exponent has an even part")
    if s.adjoint() != s:
        raise TransformError("step exponent is not Hermitian")


def _effective_odd(k: OperatorExpr, scheme: WeightScheme, max_order: int) -> OperatorExpr:
    """Odd terms that any further step could still couple back below max_order.

    Odd terms sitting exactly at max_order are harmless: the exponent that
    would remove them has order max_order + 1 and all its other commutators
    land beyond the truncation.
    """
    return k.parity_split()[1].truncate(scheme, max_order - 1)


def fw_pipeline(h: OperatorExpr, scheme: WeightScheme, max_order: int) -> TransformRecord:
    """Run the iterative method until the retained odd part vanishes.

    H must be Hermitian (``NotHermitian`` otherwise): the step exponents of
    a non-Hermitian H are not Hermitian, so its steps are not unitary.
    The odd part a step removes has order >= 0 (``NonIncreasingOrder``
    otherwise) and below max_order, and its minimum order must rise with
    every step (``NoConvergence`` otherwise), so a run takes at most
    max_order steps.
    """
    _require_hermitian(h)
    k = h.subs_symbol(E, F).truncate(scheme, max_order)
    # Read after truncation: an order below F's own leaves no bare F to carry.
    bare = k.coefficient((F,))
    split_hamiltonian(k)
    record = TransformRecord(scheme=scheme, max_order=max_order, bare_f_coeff=bare)
    odd = _effective_odd(k, scheme, max_order)
    while not odd.is_zero:
        before = odd.min_order(scheme)
        s, k = fw_step(k, scheme, max_order)
        odd = _effective_odd(k, scheme, max_order)
        if not odd.is_zero and odd.min_order(scheme) <= before:
            raise NoConvergence(
                f"odd part stalled at {scheme.kind} order {before}"
            )
        record.steps.append(s)
        record.intermediates.append(k)
    record.k_final = k
    record.h_orig = finalize_bare_f(k.parity_split()[0], bare)
    return record


def finalize_bare_f(x: OperatorExpr, expected: GaussRat = ONE) -> OperatorExpr:
    """Rewrite the unique bare linear F term back to E.

    The coefficient must equal the one carried through from the input (the
    transformation never touches it); anything else signals a bookkeeping
    bug upstream.
    """
    c = x.coefficient((F,))
    if expected.is_zero:
        if not c.is_zero:
            raise BareFAnomaly(f"unexpected bare F term with coefficient {c}")
        return x
    if c != expected:
        raise BareFAnomaly(
            f"bare F coefficient {c} differs from input coefficient {expected}"
        )
    return x - scale(c, sym(F)) + scale(c, sym(E))


# -- Baker-Campbell-Hausdorff ------------------------------------------------

@lru_cache(maxsize=None)
def _bch_word_table(budget: int, a_min: int, b_min: int) -> tuple[tuple[str, GaussRat], ...]:
    """(word, coefficient) pairs of the Dynkin series, one per bracket word.

    The word ``x1 x2 ... xn`` over the letters a, b stands for the right-nested
    bracket [x1, [x2, ... [x(n-1), xn]...]]. Summed over every Dynkin block
    sequence that spells it, its coefficient is c_w / n, with c_w the
    coefficient of w in log(exp(a) exp(b)) in the free algebra on a and b
    (K. Goldberg, Duke Math. J. 23, 13 (1956)). That log is read from the
    engine's own series on two free even generators of velocity weights
    ``a_min`` and ``b_min``, capped at ``budget``: X = exp(a) exp(b) - 1,
    then log(1 + X) = sum_n (-1)^(n-1) X^n / n by ``log_series``. Words
    ending in two equal letters are left out: their innermost bracket
    [x, x] vanishes. A word ending ``ab`` brackets to minus the same word
    ending ``ba``, so its coefficient is folded, negated, into that word's
    and only ``...ba`` words are kept; sums that cancel are dropped.
    """
    a = sym(OperatorSymbol("a", EVEN, a_min))
    b = sym(OperatorSymbol("b", EVEN, b_min))
    x = mul_trunc(exp_series(a, VELOCITY, budget), exp_series(b, VELOCITY, budget),
                  VELOCITY, budget) - one()
    folded: dict[str, GaussRat] = {}
    for t in log_series(x, VELOCITY, budget):
        w, c = "".join(s.name for s in t.word), t.coeff
        if len(w) >= 2:
            if w[-1] == w[-2]:
                continue
            if w[-1] == "b":  # ...[a, b] = -...[b, a]
                w, c = w[:-2] + "ba", -c
        folded[w] = folded.get(w, 0) + c
    return tuple((w, c / len(w)) for w, c in folded.items() if c)


def bch_combine(a: OperatorExpr, b: OperatorExpr, scheme: WeightScheme,
                max_order: int) -> OperatorExpr:
    """Z with exp(Z) = exp(A) exp(B) to max_order, by the Dynkin series.

    Summed by bracket word: each word's coefficient is Goldberg's over the
    word length (``_bch_word_table``), each bracket is formed once and the
    coefficient-times-bracket terms meet in one integer accumulator, sorted
    once. The memo holds each bracket as the commutator returns it, in the
    kernel's graded form, so no bracket is turned into terms.
    Words are kept while their minimum possible order fits in max_order;
    there is no hand-coded depth limit.
    """
    if b.is_zero:
        return a.truncate(scheme, max_order)
    if a.is_zero:
        return b.truncate(scheme, max_order)
    a_min = require_order_at_least_one(a, scheme, "BCH operand a")
    b_min = require_order_at_least_one(b, scheme, "BCH operand b")
    a = a.truncate(scheme, max_order)
    b = b.truncate(scheme, max_order)
    bracket_memo: dict[str, OperatorExpr] = {"a": a, "b": b}

    def bracket(letters: str) -> OperatorExpr:
        out = bracket_memo.get(letters)
        if out is None:
            tail = bracket(letters[1:])
            out = tail if tail.is_zero else commutator(
                bracket_memo[letters[0]], tail, scheme, max_order)
            bracket_memo[letters] = out
        return out

    return OperatorExpr.combine(
        (coeff, bracket(letters))
        for letters, coeff in _bch_word_table(max_order, a_min, b_min))


def correction_exponent(u: OperatorExpr, scheme: WeightScheme,
                        max_order: int) -> OperatorExpr:
    """Even anti-Hermitian C with beta exp(C) U = (exp(C) U)^dag beta to max_order.

    U is the step product, unitary to the order: U^dag U = U U^dag = 1
    through max_order. With A = even(U) and B = odd(U), the two identities
    split by parity give A^dag A + B^dag B = 1 and A^dag B = -B^dag A.
    exp(C) = (A^dag A)^(-1/2) A^dag = (1 - B^dag B)^(-1/2) A^dag, the
    inverse of A's unitary polar factor: it is even, so exp(C) U has the
    Hermitian even half (A^dag A)^(1/2) and the odd half
    (A^dag A)^(-1/2) A^dag B, anti-Hermitian as B^dag A commutes with
    B^dag B (A B^dag = -B A^dag). So exp(C) U meets the condition, and the
    even anti-Hermitian C that does is unique (E. Eriksen, Phys. Rev. 111,
    1011 (1958)). The binomial series runs in -B^dag B, even and of
    minimum order 2. Truncating at max_order is exact in the mass scheme
    too: U, beta and C have no term of negative order.
    """
    a, b = u.parity_split()
    x = -mul_trunc(b.adjoint(), b, scheme, max_order)
    inv_sqrt = _binomial_series(x, Fraction(-1, 2), scheme, max_order)
    return log_series(mul_trunc(inv_sqrt, a.adjoint(), scheme, max_order) - one(), scheme,
                      max_order)


def apply_correction(record: TransformRecord) -> OperatorExpr:
    """Conjugate the final (unfinalized) operator by exp(C) and finalize."""
    c = record.correction_exponent
    if record.k_final is None or c is None:
        raise TransformError("record has no final operator and correction exponent")
    if not c.parity_split()[1].is_zero:
        raise TransformError("correction exponent has an odd part")
    if c.adjoint() != -c:
        raise TransformError("correction exponent is not anti-Hermitian")
    h = ad_exp_conjugate(scale(-I, c), record.k_final, record.scheme, record.max_order)
    even, odd = h.parity_split()
    if not odd.truncate(record.scheme, record.max_order - 1).is_zero:
        raise OddResidual("odd terms below the working order survived correction")
    record.h_corrected = finalize_bare_f(even, record.bare_f_coeff)
    return record.h_corrected


def corrected_pipeline(h: OperatorExpr, scheme: WeightScheme, max_order: int) -> TransformRecord:
    """Iterative method plus the step product's correction to the Eriksen condition.

    U = ... exp(iS') exp(iS) is the product of the steps' exponential
    series, truncated at max_order; with no steps (the Hamiltonian was
    block-diagonal already) it is 1 and C is 0.
    """
    record = fw_pipeline(h, scheme, max_order)
    u = one()
    for s in record.steps:
        u = mul_trunc(exp_series(scale(I, s), scheme, max_order), u, scheme, max_order)
    record.unitary = u
    record.correction_exponent = correction_exponent(u, scheme, max_order)
    apply_correction(record)
    return record


# -- direct square-root route --------------------------------------------------

def eriksen_series(h: OperatorExpr, max_order: int,
                   scheme: WeightScheme = VELOCITY) -> OperatorExpr:
    """Eriksen's H' = U H U^dag to max_order, as 2g (even(H) + beta even(|H|)) g.

    Stationary, Hermitian input only: H = beta mc^2 + E + O. No
    commutativity between O and E is assumed anywhere. With lambda the
    sign operator and g = (2 + beta lambda + lambda beta)^(-1/2), four
    facts turn U H U^dag into two products of even operands, without U:

    * g is even and Hermitian, and commutes with beta and with lambda;
    * lambda H = H lambda = |H|;
    * lambda^2 = 1;
    * beta X beta = even(X) - odd(X) for any X.

    Then (1 + beta lambda) H (1 + lambda beta) = H + beta H beta
    + beta |H| + |H| beta = 2 (even(H) + beta even(|H|)), and
    U H U^dag = 2 g (even(H) + beta even(|H|)) g. Velocity orders are
    nonnegative, so every capped product is exact.
    """
    if scheme != VELOCITY:
        raise UnsupportedScheme("the square-root series is defined for the velocity scheme")
    beta_lam, g2 = _eriksen_factors(h, max_order)
    h_even, h_odd = h.truncate(VELOCITY, max_order).parity_split()
    bl_even, bl_odd = beta_lam.parity_split()
    # x = (even(H) + beta even(|H|))/2, so that 2g x 2g = 2 g (2x) g; beta
    # even(|H|) is the even part of beta lambda H = beta |H|, the pairs of
    # equal parity.
    half = Fraction(1, 2)
    x = OperatorExpr.combine(((half, h_even),
                              (half, mul_trunc(bl_even, h_even, VELOCITY, max_order)),
                              (half, mul_trunc(bl_odd, h_odd, VELOCITY, max_order))))
    return mul_trunc(mul_trunc(g2, x, VELOCITY, max_order), g2, VELOCITY, max_order)


def sign_operator_series(h: OperatorExpr, max_order: int) -> OperatorExpr:
    """lambda = H (H^2)^(-1/2) as a truncated binomial series.

    Stationary, Hermitian input only: the sign operator of a non-Hermitian
    H is not Hermitian, and Eriksen's U built from it is not unitary.
    """
    if h.contains_symbol(F):
        raise NotStationary("input contains the nonstationary symbol F")
    _require_hermitian(h)
    split_hamiltonian(h)
    scheme = VELOCITY
    h = h.truncate(scheme, max_order)
    u2 = word(1, [], mass_power=2)
    # X = (H^2 - m^2 c^4)/(m^2 c^4) has minimum order 2.
    x = mul_trunc(u2, mul_trunc(h, h, scheme, max_order) - word(1, [], mass_power=-2),
                  scheme, max_order)
    inv_sqrt = _binomial_series(x, Fraction(-1, 2), scheme, max_order)
    return mul_trunc(mul_trunc(word(1, [], mass_power=1), h, scheme, max_order), inv_sqrt,
                     scheme, max_order)


def eriksen_unitary_series(h: OperatorExpr, max_order: int) -> OperatorExpr:
    """(1 + beta lambda)(2 + beta lambda + lambda beta)^(-1/2), truncated."""
    beta_lam, g2 = _eriksen_factors(h, max_order)
    return mul_trunc(one() + beta_lam, scale(Fraction(1, 2), g2), VELOCITY, max_order)


def _eriksen_factors(h: OperatorExpr, max_order: int) -> tuple[OperatorExpr, OperatorExpr]:
    """beta lambda and 2g = 2 (2 + beta lambda + lambda beta)^(-1/2), truncated.

    lambda beta = beta (beta lambda) beta, so beta lambda + lambda beta is
    2 even(beta lambda) = 2 beta even(lambda), and 2g is the binomial series
    (1 + w)^(-1/2) with w = (even(beta lambda) - 1)/2 of minimum order 2,
    which keeps every coefficient rational.
    """
    beta_lam = mul_trunc(sym(BETA), sign_operator_series(h, max_order), VELOCITY, max_order)
    w = OperatorExpr.combine(((Fraction(-1, 2), one()),
                              (Fraction(1, 2), beta_lam.parity_split()[0])))
    return beta_lam, _binomial_series(w, Fraction(-1, 2), VELOCITY, max_order)


def _binomial_series(x: OperatorExpr, alpha: Fraction, scheme: WeightScheme,
                     max_order: int) -> OperatorExpr:
    """(1 + x)^alpha truncated at max_order; requires min order >= 1."""
    require_order_at_least_one(x, scheme, "series argument")
    return series_sum(one(), lambda power: mul_trunc(power, x, scheme, max_order),
                      lambda n: (alpha - n + 1) / n)


# -- Eriksen condition ----------------------------------------------------------

@dataclass
class ConditionReport:
    """Residuals beta U - U^dag beta for the recombined transformations."""

    uncorrected: OperatorExpr
    corrected: OperatorExpr

    @property
    def corrected_ok(self) -> bool:
        return self.corrected.is_zero


def eriksen_condition_check(record: TransformRecord) -> ConditionReport:
    """Test beta U = U^dag beta on the step product and on exp(C) U.

    U and C are the record's ``unitary`` and ``correction_exponent``, as
    ``corrected_pipeline`` left them; TransformError on a record without
    them. The residuals read U and C, not R, so the uncorrected one is
    independent of the log series.
    """
    scheme, max_order = record.scheme, record.max_order
    u, c = record.unitary, record.correction_exponent
    if u is None or c is None:
        raise TransformError("record has no step product and correction exponent")
    u_corr = mul_trunc(exp_series(c, scheme, max_order), u, scheme, max_order)
    beta_e = sym(BETA)

    def residual(mat: OperatorExpr) -> OperatorExpr:
        # beta M - M^dag beta from one product: (beta M)^dag = M^dag beta
        bm = mul_trunc(beta_e, mat, scheme, max_order)
        return bm - bm.adjoint()

    return ConditionReport(uncorrected=residual(u), corrected=residual(u_corr))
