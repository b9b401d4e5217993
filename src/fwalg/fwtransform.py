"""Block-diagonalization pipelines for Dirac-type Hamiltonians.

Three routes are provided:

* the classic iterative method: repeated conjugation with exp(iS),
  S = -(i/2mc^2) beta O, until the retained odd part is gone;
* its correction: the step exponents are recombined into one exponent with
  the Baker-Campbell-Hausdorff (Dynkin) series, the even part of that
  exponent is eliminated order by order, and the resulting even unitary
  fixes the Hamiltonian so that the total transformation has an odd
  Hermitian exponent (the Eriksen condition beta U = U^dag beta);
* the direct square-root route: the sign operator lambda = H (H^2)^(-1/2)
  is expanded as a binomial series and U = (1 + beta lambda)
  (2 + beta lambda + lambda beta)^(-1/2) is applied in one step.

Nonstationary convention: pipelines conjugate K = H - i hbar d/dt where the
even potential and the time derivative travel together as the single atomic
symbol F. Commutators with F therefore generate all time-derivative terms
implicitly, and the lone bare F left at the end (coefficient preserved from
the input) is rewritten back to E on finalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .gaussrat import GaussRat, I, ONE, binom_coeff
from .opalg import (
    BETA, E, F, VELOCITY, NonIncreasingOrder, OperatorExpr, WeightScheme,
    ad_exp_conjugate, commutator, exp_series, one, scale, sym, word, zero,
)


class TransformError(Exception):
    pass


class MissingMassTerm(TransformError):
    """Input Hamiltonian lacks the unit-coefficient beta mc^2 term."""


class NoConvergence(TransformError):
    """Odd terms below the working order persist after max_steps."""


class BareFAnomaly(TransformError):
    """The bare linear F coefficient changed during the transformation."""


class EliminationFailure(TransformError):
    """Even-part elimination stalled at some order."""


class OddResidual(TransformError):
    """Odd terms below the working order survived the correction."""


class NotStationary(TransformError):
    """The square-root route needs a stationary Hamiltonian (no F symbol)."""


class UnsupportedScheme(TransformError):
    """The square-root route counts orders in the velocity scheme only."""


_MASS_TERM = word(1, [BETA], mass_power=-1)


@dataclass
class TransformRecord:
    """Everything produced by one pipeline run.

    ``steps`` holds the exponents S, S', S'', ... of the per-step unitaries
    exp(iS); ``intermediates`` the conjugated operators after each step, with
    the bare even symbol still F. ``combined_exponent`` R satisfies
    U = exp(iR) for the folded product of the step unitaries;
    ``correction_exponent`` C is even and anti-Hermitian with
    U_corr = exp(C).
    """

    scheme: WeightScheme
    max_order: int
    steps: list[OperatorExpr] = field(default_factory=list)
    intermediates: list[OperatorExpr] = field(default_factory=list)
    h_orig: OperatorExpr | None = None
    h_corrected: OperatorExpr | None = None
    combined_exponent: OperatorExpr | None = None
    correction_exponent: OperatorExpr | None = None
    k_final: OperatorExpr | None = None
    bare_f_coeff: GaussRat = ONE


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


def fw_step(k: OperatorExpr, scheme: WeightScheme,
            max_order: int) -> tuple[OperatorExpr, OperatorExpr]:
    """One iteration: S = -(i/2mc^2) beta * odd(K), K' = exp(iS) K exp(-iS)."""
    _, _, odd = split_hamiltonian(k)
    if odd.is_zero:
        return zero(), k
    prefactor = word(GaussRat(0, Fraction(-1, 2)), [BETA], mass_power=1)
    s = (prefactor * odd).truncate(scheme, max_order)
    if s.is_zero:
        return zero(), k
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


def fw_pipeline(h: OperatorExpr, scheme: WeightScheme, max_order: int,
                max_steps: int | None = None) -> TransformRecord:
    """Run the iterative method until the retained odd part vanishes."""
    if max_steps is None:
        max_steps = max_order + 1
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    work = h.subs_symbol(E, F)
    bare = work.coefficient((F,))
    k = work.truncate(scheme, max_order)
    split_hamiltonian(k)
    record = TransformRecord(scheme=scheme, max_order=max_order, bare_f_coeff=bare)
    for _ in range(max_steps):
        odd = _effective_odd(k, scheme, max_order)
        if odd.is_zero:
            break
        before = odd.min_order(scheme)
        s, k = fw_step(k, scheme, max_order)
        after_odd = _effective_odd(k, scheme, max_order)
        if not after_odd.is_zero and after_odd.min_order(scheme) <= before:
            raise NoConvergence(
                f"odd part stalled at {scheme.kind} order {before}"
            )
        record.steps.append(s)
        record.intermediates.append(k)
    else:
        if not _effective_odd(k, scheme, max_order).is_zero:
            raise NoConvergence(
                f"odd part persists after {max_steps} steps"
            )
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

def _dynkin_blocks(total: int):
    """All block sequences ((p1,q1),...) with p_i+q_i >= 1 summing to total letters."""
    if total == 0:
        yield ()
        return
    for first_total in range(1, total + 1):
        for p in range(first_total + 1):
            q = first_total - p
            for rest in _dynkin_blocks(total - first_total):
                yield ((p, q),) + rest


def bch_combine(a: OperatorExpr, b: OperatorExpr, scheme: WeightScheme,
                max_order: int) -> OperatorExpr:
    """Z with exp(Z) = exp(A) exp(B) to max_order, by the Dynkin series.

    Terms are generated until the minimum possible order of a word exceeds
    max_order; there is no hand-coded depth limit.
    """
    if b.is_zero:
        return a.truncate(scheme, max_order)
    if a.is_zero:
        return b.truncate(scheme, max_order)
    a_min = a.min_order(scheme)
    b_min = b.min_order(scheme)
    if a_min < 1 or b_min < 1:
        raise NonIncreasingOrder(
            f"BCH operands must have minimum order >= 1 (got {a_min}, {b_min})"
        )
    a = a.truncate(scheme, max_order)
    b = b.truncate(scheme, max_order)
    max_letters = max_order  # each letter contributes order >= 1
    bracket_memo: dict[tuple[str, ...], OperatorExpr] = {}

    def bracket(letters: tuple[str, ...]) -> OperatorExpr:
        cached = bracket_memo.get(letters)
        if cached is not None:
            return cached
        if len(letters) == 1:
            out = a if letters[0] == "a" else b
        else:
            head = a if letters[0] == "a" else b
            tail = bracket(letters[1:])
            if tail.is_zero:
                out = zero()
            else:
                out = commutator(head, tail).truncate(scheme, max_order)
        bracket_memo[letters] = out
        return out

    total = zero()
    for letters_count in range(1, max_letters + 1):
        for blocks in _dynkin_blocks(letters_count):
            n_a = sum(p for p, _ in blocks)
            n_b = sum(q for _, q in blocks)
            if n_a * a_min + n_b * b_min > max_order:
                continue
            letters = tuple(itertools.chain.from_iterable(
                ("a",) * p + ("b",) * q for p, q in blocks
            ))
            if len(letters) >= 2 and letters[-1] == letters[-2]:
                continue  # innermost [x, x] vanishes
            expr = bracket(letters)
            if expr.is_zero:
                continue
            n = len(blocks)
            denom = n * len(letters)
            for p, q in blocks:
                for k in range(2, p + 1):
                    denom *= k
                for k in range(2, q + 1):
                    denom *= k
            coeff = Fraction((-1) ** (n - 1), denom)
            total = total + scale(coeff, expr)
    return total.truncate(scheme, max_order)


def combine_steps(record: TransformRecord) -> OperatorExpr:
    """Fold the step unitaries into one exponent: U = ... exp(iS') exp(iS) = exp(iR)."""
    if not record.steps:
        raise TransformError("no steps to combine")
    z = scale(I, record.steps[0])
    for s in record.steps[1:]:
        z = bch_combine(scale(I, s), z, record.scheme, record.max_order)
    record.combined_exponent = scale(-I, z)
    return record.combined_exponent


def correction_exponent(r: OperatorExpr, scheme: WeightScheme,
                        max_order: int) -> OperatorExpr:
    """Even anti-Hermitian C with even(log(exp(C) exp(iR))) = 0 to max_order.

    Built order by order: at each pass the lowest even residual of the
    recombined exponent is subtracted from C and the recombination redone.
    """
    z = scale(I, r)
    c = zero()
    last = None
    for _ in range(max_order + 2):
        z_tot = bch_combine(c, z, scheme, max_order) if not c.is_zero else z.truncate(scheme, max_order)
        even = z_tot.parity_split()[0]
        if even.is_zero:
            return c
        k = even.min_order(scheme)
        if last is not None and k <= last:
            raise EliminationFailure(f"even residual stalled at order {k}")
        last = k
        c = c - even.order_slice(scheme, k)
    raise EliminationFailure("even residual not exhausted within order budget")


def apply_correction(record: TransformRecord) -> OperatorExpr:
    """Conjugate the final (unfinalized) operator by exp(C) and finalize."""
    if record.k_final is None:
        raise TransformError("pipeline has not produced a final operator")
    if record.combined_exponent is None:
        combine_steps(record)
    if record.correction_exponent is None:
        record.correction_exponent = correction_exponent(
            record.combined_exponent, record.scheme, record.max_order
        )
    c = record.correction_exponent
    if not c.is_zero:
        if not c.parity_split()[1].is_zero:
            raise TransformError("correction exponent has an odd part")
        if c.adjoint() != -c:
            raise TransformError("correction exponent is not anti-Hermitian")
        h = ad_exp_conjugate(scale(-I, c), record.k_final,
                             record.scheme, record.max_order)
    else:
        h = record.k_final
    even, odd = h.parity_split()
    if not odd.truncate(record.scheme, record.max_order - 1).is_zero:
        raise OddResidual("odd terms below the working order survived correction")
    record.h_corrected = finalize_bare_f(even, record.bare_f_coeff)
    return record.h_corrected


def corrected_pipeline(h: OperatorExpr, scheme: WeightScheme, max_order: int,
                       max_steps: int | None = None) -> TransformRecord:
    """Iterative method plus BCH recombination and even-exponent elimination."""
    record = fw_pipeline(h, scheme, max_order, max_steps)
    combine_steps(record)
    apply_correction(record)
    return record


# -- direct square-root route --------------------------------------------------

def eriksen_series(h: OperatorExpr, max_order: int,
                   scheme: WeightScheme = VELOCITY) -> OperatorExpr:
    """One-step transformation via the sign operator, as a binomial series.

    Stationary input only: H = beta mc^2 + E + O. No commutativity between
    O and E is assumed anywhere.
    """
    if scheme != VELOCITY:
        raise UnsupportedScheme("the square-root series is defined for the velocity scheme")
    u_e = eriksen_unitary_series(h, max_order)
    h = h.truncate(VELOCITY, max_order)
    return (u_e * h * u_e.adjoint()).truncate(VELOCITY, max_order)


def sign_operator_series(h: OperatorExpr, max_order: int) -> OperatorExpr:
    """lambda = H (H^2)^(-1/2) as a truncated binomial series (stationary input)."""
    if h.contains_symbol(F):
        raise NotStationary("input contains the nonstationary symbol F")
    split_hamiltonian(h)
    scheme = VELOCITY
    h = h.truncate(scheme, max_order)
    u2 = word(1, [], mass_power=2)
    # X = (H^2 - m^2 c^4)/(m^2 c^4) has minimum order 2.
    x = (u2 * (h * h - word(1, [], mass_power=-2))).truncate(scheme, max_order)
    inv_sqrt = _binomial_series(x, Fraction(-1, 2), scheme, max_order)
    return (word(1, [], mass_power=1) * h * inv_sqrt).truncate(scheme, max_order)


def eriksen_unitary_series(h: OperatorExpr, max_order: int) -> OperatorExpr:
    """(1 + beta lambda)(2 + beta lambda + lambda beta)^(-1/2), truncated.

    The scalar square root is expanded around 2 + ... = 4 + w with w of
    minimum order 2, which keeps every coefficient rational.
    """
    scheme = VELOCITY
    lam = sign_operator_series(h, max_order)
    beta_lam = (sym(BETA) * lam).truncate(scheme, max_order)
    lam_beta = (lam * sym(BETA)).truncate(scheme, max_order)
    w = beta_lam + lam_beta - 2 * one()
    g = scale(Fraction(1, 2),
              _binomial_series(scale(Fraction(1, 4), w), Fraction(-1, 2), scheme, max_order))
    return ((one() + beta_lam) * g).truncate(scheme, max_order)


def _binomial_series(x: OperatorExpr, alpha: Fraction, scheme: WeightScheme,
                     max_order: int) -> OperatorExpr:
    if x.is_zero:
        return one()
    if x.min_order(scheme) < 1:
        raise TransformError("series argument must have positive minimum order")
    result = one()
    power = one()
    n = 0
    while True:
        n += 1
        power = (power * x).truncate(scheme, max_order)
        if power.is_zero:
            break
        result = result + scale(binom_coeff(alpha, n), power)
    return result


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
    """Expand the step product as a power series and test beta U = U^dag beta.

    The check is independent of the BCH machinery: U is the truncated
    product of the exponential series of the recorded steps.
    """
    scheme, max_order = record.scheme, record.max_order
    u = one()
    for s in record.steps:
        u = (exp_series(scale(I, s), scheme, max_order) * u).truncate(scheme, max_order)
    if record.correction_exponent is None:
        apply_correction(record)
    c = record.correction_exponent
    u_corr = (exp_series(c, scheme, max_order) * u).truncate(scheme, max_order)
    beta_e = sym(BETA)

    def residual(mat: OperatorExpr) -> OperatorExpr:
        return (beta_e * mat - mat.adjoint() * beta_e).truncate(scheme, max_order)

    return ConditionReport(uncorrected=residual(u), corrected=residual(u_corr))
