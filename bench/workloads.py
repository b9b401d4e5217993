"""The four benchmark workloads and their independent output checks.

Each workload is built by ``prepare(name, seed, case_seed)``, which does all
set-up: it builds the inputs and the reference expressions and parses the
spec once to validate it. The returned object has two methods:

* ``run()`` makes the program calls that one timed iteration consists of and
  returns their outputs;
* ``check(outputs)`` compares those outputs with references built here, never
  with anything the pipeline under test produced, and returns a ``Checked``.

Every check is one operation: ``attempted`` counts them and ``failed`` counts
the ones that did not hold. One of them compares a SHA-256 hash of the
canonical ``serialize_record`` JSON of the outputs (for verify_all, of the
check results) with the hash recorded in ``expected.json``, so a change that
alters any output bit fails.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The program is called through its modules (``opalg.commutator``, not a
# local name), so the traced run's rebinding reaches these calls too.
from fwalg import fwtransform, opalg, reference, shell
from fwalg.gaussrat import GaussRat
from fwalg.opalg import BETA, E, F, MC2, O, VELOCITY, OperatorExpr

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# Velocity weights of the built-in generators, written out here so the
# truncation used by the checks does not go through the program's schemes.
_VC_WEIGHT = {"beta": 0, "O": 1, "F": 2, "E": 2}
_SYMBOLS = {s.name: s for s in (BETA, O, F, E, MC2)}


@dataclass
class Checked:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    digest: str = ""

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


# -- canonical forms built outside the program ----------------------------------

def canon(expr, rename=None, max_vc=None, max_mass=None) -> tuple:
    """Sorted exact term list of an expression, optionally renamed and truncated.

    Renaming merges terms whose words coincide afterwards, so ``rename={"F":
    "E"}`` is the F -> E substitution done without ``subs_symbol``.
    """
    acc: dict = {}
    for t in expr.terms:
        names = tuple(s.name for s in t.word)
        if rename:
            names = tuple(rename.get(n, n) for n in names)
        if max_vc is not None and sum(_VC_WEIGHT[n] for n in names) > max_vc:
            continue
        if max_mass is not None and t.mass_power > max_mass:
            continue
        key = (names, t.mass_power, t.hbar_power)
        re, im = acc.get(key, (Fraction(0), Fraction(0)))
        acc[key] = (re + t.coeff.re, im + t.coeff.im)
    return tuple(sorted((k, v) for k, v in acc.items() if v != (0, 0)))


def reference_normal_form(raw) -> tuple:
    """Normal form of raw ``(re, im, mass, hbar, names)`` terms, from the rules.

    beta squares to one and anticommutes with odd generators, so moving it to
    the front flips the sign once per odd factor it passes; ``m`` is one power
    of mc^2 and lowers the mass exponent.
    """
    acc: dict = {}
    for re, im, mass, hbar, names in raw:
        sign, beta, odd, out = 1, 0, 0, []
        for n in names:
            if n == "beta":
                sign = -sign if odd & 1 else sign
                beta ^= 1
            elif n == "m":
                mass -= 1
            else:
                odd += n == "O"
                out.append(n)
        key = (("beta",) * beta + tuple(out), mass, hbar)
        r0, i0 = acc.get(key, (Fraction(0), Fraction(0)))
        acc[key] = (r0 + sign * re, i0 + sign * im)
    return tuple(sorted((k, v) for k, v in acc.items() if v != (0, 0)))


def record_digest(named_exprs) -> str:
    """SHA-256 of the canonical JSON of ``serialize_record`` for each output."""
    payload = [[name, shell.serialize_record(x)] for name, x in named_exprs]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _expect_digest(checked: Checked, workload: str, digest: str, recorded: bool) -> None:
    checked.digest = digest
    if recorded:
        checked.expect("result_hash", digest == EXPECTED["hashes"][workload])


def _spec_text(seed: int, hamiltonian: tuple[str, ...], directives: tuple[str, ...]) -> str:
    """Spec text whose summand and directive order are drawn from the seed.

    The normal form is canonical, so every order must give the same result.
    """
    rng = random.Random(seed)
    summands = list(hamiltonian)
    rng.shuffle(summands)
    lines = list(directives)
    rng.shuffle(lines)
    return "\n".join(["H = " + " + ".join(summands) + ";"] + lines) + "\n"


def _roundtrip(outputs: dict) -> dict:
    """serialize_record / parse_record round trip of every output, through JSON."""
    return {name: shell.parse_record(json.dumps(shell.serialize_record(x)))
            for name, x in outputs.items()}


# -- corrected_vc8 -------------------------------------------------------------------

class CorrectedVc8:
    def __init__(self, seed: int, case_seed: int):
        self.text = _spec_text(seed, ("beta*m", "F", "O"),
                               ("scheme vc;", "order 8;", "method fw-corrected;"))
        shell.parse_spec(self.text)
        self.target = canon(reference.build(reference.ERIKSEN_24), rename={"F": "E"})

    def run(self):
        result = shell.run(shell.parse_spec(self.text))
        cond = fwtransform.eriksen_condition_check(result.record)
        return result.outputs, cond, _roundtrip(result.outputs)

    def check(self, outputs) -> Checked:
        outs, cond, back = outputs
        c = Checked()
        c.expect("H_corrected_vs_Eriksen_24",
                 canon(outs["H_corrected"], rename={"F": "E"}) == self.target)
        c.expect("eriksen_condition_corrected_zero", not cond.corrected.terms)
        c.expect("eriksen_condition_uncorrected_nonzero", bool(cond.uncorrected.terms))
        for name, x in outs.items():
            c.expect(f"roundtrip_{name}", canon(back[name]) == canon(x))
        _expect_digest(c, "corrected_vc8", record_digest(sorted(outs.items())), True)
        return c


# -- eriksen10 -----------------------------------------------------------------------

class Eriksen10:
    def __init__(self, seed: int, case_seed: int):
        self.text = _spec_text(seed, ("beta*m", "E", "O"),
                               ("scheme vc;", "order 10;", "method eriksen;"))
        shell.parse_spec(self.text)
        self.target_vc8 = canon(reference.build(reference.ERIKSEN_24), rename={"F": "E"})
        self.target_m4 = canon(reference.build(reference.H_CORR_43), rename={"F": "E"})

    def run(self):
        outs = shell.run(shell.parse_spec(self.text)).outputs
        return outs, _roundtrip(outs)

    def check(self, outputs) -> Checked:
        outs, back = outputs
        h = outs["H_eriksen"]
        c = Checked()
        c.expect("vc8_truncation_vs_Eriksen_24", canon(h, max_vc=8) == self.target_vc8)
        c.expect("mass4_truncation_vs_h_corr_43", canon(h, max_mass=4) == self.target_m4)
        c.expect("term_count_130", len(h.terms) == 130)
        c.expect("roundtrip_H_eriksen", canon(back["H_eriksen"]) == canon(h))
        _expect_digest(c, "eriksen10", record_digest(sorted(outs.items())), True)
        return c


# -- verify_all ----------------------------------------------------------------------

class VerifyAll:
    """``fw verify all``; the seed does not enter, the suite takes no input."""

    def __init__(self, seed: int, case_seed: int):
        self.names = EXPECTED["verify_checks"]

    def run(self):
        return shell.verify("all")

    def check(self, results) -> Checked:
        c = Checked()
        c.expect("check_names", [r.name for r in results] == self.names)
        for r in results:
            c.expect(r.name, r.ok is True)
        blob = json.dumps([[r.name, r.ok, r.detail] for r in results])
        _expect_digest(c, "verify_all", hashlib.sha256(blob.encode()).hexdigest(), True)
        return c


# -- algebra_random ------------------------------------------------------------------

CASES_PER_SHAPE = 40


def _rand_coeff(rng: random.Random) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0)
    return (Fraction(1), im) if re == 0 and im == 0 else (re, im)


def _rand_raw(rng: random.Random, max_terms: int, max_len: int, names) -> list[tuple]:
    return [(*_rand_coeff(rng), rng.randint(-1, 2), rng.randint(0, 1),
             tuple(rng.choice(names) for _ in range(rng.randint(0, max_len))))
            for _ in range(rng.randint(1, max_terms))]


def _program_raw(raw) -> list[tuple]:
    return [(GaussRat(re, im), mass, hbar, tuple(_SYMBOLS[n] for n in names))
            for re, im, mass, hbar, names in raw]


def _rand_expr(rng: random.Random, max_terms: int = 3, max_len: int = 4) -> OperatorExpr:
    return OperatorExpr(_program_raw(_rand_raw(rng, max_terms, max_len,
                                               ("beta", "O", "F", "E"))))


def _rand_exponent(rng: random.Random) -> OperatorExpr:
    """1-2 terms, each of velocity order >= 1, so the BCH series terminates."""
    while True:
        raw = [t for t in _rand_raw(rng, 2, 3, ("beta", "O", "F", "E"))
               if sum(_VC_WEIGHT[n] for n in t[4]) >= 1]
        if raw:
            return OperatorExpr(_program_raw(raw))


class AlgebraRandom:
    """The five property shapes of the randomized acceptance suite.

    ``case_seed`` fixes the cases, and with them the work, since per-case
    cost is uneven; ``seed`` only fixes the order the cases run in, so runs
    at different seeds do the same work and produce the same outputs.
    """

    def __init__(self, seed: int, case_seed: int):
        self.recorded = case_seed == EXPECTED["algebra_seed"]
        rng = random.Random(case_seed)
        cases = []
        for _ in range(CASES_PER_SHAPE):
            raw = _rand_raw(rng, 3, 4, ("beta", "O", "F", "E", "m"))
            cases.append(("normalize", _program_raw(raw), reference_normal_form(raw)))
        for _ in range(CASES_PER_SHAPE):
            cases.append(("jacobi", *(_rand_expr(rng, 2, 3) for _ in range(3))))
        for _ in range(CASES_PER_SHAPE):
            cases.append(("adjoint", _rand_expr(rng)))
        for _ in range(CASES_PER_SHAPE):
            cases.append(("parity", _rand_expr(rng)))
        for _ in range(CASES_PER_SHAPE):
            order = rng.choice((2, 3, 3, 4, 4, 5, 6))
            cases.append(("bch", _rand_exponent(rng), _rand_exponent(rng), order))
        self.cases = cases
        self.order = list(range(len(cases)))
        random.Random(seed).shuffle(self.order)
        self.beta = opalg.sym(BETA)

    def _one(self, case):
        kind = case[0]
        if kind == "normalize":
            return (OperatorExpr(case[1]),)
        if kind == "jacobi":
            x, y, z = case[1:]
            cm = opalg.commutator
            return (cm(x, cm(y, z)) + cm(y, cm(z, x)) + cm(z, cm(x, y)),)
        if kind == "adjoint":
            return (case[1].adjoint().adjoint(),)
        if kind == "parity":
            even, odd = case[1].parity_split()
            b = self.beta
            return even, odd, b * even - even * b, b * odd + odd * b
        a, c, order = case[1:]
        exp = opalg.exp_series
        z = fwtransform.bch_combine(a, c, VELOCITY, order)
        lhs = (exp(a, VELOCITY, order) * exp(c, VELOCITY, order)).truncate(VELOCITY, order)
        return z, lhs, exp(z, VELOCITY, order)

    def run(self):
        outs = [None] * len(self.cases)
        for i in self.order:
            outs[i] = self._one(self.cases[i])
        return outs

    def check(self, outs) -> Checked:
        c = Checked()
        for i, (case, out) in enumerate(zip(self.cases, outs)):
            kind = case[0]
            if kind == "normalize":
                ok = canon(out[0]) == case[2]
            elif kind == "jacobi":
                ok = not out[0].terms
            elif kind == "adjoint":
                ok = canon(out[0]) == canon(case[1])
            elif kind == "parity":
                even, odd, comm, anti = out
                merged = dict(canon(even))
                merged.update(canon(odd))
                ok = (len(merged) == len(even.terms) + len(odd.terms)
                      and tuple(sorted(merged.items())) == canon(case[1])
                      and not comm.terms and not anti.terms)
            else:
                ok = canon(out[1]) == canon(out[2])
            c.expect(f"{kind}_{i}", ok)
        named = [(f"{i}.{j}", x) for i, out in enumerate(outs) for j, x in enumerate(out)]
        _expect_digest(c, "algebra_random", record_digest(named), self.recorded)
        return c


_CLASSES = {
    "corrected_vc8": CorrectedVc8,
    "eriksen10": Eriksen10,
    "verify_all": VerifyAll,
    "algebra_random": AlgebraRandom,
}


def prepare(name: str, seed: int, case_seed: int):
    return _CLASSES[name](seed, case_seed)
