"""User-facing surface: spec parser, renderers, verification harness, CLI.

A Hamiltonian spec is a small semicolon-separated text format:

    # comment
    symbol Q odd 1;
    H = beta*m + F + O;
    scheme vc;
    order 6;
    method fw-corrected;
    steps 3;

``beta``, ``m``, ``E``, ``F`` and ``O`` are built in; ``m^-k`` writes the
bookkeeping factor 1/(m^k c^(2k)) and ``m`` alone one power of mc^2.
Rational literals are written ``3/64``; ``i`` is the imaginary unit.

Rendered output formats: plain text, LaTeX with the conventional paired
m-and-c powers, and an exact-integer record format that round-trips.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .gaussrat import GaussRat
from .opalg import (
    BETA, E, F, MASS, MC2, O, VELOCITY, DuplicateSymbol, OperatorExpr,
    SymbolRegistry, WeightScheme, word,
)
from . import fwtransform, numlab, reference
from .fwtransform import TransformRecord

RECORD_SCHEMA = "fw.expr/1"


class SpecError(Exception):
    """Base for spec-text problems; carries position and expectations."""

    def __init__(self, message: str, line: int = 0, col: int = 0, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        loc = f" at line {line}, column {col}" if line else ""
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(message + loc + hint)


class SpecSyntaxError(SpecError):
    pass


class UnknownSymbol(SpecError):
    pass


class DuplicateDeclaration(SpecError):
    pass


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[=;*+\-^/(),])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind if kind != "op" else chunk, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- parsed spec ----------------------------------------------------------------

@dataclass
class HamiltonianSpec:
    hamiltonian: OperatorExpr
    scheme: WeightScheme = VELOCITY
    max_order: int = 6
    method: str = "fw-corrected"
    max_steps: int | None = None
    declarations: list[tuple[str, str, int]] = field(default_factory=list)
    registry: SymbolRegistry = field(default_factory=SymbolRegistry)


_METHODS = ("fw", "fw-corrected", "eriksen")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SpecSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                                  tok.line, tok.col, (expected,))
        return self.next()

    def parse(self) -> HamiltonianSpec:
        registry = SymbolRegistry()
        declarations = []
        hamiltonian = None
        scheme = VELOCITY
        max_order = 6
        method = "fw-corrected"
        max_steps = None
        seen_h = False
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise SpecSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col,
                                      ("symbol", "H", "scheme", "order", "method", "steps"))
            keyword = tok.text
            if keyword == "symbol":
                self.next()
                name_tok = self.expect("ident", "symbol name")
                parity_tok = self.expect("ident", "even|odd")
                if parity_tok.text not in ("even", "odd"):
                    raise SpecSyntaxError(f"bad parity {parity_tok.text!r}",
                                          parity_tok.line, parity_tok.col, ("even", "odd"))
                weight_tok = self.expect("int", "weight")
                try:
                    registry.register(name_tok.text, parity_tok.text, int(weight_tok.text))
                except DuplicateSymbol:
                    raise DuplicateDeclaration(
                        f"symbol {name_tok.text!r} declared twice",
                        name_tok.line, name_tok.col) from None
                declarations.append((name_tok.text, parity_tok.text, int(weight_tok.text)))
            elif keyword == "H":
                if seen_h:
                    raise SpecSyntaxError("only one Hamiltonian per spec",
                                          tok.line, tok.col)
                self.next()
                self.expect("=", "=")
                hamiltonian = self._expr(registry)
                seen_h = True
            elif keyword == "scheme":
                self.next()
                val = self.expect("ident", "vc|mass")
                if val.text == "vc":
                    scheme = VELOCITY
                elif val.text == "mass":
                    scheme = MASS
                else:
                    raise SpecSyntaxError(f"bad scheme {val.text!r}",
                                          val.line, val.col, ("vc", "mass"))
            elif keyword == "order":
                self.next()
                val = self.expect("int", "integer order")
                max_order = int(val.text)
            elif keyword == "steps":
                self.next()
                val = self.expect("int", "integer step limit")
                max_steps = int(val.text)
                if max_steps < 1:
                    raise SpecSyntaxError("step limit must be at least 1",
                                          val.line, val.col, ("positive integer",))
            elif keyword == "method":
                self.next()
                method = self._method_name()
            else:
                raise SpecSyntaxError(f"unknown directive {keyword!r}",
                                      tok.line, tok.col,
                                      ("symbol", "H", "scheme", "order", "method", "steps"))
            if self.peek().kind == ";":
                self.next()
        if hamiltonian is None:
            tok = self.peek()
            raise SpecSyntaxError("spec has no Hamiltonian", tok.line, tok.col, ("H =",))
        return HamiltonianSpec(hamiltonian=hamiltonian, scheme=scheme,
                               max_order=max_order, method=method,
                               max_steps=max_steps, declarations=declarations,
                               registry=registry)

    def _method_name(self) -> str:
        tok = self.expect("ident", "|".join(_METHODS))
        name = tok.text
        while self.peek().kind == "-":
            self.next()
            part = self.expect("ident", "method name part")
            name += "-" + part.text
        if name not in _METHODS:
            raise SpecSyntaxError(f"unknown method {name!r}", tok.line, tok.col, _METHODS)
        return name

    # expression grammar: expr := term (('+'|'-') term)*
    #                     term := factor ('*' factor)*
    #                     factor := ['-'] primary ['^' ['-'] int]
    #                     primary := rational | ident | '(' expr ')'
    def _expr(self, registry: SymbolRegistry) -> OperatorExpr:
        total = self._term(registry)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self._term(registry)
            total = total + rhs if op == "+" else total - rhs
        return total

    def _term(self, registry: SymbolRegistry) -> OperatorExpr:
        total = self._factor(registry)
        while self.peek().kind == "*":
            self.next()
            total = total * self._factor(registry)
        return total

    def _factor(self, registry: SymbolRegistry) -> OperatorExpr:
        negate = False
        while self.peek().kind == "-":
            self.next()
            negate = not negate
        base = self._primary(registry)
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            exp_tok = self.expect("int", "integer exponent")
            exp = sign * int(exp_tok.text)
            base = self._power(base, exp, exp_tok)
        return -base if negate else base

    @staticmethod
    def _power(base: OperatorExpr, exp: int, tok: Token) -> OperatorExpr:
        if exp >= 0:
            return base ** exp
        # negative powers exist only for the mc^2 bookkeeping factor
        if len(base.terms) == 1 and not base.terms[0].word \
                and base.terms[0].coeff == 1 and base.terms[0].hbar_power == 0:
            return word(1, [], mass_power=exp * base.terms[0].mass_power)
        raise SpecSyntaxError("negative powers are only defined for m",
                              tok.line, tok.col)

    def _primary(self, registry: SymbolRegistry) -> OperatorExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("int", "denominator")
                den = int(den_tok.text)
                if den == 0:
                    raise SpecSyntaxError("zero denominator", den_tok.line, den_tok.col,
                                          ("nonzero denominator",))
                return word(Fraction(num, den), [])
            return word(num, [])
        if tok.kind == "ident":
            self.next()
            if tok.text == "i":
                return word(GaussRat(0, 1), [])
            if tok.text not in registry:
                raise UnknownSymbol(f"unknown symbol {tok.text!r}", tok.line, tok.col)
            return word(1, [registry.lookup(tok.text)])
        if tok.kind == "(":
            self.next()
            inner = self._expr(registry)
            self.expect(")", ")")
            return inner
        raise SpecSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                              tok.line, tok.col, ("number", "symbol", "("))


def parse_spec(text: str) -> HamiltonianSpec:
    return _Parser(text).parse()


# -- rendering --------------------------------------------------------------------

_LATEX_NAMES = {"beta": r"\beta", "O": r"{\cal O}", "F": r"{\cal F}",
                "E": r"{\cal E}"}


def _display_sorted(expr: OperatorExpr):
    return sorted(expr.terms,
                  key=lambda t: (sum(s.weight_vc for s in t.word),
                                 tuple(s.name for s in t.word),
                                 t.mass_power, t.hbar_power))


def _collapse_powers(names: list[str]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for name in names:
        if out and out[-1][0] == name:
            out[-1] = (name, out[-1][1] + 1)
        else:
            out.append((name, 1))
    return out


def _sign_and_magnitude(coeff: GaussRat) -> tuple[bool, GaussRat]:
    """(negative, magnitude): a real or imaginary coefficient prints its sign
    in front; a mixed one is printed whole, behind a plus."""
    negative = (coeff.im == 0 and coeff.re < 0) or (coeff.re == 0 and coeff.im < 0)
    return negative, (-coeff if negative else coeff)


def render_text(expr: OperatorExpr) -> str:
    if expr.is_zero:
        return "0"
    chunks = []
    for t in _display_sorted(expr):
        negative, mag = _sign_and_magnitude(t.coeff)
        sign = "-" if negative else "+"
        body = []
        if mag != 1 or (not t.word and t.mass_power == 0 and t.hbar_power == 0):
            body.append(f"({mag})" if mag.im != 0 else str(mag))
        for name, power in _collapse_powers([s.name for s in t.word]):
            body.append(name if power == 1 else f"{name}^{power}")
        if t.hbar_power:
            body.append("hbar" if t.hbar_power == 1 else f"hbar^{t.hbar_power}")
        if t.mass_power > 0:
            k = t.mass_power
            body.append(f"/(m c^2)" if k == 1 else f"/(m^{k} c^{2 * k})")
        elif t.mass_power < 0:
            k = -t.mass_power
            body.append("m c^2" if k == 1 else f"m^{k} c^{2 * k}")
        chunks.append(sign + " " + " ".join(body))
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else text


def render_latex(expr: OperatorExpr) -> str:
    if expr.is_zero:
        return "0"
    pieces = []
    for t in _display_sorted(expr):
        negative, mag = _sign_and_magnitude(t.coeff)
        num_factors = []
        den_factors = []
        # coefficient numerator/denominator
        if mag.im == 0:
            if mag.re.numerator != 1:
                num_factors.append(str(mag.re.numerator))
            if mag.re.denominator != 1:
                den_factors.append(str(mag.re.denominator))
        elif mag.re == 0:
            if mag.im.numerator != 1:
                num_factors.append(f"{mag.im.numerator}i")
            else:
                num_factors.append("i")
            if mag.im.denominator != 1:
                den_factors.append(str(mag.im.denominator))
        else:
            num_factors.append(f"({mag})")
        word_names = [s.name for s in t.word]
        beta_prefix = ""
        if word_names and word_names[0] == "beta":
            beta_prefix = _LATEX_NAMES["beta"]
            word_names = word_names[1:]
        word_tex = ""
        for name, power in _collapse_powers(word_names):
            base = _LATEX_NAMES.get(name, r"{\rm " + name + "}")
            word_tex += base if power == 1 else base + f"^{{{power}}}" if power > 9 \
                else base + f"^{power}"
        if t.hbar_power:
            num_factors.append(r"\hbar" if t.hbar_power == 1 else
                               rf"\hbar^{t.hbar_power}")
        if t.mass_power > 0:
            k = t.mass_power
            den_factors.append("mc^2" if k == 1 else f"m^{k}c^{{{2 * k}}}"
                               if 2 * k > 9 else f"m^{k}c^{2 * k}")
        elif t.mass_power < 0:
            k = -t.mass_power
            num_factors.append("mc^2" if k == 1 else f"m^{k}c^{2 * k}")
        numerator = "".join(num_factors) + word_tex
        if not numerator:
            numerator = "1"
        if den_factors:
            tail = r"\frac{" + numerator + "}{" + "".join(den_factors) + "}"
        else:
            tail = numerator
        if beta_prefix and tail[0].isalnum():
            beta_prefix += " "
        pieces.append(("-" if negative else "+") + beta_prefix + tail)
    out = "".join(pieces)
    return out[1:] if out.startswith("+") else out


def serialize_record(expr: OperatorExpr, registry: SymbolRegistry | None = None) -> dict:
    """Exact-integer structured form; parse_record inverts it bit for bit."""
    builtin = {s.name for s in (BETA, O, F, E, MC2)}
    symbols = {}
    for t in expr.terms:
        for s in t.word:
            if s.name not in builtin and s.name not in symbols:
                symbols[s.name] = {"parity": s.parity, "weight_vc": s.weight_vc}
    return {
        "schema": RECORD_SCHEMA,
        "symbols": symbols,
        "terms": [
            {
                "coeff_re": [t.coeff.re.numerator, t.coeff.re.denominator],
                "coeff_im": [t.coeff.im.numerator, t.coeff.im.denominator],
                "mass_power": t.mass_power,
                "hbar_power": t.hbar_power,
                "word": [s.name for s in t.word],
            }
            for t in expr.terms
        ],
    }


def parse_record(data) -> OperatorExpr:
    if isinstance(data, str):
        data = json.loads(data)
    if data.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"unsupported record schema {data.get('schema')!r}")
    registry = SymbolRegistry()
    for name, info in data.get("symbols", {}).items():
        registry.register(name, info["parity"], info["weight_vc"])
    raw = []
    for entry in data["terms"]:
        coeff = GaussRat(Fraction(*entry["coeff_re"]), Fraction(*entry["coeff_im"]))
        syms = tuple(registry.lookup(n) for n in entry["word"])
        raw.append((coeff, entry["mass_power"], entry["hbar_power"], syms))
    return OperatorExpr(raw)


def render(expr: OperatorExpr, fmt: str = "text"):
    if fmt == "text":
        return render_text(expr)
    if fmt == "latex":
        return render_latex(expr)
    if fmt == "record":
        return serialize_record(expr)
    raise ValueError(f"unknown format {fmt!r}")


# -- running a spec ------------------------------------------------------------------

@dataclass
class RunResult:
    spec: HamiltonianSpec
    record: TransformRecord | None
    outputs: dict


def run(spec: HamiltonianSpec) -> RunResult:
    """Dispatch a parsed spec to the matching pipeline."""
    if spec.method == "fw":
        rec = fwtransform.fw_pipeline(spec.hamiltonian, spec.scheme,
                                      spec.max_order, spec.max_steps)
        outputs = _record_outputs(rec, corrected=False)
        return RunResult(spec=spec, record=rec, outputs=outputs)
    if spec.method == "fw-corrected":
        rec = fwtransform.corrected_pipeline(spec.hamiltonian, spec.scheme,
                                             spec.max_order, spec.max_steps)
        outputs = _record_outputs(rec, corrected=True)
        return RunResult(spec=spec, record=rec, outputs=outputs)
    if spec.method == "eriksen":
        h_e = fwtransform.eriksen_series(spec.hamiltonian, spec.max_order,
                                         spec.scheme)
        return RunResult(spec=spec, record=None, outputs={"H_eriksen": h_e})
    raise ValueError(f"unknown method {spec.method!r}")


def _record_outputs(rec: TransformRecord, corrected: bool) -> dict:
    outputs = {}
    for idx, s in enumerate(rec.steps, start=1):
        outputs[f"S{idx}"] = s
    for idx, k in enumerate(rec.intermediates, start=1):
        outputs[f"H{idx}"] = k
    outputs["H_orig"] = rec.h_orig
    if corrected:
        outputs["R_combined"] = rec.combined_exponent
        outputs["C_correction"] = rec.correction_exponent
        outputs["H_corrected"] = rec.h_corrected
    return outputs


# -- verification harness --------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        suffix = f"  {self.detail}" if (self.detail.strip() and not self.ok) else ""
        return f"{status} {self.name}{suffix}"


def _check_equal(name: str, got, expected) -> CheckResult:
    report = reference.diff(got, expected)
    return CheckResult(name=name, ok=report.is_empty,
                       detail="" if report.is_empty else report.render())


def verify_vc6() -> list[CheckResult]:
    h_d = reference.mass_term() + word(1, [E]) + word(1, [O])
    rec = fwtransform.corrected_pipeline(h_d, VELOCITY, 6)
    fin = fwtransform.finalize_bare_f
    checks = [
        _check_equal("vc6.first_step", rec.steps[0], reference.first_step()),
        _check_equal("vc6.h_prime", fin(rec.intermediates[0]), reference.h_prime_34()),
        _check_equal("vc6.s_prime", rec.steps[1], reference.s_prime_34()),
        _check_equal("vc6.h_orig", rec.h_orig, reference.h_orig_35()),
        _check_equal("vc6.h_corrected", rec.h_corrected, reference.h_corr_38()),
        _check_equal("vc6.correction_delta", rec.h_corrected - rec.h_orig,
                     reference.delta_37()),
    ]
    cond = fwtransform.eriksen_condition_check(rec)
    checks.append(CheckResult("vc6.eriksen_condition_corrected", cond.corrected.is_zero))
    checks.append(CheckResult("vc6.eriksen_condition_uncorrected_violated",
                              not cond.uncorrected.is_zero))
    return checks


def verify_m4() -> list[CheckResult]:
    h_d = reference.mass_term() + word(1, [E]) + word(1, [O])
    rec = fwtransform.corrected_pipeline(h_d, MASS, 4)
    refs = reference.steps_m4()
    checks = [
        _check_equal(f"m4.step_{i}", s, r)
        for i, (s, r) in enumerate(zip(rec.steps, refs), start=1)
    ]
    checks.append(CheckResult("m4.step_count", len(rec.steps) == 4,
                              f"{len(rec.steps)} steps"))
    checks.append(_check_equal("m4.h_orig", rec.h_orig, reference.h_orig_40()))
    checks.append(_check_equal("m4.h_corrected", rec.h_corrected, reference.h_corr_43()))
    return checks


def verify_eriksen8() -> list[CheckResult]:
    h_d = reference.mass_term() + word(1, [E]) + word(1, [O])
    h_e = fwtransform.eriksen_series(h_d, 8)
    target = reference.build(reference.ERIKSEN_24).subs_symbol(F, E)
    checks = [_check_equal("eriksen8.full", h_e, target)]
    rec6 = fwtransform.corrected_pipeline(h_d, VELOCITY, 6)
    checks.append(_check_equal("eriksen8.vc6_truncation",
                               h_e.truncate(VELOCITY, 6),
                               rec6.h_corrected.subs_symbol(F, E)))
    rec4 = fwtransform.corrected_pipeline(h_d, MASS, 4)
    checks.append(_check_equal("eriksen8.m4_truncation",
                               h_e.truncate(MASS, 4),
                               rec4.h_corrected.subs_symbol(F, E)))
    free = reference.mass_term() + word(1, [O])
    checks.append(_check_equal("eriksen8.free_particle",
                               fwtransform.eriksen_series(free, 8),
                               reference.build(reference.FREE_PARTICLE_22)))
    return checks


def verify_dirac() -> list[CheckResult]:
    from . import diracred
    abstract = reference.h_corr_38().truncate(VELOCITY, 4)
    concrete = diracred.instantiate(abstract, max_field_order=3)
    target = diracred.reference_field_hamiltonian()
    report = reference.diff(concrete, target)
    checks = [CheckResult("dirac.eq13", report.is_empty,
                          "" if report.is_empty else report.render())]
    hermitian = (concrete - concrete.adjoint()).truncate_field_order(3).is_zero
    checks.append(CheckResult("dirac.hermitian", hermitian))
    checks.append(CheckResult("dirac.even", concrete.parity_split()[1].is_zero))
    rendered = diracred.render_conventional(concrete)
    checks.append(CheckResult("dirac.conventional_form", "raw" not in rendered,
                              rendered))
    return checks


def verify_numeric() -> list[CheckResult]:
    import numpy as np
    checks = []
    for p in (0.0, 0.5, 2.0):
        model = numlab.free_model(p)
        u = numlab.eriksen_unitary(model)
        eps_exact = model.rest_energy * np.sqrt(1 + p * p)
        block = numlab.positive_block_spectrum(model, u)
        checks.append(CheckResult(
            f"numeric.free_p{p}",
            numlab.block_diag_residual(model, u) <= 1e-10
            and numlab.eriksen_condition_residual(model, u) <= 1e-10
            and numlab.unitarity_defect(u) <= 1e-12
            and float(np.max(np.abs(block - eps_exact))) <= 1e-12,
        ))
    model = numlab.lattice_model(n_sites=256,
                                 potential=numlab.regularized_well(0.35, 0.7))
    u = numlab.eriksen_unitary(model)
    checks.append(CheckResult(
        "numeric.lattice1024",
        numlab.block_diag_residual(model, u) <= 1e-10
        and numlab.eriksen_condition_residual(model, u) <= 1e-10,
    ))
    rep_c = numlab.convergence_probe(numlab.free_model(0.5))
    rep_d = numlab.convergence_probe(numlab.free_model(1.5))
    checks.append(CheckResult("numeric.probe_convergent",
                              rep_c.classification == "converging"))
    checks.append(CheckResult("numeric.probe_divergent",
                              rep_d.classification == "diverging"))
    return checks


VERIFY_SUITES = {
    "vc6": verify_vc6,
    "m4": verify_m4,
    "eriksen8": verify_eriksen8,
    "dirac": verify_dirac,
    "numeric": verify_numeric,
}


def verify(suite: str) -> list[CheckResult]:
    if suite == "all":
        out = []
        for fn in VERIFY_SUITES.values():
            out.extend(fn())
        return out
    try:
        return VERIFY_SUITES[suite]()
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)} or all"
        ) from None


# -- CLI ----------------------------------------------------------------------------

def _write_outputs(outputs: dict, fmt: str, stream) -> None:
    if fmt == "record":
        payload = {name: serialize_record(expr) for name, expr in outputs.items()
                   if isinstance(expr, OperatorExpr)}
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    renderer = render_text if fmt == "text" else render_latex
    for name, expr in outputs.items():
        if isinstance(expr, OperatorExpr):
            stream.write(f"{name} = {renderer(expr)}\n")


def _orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fw",
        description="block-diagonalization engine for Dirac-type Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="run a spec file through a pipeline")
    p_tr.add_argument("spec_file")
    p_tr.add_argument("--out", choices=("text", "latex", "record"), default="text")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=tuple(VERIFY_SUITES) + ("all",))

    p_probe = sub.add_parser("probe", help="series convergence probe")
    p_probe.add_argument("--p-over-mc", type=float, required=True)
    p_probe.add_argument("--orders", type=_orders, default="2,4,6,8")
    p_probe.add_argument("--out", choices=("text", "record"), default="text")

    args = parser.parse_args(argv)

    if args.command == "transform":
        from .opalg import AlgebraError
        from .fwtransform import TransformError
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                text = fh.read()
            spec = parse_spec(text)
            result = run(spec)
        except (SpecError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (AlgebraError, TransformError) as exc:
            print(f"error: {args.spec_file}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
        _write_outputs(result.outputs, args.out, sys.stdout)
        out_dir = os.environ.get("FW_OUTPUT_DIR")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            base = os.path.splitext(os.path.basename(args.spec_file))[0]
            path = os.path.join(out_dir, f"{base}.{args.out}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                _write_outputs(result.outputs, args.out, fh)
        return 0

    if args.command == "verify":
        results = verify(args.suite)
        for res in results:
            print(res.line())
        failed = [r for r in results if not r.ok]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    if args.command == "probe":
        model = numlab.free_model(args.p_over_mc)
        try:
            report = numlab.convergence_probe(model, args.orders)
        except ValueError as exc:
            print(f"error: probe: {exc}", file=sys.stderr)
            return 2
        if args.out == "record":
            print(json.dumps(report.record(), indent=2))
        else:
            for line in report.lines():
                print(line)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
