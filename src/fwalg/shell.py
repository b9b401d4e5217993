"""User-facing surface: spec parser, renderers, verification harness, CLI.

A Hamiltonian spec is a small semicolon-separated text format:

    # comment
    symbol Q odd 1;
    H = beta*m + F + O;
    scheme vc;
    order 6;
    method fw-corrected;

``beta``, ``m``, ``E``, ``F`` and ``O`` are built in; ``m^-k`` writes the
bookkeeping factor 1/(m^k c^(2k)) and ``m`` alone one power of mc^2.
Rational literals are written ``3/64``; ``i`` is the imaginary unit.

Rendered output formats: plain text, LaTeX with the conventional paired
m-and-c powers, and an exact-integer record format that round-trips.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .gaussrat import GaussRat
from .opalg import (
    BUILTIN_SYMBOLS, E, F, MASS, O, VELOCITY, AlgebraError, DuplicateSymbol,
    OperatorExpr, SymbolRegistry, WeightScheme, _canonical_rows, _normalize_raw, word,
)
from . import diracred, fwtransform, numlab, reference
from .fwtransform import TransformError, TransformRecord

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
    registry: SymbolRegistry = field(default_factory=SymbolRegistry)


_METHODS = ("fw", "fw-corrected", "eriksen")
_DIRECTIVES = ("symbol", "H", "scheme", "order", "method")
#: Deepest parenthesis nesting a spec may use; each level costs the parser
#: four stack frames, so this stays well inside Python's recursion limit.
_MAX_NESTING = 100
#: Names a spec cannot declare: the imaginary unit and the builtin generators.
_RESERVED_NAMES = ("i",) + tuple(s.name for s in BUILTIN_SYMBOLS)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        # HamiltonianSpec's keyword arguments, one per directive given; the
        # dataclass supplies the default of each one left out.
        given = {}
        seen = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise SpecSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col,
                                      _DIRECTIVES)
            keyword = tok.text
            if keyword in seen:
                raise SpecSyntaxError(f"repeated directive {keyword!r}", tok.line, tok.col)
            if keyword != "symbol":
                seen.add(keyword)
            self.next()
            if keyword == "symbol":
                name_tok = self.expect("ident", "symbol name")
                if name_tok.text in _RESERVED_NAMES:
                    raise SpecSyntaxError(f"symbol name {name_tok.text!r} is reserved",
                                          name_tok.line, name_tok.col)
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
            elif keyword == "H":
                self.expect("=", "=")
                given["hamiltonian"] = self._expr(registry)
            elif keyword == "scheme":
                val = self.expect("ident", "vc|mass")
                if val.text == "vc":
                    given["scheme"] = VELOCITY
                elif val.text == "mass":
                    given["scheme"] = MASS
                else:
                    raise SpecSyntaxError(f"bad scheme {val.text!r}",
                                          val.line, val.col, ("vc", "mass"))
            elif keyword == "order":
                val = self.expect("int", "integer order")
                given["max_order"] = int(val.text)
            elif keyword == "method":
                given["method"] = self._method_name()
            else:
                raise SpecSyntaxError(f"unknown directive {keyword!r}",
                                      tok.line, tok.col, _DIRECTIVES)
            if self.peek().kind == ";":
                self.next()
        if "hamiltonian" not in given:
            tok = self.peek()
            raise SpecSyntaxError("spec has no Hamiltonian", tok.line, tok.col, ("H =",))
        return HamiltonianSpec(registry=registry, **given)

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
            if self.depth == _MAX_NESTING:
                raise SpecSyntaxError("parentheses nested too deeply", tok.line, tok.col)
            self.next()
            self.depth += 1
            inner = self._expr(registry)
            self.expect(")", ")")
            self.depth -= 1
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
                  key=lambda t: (t.vc_order,
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
        # a unit coefficient stays when nothing, or only a 1/(mc^2) power, follows
        if mag != 1 or (not t.word and t.mass_power >= 0 and t.hbar_power == 0):
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


def _tex_power(base: str, k: int) -> str:
    """base^k in LaTeX: no exponent for k = 1, braces around one of two or more characters."""
    if k == 1:
        return base
    exponent = str(k)
    return f"{base}^{exponent}" if len(exponent) == 1 else f"{base}^{{{exponent}}}"


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
            word_tex += _tex_power(_LATEX_NAMES.get(name, r"{\rm " + name + "}"), power)
        if t.hbar_power:
            num_factors.append(_tex_power(r"\hbar", t.hbar_power))
        if t.mass_power:
            k = abs(t.mass_power)
            (den_factors if t.mass_power > 0 else num_factors).append(
                _tex_power("m", k) + _tex_power("c", 2 * k))
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


def serialize_record(expr: OperatorExpr) -> dict:
    """Exact-integer structured form; parse_record inverts it bit for bit.

    The terms are read from the graded form in the canonical order
    (``_canonical_rows``), and each part's pair is its numerator and the
    common denominator D divided by their gcd, so no ``Term`` or
    ``GaussRat`` is built. Custom symbols are declared by name, so two
    distinct symbols of one name raise ``ValueError``: the record could not
    tell them apart.
    """
    d, rows = _canonical_rows(expr)
    seen = set(BUILTIN_SYMBOLS)
    symbols = {}
    terms = []
    for (m, h, _, names), w, a, b, _, _ in rows:
        for s in w:
            if s not in seen:
                if s.name in symbols:
                    raise ValueError(f"two symbols named {s.name!r} in one expression "
                                     "cannot be told apart in a record")
                seen.add(s)
                symbols[s.name] = {"parity": s.parity, "weight_vc": s.weight_vc}
        ga, gb = gcd(a, d), gcd(b, d)
        terms.append({
            "coeff_re": [a // ga, d // ga],
            "coeff_im": [b // gb, d // gb],
            "mass_power": m,
            "hbar_power": h,
            "word": list(names),
        })
    return {"schema": RECORD_SCHEMA, "symbols": symbols, "terms": terms}


def _int_pair(entry: dict, key: str) -> tuple[int, int]:
    pair = entry.get(key)
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or type(pair[0]) is not int or type(pair[1]) is not int or not pair[1]):
        raise ValueError(f"{key} must be two integers with a nonzero denominator, got {pair!r}")
    return pair


def _int_field(entry: dict, key: str) -> int:
    value = entry.get(key)
    if type(value) is not int:  # bool is a subclass of int, not an exponent
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _word_field(entry: dict, symbols: dict) -> tuple:
    """The entry's word: its names, each looked up among the record's symbols."""
    names = entry.get("word")
    if not isinstance(names, (list, tuple)):
        raise ValueError(f"word must be a list of symbol names, got {names!r}")
    try:
        return tuple(map(symbols.__getitem__, names))
    except (KeyError, TypeError):  # an unregistered or unhashable name
        bad = next(name for name in names if not isinstance(name, str) or name not in symbols)
        raise ValueError(f"word has an unknown symbol {bad!r}") from None


def parse_record(data) -> OperatorExpr:
    """The expression of a ``serialize_record`` dict or its JSON text.

    Each term is validated and read into an integer row ``(a, b, d, mass,
    hbar, word)`` in one pass: the two parts are put over one d, by
    cross-multiplying only when both are nonzero with different
    denominators, and a negative d is left for the normal form's lift to
    take into the numerators. No ``GaussRat`` is built. The rows go through
    the one normal form, ``_normalize_raw``, so a record whose terms are
    unsorted, repeated, not in lowest terms or cancelling parses to the same
    expression as its canonical form. A malformed record, symbol,
    coefficient, exponent or word raises ``ValueError`` naming the field.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"record must be an object, got {data!r}")
    if data.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"unsupported record schema {data.get('schema')!r}")
    declared = data.get("symbols", {})
    if not isinstance(declared, dict):
        raise ValueError(f"symbols must map names to parity and weight_vc, got {declared!r}")
    registry = SymbolRegistry()
    for name, info in declared.items():
        if not isinstance(info, dict):
            raise ValueError(f"symbols entry {name!r} must hold parity and weight_vc, got {info!r}")
        try:
            registry.register(name, info.get("parity"), _int_field(info, "weight_vc"))
        except (ValueError, DuplicateSymbol) as exc:
            raise ValueError(f"symbols entry {name!r}: {exc}") from None
    symbols = {s.name: s for s in registry.symbols()}
    entries = data.get("terms")
    if not isinstance(entries, (list, tuple)) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"terms must be a list of term objects, got {entries!r}")
    rows = []
    for entry in entries:
        a, d = _int_pair(entry, "coeff_re")
        b, e = _int_pair(entry, "coeff_im")
        word = _word_field(entry, symbols)
        # a zero part or a shared denominator needs no cross multiplication
        if b and d != e:
            if a:
                a, b, d = a * e, b * d, d * e
            else:
                d = e
        rows.append((a, b, d, _int_field(entry, "mass_power"),
                     _int_field(entry, "hbar_power"), word))
    return _normalize_raw(rows)


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
    record: TransformRecord | None
    outputs: dict


def run(spec: HamiltonianSpec) -> RunResult:
    """Dispatch a parsed spec to the matching pipeline."""
    if spec.method == "eriksen":
        h_e = fwtransform.eriksen_series(spec.hamiltonian, spec.max_order,
                                         spec.scheme)
        return RunResult(record=None, outputs={"H_eriksen": h_e})
    pipelines = {"fw": fwtransform.fw_pipeline,
                 "fw-corrected": fwtransform.corrected_pipeline}
    if spec.method not in pipelines:
        raise ValueError(f"unknown method {spec.method!r}")
    rec = pipelines[spec.method](spec.hamiltonian, spec.scheme, spec.max_order)
    return RunResult(record=rec, outputs=_record_outputs(rec))


def _record_outputs(rec: TransformRecord) -> dict:
    outputs = {}
    for idx, s in enumerate(rec.steps, start=1):
        outputs[f"S{idx}"] = s
    for idx, k in enumerate(rec.intermediates, start=1):
        outputs[f"H{idx}"] = k
    outputs["H_orig"] = rec.h_orig
    if rec.h_corrected is not None:
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
    abstract = reference.h_corr_38().truncate(VELOCITY, 4)
    concrete = diracred.instantiate(abstract, max_field_order=3)
    target = diracred.reference_field_hamiltonian()
    checks = [_check_equal("dirac.eq13", concrete, target)]
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

def _rendered_outputs(outputs: dict, fmt: str) -> str:
    rendered = {name: render(expr, fmt) for name, expr in outputs.items()}
    if fmt == "record":
        return json.dumps(rendered, indent=2) + "\n"
    return "".join(f"{name} = {text}\n" for name, text in rendered.items())


def _orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
    p_probe.add_argument("--p-over-mc", type=_finite_float, required=True)
    p_probe.add_argument("--orders", type=_orders, default="2,4,6,8",
                         help="distinct even orders, comma-separated, each at most "
                              f"{numlab.PROBE_MAX_ORDER} (default 2,4,6,8)")
    p_probe.add_argument("--out", choices=("text", "record"), default="text")

    args = parser.parse_args(argv)

    if args.command == "transform":
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                text = fh.read()
            output = _rendered_outputs(run(parse_spec(text)).outputs, args.out)
            # The file first, so that an unwritable directory prints nothing.
            out_dir = os.environ.get("FW_OUTPUT_DIR")
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                base = os.path.splitext(os.path.basename(args.spec_file))[0]
                path = os.path.join(out_dir, f"{base}.{args.out}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(output)
            sys.stdout.write(output)
        except (SpecError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except UnicodeDecodeError as exc:
            print(f"error: {args.spec_file}: not UTF-8 text: {exc}", file=sys.stderr)
            return 2
        except (AlgebraError, TransformError) as exc:
            print(f"error: {args.spec_file}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
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
