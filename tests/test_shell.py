import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fwalg.gaussrat import GaussRat
from fwalg.opalg import (
    BETA, E, F, MASS, MC2, O, VELOCITY, OperatorSymbol, mul_trunc, normalize, scale, sym,
    word, zero,
)
from fwalg import numlab, reference as ref
from fwalg.shell import (
    DuplicateDeclaration, SpecSyntaxError, UnknownSymbol, main, parse_record,
    parse_spec, render, render_latex, render_text, run, serialize_record,
    verify,
)

from conftest import (
    from_pairs, graded_by_key, is_canonical, parse_record_oracle, rand_expr,
    serialize_record_oracle, terms_built,
)


# -- parsing -----------------------------------------------------------------------

def test_parse_standard_configuration():
    spec = parse_spec("H = beta*m + F + O; scheme vc; order 6; method fw-corrected")
    assert spec.scheme == VELOCITY
    assert spec.max_order == 6
    assert spec.method == "fw-corrected"
    assert spec.hamiltonian == ref.mass_term() + sym(F) + sym(O)


def test_parse_trivial_rest_spec():
    spec = parse_spec("H = beta*m")
    assert spec.hamiltonian == ref.mass_term()


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbol) as err:
        parse_spec("H = beta*m + Q")
    assert err.value.line == 1


def test_parse_duplicate_declaration():
    with pytest.raises(DuplicateDeclaration):
        parse_spec("symbol Q odd 1; symbol Q even 2; H = beta*m + Q;")


def test_parse_custom_symbol_usable():
    spec = parse_spec("symbol Q odd 2; H = beta*m + Q; order 4;")
    q = spec.registry.lookup("Q")
    assert (q.parity, q.weight_vc) == ("odd", 2)
    assert spec.hamiltonian == ref.mass_term() + sym(q)


def test_parse_rational_and_mass_factors():
    spec = parse_spec("H = beta*m + 3/64 * m^-2 * O*O;")
    expected = ref.mass_term() + word(Fraction(3, 64), [O, O], mass_power=2)
    assert spec.hamiltonian == expected


def test_parse_imaginary_literal_and_parens():
    spec = parse_spec("H = beta*m + i*(O - O) + 2*(E + F);")
    assert spec.hamiltonian == ref.mass_term() + 2 * sym(E) + 2 * sym(F)


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("H = beta*m +;")
    assert err.value.line == 1 and err.value.col == 13
    assert err.value.expected
    with pytest.raises(SpecSyntaxError):
        parse_spec("H = beta*m; H = beta*m;")
    with pytest.raises(SpecSyntaxError):
        parse_spec("scheme vc;")
    with pytest.raises(SpecSyntaxError):
        parse_spec("H = beta*m; method nonsense;")
    with pytest.raises(SpecSyntaxError):
        parse_spec("H = beta*m + E^-1;")


def test_parse_comments_and_whitespace():
    text = """
    # a comment
    H = beta*m + F + O;   # trailing comment
    order 4; scheme mass;
    """
    spec = parse_spec(text)
    assert spec.max_order == 4
    assert spec.scheme == MASS


def test_parse_nesting_limit():
    nested = "(" * 100 + "O" + ")" * 100
    plain = parse_spec("H = beta*m + O;").hamiltonian
    assert parse_spec(f"H = beta*m + {nested};").hamiltonian == plain
    # the 101st parenthesis is the offending one
    with pytest.raises(SpecSyntaxError, match="nested too deeply at line 1, column 114"):
        parse_spec(f"H = beta*m + ({nested});")


# -- running -----------------------------------------------------------------------

def test_run_fw_corrected_reproduces_closed_form():
    spec = parse_spec("H = beta*m + F + O; scheme vc; order 6; method fw-corrected;")
    result = run(spec)
    assert result.outputs["H_corrected"] == ref.h_corr_38()
    assert result.outputs["H_orig"] == ref.h_orig_35()
    assert "C_correction" in result.outputs


def test_run_plain_fw_mass_scheme():
    spec = parse_spec("H = beta*m + F + O; scheme mass; order 4; method fw;")
    result = run(spec)
    assert result.outputs["H_orig"] == ref.h_orig_40()
    assert "H_corrected" not in result.outputs


@pytest.mark.parametrize("text, names", [
    ("H = beta*m + F + O; scheme vc; order 6; method fw-corrected;",
     ["S1", "S2", "S3", "H1", "H2", "H3", "H_orig", "R_combined", "C_correction",
      "H_corrected"]),
    ("H = beta*m + F + O; scheme mass; order 4; method fw;",
     ["S1", "S2", "S3", "S4", "H1", "H2", "H3", "H4", "H_orig"]),
], ids=["fw-corrected-vc6", "fw-m4"])
def test_run_output_names_in_order(text, names):
    assert list(run(parse_spec(text)).outputs) == names


def test_run_eriksen_method():
    spec = parse_spec("H = beta*m + E + O; order 8; method eriksen;")
    result = run(spec)
    assert result.outputs["H_eriksen"] == ref.eriksen_24().subs_symbol(F, E)


# -- rendering -----------------------------------------------------------------------

def test_render_latex_pinned_example():
    x = word(Fraction(1, 2), [BETA, O, O], mass_power=1)
    assert render_latex(x) == r"\beta\frac{{\cal O}^2}{2mc^2}"


def test_render_zero():
    from fwalg.opalg import zero
    assert render_text(zero()) == "0"
    assert render_latex(zero()) == "0"


def test_render_text_deterministic_and_readable():
    x = ref.first_step()
    assert render_text(x) == "- (i/2) beta O /(m c^2)"
    y = ref.mass_term() + sym(E)
    assert render_text(y) == "beta m c^2 + E"


def test_render_text_keeps_the_unit_coefficient_of_a_bare_mass_power():
    h = parse_spec("H = -m^-1 + beta*m + O;").hamiltonian
    assert render_text(h) == "- 1 /(m c^2) + beta m c^2 + O"
    assert render_latex(h) == r"-\frac{1}{mc^2}+\beta mc^2+{\cal O}"
    assert render_text(word(1, [], mass_power=2)) == "1 /(m^2 c^4)"
    assert render_text(word(-1, [], mass_power=2)) == "- 1 /(m^2 c^4)"
    assert render_text(word(3, [], mass_power=1)) == "3 /(m c^2)"


def test_render_latex_negative_power_and_hbar():
    x = word(Fraction(-5, 128), [BETA] + [O] * 8, mass_power=7)
    out = render_latex(x)
    assert out == r"-\beta\frac{5{\cal O}^8}{128m^7c^{14}}"
    y = word(1, [E], hbar_power=2)
    assert render_latex(y) == r"\hbar^2{\cal E}"
    # an exponent of two or more characters is braced, or LaTeX raises only its first
    assert render_latex(word(1, [BETA], mass_power=-5)) == r"\beta m^5c^{10}"
    assert render_latex(word(1, [BETA], mass_power=-12)) == r"\beta m^{12}c^{24}"
    assert render_latex(word(1, [O], mass_power=5)) == r"\frac{{\cal O}}{m^5c^{10}}"
    assert render_latex(word(1, [O], mass_power=10)) == r"\frac{{\cal O}}{m^{10}c^{20}}"
    assert render_latex(word(1, [E], hbar_power=10)) == r"\hbar^{10}{\cal E}"
    assert render_latex(word(1, [E], hbar_power=-1)) == r"\hbar^{-1}{\cal E}"
    assert render_latex(word(1, [O] * 12)) == r"{\cal O}^{12}"


def test_render_dispatch():
    x = sym(O)
    assert render(x, "text") == "O"
    assert render(x, "latex") == r"{\cal O}"
    assert isinstance(render(x, "record"), dict)
    with pytest.raises(ValueError):
        render(x, "html")


def test_render_latex_custom_symbol():
    spec = parse_spec("symbol Q odd 1; H = beta*m + Q;")
    q = sym(spec.registry.lookup("Q"))
    assert render_latex(q) == r"{\rm Q}"


# -- record round trip ------------------------------------------------------------------

def test_record_round_trip_reference_expression():
    x = ref.eriksen_24()
    data = serialize_record(x)
    assert data["schema"] == "fw.expr/1"
    assert parse_record(data) == x
    assert parse_record(json.dumps(data)) == x


def test_record_round_trip_custom_symbols():
    spec = parse_spec("symbol Q odd 2; H = beta*m + 1/3 * Q * O;")
    x = spec.hamiltonian
    assert parse_record(serialize_record(x)) == x


def test_record_rejects_unknown_schema():
    with pytest.raises(ValueError):
        parse_record({"schema": "nope", "terms": []})


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_record_round_trip_randomized(seed):
    rng = random.Random(seed)
    x = rand_expr(rng, max_terms=4, max_len=4)
    data = serialize_record(x)
    assert parse_record(data) == x
    # coefficients are each part's lowest-terms pair, and re-serializing
    # the parsed record gives the same JSON
    assert [(e["coeff_re"], e["coeff_im"]) for e in data["terms"]] == [
        ([t.coeff.re.numerator, t.coeff.re.denominator],
         [t.coeff.im.numerator, t.coeff.im.denominator]) for t in x.terms]
    text = json.dumps(data)
    assert json.dumps(serialize_record(parse_record(text))) == text


def _record(*terms):
    return {"schema": "fw.expr/1", "terms": [
        {"coeff_re": re, "coeff_im": im, "mass_power": mass, "hbar_power": 0, "word": names}
        for re, im, mass, names in terms]}


def test_parse_record_normalizes_noncanonical_terms():
    # unsorted; one key twice, with beta on the right, pairs not in lowest
    # terms and negative denominators: O beta = -beta O
    data = _record(([2, 4], [0, 1], 1, ["O", "beta"]),
                   ([1, 1], [0, 1], -1, ["beta"]),
                   ([-1, -2], [3, -6], 1, ["O", "beta"]))
    expected = ref.mass_term() + word(GaussRat(-1, Fraction(1, 2)), [BETA, O], mass_power=1)
    x = parse_record(data)
    assert x == expected
    assert serialize_record(x) == serialize_record(expected)
    assert serialize_record(x)["terms"][1]["coeff_im"] == [1, 2]


@pytest.mark.parametrize("bad", [
    [1], [1, 2, 3], [1, 0], [0, 0], ["1", 2], [1.5, 2], [1, 2.0], [True, 1], "1/2", None, 3,
])
@pytest.mark.parametrize("key", ["coeff_re", "coeff_im"])
def test_parse_record_rejects_bad_coefficient(key, bad):
    data = _record(([1, 1], [0, 1], 0, ["O"]))
    data["terms"][0][key] = bad
    with pytest.raises(ValueError, match=key):
        parse_record(data)


_MISSING = object()


@pytest.mark.parametrize("key, bad", [
    ("mass_power", 1.5), ("mass_power", "1"), ("mass_power", None), ("mass_power", False),
    ("hbar_power", True), ("hbar_power", _MISSING),
    ("word", "O"), ("word", ["Q"]), ("word", ["O", 1]), ("word", None), ("word", _MISSING),
], ids=["mass-float", "mass-str", "mass-none", "mass-false", "hbar-true", "hbar-missing",
        "word-str", "word-unregistered", "word-non-str", "word-none", "word-missing"])
def test_parse_record_rejects_bad_exponent_or_word(key, bad):
    data = _record(([1, 1], [0, 1], 0, ["O"]))
    if bad is _MISSING:
        del data["terms"][0][key]
    else:
        data["terms"][0][key] = bad
    with pytest.raises(ValueError, match=key):
        parse_record(data)


@pytest.mark.parametrize("change, field", [
    (lambda r: {**r, "symbols": {"Q": {"parity": "odd"}}}, "weight_vc"),
    (lambda r: {**r, "symbols": {"Q": 3}}, "symbols entry 'Q'"),
    (lambda r: {**r, "symbols": {"beta": {"parity": "even", "weight_vc": 0}}},
     "symbols entry 'beta'"),
    (lambda r: {**r, "symbols": {"m": {"parity": "odd", "weight_vc": 1}}}, "symbols entry 'm'"),
    (lambda r: {**r, "symbols": {"Q": {"parity": "odd", "weight_vc": "2"}}}, "weight_vc"),
    (lambda r: {**r, "symbols": {"Q": {"parity": "odd", "weight_vc": True}}}, "weight_vc"),
    (lambda r: {**r, "symbols": {"Q": {"parity": "both", "weight_vc": 1}}}, "symbols entry 'Q'"),
    (lambda r: {**r, "symbols": [["Q", "odd", 1]]}, "symbols must map"),
    (lambda r: {k: v for k, v in r.items() if k != "terms"}, "terms"),
    (lambda r: {**r, "terms": {"O": 1}}, "terms"),
    (lambda r: {**r, "terms": ["O"]}, "terms"),
    (lambda r: [r], "record must be an object"),
    (lambda r: "[]", "record must be an object"),
    (lambda r: {**r, "terms": r["terms"] * 2 + [{**r["terms"][0], "hbar_power": 0.5}]},
     "hbar_power"),
], ids=["weight-missing", "symbol-not-object", "symbol-beta", "symbol-m", "weight-str",
        "weight-true", "bad-parity", "symbols-list", "terms-missing", "terms-object",
        "term-not-object", "record-list", "record-json-list", "bad-term-after-valid-terms"])
def test_parse_record_rejects_malformed_record(change, field):
    data = change(_record(([1, 1], [0, 1], 0, ["O"])))
    with pytest.raises(ValueError, match=re.escape(field)):
        parse_record(data)


_SYMS = {"beta": BETA, "O": O, "E": E, "m": MC2}


@pytest.mark.parametrize("terms", [
    (([1, 1], [0, 1], 1, ["O"]), ([1, 1], [0, 1], 0, ["O"])),
    (([1, 1], [0, 1], 0, ["O"]), ([1, 2], [0, 1], 0, ["O"])),
    (([1, 1], [0, 1], 0, ["O", "beta"]),),
    (([1, 1], [0, 1], 1, ["m", "O"]),),
    (([0, 1], [0, 1], 0, ["E"]), ([1, 1], [0, 1], 0, ["O"])),
    (([1, 1], [0, 1], 0, ["beta", "O"]), ([2, 2], [0, 1], 0, ["O", "beta"])),
], ids=["unsorted", "repeated-key", "beta-not-leftmost", "m-in-word", "zero-coefficient",
        "cancelling"])
def test_parse_record_normalizes_each_noncanonical_form(terms):
    expected = normalize(
        (from_pairs(*re, *im), mass, 0, tuple(_SYMS[n] for n in names))
        for re, im, mass, names in terms)
    x = parse_record(_record(*terms))
    assert x == expected
    assert serialize_record(x) == serialize_record(expected)
    # terms that cancel (beta O + O beta = 0) re-serialize as no terms
    assert (serialize_record(x)["terms"] == []) == expected.is_zero


def test_parse_record_takes_serialized_records_as_they_are(rng):
    # a record serialize_record wrote is already the normal form: it parses
    # to the expression it came from, whose terms are canonical as they
    # stand, and re-serializes to the same JSON
    xs = [rand_expr(rng, max_terms=4, symbols=(BETA, O, E, F, MC2)) for _ in range(50)]
    records = [serialize_record(x) for x in xs]
    parsed = [parse_record(r) for r in records]
    assert parsed == xs
    assert all(is_canonical(x.terms) for x in parsed)
    assert [json.dumps(serialize_record(x)) for x in parsed] == [json.dumps(r) for r in records]


def test_serialize_record_rejects_two_symbols_of_one_name():
    # symbols are interned by (name, parity, weight), so these are two
    # symbols, and a record that names both "V" could not tell them apart
    v_even, v_odd = OperatorSymbol("V", "even", 2), OperatorSymbol("V", "odd", 1)
    with pytest.raises(ValueError, match="'V'"):
        serialize_record(sym(v_even) + sym(v_odd))
    with pytest.raises(ValueError, match="'V'"):
        serialize_record(sym(v_odd) * sym(O) * sym(v_even))
    x = sym(v_even) + sym(O) * sym(v_even)
    assert parse_record(serialize_record(x)) == x


# -- the record codec against its term-path oracles ------------------------------------

_V = OperatorSymbol("V", "even", 2)
_W = OperatorSymbol("W", "odd", 3)
_CODEC_SYMBOLS = (BETA, O, F, E, _V, _W)


def _rough_coeff(rng):
    """A coefficient whose parts may be negative, imaginary or over a large denominator."""
    big = rng.choice((1, 7, 2 ** 61 - 1, 10 ** 30 + 3))
    return GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 4) * big),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5) * rng.choice((1, big))))


def _codec_exprs(rng):
    """Kernel results under both orders, custom symbols, rough coefficients and zero.

    Adjoints and F -> E renamings of a result of each order are among them:
    their words are reversed or renamed, so their canonical order is not
    their operand's.
    """
    x = rand_expr(rng, max_terms=5, symbols=_CODEC_SYMBOLS)
    y = scale(_rough_coeff(rng), rand_expr(rng, max_terms=4, symbols=_CODEC_SYMBOLS))
    k = rng.randint(-1, 4)
    heavy = mul_trunc(x, y, MASS, k)
    return (x, y, x + y, x * y, heavy, mul_trunc(y, x, VELOCITY, k + 2),
            x.adjoint(), heavy.adjoint(), x.subs_symbol(F, E), heavy.subs_symbol(F, E),
            x - x, zero())


def _reset(made):
    made.update(dict.fromkeys(made, 0))


def test_serialize_record_matches_the_term_path(rng, made):
    # byte-equal JSON, read from the graded form without building a Term or
    # a GaussRat, and without building the expression's terms
    kinds, symbols = set(), set()
    for _ in range(60):
        for x in _codec_exprs(rng):
            kinds.add(x._kind)
            _reset(made)
            record = serialize_record(x)
            assert made == {"GaussRat": 0, "Term": 0} and not terms_built(x)
            assert json.dumps(record) == json.dumps(serialize_record_oracle(x))
            symbols.update(record["symbols"])
    assert kinds == {"velocity", "mass"} and symbols == {"V", "W"}


def _scrambled(rng, record):
    """The record with non-canonical terms that parse to some expression.

    Its terms are reversed, some repeated and some cancelled by a negated
    copy; pairs are scaled by an integer of either sign (unreduced, or with
    a negative denominator); up to three of beta, beta, m and O are put
    anywhere in each word.
    """
    terms = []
    for t in record["terms"][::-1]:
        words = list(t["word"])
        for extra in rng.sample(("beta", "beta", "m", "O"), rng.randint(0, 3)):
            words.insert(rng.randint(0, len(words)), extra)
        k, j = rng.choice((1, -1, 2, -3, 12)), rng.choice((1, -1, 5))
        (a, d), (b, e) = t["coeff_re"], t["coeff_im"]
        t = {**t, "coeff_re": [k * a, k * d], "coeff_im": [j * b, j * e], "word": words}
        terms.append(t)
        if rng.random() < 0.3:
            terms.append(t)
        if rng.random() < 0.2:
            terms.append({**t, "coeff_re": [-k * a, k * d], "coeff_im": [j * b, -j * e]})
    return {**record, "terms": terms}


def test_parse_record_matches_the_gaussrat_path(rng, made):
    # canonical and scrambled records parse to the oracle's expression and
    # graded form, with no GaussRat built per term
    merged = 0
    for _ in range(60):
        for x in _codec_exprs(rng):
            record = serialize_record(x)
            for r in (record, _scrambled(rng, record)):
                expected = parse_record_oracle(r)
                for data in (r, json.dumps(r)):
                    _reset(made)
                    got = parse_record(data)
                    assert made == {"GaussRat": 0, "Term": 0}
                    assert got == expected
                    assert got._kind == expected._kind == "velocity"
                    assert graded_by_key(got._d, got._entries) == graded_by_key(
                        expected._d, expected._entries)
                    assert json.dumps(serialize_record(got)) == json.dumps(
                        serialize_record_oracle(expected))
                merged += len(r["terms"]) > len(expected.terms)
            assert parse_record(record) == x
    assert merged


# -- verification harness ----------------------------------------------------------------

def test_verify_symbolic_suites_pass():
    for suite in ("vc6", "m4", "eriksen8", "dirac"):
        results = verify(suite)
        assert results, suite
        failures = [r for r in results if not r.ok]
        assert not failures, [r.line() for r in failures]


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        verify("nope")


# -- CLI ---------------------------------------------------------------------------------

def test_cli_transform_text(tmp_path, capsys):
    spec_file = tmp_path / "toy.fw"
    spec_file.write_text("H = beta*m + O; order 4; method fw;\n")
    assert main(["transform", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "H_orig" in out and "beta" in out


def test_cli_transform_record_and_output_dir(tmp_path, capsys, monkeypatch):
    spec_file = tmp_path / "toy.fw"
    spec_file.write_text("H = beta*m + O; order 4; method fw;\n")
    out_dir = tmp_path / "out"
    monkeypatch.setenv("FW_OUTPUT_DIR", str(out_dir))
    assert main(["transform", str(spec_file), "--out", "record"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert parse_record(payload["H_orig"]) == ref.free_particle_22(4)
    assert (out_dir / "toy.record.txt").exists()


@pytest.mark.parametrize("fmt", ["text", "latex", "record"])
def test_cli_transform_output_file_equals_stdout(tmp_path, capsys, monkeypatch, fmt):
    spec_file = tmp_path / "toy.fw"
    spec_file.write_text("H = beta*m + E + O; order 4; method fw-corrected;\n")
    monkeypatch.setenv("FW_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["transform", str(spec_file), "--out", fmt]) == 0
    out = capsys.readouterr().out
    assert "H_corrected" in out
    assert (tmp_path / "out" / f"toy.{fmt}.txt").read_bytes() == out.encode("utf-8")


def test_cli_transform_unwritable_output_dir_exit_2(tmp_path, capsys, monkeypatch):
    spec_file = tmp_path / "toy.fw"
    spec_file.write_text("H = beta*m + O; order 4; method fw;\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("FW_OUTPUT_DIR", str(blocker / "sub"))
    assert_one_line_error(capsys, ["transform", str(spec_file)], "Not a directory")


def _run_module(module, *args):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("module", ["fwalg.shell", "fwalg"])
def test_cli_runs_as_module_with_quiet_stderr(module):
    proc = _run_module(module, "verify", "vc6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip().endswith("8/8 checks passed")


_COLD_START = """
import contextlib, io, sys
import fwalg, fwalg.shell
with contextlib.redirect_stdout(io.StringIO()):
    assert fwalg.shell.main(["transform", sys.argv[1]]) == 0
assert "numpy.linalg" not in sys.modules, "fw transform loaded numpy"
assert "fwalg.numlab" in sys.modules and "fwalg.diracred" in sys.modules
from fwalg import numlab
from fwalg.numlab import ALPHAS, BETA4
h = numlab.free_model(0.5).hamiltonian
assert (h == BETA4 + 0.5 * ALPHAS[0]).all()
assert "numpy.linalg" in sys.modules
"""


def test_cli_transform_starts_without_numpy():
    # A fresh process, since this one has numpy loaded already: the exact
    # engine builds no matrix, while the package still imports numlab and
    # diracred (the benchmark's tracer finds them in sys.modules).
    src = Path(__file__).resolve().parent.parent / "src"
    spec = src.parent / "specs" / "vc6.fw"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(spec)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _cli(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def assert_one_line_error(capsys, argv, fragment):
    assert _cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert fragment in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    return err


@pytest.mark.parametrize("text, fragment", [
    ("H = beta*m + Q;", "unknown symbol"),
    ("H = beta*m + F + O; steps 3;", "unknown directive 'steps' at line 1, column 21"),
    ("H = beta*m + 1/0 * O;", "zero denominator at line 1, column 16"),
    ("H = beta*m + O; order 4; order 5;", "repeated directive 'order' at line 1, column 26"),
    ("H = beta*m + O; scheme vc; scheme mass;", "repeated directive 'scheme'"),
    ("H = beta*m + O; method fw; method eriksen;", "repeated directive 'method'"),
    ("H = beta*m + O; H = beta*m;", "repeated directive 'H'"),
    ("symbol i odd 1; H = beta*m + O + i*O; order 2; method fw;",
     "symbol name 'i' is reserved at line 1, column 8"),
    ("symbol beta even 0; H = beta*m + O;", "symbol name 'beta' is reserved at line 1, column 8"),
    # 250 levels would exhaust Python's recursion limit: four frames a level
    ("H = beta*m + " + "(" * 250 + "O" + ")" * 250 + "; order 2; method fw;",
     "parentheses nested too deeply at line 1, column 114"),
], ids=["unknown-symbol", "steps", "zero-denominator", "repeated-order",
        "repeated-scheme", "repeated-method", "repeated-H", "symbol-i",
        "symbol-beta", "nested-too-deeply"])
def test_cli_transform_parse_error_exit_2(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.fw"
    bad.write_text(text + "\n")
    err = assert_one_line_error(capsys, ["transform", str(bad)], fragment)
    assert len(err.splitlines()) == 1, err


def test_cli_transform_missing_file_exit_2(tmp_path, capsys):
    assert main(["transform", str(tmp_path / "nope.fw")]) == 2


def test_cli_transform_non_utf8_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fw"
    bad.write_bytes(b"\xff\xfe H = beta*m + O;\n")
    assert_one_line_error(capsys, ["transform", str(bad)], "bad.fw: not UTF-8 text")


@pytest.mark.parametrize("text, fragment", [
    # valid syntax, but the engine rejects the Hamiltonian or the scheme
    ("H = E + O;", "MissingMassTerm"),
    ("H = beta*m + E + O; scheme mass; method eriksen;", "UnsupportedScheme"),
    # a constant mc^2 term leaves the sign operator's series argument at order 0
    ("H = beta*m + 2*m + O; method eriksen;", "NonIncreasingOrder"),
    # the odd part's minimum order does not rise over a step
    ("H = beta*m + E*m + O; scheme mass; order 4; method fw;",
     "NoConvergence: odd part stalled at mass order 0"),
    ("symbol Q even 0; H = beta*m + Q + O; order 2; method fw;",
     "NoConvergence: odd part stalled at velocity order 1"),
], ids=["massless", "eriksen-mass-scheme", "eriksen-order-zero-argument", "stall-mass",
        "stall-velocity"])
def test_cli_transform_engine_error_exit_2(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.fw"
    bad.write_text(text + "\n")
    assert_one_line_error(capsys, ["transform", str(bad)], fragment)


_PROBE_ERRORS = [  # (--p-over-mc, --orders, message fragment)
    ("0.5", "x", "expected comma-separated integers"),
    ("0.5", "2,4", "need at least three orders"),
    ("0.5", "3,5,7", "even orders only"),
    ("0.5", "-2,0,2", "nonnegative even orders only"),
    ("0.5", "2,2,2", "orders must be distinct"),
    ("0.5", "2,4,1002", "orders must be at most 1000, got 1002"),
    ("nan", "2,4,6,8", "expected a finite number, got 'nan'"),
    ("inf", "2,4,6,8", "expected a finite number, got 'inf'"),
]


@pytest.mark.parametrize("p_over_mc, orders, fragment", _PROBE_ERRORS, ids=[
    f"{orders}-{fragment}" if p == "0.5" else f"p-over-mc-{p}"
    for p, orders, fragment in _PROBE_ERRORS])
def test_cli_probe_error_exit_2(capsys, p_over_mc, orders, fragment):
    assert_one_line_error(
        capsys, ["probe", f"--p-over-mc={p_over_mc}", f"--orders={orders}"], fragment)


@pytest.mark.parametrize("order", [0, 1])
def test_cli_transform_order_below_hamiltonian_terms(tmp_path, capsys, order):
    spec_file = tmp_path / "low.fw"
    spec_file.write_text(f"H = beta*m + F + O; order {order};\n")
    assert main(["transform", str(spec_file), "--out", "record"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rest = word(1, [BETA], mass_power=-1)
    assert parse_record(payload["H_orig"]) == parse_record(payload["H_corrected"]) == rest


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "vc6"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_cli_verify_nonzero_on_failure(capsys, monkeypatch):
    import fwalg.shell as shell_mod
    from fwalg.shell import CheckResult

    def broken():
        return [CheckResult("broken.check", False, "forced")]

    monkeypatch.setitem(shell_mod.VERIFY_SUITES, "vc6", broken)
    assert main(["verify", "vc6"]) == 1
    assert "FAIL broken.check" in capsys.readouterr().out


def test_cli_probe(capsys):
    assert main(["probe", "--p-over-mc", "1.5", "--orders", "2,4,6,8"]) == 0
    out = capsys.readouterr().out
    assert "classification diverging" in out


def test_cli_probe_record(capsys):
    assert main(["probe", "--p-over-mc", "1.0", "--out", "record"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "converging"
    assert data["boundary"] is True
    assert data["orders"] == [2, 4, 6, 8]


def test_probe_zero_momentum_converges(capsys):
    # at p = 0 every term of the series is zero: it terminates
    rep = numlab.convergence_probe(numlab.free_model(0.0))
    assert rep.norms == [0.0] * 4
    assert rep.classification == "converging"
    assert main(["probe", "--p-over-mc", "0", "--out", "record"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["norms"] == [0.0] * 4
    assert data["classification"] == "converging"


@pytest.mark.parametrize("p_over_mc, order", [("1e308", 2), ("1e100", 4)])
def test_cli_probe_overflow_is_one_stderr_line(p_over_mc, order):
    # in a subprocess, so that numpy's RuntimeWarnings would reach stderr
    proc = _run_module("fwalg", "probe", "--p-over-mc", p_over_mc)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: probe: norm at order {order} is not finite "
                           f"in double precision\n")


def test_shipped_spec_files():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "specs"
    for name, key, expected in (
        ("vc6.fw", "H_corrected", ref.h_corr_38()),
        ("m4.fw", "H_corrected", ref.h_corr_43()),
        ("free8.fw", "H_orig", ref.free_particle_22()),
        ("eriksen8.fw", "H_eriksen", ref.eriksen_24().subs_symbol(F, E)),
    ):
        spec = parse_spec((root / name).read_text())
        assert run(spec).outputs[key] == expected


# -- spec grammar fuzzer ---------------------------------------------------------------
#
# Each choice is mostly well formed, with rarer bad alternatives: a zero
# denominator, a negative power of an operator, an undeclared name (Q and P
# may be declared by a symbol line, X never is), a bad parity, scheme or
# method, a repeated directive, and the removed directive ``steps``.

_RATIONALS = st.builds(lambda n, d: str(n) if d is None else f"{n}/{d}",
                       st.integers(0, 5), st.sampled_from((None,) * 4 + (2, 3) * 2 + (0,)))
_NAMES = st.sampled_from(("beta", "m", "E", "F", "O", "i") * 3 + ("Q", "P", "X"))


def _factors(primary):
    return st.builds(lambda neg, base, power: "-" * neg + base
                     + ("" if power is None else f"^{power}"),
                     st.integers(0, 1), primary,
                     st.sampled_from((None,) * 16 + (0, 2, 3, -1)))


def _sums(primary):
    terms = st.lists(_factors(primary), min_size=1, max_size=2).map("*".join)
    return st.builds(lambda first, rest: first + "".join(op + t for op, t in rest),
                     terms, st.lists(st.tuples(st.sampled_from((" + ", " - ")), terms),
                                     max_size=2))


_ATOMS = st.one_of(_NAMES, _NAMES, _RATIONALS)
_EXPRS = _sums(_ATOMS | _sums(_ATOMS).map(lambda inner: f"({inner})"))
_DIRECTIVES = st.one_of(
    st.builds("symbol {} {} {}".format, st.sampled_from(("Q", "P", "Q", "P", "O")),
              st.sampled_from(("even", "odd") * 3 + ("evn",)), st.integers(0, 3)),
    _EXPRS.map("H = {}".format),
    _EXPRS.map("H = beta*m + {}".format),
    st.sampled_from(("vc", "mass") * 3 + ("velocity",)).map("scheme {}".format),
    st.integers(0, 4).map("order {}".format),
    st.sampled_from(("fw", "fw-corrected", "eriksen") * 2 + ("fw-magic",))
    .map("method {}".format),
    st.sampled_from((1, 2, 3) * 2 + (0,)).map("steps {}".format),
)
# Any order; symbol lines may repeat, and one other directive now and then.
_SPECS = st.builds(
    lambda lines, repeat: "; ".join(lines + lines[:repeat]),
    st.lists(_DIRECTIVES, max_size=6,
             unique_by=lambda d: d if d.startswith("symbol") else d.split()[0]),
    st.sampled_from((0, 0, 0, 1)))


@given(_SPECS)
@settings(max_examples=150, deadline=None)
def test_cli_transform_fuzzed_specs_exit_0_or_one_error_line(tmp_path_factory, text):
    # Directives in any order and possibly repeated, over declared and
    # undeclared names, zero denominators, negative powers and an unknown
    # method: every spec runs or is rejected with one line, never a traceback.
    spec_file = tmp_path_factory.getbasetemp() / "fuzzed.fw"
    spec_file.write_text(text + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["transform", str(spec_file)])
    errors = err.getvalue().splitlines()
    assert status in (0, 2), text
    if status == 2:
        assert len(errors) == 1 and errors[0].startswith("error:"), (text, errors)
    else:
        assert errors == [], (text, errors)


# -- probe argument fuzzer ----------------------------------------------------------
#
# Mostly well formed: small even orders, and now and then the largest order
# taken, one past it, an odd, negative or repeated order or a token that is
# no integer; momenta that are finite, overflow a double's norms, or are no
# finite number at all.

_PROBE_P = st.one_of(
    st.floats(0, 3).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(("1e100", "1e308", "1e400", "nan", "inf", "-inf", "", "x", "1_0",
                     " 0.5", "0x1")),
)
_PROBE_ORDER = st.one_of(
    st.integers(0, 12).map(lambda k: str(2 * k)),
    st.sampled_from((numlab.PROBE_MAX_ORDER, numlab.PROBE_MAX_ORDER + 2, 3, -2)).map(str),
    st.sampled_from(("", "x", "2.0", " 4", "+6")),
)
_PROBE_ORDERS = st.lists(_PROBE_ORDER, max_size=5).map(",".join)


@given(_PROBE_P, st.one_of(st.none(), _PROBE_ORDERS))
@settings(max_examples=150, deadline=None)
def test_cli_probe_fuzzed_arguments_exit_0_or_one_error_line(p_over_mc, orders):
    argv = ["probe", f"--p-over-mc={p_over_mc}"]
    if orders is not None:
        argv.append(f"--orders={orders}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = _cli(argv)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert status in (0, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if status == 2:
        assert len(errors) == 1, (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
        assert out.getvalue().splitlines()[-1].startswith("classification "), argv
