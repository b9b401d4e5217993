import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fwalg.opalg import BETA, E, F, MASS, O, VELOCITY, sym, word
from fwalg import reference as ref
from fwalg.shell import (
    DuplicateDeclaration, SpecSyntaxError, UnknownSymbol, main, parse_record,
    parse_spec, render, render_latex, render_text, run, serialize_record,
    verify,
)

from conftest import rand_expr


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
    assert spec.declarations == [("Q", "odd", 2)]
    q = spec.registry.lookup("Q")
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
    order 4; scheme mass; steps 7;
    """
    spec = parse_spec(text)
    assert spec.max_order == 4
    assert spec.scheme == MASS
    assert spec.max_steps == 7


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


def test_render_latex_negative_power_and_hbar():
    x = word(Fraction(-5, 128), [BETA] + [O] * 8, mass_power=7)
    out = render_latex(x)
    assert out == r"-\beta\frac{5{\cal O}^8}{128m^7c^{14}}"
    y = word(1, [E], hbar_power=2)
    assert render_latex(y) == r"\hbar^2{\cal E}"


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
    assert parse_record(serialize_record(x)) == x


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


def _cli(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def assert_one_line_error(capsys, argv, fragment):
    assert _cli(argv) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


@pytest.mark.parametrize("text, fragment", [
    ("H = beta*m + Q;", "unknown symbol"),
    ("H = beta*m + F + O; steps 0;", "step limit must be at least 1 at line 1, column 27"),
    ("H = beta*m + 1/0 * O;", "zero denominator at line 1, column 16"),
], ids=["unknown-symbol", "steps-0", "zero-denominator"])
def test_cli_transform_parse_error_exit_2(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.fw"
    bad.write_text(text + "\n")
    assert_one_line_error(capsys, ["transform", str(bad)], fragment)


def test_cli_transform_missing_file_exit_2(tmp_path, capsys):
    assert main(["transform", str(tmp_path / "nope.fw")]) == 2


@pytest.mark.parametrize("text, fragment", [
    # valid syntax, but the engine rejects the Hamiltonian or the scheme
    ("H = E + O;", "MissingMassTerm"),
    ("H = beta*m + E + O; scheme mass; method eriksen;", "UnsupportedScheme"),
], ids=["massless", "eriksen-mass-scheme"])
def test_cli_transform_engine_error_exit_2(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.fw"
    bad.write_text(text + "\n")
    assert_one_line_error(capsys, ["transform", str(bad)], fragment)


@pytest.mark.parametrize("orders, fragment", [
    ("x", "expected comma-separated integers"),
    ("2,4", "need at least three orders"),
    ("3,5,7", "even orders only"),
    ("-2,0,2", "nonnegative even orders only"),
])
def test_cli_probe_error_exit_2(capsys, orders, fragment):
    assert_one_line_error(capsys, ["probe", "--p-over-mc", "0.5", f"--orders={orders}"],
                          fragment)


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
