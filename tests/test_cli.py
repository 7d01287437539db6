"""Command-line interface: output strings, JSON mode, exit codes, config."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pbracket import cli
from pbracket.cli import main
from pbracket.config import EngineConfig, load_config, save_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mechanise_square(capsys):
    code, out, _ = run(capsys, "mechanise", "q1^2")
    assert code == 0
    assert out.strip() == "delta[x1,x1]"


def test_mechanise_mixed_pair(capsys):
    code, out, _ = run(capsys, "mechanise", "q1*p1")
    assert code == 0
    assert out.strip() == "delta[x1,y1] + (1/2)*delta[s1]"


def test_mechanise_json(capsys):
    code, out, _ = run(capsys, "--json", "mechanise", "q1^2")
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0]["exponents"] == {"X_1_1": 2}


def test_bracket_universal_biquadratic(capsys):
    code, out, _ = run(capsys, "bracket", "universal", "q1^2", "p1^2")
    assert code == 0
    assert out.strip() == ("4*delta[x1,y1] + 2*delta[s1]"
                           " + (4*delta[x1,y1,s1] + 2*delta[s1,s1])*A2")


def test_bracket_universal_accepts_delta_inputs(capsys):
    code_a, out_a, _ = run(capsys, "bracket", "universal", "delta[x1,x1]", "delta[y1,y1]")
    code_b, out_b, _ = run(capsys, "bracket", "universal", "q1^2", "p1^2")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_bracket_qc_biquadratic(capsys):
    code, out, _ = run(capsys, "bracket", "qc", "q1^2", "p1^2")
    assert code == 0
    assert out.strip() == "4*Q1*P1 - 2i*h*I"


def test_bracket_qc_numeric_hbar(capsys):
    code, out, _ = run(capsys, "bracket", "qc", "q1^2", "p1^2", "--hbar", "1")
    assert code == 0
    assert out.strip() == "4*Q1*P1 - 2i*I"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_bracket_qc_refuses_a_zero_hbar(capsys, json_flag):
    code, out, err = run(capsys, *json_flag, "bracket", "qc", "q1^2", "p1^2", "--hbar", "0")
    assert (code, out, err) == (1, "", "error: hbar must be nonzero\n")


def test_bracket_qc_classical_pair(capsys):
    code, out, _ = run(capsys, "bracket", "qc", "q2", "p2")
    assert code == 0
    assert out.strip() == "I"


def test_rep_qq_central_generator(capsys):
    code, out, _ = run(capsys, "rep", "qq", "delta[s1]")
    assert code == 0
    assert out.strip() == "-i*h1*I"


def test_rep_qq_numeric_planck(capsys):
    code, out, _ = run(capsys, "rep", "qq", "q1*p1")
    assert out.strip() == "Q1*P1 + ((-1/2)i*h1)*I"
    code, out, _ = run(capsys, "rep", "qq", "q1*p1", "--h1", "2")
    assert code == 0
    assert out.strip() == "Q1*P1 - i*I"


def test_rep_qc_images(capsys):
    _, out, _ = run(capsys, "rep", "qc", "q1^2")
    assert out.strip() == "Q1^2"
    _, out, _ = run(capsys, "rep", "qc", "q2*p2")
    assert out.strip() == "q*p + ((-1/2)i)*h2"


def test_heff_values(capsys):
    code, out, _ = run(capsys, "heff", "1", "1")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "heff", "1/2", "1/3")
    assert code == 0 and out.strip() == "1/5"


def test_heff_singular_exit_code(capsys):
    code, _, err = run(capsys, "heff", "1", "0")
    assert code == 1
    assert "singular" in err
    code, _, err = run(capsys, "heff", "1", "-1")
    assert code == 1
    assert "zero" in err


def test_unexpected_exception_is_one_line_error(capsys, monkeypatch):
    def broken(ns, cfg):
        raise RuntimeError("engine defect")

    monkeypatch.setitem(cli._HANDLERS, "heff", broken)
    code, out, err = run(capsys, "heff", "1", "1")
    assert code == 1
    assert out == ""
    assert err == "error: internal RuntimeError: engine defect\n"


def test_heff_bad_fraction_is_usage_error(capsys):
    code, _, _ = run(capsys, "heff", "abc", "1")
    assert code == 2


def test_expression_errors_are_usage_errors(capsys):
    for argv in (("mechanise", "q1^"),
                 ("mechanise", "foo"),
                 ("mechanise", "q3"),
                 ("mechanise", "delta[s1]"),
                 ("bracket", "universal", "q1", "q1*")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err


def test_oversized_expression_is_one_error_line(capsys):
    for argv in (("--signature", "n=2", "mechanise", "(q1+p1+q2+p2)^24"),
                 ("mechanise", "q1^100000000"),
                 ("mechanise", "3^100000000"),
                 ("bracket", "qc", "q1", "((9^4)^4)^4")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_oversized_bracket_is_one_error_line(capsys):
    big = "(q1+p1+q2+p2)^10"     # accepted input, 1 064 terms once mechanised
    for variant in ("qc", "universal"):
        start = time.perf_counter()
        code, out, err = run(capsys, "--signature", "n=2", "bracket", variant, big, big)
        assert time.perf_counter() - start < 5.0, variant
        assert (code, out) == (2, ""), variant
        assert err.startswith("error: ") and err.count("\n") == 1, variant
        assert "1132096 term pairs" in err
        assert "(line" not in err    # the bound is on two inputs, not a place in either


def test_bracket_up_to_the_pair_bound_succeeds(capsys, monkeypatch):
    fifth, sixth = "(q1+p1+q2+p2)^5", "(q1+p1+q2+p2)^6"    # 108 and 188 terms
    code, out, _ = run(capsys, "--signature", "n=2", "bracket", "qc", fifth, fifth)
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, "--signature", "n=2", "bracket", "qc", fifth, sixth)
    assert code == 2 and "20304 term pairs" in err
    cube = "(q1+p1+q2+p2)^3"     # 28 terms
    monkeypatch.setattr(cli, "MAX_BRACKET_PAIRS", 28 * 28)
    for variant in ("qc", "universal"):
        code, out, _ = run(capsys, "--signature", "n=2", "bracket", variant, cube, "q1*p2")
        assert code == 0 and out, variant
        assert run(capsys, "--signature", "n=2", "bracket", variant, cube, cube)[0] == 0
    monkeypatch.setattr(cli, "MAX_BRACKET_PAIRS", 28 * 28 - 1)
    assert run(capsys, "--signature", "n=2", "bracket", "qc", cube, cube)[0] == 2


def test_unknown_rule_is_usage_error(capsys):
    """mechanise takes no --rule: the Weyl rule is the only one."""
    for rule in ("nosuch", "weyl"):
        code, out, _ = run(capsys, "mechanise", "q1", "--rule", rule)
        assert (code, out) == (2, ""), rule


def test_bad_signature_is_usage_error(capsys):
    code, _, _ = run(capsys, "--signature", "bogus", "mechanise", "q1")
    assert code == 2


def _one_error_line_fast(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0, argv
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, argv
    return err


def test_dof_over_the_bound_is_one_error_line(capsys, tmp_path):
    assert cli.MAX_DOF == 64
    for n in (65, 3000):
        err = _one_error_line_fast(capsys, "--signature", f"n={n}", "verify", "paper")
        assert "1 to 64" in err
    path = tmp_path / "cfg.json"
    data = EngineConfig.default().to_json()
    data["dof"] = 65
    path.write_text(json.dumps(data))
    err = _one_error_line_fast(capsys, "--config", str(path), "mechanise", "q1")
    assert "cannot load configuration" in err and "1 to 64" in err
    with pytest.raises(ValueError):
        EngineConfig(EngineConfig.default().convention, dof=65)
    code, out, _ = run(capsys, "--signature", "n=64", "mechanise", "q1")
    assert (code, out.strip()) == (0, "delta[x11]")


def test_rational_over_the_digit_bound_is_one_error_line(capsys):
    assert cli.MAX_RATIONAL_DIGITS == 128
    for argv in (("heff", "1e10000", "1"),
                 ("heff", "1e10000000", "1"),
                 ("heff", "1", "1e-200"),
                 ("heff", "1", "0." + "0" * 128 + "1"),
                 ("heff", "1/" + "3" * 129, "1"),
                 ("heff", "1e" + "9" * 5000, "1"),
                 ("bracket", "qc", "q1^4", "p1^4", "--hbar", "7" * 4001),
                 ("rep", "qq", "q1", "--h2", "2" * 129)):
        err = _one_error_line_fast(capsys, *argv)
        assert "more than 128 digits" in err, argv
    # forms Fraction accepts stay accepted below the bound
    for h1, value in (("1_0e1_0", "100000000000/100000000001"), ("1.5e-3", "3/2003"),
                      (" -2/4 ", "-1"), ("0" * 300 + "1", "1/2")):
        code, out, _ = run(capsys, "heff", h1, "1")
        assert (code, out.strip()) == (0, value), h1


def test_rational_at_the_digit_bound_prints_at_the_degree_bound(capsys):
    """Every accepted --hbar prints: at 128 digits in both parts, the h^30
    that a degree-16 delta kernel bracket reaches stays printable."""
    hbar = f"{10 ** 128 - 1}/{10 ** 128 - 3}"
    for e1, e2 in (("q1^4", "p1^4"), ("q1^16", "p1^16"),
                   ("delta[s1]^15*delta[x1]", "delta[s1]^15*delta[y1]")):
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, *flags, "bracket", "qc", e1, e2, "--hbar", hbar)
            assert (code, err) == (0, ""), (e1, flags)
            assert out.strip()


def test_signature_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "mechanise", "q12", "--signature", "n=2")
    assert code == 0
    assert out.strip() == "delta[x12]"


def test_two_digit_dof_names_round_trip_through_the_cli(capsys):
    printed = "delta[x210,y210] + (1/2)*delta[s2]"
    assert run(capsys, "--signature", "n=12", "mechanise", "q2_10*p2_10") == (0, printed + "\n", "")
    assert run(capsys, "--signature", "n=12", "rep", "qq", printed) == (
        0, "Q2_10*P2_10 + ((-1/2)i*h2)*I\n", "")


def test_negative_expressions_need_no_double_dash(capsys):
    assert run(capsys, "mechanise", "-1/2") == (0, "(-1/2)\n", "")
    assert run(capsys, "bracket", "qc", "-q1", "p1") == (0, "-I\n", "")
    assert run(capsys, "rep", "qq", "-p1") == (0, "-P1\n", "")
    assert run(capsys, "mechanise", "--", "-1/2") == (0, "(-1/2)\n", "")
    code, out, _ = run(capsys, "mechanise", "-q1^2", "--json")
    assert code == 0 and json.loads(out)["terms"][0]["exponents"] == {"X_1_1": 2}
    code, out, _ = run(capsys, "mechanise", "-h")
    assert code == 0 and out.startswith("usage: pbracket mechanise")
    code, _, err = run(capsys, "mechanise", "-x")
    assert code == 2 and err.startswith("error: unknown symbol 'x'")


def test_matrix_oracle_passes_at_dof_3(capsys):
    # each matrix check realizes only the pair it acts on, 32 states at any dof
    code, out, err = run(capsys, "--signature", "n=3", "oracle", "check")
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()] == ["pass"] * 5
    code, out, err = run(capsys, "--signature", "n=3", "verify", "paper")
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("summary: 12 of 12 items pass")


def test_missing_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_oracle_check_text_and_json(capsys):
    code, out, _ = run(capsys, "oracle", "check", "--seed", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 5
    assert all(l.startswith("pass ") for l in lines)
    code, out, _ = run(capsys, "--json", "oracle", "check", "--seed", "3")
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 5
    assert all(row["status"] == "pass" for row in data)


def test_oracle_check_under_a_real_commutator_weight_reports_the_matrix_row(tmp_path, capsys):
    """[Q, P] = gamma is real under this tuple, so the matrix oracle cannot
    run, but the exact suites can: their rows print, then one failing
    matrix row that carries the UnsupportedConvention reason, in text and
    in JSON, and the exit code is 1."""
    path = tmp_path / "real-gamma.json"
    path.write_text(json.dumps({"convention": {
        "eps_comm": "+i", "kappa_x": "+1", "kappa_y": "+1", "kappa_s": "+i",
        "orient": -1, "rep_s_sign": -1}, "dof": 1}))
    code, out, err = run(capsys, "--config", str(path), "oracle", "check")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines[:3]] == [
        ["pass", "vector-field-composition"], ["pass", "algebra-laws"], ["fail", "matrix-suite"]]
    assert len(lines) == 4
    assert "UnsupportedConvention: " in lines[3] and "purely imaginary" in lines[3]
    code, out, err = run(capsys, "--json", "--config", str(path), "oracle", "check")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert [(row["check"], row["status"]) for row in data] == [
        ("vector-field-composition", "pass"), ("algebra-laws", "pass"), ("matrix-suite", "fail")]
    assert data[2]["counterexample"].startswith("UnsupportedConvention: ")
    assert "purely imaginary" in data[2]["counterexample"]


def test_oracle_check_under_the_real_gamma_tuple_prints_its_report(tmp_path, capsys):
    """The matrix oracle reads the [Q, P] weight at h = 1 from its exact
    coefficients: under eps = +i, every other field +1, that weight is -1."""
    path = tmp_path / "real-gamma.json"
    path.write_text(json.dumps({"convention": {
        "eps_comm": "+i", "kappa_x": "+1", "kappa_y": "+1", "kappa_s": "+1",
        "orient": 1, "rep_s_sign": 1}, "dof": 1}))
    code, out, err = run(capsys, "--config", str(path), "oracle", "check", "--seed", "7")
    assert (code, err) == (1, "")
    assert out == (
        "pass vector-field-composition (max error 0.000e+00, inputs-hash 4820860ea31a77c4)\n"
        "pass algebra-laws (max error 0.000e+00, inputs-hash e3f73a2f154ad14b)\n"
        "fail matrix-suite (max error 1.000e+00, inputs-hash 96fc5c28960418b7)\n"
        "     1 failing instances; first: UnsupportedConvention: the matrix oracle needs a "
        "purely imaginary canonical-pair weight, got (-1+0j)\n")


def test_signature_n2_oracle_check_and_verify_pass(capsys):
    code, out, _ = run(capsys, "--signature", "n=2", "oracle", "check", "--seed", "3")
    assert code == 0
    assert all(l.startswith("pass ") for l in out.splitlines() if l.strip())
    code, out, _ = run(capsys, "--signature", "n=2", "verify", "paper")
    assert code == 0
    assert out.rstrip().endswith("summary: 12 of 12 items pass")


def test_calibrate_writes_config(tmp_path, capsys):
    target = tmp_path / "conv.json"
    code, out, _ = run(capsys, "calibrate", "--out", str(target))
    assert code == 0
    assert "(chosen)" in out
    cfg = load_config(str(target))
    assert cfg.convention == EngineConfig.default().convention


def test_config_flag_and_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cfg.json"
    save_config(EngineConfig(EngineConfig.default().convention, dof=2), str(path))
    code, out, _ = run(capsys, "--config", str(path), "mechanise", "q12")
    assert code == 0
    assert out.strip() == "delta[x12]"
    monkeypatch.setenv("PBRACKET_CONFIG", str(path))
    code, out, _ = run(capsys, "mechanise", "q12")
    assert code == 0
    assert out.strip() == "delta[x12]"


@pytest.mark.parametrize("dof", [2.0, True, 1.5])
def test_config_refuses_a_dof_that_is_not_an_int(dof):
    """A config built in Python is checked as one loaded from JSON, so
    save_config can never write a dof that load_config refuses."""
    with pytest.raises(ValueError, match=f"^dof must be an integer, got {dof!r}$"):
        EngineConfig(EngineConfig.default().convention, dof)


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "--config", str(tmp_path / "absent.json"),
                     "mechanise", "q1")
    assert code == 2


_STANDARD = EngineConfig.default().convention.to_json()

# Configuration documents of the wrong shape, and the field each error names.
_MALFORMED_CONFIGS = {
    "array": ([], "configuration"),
    "null-convention": ({"convention": None}, "convention"),
    "null-orient": ({"convention": {**_STANDARD, "orient": None}}, "orient"),
    "array-dof": ({"convention": _STANDARD, "dof": [1]}, "dof"),
    "array-unit": ({"convention": {**_STANDARD, "eps_comm": ["x"]}}, "eps_comm"),
    "float-dof": ({"convention": _STANDARD, "dof": 1.5}, "dof"),
    "bool-dof": ({"convention": _STANDARD, "dof": True}, "dof"),
}


@pytest.mark.parametrize("data, field", _MALFORMED_CONFIGS.values(),
                         ids=_MALFORMED_CONFIGS.keys())
def test_config_of_the_wrong_shape_is_one_error_line(data, field, tmp_path, capsys,
                                                     monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    err = _one_error_line_fast(capsys, "--config", str(path), "heff", "1", "1")
    assert err.startswith("error: cannot load configuration: ") and field in err, err
    monkeypatch.setenv("PBRACKET_CONFIG", str(path))
    assert _one_error_line_fast(capsys, "heff", "1", "1") == err


def test_calibrate_to_an_unwritable_path_is_one_error_line(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "conv.json"):
        err = _one_error_line_fast(capsys, "calibrate", "--out", str(target))
        assert err.startswith("error: cannot write configuration: "), err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_to_an_empty_path_is_one_error_line(capsys):
    # an empty --out is a path that cannot be opened, not a missing option
    err = _one_error_line_fast(capsys, "calibrate", "--out", "")
    assert err.startswith("error: cannot write configuration: "), err


def test_calibrate_refuses_an_unwritable_path_before_calibrating(tmp_path, capsys,
                                                                 monkeypatch):
    import pbracket.calibration as calibration

    def refuse(*args, **kwargs):
        raise AssertionError("calibration_report reached")

    monkeypatch.setattr(calibration, "calibration_report", refuse)
    for target in (tmp_path, tmp_path / "missing" / "conv.json"):
        err = _one_error_line_fast(capsys, "--signature", "n=64", "calibrate",
                                   "--out", str(target))
        assert err.startswith("error: cannot write configuration: "), err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_out_replaces_an_existing_file(tmp_path, capsys):
    target, expected = tmp_path / "conv.json", tmp_path / "expected.json"
    target.write_text("x" * 4096)
    code, _, _ = run(capsys, "calibrate", "--out", str(target))
    assert code == 0
    save_config(EngineConfig.default(), str(expected))
    assert target.read_bytes() == expected.read_bytes()


def test_verify_paper_runs_small(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--seed", "7")
    assert code == 0
    assert out.startswith("verify paper\n")
    assert "summary: 12 of 12 items pass" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "paper", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 7
    assert len(data["items"]) == 12
    assert all(item["status"] == "pass" for item in data["items"])


_VERIFICATION_LAYER = ("numpy", "pbracket.calibration", "pbracket.oracle",
                       "pbracket.sampling", "pbracket.verify")


def _fresh_process(*argvs):
    """Stdout of a fresh interpreter that imports pbracket and its CLI, runs
    each argv through main, then prints which modules of _VERIFICATION_LAYER
    it loaded and the exit codes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import pbracket, pbracket.cli; "
            f"rcs = [pbracket.cli.main(argv) for argv in {list(argvs)!r}]; "
            f"print([m for m in {_VERIFICATION_LAYER!r} if m in sys.modules], rcs)")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    return done.stdout


def test_import_and_heff_leave_numpy_unloaded():
    """The bracket pipeline and heff load neither numpy nor the verification
    modules; verify paper loads them all."""
    out = _fresh_process(["heff", "1/2", "1/3"], ["bracket", "qc", "q1^2", "p1^2"],
                         ["bracket", "universal", "q1", "p1"], ["rep", "qq", "q1*p1"],
                         ["rep", "qc", "q2*p2"], ["mechanise", "q1*p1"])
    assert out.startswith("1/5\n4*Q1*P1 - 2i*h*I\n")
    assert out.endswith("\n[] [0, 0, 0, 0, 0, 0]\n")
    out = _fresh_process(["verify", "paper", "--seed", "7"])
    assert out.endswith(f"\n{list(_VERIFICATION_LAYER)} [0]\n")
