import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwspheres import checks, cli, geodesy
from cwspheres.cli import main
from cwspheres.errors import InvalidInput
from cwspheres.killing import OrbitParams, solve_metric
from cwspheres.matrixcore import RngStream
from cwspheres.randers import spec_from_json, spec_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------- solve

def test_solve_reference_instance(capsys):
    code, out, _ = run(capsys, "solve", "--l", "1", "--m", "1", "--x1", "0.5",
                       "--x2", "1", "--L", "1")
    assert code == 0
    spec_line, residual_line = out.strip().split("\n")
    spec = spec_from_json(spec_line)
    np.testing.assert_allclose([spec.a, spec.b, spec.c],
                               [16 / 9, 4 / 3, -2 / 3], rtol=1e-15)
    assert residual_line.startswith("residuals:")
    assert all(abs(float(v)) <= 1e-12 for v in residual_line.split()[1:])


def test_solve_infeasible_names_inequality(capsys):
    code, _, err = run(capsys, "solve", "--l", "1", "--m", "1", "--x1", "2.0",
                       "--x2", "1")
    assert code == 1
    assert "(x1 - m*x2)*(x1 + l*x2) < 0" in err


def test_solve_scale_law(capsys):
    _, out1, _ = run(capsys, "solve", "--L", "1")
    _, out2, _ = run(capsys, "solve", "--L", "2")
    s1 = spec_from_json(out1.split("\n")[0])
    s2 = spec_from_json(out2.split("\n")[0])
    np.testing.assert_allclose(s2.b, 4.0 * s1.b, rtol=1e-14)
    np.testing.assert_allclose(s2.c, 2.0 * s1.c, rtol=1e-14)
    np.testing.assert_allclose(s2.a, s2.b + s2.c ** 2, rtol=1e-14)


@pytest.mark.parametrize("L", ["1e-6", "1", "1e4", "1e6"])
@pytest.mark.parametrize("x1,x2", [("0.5", "1"), ("0.3", "0.7")])
def test_solve_passes_the_exact_metric_at_every_scale(capsys, L, x1, x2):
    code, out, _ = run(capsys, "solve", "--L", L, "--x1", x1, "--x2", x2)
    assert code == 0 and out.splitlines()[1].startswith("residuals:")


# -------------------------------------------------------------------- validate

def test_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"family": "u_sphere", "n": 1, "a": 1.0, "b": 1.0, "c": 0.0}')
    code, out, _ = run(capsys, "validate", "--config", str(good))
    assert code == 0 and out.strip() == "ok"

    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "u_sphere", "n": 1, "a": 1.0, "b": 1.0, "c": 1.0}')
    code, out, _ = run(capsys, "validate", "--config", str(bad))
    assert code == 1 and "|c| < sqrt(a)" in out

    broken = tmp_path / "broken.json"
    broken.write_text('{"family":')
    code, _, err = run(capsys, "validate", "--config", str(broken))
    assert code == 2 and "malformed" in err


def test_validate_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--config", "/nonexistent/x.json")
    assert code == 2 and "cannot read config" in err


@pytest.mark.parametrize("value,level", [
    ("basic_format", logging.WARNING), ("_styles", logging.WARNING),
    ("bogus", logging.WARNING), ("info", logging.INFO),
])
def test_randers_log_accepts_level_names_only(monkeypatch, value, level):
    # upper-cased, `basic_format` and `_styles` are attributes of `logging`
    # that name no level; like any other such value they mean WARNING
    package = logging.getLogger("cwspheres")
    before = package.level
    monkeypatch.setenv("RANDERS_LOG", value)
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: None)
    try:
        cli._setup_logging()
        assert package.level == level
    finally:
        package.setLevel(before)


# two verify runs in one interpreter, as an embedding host makes them
TWO_LOGGED_RUNS = """import os, sys
from cwspheres.cli import main
for level in sys.argv[1:]:
    os.environ["RANDERS_LOG"] = level
    print(f"run at {level}", file=sys.stderr, flush=True)
    main(["verify", "eigenlemma", "--n", "2", "--trials", "3", "--out", os.devnull])
"""


def test_randers_log_is_read_on_every_call():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", TWO_LOGGED_RUNS, "warning", "info", "warning"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == ["run at warning", "run at info",
                                        "INFO eigenlemma trial 0/3", "run at warning"]


@pytest.mark.parametrize("n", ["true", "1.7"])
def test_validate_non_integer_n_is_usage_error(tmp_path, capsys, n):
    cfg = tmp_path / "spec.json"
    cfg.write_text(f'{{"family": "u_sphere", "n": {n}, "a": 1.0, "b": 1.0, "c": 0.0}}')
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("value", ["true", "\"0.5\""], ids=["bool", "string"])
def test_non_numeric_coefficient_is_a_spec_violation(tmp_path, capsys, value):
    # validate names the violation and exits 1; verify refuses the config
    cfg = tmp_path / "spec.json"
    cfg.write_text(f'{{"family": "u_sphere", "n": 1, "a": 1.0, "b": 1, "c": {value}}}')
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert (code, out) == (1, "c not a real number\n")
    code, out, err = run(capsys, "verify", "orbit", "--config", str(cfg), "--trials", "5")
    assert code == 2 and out == "" and err.startswith("error:") and "c not a real" in err


@pytest.mark.parametrize("target", ["directory", "missing/d/r.csv"])
def test_unwritable_report_path_is_usage_error(tmp_path, capsys, target):
    out = tmp_path if target == "directory" else tmp_path / target
    code, stdout, err = run(capsys, "verify", "sp-witness", "--out", str(out))
    assert code == 2 and stdout == ""
    [line] = err.splitlines()
    assert line.startswith("error: cannot write report:")


@pytest.mark.parametrize("target", ["directory", "missing/r.csv", "file/r.csv"])
def test_unwritable_report_path_is_refused_before_the_check(tmp_path, capsys, monkeypatch,
                                                            target):
    (tmp_path / "file").write_text("kept")
    out = tmp_path if target == "directory" else tmp_path / target
    built = []
    monkeypatch.setattr(geodesy, "build_graph", lambda *args: built.append(args))
    code, stdout, err = run(capsys, "verify", "displacement", "--out", str(out))
    assert (code, stdout, built) == (2, "", [])
    [line] = err.splitlines()
    assert line.startswith("error: cannot write report:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_write_failure_after_the_check_is_still_a_usage_error(tmp_path, capsys,
                                                              monkeypatch):
    # the path passes the early check, then goes away before the write
    out = tmp_path / "gone" / "r.csv"
    out.parent.mkdir()
    real = checks.sp_witness

    def remove_dir_then_run(*args):
        out.parent.rmdir()
        return real(*args)
    monkeypatch.setattr(checks, "sp_witness", remove_dir_then_run)
    code, stdout, err = run(capsys, "verify", "sp-witness", "--out", str(out))
    assert code == 2 and stdout == ""
    [line] = err.splitlines()
    assert line.startswith("error: cannot write report:")


@pytest.mark.parametrize("argv", [
    ("verify", "orbit", "--tolerance", "1e3"),
    ("solve", "--tolerance", "1e-3"),
])
def test_tolerance_flag_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


UNDECLARED = [(check, flag) for check, (flags, _) in sorted(cli._CHECKS.items())
              for flag in cli._FLAGS if flag not in flags]


def test_checks_declare_thirty_three_flags():
    # seed and out aside, each check takes the flags its run reads
    assert {check: len(flags) for check, (flags, _) in cli._CHECKS.items()} == {
        "orbit": 7, "displacement": 10, "nonintersection": 4, "commutator": 3,
        "eigenlemma": 2, "endpoints": 2, "sp-central": 2, "oracle": 2, "sp-witness": 1}


@pytest.mark.parametrize("check", sorted(cli._CHECKS))
def test_each_check_parses_its_declared_flags(check):
    flags = cli._CHECKS[check][0]
    argv = ["verify", check, "--seed=1", "--out=r.csv", *(f"--{f}=1" for f in flags)]
    args = cli.build_parser().parse_args(argv)
    assert (args.check, args.seed, args.out) == (check, 1, "r.csv")
    assert all(str(getattr(args, f.replace("-", "_"))) in ("1", "1.0") for f in flags)


@pytest.mark.parametrize("argv", [
    *(("verify", check, f"--{flag}", "1") for check, flag in UNDECLARED),
    # a prefix names no flag: not --n-points, nor --trials
    ("verify", "oracle", "--n", "600"),
    ("verify", "orbit", "--tri", "100"),
    ("verify", "displacement", "--n-p=600"),
], ids=" ".join)
def test_a_flag_the_check_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    # a flag that would change nothing is refused, not ignored, and no
    # report is written; the check's own parser refuses it, so the message
    # names the check and the flags it does take
    report = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(report)])
    assert exc.value.code == 2 and not report.exists()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: cwspheres verify {argv[1]} ")
    assert all(f"--{flag} " in err for flag in cli._CHECKS[argv[1]][0])
    assert err.splitlines()[-1] == (f"cwspheres verify {argv[1]}: error: "
                                    f"unrecognized arguments: {' '.join(argv[2:])}")


# ---------------------------------------------------------------------- verify

def test_verify_unknown_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "frobnicate"])
    assert exc.value.code == 2


def test_verify_orbit_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run(capsys, "verify", "orbit", "--trials", "200",
                      "--seed", "5", "--out", str(out1))
    code2, _, _ = run(capsys, "verify", "orbit", "--trials", "200",
                      "--seed", "5", "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, row = out1.read_text().strip().split("\n")
    assert header == "candidate_id,min,max,mean,stddev,verdict"
    assert row.endswith("constant")


def test_back_to_back_calls_share_the_parser_and_leak_nothing(tmp_path, capsys,
                                                              monkeypatch):
    # one parser serves every call: a flag of one call must not reach the
    # next, and another subcommand still parses after a verify
    seen = []

    def orbit(spec, params, trials, rng):
        seen.append(trials)
        return checks.CheckReport(("check",), (), True)
    monkeypatch.setattr(checks, "orbit", orbit)
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "verify", "orbit", "--trials", "200")[0] == 0
    assert run(capsys, "verify", "orbit")[0] == 0
    assert seen == [200, 1000]
    good = tmp_path / "good.json"
    good.write_text('{"family": "u_sphere", "n": 1, "a": 1.0, "b": 1.0, "c": 0.0}')
    code, out, _ = run(capsys, "validate", "--config", str(good))
    assert code == 0 and out.strip() == "ok"


def test_verify_orbit_with_mismatched_config_fails(tmp_path, capsys):
    cfg = tmp_path / "round.json"
    cfg.write_text('{"family": "u_sphere", "n": 1, "a": 1.0, "b": 1.0, "c": 0.0}')
    code, out, _ = run(capsys, "verify", "orbit", "--trials", "200",
                       "--seed", "5", "--config", str(cfg))
    assert code == 1
    assert "non-constant" in out


def test_verify_endpoints(capsys):
    code, out, _ = run(capsys, "verify", "endpoints", "--trials", "40",
                       "--seed", "3")
    assert code == 0
    assert "endpoint_spread" in out and "endpoint_identity" in out


def test_verify_eigenlemma_small(capsys):
    code, out, _ = run(capsys, "verify", "eigenlemma", "--n", "3",
                       "--trials", "50", "--seed", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "trial_id,inputs_hash,verdict,worst_residual"
    assert len(lines) == 51
    assert all(line.split(",")[2] == "true" for line in lines[1:])


def test_verify_commutator_small(capsys):
    code, out, _ = run(capsys, "verify", "commutator", "--l", "2", "--m", "2",
                       "--trials", "10", "--seed", "6")
    assert code == 0
    assert len(out.strip().split("\n")) == 11


def test_verify_nonintersection_small(capsys):
    code, out, _ = run(capsys, "verify", "nonintersection", "--trials", "100",
                       "--seed", "7")
    assert code == 0
    assert out.strip().split("\n")[1].endswith("true")


def test_verify_sp_central_and_witness(capsys):
    code, out, _ = run(capsys, "verify", "sp-central", "--trials", "150",
                       "--seed", "8")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert rows[0].endswith("constant")
    assert rows[1].endswith("non-constant")
    assert rows[2].endswith("non-constant")

    code, out, _ = run(capsys, "verify", "sp-witness", "--seed", "9")
    assert code == 0
    assert all(line.endswith("true") for line in out.strip().split("\n")[1:])


def scaled_sp_config(tmp_path, k, **changes):
    """The default sp_sphere metric scaled to F -> k F, as a config path."""
    doc = {**json.loads(spec_to_json(cli._SP_DEFAULT)), **changes}
    doc.update({key: doc[key] * k * k for key in ("a1", "a2", "b")}, c=doc["c"] * k)
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize("k,c", [(1e-3, 0.3), (1.0, 0.3), (1e3, 0.3), (1e6, 0.3),
                                 (1.0, 1e-8)])
def test_verify_sp_witness_verdict_does_not_depend_on_scale(tmp_path, capsys, k, c):
    # the gap is judged at the rounding scale of f1 - f2, max(|f1|, |f2|):
    # F -> 1000 F rounds the n = 1 gap to 1.4e-12, and c = 1e-8 leaves a
    # gap of 8e-8 whose rounding is still that of f1 and f2
    code, out, _ = run(capsys, "verify", "sp-witness", "--seed", "0",
                       "--config", scaled_sp_config(tmp_path, k, c=c))
    assert code == 0
    assert all(line.endswith(",true") for line in out.splitlines()[1:])


@pytest.mark.parametrize("k", [1e-3, 1.0, 1e3, 1e6])
def test_verify_sp_witness_fails_a_gap_off_by_one_part_in_1e9(tmp_path, capsys,
                                                               monkeypatch, k):
    real = checks.sp_witness_pair

    def moved_f2(*args):
        m1, m2, f1, f2, expected = real(*args)
        return m1, m2, f1, f2 * (1 + 1e-9), expected
    monkeypatch.setattr(checks, "sp_witness_pair", moved_f2)
    code, out, _ = run(capsys, "verify", "sp-witness", "--seed", "0",
                       "--config", scaled_sp_config(tmp_path, k))
    assert code == 1
    assert all(line.endswith(",false") for line in out.splitlines()[1:])


def test_verify_displacement_tiny_graph(capsys):
    code, out, _ = run(capsys, "verify", "displacement", "--n-points", "1500",
                       "--k", "12", "--points", "6", "--t", "0.3",
                       "--seed", "10")
    assert code == 0
    assert "verdict=constant" in out.strip().split("\n")[-1]


def test_verify_oracle_never_pairs_a_vertex_with_itself(capsys):
    # seed 18 on 600 points draws a self-pair among the symmetry pairs,
    # which is redrawn rather than divided 0 by 0
    code, out, err = run(capsys, "verify", "oracle", "--n-points", "600", "--seed", "18")
    assert code in (0, 1) and "Traceback" not in err
    lines = out.strip().split("\n")
    assert lines[0] == "check,value,threshold,verdict"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "antipodal_rel_error", "symmetry_rel_dev", "hopf_rel_spread"]


def test_verify_displacement_scale_invariant(tmp_path, capsys):
    # value and cost must not depend on the metric's overall scale L
    means, seconds = {}, {}
    for L in (0.3, 1.0, 3.0):
        config = tmp_path / f"spec_{L}.json"
        config.write_text(spec_to_json(solve_metric(OrbitParams(1, 1, 0.5, 1.0, L))))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "displacement", "--config", str(config),
                           "--L", str(L), "--t", "1", "--points", "20", "--seed", "7")
        seconds[L] = time.perf_counter() - start
        summary = out.strip().split("\n")[-1]
        assert code == 0
        assert "verdict=constant" in summary
        fields = dict(item.split("=") for item in summary.split(",")[1:])
        means[L] = float(fields["mean"]) / L
    assert max(means.values()) - min(means.values()) <= 1e-9 * means[1.0]
    assert seconds[3.0] <= 2.0 * seconds[1.0]


@pytest.mark.parametrize("argv", [
    ("nonintersection", "--trials", "0"),
    ("eigenlemma", "--trials", "0"),
    ("commutator", "--trials", "-3"),
    ("endpoints", "--trials", "1"),
    ("displacement", "--points", "1", "--n-points", "1500"),
])
def test_verify_too_few_trials_is_usage_error(tmp_path, capsys, argv):
    # a check that evaluates no trial, or a spread of one sample, is no PASS
    report = tmp_path / "report.csv"
    code, out, err = run(capsys, "verify", *argv, "--out", str(report))
    assert code == 2 and err.startswith("error:")
    assert not report.exists()


WRONG_FAMILY_SPECS = {
    "su2": '{"family": "su2", "a": 1.0, "b": 1.0, "c": 0.0}',
    "u_sphere": '{"family": "u_sphere", "n": 1, "a": 1.0, "b": 1.0, "c": 0.0}',
    "u_sphere-n2": '{"family": "u_sphere", "n": 2, "a": 1.0, "b": 1.0, "c": 0.0}',
    "sp_sphere": '{"family": "sp_sphere", "n": 1, "a1": 1.0, "a2": 1.3, '
                 '"b": 1.0, "c": 0.2}',
}


@pytest.fixture
def no_graph(monkeypatch):
    """Fail any run that builds a graph before its usage checks."""
    def build_graph(*args, **kwargs):
        raise AssertionError("graph built before the usage check")
    monkeypatch.setattr(geodesy, "build_graph", build_graph)


@pytest.mark.parametrize("check,family", [
    ("orbit", "su2"),
    ("orbit", "sp_sphere"),
    ("orbit", "u_sphere-n2"),                   # the default generator needs n = 1
    ("sp-central", "su2"),
    ("sp-central", "u_sphere"),
    ("sp-witness", "u_sphere"),
    ("displacement", "sp_sphere"),
    ("displacement", "su2"),
])
def test_verify_wrong_family_config_is_usage_error(tmp_path, capsys, no_graph,
                                                   check, family):
    cfg = tmp_path / "spec.json"
    cfg.write_text(WRONG_FAMILY_SPECS[family])
    trials = ("--trials", "100") if "trials" in cli._CHECKS[check][0] else ()
    code, out, err = run(capsys, "verify", check, "--config", str(cfg), *trials)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "config" in err


@pytest.mark.parametrize("text", [
    "[" * 200000,                                           # too deep to parse
    '{"family": "u_sphere", "n": 1' + "0" * 5000 + "}",     # over 4300 digits
], ids=["deep-nesting", "long-integer"])
@pytest.mark.parametrize("argv", [("validate",), ("verify", "orbit")])
def test_unparsable_config_is_usage_error(tmp_path, capsys, argv, text):
    cfg = tmp_path / "spec.json"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed spec JSON") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("validate",), ("verify", "orbit"), ("verify", "sp-central"),
    ("verify", "sp-witness"), ("verify", "displacement"),
])
def test_su2_config_names_u_sphere_n1(tmp_path, capsys, no_graph, argv):
    # S^3 = SU(2) has no family of its own: the one error line says how to
    # write it
    cfg = tmp_path / "spec.json"
    cfg.write_text(WRONG_FAMILY_SPECS["su2"])
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and "u_sphere" in line and "n = 1" in line


@pytest.mark.parametrize("config,argv", [
    (WRONG_FAMILY_SPECS["u_sphere-n2"], ()),            # generator needs n = 1
    (WRONG_FAMILY_SPECS["u_sphere"], ("--l", "2")),     # generator needs n = 2
    (None, ("--points", "1")),
    (None, ("--points", "-4")),
    (None, ("--n-points", "600", "--points", "601")),
], ids={spec: name for name, spec in WRONG_FAMILY_SPECS.items()}.get)  # no JSON in the ids
def test_verify_displacement_usage_error_before_graph(tmp_path, capsys, no_graph,
                                                      config, argv):
    if config is not None:
        cfg = tmp_path / "spec.json"
        cfg.write_text(config)
        argv += ("--config", str(cfg))
    code, out, err = run(capsys, "verify", "displacement", *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_sp_central_large_n_is_refused_before_sizing(tmp_path, capsys, monkeypatch):
    def candidates(n):
        raise AssertionError("candidates sized before the n check")
    monkeypatch.setattr(checks, "_sp_candidates", candidates)
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"family": "sp_sphere", "n": checks.SP_CENTRAL_MAX_N + 1,
                               "a1": 1.2, "a2": 1.5, "b": 1.0, "c": 0.3}))
    code, out, err = run(capsys, "verify", "sp-central", "--config", str(cfg),
                         "--trials", "100")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(checks.SP_CENTRAL_MAX_N) in err


@pytest.mark.parametrize("argv", [
    ("eigenlemma", "--n", "100000", "--trials", "1"),
    ("commutator", "--l", "50000", "--m", "50000"),
    ("nonintersection", "--l", "50000", "--m", "50000"),
    ("orbit", "--l", "50000", "--m", "50000"),
    ("displacement", "--l", "50000", "--m", "50000"),
])
def test_huge_matrix_sizes_are_refused_before_sizing(capsys, no_graph, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and str(checks.MATRIX_MAX_SIZE) in line


def test_verify_displacement_zero_time_is_usage_error(capsys, no_graph):
    # the identity flow moves no point: there is no displacement to check
    code, out, err = run(capsys, "verify", "displacement", "--t", "0")
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and "t = 0" in line


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_verify_displacement_non_finite_time_is_refused_before_graph(capsys, no_graph, t):
    code, out, err = run(capsys, "verify", "displacement", f"--t={t}")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: flow time must be finite"]


@pytest.mark.parametrize("vnorm", ["1e300", "inf"])
def test_verify_endpoints_huge_vnorm_prints_only_the_error(vnorm):
    # a fresh interpreter, so any numpy warning would reach stderr
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cwspheres.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "verify", "endpoints", f"--vnorm={vnorm}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: isotropy vector must satisfy |V|_eq < 1"]


# In a fresh interpreter, caps the address space at its size after the
# imports plus argv[1] bytes, then runs the CLI on the rest of argv.
CAPPED_CLI = """
import resource, sys
from cwspheres.cli import main
with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_verify_endpoints_many_trials_fit_in_bounded_memory():
    # a pdist over the 5000 endpoints of a start point would take 100 MB;
    # the row blocks of the spread take a few
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, str(64 * 2 ** 20),
         "verify", "endpoints", "--trials", "5000"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].startswith("endpoint_spread,")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_verify_endpoints_huge_trials_is_refused_before_anything_is_sized():
    # 10^8 samples would need gigabytes of streams and endpoints; the cap
    # is checked first, so 64 MB above the imports is plenty
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, str(64 * 2 ** 20),
         "verify", "endpoints", "--trials", "100000000"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: endpoints needs at most {checks.ENDPOINT_MAX_SAMPLES} samples, "
        "not 100000000"]


def test_endpoints_sample_cap_admits_the_cap_itself(monkeypatch):
    monkeypatch.setattr(checks, "ENDPOINT_MAX_SAMPLES", 3)
    assert checks.endpoints(0.5, 3, RngStream(0)).ok
    with pytest.raises(InvalidInput):
        checks.endpoints(0.5, 4, RngStream(0))


# In a fresh interpreter, imports the CLI, then makes the CLI calls of the
# JSON list argv[1], writing each report to the null device.  Prints, as
# JSON, the exit code of each call and the scipy and geodesy modules loaded
# after the import and after each call.
LOADED_MODULES = """
import json, os, sys
from cwspheres.cli import main

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "cwspheres.geodesy")

steps = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    steps.append([main([*argv, "--out", os.devnull]), loaded()])
print(json.dumps(steps))
"""

GRAPHLESS_RUNS = (
    ("verify", "eigenlemma", "--n", "2", "--trials", "2"),
    ("verify", "orbit", "--trials", "100"),
    ("verify", "sp-central", "--trials", "100"),
    ("verify", "commutator", "--trials", "2"),
    ("verify", "nonintersection", "--trials", "2"),
    ("verify", "endpoints", "--trials", "2"),
    ("verify", "sp-witness"),
)


def test_only_the_graph_checks_load_scipy():
    # scipy takes about half a second to import; the seven checks that build
    # no graph never load it, and displacement loads it with geodesy
    src = Path(__file__).resolve().parents[1] / "src"
    graph_run = ("verify", "displacement", "--n-points", "600", "--points", "2")
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, json.dumps([*GRAPHLESS_RUNS, graph_run])],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps[:-1] == [[None, []]] + [[0, []]] * len(GRAPHLESS_RUNS)
    code, modules = steps[-1]
    assert code == 0 and "cwspheres.geodesy" in modules and "scipy" in modules


@pytest.mark.parametrize("argv", [
    ("verify", "orbit", "--trials", "100", "--L", "0"),
    ("verify", "orbit", "--trials", "100", "--L=-1"),
    ("verify", "orbit", "--trials", "100", "--L", "inf"),
    ("verify", "orbit", "--trials", "100", "--l", "0"),
    ("verify", "orbit", "--trials", "100", "--m=-2"),
    ("solve", "--L", "0"),
    ("solve", "--L", "nan"),
    ("solve", "--l", "0"),
    ("solve", "--x1", "nan"),
    ("solve", "--x1", "inf", "--x2", "1"),
    ("verify", "orbit", "--trials", "100", "--x2", "nan"),
])
def test_malformed_orbit_params_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("commutator", "--l", "0", "--trials", "2"),
    ("sp-witness", "--seed", "-1"),
    ("eigenlemma", "--trials", "2", "--seed", "-1"),
    ("displacement", "--k", "100000", "--n-points", "600", "--points", "2"),
    # graphs past the edge budget are refused before their arrays are sized
    ("oracle", "--n-points", "4000000000"),
    ("displacement", "--n-points", "4000000000", "--points", "2"),
    ("oracle", "--n-points", "200000", "--k", "199999"),
])
def test_verify_bad_sizes_and_seeds_are_usage_errors(tmp_path, capsys, argv):
    report = tmp_path / "report.csv"
    code, out, err = run(capsys, "verify", *argv, "--out", str(report))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not report.exists()


# ------------------------------------------------------------ argument space

JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=2))
COEFFICIENTS = st.floats(0.1, 2.0) | st.floats(-2.0, 2.0) | JSON_VALUES


def spec_configs(n_values):
    docs = st.fixed_dictionaries(
        {"family": st.sampled_from(["u_sphere", "sp_sphere", "su2"]),
         **{key: COEFFICIENTS for key in ("a", "a1", "a2", "b", "c")}},
        optional={"n": n_values})
    spec_bytes = docs.map(lambda doc: json.dumps(doc).encode())
    return st.one_of(spec_bytes, spec_bytes, st.text(max_size=30).map(str.encode),
                     st.binary(max_size=30))


CONFIGS = spec_configs(st.integers(-1, 3) | JSON_VALUES)
# sp-central builds (n+1) x (n+1) generators from the config's n: one n
# above its limit, refused before anything is sized, and no larger one
SMALL_N_CONFIGS = spec_configs(st.integers(-1, 3) | st.just(checks.SP_CENTRAL_MAX_N + 1)
                               | st.booleans() | st.floats())
REALS = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, 3.0), st.floats(),
                  st.sampled_from([0.0, 1e-300, 1e300]))


def opt(name, values):
    return values.map(lambda v: [f"--{name}={v!r}"])


def tokens(*parts):
    """The argv tokens drawn from each part in turn."""
    return st.tuples(*parts).map(lambda drawn: [t for part in drawn for t in part])


@st.composite
def graph_sizes(draw):
    n_points = draw(st.integers(499, 700))
    k = draw(st.integers(7, 14) | st.sampled_from([n_points, n_points + 1, 100000]))
    return [f"--n-points={n_points}", f"--k={k}"]


TRIALS = opt("trials", st.integers(-1, 4))
ORBIT_TRIALS = opt("trials", st.sampled_from([-1, 99]) | st.just(100))
VERIFY_SIZES = {
    "orbit": tokens(ORBIT_TRIALS),
    "eigenlemma": tokens(opt("n", st.integers(-1, 4)), TRIALS),
    "commutator": tokens(TRIALS),
    "endpoints": tokens(opt("vnorm", REALS), TRIALS),
    "nonintersection": tokens(opt("x", REALS), TRIALS),
    "sp-central": tokens(ORBIT_TRIALS),
    "sp-witness": tokens(),
    "displacement": tokens(opt("t", REALS), opt("points", st.integers(-1, 3)),
                           graph_sizes()),
    "oracle": tokens(graph_sizes()),
}
ORBIT_VALUES = {"l": st.integers(-1, 4), "m": st.integers(-1, 4),
                "x1": REALS, "x2": REALS, "L": REALS}


@st.composite
def cli_runs(draw):
    """(argv, config bytes or None) for `validate`, `solve` and the nine
    `verify` checks at small sizes, each check given only the flags it
    declares in `cli._CHECKS`."""
    command = draw(st.sampled_from(["validate", "solve", *VERIFY_SIZES]))
    if command == "validate":
        return ["validate"], draw(CONFIGS)
    if command == "solve":
        sizes = st.integers(1, 3) | st.integers(-2, 50)
        argv = [f"--l={draw(sizes)}", f"--m={draw(sizes)}"]
        argv += [f"--{name}={draw(REALS)!r}" for name in ("x1", "x2", "L")]
        return ["solve", *argv], None
    flags = cli._CHECKS[command][0]
    argv = [f"--seed={draw(st.integers(-2, 3))}", *draw(VERIFY_SIZES[command])]
    for name, values in ORBIT_VALUES.items():
        value = draw(st.none() | values) if name in flags else None
        if value is not None:                   # None keeps the default
            argv.append(f"--{name}={value!r}")
    if "config" not in flags:
        return ["verify", command, *argv], None
    configs = SMALL_N_CONFIGS if command == "sp-central" else CONFIGS
    return ["verify", command, *argv], draw(st.none() | configs)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(cli_runs())
@example((["validate"], b'{"family": "u_sphere", "a": 1%s, "b": 1}' % (b"0" * 400)))
def test_cli_exit_codes_over_argument_space(tmp_path_factory, run_args):
    # every run ends in 0, 1 or 2 without a traceback, 2 always says why,
    # and a pass rests on at least one evaluated trial or point
    argv, config = run_args
    work = tmp_path_factory.mktemp("run")
    if config is not None:
        (work / "spec.json").write_bytes(config)
        argv = [*argv, "--config", str(work / "spec.json")]
    if argv[0] == "verify":
        argv = [*argv, "--out", str(work / "report.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    if code == 0 and argv[0] == "verify":
        rows = (work / "report.csv").read_text().splitlines()[1:]
        assert any(",undefined," not in row for row in rows)
