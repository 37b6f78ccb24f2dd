"""Self-test of the benchmark harness.

    python3 -m pytest perfbench

Tiny passes (few trials and points; the graph keeps its README size)
must print every metric with its unit, and a wrong expectation must show
up as a failed call.
"""

import dataclasses
import json
import re

import pytest

import pipelines
import run as bench
from pipelines import Call, check_report, workload_calls

with open(bench.ROOT / "BENCHMARK.json") as _fh:
    CONFIG = json.load(_fh)

# The end-to-end metrics each workload prints, beyond those in BENCHMARK.json.
PRINTED = {
    "montecarlo": ("eigenlemma_s", "orbit_s", "spectral_s", "fail_ratio"),
    "oracle": ("oracle_s", "displacement_s", "oracle_rel_err", "disp_rel_spread",
               "fail_ratio"),
    "oracle-scaled": ("displacement_s", "oracle_rel_err", "disp_rel_spread",
                      "fail_ratio"),
}


def _tiny(monkeypatch, change=None):
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)

    def calls(workload, tiny=False):
        small = workload_calls(workload, tiny=True)
        return [change(c) for c in small] if change else small

    monkeypatch.setattr(bench, "workload_calls", calls)


def _run(capsys, workload, trace):
    assert bench.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines):
    """name -> unit of the `name value unit` lines."""
    found = {}
    for line in lines:
        m = re.fullmatch(r"(\S+)\s+(-?[0-9][0-9.e+-]*)\s+(\S+)", line)
        if m:
            found[m.group(1)] = m.group(3)
    return found


@pytest.mark.parametrize("workload", pipelines.WORKLOADS)
def test_tiny_pass_emits_every_end_to_end_metric(monkeypatch, capsys, workload):
    _tiny(monkeypatch)
    lines, result = _run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = _printed(lines)
    for name in (*expected, "verdict_s", *PRINTED[workload]):
        assert name in printed, name
    assert float(next(l.split()[1] for l in lines if l.startswith("fail_ratio "))) == 0.0


def test_traced_tiny_pass_emits_every_per_layer_metric(monkeypatch, capsys):
    _tiny(monkeypatch)
    lines, result = _run(capsys, "oracle-scaled", trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["geodesy.query_calls"] == 2
    assert metrics["geodesy.kdtree_per_query"] > 0
    assert metrics["geodesy.corridor_arcs"] > 0
    assert metrics["flows.apply_flow_calls"] == 2
    assert 0 < metrics["geodesy.query_self_s"] < metrics["geodesy.query_s"]


def test_flipped_expected_verdict_counts_as_failure(monkeypatch, capsys):
    def flip(call):
        if call.check != "sp-central":
            return call
        flipped = tuple("non-constant" if v == "constant" else "constant"
                        for v in call.expect["verdicts"])
        return dataclasses.replace(call, expect={"verdicts": flipped})

    _tiny(monkeypatch, flip)
    lines, result = _run(capsys, "montecarlo", trace=0)
    assert not result["correct"] and result["failed"] >= 2
    fail_ratio = float(next(l.split()[1] for l in lines if l.startswith("fail_ratio ")))
    assert fail_ratio > 0
    assert any(l.startswith("FAILED verify sp-central") for l in lines)


def test_short_report_fails_the_gate():
    call = Call("eigenlemma", "eigenlemma", ("--trials", "3"))
    rows = "trial_id,inputs_hash,verdict,worst_residual\n0,ab,true,0\n1,cd,true,0\n"
    assert check_report(call, 0, rows).failures
    assert not check_report(call, 0, rows + "2,ef,true,0\n").failures
    assert check_report(call, 1, rows + "2,ef,true,0\n").failures
    assert check_report(call, 0, "").failures


def test_graph_workloads_draw_seeds_from_the_passing_pool():
    record = json.loads(bench.GRAPH_SEEDS.read_text())
    pool = set(record["pool"])
    assert pool and not pool & {int(s) for s in record["failing"]}
    for workload in pipelines.GRAPH_WORKLOADS:
        seeds = [bench.pass_seed(workload, 7, i) for i in range(len(pool))]
        assert set(seeds) == pool
        assert seeds == [bench.pass_seed(workload, 7, i) for i in range(len(pool))]
        assert seeds != [bench.pass_seed(workload, 8, i) for i in range(len(pool))]
    assert bench.pass_seed("montecarlo", 7, 3) == 7 * bench.MAX_PASSES + 3


@pytest.mark.xfail(strict=True, reason="verify oracle exceeds its own 1% symmetry "
                   "threshold on this README-size graph (graph_seeds.json)")
def test_oracle_passes_on_a_surveyed_failing_seed(tmp_path):
    seed = min(int(s) for s in json.loads(bench.GRAPH_SEEDS.read_text())["failing"])
    cli, spec_paths = bench.prepare("oracle", tmp_path)
    (call,) = [c for c in workload_calls("oracle") if c.check == "oracle"]
    out_path = str(tmp_path / "report.csv")
    code = cli.main(call.argv(seed, spec_paths, out_path))
    with open(out_path) as fh:
        assert not check_report(call, code, fh.read()).failures


def test_tracer_rebinds_every_alias_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(bench.ROOT / "src"))
    import cwspheres
    from cwspheres import cli, flows, matrixcore
    from tracer import Tracer

    original = matrixcore.haar_unitary
    split = matrixcore.RngStream.split
    tracer = Tracer()
    tracer.install(cwspheres)
    try:
        assert flows.haar_unitary is matrixcore.haar_unitary is not original
        assert cli.phase_bound_check is flows.phase_bound_check
        matrixcore.RngStream(1).split(2)
    finally:
        tracer.uninstall()
    assert flows.haar_unitary is original and matrixcore.RngStream.split is split
    assert "matrixcore.RngStream.split" in tracer.names
    assert len(tracer.name_id) == 1


def test_benchmark_json_matches_the_contract():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(pipelines.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
