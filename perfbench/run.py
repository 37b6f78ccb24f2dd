"""cwspheres benchmark: time to a PASS/FAIL verdict per pipeline family.

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 20 --trace 0

Runs one workload's `cwspheres verify` calls in this process through
`cli.main`, one call after the other (a closed loop with one client), on
spec files and seeds generated from `--seed`; the graph workloads draw
their seeds from the surveyed pool in `graph_seeds.json`.  Every report is checked
from outside by `pipelines.check_report`.  The run:

1. times set-up (interpreter start, imports, spec files) in
   `SETUP_SAMPLES` fresh processes and reports the median as `setup_s`;
2. runs one untimed warm-up pass of every pipeline at the self-test's
   tiny sizes, which loads every code path;
3. repeats timed passes while another one fits in `--seconds`, each pass
   on its own seed, and reports medians over passes;
4. with `--trace 1`, spends the second half of the time on passes with
   every public cwspheres function wrapped in a span (`tracer.py`), and
   reports per-layer metrics plus the tracing overhead;
5. runs the gate-only calls once.

Human-readable lines come first; the last line of stdout is the JSON
result.  Reports are written to a temporary directory under
`.bench_tmp/` in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from pipelines import (FAMILIES, GRAPH_WORKLOADS, WORKLOADS, check_report, gate_calls,
                       workload_calls)
from prepare import BLAS_THREADS, ROOT, SRC, prepare

HERE = Path(__file__).resolve().parent
TMP_PARENT = ROOT / ".bench_tmp"
GRAPH_SEEDS = HERE / "graph_seeds.json"
SETUP_SAMPLES = 5
MAX_PASSES = 1000
WARMUP_INDEX = MAX_PASSES - 1


def pass_seed(workload, seed, index):
    """CLI seed of pass `index`.  Monte-Carlo passes, the warm-up
    included, each see fresh inputs.  Graph workloads take their seeds in
    a `seed`-shuffled order from the pool of graph seeds on which the
    program passes every gated call (see graph_seeds.py)."""
    if workload not in GRAPH_WORKLOADS:
        return seed * MAX_PASSES + index
    pool = json.loads(GRAPH_SEEDS.read_text())["pool"]
    random.Random(seed).shuffle(pool)
    return pool[index % len(pool)]


def time_setup(workload, tmp):
    """Seconds from starting a fresh process until it could make its first
    pipeline call, median of SETUP_SAMPLES processes."""
    samples = []
    for k in range(SETUP_SAMPLES):
        spec_dir = tmp / f"setup{k}"
        spec_dir.mkdir()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "prepare.py"), workload,
                               str(spec_dir)], capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


class Runner:
    """Makes the calls of one run and keeps every outcome."""

    def __init__(self, cli, spec_paths, tmp):
        self.cli = cli
        self.spec_paths = spec_paths
        self.out_path = str(tmp / "report.csv")
        self.attempted = 0
        self.failures = []
        self.answers = []
        self.spreads = []

    def call(self, call, seed):
        """Run one call; returns its wall time in seconds."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = call.argv(seed, self.spec_paths, self.out_path)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising pipeline is a failed call
            traceback.print_exc()
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        try:
            with open(self.out_path) as fh:
                text = fh.read()
        except OSError:
            text = ""
        outcome = check_report(call, code, text)
        self.attempted += 1
        self.answers += outcome.answers
        self.spreads += outcome.spreads
        if outcome.failures:
            self.failures.append((" ".join(argv[:2]), seed, outcome.failures))
        return elapsed

    def run_pass(self, calls, seed):
        """Times of one pass, summed per family and in total."""
        times = dict.fromkeys(FAMILIES, 0.0)
        for call in calls:
            times[call.family] += self.call(call, seed)
        times["verdict"] = sum(times.values())
        return times

    def run_passes(self, calls, seed_of, seconds):
        """Timed passes while another one is expected to end within
        `seconds` (at least one pass)."""
        passes = []
        t0 = time.perf_counter()
        while not passes or (
                len(passes) < WARMUP_INDEX
                and time.perf_counter() - t0 + _median(passes, "verdict") <= seconds):
            passes.append(self.run_pass(calls, seed_of(len(passes))))
        return passes


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def environment(args):
    import cwspheres
    import numpy
    import scipy

    return {"commit": _git_commit(), "cwspheres": cwspheres.__version__,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": _blas_version(numpy), "scipy_openblas": _blas_version(scipy),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run(args, tmp):
    """Everything but printing; returns (metrics, runner, info), where
    metrics maps name -> (value, unit) and info holds set-up samples, pass
    times and, when traced, the span table and per-layer metrics."""
    setup_s, setup_samples = time_setup(args.workload, tmp)
    cli, spec_paths = prepare(args.workload, tmp)
    runner = Runner(cli, spec_paths, tmp)
    calls = workload_calls(args.workload)
    families = [f for f in FAMILIES if any(c.family == f for c in calls)]

    def seed_of(index):
        return pass_seed(args.workload, args.seed, index)

    runner.run_pass(workload_calls(args.workload, tiny=True), seed_of(WARMUP_INDEX))
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = runner.run_passes(calls, seed_of, budget)
    traced, tracer = [], None
    if args.trace:
        import cwspheres
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cwspheres)
        try:
            traced = runner.run_passes(calls, seed_of, budget)
        finally:
            tracer.uninstall()
    for call in gate_calls(args.workload):
        runner.call(call, seed_of(0))

    info = {"setup_samples_s": setup_samples}
    m = {"setup_s": (setup_s, "s"),
         "verdict_s": (_median(plain, "verdict"), "s"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for family in families:
        m[f"{family}_s"] = (_median(plain, family), "s")
    if runner.answers:
        m["oracle_rel_err"] = (statistics.fmean(runner.answers), "ratio")
    if runner.spreads:
        m["disp_rel_spread"] = (max(runner.spreads), "ratio")
    m["fail_ratio"] = (len(runner.failures) / runner.attempted, "ratio")
    m["passes"] = (len(plain), "count")
    info["pass_s"] = [round(p["verdict"], 4) for p in plain]
    if tracer is not None:
        from tracer import layer_metrics, span_table

        trials = sum(c.trials for c in calls)
        layers = layer_metrics(tracer, len(traced), trials)
        layers["trace.overhead_s"] = (_median(traced, "verdict") - m["verdict_s"][0], "s")
        layers["trace.passes"] = (len(traced), "count")
        for family in FAMILIES:
            layers[f"pipeline.{family}_s"] = m.get(f"{family}_s", (0.0, "s"))
        layers["geodesy.oracle_rel_err"] = m.get("oracle_rel_err", (0.0, "ratio"))
        layers["geodesy.disp_rel_spread"] = m.get("disp_rel_spread", (0.0, "ratio"))
        info["spans"] = span_table(tracer, len(traced))
        info["layers"] = layers
    return m, runner, info


def result_line(metrics, names, runner):
    failed = len(runner.failures)
    return json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}})


def _names(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cwspheres" / "__init__.py").is_file():
        print(f"error: no cwspheres sources under {SRC}", file=sys.stderr)
        return 2

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        metrics, runner, info = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass

    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"setup samples (s): {info['setup_samples_s']}")
    print(f"pass times (s): {info['pass_s']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:<24.10g} {unit}")
    for call, seed, reasons in runner.failures:
        print(f"FAILED {call} --seed {seed}: {'; '.join(reasons)}")
    if args.trace:
        print("\n".join(info["spans"]))
        for name, (value, unit) in info["layers"].items():
            print(f"{name:36s} {value:<24.10g} {unit}")
        print(result_line(info["layers"], _names("per_layer"), runner))
    else:
        print(result_line(metrics, _names("end_to_end"), runner))
    return 0


if __name__ == "__main__":
    sys.exit(main())
