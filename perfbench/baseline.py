"""Record a baseline: repeated untraced runs and one traced run per workload.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Runs `run.py` once per seed 0..runs-1 on every workload with tracing
off, then once with tracing on (seed 0), one process at a time.  For each
metric it keeps every run's value, the median and the quartile spread
(q3 - q1) / median as `statistics.quantiles(values, n=4)` gives them, and
prints the spreads.  Values are parsed from the `name value unit` lines
and the final JSON line of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    """Run the benchmark once; returns (result JSON, printed metrics, env,
    FAILED lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    printed, env = {}, None
    failures = [line for line in lines if line.startswith("FAILED ")]
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif len(parts) == 3:
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), printed, env, failures


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None, help="JSON record to write")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    record = {"run_seconds": seconds, "runs": args.runs, "untraced": {}, "traced": {}}
    for workload in workloads:
        values, failures, attempted = {}, [], 0
        for seed in range(args.runs):
            t0 = time.monotonic()
            result, printed, env, failed = bench(workload, seed, seconds, 0)
            record["env"] = env
            failures += [f"seed {seed}: {line}" for line in failed]
            attempted += result["attempted"]
            for name, value in printed.items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"correct={result['correct']}", flush=True)
        stats = {name: summary(v) for name, v in values.items() if len(v) == args.runs}
        stats["failed_calls"] = failures
        stats["attempted_calls"] = attempted
        record["untraced"][workload] = stats
        for name in (m["name"] for m in config["end_to_end"]):
            print(f"  {name:16s} median {stats[name]['median']:.6g}  "
                  f"spread {stats[name]['spread']:.4f}", flush=True)
        result, _, _, _ = bench(workload, 0, seconds, 1)
        record["traced"][workload] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
