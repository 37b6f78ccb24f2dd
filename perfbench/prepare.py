"""Benchmark set-up: BLAS thread cap, imports and the workload's spec files.

`prepare` is everything a benchmark process does before its first
pipeline call.  Run as a script it does the same and prints
`time.monotonic()` at the moment a pipeline call could start, so the
parent can time set-up from the moment it started the process:

    python3 perfbench/prepare.py <workload> <spec-dir>
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from pipelines import spec_docs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the matrices are at most 8x8, and the second core is
# left to the rest of the machine so pipeline times stay steady.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_specs(spec_dir, workload):
    """Write the spec files `workload` passes through --config; returns a
    name -> path map."""
    paths = {}
    for name, doc in spec_docs(workload).items():
        path = Path(spec_dir) / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        paths[name] = str(path)
    return paths


def prepare(workload, spec_dir):
    """Cap BLAS threads, import the program from this checkout and write
    the spec files.  Returns (cli module, spec paths)."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "cwspheres" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cwspheres package under {SRC}")
    sys.path.insert(0, str(SRC))
    from cwspheres import cli

    return cli, write_specs(spec_dir, workload)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    prepare(sys.argv[1], sys.argv[2])
    print(repr(time.monotonic()))
