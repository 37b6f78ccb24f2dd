"""Golden `verify` reports: small fixed runs of the nine checks must
reproduce the recorded CSV bytes and exit codes.

The files under tests/golden/ are written by running this file as a
script (`PYTHONPATH=src python tests/test_golden.py`).  A change that
alters report bytes on purpose regenerates them and says why in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

import pytest

from cwspheres import cli
from cwspheres.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEEDS = (0, 1)
RUNS = {
    "orbit": ("--trials", "200"),
    "eigenlemma": ("--n", "3", "--trials", "40"),
    "commutator": ("--l", "2", "--m", "2", "--trials", "12"),
    "endpoints": ("--trials", "20"),
    "nonintersection": ("--trials", "100"),
    "sp-central": ("--trials", "150"),
    "sp-witness": (),
    "displacement": ("--n-points", "1500", "--points", "6"),
    "oracle": ("--n-points", "2000"),
}


def _run(check, seed, out):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", check, *RUNS[check], "--seed", str(seed),
                     "--out", str(out)])


def test_every_verify_check_has_a_golden_run():
    assert set(RUNS) == set(cli._CHECKS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check", sorted(RUNS))
def test_verify_report_matches_golden(tmp_path, check, seed):
    name = f"{check}_s{seed}"
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    out = tmp_path / "report.csv"
    assert _run(check, seed, out) == codes[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {f"{check}_s{seed}": _run(check, seed, GOLDEN / f"{check}_s{seed}.csv")
             for check in sorted(RUNS) for seed in SEEDS}
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
