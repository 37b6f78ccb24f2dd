"""Command-line interface.

Subcommand style: ``validate`` checks a metric-spec JSON, ``solve``
produces the closed-form metric for orbit parameters, ``verify`` runs one
of the Monte-Carlo / spectral / displacement verification pipelines and
emits a CSV report.

Exit codes: 0 = pass, 1 = property failure or infeasible input,
2 = usage/parse error.  All randomness derives from --seed, so identical
invocations produce byte-identical reports.  Set RANDERS_LOG=info for
progress logging on stderr.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from . import checks
from .errors import CwError, InfeasibleParams, InvalidInput, InvalidSpec
# `cli.phase_bound_check` stays importable: perfbench/test_perfbench.py
# checks that the tracer rebinds this alias of the flows function.
from .flows import phase_bound_check  # noqa: F401
from .killing import (IDENTITY_RESIDUAL_TOL, OrbitParams, constant_length_identity,
                      solve_metric)
from .matrixcore import RngStream
from .randers import SP_SPHERE, RandersSpec, spec_from_json, spec_to_json

_SP_DEFAULT = RandersSpec(SP_SPHERE, n=2, a1=1.2, a2=1.5, b=1.0, c=0.3)  # on S^11


def _setup_logging():
    """Log level from RANDERS_LOG; a value that names no level is WARNING."""
    level = logging.getLevelName(os.environ.get("RANDERS_LOG", "warning").upper())
    logging.basicConfig(stream=sys.stderr,
                        level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(message)s")


def _load_spec(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read config: {exc}") from exc
    return spec_from_json(text)


def _require_writable(out_path):
    """Refuse a report path that cannot be written before any work runs,
    without creating or truncating it: a directory, a missing or read-only
    parent directory, or a read-only file.  `_emit` still reports a write
    that fails later."""
    if os.path.isdir(out_path):
        raise InvalidInput(f"cannot write report: {out_path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(parent):
        raise InvalidInput(f"cannot write report: no directory {parent!r}")
    if not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK):
        raise InvalidInput(f"cannot write report: {out_path!r} is not writable")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _params_from_args(args):
    return OrbitParams(args.l, args.m, args.x1, args.x2, args.L)


# --------------------------------------------------------------------------
# validate / solve
# --------------------------------------------------------------------------

def cmd_validate(args):
    try:
        _load_spec(args.config)
    except InvalidSpec as exc:
        print("\n".join(exc.violations))
        return 1
    print("ok")
    return 0


def cmd_solve(args):
    try:
        params = _params_from_args(args)
        spec = solve_metric(params)
    except InfeasibleParams as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    residuals = constant_length_identity(spec, params)
    print(spec_to_json(spec))
    print("residuals: " + " ".join(f"{r:.17g}" for r in residuals))
    return 0 if max(abs(r) for r in residuals) <= IDENTITY_RESIDUAL_TOL else 1


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _orbit_inputs(args):
    """The --config spec, by default the solved metric, and the orbit data."""
    params = _params_from_args(args)
    return (_load_spec(args.config) if args.config else solve_metric(params)), params


def _sp_spec(args):
    return _load_spec(args.config) if args.config else _SP_DEFAULT


_CHECKS = {
    "orbit": lambda a, rng: checks.orbit(*_orbit_inputs(a), a.trials, rng),
    "eigenlemma": lambda a, rng: checks.eigenlemma(a.n, a.trials, rng),
    "commutator": lambda a, rng: checks.commutator(a.l, a.m, a.trials, rng),
    "endpoints": lambda a, rng: checks.endpoints(a.vnorm, a.trials, rng),
    "nonintersection": lambda a, rng: checks.nonintersection(a.x, a.l, a.m,
                                                             a.trials, rng),
    "sp-central": lambda a, rng: checks.sp_central(_sp_spec(a), a.trials, rng),
    "sp-witness": lambda a, rng: checks.sp_witness(_sp_spec(a), rng),
    "displacement": lambda a, rng: checks.displacement(
        *_orbit_inputs(a), a.t, a.points, a.n_points, a.k,
        rng.split(0), rng.split(1)),
    "oracle": lambda a, rng: checks.oracle(
        a.n_points, a.k, *(rng.split(k) for k in range(3))),
}


def _cell(value):
    if isinstance(value, tuple):
        return f"{value[0]}={_cell(value[1])}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_lines(report):
    """CSV lines: 17-digit floats, lower-case booleans, `name=value` pairs."""
    return [",".join(report.header)] + [",".join(map(_cell, row))
                                        for row in report.rows]


def cmd_verify(args):
    if args.out:
        _require_writable(args.out)
    report = _CHECKS[args.check](args, RngStream(args.seed))
    _emit(_csv_lines(report), args.out)
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_orbit_args(p):
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--x1", type=float, default=0.5)
    p.add_argument("--x2", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parsing reads it and leaves it as it was, and each parse
    fills a fresh namespace from the defaults."""
    parser = argparse.ArgumentParser(
        prog="cwspheres",
        description="Constant-displacement isometry verification on "
                    "homogeneous Randers spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a metric spec JSON")
    p_val.add_argument("--config", required=True)

    p_solve = sub.add_parser("solve", help="solve the metric for orbit parameters")
    _add_orbit_args(p_solve)

    p_ver = sub.add_parser("verify", help="run a verification pipeline")
    p_ver.add_argument("check", choices=sorted(_CHECKS))
    p_ver.add_argument("--config", default=None,
                       help="metric spec JSON (defaults per check)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_ver.add_argument("--n", type=int, default=4, help="matrix size (eigenlemma)")
    _add_orbit_args(p_ver)
    p_ver.add_argument("--x", type=float, default=0.5,
                       help="central offset (nonintersection)")
    p_ver.add_argument("--vnorm", type=float, default=0.5,
                       help="|V| for the endpoint check")
    p_ver.add_argument("--t", type=float, default=0.3, help="flow time")
    p_ver.add_argument("--points", type=int, default=50,
                       help="displacement sample points")
    p_ver.add_argument("--n-points", dest="n_points", type=int, default=20000)
    p_ver.add_argument("--k", type=int, default=12)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    # looked up on each call, so a wrapped or patched command is the one run
    command = {"validate": cmd_validate, "solve": cmd_solve, "verify": cmd_verify}
    try:
        return command[args.command](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CwError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
