"""Command-line interface.

Subcommand style: ``validate`` checks a metric-spec JSON, ``solve``
produces the closed-form metric for orbit parameters, ``verify`` runs one
of the Monte-Carlo / spectral / displacement verification pipelines and
emits a CSV report.  Each ``verify`` check takes ``--seed``, ``--out`` and
only the flags it reads (``_CHECKS``); any other flag is a usage error.

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
from .killing import OrbitParams, constant_length_identity, identity_scale, solve_metric
from .matrixcore import RngStream
from .randers import SP_SPHERE, RandersSpec, spec_from_json, spec_to_json

_SP_DEFAULT = RandersSpec(SP_SPHERE, n=2, a1=1.2, a2=1.5, b=1.0, c=0.3)  # on S^11


def _setup_logging():
    """Level of the package's log from RANDERS_LOG, read on every call; a
    value that names no level is WARNING.  The stderr handler goes on the
    root logger only if it has none, so a host's handlers stay."""
    level = logging.getLevelName(os.environ.get("RANDERS_LOG", "warning").upper())
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    logging.getLogger("cwspheres").setLevel(level if isinstance(level, int)
                                            else logging.WARNING)


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
    bound = checks.IDENTITY_RESIDUAL_TOL * identity_scale(spec, params)
    return 0 if max(abs(r) for r in residuals) <= bound else 1


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _orbit_inputs(args):
    """The --config spec, by default the solved metric, and the orbit data."""
    params = _params_from_args(args)
    return (_load_spec(args.config) if args.config else solve_metric(params)), params


def _sp_spec(args):
    return _load_spec(args.config) if args.config else _SP_DEFAULT


# Each option flag of `solve` and `verify` once: its type, default and help.
_FLAGS = {
    "config": dict(default=None, help="metric spec JSON (default: the check's own)"),
    "trials": dict(type=int, default=1000, help="trials or samples"),
    "n": dict(type=int, default=4, help="matrix size"),
    "l": dict(type=int, default=1, help="multiplicity of the first eigenvalue"),
    "m": dict(type=int, default=1, help="multiplicity of the second eigenvalue"),
    "x1": dict(type=float, default=0.5, help="central part of the generator"),
    "x2": dict(type=float, default=1.0, help="block part of the generator"),
    "L": dict(type=float, default=1.0, help="constant length of the generator"),
    "x": dict(type=float, default=0.5, help="central offset"),
    "vnorm": dict(type=float, default=0.5, help="|V| of the isotropy vector"),
    "t": dict(type=float, default=0.3, help="flow time"),
    "points": dict(type=int, default=50, help="sample points"),
    "n-points": dict(type=int, default=20000, help="graph vertices"),
    "k": dict(type=int, default=12, help="graph out-degree"),
}
_ORBIT = ("l", "m", "x1", "x2", "L")

# check -> (the _FLAGS it reads, its run on the parsed args and the seed's stream)
_CHECKS = {
    "orbit": (("config", *_ORBIT, "trials"),
              lambda a, rng: checks.orbit(*_orbit_inputs(a), a.trials, rng)),
    "eigenlemma": (("n", "trials"),
                   lambda a, rng: checks.eigenlemma(a.n, a.trials, rng)),
    "commutator": (("l", "m", "trials"),
                   lambda a, rng: checks.commutator(a.l, a.m, a.trials, rng)),
    "endpoints": (("vnorm", "trials"),
                  lambda a, rng: checks.endpoints(a.vnorm, a.trials, rng)),
    "nonintersection": (("x", "l", "m", "trials"),
                        lambda a, rng: checks.nonintersection(a.x, a.l, a.m,
                                                              a.trials, rng)),
    "sp-central": (("config", "trials"),
                   lambda a, rng: checks.sp_central(_sp_spec(a), a.trials, rng)),
    "sp-witness": (("config",), lambda a, rng: checks.sp_witness(_sp_spec(a), rng)),
    "displacement": (("config", *_ORBIT, "t", "points", "n-points", "k"),
                     lambda a, rng: checks.displacement(
                         *_orbit_inputs(a), a.t, a.points, a.n_points, a.k,
                         rng.split(0), rng.split(1))),
    "oracle": (("n-points", "k"),
               lambda a, rng: checks.oracle(a.n_points, a.k,
                                            *(rng.split(k) for k in range(3)))),
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
    _, run = _CHECKS[args.check]
    report = run(args, RngStream(args.seed))
    _emit(_csv_lines(report), args.out)
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

class _CheckParser(argparse.ArgumentParser):
    """The parser of one `verify` check.  It refuses an argument it does not
    declare with its own usage line, where argparse would hand it back to
    the top-level parser, whose usage names neither the check nor its
    flags."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_flags(parser, names):
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parsing reads it and leaves it as it was, and each parse
    fills a fresh namespace from the defaults.  Each `verify` check has its
    own parser with `--seed`, `--out` and the flags it reads, so a flag the
    check would ignore is a usage error; no parser takes a flag's prefix
    for the flag."""
    parser = argparse.ArgumentParser(
        prog="cwspheres", allow_abbrev=False,
        description="Constant-displacement isometry verification on "
                    "homogeneous Randers spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a metric spec JSON",
                           allow_abbrev=False)
    p_val.add_argument("--config", required=True)

    p_solve = sub.add_parser("solve", help="solve the metric for orbit parameters",
                             allow_abbrev=False)
    _add_flags(p_solve, _ORBIT)

    p_ver = sub.add_parser("verify", help="run a verification pipeline",
                           allow_abbrev=False)
    by_check = p_ver.add_subparsers(dest="check", required=True, parser_class=_CheckParser)
    for check, (flags, _) in sorted(_CHECKS.items()):
        p_check = by_check.add_parser(check, allow_abbrev=False)
        p_check.add_argument("--seed", type=int, default=0,
                             help="root seed of every random stream")
        p_check.add_argument("--out", default=None,
                             help="CSV output path (default stdout)")
        _add_flags(p_check, flags)
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
