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
import hashlib
import logging
import math
import os
import sys

import numpy as np

from . import geodesy
from .cosets import ModelSpace, sp_algebra
from .errors import CwError, InfeasibleParams, InvalidInput
from .flows import (block_angle_unitary, commutator_eig1_persistence,
                    endpoint_focus_check, geodesic_nonintersection_probe,
                    phase_bound_check, su2_flow, u_flow, apply_flow)
from .killing import (OrbitParams, constant_length_identity, orbit_generator,
                      orbit_length_report, scan_to_csv, solve_metric,
                      sp_central_only_scan, sp_witness_pair)
from .matrixcore import (QuaternionMatrix, RngStream, expm_skew, haar_unitary,
                         su2_from_vec, su2_matrix_from_quat)
from .randers import (SP_SPHERE, RandersSpec, spec_from_json, spec_to_json,
                      validate_spec)

log = logging.getLogger("cwspheres")

# `solve` passes when every identity residual is within this bound.
SOLVE_RESIDUAL_TOL = 1e-10


def _setup_logging():
    level = os.environ.get("RANDERS_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(message)s")


def _load_spec(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read config: {exc}") from exc
    return spec_from_json(text)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


def _params_from_args(args):
    return OrbitParams(args.l, args.m, args.x1, args.x2, args.L)


# --------------------------------------------------------------------------
# validate / solve
# --------------------------------------------------------------------------

def cmd_validate(args):
    spec = _load_spec(args.config)
    violations = validate_spec(spec)
    if violations:
        for v in violations:
            print(v)
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
    return 0 if max(abs(r) for r in residuals) <= SOLVE_RESIDUAL_TOL else 1


# --------------------------------------------------------------------------
# verify subchecks
# --------------------------------------------------------------------------

def _trial_count(args):
    """--trials for the checks that loop here; no trial is no verdict."""
    if args.trials < 1:
        raise InvalidInput("need at least one trial")
    return args.trials


def _threshold_rows(checks):
    """`check,value,threshold,verdict` rows for (name, value, threshold)
    triples, and whether every value is within its threshold."""
    lines = ["check,value,threshold,verdict"]
    for name, value, threshold in checks:
        lines.append(f"{name},{value:.17g},{threshold},"
                     f"{str(value <= threshold).lower()}")
    return lines, all(value <= threshold for _, value, threshold in checks)


def _verify_orbit(args, rng):
    params = _params_from_args(args)
    spec = _load_spec(args.config) if args.config else solve_metric(params)
    rep = orbit_length_report(spec, orbit_generator(params), L=params.L,
                              trials=args.trials, rng=rng)
    lines = ["candidate_id,min,max,mean,stddev,verdict",
             f"orbit,{rep.min:.17g},{rep.max:.17g},{rep.mean:.17g},"
             f"{rep.stddev:.17g},{rep.verdict}"]
    return lines, rep.verdict == "constant"


def _phase_violation(result):
    worst = 0.0
    for iv, lift in zip(result.intervals, result.lifted):
        if np.isnan(lift):
            return math.nan
        worst = max(worst, max(iv.lo - lift, lift - iv.hi, 0.0))
    return worst


def _verify_eigenlemma(args, rng):
    n, trials = args.n, _trial_count(args)
    lines = ["trial_id,inputs_hash,verdict,worst_residual"]
    ok = True
    for k in range(trials):
        sub = rng.split(k)
        p = haar_unitary(n, sub.split(0))
        q = haar_unitary(n, sub.split(1))
        res = phase_bound_check(p, q)
        ok = ok and res.verdict
        worst = _phase_violation(res) if res.verdict else math.nan
        lines.append(f"{k},{_digest(p, q)},{str(res.verdict).lower()},{worst:.17g}")
        if k % 1000 == 0:
            log.info("eigenlemma trial %d/%d", k, trials)
    return lines, ok


def _verify_commutator(args, rng):
    l, m = args.l, args.m
    r = min(l, m)
    lines = ["trial_id,inputs_hash,verdict,worst_residual"]
    ok = True
    for k in range(_trial_count(args)):
        sub = rng.split(k)
        invertible = (k % 2 == 1) and l == m
        angles = sub.gen.uniform(0.15, math.pi / 2 - 0.15, size=r)
        if not invertible:
            angles[k % r] = 0.0
        u = block_angle_unitary(l, m, angles, sub.split(1))
        res = commutator_eig1_persistence(u, l, m)
        if invertible:
            verdict = not res.has_eig1.any()
            residual = float(res.spectral_dists.min())
        else:
            verdict = bool(res.has_eig1.all() and res.shared_eigenvector)
            residual = res.worst_residual
        ok = ok and verdict
        lines.append(f"{k},{_digest(u)},{str(verdict).lower()},{residual:.17g}")
    return lines, ok


def _verify_endpoints(args, rng):
    v3 = np.array([args.vnorm, 0.0, 0.0])
    spread = endpoint_focus_check(v3, samples=args.trials, rng=rng.split(0))
    vmat = su2_from_vec(v3)
    worst_dev = 0.0
    for k in range(10):
        sub = rng.split(k + 1)
        x3 = sub.gen.standard_normal(3)
        x3 /= np.linalg.norm(x3)
        g4 = sub.gen.standard_normal(4)
        g = su2_matrix_from_quat(g4 / np.linalg.norm(g4))
        end = apply_flow(su2_flow(x3, v3, math.pi), g)
        ref = -g @ expm_skew(vmat, -math.pi)
        worst_dev = max(worst_dev, float(np.max(np.abs(end - ref))))
    return _threshold_rows([("endpoint_spread", spread, 1e-10),
                            ("endpoint_identity", worst_dev, 1e-12)])


def _verify_nonintersection(args, rng):
    res = geodesic_nonintersection_probe(args.x, args.l, args.m,
                                         args.trials, rng)
    lines = ["check,min_spectral_distance,trials,verdict",
             f"nonintersection,{res.min_spectral_distance:.17g},{res.trials},"
             f"{str(res.verdict).lower()}"]
    return lines, res.verdict


def _sp_candidates(n):
    dim = n + 1
    zero = QuaternionMatrix.zeros(dim)
    central = sp_algebra(zero, scalar=0.7)
    scaled_id = sp_algebra(QuaternionMatrix(0.8j * np.eye(dim, dtype=complex),
                                            np.zeros((dim, dim), complex)),
                           scalar=0.5)
    corner = np.zeros((dim, dim), complex)
    corner[0, 0] = 1j
    pure_matrix = sp_algebra(QuaternionMatrix(corner, np.zeros_like(corner)))
    return [central, scaled_id, pure_matrix], [True, False, False]


def _sp_spec(args):
    """The --config spec of an sp check, by default one on S^11."""
    if not args.config:
        return RandersSpec(SP_SPHERE, n=2, a1=1.2, a2=1.5, b=1.0, c=0.3)
    spec = _load_spec(args.config)
    if spec.family != SP_SPHERE:
        raise InvalidInput(f"{args.check} needs an {SP_SPHERE} config, "
                           f"not {spec.family}")
    return spec


def _verify_sp_central(args, rng):
    spec = _sp_spec(args)
    candidates, centrality = _sp_candidates(spec.n)
    rows = sp_central_only_scan(spec, candidates, args.trials, rng)
    lines = scan_to_csv(rows).strip().split("\n")
    ok = all((row.report.verdict == "constant") == central
             for row, central in zip(rows, centrality))
    return lines, ok


def _verify_sp_witness(args, rng):
    spec = _sp_spec(args)
    lines = ["case,gap,expected,residual,verdict"]
    ok = True
    for n in range(1, 4):
        dim = n + 1
        sub = rng.split(n)
        entries = sub.gen.standard_normal((dim, 3))
        entries[np.abs(entries) < 0.2] = 0.0
        if not np.any(np.linalg.norm(entries, axis=1) > 0):
            entries[0, 0] = 1.0
        q1 = np.diag(1j * entries[:, 0]).astype(complex)
        q2 = np.diag(entries[:, 1] + 1j * entries[:, 2]).astype(complex)
        x = QuaternionMatrix(q1, q2)
        case_spec = RandersSpec("sp_sphere", n=n, a1=spec.a1, a2=spec.a2,
                                b=spec.b, c=spec.c)
        mods = np.linalg.norm(entries, axis=1)
        first = mods[np.argmax(mods > 1e-14)]
        _, _, f1, f2 = sp_witness_pair(x, case_spec)
        gap = abs(f1 - f2)
        expected = 2.0 * abs(case_spec.c) * first
        residual = abs(gap - expected)
        verdict = residual <= 1e-12
        ok = ok and verdict
        lines.append(f"n{n},{gap:.17g},{expected:.17g},{residual:.17g},"
                     f"{str(verdict).lower()}")
    return lines, ok


def _verify_displacement(args, rng):
    params = _params_from_args(args)
    spec = _load_spec(args.config) if args.config else solve_metric(params)
    flow = u_flow(orbit_generator(params).x, args.t)
    if (spec.family, spec.n) != (flow.family, params.n):
        raise InvalidInput(f"displacement needs a {flow.family} config with n = "
                           f"{params.n}, not {spec.family} with n = {spec.n}")
    if args.points < 2:
        raise InvalidInput("displacement needs at least two --points")
    space = ModelSpace(spec.family, n=spec.n)
    log.info("building %d-point graph", args.n_points)
    graph = geodesy.build_graph(space, spec, args.n_points, args.k, rng.split(0))
    prof = geodesy.displacement_profile(graph, flow, args.points, rng.split(1))
    lines = ["point,displacement"]
    lines += [f"{i},{d:.17g}" for i, d in enumerate(prof.displacements)]
    lines.append(f"summary,min={prof.min:.17g},max={prof.max:.17g},"
                 f"mean={prof.mean:.17g},rel_spread={prof.rel_spread:.17g},"
                 f"snap={prof.snap_max:.17g},verdict={prof.verdict}")
    return lines, prof.verdict == "constant"


def _verify_oracle(args, rng):
    from .randers import round_spec
    spec = round_spec("u_sphere", 1)
    space = ModelSpace("u_sphere", n=1)
    graph = geodesy.build_graph(space, spec, args.n_points, args.k, rng.split(0))
    anti, _ = geodesy.distance_to_coords(graph, 0, -graph.points[0])
    anti_err = abs(anti - math.pi) / math.pi
    gen = rng.split(1).gen
    sym_dev = 0.0
    for _ in range(10):
        i, j = (int(v) for v in gen.integers(0, graph.n_points, 2))
        dij = geodesy.distance(graph, i, j).distance
        dji = geodesy.distance(graph, j, i).distance
        sym_dev = max(sym_dev, abs(dij - dji) / max(dij, dji))
    prof = geodesy.displacement_profile(
        graph, u_flow(1j * np.eye(2), 0.5), 50, rng.split(2))
    return _threshold_rows([
        ("antipodal_rel_error", anti_err, 0.05),
        ("symmetry_rel_dev", sym_dev, 0.01),
        ("hopf_rel_spread", prof.rel_spread, geodesy.DISPLACEMENT_REL_TOL)])


_CHECKS = {
    "orbit": _verify_orbit,
    "eigenlemma": _verify_eigenlemma,
    "commutator": _verify_commutator,
    "endpoints": _verify_endpoints,
    "nonintersection": _verify_nonintersection,
    "sp-central": _verify_sp_central,
    "sp-witness": _verify_sp_witness,
    "displacement": _verify_displacement,
    "oracle": _verify_oracle,
}


def cmd_verify(args):
    rng = RngStream(args.seed)
    lines, ok = _CHECKS[args.check](args, rng)
    _emit(lines, args.out)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_orbit_args(p):
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--x1", type=float, default=0.5)
    p.add_argument("--x2", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cwspheres",
        description="Constant-displacement isometry verification on "
                    "homogeneous Randers spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a metric spec JSON")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="solve the metric for orbit parameters")
    _add_orbit_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

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
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CwError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
