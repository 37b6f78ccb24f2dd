"""The nine `verify` checks: each draws from the random streams it is
given, applies its fixed thresholds and returns a `CheckReport`.  The CLI
derives the streams from --seed and formats the report; the acceptance
suite calls the same functions with its own streams.

Only `displacement` and `oracle` build a graph; they import `geodesy`, and
with it scipy, when called, so the other seven checks never load scipy."""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cosets import sp_algebra
from .errors import InvalidInput
from .flows import (T_GRID, block_angle_unitary, commutator_eig1_persistence,
                    endpoint_focus_check, geodesic_nonintersection_probe,
                    phase_bound_check, u_flow)
from .killing import orbit_generator, orbit_length_report, sp_witness_pair
from .matrixcore import QuaternionMatrix, StreamBlock, haar_unitary, trial_blocks
from .randers import SP_SPHERE, U_SPHERE, round_spec

log = logging.getLogger("cwspheres")

ENDPOINT_SPREAD_TOL = 1e-10
ENDPOINT_IDENTITY_TOL = 1e-12
WITNESS_GAP_TOL = 1e-12
ANTIPODE_REL_TOL = 0.05
SYMMETRY_REL_TOL = 0.01
# the oracle checks symmetry on this many pairs of distinct vertices, both
# ways, and the Hopf rotation's displacement at this many vertices
ORACLE_PAIRS = 10
ORACLE_HOPF_POINTS = 50
# sp-central builds its three candidates as dense (n+1) x (n+1) quaternion
# matrices, so the config n, unbounded in a JSON spec, is capped before
# anything is sized; a larger one is a usage error.  The cap stays at the
# documented 15 (S^63), where a 1000-trial run takes about 30 ms on a
# 2-core box.
SP_CENTRAL_MAX_N = 15
# eigenlemma, commutator, nonintersection, orbit and displacement build
# complex square matrices of eigenlemma's n or of l + m rows; a larger size
# is a usage error, refused before anything is sized
MATRIX_MAX_SIZE = 256
# endpoints' spread is quadratic in its sample count (20000 samples take
# seconds); a larger count is a usage error, refused before anything is sized
ENDPOINT_MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class CheckReport:
    """Column names, row cells (str, int, float, bool, or a summary row's
    (name, value) pairs) and the run's verdict."""

    header: tuple
    rows: tuple
    ok: bool


_TRIAL_HEADER = ("trial_id", "inputs_hash", "verdict", "worst_residual")
_LENGTH_HEADER = ("candidate_id", "min", "max", "mean", "stddev", "verdict")


def _digest(row):
    """Hash of a trial's inputs: sha1 over the bytes of `row`, a C-contiguous
    row of a stack, read in place."""
    return hashlib.sha1(row).hexdigest()[:12]


def _threshold_report(checks):
    """Report of (name, value, threshold) triples, threshold as written."""
    rows = tuple((name, value, str(bound), bool(value <= bound))
                 for name, value, bound in checks)
    return CheckReport(("check", "value", "threshold", "verdict"), rows,
                       all(row[3] for row in rows))


def _length_row(name, rep):
    return (name, rep.min, rep.max, rep.mean, rep.stddev, rep.verdict)


def _require_sp(spec, check):
    if spec.family != SP_SPHERE:
        raise InvalidInput(f"{check} needs an {SP_SPHERE} config, not {spec.family}")


def _require_generator_config(spec, params, check):
    """Refuse a config other than the u_sphere of the generator's n."""
    if (spec.family, spec.n) != (U_SPHERE, params.n):
        raise InvalidInput(f"{check} needs a {U_SPHERE} config with n = {params.n}, "
                           f"not {spec.family} with n = {spec.n}")


def _require_matrix_size(size, check):
    if size > MATRIX_MAX_SIZE:
        raise InvalidInput(f"{check} needs matrices of at most {MATRIX_MAX_SIZE} rows, "
                           f"not {size}")


def orbit(spec, params, trials, rng) -> CheckReport:
    """Orbit-length spread of the two-eigenvalue generator of `params`."""
    _require_matrix_size(params.l + params.m, "orbit")
    _require_generator_config(spec, params, "orbit")
    rep = orbit_length_report(spec, orbit_generator(params), L=params.L,
                              trials=trials, rng=rng)
    return CheckReport(_LENGTH_HEADER, (_length_row("orbit", rep),),
                       rep.verdict == "constant")


def eigenlemma(n, trials, rng) -> CheckReport:
    """Phase-interval bound for Haar pairs in U(n), trial k's P and Q from
    `rng.split(k).split(0)` and `.split(1)`, a block of trials per stacked
    draw; a trial's hash is over P's bytes, then Q's.  A trial with an
    eigenvalue on the branch cut is `undefined`; the run passes when one
    trial was defined and every defined trial passes.  A passing trial's lifts lie in their
    intervals, so its residual is 0."""
    if trials < 1:
        raise InvalidInput("need at least one trial")
    _require_matrix_size(n, "eigenlemma")
    rows = []
    for ks, block in trial_blocks(rng, trials, n * n):
        log.info("eigenlemma trial %d/%d", ks.start, trials)
        p = haar_unitary(n, block.split(0))
        q = haar_unitary(n, block.split(1))
        res = phase_bound_check(p, q)
        pq = np.stack([p, q], axis=1)
        for k, pqk, defined, ok in zip(ks, pq, res.defined, res.verdict):
            verdict = bool(ok) if defined else "undefined"
            rows.append((k, _digest(pqk), verdict,
                         0.0 if verdict is True else math.nan))
    defined = [row[2] for row in rows if row[2] != "undefined"]
    return CheckReport(_TRIAL_HEADER, tuple(rows), bool(defined) and all(defined))


def commutator(l, m, trials, rng) -> CheckReport:
    """Eigenvalue-1 persistence of twisted commutators in U(l+m), trial k
    from `rng.split(k)` (its angles) and `rng.split(k).split(1)` (its
    unitary), a block of trials per stacked draw: invertible off-diagonal
    blocks on odd k when l = m, singular ones otherwise."""
    r = min(l, m)
    if r < 1 or trials < 1:
        raise InvalidInput("need l, m and trials of at least 1")
    _require_matrix_size(l + m, "commutator")
    rows = []
    for ks, block in trial_blocks(rng, trials, T_GRID.size * (l + m) ** 2):
        invertible = [(k % 2 == 1) and l == m for k in ks]
        angles = np.array([gen.uniform(0.15, math.pi / 2 - 0.15, size=r)
                           for gen in block.generators()])
        for k, row, inv in zip(ks, angles, invertible):
            if not inv:
                row[k % r] = 0.0
        u = block_angle_unitary(l, m, angles, block.split(1))
        res = commutator_eig1_persistence(u, l, m)
        for j, k in enumerate(ks):
            if invertible[j]:
                verdict = not res.has_eig1[j].any()
                residual = float(res.spectral_dists[j].min())
            else:
                verdict = bool(res.has_eig1[j].all() and res.shared_eigenvector[j])
                residual = float(res.worst_residual[j])
            rows.append((k, _digest(u[j]), verdict, residual))
    return CheckReport(_TRIAL_HEADER, tuple(rows), all(row[2] for row in rows))


def endpoints(vnorm, samples, rng) -> CheckReport:
    """Spread of the time-pi flow endpoints on S^3 in C^2 (`rng.split(0)`),
    and their distance from -exp(-i pi vnorm) z at their start points z.
    More than ENDPOINT_MAX_SAMPLES samples is refused before anything is
    sized."""
    if int(samples) > ENDPOINT_MAX_SAMPLES:
        raise InvalidInput(f"endpoints needs at most {ENDPOINT_MAX_SAMPLES} samples, "
                           f"not {int(samples)}")
    spread, identity = endpoint_focus_check(vnorm, samples=samples, rng=rng.split(0))
    return _threshold_report([("endpoint_spread", spread, ENDPOINT_SPREAD_TOL),
                              ("endpoint_identity", identity, ENDPOINT_IDENTITY_TOL)])


def nonintersection(x, l, m, trials, rng) -> CheckReport:
    """Geodesic non-intersection probe for X = i(x I + diag(-I_l, I_m))."""
    _require_matrix_size(l + m, "nonintersection")
    res = geodesic_nonintersection_probe(x, l, m, trials, rng)
    return CheckReport(
        ("check", "min_spectral_distance", "trials", "verdict"),
        (("nonintersection", res.min_spectral_distance, trials, res.verdict),),
        res.verdict)


def _sp_candidates(n):
    """The central generator, then a scaled identity and a corner matrix."""
    dim = n + 1
    central = sp_algebra(QuaternionMatrix.zeros(dim), scalar=0.7)
    scaled_id = sp_algebra(QuaternionMatrix(0.8j * np.eye(dim, dtype=complex),
                                            np.zeros((dim, dim), complex)),
                           scalar=0.5)
    corner = np.zeros((dim, dim), complex)
    corner[0, 0] = 1j
    pure_matrix = sp_algebra(QuaternionMatrix(corner, np.zeros_like(corner)))
    return [central, scaled_id, pure_matrix]


def sp_central(spec, trials, rng) -> CheckReport:
    """Orbit lengths of the candidates (k from `rng.split(k)`): with a2 != b
    only the central one sweeps a level set of the metric."""
    _require_sp(spec, "sp-central")
    if spec.n > SP_CENTRAL_MAX_N:
        raise InvalidInput(f"sp-central needs a config n of at most {SP_CENTRAL_MAX_N}, "
                           f"not {spec.n}")
    rows, ok = [], True
    for k, e in enumerate(_sp_candidates(spec.n)):
        rep = orbit_length_report(spec, e, rng.split(k), trials=trials)
        rows.append(_length_row(f"cand{k}", rep))
        ok = ok and (rep.verdict == "constant") == (k == 0)
    return CheckReport(_LENGTH_HEADER, tuple(rows), ok)


def sp_witness(spec, rng) -> CheckReport:
    """Witness gaps of random diagonal generators for n = 1..3 (`rng.split(n)`)."""
    _require_sp(spec, "sp-witness")
    rows = []
    for n, gen in enumerate(StreamBlock(rng, range(1, 4)).generators(), start=1):
        dim = n + 1
        entries = gen.standard_normal((dim, 3))
        entries[np.abs(entries) < 0.2] = 0.0
        if not np.any(np.linalg.norm(entries, axis=1) > 0):
            entries[0, 0] = 1.0
        x = QuaternionMatrix(np.diag(1j * entries[:, 0]).astype(complex),
                             np.diag(entries[:, 1] + 1j * entries[:, 2]).astype(complex))
        _, _, f1, f2, expected = sp_witness_pair(x, replace(spec, n=n))
        gap = abs(f1 - f2)
        residual = abs(gap - expected)
        rows.append((f"n{n}", gap, expected, residual,
                     bool(residual <= WITNESS_GAP_TOL)))
    return CheckReport(("case", "gap", "expected", "residual", "verdict"),
                       tuple(rows), all(row[4] for row in rows))


def _log_queries(check, count, start):
    log.info("%s: %d distance queries in %.2f s", check, count,
             time.perf_counter() - start)


def displacement(spec, params, t, points, n_points, k, graph_rng,
                 profile_rng) -> CheckReport:
    """Graph estimate of d(x, flow_t(x)) at `points` vertices; inputs are
    checked before the graph is built.  The identity flow (t = 0) moves no
    point and has nothing to check."""
    _require_matrix_size(params.l + params.m, "displacement")
    if t == 0:
        raise InvalidInput("displacement needs a non-zero flow time, not t = 0")
    flow = u_flow(orbit_generator(params).x, t)
    _require_generator_config(spec, params, "displacement")
    if not 2 <= points <= n_points:
        raise InvalidInput(f"displacement needs 2 to {n_points} points, not {points}")
    from . import geodesy

    log.info("building %d-point graph", n_points)
    graph = geodesy.build_graph(spec, n_points, k, graph_rng)
    start = time.perf_counter()
    # One query per point: the traced benchmark's per-query metrics
    # (geodesy.query_calls, query_p50_ms, corridor_arcs_per_query,
    # flows.apply_flow_calls) count calls, and on this check they keep
    # counting queries, so the L = 2 per-query cost stays comparable.
    prof = geodesy.displacement_profile(graph, flow, points, profile_rng, batch=1)
    _log_queries("displacement", points, start)
    rows = list(enumerate(prof.displacements))
    rows.append(("summary", ("min", prof.min), ("max", prof.max), ("mean", prof.mean),
                 ("rel_spread", prof.rel_spread), ("snap", prof.snap_max),
                 ("verdict", prof.verdict)))
    return CheckReport(("point", "displacement"), tuple(rows),
                       prof.verdict == "constant")


def oracle(n_points, k, graph_rng, pair_rng, profile_rng) -> CheckReport:
    """Distance oracle on the round S^3: antipode against pi, symmetry of
    ten pairs of distinct vertices and the spread of a Hopf rotation's
    displacement."""
    from . import geodesy

    log.info("building %d-point graph", n_points)
    graph = geodesy.build_graph(round_spec(), n_points, k, graph_rng)
    start = time.perf_counter()
    anti = float(geodesy.distances_to_coords(graph, [0], -graph.points[[0]]).distance[0])
    anti_err = abs(anti - math.pi) / math.pi
    gen = pair_rng.gen
    pairs = []
    for _ in range(ORACLE_PAIRS):
        i = j = 0
        while i == j:       # a self-pair has no symmetry to check: redraw
            i, j = (int(v) for v in gen.integers(0, graph.n_points, 2))
        pairs.append((i, j))
    # every pair one way, then every pair the other way, in one batch
    firsts, seconds = [i for i, _ in pairs], [j for _, j in pairs]
    both = geodesy.distances(graph, firsts + seconds, seconds + firsts).distance.tolist()
    sym_dev = 0.0
    for dij, dji in zip(both[:ORACLE_PAIRS], both[ORACLE_PAIRS:]):
        sym_dev = max(sym_dev, abs(dij - dji) / max(dij, dji))
    prof = geodesy.displacement_profile(
        graph, u_flow(1j * np.eye(2), 0.5), ORACLE_HOPF_POINTS, profile_rng)
    _log_queries("oracle", 1 + 2 * ORACLE_PAIRS + ORACLE_HOPF_POINTS, start)
    return _threshold_report([
        ("antipodal_rel_error", anti_err, ANTIPODE_REL_TOL),
        ("symmetry_rel_dev", sym_dev, SYMMETRY_REL_TOL),
        ("hopf_rel_spread", prof.rel_spread, geodesy.DISPLACEMENT_REL_TOL)])
