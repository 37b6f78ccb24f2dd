"""Brute-force geodesic distance oracle on sampled sphere graphs.

Builds a directed k-nearest-neighbour graph over quasi-uniform sample
points of the model sphere.  Edge costs evaluate the invariant Minkowski
norm at the edge's source on the tangent-projected chord, which makes the
graph metric non-reversible exactly when the defining one-form is
non-zero.  Shortest paths then converge to the Finsler distance from
above as the sampling densifies (first-order tangent projection, O(h^2)
error per edge).

The transport to a sample point never materializes a group element: for
every family the m0 coordinates of a transported tangent vector reduce to
the imaginary part(s) of the Hermitian pairing of the base point with the
vector, which vectorizes over all edges.

Distance queries re-measure the raw graph path through a corridor of
nearby samples joined by great-circle arcs.  An arc's Finsler length has
a closed form: the m0 coordinates are the components of Killing fields
of the round metric, so they stay constant along a unit-speed great
circle, and so does the invariant norm of its velocity.  Each corridor
pair is costed once for both directions: the pairing's imaginary parts
change sign when its two points swap.  The corridor is a tube around the
raw path with a radius in Euclidean chord units, so which samples it
holds does not depend on the metric's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import InvalidInput, ResolutionTooCoarse
from .flows import FlowIsometry, apply_flow
from .matrixcore import quat_from_su2_matrix, su2_matrix_from_quat
from .randers import (SP_SPHERE, SU2, U_SPHERE, RandersSpec, randers_norm_array,
                      require_valid)

MIN_POINTS = 500
MIN_DEGREE = 8


@dataclass(frozen=True)
class SphereGraph:
    """Directed weighted graph over sampled sphere points."""

    spec: RandersSpec
    points: np.ndarray          # (N, d) real coordinates, unit rows
    matrix: csr_matrix
    k: int
    median_edge: float          # median edge cost
    tree: cKDTree               # KD-tree over `points`
    median_chord: float         # median Euclidean length of the edge chords

    @property
    def n_points(self):
        return self.points.shape[0]


def _real_dim(spec: RandersSpec):
    if spec.family == U_SPHERE:
        return 2 * (spec.n + 1)
    if spec.family == SP_SPHERE:
        return 4 * (spec.n + 1)
    return 4


def _sample_points(spec: RandersSpec, n_points, rng):
    # Gaussian normalization gives exactly the rotation-invariant measure,
    # which is the one induced by Haar on the transitive ambient group.
    z = rng.gen.standard_normal((n_points, _real_dim(spec)))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _tangent_parts(family, pts, vecs):
    """m0 coordinates (last axis) and squared m1 norms of the chord vectors
    `vecs` transported to the base point, for source points `pts` (both
    (E, d) real)."""
    if family == U_SPHERE:
        half = pts.shape[1] // 2
        pr, pi = pts[:, :half], pts[:, half:]
        vr, vi = vecs[:, :half], vecs[:, half:]
        # Im sum(conj(p) v) = sum(pr*vi - pi*vr)
        m0 = np.sum(pr * vi - pi * vr, axis=1)[:, None]
    elif family == SU2:
        p0, p1, p2, p3 = pts.T
        v0, v1, v2, v3 = vecs.T
        # i component of conj(p) * v
        m0 = (p0 * v1 - p1 * v0 - p2 * v3 + p3 * v2)[:, None]
    else:
        # sp_sphere: quaternionic pairing sum(conj(p_a) v_a); entries of
        # H^(n+1) are stored as [Re z1 | Im z1 | Re z2 | Im z2] quarters
        quarter = pts.shape[1] // 4
        p1 = pts[:, :quarter] + 1j * pts[:, quarter:2 * quarter]
        p2 = pts[:, 2 * quarter:3 * quarter] + 1j * pts[:, 3 * quarter:]
        v1 = vecs[:, :quarter] + 1j * vecs[:, quarter:2 * quarter]
        v2 = vecs[:, 2 * quarter:3 * quarter] + 1j * vecs[:, 3 * quarter:]
        first = np.sum(np.conj(p1) * v1 + p2 * np.conj(v2), axis=1)
        second = np.sum(np.conj(p1) * v2 - p2 * np.conj(v1), axis=1)
        m0 = np.stack([first.imag, second.real, second.imag], axis=1)
    usq = np.sum(vecs * vecs, axis=1)
    # one coordinate at a time: the surveyed graph seeds rely on these exact weights
    for coord in m0.T:
        usq = usq - coord ** 2
    return m0, np.maximum(usq, 0.0)


def _edge_costs(spec: RandersSpec, pts, vecs):
    """Invariant norm at each source point of each tangent vector."""
    return randers_norm_array(spec, *_tangent_parts(spec.family, pts, vecs))


def _tangent_chords(pts, targets):
    chords = targets - pts
    radial = np.sum(chords * pts, axis=1)
    return chords - radial[:, None] * pts


def build_graph(spec: RandersSpec, n_points, k, rng) -> SphereGraph:
    """Sample `n_points` points of the spec's sphere and connect each to its
    k nearest (Euclidean) neighbours by directed edges weighted with the
    invariant norm of the tangent-projected chord."""
    require_valid(spec)
    n_points, k = int(n_points), int(k)
    if n_points < MIN_POINTS:
        raise InvalidInput(f"need at least {MIN_POINTS} points")
    if not MIN_DEGREE <= k < n_points:
        raise InvalidInput(f"need {MIN_DEGREE} <= k < n_points")
    pts = _sample_points(spec, n_points, rng)
    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k + 1)
    idx = idx[:, 1:]                                    # drop self
    src = np.repeat(np.arange(n_points), k)
    dst = idx.ravel()
    vecs = _tangent_chords(pts[src], pts[dst])
    costs = _edge_costs(spec, pts[src], vecs)
    mat = csr_matrix((costs, (src, dst)), shape=(n_points, n_points))
    n_comp, _ = connected_components(mat, directed=True, connection="strong")
    if n_comp != 1:
        raise ResolutionTooCoarse(
            f"graph is not strongly connected ({n_comp} components); "
            "increase the point count or the degree")
    return SphereGraph(spec=spec, points=pts, matrix=mat, k=k,
                       median_edge=float(np.median(costs)), tree=tree,
                       median_chord=float(np.median(np.linalg.norm(vecs, axis=1))))


# --------------------------------------------------------------------------
# shortest-path queries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceReport:
    source: int
    target: int
    distance: float             # corridor-refined
    raw: float                  # raw graph distance
    hops: int                   # of the raw path


def _arc_costs(spec: RandersSpec, starts, ends):
    """Finsler lengths (forward, reverse) of the great-circle arcs from each
    start to each end and back ((E, d) unit rows).

    Along a unit-speed great circle the m0 coordinates of the velocity
    are constant (they are Killing-field components of the round metric),
    so the invariant norm is constant too and the length is the arc angle
    times the norm of the unit tangent at the start.  The pairing's
    imaginary parts change sign when start and end swap, so the reverse
    arc's unit tangent has m0 coordinates -m0 and the same m1 norm.  The
    arc is an upper-bound proxy for the local geodesic; since length is
    stationary at the true geodesic the overestimate is quartic in angle.
    """
    dot = np.clip(np.sum(starts * ends, axis=1), -1.0, 1.0)
    theta = np.arccos(dot)
    perp = ends - dot[:, None] * starts
    pn = np.linalg.norm(perp, axis=1)
    degenerate = pn <= 1e-14
    perp = perp / np.where(degenerate, 1.0, pn)[:, None]
    m0, usq = _tangent_parts(spec.family, starts, perp)
    return tuple(np.where(degenerate, 0.0, theta * randers_norm_array(spec, s * m0, usq))
                 for s in (1.0, -1.0))


def _walk_predecessors(pred, source, target):
    path = [target]
    at = target
    while at != source:
        at = pred[at]
        if at < 0:
            raise ResolutionTooCoarse("target unreachable at this resolution")
        path.append(at)
    return path[::-1]


CHUNK_ARC = 0.5
CORRIDOR_TUBE_FACTOR = 2.5
# The raw Dijkstra stops at this multiple of the great-circle cost to the
# target plus this many median edges; a miss reruns it unbounded.
RAW_LIMIT_FACTOR = 1.5
RAW_LIMIT_EDGES = 4.0


def _raw_limit(graph: SphereGraph, source, coords):
    """Search bound for the raw Dijkstra from `source` towards `coords`."""
    arc = _arc_costs(graph.spec, graph.points[[source]], coords[None])[0][0]
    return RAW_LIMIT_FACTOR * arc + RAW_LIMIT_EDGES * graph.median_edge


def _raw_search(graph: SphereGraph, source, coords, ends, leg_costs):
    """Single-source Dijkstra distances and predecessors for a target at
    `coords` that is reached from the vertices `ends` over legs costing
    `leg_costs`.

    The search stops at `_raw_limit`, below which its distances are exact.
    An end beyond the limit totals more than the limit, so it cannot beat a
    total within it: if the best total found is within the limit the answer
    is settled, otherwise the search reruns without the bound.
    """
    limit = _raw_limit(graph, source, coords)
    dist, pred = dijkstra(graph.matrix, directed=True, indices=source,
                          return_predecessors=True, limit=limit)
    if np.min(dist[ends] + leg_costs) > limit:
        dist, pred = dijkstra(graph.matrix, directed=True, indices=source,
                              return_predecessors=True)
    return dist, pred


def _corridor_refine(graph: SphereGraph, raw_path, target_coords=None):
    """Re-measure a raw graph path by shortest polyline through its corridor.

    Collects every sample point within a tube around the raw path, connects
    corridor points less than `CHUNK_ARC` apart by great-circle arcs both
    ways, costing each pair once, and reruns the shortest path.  Longer,
    accurately costed chunks cancel the zig-zag stretch of the raw k-NN
    walk.  Each hop of the raw path is an arc too, however long, so the
    corridor always joins its ends, also where the samples lie further
    apart than `CHUNK_ARC`.  The tube radius is `CORRIDOR_TUBE_FACTOR`
    median edge chords, a Euclidean length like the KD-tree's, so the
    corridor does not depend on the metric's scale.  `target_coords`, when
    given, joins the corridor as a virtual terminal vertex (off-sample
    targets), reached by an arc from the raw path's last vertex.
    """
    balls = graph.tree.query_ball_point(graph.points[raw_path],
                                        CORRIDOR_TUBE_FACTOR * graph.median_chord)
    corridor = np.unique(np.concatenate(balls))
    node_pts = graph.points[corridor]
    if target_coords is not None:
        node_pts = np.vstack([node_pts, target_coords])
    n = len(node_pts)
    path = np.searchsorted(corridor, raw_path)
    if target_coords is not None:
        path = np.append(path, n - 1)
    chord = 2.0 * math.sin(CHUNK_ARC / 2.0)
    pairs = cKDTree(node_pts).query_pairs(chord, output_type="ndarray")
    hops = np.minimum(path[:-1], path[1:]) * n + np.maximum(path[:-1], path[1:])
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], hops]))
    # pairs in (i, j) order (i < j), once each, reverse arcs first: csr_matrix
    # needs no sort
    i, j = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    forward, reverse = _arc_costs(graph.spec, node_pts[i], node_pts[j])
    sub = csr_matrix((np.concatenate([reverse, forward]),
                      (np.concatenate([j, i]), np.concatenate([i, j]))), shape=(n, n))
    return float(dijkstra(sub, directed=True, indices=path[0])[path[-1]])


def distance(graph: SphereGraph, source, target) -> DistanceReport:
    """Distance estimate from vertex `source` to vertex `target`.

    The raw shortest path is re-measured through its corridor, which
    removes most of the k-NN discretization stretch; the raw graph
    distance and the raw path's hop count are reported alongside.
    """
    source, target = int(source), int(target)
    dist, pred = _raw_search(graph, source, graph.points[target], [target], 0.0)
    if not np.isfinite(dist[target]):
        raise ResolutionTooCoarse("target unreachable at this resolution")
    raw_path = _walk_predecessors(pred, source, target)
    return DistanceReport(source=source, target=target,
                          distance=_corridor_refine(graph, raw_path),
                          raw=float(dist[target]), hops=len(raw_path) - 1)


def distance_to_coords(graph: SphereGraph, source, coords):
    """Distance estimate from vertex `source` to an arbitrary on-sphere
    point given by real coordinates (connected as a virtual vertex):
    (corridor-refined distance, raw graph distance, chord distance from
    the point to its nearest vertex)."""
    source = int(source)
    coords = np.asarray(coords, dtype=float)
    snap_d, cand = graph.tree.query(coords, k=graph.k)      # k >= MIN_DEGREE: arrays
    legs = _tangent_chords(graph.points[cand], coords[None, :])
    leg_costs = _edge_costs(graph.spec, graph.points[cand], legs)
    dist, pred = _raw_search(graph, source, coords, cand, leg_costs)
    totals = dist[cand] + leg_costs
    if not np.any(np.isfinite(totals)):
        raise ResolutionTooCoarse("target unreachable at this resolution")
    best = int(cand[np.argmin(totals)])
    raw_path = _walk_predecessors(pred, source, best)
    return (_corridor_refine(graph, raw_path, target_coords=coords),
            float(np.min(totals)), float(snap_d[0]))


# --------------------------------------------------------------------------
# displacement profiles
# --------------------------------------------------------------------------

def _point_coords(graph: SphereGraph, index):
    row = graph.points[index]
    if graph.spec.family == U_SPHERE:
        half = row.shape[0] // 2
        return row[:half] + 1j * row[half:]
    if graph.spec.family == SU2:
        return su2_matrix_from_quat(row)
    raise InvalidInput("flows are not defined for this graph family")


def _coords_to_real(graph: SphereGraph, value):
    if graph.spec.family == U_SPHERE:
        return np.concatenate([value.real, value.imag])
    return quat_from_su2_matrix(value)


DISPLACEMENT_REL_TOL = 0.07


@dataclass(frozen=True)
class DisplacementProfile:
    min: float
    max: float
    mean: float
    displacements: np.ndarray
    snap_max: float             # largest chord distance target-to-vertex
    rel_spread: float           # (max - min) / mean
    verdict: str                # "constant" | "non-constant"
    tolerance: float


def displacement_profile(graph: SphereGraph, flow: FlowIsometry,
                         sample_points, rng) -> DisplacementProfile:
    """Graph estimate of d(x, flow(x)) over randomly sampled vertices.

    The flowed point joins the graph as a virtual vertex near its nearest
    sampled neighbours, which folds the snap error into an ordinary
    discretization error; the raw snap distance is still reported as
    `snap_max`.  The constancy verdict compares the relative spread
    (max - min)/mean against `DISPLACEMENT_REL_TOL`, which is dominated by
    the discretization scale.  A spread needs 2 to `graph.n_points` points.
    """
    if flow.family != graph.spec.family:
        raise InvalidInput("flow family does not match the graph")
    count = int(sample_points)
    if not 2 <= count <= graph.n_points:
        raise InvalidInput(f"need 2 to {graph.n_points} sample points, not {count}")
    sources = rng.gen.choice(graph.n_points, size=count, replace=False)
    disp, snap = np.empty(count), np.empty(count)
    for row, src in enumerate(sources):
        moved = apply_flow(flow, _point_coords(graph, int(src)))
        disp[row], _, snap[row] = distance_to_coords(graph, int(src),
                                                     _coords_to_real(graph, moved))
    mean = float(disp.mean())
    rel = float(disp.max() - disp.min()) / mean if mean > 0 else math.inf
    return DisplacementProfile(
        min=float(disp.min()), max=float(disp.max()), mean=mean,
        displacements=disp, snap_max=float(snap.max()), rel_spread=rel,
        verdict="constant" if rel <= DISPLACEMENT_REL_TOL else "non-constant",
        tolerance=DISPLACEMENT_REL_TOL)
