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

The tube is pruned to the samples that can lie on a path shorter than
the raw path, with no change to any answer's bits.  Let lambda be the
least invariant norm of a round-unit tangent vector (`_min_unit_norm`,
in closed form).  An arc of round angle theta costs at least
lambda * theta, so a corridor path from s through u to t costs at least
lambda * (theta(s, u) + theta(u, t)), while the raw path's own hops, a
corridor path too, cost D.  A sample whose bound exceeds D * (1 + 1e-6)
+ lambda * 1e-6 is dropped; the margin is far above the rounding of the
costs and of arccos near 0 (about 1.5e-8 rad), so the optimal path and
its float sum survive (proof in `_corridor_refine`).

Every sum over coordinates that feeds a weight or a cost runs on whole
coordinate columns through `_row_sum`, which adds them in exactly the
order numpy's row reduction (`np.sum(rows, axis=1)`) does.  The graph
weights, and with them the surveyed graph seeds of the benchmark and the
golden reports, depend on those bits; `np.einsum` or a different
association order would move them by an ulp here and there, and a
shortest path with them.
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
from .randers import U_SPHERE, RandersSpec, randers_norm_array, require_valid

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
    median_chord: float         # median Euclidean length of the tangent-projected
                                # chords (equals median_edge on the round metric)

    @property
    def n_points(self):
        return self.points.shape[0]


def _real_dim(spec: RandersSpec):
    return (2 if spec.family == U_SPHERE else 4) * (spec.n + 1)


def _sample_points(spec: RandersSpec, n_points, rng):
    # Gaussian normalization gives exactly the rotation-invariant measure,
    # which is the one induced by Haar on the transitive ambient group.
    z = rng.gen.standard_normal((n_points, _real_dim(spec)))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _row_sum(cols):
    """Sum of the coordinate columns `cols` (a sequence of equal-length 1-D
    arrays, e.g. the rows of a (d, E) array), added in the order numpy's
    `add.reduce` uses along a contiguous row of d terms: from +0.0, fewer
    than 8 terms left to right, 8 to 128 terms in eight strided
    accumulators combined as ((0+1)+(2+3))+((4+5)+(6+7)) followed by the
    leftover terms, longer rows split in two at a multiple of 8.  So it is
    bit-identical to `np.sum(rows, axis=1)` on C-ordered rows, at the cost
    of a few whole-column operations instead of one short reduction per
    row."""
    total = _pairwise_sum(cols)
    total += 0.0                # numpy starts from +0.0: -0.0 terms sum to +0.0
    return total


def _pairwise_sum(cols):
    n = len(cols)
    if n < 8:
        total = cols[0] + cols[1] if n > 1 else np.copy(cols[0])
        for col in cols[2:]:
            total += col
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(cols[:half]) + _pairwise_sum(cols[half:])
    stop = n - n % 8
    acc = list(cols[:8])
    for start in range(8, stop, 8):
        acc = [a + col for a, col in zip(acc, cols[start:start + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for col in cols[stop:]:
        total += col
    return total


def _tangent_parts(family, pts, vecs):
    """m0 coordinates (last axis) and squared m1 norms of the chord vectors
    transported to the base point.  `pts` and `vecs` hold the source points
    and the chord vectors as (d, E) stacks of coordinate columns."""
    if family == U_SPHERE:
        half = len(pts) // 2
        pr, pi = pts[:half], pts[half:]
        vr, vi = vecs[:half], vecs[half:]
        # Im sum(conj(p) v) = sum(pr*vi - pi*vr)
        m0 = _row_sum(pr * vi - pi * vr)[:, None]
    else:
        # sp_sphere: quaternionic pairing sum(conj(p_a) v_a); entries of
        # H^(n+1) are stored as [Re z1 | Im z1 | Re z2 | Im z2] quarters.
        # The complex sums run over C-ordered (E, n+1) rows, as they always have
        quarter = len(pts) // 4
        rows_p = np.ascontiguousarray(np.transpose(pts))
        rows_v = np.ascontiguousarray(np.transpose(vecs))
        p1 = rows_p[:, :quarter] + 1j * rows_p[:, quarter:2 * quarter]
        p2 = rows_p[:, 2 * quarter:3 * quarter] + 1j * rows_p[:, 3 * quarter:]
        v1 = rows_v[:, :quarter] + 1j * rows_v[:, quarter:2 * quarter]
        v2 = rows_v[:, 2 * quarter:3 * quarter] + 1j * rows_v[:, 3 * quarter:]
        first = np.sum(np.conj(p1) * v1 + p2 * np.conj(v2), axis=1)
        second = np.sum(np.conj(p1) * v2 - p2 * np.conj(v1), axis=1)
        m0 = np.stack([first.imag, second.real, second.imag], axis=1)
    usq = _row_sum(vecs * vecs)
    # one coordinate at a time: the surveyed graph seeds rely on these exact weights
    for coord in m0.T:
        usq = usq - coord ** 2
    return m0, np.maximum(usq, 0.0)


def _edge_costs(spec: RandersSpec, pts, vecs):
    """Invariant norm at each source point of each tangent vector ((E, d)
    rows in any memory order)."""
    return randers_norm_array(spec, *_tangent_parts(spec.family, pts.T, vecs.T))


def _tangent_chords(pts, targets):
    """Chords from `pts` to `targets` ((E, d) rows, or one target row)
    projected onto the tangent spaces at `pts`; (E, d) rows whose memory
    is column-major."""
    pts = pts.T
    chords = targets.T - pts
    chords -= _row_sum(chords * pts) * pts
    return chords.T


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
    # coordinate columns of the edges' ends, gathered once in place of rows
    cols = np.ascontiguousarray(pts.T)
    src_pts = np.take(cols, src, axis=1).T
    vecs = _tangent_chords(src_pts, np.take(cols, dst, axis=1).T)
    costs = _edge_costs(spec, src_pts, vecs)
    mat = csr_matrix((costs, (src, dst)), shape=(n_points, n_points))
    n_comp, _ = connected_components(mat, directed=True, connection="strong")
    if n_comp != 1:
        raise ResolutionTooCoarse(
            f"graph is not strongly connected ({n_comp} components); "
            "increase the point count or the degree")
    return SphereGraph(spec=spec, points=pts, matrix=mat, k=k,
                       median_edge=float(np.median(costs)), tree=tree,
                       median_chord=float(np.median(np.sqrt(_row_sum(vecs.T * vecs.T)))))


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
    start to each end and back ((E, d) unit rows in any memory order;
    column-major rows keep every column operation contiguous).

    Along a unit-speed great circle the m0 coordinates of the velocity
    are constant (they are Killing-field components of the round metric),
    so the invariant norm is constant too and the length is the arc angle
    times the norm of the unit tangent at the start.  The pairing's
    imaginary parts change sign when start and end swap, so the reverse
    arc's unit tangent has m0 coordinates -m0 and the same m1 norm.  The
    arc is an upper-bound proxy for the local geodesic; since length is
    stationary at the true geodesic the overestimate is quartic in angle.
    """
    starts, ends = starts.T, ends.T
    dot = np.clip(_row_sum(starts * ends), -1.0, 1.0)
    theta = np.arccos(dot)
    perp = ends - dot * starts
    pn = np.sqrt(_row_sum(perp * perp))
    degenerate = pn <= 1e-14
    perp /= np.where(degenerate, 1.0, pn)
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


def _min_unit_norm(spec: RandersSpec):
    """lambda(spec): the least invariant norm of a round-unit tangent vector.

    On u_sphere a unit tangent has m0 coordinate q in [-1, 1] and |u|^2 =
    1 - q^2, so F = h(q) = sqrt(b + (a - b) q^2) + c q.  h is convex for
    a > b and concave otherwise, so its minimum is at q = -1, q = 1 or at
    the one stationary point in (-1, 1), where (a - b) q / sqrt(...) = -c
    gives q^2 = b c^2 / ((a - b)(a - b - c^2)) and h = sqrt(b (1 - c^2 /
    (a - b))).  On sp_sphere F is at least the u_sphere norm with a1 in
    place of a and min(a2, b) in place of b (set l2 = l3 = 0 and |u| = 0
    in turn), with equality there, so the same formula applies.
    """
    if spec.family == U_SPHERE:
        a, b = spec.a, spec.b
    else:
        a, b = spec.a1, min(spec.a2, spec.b)
    c, d = spec.c, a - b
    least = math.sqrt(a) - abs(c)                   # h(-sign(c))
    if d > c * c and b * c * c <= d * (d - c * c):  # stationary point in [-1, 1]
        least = min(least, math.sqrt(b * (1.0 - c * c / d)))
    return least


# A corridor sample u is pruned when lambda * (theta(s, u) + theta(u, t))
# exceeds D * (1 + PRUNE_MARGIN) + lambda * PRUNE_MARGIN, D the raw path's
# arc length: a relative margin and one in radians (see `_corridor_refine`)
PRUNE_MARGIN = 1e-6


def _corridor_refine(graph: SphereGraph, raw_path, target_coords=None):
    """Re-measure a raw graph path by shortest polyline through its corridor.

    Collects every sample point within a tube around the raw path, connects
    corridor points less than `CHUNK_ARC` apart by great-circle arcs both
    ways, costing each pair once, and reruns the shortest path.  Longer,
    accurately costed chunks cancel the zig-zag stretch of the raw k-NN
    walk.  Each hop of the raw path is an arc too, however long, so the
    corridor always joins its ends, also where the samples lie further
    apart than `CHUNK_ARC`.  The tube radius is `CORRIDOR_TUBE_FACTOR`
    times the median length of the tangent-projected edge chords, a
    Euclidean length like the KD-tree's, so the corridor does not depend
    on the metric's scale.  `target_coords`, when given, joins the
    corridor as a virtual terminal vertex (off-sample targets), reached by
    an arc from the raw path's last vertex.

    Before any arc is built, the tube drops every sample that lies on no
    corridor path shorter than the raw path itself; the answer keeps its
    bits.  Proof: an arc of round angle theta costs theta * F(unit
    tangent) >= lambda * theta (`_min_unit_norm`), so by the triangle
    inequality of the round angle every corridor path from s through u
    to t costs at least lambda * (theta(s, u) + theta(u, t)).  The raw
    path's hops form a corridor path of length D, so the optimum is at
    most D.  Dijkstra's answer is the least left-to-right float sum over
    paths (float addition is monotone), and a sample u with
        lambda * (theta(s, u) + theta(u, t)) > D * (1 + 1e-6) + lambda * 1e-6
    lies on no path of float length up to D: the rounding of the arc
    costs, of lambda and of sums over fewer than 10^3 arcs is below 1e-12
    relative, and arccos near 0 is off by at most about 1.5e-8 rad per
    angle, 1/60 of the angle margin even with both end angles and a
    near-coincident pair or two on the path.  (The degenerate arcs that
    cost 0 join points less than 1e-14 apart: a corridor arc is shorter
    than `CHUNK_ARC` or a hop of the raw path between k-NN neighbours,
    never near antipodal.)  The optimal path therefore survives whole,
    and so do its float sum and the answer's bits.  The raw path's own
    vertices are always kept.
    """
    balls = graph.tree.query_ball_point(graph.points[raw_path],
                                        CORRIDOR_TUBE_FACTOR * graph.median_chord)
    corridor = np.unique(np.concatenate(balls))
    ends = graph.points[raw_path]
    if target_coords is not None:
        ends = np.vstack([ends, target_coords])
    hop_costs = _arc_costs(graph.spec, ends[:-1], ends[1:])[0]
    bound = sum(hop_costs.tolist())                 # in path order
    lam = _min_unit_norm(graph.spec)
    # the pruning test needs no fixed bits: its margins absorb any rounding
    angles = np.arccos(np.clip(graph.points[corridor] @ ends[[0, -1]].T, -1.0, 1.0))
    keep = (lam * (angles[:, 0] + angles[:, 1])
            <= bound * (1.0 + PRUNE_MARGIN) + lam * PRUNE_MARGIN)
    keep[np.searchsorted(corridor, raw_path)] = True
    corridor = corridor[keep]
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
    node_cols = np.ascontiguousarray(node_pts.T)
    forward, reverse = _arc_costs(graph.spec, np.take(node_cols, i, axis=1).T,
                                  np.take(node_cols, j, axis=1).T)
    sub = csr_matrix((np.concatenate([reverse, forward]),
                      (np.concatenate([j, i]), np.concatenate([i, j]))), shape=(n, n))
    return float(dijkstra(sub, directed=True, indices=path[0])[path[-1]])


def _vertex(graph: SphereGraph, index):
    """`index` as a vertex number; InvalidInput unless an integer in [0, N)."""
    if (isinstance(index, bool) or not isinstance(index, (int, np.integer))
            or not 0 <= index < graph.n_points):
        raise InvalidInput(f"vertex index must be an integer in [0, {graph.n_points}), "
                           f"got {index!r}")
    return int(index)


UNIT_NORM_TOL = 1e-9


def _sphere_point(graph: SphereGraph, coords):
    """`coords` as a float point of the graph's sphere; InvalidInput unless
    it has the sphere's real dimension, finite entries and a norm within
    `UNIT_NORM_TOL` of 1."""
    try:
        point = np.asarray(coords)
    except ValueError as exc:           # ragged nesting
        raise InvalidInput(f"coordinates must be a flat array: {exc}") from exc
    if point.dtype.kind not in "iuf":
        raise InvalidInput(f"coordinates must be real numbers, got dtype {point.dtype}")
    point = point.astype(float, copy=False)
    dim = graph.points.shape[1]
    if point.shape != (dim,):
        raise InvalidInput(f"coordinates must have shape ({dim},), got {point.shape}")
    if not np.all(np.isfinite(point)):
        raise InvalidInput("coordinates must be finite")
    norm = float(np.linalg.norm(point))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise InvalidInput(f"coordinates must lie on the unit sphere, norm is {norm!r}")
    return point


def distance(graph: SphereGraph, source, target) -> DistanceReport:
    """Distance estimate from vertex `source` to vertex `target`.

    The raw shortest path is re-measured through its corridor, which
    removes most of the k-NN discretization stretch; the raw graph
    distance and the raw path's hop count are reported alongside.
    """
    source, target = _vertex(graph, source), _vertex(graph, target)
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
    source = _vertex(graph, source)
    coords = _sphere_point(graph, coords)
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
    if flow.family != U_SPHERE or graph.spec.family != U_SPHERE:
        raise InvalidInput("displacement profiles take a u_sphere flow on a u_sphere graph")
    count = int(sample_points)
    if not 2 <= count <= graph.n_points:
        raise InvalidInput(f"need 2 to {graph.n_points} sample points, not {count}")
    sources = rng.gen.choice(graph.n_points, size=count, replace=False)
    disp, snap = np.empty(count), np.empty(count)
    half = graph.points.shape[1] // 2       # (Re z | Im z) halves of a point
    for row, src in enumerate(sources):
        point = graph.points[src]
        moved = apply_flow(flow, point[:half] + 1j * point[half:])
        target = np.concatenate([moved.real, moved.imag])
        disp[row], _, snap[row] = distance_to_coords(graph, int(src), target)
    mean = float(disp.mean())
    rel = float(disp.max() - disp.min()) / mean if mean > 0 else math.inf
    return DisplacementProfile(
        min=float(disp.min()), max=float(disp.max()), mean=mean,
        displacements=disp, snap_max=float(snap.max()), rel_spread=rel,
        verdict="constant" if rel <= DISPLACEMENT_REL_TOL else "non-constant",
        tolerance=DISPLACEMENT_REL_TOL)
