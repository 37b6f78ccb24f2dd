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
its float sum survive (proof in `_corridor`).

Queries come in batches: `distances` and `distances_to_coords` take many
queries at once (`verify oracle` sends three batches, `verify
displacement` one per point).  One arc-cost call prices every query's
search bound, and one KD-tree query with one edge-cost call snaps and
prices every off-sample target.  Each query keeps its own bounded raw
Dijkstra, since each has its own bound.  The corridors are then refined a
group at a time: a group holds corridors of at most `GROUP_PAIRS` = 2^15
point pairs n(n - 1)/2 in all, and becomes one block-diagonal matrix
priced by one arc-cost call and answered by one multi-source Dijkstra.
The budget bounds the memory of a group, whatever the batch size.  No
answer moves by a bit.  Every cost kernel works element by element,
so a cost does not depend on which batch it is computed in.  The blocks
are disconnected, so the distance of each corridor's end from the
nearest start is its distance from its own start, and that is the
least float sum over the same paths as in a matrix of its own.

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
    """Answers of a batch of distance queries, one entry per query."""

    distance: np.ndarray        # corridor-refined
    raw: np.ndarray             # raw graph distance
    hops: np.ndarray            # graph edges of the raw path
    snap: np.ndarray            # chord distance from the target to its nearest
                                # vertex (0 for a vertex target)


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
# target plus this many median edges; a miss reruns it unbounded.  Over
# 1584 queries of `verify oracle` and `verify displacement` (L = 1 and 2)
# on 12 graphs, no raw distance exceeded 1.25 arc costs plus 1.8 edges.
RAW_LIMIT_FACTOR = 1.25
RAW_LIMIT_EDGES = 3.0
# Corridors are refined in groups whose corridors hold at most this many
# point pairs n(n - 1)/2 in all; a larger corridor makes a group of its own.
GROUP_PAIRS = 2 ** 15


def _raw_limits(graph: SphereGraph, sources, coords):
    """Search bound of the raw Dijkstra from each source towards its target
    point `coords` row.  An antipodal pair has no unique great circle and
    `_arc_costs` prices it 0, so its search runs unbounded."""
    starts = graph.points[sources]
    arcs = _arc_costs(graph.spec, starts, coords)[0]
    limits = RAW_LIMIT_FACTOR * arcs + RAW_LIMIT_EDGES * graph.median_edge
    limits[(arcs == 0.0) & (np.sum(starts * coords, axis=1) < 0.0)] = math.inf
    return limits


def _raw_paths(graph: SphereGraph, sources, coords, cand, leg_costs):
    """Raw graph distance of each query and its raw path, one Dijkstra per
    query.  Target q lies at `coords[q]` and is reached from the vertices
    `cand[q]` over legs costing `leg_costs[q]`; the path ends at the vertex
    the best total comes from.

    A search stops at its `_raw_limits` bound, below which its distances
    are exact.  A vertex beyond the bound totals more than the bound, so it
    cannot beat a total within it: if the best total found is within the
    bound the answer is settled, otherwise the search reruns unbounded.
    """
    raw, paths = np.empty(len(sources)), []
    for q, (source, limit) in enumerate(zip(sources, _raw_limits(graph, sources, coords))):
        dist, pred = dijkstra(graph.matrix, directed=True, indices=source,
                              return_predecessors=True, limit=limit)
        totals = dist[cand[q]] + leg_costs[q]
        if np.min(totals) > limit:
            dist, pred = dijkstra(graph.matrix, directed=True, indices=source,
                                  return_predecessors=True)
            totals = dist[cand[q]] + leg_costs[q]
        if not np.any(np.isfinite(totals)):
            raise ResolutionTooCoarse("target unreachable at this resolution")
        best = np.argmin(totals)
        raw[q] = totals[best]
        paths.append(_walk_predecessors(pred, source, cand[q][best]))
    return raw, paths


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
# arc length: a relative margin and one in radians (see `_corridor`)
PRUNE_MARGIN = 1e-6


@dataclass(frozen=True)
class _Corridor:
    points: np.ndarray          # (n, d) corridor points, an off-sample target last
    i: np.ndarray               # arcs between points i < j, once per pair,
    j: np.ndarray               # sorted by (i, j)
    start: int                  # the points where the shortest path starts
    stop: int                   # and ends


def _corridor(graph: SphereGraph, raw_path, ends, bound, off_sample):
    """The corridor of one raw path: sample points near it, joined by
    great-circle arcs less than `CHUNK_ARC` long.

    `ends` holds the raw path's points, then an off-sample target when
    `off_sample` is set; that target joins the corridor as a terminal point
    reached by an arc from the path's last vertex.  Longer, accurately
    costed chunks cancel the zig-zag stretch of the raw k-NN walk.  Each
    hop of the raw path is an arc too, however long, so the corridor always
    joins its ends, also where the samples lie further apart than
    `CHUNK_ARC`.  The tube radius is `CORRIDOR_TUBE_FACTOR` times the median
    length of the tangent-projected edge chords, a Euclidean length like the
    KD-tree's, so the corridor does not depend on the metric's scale.

    The tube drops every sample that lies on no corridor path shorter than
    the raw path, whose hops cost `bound` in all; the answer keeps its bits.
    Proof: an arc of round angle theta costs theta * F(unit tangent) >=
    lambda * theta (`_min_unit_norm`), so by the triangle inequality of the
    round angle every corridor path from s through u to t costs at least
    lambda * (theta(s, u) + theta(u, t)).  The raw path's hops form a
    corridor path of length D, so the optimum is at most D.  Dijkstra's
    answer is the least left-to-right float sum over paths (float addition
    is monotone), and a sample u with
        lambda * (theta(s, u) + theta(u, t)) > D * (1 + 1e-6) + lambda * 1e-6
    lies on no path of float length up to D: the rounding of the arc costs,
    of lambda and of sums over fewer than 10^3 arcs is below 1e-12
    relative, and arccos near 0 is off by at most about 1.5e-8 rad per
    angle, 1/60 of the angle margin even with both end angles and a
    near-coincident pair or two on the path.  (The degenerate arcs that
    cost 0 join points less than 1e-14 apart: a corridor arc is shorter
    than `CHUNK_ARC` or a hop of the raw path between k-NN neighbours,
    never near antipodal.)  The optimal path therefore survives whole, and
    so do its float sum and the answer's bits.  The raw path's own vertices
    are always kept.
    """
    balls = graph.tree.query_ball_point(graph.points[raw_path],
                                        CORRIDOR_TUBE_FACTOR * graph.median_chord,
                                        return_sorted=False)
    corridor = np.sort(np.fromiter(set().union(*balls), dtype=np.intp))
    lam = _min_unit_norm(graph.spec)
    # the pruning test needs no fixed bits: its margins absorb any rounding
    angles = np.arccos(np.clip(graph.points[corridor] @ ends[[0, -1]].T, -1.0, 1.0))
    keep = (lam * (angles[:, 0] + angles[:, 1])
            <= bound * (1.0 + PRUNE_MARGIN) + lam * PRUNE_MARGIN)
    keep[np.searchsorted(corridor, raw_path)] = True
    corridor = corridor[keep]
    node_pts = graph.points[corridor]
    path = np.searchsorted(corridor, raw_path)
    if off_sample:
        node_pts = np.vstack([node_pts, ends[-1]])
        path = np.append(path, len(corridor))
    n = len(node_pts)
    chord = 2.0 * math.sin(CHUNK_ARC / 2.0)
    pairs = cKDTree(node_pts).query_pairs(chord, output_type="ndarray")
    hops = np.minimum(path[:-1], path[1:]) * n + np.maximum(path[:-1], path[1:])
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], hops]))
    i, j = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    return _Corridor(node_pts, i, j, int(path[0]), int(path[-1]))


def _refine_group(spec: RandersSpec, corridors):
    """Shortest corridor path of each of `corridors`, all in one Dijkstra.

    The corridors are the disconnected blocks of one matrix, so each end's
    distance from the nearest start is its own start's distance, to the
    bit.  Each pair is costed once for both directions; the entries reach
    `csr_matrix` in canonical order, reverse arcs first, so it sorts
    nothing.
    """
    offsets = np.cumsum([0] + [len(c.points) for c in corridors])
    blocks = list(zip(corridors, offsets.tolist()))
    cols = np.ascontiguousarray(np.vstack([c.points for c in corridors]).T)
    i = np.concatenate([c.i + off for c, off in blocks])
    j = np.concatenate([c.j + off for c, off in blocks])
    forward, reverse = _arc_costs(spec, np.take(cols, i, axis=1).T,
                                  np.take(cols, j, axis=1).T)
    size = int(offsets[-1])
    sub = csr_matrix((np.concatenate([reverse, forward]),
                      (np.concatenate([j, i]), np.concatenate([i, j]))), shape=(size, size))
    dist = dijkstra(sub, directed=True, min_only=True,
                    indices=[c.start + off for c, off in blocks])
    return dist[[c.stop + off for c, off in blocks]]


def _answer_batch(graph: SphereGraph, sources, coords, cand, leg_costs, off_sample):
    """Raw search and corridor refinement of a batch of queries (see
    `_raw_paths`); the corridors are refined a group at a time."""
    raw, paths = _raw_paths(graph, sources, coords, cand, leg_costs)
    ends = [graph.points[path] for path in paths]
    if off_sample:
        ends = [np.vstack([e, target]) for e, target in zip(ends, coords)]
    # the raw paths' hops as arcs, in path order
    hop_costs = _arc_costs(graph.spec, np.vstack([e[:-1] for e in ends]),
                           np.vstack([e[1:] for e in ends]))[0].tolist()
    refined = np.empty(len(paths))
    group, members, group_pairs, at = [], [], 0, 0
    for q, (path, e) in enumerate(zip(paths, ends)):
        corridor = _corridor(graph, path, e, sum(hop_costs[at:at + len(e) - 1]),
                             off_sample)
        at += len(e) - 1
        n = len(corridor.points)
        if group and group_pairs + n * (n - 1) // 2 > GROUP_PAIRS:
            refined[members] = _refine_group(graph.spec, group)
            group, members, group_pairs = [], [], 0
        group.append(corridor)
        members.append(q)
        group_pairs += n * (n - 1) // 2
    refined[members] = _refine_group(graph.spec, group)
    return refined, raw, np.array([len(path) - 1 for path in paths])


def _vertices(graph: SphereGraph, indices):
    """`indices` as an array of vertex numbers; InvalidInput unless each is
    an integer in [0, N)."""
    out = []
    for index in indices:
        if (isinstance(index, bool) or not isinstance(index, (int, np.integer))
                or not 0 <= index < graph.n_points):
            raise InvalidInput(f"vertex index must be an integer in [0, {graph.n_points}), "
                               f"got {index!r}")
        out.append(int(index))
    return np.array(out, dtype=np.intp)


UNIT_NORM_TOL = 1e-9


def _sphere_points(graph: SphereGraph, coords):
    """`coords` as a (Q, d) float array of points of the graph's sphere;
    InvalidInput unless each row has the sphere's real dimension d, finite
    entries and a norm within `UNIT_NORM_TOL` of 1."""
    try:
        points = np.asarray(coords)
    except ValueError as exc:           # ragged nesting
        raise InvalidInput(f"coordinates must be a (Q, d) array: {exc}") from exc
    if points.dtype.kind not in "iuf":
        raise InvalidInput(f"coordinates must be real numbers, got dtype {points.dtype}")
    points = points.astype(float, copy=False)
    dim = graph.points.shape[1]
    if points.ndim != 2 or points.shape[1] != dim:
        raise InvalidInput(f"coordinates must have shape (Q, {dim}), got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInput("coordinates must be finite")
    norms = np.linalg.norm(points, axis=1)
    off = np.abs(norms - 1.0) > UNIT_NORM_TOL
    if np.any(off):
        raise InvalidInput("coordinates must lie on the unit sphere, norm is "
                           f"{float(norms[off][0])!r}")
    return points


def _require_batch(sources, targets):
    if len(sources) != len(targets) or len(sources) == 0:
        raise InvalidInput(f"need one target per source and at least one query, got "
                           f"{len(sources)} sources and {len(targets)} targets")


def distances(graph: SphereGraph, sources, targets) -> DistanceReport:
    """Distance estimates from each vertex of `sources` to the vertex of
    `targets` at the same position.

    Each raw shortest path is re-measured through its corridor, which
    removes most of the k-NN discretization stretch; the raw graph distance
    and the raw path's hop count are reported alongside.
    """
    sources, targets = _vertices(graph, sources), _vertices(graph, targets)
    _require_batch(sources, targets)
    refined, raw, hops = _answer_batch(graph, sources, graph.points[targets], targets[:, None],
                                 np.zeros((len(targets), 1)), off_sample=False)
    return DistanceReport(distance=refined, raw=raw, hops=hops, snap=np.zeros(len(targets)))


def distances_to_coords(graph: SphereGraph, sources, coords) -> DistanceReport:
    """Distance estimates from each vertex of `sources` to the on-sphere
    point in the same row of `coords` (real coordinates, (Q, d)), which
    joins the graph as a virtual vertex reached from its k nearest
    vertices; `snap` is its chord distance to the nearest one."""
    sources, coords = _vertices(graph, sources), _sphere_points(graph, coords)
    _require_batch(sources, coords)
    snap, cand = graph.tree.query(coords, k=graph.k)        # k >= MIN_DEGREE: (Q, k)
    near = graph.points[cand.ravel()]
    legs = _tangent_chords(near, np.repeat(coords, graph.k, axis=0))
    leg_costs = _edge_costs(graph.spec, near, legs).reshape(cand.shape)
    refined, raw, hops = _answer_batch(graph, sources, coords, cand, leg_costs, off_sample=True)
    return DistanceReport(distance=refined, raw=raw, hops=hops, snap=snap[:, 0])


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
                         sample_points, rng, batch=None) -> DisplacementProfile:
    """Graph estimate of d(x, flow(x)) over randomly sampled vertices.

    The flowed point joins the graph as a virtual vertex near its nearest
    sampled neighbours, which folds the snap error into an ordinary
    discretization error; the raw snap distance is still reported as
    `snap_max`.  The constancy verdict compares the relative spread
    (max - min)/mean against `DISPLACEMENT_REL_TOL`, which is dominated by
    the discretization scale.  A spread needs 2 to `graph.n_points` points.
    The points are flowed and queried in batches of `batch` (all at once by
    default); every batch size gives the same bits.
    """
    if graph.spec.family != U_SPHERE:
        raise InvalidInput("displacement profiles take a u_sphere graph")
    count = int(sample_points)
    if not 2 <= count <= graph.n_points:
        raise InvalidInput(f"need 2 to {graph.n_points} sample points, not {count}")
    size = count if batch is None else int(batch)
    if size < 1:
        raise InvalidInput(f"need a batch of at least one point, not {size}")
    sources = rng.gen.choice(graph.n_points, size=count, replace=False)
    half = graph.points.shape[1] // 2       # (Re z | Im z) halves of a point
    reps = []
    for lo in range(0, count, size):
        block = sources[lo:lo + size]
        points = graph.points[block]
        moved = apply_flow(flow, points[:, :half] + 1j * points[:, half:])
        reps.append(distances_to_coords(graph, block,
                                        np.concatenate([moved.real, moved.imag], axis=1)))
    disp = np.concatenate([rep.distance for rep in reps])
    snap = np.concatenate([rep.snap for rep in reps])
    mean = float(disp.mean())
    rel = float(disp.max() - disp.min()) / mean if mean > 0 else math.inf
    return DisplacementProfile(
        min=float(disp.min()), max=float(disp.max()), mean=mean,
        displacements=disp, snap_max=float(snap.max()), rel_spread=rel,
        verdict="constant" if rel <= DISPLACEMENT_REL_TOL else "non-constant",
        tolerance=DISPLACEMENT_REL_TOL)
