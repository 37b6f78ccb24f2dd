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

The tube is pruned to the samples that can lie on a path cheaper than a
corridor path already in hand, with no change to any answer's bits.  Let
lambda be the least invariant norm of a round-unit tangent vector
(`_min_unit_norm`, in closed form).  An arc of round angle theta costs
at least lambda * theta, so a corridor path from s through u to t costs
at least lambda * (theta(s, u) + theta(u, t)).  The path in hand costs
D: the cheapest path through the raw path's own points in path order,
over its hops and every pair of them close enough that the corridor
surely joins it (`_shortcuts`); all its arcs are corridor arcs.  A
sample whose bound exceeds D * (1 + 1e-6) + lambda * 1e-6 is dropped;
the margin is far above the rounding of the costs and of arccos near 0
(about 1.5e-8 rad), so the optimal path and its float sum survive
(proof in `_corridor`).

Queries come in batches: `distances` and `distances_to_coords` take many
queries at once (`verify oracle` sends three batches, `verify
displacement` one per point).  One arc-cost call prices every query's
search bound, one prices every query's D, and one KD-tree query with one
edge-cost call snaps and prices every off-sample target.  Each query
keeps its own bounded raw Dijkstra, since each has its own bound: the
cheaper of a multiple of the great-circle cost and the total of a greedy
walk through the graph to the target (`_walk_limits`), a real path the
search must beat.  No bound calls a scipy kernel.  The corridors are then
refined a group at a time: a group holds corridors of at most
`GROUP_PAIRS` = 2^15 point pairs n(n - 1)/2 in all, and becomes one
block-diagonal matrix priced by one arc-cost call and answered by one
multi-source Dijkstra.
The budget bounds the memory of a group, whatever the batch size.  No
answer moves by a bit.  Every cost kernel works element by element,
so a cost does not depend on which batch it is computed in.  The blocks
are disconnected, so the distance of each corridor's end from the
nearest start is its distance from its own start, and that is the
least float sum over the same paths as in a matrix of its own.

The graph is built `BLOCK` = 2^13 edges at a time.  Each block of whole
rows makes one KD-tree query and writes its column indices, sorted within
each row, its costs and its chord lengths into preallocated O(E) arrays,
which are the CSR matrix as they stand; beyond them and a copy of the
points, nothing in the build grows with the point count.  The KD-tree
queries, and nothing else, run on a thread pool that lives for one build:
one thread per CPU the process may use (`os.sched_getaffinity`), never
more than there are blocks.  scipy's query releases the GIL and writes
only its own outputs.  The calling thread submits at most 2 * threads
blocks ahead of the one it prices, takes each block's neighbours in block
order and does the rest: sorting, chords, costs and every write.  So each
array is written by one thread in the same order at any thread count, no
bit depends on it, and the look-ahead holds the transient to O(BLOCK):
4.4 MiB at N = 20000, k = 12 on two CPUs (tracemalloc; 3.9 MiB built
serially).  `_arc_costs` fills its two outputs a block of arcs at a time
as well.  That half is needed for speed: glibc's malloc raises its mmap
and trim thresholds to the size of the largest mapped block it frees,
and the unblocked build's multi-megabyte frees had kept them high enough
that the corridor groups' arc-cost temporaries reused heap pages.  With
the build blocked alone, every group mapped and faulted them afresh:
about 33k instead of 0.6k minor faults in the queries of one `verify
oracle` plus `verify displacement` pass (glibc 2.36, numpy 2.4, scipy
1.17); with `_arc_costs` blocked too, about 12k.  No cost moves by a bit,
since every kernel works element by element.

Every sum over coordinates that feeds a weight or a cost runs on whole
coordinate columns through `_row_sum`, which adds them left to right, on
every sphere and family alike.  Below 8 terms that is the order of
numpy's row reduction, so S^3 and S^5 weights are `np.sum(rows, axis=1)`
bit for bit.  The graph weights, and with them the surveyed graph seeds
of the benchmark and the golden reports, depend on those bits;
`np.einsum` or a different association order would move them by an ulp
here and there, and a shortest path with them.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import InvalidInput, ResolutionTooCoarse
from .flows import FlowIsometry, apply_flow
from .randers import U_SPHERE, RandersSpec, randers_norm_array

MIN_POINTS = 500
MIN_DEGREE = 8
# The most edges n_points * k a graph may have; the build sizes its CSR
# arrays from the product, so a larger one is refused before anything is sized
MAX_EDGES = 2 ** 24
# The graph build and `_arc_costs` work on at most this many edges (arcs)
# at a time, so their temporaries do not grow with the input
BLOCK = 2 ** 13


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
    """Sum of the coordinate columns `cols` (two or more equal-length 1-D
    arrays, e.g. the rows of a (d, E) array), added left to right.  Below 8
    terms numpy's row reduction adds in the same order, so there the sum is
    `np.sum(rows, axis=1)` bit for bit, at the cost of a few whole-column
    operations instead of one short reduction per row."""
    total = cols[0] + cols[1]
    for col in cols[2:]:
        total += col
    total += 0.0                # numpy starts from +0.0: -0.0 terms sum to +0.0
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
        # sp_sphere: the i, j and k parts of the quaternionic pairing
        # sum(conj(p_a) v_a); entries of H^(n+1) are stored as
        # [Re z1 | Im z1 | Re z2 | Im z2] quarters, (a, b, e, f) of the
        # points and (c, d, g, h) of the vectors
        a, b, e, f = np.split(pts, 4)
        c, d, g, h = np.split(vecs, 4)
        m0 = np.stack([_row_sum(a * d - b * c + g * f - h * e),
                       _row_sum(a * g + b * h - c * e - d * f),
                       _row_sum(a * h - b * g - c * f + d * e)], axis=1)
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


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_graph(spec: RandersSpec, n_points, k, rng) -> SphereGraph:
    """Sample `n_points` points of the spec's sphere and connect each to its
    k nearest (Euclidean) neighbours by directed edges weighted with the
    invariant norm of the tangent-projected chord.

    The edges are found and priced `BLOCK` at a time, a block of whole rows
    (at least one) per KD-tree query, straight into the CSR arrays: each
    row's neighbours sorted by column, the canonical order.  The KD-tree
    queries run on a pool of one thread per usable CPU (no more than there
    are blocks), at most two per thread ahead of the block being priced;
    this thread takes their neighbours in block order and does all else."""
    n_points, k = int(n_points), int(k)
    if n_points < MIN_POINTS:
        raise InvalidInput(f"need at least {MIN_POINTS} points")
    if not MIN_DEGREE <= k < n_points:
        raise InvalidInput(f"need {MIN_DEGREE} <= k < n_points")
    if n_points * k > MAX_EDGES:
        raise InvalidInput(f"need n_points * k <= {MAX_EDGES} edges, got {n_points * k}")
    pts = _sample_points(spec, n_points, rng)
    tree = cKDTree(pts)
    n_edges = n_points * k
    indices = np.empty(n_edges, dtype=np.int32)
    costs, chords = np.empty(n_edges), np.empty(n_edges)
    # coordinate columns of the edges' ends, gathered in place of rows
    cols = np.ascontiguousarray(pts.T)
    rows = max(1, BLOCK // k)
    starts = range(0, n_points, rows)
    workers = min(_usable_cpus(), len(starts))
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        # scipy's tree query releases the GIL and writes only its own outputs;
        # submitted lazily, so at most 2 * workers neighbour blocks are held
        queries = (pool.submit(tree.query, pts[lo:lo + rows], k=k + 1) for lo in starts)
        ahead = deque(islice(queries, 2 * workers))
        for lo in starts:
            _, idx = ahead.popleft().result()
            ahead.extend(islice(queries, 1))
            hi = min(lo + rows, n_points)
            dst = np.sort(idx[:, 1:], axis=1).ravel()          # drop self
            src_pts = np.repeat(cols[:, lo:hi], k, axis=1).T
            vecs = _tangent_chords(src_pts, np.take(cols, dst, axis=1).T)
            edges = slice(lo * k, hi * k)
            indices[edges] = dst
            costs[edges] = _edge_costs(spec, src_pts, vecs)
            chords[edges] = np.sqrt(_row_sum(vecs.T * vecs.T))
    finally:
        pool.shutdown(cancel_futures=True)
    median_chord = float(np.median(chords, overwrite_input=True))
    del chords                  # np.median(costs) copies: one O(E) temporary at a time
    mat = csr_matrix((costs, indices, np.arange(0, n_edges + 1, k, dtype=np.int32)),
                     shape=(n_points, n_points))
    n_comp, _ = connected_components(mat, directed=True, connection="strong")
    if n_comp != 1:
        raise ResolutionTooCoarse(
            f"graph is not strongly connected ({n_comp} components); "
            "increase the point count or the degree")
    return SphereGraph(spec=spec, points=pts, matrix=mat, k=k,
                       median_edge=float(np.median(costs)), tree=tree,
                       median_chord=median_chord)


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
    The arcs are priced `BLOCK` at a time.
    """
    forward, reverse = np.empty(len(starts)), np.empty(len(starts))
    for lo in range(0, len(starts), BLOCK):
        block_starts, block_ends = starts[lo:lo + BLOCK].T, ends[lo:lo + BLOCK].T
        dot = np.clip(_row_sum(block_starts * block_ends), -1.0, 1.0)
        theta = np.arccos(dot)
        perp = block_ends - dot * block_starts
        pn = np.sqrt(_row_sum(perp * perp))
        degenerate = pn <= 1e-14
        perp /= np.where(degenerate, 1.0, pn)
        m0, usq = _tangent_parts(spec.family, block_starts, perp)
        for out, s in ((forward, 1.0), (reverse, -1.0)):
            out[lo:lo + BLOCK] = np.where(degenerate, 0.0,
                                          theta * randers_norm_array(spec, s * m0, usq))
    return forward, reverse


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
    """First search bound of the raw Dijkstra from each source towards its
    target point `coords` row: a multiple of the great-circle cost plus a
    few median edges, which `_raw_paths` lowers to a greedy walk's total
    where one reaches the target.  An antipodal pair has no unique great
    circle and `_arc_costs` prices it 0, so its search runs unbounded."""
    starts = graph.points[sources]
    arcs = _arc_costs(graph.spec, starts, coords)[0]
    limits = RAW_LIMIT_FACTOR * arcs + RAW_LIMIT_EDGES * graph.median_edge
    limits[(arcs == 0.0) & (np.sum(starts * coords, axis=1) < 0.0)] = math.inf
    return limits


def _walk_limits(graph: SphereGraph, sources, coords, cand, leg_costs):
    """Total of a greedy graph walk from each source to one of its
    candidates `cand[q]` plus that candidate's leg, or inf where the walk
    stalls first.

    Each step goes to the out-neighbour with the largest dot product with
    the target `coords[q]`, and the walk stalls where none is closer than
    the vertex it stands on.  The weights are added left to right from 0.0,
    as Dijkstra adds them along a path; float addition is monotone, so
    Dijkstra's distance to the candidate is at most the walk's sum, and the
    candidate's total at most the returned limit."""
    heads = graph.matrix.indices.reshape(-1, graph.k)       # k out-edges per row
    weights = graph.matrix.data.reshape(-1, graph.k)
    at = np.array(sources, dtype=np.intp)
    walked, limits = np.zeros(len(at)), np.full(len(at), math.inf)
    closeness = np.sum(graph.points[at] * coords, axis=1)
    live = np.arange(len(at))
    while len(live):
        hit = cand[live] == at[live, None]
        reached = np.any(hit, axis=1)
        done = live[reached]
        limits[done] = walked[done] + leg_costs[done, np.argmax(hit[reached], axis=1)]
        live = live[~reached]
        nbrs = heads[at[live]]
        dots = np.sum(graph.points[nbrs] * coords[live, None], axis=2)
        best = np.argmax(dots, axis=1)
        rows = np.arange(len(live))
        closer = dots[rows, best] > closeness[live]
        live, best, rows = live[closer], best[closer], rows[closer]
        walked[live] += weights[at[live], best]
        at[live] = nbrs[rows, best]
        closeness[live] = dots[rows, best]
    return limits


def _raw_paths(graph: SphereGraph, sources, coords, cand, leg_costs):
    """Raw graph distance of each query and its raw path, one Dijkstra per
    query.  Target q lies at `coords[q]` and is reached from the vertices
    `cand[q]` over legs costing `leg_costs[q]`; the path ends at the vertex
    the best total comes from.

    A search stops at its `_raw_limits` bound, lowered where it is finite to
    the total of a real path, the greedy walk of `_walk_limits`; below the
    bound the search's distances are exact.  A vertex beyond the bound
    totals more than the bound, so it cannot beat a total within it: if
    the best total found is within the bound the answer is settled,
    otherwise the search reruns unbounded.  A walk that reaches a candidate
    bounds that candidate's total from above, so its query never reruns.
    """
    limits = _raw_limits(graph, sources, coords)
    finite = np.isfinite(limits)
    limits[finite] = np.minimum(limits[finite], _walk_limits(
        graph, sources[finite], coords[finite], cand[finite], leg_costs[finite]))
    raw, paths = np.empty(len(sources)), []
    for q, (source, limit) in enumerate(zip(sources, limits)):
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
# exceeds D * (1 + PRUNE_MARGIN) + lambda * PRUNE_MARGIN, D the cost of a
# corridor path through the raw path's points: a relative margin and one in
# radians (see `_corridor`)
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
    `bound` = D, the float sum of a path through the raw path's own points
    (`_answer_batch`); the answer keeps its bits.  That path's arcs are
    hops of the raw path or pairs whose chord is inside the chunk chord by
    a relative 1e-9, which the KD-tree's pair query joins whatever its
    rounding, and the raw path's points are never dropped: so it is a
    corridor path.  The corridor may price one of its arcs as the reverse
    of the swapped pair, a few ulps off the forward price, far below the
    margin below.  Proof: an arc of round angle theta costs
    theta * F(unit tangent) >= lambda * theta (`_min_unit_norm`), so by the
    triangle inequality of the round angle every corridor path from s
    through u to t costs at least lambda * (theta(s, u) + theta(u, t)).
    The optimum is at most D, up to those ulps.  Dijkstra's answer is the
    least left-to-right float sum over paths (float addition is monotone),
    and a sample u with
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


def _shortcuts(ends):
    """Positions i < j, sorted, of the pairs of a raw path's points `ends`
    that its corridor joins whatever else it holds: the hops, and every pair
    whose chord is below the corridor's chunk chord by a relative 1e-9, a
    margin far above the rounding of the KD-tree's distances."""
    i, j = np.triu_indices(len(ends), 1)
    chords = np.sqrt(np.sum((ends[i] - ends[j]) ** 2, axis=1))
    near = (j == i + 1) | (chords < 2.0 * math.sin(CHUNK_ARC / 2.0) * (1.0 - 1e-9))
    return i[near], j[near]


def _cheapest_in_order(n, i, j, costs):
    """Least left-to-right float sum of the arc costs `costs[p]` from point
    `i[p]` to point `j[p]` over the paths from point 0 to point n - 1 that
    visit points in increasing order; the pairs come sorted by i, so each
    point's best sum is final before its arcs are relaxed."""
    best = [0.0] + [math.inf] * (n - 1)
    for a, b, cost in zip(i, j, costs):
        best[b] = min(best[b], best[a] + cost)
    return best[-1]


def _answer_batch(graph: SphereGraph, sources, coords, cand, leg_costs, off_sample):
    """Raw search and corridor refinement of a batch of queries (see
    `_raw_paths`).  Each corridor is pruned against D, the cheapest path
    through its raw path's points in path order over their `_shortcuts`,
    all priced in one arc-cost call; the corridors are refined a group at a
    time."""
    raw, paths = _raw_paths(graph, sources, coords, cand, leg_costs)
    ends = [graph.points[path] for path in paths]
    if off_sample:
        ends = [np.vstack([e, target]) for e, target in zip(ends, coords)]
    shortcuts = [_shortcuts(e) for e in ends]
    costs = _arc_costs(graph.spec, np.vstack([e[i] for e, (i, _) in zip(ends, shortcuts)]),
                       np.vstack([e[j] for e, (_, j) in zip(ends, shortcuts)]))[0].tolist()
    refined = np.empty(len(paths))
    group, members, group_pairs, at = [], [], 0, 0
    for q, (path, e, (i, j)) in enumerate(zip(paths, ends, shortcuts)):
        bound = _cheapest_in_order(len(e), i.tolist(), j.tolist(), costs[at:at + len(i)])
        corridor = _corridor(graph, path, e, bound, off_sample)
        at += len(i)
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
