import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from cwspheres import checks, geodesy
from cwspheres.errors import InvalidInput
from cwspheres.flows import apply_flow, u_flow
from cwspheres.geodesy import (_arc_costs, _edge_costs, _row_sum, build_graph,
                               displacement_profile, distances,
                               distances_to_coords)
from cwspheres.killing import OrbitParams, solve_metric
from cwspheres.matrixcore import RngStream
from cwspheres.randers import RandersSpec, randers_norm_array, round_spec

ROUND3 = round_spec(1)
CW3 = solve_metric(OrbitParams(1, 1, 0.5, 1.0, 1.0))
SP7 = RandersSpec("sp_sphere", n=1, a1=1.0, a2=1.3, b=1.0, c=0.2)


def small_graph(spec=ROUND3, n_points=2500, k=12, seed=100):
    return build_graph(spec, n_points, k, RngStream(seed))


def median_edge(g):
    """Median edge cost of `g`, the graph's length scale."""
    return float(np.median(g.matrix.data))


def out_edges(g, i):
    """Heads and weights of the directed edges leaving vertex i."""
    lo, hi = g.matrix.indptr[i], g.matrix.indptr[i + 1]
    return g.matrix.indices[lo:hi], g.matrix.data[lo:hi]


# ------------------------------------------------------------------ building

def test_build_validates_parameters(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused build started its KD-tree threads")

    monkeypatch.setattr(geodesy, "ThreadPoolExecutor", no_pool)
    threads = threading.active_count()
    with pytest.raises(InvalidInput):
        build_graph(ROUND3, 100, 12, RngStream(0))
    with pytest.raises(InvalidInput):
        build_graph(ROUND3, 600, 4, RngStream(0))
    with pytest.raises(InvalidInput):       # the spec alone sizes the sphere
        build_graph(RandersSpec("u_sphere", n=0, a=1.0, b=1.0), 600, 8, RngStream(0))
    for k in (600, 100000):    # a vertex has at most n_points - 1 neighbours
        with pytest.raises(InvalidInput):
            build_graph(ROUND3, 600, k, RngStream(0))
    # one row of MIN_DEGREE edges past the budget, refused before anything is sized
    with pytest.raises(InvalidInput, match="edges"):
        build_graph(ROUND3, geodesy.MAX_EDGES // 8 + 1, 8, RngStream(0))
    assert threading.active_count() == threads


def test_build_round_weights_symmetric():
    g = small_graph(n_points=800)
    sym_checked = 0
    for i in range(100):
        for j, w_ij in zip(*out_edges(g, i)):
            heads, weights = out_edges(g, j)
            back = np.where(heads == i)[0]
            if len(back):
                w_ji = weights[back[0]]
                assert abs(w_ij - w_ji) <= 1e-12
                sym_checked += 1
    assert sym_checked > 50


def test_build_nonreversible_weights_asymmetric():
    g = small_graph(spec=CW3, n_points=800)
    gaps = []
    for i in range(200):
        for j, w_ij in zip(*out_edges(g, i)):
            heads, weights = out_edges(g, j)
            back = np.where(heads == i)[0]
            if len(back):
                gaps.append(abs(w_ij - weights[back[0]]))
    assert max(gaps) > 1e-3


def test_build_median_edge_scales_with_density():
    # quadrupling the point count on a 3-manifold shrinks spacing by 4^(-1/3)
    m1 = median_edge(small_graph(n_points=1000, seed=7))
    m4 = median_edge(small_graph(n_points=4000, seed=8))
    ratio = m4 / m1
    assert 0.55 <= ratio <= 0.72


def test_build_positive_weights_and_out_degree():
    g = small_graph(spec=CW3, n_points=700)
    assert np.all(g.matrix.data >= 0.0)
    counts = np.diff(g.matrix.indptr)
    assert g.matrix.shape == (700, 700) and np.all(counts == 12)
    assert counts.max() == 12


def test_build_median_chord_matches_round_median_edge():
    g = small_graph(n_points=1000)
    assert abs(g.median_chord - median_edge(g)) <= 1e-12 * median_edge(g)


def peak_above_retained(fn, *args):
    """`fn(*args)` and the most memory its call held at once beyond what
    it still holds on return, in bytes as tracemalloc counts them (numpy's
    buffers included)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - retained


def test_build_graph_transient_memory_is_bounded():
    # edges are found and priced a block at a time into the CSR arrays:
    # the build's temporaries grow only by its O(E) outputs (int32 column
    # indices, float64 costs and chord lengths)
    transient = {n: peak_above_retained(build_graph, ROUND3, n, 12, RngStream(0))[1]
                 for n in (20000, 40000)}
    assert transient[20000] <= 12 * 2 ** 20
    assert transient[40000] - transient[20000] <= (40000 - 20000) * 12 * (4 + 8 + 8)


def test_arc_costs_transient_memory_does_not_grow_with_the_arcs():
    # arcs are priced a block at a time into the two outputs (about 10 MiB
    # of temporaries per 100k arcs when priced in one piece)
    for count in (100000, 200000):
        starts, ends = (np.asfortranarray(a) for a in random_arcs(4, count, RngStream(55).gen))
        assert peak_above_retained(_arc_costs, CW3, starts, ends)[1] <= 2 * 2 ** 20


# ------------------------------------------------------------------ arc costs

def per_direction_arc_costs(spec, starts, ends):
    """Slow reference: the closed-form length of each arc from its own start,
    one direction per call."""
    return rowsum_arc_costs(spec, starts, ends)[0]


def simpson_arc_costs(spec, starts, ends):
    """Reference: 5-node Simpson quadrature of the invariant norm along the
    great-circle arc from each start to each end."""
    # the dot product is summed as the kernels sum it: near theta = 1e-7 one
    # ulp of it moves theta by up to 2%
    dot = np.clip(ltr_sum(starts * ends), -1.0, 1.0)
    theta = np.arccos(dot)
    perp = ends - dot[:, None] * starts
    pn = np.linalg.norm(perp, axis=1)
    degenerate = pn <= 1e-14
    perp = perp / np.where(degenerate, 1.0, pn)[:, None]
    weights = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
    total = np.zeros(len(theta))
    for frac, w in zip(np.linspace(0.0, 1.0, 5), weights):
        s = frac * theta
        pts = np.cos(s)[:, None] * starts + np.sin(s)[:, None] * perp
        vel = -np.sin(s)[:, None] * starts + np.cos(s)[:, None] * perp
        total += w * _edge_costs(spec, pts, vel)
    return np.where(degenerate, 0.0, theta * total)


def random_arcs(dim, count, gen):
    """Arcs from random unit starts along random unit tangents, with angles
    spread over (0, pi) and clustered near 0 and near pi."""
    starts = gen.standard_normal((count, dim))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    tangents = gen.standard_normal((count, dim))
    tangents -= np.sum(tangents * starts, axis=1)[:, None] * starts
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    third = count // 3
    small = 10.0 ** gen.uniform(-7.0, -2.0, third)
    theta = np.concatenate([small, math.pi - small,
                            gen.uniform(0.0, math.pi, count - 2 * third)])
    ends = np.cos(theta)[:, None] * starts + np.sin(theta)[:, None] * tangents
    return starts, ends


ARC_SPEC_LIST = [
    (CW3, 4),
    (RandersSpec("u_sphere", n=3, a=2.0, b=1.5, c=-0.8), 8),
    (RandersSpec("u_sphere", n=1, a=1.3, b=1.0, c=0.4), 4),
    (RandersSpec("sp_sphere", n=1, a1=1.0, a2=1.3, b=1.0, c=0.2), 8),
    (RandersSpec("sp_sphere", n=2, a1=1.2, a2=1.5, b=1.0, c=0.3), 12),
]
ARC_SPECS = pytest.mark.parametrize("spec,dim", ARC_SPEC_LIST)


@ARC_SPECS
def test_closed_form_arc_cost_matches_simpson(spec, dim):
    starts, ends = random_arcs(dim, 12000, RngStream(40).gen)
    closed, _ = _arc_costs(spec, starts, ends)
    reference = simpson_arc_costs(spec, starts, ends)
    assert np.all(reference > 0.0)
    rel = np.abs(closed - reference) / reference
    assert rel.max() <= 1e-12


@ARC_SPECS
def test_reverse_arc_cost_matches_simpson_of_swapped_arc(spec, dim):
    # the reverse cost comes from the forward pass by the sign change of the
    # pairing; the reference integrates the swapped arc from its own start.
    # Near theta = 0 and pi the reference's tangent is ill-conditioned, so
    # there the bound is on rel * sin(theta)
    starts, ends = random_arcs(dim, 12000, RngStream(40).gen)
    _, reverse = _arc_costs(spec, starts, ends)
    reference = simpson_arc_costs(spec, ends, starts)
    assert np.all(reference > 0.0)
    rel = np.abs(reverse - reference) / reference
    sin_theta = np.sin(np.arccos(np.clip(np.sum(starts * ends, axis=1), -1.0, 1.0)))
    assert rel[sin_theta >= 1e-3].max() <= 1e-12
    assert (rel * sin_theta).max() <= 1e-14
    # the clustered angles reach well inside the ill-conditioned zone
    assert (sin_theta < 1e-3).sum() > 1000


# ------------------------------------------------------- S^3 = SU(2) = u_sphere
# SU(2)-left times circle-right is U(2) acting on C^2 = H, so the left-
# invariant Randers metrics on SU(2) with their axis along i are the
# u_sphere n = 1 metrics.  A point (x0, x1, x2, x3) = (Re z0, Re z1, Im z0,
# Im z1) of the u_sphere graph has quaternion coordinates (w, x, y, z) =
# (x0, x2, x3, x1): (z0, z1) is diag(1, -i) g e_1 for the SU(2) matrix g of
# the quaternion, and diag(1, -i) in U(2) is an isometry of every u_sphere
# metric.  On SU(2) the m0 coordinate of a tangent vector v at p is the
# i-component of conj(p) v.

TO_QUATERNION = [0, 2, 3, 1]


def su2_tangent_parts(p, v):
    """m0 (the i-component of conj(p) v) and the squared m1 norm, for
    (E, 4) rows of quaternion coordinates."""
    p0, p1, p2, p3 = p.T
    v0, v1, v2, v3 = v.T
    m0 = p0 * v1 - p1 * v0 - p2 * v3 + p3 * v2
    return m0[:, None], np.maximum(np.sum(v * v, axis=1) - m0 ** 2, 0.0)


def su2_edge_costs(spec, p, v):
    return randers_norm_array(spec, *su2_tangent_parts(p, v))


def su2_arc_costs(spec, starts, ends):
    dot = np.clip(np.sum(starts * ends, axis=1), -1.0, 1.0)
    perp = ends - dot[:, None] * starts
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    m0, usq = su2_tangent_parts(starts, perp)
    return tuple(np.arccos(dot) * randers_norm_array(spec, s * m0, usq)
                 for s in (1.0, -1.0))


@pytest.mark.parametrize("c", [0.0, 0.4, -0.7])
def test_u_sphere_n1_costs_are_su2_costs_in_quaternion_coordinates(c):
    spec = RandersSpec("u_sphere", n=1, a=1.3, b=1.0, c=c)
    # random pairs: their angles stay clear of 0 and pi, where arccos
    # would amplify the rounding of the two coordinate orders' dot products
    starts, ends = RngStream(60).gen.standard_normal((2, 5000, 4))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    vecs = geodesy._tangent_chords(starts, ends)
    q = TO_QUATERNION
    reference = su2_edge_costs(spec, starts[:, q], vecs[:, q])
    assert np.max(np.abs(_edge_costs(spec, starts, vecs) - reference)) <= 1e-14
    for got, want in zip(_arc_costs(spec, starts, ends),
                         su2_arc_costs(spec, starts[:, q], ends[:, q])):
        assert np.max(np.abs(got - want)) <= 1e-14


# ------------------------------------------------- summation-order contract
# The kernels sum over coordinates column by column; these references sum
# each row left to right, and every result must match them bit for bit (the
# surveyed graph seeds and the golden reports depend on it).

def ltr_sum(rows):
    """Sums of the (E, d) `rows`, each added left to right from +0.0 by a
    running sum."""
    return np.cumsum(rows, axis=1)[:, -1] + 0.0


def rowsum_tangent_parts(family, pts, vecs):
    if family == "u_sphere":
        half = pts.shape[1] // 2
        pr, pi = pts[:, :half], pts[:, half:]
        vr, vi = vecs[:, :half], vecs[:, half:]
        m0 = ltr_sum(pr * vi - pi * vr)[:, None]
    else:
        a, b, e, f = np.split(pts, 4, axis=1)
        c, d, g, h = np.split(vecs, 4, axis=1)
        m0 = np.stack([ltr_sum(a * d - b * c + g * f - h * e),
                       ltr_sum(a * g + b * h - c * e - d * f),
                       ltr_sum(a * h - b * g - c * f + d * e)], axis=1)
    usq = ltr_sum(vecs * vecs)
    for coord in m0.T:
        usq = usq - coord ** 2
    return m0, np.maximum(usq, 0.0)


def rowsum_edge_costs(spec, pts, vecs):
    return randers_norm_array(spec, *rowsum_tangent_parts(spec.family, pts, vecs))


def rowsum_arc_costs(spec, starts, ends):
    dot = np.clip(ltr_sum(starts * ends), -1.0, 1.0)
    theta = np.arccos(dot)
    perp = ends - dot[:, None] * starts
    pn = np.sqrt(ltr_sum(perp * perp))
    degenerate = pn <= 1e-14
    perp = perp / np.where(degenerate, 1.0, pn)[:, None]
    m0, usq = rowsum_tangent_parts(spec.family, starts, perp)
    return tuple(np.where(degenerate, 0.0, theta * randers_norm_array(spec, s * m0, usq))
                 for s in (1.0, -1.0))


def rowsum_graph(g):
    """Weights (CSR) and median chord of `g`'s edges recomputed from its
    points by the row-sum formulas."""
    _, idx = cKDTree(g.points).query(g.points, k=g.k + 1)
    src = np.repeat(np.arange(g.n_points), g.k)
    dst = idx[:, 1:].ravel()
    chords = g.points[dst] - g.points[src]
    radial = ltr_sum(chords * g.points[src])
    vecs = chords - radial[:, None] * g.points[src]
    costs = rowsum_edge_costs(g.spec, g.points[src], vecs)
    return (csr_matrix((costs, (src, dst)), shape=g.matrix.shape),
            float(np.median(np.sqrt(ltr_sum(vecs * vecs)))))


def mixed_scale_rows(count, width, gen):
    """Rows whose terms span 16 orders of magnitude, so that any change of
    summation order shows in the last bits; some rows are all -0.0."""
    rows = gen.standard_normal((count, width)) * 10.0 ** gen.integers(-8, 9, (count, width))
    rows[:3] = -0.0
    return rows


@pytest.mark.parametrize("width", list(range(2, 17)) + [130, 300])
def test_row_sum_matches_numpy_row_order(width):
    # the kernels add left to right at every width, in any memory layout;
    # numpy's row reduction adds in that order below 8 terms only
    rows = mixed_scale_rows(400, width, RngStream(50).gen)
    expected = ltr_sum(rows)
    for layout in (rows, np.asfortranarray(rows)):
        assert _row_sum(layout.T).tobytes() == expected.tobytes()
    assert _row_sum(list(rows.T)).tobytes() == expected.tobytes()
    if width < 8:
        assert np.sum(rows, axis=1).tobytes() == expected.tobytes()
    else:           # the data tells the orders apart
        assert np.sum(rows, axis=1).tobytes() != expected.tobytes()


def special_arcs(starts):
    """Degenerate and axis-aligned arcs: zero length, antipodal, and
    between signed unit vectors (whose products are signed zeros)."""
    dim = starts.shape[1]
    axes = np.eye(dim)
    return (np.concatenate([starts[:5], starts[5:10], axes, axes]),
            np.concatenate([starts[:5], -starts[5:10], -np.roll(axes, 1, axis=0), -axes]))


@ARC_SPECS
def test_arc_and_edge_costs_are_bit_identical_to_row_sums(monkeypatch, spec, dim):
    starts, ends = random_arcs(dim, 3000, RngStream(51).gen)
    extra_starts, extra_ends = special_arcs(starts)
    # the special arcs straddle the boundary of the first two 1000-arc blocks
    at = 1000 - len(extra_starts) // 2
    starts = np.concatenate([starts[:at], extra_starts, starts[at:]])
    ends = np.concatenate([ends[:at], extra_ends, ends[at:]])
    expected = rowsum_arc_costs(spec, starts, ends)
    for block in (geodesy.BLOCK, 1000, 7):      # one block; four, the last ragged; 7 arcs
        monkeypatch.setattr(geodesy, "BLOCK", block)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            got = _arc_costs(spec, layout(starts), layout(ends))
            for direction in range(2):
                assert got[direction].tobytes() == expected[direction].tobytes()
    for layout in (np.ascontiguousarray, np.asfortranarray):
        vecs = geodesy._tangent_chords(layout(starts), layout(ends))
        assert _edge_costs(spec, layout(starts), vecs).tobytes() \
            == rowsum_edge_costs(spec, starts, np.ascontiguousarray(vecs)).tobytes()


@pytest.mark.parametrize("spec,dim", [case for case in ARC_SPEC_LIST
                                      if case[0].family == "sp_sphere"])
def test_sp_edge_costs_do_not_depend_on_the_call_size(spec, dim):
    # the sp pairing works element by element on real columns, so a weight
    # does not depend on how many edges are priced with it
    starts, ends = random_arcs(dim, 20000, RngStream(54).gen)
    vecs = geodesy._tangent_chords(starts, ends)
    whole = _edge_costs(spec, starts, vecs)
    for size in (7, 4000):
        parts = [_edge_costs(spec, starts[lo:lo + size], vecs[lo:lo + size])
                 for lo in range(0, len(starts), size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def complex_sp_m0(pts, vecs):
    """sp m0 of (E, d) rows by the complex pairing: with p = (p1, p2) and
    v = (v1, v2) in C^(n+1) x C^(n+1), the i part of sum(conj(p_a) v_a) is
    Im sum(conj(p1) v1 + conj(v2) p2), and its j and k parts are the real
    and imaginary parts of sum(conj(p1) v2 - conj(v1) p2)."""
    p1, p2, v1, v2 = (z[:, :z.shape[1] // 2] + 1j * z[:, z.shape[1] // 2:]
                      for z in np.split(np.hstack([pts, vecs]), 4, axis=1))
    first = np.sum(np.conj(p1) * v1 + np.conj(v2) * p2, axis=1)
    second = np.sum(np.conj(p1) * v2 - np.conj(v1) * p2, axis=1)
    return np.stack([first.imag, second.real, second.imag], axis=1)


@pytest.mark.parametrize("dim", [8, 12, 16])
def test_sp_pairing_matches_the_complex_pairing(dim):
    gen = RngStream(56).gen
    pts = gen.standard_normal((5000, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vecs = gen.standard_normal((5000, dim))
    m0, _ = geodesy._tangent_parts("sp_sphere", pts.T, vecs.T)
    # relative to |p| |v|, the scale of every pairing term
    scale = np.linalg.norm(vecs, axis=1)[:, None]
    assert np.max(np.abs(m0 - complex_sp_m0(pts, vecs)) / scale) <= 1e-15


@pytest.mark.parametrize("spec,n_points,k,seed", [
    (CW3, 3000, 12, 52),
    (RandersSpec("u_sphere", n=3, a=2.0, b=1.5, c=-0.8), 2000, 12, 53),     # d = 8
    (SP7, 900, 10, 27),
])
def test_build_graph_is_bit_identical_to_row_sums(monkeypatch, spec, n_points, k, seed):
    g = build_graph(spec, n_points, k, RngStream(seed))
    matrix, median_chord = rowsum_graph(g)
    graphs = [g]
    # 7 rows a block, the last one short; one row a block; a block below k
    # (one row a block too)
    for block in (7 * k + 5, k, 3):
        monkeypatch.setattr(geodesy, "BLOCK", block)
        graphs.append(build_graph(spec, n_points, k, RngStream(seed)))
    for got in graphs:
        assert got.matrix.has_canonical_format
        assert np.array_equal(got.matrix.indptr, matrix.indptr)
        assert np.array_equal(got.matrix.indices, matrix.indices)
        assert got.matrix.indptr.dtype == matrix.indptr.dtype
        assert got.matrix.indices.dtype == matrix.indices.dtype
        assert got.matrix.data.tobytes() == matrix.data.tobytes()
        assert got.median_chord == median_chord


def graph_bytes(g):
    return (g.matrix.data.tobytes(), g.matrix.indices.tobytes(), g.matrix.indptr.tobytes(),
            g.median_chord)


@pytest.mark.parametrize("spec,n_points,k,seed,blocks", [
    (CW3, 2000, 12, 54, 3),             # rows of 682, 682 and 636
    (CW3, 500, 12, 55, 1),
    (SP7, 900, 10, 27, 2),              # rows of 819 and 81
])
def test_build_bits_do_not_depend_on_the_worker_count(monkeypatch, spec, n_points, k,
                                                      seed, blocks):
    sizes, got = [], []

    def pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(geodesy, "ThreadPoolExecutor", pool)
    for workers in (1, 2, 3):
        monkeypatch.setattr(geodesy, "_usable_cpus", lambda: workers)
        got.append(graph_bytes(build_graph(spec, n_points, k, RngStream(seed))))
    assert got[1] == got[0] and got[2] == got[0]
    assert sizes == [min(workers, blocks) for workers in (1, 2, 3)]


def test_build_queries_at_most_two_blocks_per_thread_ahead(monkeypatch):
    lead, priced = [], []

    class Pool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            lead.append(len(lead) - len(priced))    # block number - blocks priced
            return super().submit(*args, **kwargs)

    def pricing(*args):
        priced.append(None)
        return _edge_costs(*args)

    monkeypatch.setattr(geodesy, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(geodesy, "_edge_costs", pricing)
    monkeypatch.setattr(geodesy, "BLOCK", 100 * 12)            # 20 blocks
    for workers in (1, 3):
        lead.clear()
        priced.clear()
        monkeypatch.setattr(geodesy, "_usable_cpus", lambda: workers)
        small_graph(n_points=2000)
        assert len(lead) == 20 and max(lead) == 2 * workers


def test_build_failure_leaves_as_raised_and_joins_its_threads(monkeypatch):
    threads = threading.active_count()
    monkeypatch.setattr(geodesy, "_usable_cpus", lambda: 3)
    small_graph(spec=CW3, n_points=2000)
    assert threading.active_count() == threads
    failure, calls = RuntimeError("pricing failed"), []

    def second_block_fails(*args):
        calls.append(len(calls))
        if len(calls) == 2:
            raise failure
        return _edge_costs(*args)

    monkeypatch.setattr(geodesy, "_edge_costs", second_block_fails)
    with pytest.raises(RuntimeError) as raised:
        small_graph(spec=CW3, n_points=2000)
    assert raised.value is failure and len(calls) == 2
    assert threading.active_count() == threads


def reference_refine(graph, raw_path, target_coords=None):
    """Corridor refinement with every directed arc costed on its own by the
    per-direction formula; the raw path's hops are arcs whatever their
    length."""
    balls = graph.tree.query_ball_point(graph.points[raw_path],
                                        geodesy.CORRIDOR_TUBE_FACTOR * graph.median_chord)
    corridor = np.unique(np.concatenate(balls))
    node_pts = graph.points[corridor]
    path = [int(np.searchsorted(corridor, v)) for v in raw_path]
    if target_coords is not None:
        node_pts = np.vstack([node_pts, target_coords])
        path.append(len(node_pts) - 1)
    pairs = cKDTree(node_pts).query_pairs(2.0 * math.sin(geodesy.CHUNK_ARC / 2.0))
    hops = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
    pairs = np.array(sorted(pairs | hops)).reshape(-1, 2)
    ii = np.concatenate([pairs[:, 0], pairs[:, 1]])
    jj = np.concatenate([pairs[:, 1], pairs[:, 0]])
    costs = per_direction_arc_costs(graph.spec, node_pts[ii], node_pts[jj])
    sub = csr_matrix((costs, (ii, jj)), shape=(len(node_pts),) * 2)
    return float(dijkstra(sub, indices=path[0])[path[-1]])


# ------------------------------------------------- per-query reference copies

def per_query_raw_search(graph, source):
    """The raw search of one query: one plain unbounded Dijkstra."""
    return dijkstra(graph.matrix, directed=True, indices=source, return_predecessors=True)


def per_query_refine(graph, raw_path, target_coords=None):
    """The pruned corridor refinement of one query in a matrix of its own,
    as it ran before queries were batched."""
    balls = graph.tree.query_ball_point(graph.points[raw_path],
                                        geodesy.CORRIDOR_TUBE_FACTOR * graph.median_chord)
    corridor = np.unique(np.concatenate(balls))
    ends = graph.points[raw_path]
    if target_coords is not None:
        ends = np.vstack([ends, target_coords])
    bound = sum(_arc_costs(graph.spec, ends[:-1], ends[1:])[0].tolist())
    lam = geodesy._min_unit_norm(graph.spec)
    angles = np.arccos(np.clip(graph.points[corridor] @ ends[[0, -1]].T, -1.0, 1.0))
    keep = (lam * (angles[:, 0] + angles[:, 1])
            <= bound * (1.0 + geodesy.PRUNE_MARGIN) + lam * geodesy.PRUNE_MARGIN)
    keep[np.searchsorted(corridor, raw_path)] = True
    return corridor_distance(graph, corridor[keep], raw_path, target_coords)


def corridor_distance(graph, corridor, raw_path, target_coords):
    """Shortest path through the sorted sample indices `corridor` (plus an
    off-sample target), each pair costed once for both directions."""
    node_pts = graph.points[corridor]
    if target_coords is not None:
        node_pts = np.vstack([node_pts, target_coords])
    n = len(node_pts)
    path = np.searchsorted(corridor, raw_path)
    if target_coords is not None:
        path = np.append(path, n - 1)
    chord = 2.0 * math.sin(geodesy.CHUNK_ARC / 2.0)
    pairs = geodesy.cKDTree(node_pts).query_pairs(chord, output_type="ndarray")
    hops = np.minimum(path[:-1], path[1:]) * n + np.maximum(path[:-1], path[1:])
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], hops]))
    i, j = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    node_cols = np.ascontiguousarray(node_pts.T)
    forward, reverse = _arc_costs(graph.spec, np.take(node_cols, i, axis=1).T,
                                  np.take(node_cols, j, axis=1).T)
    sub = csr_matrix((np.concatenate([reverse, forward]),
                      (np.concatenate([j, i]), np.concatenate([i, j]))), shape=(n, n))
    return float(dijkstra(sub, directed=True, indices=path[0])[path[-1]])


def reference_distance(g, source, target, refine=per_query_refine):
    """(refined, raw, hops, snap) of one vertex query, one query at a time."""
    dist, pred = per_query_raw_search(g, source)
    path = geodesy._walk_predecessors(pred, source, target)
    return refine(g, path), float(dist[target]), len(path) - 1, 0.0


def reference_distance_to_coords(g, source, coords, refine=per_query_refine):
    """(refined, raw, hops, snap) of one off-sample query, one query at a time."""
    snap, cand = g.tree.query(coords, k=g.k)
    legs = geodesy._tangent_chords(g.points[cand], coords[None, :])
    leg_costs = _edge_costs(g.spec, g.points[cand], legs)
    dist, pred = per_query_raw_search(g, source)
    totals = dist[cand] + leg_costs
    path = geodesy._walk_predecessors(pred, source, int(cand[np.argmin(totals)]))
    return (refine(g, path, target_coords=coords), float(np.min(totals)), len(path) - 1,
            float(snap[0]))


def reference_answers(g, pairs, sources, targets, refine=per_query_refine):
    """Refined distance, raw distance, hops and snap of every vertex query,
    then of every off-sample query, one query at a time."""
    rows = ([reference_distance(g, i, j, refine) for i, j in pairs]
            + [reference_distance_to_coords(g, src, t, refine)
               for src, t in zip(sources, targets)])
    return [np.array(column) for column in zip(*rows)]


def batch_answers(g, pairs, sources, targets):
    """The same four columns from one batch of vertex queries and one of
    off-sample queries."""
    vertex = distances(g, pairs[:, 0], pairs[:, 1])
    coords = distances_to_coords(g, sources, targets)
    return [np.concatenate([getattr(vertex, name), getattr(coords, name)])
            for name in ("distance", "raw", "hops", "snap")]


def assert_refinement_matches_reference(g, seed):
    gen = RngStream(seed).split(1).gen
    pairs = gen.integers(0, g.n_points, (8, 2))
    targets = gen.standard_normal((8, g.points.shape[1]))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    fast = batch_answers(g, pairs, pairs[:, 0], targets)[0]
    slow = reference_answers(g, pairs, pairs[:, 0], targets, refine=reference_refine)[0]
    assert np.all(slow > 0.0)
    assert np.max(np.abs(fast - slow) / slow) <= 1e-12


@pytest.mark.parametrize("spec,seed", [(ROUND3, 43), (CW3, 44)])
def test_corridor_refinement_matches_per_direction_reference(spec, seed):
    assert_refinement_matches_reference(small_graph(spec=spec, n_points=3000, seed=seed),
                                        seed)


def test_sparse_corridor_refinement_matches_per_direction_reference():
    # samples further apart than CHUNK_ARC: the raw path's hops join the corridor
    assert_refinement_matches_reference(small_graph(spec=SP7, n_points=900, k=10, seed=27),
                                        27)


def test_corridor_arcs_reach_csr_matrix_in_canonical_order(monkeypatch):
    # bucketed by row as csr_matrix does, the entries of a group of
    # corridors come out sorted by column in every row, so building the
    # matrix sorts nothing
    g = small_graph(spec=CW3, n_points=1500, seed=45)
    canonical = []
    real = geodesy.csr_matrix

    def spy(arg, shape):
        _, (rows, cols) = arg
        order = np.argsort(rows, kind="stable")
        canonical.append(bool(np.all(np.diff(rows[order] * shape[1] + cols[order]) > 0)))
        return real(arg, shape=shape)
    monkeypatch.setattr(geodesy, "csr_matrix", spy)
    monkeypatch.setattr(geodesy, "GROUP_PAIRS", 2 ** 40)
    distances(g, [0, 700, 5, 17], [700, 0, 900, 17])
    distances_to_coords(g, [3, 8], -g.points[[3, 8]])
    assert canonical == [True, True]


INTERIOR_SPECS = [      # lambda at a stationary point inside (-1, 1)
    (RandersSpec("u_sphere", n=1, a=4.0, b=1.0, c=0.5), 4),
    (RandersSpec("u_sphere", n=2, a=3.0, b=1.2, c=-0.9), 6),
    (RandersSpec("sp_sphere", n=1, a1=4.0, a2=0.8, b=1.2, c=-0.3), 8),
]


def reduced_norm(spec, q):
    """The invariant norm of the round-unit tangent whose distinguished m0
    coordinate is q and whose other part lies along the cheapest axis."""
    q = np.asarray(q, dtype=float)
    rest = 1.0 - q * q
    if spec.family == "u_sphere":
        return randers_norm_array(spec, q[..., None], rest)
    if spec.a2 <= spec.b:
        m0 = np.stack([q, np.sqrt(rest), np.zeros_like(q)], axis=-1)
        return randers_norm_array(spec, m0, np.zeros_like(q))
    m0 = np.stack([q, np.zeros_like(q), np.zeros_like(q)], axis=-1)
    return randers_norm_array(spec, m0, rest)


def unit_tangent_norms(spec, dim, count, gen):
    """Invariant norms of random round-unit tangent vectors at random points,
    transported to the base point as the graph kernels do."""
    pts = gen.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vecs = gen.standard_normal((count, dim))
    vecs -= np.sum(vecs * pts, axis=1)[:, None] * pts
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return randers_norm_array(spec, *geodesy._tangent_parts(spec.family, pts.T, vecs.T))


@pytest.mark.parametrize("spec,dim", ARC_SPEC_LIST + INTERIOR_SPECS)
def test_min_unit_norm_is_a_lower_bound_and_attained(spec, dim):
    lam = geodesy._min_unit_norm(spec)
    gen = RngStream(70).gen
    assert lam > 0.0
    assert unit_tangent_norms(spec, dim, 20000, gen).min() >= lam
    # every split of a unit tangent between the m0 and m1 parts
    sweep = gen.uniform(-1.0, 1.0, 20000)
    assert reduced_norm(spec, sweep).min() >= lam
    # attained: at an end of [-1, 1] or at the stationary point inside
    inner = minimize_scalar(lambda q: float(reduced_norm(spec, q)), bounds=(-1.0, 1.0),
                            method="bounded", options={"xatol": 1e-10}).x
    least = reduced_norm(spec, np.array([-1.0, 1.0, inner])).min()
    assert abs(least - lam) <= 1e-12


def test_min_unit_norm_covers_both_branches():
    # the solved metrics (a = b + c^2) and the round one take an end of
    # [-1, 1]; INTERIOR_SPECS take the stationary point
    for spec, _ in ARC_SPEC_LIST:
        assert geodesy._min_unit_norm(spec) == pytest.approx(
            math.sqrt(spec.a if spec.family == "u_sphere" else spec.a1) - abs(spec.c))
    for spec, _ in INTERIOR_SPECS:
        assert geodesy._min_unit_norm(spec) < math.sqrt(
            spec.a if spec.family == "u_sphere" else spec.a1) - abs(spec.c) - 1e-3


def round_angle(x, y):
    return math.acos(min(1.0, max(-1.0, float(np.dot(x, y)))))


@pytest.mark.parametrize("spec,n_points,k,seed", [(ROUND3, 3000, 12, 71),
                                                  (CW3, 3000, 12, 72),
                                                  (SP7, 900, 10, 27)])
def test_distances_never_below_min_unit_norm_times_angle(spec, n_points, k, seed):
    g = small_graph(spec=spec, n_points=n_points, k=k, seed=seed)
    lam = geodesy._min_unit_norm(spec)
    gen = RngStream(seed).split(2).gen
    pairs = gen.integers(0, g.n_points, (12, 2))
    targets = gen.standard_normal((12, g.points.shape[1]))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    to_vertex = distances(g, pairs[:, 0], pairs[:, 1]).distance
    to_coords = distances_to_coords(g, pairs[:, 0], targets).distance
    for (i, j), target, dv, dc in zip(pairs, targets, to_vertex, to_coords):
        assert dv >= lam * round_angle(g.points[i], g.points[j]) * (1.0 - 1e-12)
        assert dc >= lam * round_angle(g.points[i], target) * (1.0 - 1e-12)


def unpruned_refine(graph, raw_path, target_coords=None):
    """Corridor refinement over the whole tube, with no lower-bound pruning:
    the same tube, arcs, costs and matrix layout as `per_query_refine`."""
    balls = graph.tree.query_ball_point(graph.points[raw_path],
                                        geodesy.CORRIDOR_TUBE_FACTOR * graph.median_chord)
    return corridor_distance(graph, np.unique(np.concatenate(balls)), raw_path,
                             target_coords)


PRUNE_GRAPHS = [(ROUND3, 3000, 12, 60),
                (CW3, 3000, 12, 61),
                (solve_metric(OrbitParams(1, 1, 0.5, 1.0, 2.0)), 3000, 12, 62),
                (solve_metric(OrbitParams(2, 1, 0.3, 0.8, 1.0)), 3000, 12, 63),
                (SP7, 900, 10, 27)]


@pytest.fixture(scope="module")
def prune_graphs():
    return [small_graph(spec=spec, n_points=n_points, k=k, seed=seed)
            for spec, n_points, k, seed in PRUNE_GRAPHS]


BEYOND_TARGETS = 96


def prune_queries(g, seed):
    """Per graph: 24 vertex pairs (one a self-pair), 24 random off-sample
    targets (one an antipode, one a sample point itself), and
    `BEYOND_TARGETS` targets on the great circle from a source through its
    nearest neighbour u, just beyond u.  On the round metric the corridor
    path through u then ties the direct arc up to rounding, and a bound
    without margin drops u in a few of them."""
    gen = RngStream(seed).split(3).gen
    pairs = gen.integers(0, g.n_points, (24, 2))
    pairs[0, 1] = pairs[0, 0]
    sources = gen.integers(0, g.n_points, 24 + BEYOND_TARGETS)
    targets = gen.standard_normal((24, g.points.shape[1]))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    targets[0] = -g.points[sources[0]]
    targets[1] = g.points[sources[2]]
    src_pts = g.points[sources[24:]]
    nearest = g.points[g.matrix.indices[g.matrix.indptr[sources[24:]]]]
    dots = np.sum(src_pts * nearest, axis=1)[:, None]
    toward = nearest - dots * src_pts
    toward /= np.linalg.norm(toward, axis=1, keepdims=True)
    beyond = gen.uniform(1.02, 1.1, (BEYOND_TARGETS, 1)) * np.arccos(dots)
    beyond = np.cos(beyond) * src_pts + np.sin(beyond) * toward
    return pairs, sources, np.vstack([targets, beyond])


@pytest.fixture(scope="module")
def prune_references(prune_graphs):
    """Per graph: its queries and their per-query answers."""
    out = []
    for g, (_, _, _, seed) in zip(prune_graphs, PRUNE_GRAPHS):
        queries = prune_queries(g, seed)
        out.append((queries, reference_answers(g, *queries)))
    return out


@pytest.mark.parametrize("budget", [0, 2 ** 40], ids=["group-per-corridor", "one-group"])
def test_batched_answers_equal_per_query_reference(prune_graphs, prune_references,
                                                   monkeypatch, budget):
    # queries include a self-pair, an antipode, a sample point as target and
    # the targets just beyond a neighbour
    matrices = []
    real = geodesy.csr_matrix

    def spy(*args, **kwargs):
        matrices.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(geodesy, "csr_matrix", spy)
    monkeypatch.setattr(geodesy, "GROUP_PAIRS", budget)
    for g, (queries, reference) in zip(prune_graphs, prune_references):
        batch = batch_answers(g, *queries)
        for got, want in zip(batch, reference):
            assert got.tolist() == want.tolist()        # to the last bit
    queries = len(PRUNE_GRAPHS) * (48 + BEYOND_TARGETS)
    assert len(matrices) == (queries if budget == 0 else 2 * len(PRUNE_GRAPHS))


def test_pruned_corridor_answers_equal_unpruned(prune_graphs, monkeypatch):
    sizes = {"pruned": [], "unpruned": []}
    real = geodesy.cKDTree

    def counting_tree(label):
        def tree(data, *args, **kwargs):
            sizes[label].append(len(data))
            return real(data, *args, **kwargs)
        return tree
    pruned, unpruned = [], []
    for g, (_, _, _, seed) in zip(prune_graphs, PRUNE_GRAPHS):
        queries = prune_queries(g, seed)
        monkeypatch.setattr(geodesy, "cKDTree", counting_tree("pruned"))
        pruned += batch_answers(g, *queries)[0].tolist()
        monkeypatch.setattr(geodesy, "cKDTree", counting_tree("unpruned"))
        unpruned += reference_answers(g, *queries, refine=unpruned_refine)[0].tolist()
    assert len(pruned) == len(PRUNE_GRAPHS) * (48 + BEYOND_TARGETS)
    assert pruned == unpruned           # to the last bit
    # the pruning is not vacuous: the corridors shrank
    assert len(sizes["pruned"]) == len(pruned)
    assert sum(sizes["pruned"]) < sum(sizes["unpruned"])


def test_shortcut_bound_lies_between_answer_and_hops(prune_graphs, monkeypatch):
    # D, the cheapest in-order path over the raw path's own points, is a
    # real corridor path: no shorter than the answer and no longer than the
    # hops, and its corridors are smaller than the hops' sum keeps
    bounds, sizes = [], {"shortcut": 0, "hops": 0}
    real = geodesy._corridor

    def corridor(graph, raw_path, ends, bound, off_sample):
        hop_sum = sum(_arc_costs(graph.spec, ends[:-1], ends[1:])[0].tolist())
        bounds.append((bound, hop_sum))
        sizes["hops"] += len(real(graph, raw_path, ends, hop_sum, off_sample).points)
        out = real(graph, raw_path, ends, bound, off_sample)
        sizes["shortcut"] += len(out.points)
        return out
    monkeypatch.setattr(geodesy, "_corridor", corridor)
    refined = []
    for g, (_, _, _, seed) in zip(prune_graphs, PRUNE_GRAPHS):
        refined += batch_answers(g, *prune_queries(g, seed))[0].tolist()
    assert len(bounds) == len(refined) == len(PRUNE_GRAPHS) * (48 + BEYOND_TARGETS)
    for answer, (bound, hop_sum) in zip(refined, bounds):
        assert answer * (1.0 - 1e-12) <= bound <= hop_sum
    assert sizes["shortcut"] < sizes["hops"]


# ------------------------------------------------------------------ distances

def test_distance_self_is_zero():
    g = small_graph(n_points=600)
    rep = distances(g, [17], [17])
    assert rep.distance.tolist() == [0.0]
    assert rep.hops.tolist() == [0]


def test_distance_adjacent_equals_edge_weight():
    g = small_graph(n_points=800)
    _, nearest = g.tree.query(g.points[5], k=6)
    heads, weights = out_edges(g, 5)
    raw = distances(g, [5] * 5, nearest[1:]).raw
    for j, d in zip(nearest[1:], raw):
        w = weights[np.where(heads == j)[0][0]]
        assert abs(d - w) <= 1e-12


def test_distance_rejects_bad_vertex_indices():
    g = small_graph(n_points=600)
    for source, target in [(0, -1), (-1, 5), (0, 600), (600, 0), (0, 2.0),
                           (0, "3"), (True, 5), (0, None)]:
        with pytest.raises(InvalidInput, match="vertex index"):
            distances(g, [source], [target])
    point = g.points[5]
    for source in (700, -1, 1.5):
        with pytest.raises(InvalidInput, match="vertex index"):
            distances_to_coords(g, [source], [point])
    # numpy integers are vertex indices too
    assert distances(g, [np.int64(0)], np.array([5], np.int32)).distance[0] > 0.0


def test_distance_batches_need_one_target_per_source():
    g = small_graph(n_points=600)
    for sources, targets in [([0, 1], [5]), ([0], [5, 6]), ([], [])]:
        with pytest.raises(InvalidInput, match="one target per source"):
            distances(g, sources, targets)
        with pytest.raises(InvalidInput, match="one target per source"):
            distances_to_coords(g, sources, g.points[targets])


def test_distance_to_coords_rejects_off_sphere_points():
    g = small_graph(n_points=600)
    p = g.points[5]
    bad = {"scaled": 5.0 * p, "zero": np.zeros(4), "short": p[:3],
           "long": np.append(p, 0.0), "matrix": p[None, :], "nan": np.where(p == p[0], np.nan, p),
           "inf": np.where(p == p[0], np.inf, p), "complex": p + 0j,
           "text": ["a", "b", "c", "d"], "ragged": [[1.0], [0.0, 0.0]],
           "off by 1e-8": p * (1.0 + 1e-8)}
    for coords in bad.values():
        with pytest.raises(InvalidInput, match="coordinates"):
            distances_to_coords(g, [0], [coords])
    # one bad row refuses the batch
    with pytest.raises(InvalidInput, match="unit sphere"):
        distances_to_coords(g, [0, 1], [p, 5.0 * p])
    # a flat point is not a batch of points
    with pytest.raises(InvalidInput, match="shape"):
        distances_to_coords(g, [0], p)
    # rounding-level deviations of the norm, as a flow's image has, pass
    assert distances_to_coords(g, [0], [p * (1.0 + 1e-12)]).distance[0] > 0.0
    assert distances_to_coords(g, [0], [list(p)]).distance[0] > 0.0


def test_distance_round_antipodal_small_n():
    g = small_graph(n_points=4000, seed=9)
    rep = distances_to_coords(g, [0], -g.points[[0]])
    assert abs(rep.distance[0] - math.pi) / math.pi <= 0.04
    assert rep.snap[0] <= 3.0 * median_edge(g)


def test_antipode_search_runs_once(monkeypatch):
    # an antipodal pair has no unique great circle; the greedy walk bounds
    # its search like any other, and the search runs once
    g = small_graph(n_points=4000, seed=9)
    want = reference_distance_to_coords(g, 0, -g.points[0])
    limits = record_raw_limits(monkeypatch, g)
    rep = distances_to_coords(g, [0], -g.points[[0]])
    assert len(limits) == 1
    assert (rep.distance[0], rep.raw[0], rep.hops[0], rep.snap[0]) == want


def test_distance_round_symmetry():
    g = small_graph(n_points=4000, seed=10)
    pairs = RngStream(11).gen.integers(0, 4000, (5, 2))
    dij = distances(g, pairs[:, 0], pairs[:, 1]).distance
    dji = distances(g, pairs[:, 1], pairs[:, 0]).distance
    assert np.all(np.abs(dij - dji) / np.maximum(dij, dji) <= 0.02)


def test_round_distances_against_the_exact_arccos():
    # On the round S^3 the exact distance is arccos <x, y>, so the graph's
    # own error is measured, not a proxy.  Survey at this size (N = 8000,
    # k = 12, graphs RngStream(s) for s = 0..15, 50 pairs of distinct
    # vertices each from RngStream(s).split(1)): the refined distance was
    # never below exact by more than 5.6e-17, its median error was +0.68%
    # to +0.93% and its max +1.7% to +4.7%; the raw graph's median +12-15%.
    g = build_graph(ROUND3, 8000, 12, RngStream(0))
    i, j = RngStream(0).split(1).gen.choice(8000, (2, 50))
    i, j = i[i != j], j[i != j]
    exact = np.arccos(np.clip(np.sum(g.points[i] * g.points[j], axis=1), -1.0, 1.0))
    refined = distances(g, i, j).distance
    assert len(i) >= 45 and np.all(refined >= exact - 1e-12)
    rel = (refined - exact) / exact
    assert np.median(rel) <= 0.012 and rel.max() <= 0.06


def test_distance_refinement_never_longer_than_raw():
    g = small_graph(n_points=1500, seed=12)
    pairs = RngStream(13).gen.integers(0, 1500, (10, 2))
    rep = distances(g, pairs[:, 0], pairs[:, 1])
    assert np.all(rep.distance <= rep.raw + 1e-9)


def test_distance_triangle_inequality_with_slack():
    g = small_graph(n_points=1500, seed=14)
    x, y, z = RngStream(15).gen.integers(0, 1500, (10, 3)).T
    dxz = distances(g, x, z).distance
    dxy = distances(g, x, y).distance
    dyz = distances(g, y, z).distance
    assert np.all(dxz <= dxy + dyz + 2.0 * median_edge(g))


def test_distance_convergence_across_density_levels():
    errs = []
    for n_points in (1000, 2000, 4000):
        g = build_graph(ROUND3, n_points, 12, RngStream(16).split(n_points))
        est = distances_to_coords(g, [0], -g.points[[0]]).distance[0]
        errs.append(abs(est - math.pi))
    # monotone decrease within noise: each level at most 1.3x the previous
    assert errs[1] <= errs[0] * 1.3
    assert errs[2] <= errs[1] * 1.3
    assert errs[2] < errs[0]


def test_flow_invariance_of_distances():
    # left translations are isometries: distances are preserved up to
    # discretization noise
    g = small_graph(spec=CW3, n_points=4000, seed=17)
    flow = u_flow(1j * np.diag([-0.5, 1.5]), 0.4)
    pairs = RngStream(18).gen.integers(0, 4000, (5, 2))
    d_before = distances(g, pairs[:, 0], pairs[:, 1]).distance
    ends = g.points[pairs.ravel()]
    moved = apply_flow(flow, ends[:, :2] + 1j * ends[:, 2:])
    moved = np.concatenate([moved.real, moved.imag], axis=1).reshape(5, 2, 4)
    si, vi = g.tree.query(moved[:, 0])
    d_after = distances_to_coords(g, vi, moved[:, 1]).distance
    # moving the source to its nearest vertex adds at most a hop of error
    assert np.all(np.abs(d_after - d_before) <= 0.05 * np.maximum(d_before, 1.0) + 2 * si)


@pytest.fixture(scope="module")
def readme_graph():
    return build_graph(CW3, 20000, 12, RngStream(41))


def bounded_queries(g):
    gen = RngStream(42).gen
    pairs = gen.integers(0, g.n_points, (50, 2))
    sources = gen.integers(0, g.n_points, 50)
    targets = gen.standard_normal((50, 4))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return pairs, sources, targets


def query_answers(g, pairs, sources, targets):
    """Raw distance, hops and refined distance of every vertex query, then
    raw and refined distance of every off-sample query."""
    vertex = distances(g, pairs[:, 0], pairs[:, 1])
    coords = distances_to_coords(g, sources, targets)
    return (list(zip(vertex.raw, vertex.hops, vertex.distance))
            + list(zip(coords.raw, coords.distance)))


def record_raw_limits(monkeypatch, g):
    """Spy on the Dijkstra calls over the full graph; returns their limits."""
    limits = []
    real = geodesy.dijkstra

    def spy(matrix, *args, **kwargs):
        if matrix is g.matrix:
            limits.append(kwargs.get("limit", math.inf))
        return real(matrix, *args, **kwargs)
    monkeypatch.setattr(geodesy, "dijkstra", spy)
    return limits


def record_walk_limits(monkeypatch):
    """Spy on `_walk_limits`; returns the totals it hands out, in order."""
    walks = []
    real = geodesy._walk_limits

    def spy(*args):
        out = real(*args)
        walks.extend(out.tolist())
        return out
    monkeypatch.setattr(geodesy, "_walk_limits", spy)
    return walks


@pytest.fixture(scope="module")
def unbounded_answers(readme_graph):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesy, "_walk_limits",
                   lambda g, sources, *rest: np.full(len(sources), math.inf))
        return query_answers(readme_graph, *bounded_queries(readme_graph))


def test_bounded_dijkstra_matches_unbounded(readme_graph, unbounded_answers,
                                            monkeypatch):
    # one full-graph Dijkstra per query, bounded by its walk's total: finite
    # exactly where the walk reached a candidate, inf where it stalled
    walks = record_walk_limits(monkeypatch)
    limits = record_raw_limits(monkeypatch, readme_graph)
    assert query_answers(readme_graph, *bounded_queries(readme_graph)) \
        == unbounded_answers
    assert len(limits) == 100
    assert limits == walks


def test_walk_limits_bound_the_raw_searches(readme_graph, monkeypatch):
    # a greedy walk that reaches a candidate is a real path, so its total is
    # never below the raw distance
    walks = record_walk_limits(monkeypatch)
    pairs, sources, targets = bounded_queries(readme_graph)
    raw = np.concatenate([distances(readme_graph, pairs[:, 0], pairs[:, 1]).raw,
                          distances_to_coords(readme_graph, sources, targets).raw])
    assert len(walks) == len(raw) == 100
    assert np.all(raw <= np.array(walks))
    # 98 of the 100 walks reach a candidate
    assert np.mean(np.isfinite(walks)) >= 0.9


# -------------------------------------------------------------- displacement

def test_displacement_identity_flow_small():
    g = small_graph(n_points=900, seed=19)
    rep = displacement_profile(g, u_flow(np.zeros((2, 2)), 0.0), 10,
                               RngStream(20))
    assert rep.distance.max() <= median_edge(g)


def test_displacement_hopf_rotation_constant():
    # the profile measures; `checks._profile` judges it, as the checks do
    g = small_graph(n_points=4000, seed=21)
    rep = displacement_profile(g, u_flow(1j * np.eye(2), 0.5), 25,
                               RngStream(22))
    summary = checks._profile(rep)
    assert summary["verdict"] == "constant"
    assert abs(summary["mean"] - 0.5) <= 0.05


def test_displacement_batch_size_keeps_the_bits():
    # 7 points in batches of 1, 3 (a short last batch) and all at once
    g = small_graph(n_points=900, seed=19)
    flow = u_flow(1j * np.eye(2), 0.5)
    reps = [displacement_profile(g, flow, 7, RngStream(24), batch=b) for b in (1, 3, None)]
    for rep in reps:
        for name in ("distance", "raw", "hops", "snap"):
            assert getattr(rep, name).shape == (7,)
            assert getattr(rep, name).tobytes() == getattr(reps[2], name).tobytes()
    with pytest.raises(InvalidInput, match="batch"):
        displacement_profile(g, flow, 7, RngStream(24), batch=0)


def test_displacement_points_beyond_vertex_count_is_usage_error():
    g = small_graph(n_points=600)
    flow = u_flow(1j * np.eye(2), 0.5)
    for count in (0, 601):
        with pytest.raises(InvalidInput, match="need 1 to 600 sample points"):
            displacement_profile(g, flow, count, RngStream(23))
    assert len(displacement_profile(g, flow, 600, RngStream(23)).distance) == 600
    assert len(displacement_profile(g, flow, 1, RngStream(23)).distance) == 1


def test_displacement_family_mismatch():
    # a unitary flow acts on points of C^(n+1), not on an sp_sphere graph's
    g = build_graph(SP7, 500, 10, RngStream(27))
    with pytest.raises(InvalidInput, match="u_sphere"):
        displacement_profile(g, u_flow(1j * np.eye(4), 0.1), 5, RngStream(23))


# ------------------------------------------------------------- other families


def test_sp_graph_builds_and_connects():
    g = build_graph(SP7, 900, 10, RngStream(27))
    rep = distances(g, [0], [500])
    assert 0.0 < rep.raw[0] < math.inf
    # the samples lie further apart than CHUNK_ARC here (median edge chord
    # 0.61 on S^7), so the corridor is joined by the raw path's own hops
    assert 0.0 < rep.distance[0] < math.inf

