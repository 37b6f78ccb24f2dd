import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from cwspheres import geodesy
from cwspheres.errors import InvalidInput
from cwspheres.flows import su2_flow, u_flow
from cwspheres.geodesy import (_arc_costs, _edge_costs, build_graph,
                               displacement_profile, distance,
                               distance_to_coords)
from cwspheres.killing import OrbitParams, solve_metric
from cwspheres.matrixcore import RngStream
from cwspheres.randers import RandersSpec, round_spec

ROUND3 = round_spec("u_sphere", 1)
CW3 = solve_metric(OrbitParams(1, 1, 0.5, 1.0, 1.0))
SP7 = RandersSpec("sp_sphere", n=1, a1=1.0, a2=1.3, b=1.0, c=0.2)


def small_graph(spec=ROUND3, n_points=2500, k=12, seed=100):
    return build_graph(spec, n_points, k, RngStream(seed))


def out_edges(g, i):
    """Heads and weights of the directed edges leaving vertex i."""
    lo, hi = g.matrix.indptr[i], g.matrix.indptr[i + 1]
    return g.matrix.indices[lo:hi], g.matrix.data[lo:hi]


# ------------------------------------------------------------------ building

def test_build_validates_parameters():
    with pytest.raises(InvalidInput):
        build_graph(ROUND3, 100, 12, RngStream(0))
    with pytest.raises(InvalidInput):
        build_graph(ROUND3, 600, 4, RngStream(0))
    with pytest.raises(InvalidInput):       # the spec alone sizes the sphere
        build_graph(RandersSpec("u_sphere", n=0, a=1.0, b=1.0), 600, 8, RngStream(0))
    for k in (600, 100000):    # a vertex has at most n_points - 1 neighbours
        with pytest.raises(InvalidInput):
            build_graph(ROUND3, 600, k, RngStream(0))


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
    m1 = small_graph(n_points=1000, seed=7).median_edge
    m4 = small_graph(n_points=4000, seed=8).median_edge
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
    assert abs(g.median_chord - g.median_edge) <= 1e-12 * g.median_edge


# ------------------------------------------------------------------ arc costs

def per_direction_arc_costs(spec, starts, ends):
    """Slow reference: the closed-form length of each arc from its own start,
    one direction per call."""
    dot = np.clip(np.sum(starts * ends, axis=1), -1.0, 1.0)
    theta = np.arccos(dot)
    perp = ends - dot[:, None] * starts
    pn = np.linalg.norm(perp, axis=1)
    degenerate = pn <= 1e-14
    perp = perp / np.where(degenerate, 1.0, pn)[:, None]
    return np.where(degenerate, 0.0, theta * _edge_costs(spec, starts, perp))


def simpson_arc_costs(spec, starts, ends):
    """Reference: 5-node Simpson quadrature of the invariant norm along the
    great-circle arc from each start to each end."""
    dot = np.clip(np.sum(starts * ends, axis=1), -1.0, 1.0)
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


ARC_SPECS = pytest.mark.parametrize("spec,dim", [
    (CW3, 4),
    (RandersSpec("u_sphere", n=3, a=2.0, b=1.5, c=-0.8), 8),
    (RandersSpec("su2", a=1.3, b=1.0, c=0.4), 4),
    (RandersSpec("sp_sphere", n=1, a1=1.0, a2=1.3, b=1.0, c=0.2), 8),
    (RandersSpec("sp_sphere", n=2, a1=1.2, a2=1.5, b=1.0, c=0.3), 12),
])


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


def assert_refinement_matches_reference(g, seed, monkeypatch):
    gen = RngStream(seed).split(1).gen
    pairs = gen.integers(0, g.n_points, (8, 2))
    targets = gen.standard_normal((8, g.points.shape[1]))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)

    def answers():
        return np.array([distance(g, i, j).distance for i, j in pairs]
                        + [distance_to_coords(g, i, t)[0]
                           for i, t in zip(pairs[:, 0], targets)])
    fast = answers()
    monkeypatch.setattr(geodesy, "_corridor_refine", reference_refine)
    slow = answers()
    assert np.all(slow > 0.0)
    assert np.max(np.abs(fast - slow) / slow) <= 1e-12


@pytest.mark.parametrize("spec,seed", [(ROUND3, 43), (CW3, 44)])
def test_corridor_refinement_matches_per_direction_reference(spec, seed, monkeypatch):
    assert_refinement_matches_reference(small_graph(spec=spec, n_points=3000, seed=seed),
                                        seed, monkeypatch)


def test_sparse_corridor_refinement_matches_per_direction_reference(monkeypatch):
    # samples further apart than CHUNK_ARC: the raw path's hops join the corridor
    assert_refinement_matches_reference(small_graph(spec=SP7, n_points=900, k=10, seed=27),
                                        27, monkeypatch)


def test_corridor_arcs_reach_csr_matrix_in_canonical_order(monkeypatch):
    # bucketed by row as csr_matrix does, the corridor's entries come out
    # sorted by column in every row, so building the matrix sorts nothing
    g = small_graph(spec=CW3, n_points=1500, seed=45)
    canonical = []
    real = geodesy.csr_matrix

    def spy(arg, shape):
        _, (rows, cols) = arg
        order = np.argsort(rows, kind="stable")
        canonical.append(bool(np.all(np.diff(rows[order] * shape[1] + cols[order]) > 0)))
        return real(arg, shape=shape)
    monkeypatch.setattr(geodesy, "csr_matrix", spy)
    distance(g, 0, 700)
    distance_to_coords(g, 3, -g.points[3])
    assert canonical == [True, True]


# ------------------------------------------------------------------ distances

def test_distance_self_is_zero():
    g = small_graph(n_points=600)
    rep = distance(g, 17, 17)
    assert rep.distance == 0.0
    assert rep.hops == 0


def test_distance_adjacent_equals_edge_weight():
    g = small_graph(n_points=800)
    _, nearest = g.tree.query(g.points[5], k=6)
    heads, weights = out_edges(g, 5)
    for j in nearest[1:]:
        w = weights[np.where(heads == j)[0][0]]
        assert abs(distance(g, 5, j).raw - w) <= 1e-12


def test_distance_round_antipodal_small_n():
    g = small_graph(n_points=4000, seed=9)
    est, _, snap = distance_to_coords(g, 0, -g.points[0])
    assert abs(est - math.pi) / math.pi <= 0.04
    assert snap <= 3.0 * g.median_edge


def test_distance_round_symmetry():
    g = small_graph(n_points=4000, seed=10)
    gen = RngStream(11).gen
    for _ in range(5):
        i, j = (int(v) for v in gen.integers(0, 4000, 2))
        dij = distance(g, i, j).distance
        dji = distance(g, j, i).distance
        assert abs(dij - dji) / max(dij, dji) <= 0.02


def test_distance_refinement_never_longer_than_raw():
    g = small_graph(n_points=1500, seed=12)
    gen = RngStream(13).gen
    for _ in range(10):
        i, j = (int(v) for v in gen.integers(0, 1500, 2))
        rep = distance(g, i, j)
        assert rep.distance <= rep.raw + 1e-9


def test_distance_triangle_inequality_with_slack():
    g = small_graph(n_points=1500, seed=14)
    gen = RngStream(15).gen
    for _ in range(10):
        x, y, z = (int(v) for v in gen.integers(0, 1500, 3))
        dxz = distance(g, x, z).distance
        dxy = distance(g, x, y).distance
        dyz = distance(g, y, z).distance
        assert dxz <= dxy + dyz + 2.0 * g.median_edge


def test_distance_convergence_across_density_levels():
    errs = []
    for n_points in (1000, 2000, 4000):
        g = build_graph(ROUND3, n_points, 12, RngStream(16).split(n_points))
        est, _, _ = distance_to_coords(g, 0, -g.points[0])
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
    gen = RngStream(18).gen
    from cwspheres.flows import apply_flow
    for _ in range(5):
        i, j = (int(v) for v in gen.integers(0, 4000, 2))
        d_before = distance(g, i, j).distance
        pi_c = g.points[i][:2] + 1j * g.points[i][2:]
        pj_c = g.points[j][:2] + 1j * g.points[j][2:]
        qi = apply_flow(flow, pi_c)
        qj = apply_flow(flow, pj_c)
        si, vi = g.tree.query(np.concatenate([qi.real, qi.imag]))
        d_after, _, _ = distance_to_coords(g, vi, np.concatenate([qj.real, qj.imag]))
        # moving the source to its nearest vertex adds at most a hop of error
        assert abs(d_after - d_before) <= 0.05 * max(d_before, 1.0) + 2 * si


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
    answers = []
    for i, j in pairs:
        rep = distance(g, i, j)
        answers.append((rep.raw, rep.hops, rep.distance))
    for src, target in zip(sources, targets):
        refined, raw, _ = distance_to_coords(g, src, target)
        answers.append((raw, refined))
    return answers


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


@pytest.fixture(scope="module")
def unbounded_answers(readme_graph):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesy, "_raw_limit", lambda *args: math.inf)
        return query_answers(readme_graph, *bounded_queries(readme_graph))


def test_bounded_dijkstra_matches_unbounded(readme_graph, unbounded_answers,
                                            monkeypatch):
    limits = record_raw_limits(monkeypatch, readme_graph)
    assert query_answers(readme_graph, *bounded_queries(readme_graph)) \
        == unbounded_answers
    searches = sum(math.isfinite(x) for x in limits)
    fallbacks = len(limits) - searches
    assert searches == 100
    assert fallbacks <= 5


def test_bounded_dijkstra_fallback_on_forced_miss(readme_graph,
                                                  unbounded_answers,
                                                  monkeypatch):
    monkeypatch.setattr(geodesy, "_raw_limit", lambda *args: 0.0)
    limits = record_raw_limits(monkeypatch, readme_graph)
    pairs, sources, targets = bounded_queries(readme_graph)
    answers = query_answers(readme_graph, pairs[:10], sources[:10], targets[:10])
    assert answers == unbounded_answers[:10] + unbounded_answers[50:60]
    assert limits.count(0.0) == limits.count(math.inf) == 20


# -------------------------------------------------------------- displacement

def test_displacement_identity_flow_small():
    g = small_graph(n_points=900, seed=19)
    prof = displacement_profile(g, u_flow(np.zeros((2, 2)), 0.0), 10,
                                RngStream(20))
    assert prof.max <= g.median_edge


def test_displacement_hopf_rotation_constant():
    g = small_graph(n_points=4000, seed=21)
    prof = displacement_profile(g, u_flow(1j * np.eye(2), 0.5), 25,
                                RngStream(22))
    assert prof.verdict == "constant"
    assert abs(prof.mean - 0.5) <= 0.05


def test_displacement_points_beyond_vertex_count_is_usage_error():
    g = small_graph(n_points=600)
    flow = u_flow(1j * np.eye(2), 0.5)
    with pytest.raises(InvalidInput):
        displacement_profile(g, flow, 601, RngStream(23))
    assert len(displacement_profile(g, flow, 600, RngStream(23)).displacements) == 600


def test_displacement_family_mismatch():
    g = small_graph(n_points=600)
    with pytest.raises(InvalidInput):
        displacement_profile(g, su2_flow([1, 0, 0], [0, 0, 0], 0.1), 5,
                             RngStream(23))


# ------------------------------------------------------------- other families

def test_su2_graph_round_distance():
    spec = RandersSpec("su2", a=1.0, b=1.0, c=0.0)
    g = build_graph(spec, 3000, 12, RngStream(24))
    est, _, _ = distance_to_coords(g, 0, -g.points[0])
    assert abs(est - math.pi) / math.pi <= 0.05


def test_su2_graph_displacement_of_left_translation():
    # left translation by exp(t X) moves every point the same distance
    spec = RandersSpec("su2", a=1.0, b=1.0, c=0.0)
    g = build_graph(spec, 3000, 12, RngStream(25))
    flow = su2_flow([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.5)
    prof = displacement_profile(g, flow, 15, RngStream(26))
    assert prof.verdict == "constant"
    assert abs(prof.mean - 0.5) <= 0.05


def test_sp_graph_builds_and_connects():
    g = build_graph(SP7, 900, 10, RngStream(27))
    rep = distance(g, 0, 500)
    assert 0.0 < rep.raw < math.inf
    # the samples lie further apart than CHUNK_ARC here (median edge chord
    # 0.61 on S^7), so the corridor is joined by the raw path's own hops
    assert 0.0 < rep.distance < math.inf

