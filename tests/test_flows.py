import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist

from cwspheres import checks, flows, matrixcore
from cwspheres.errors import InvalidInput
from cwspheres.flows import (ENDPOINT_BASE_POINTS, apply_flow, block_angle_unitary,
                             commutator_eig1_persistence, endpoint_focus_check,
                             geodesic_nonintersection_probe, phase_bound_check,
                             u_flow)
from cwspheres.matrixcore import (RngStream, StreamBlock, _ginibre, conj_t, expm_skew,
                                  haar_unitary, unitary_phases)
from test_batch_reference import ref_phase_bound_verdicts, ref_phases


def random_unit_vec3(rng):
    v = rng.gen.standard_normal(3)
    return v / np.linalg.norm(v)


def random_c2_point(rng):
    """z = g e_1 for the SU(2) matrix g of a random unit quaternion."""
    p = rng.gen.standard_normal(4)
    p /= np.linalg.norm(p)
    return np.array([p[0] + 1j * p[1], -p[2] + 1j * p[3]])


def su2_matrix(x3):
    """The traceless skew-Hermitian 2x2 matrix of coordinates x3."""
    a, b, c = x3
    return np.array([[1j * a, b + 1j * c], [-b + 1j * c, -1j * a]])


# Reference SU(2) matrix flows that the C^2 endpoints are checked
# against: unit quaternions (w, x, y, z) are the matrices
# [[w + xi, y + zi], [-y + zi, w - xi]], su(2) has the orthonormal basis
# below, and the pair (X, V) flows g -> exp(tX) g exp(-tV).

REF_SU2_BASIS = (
    np.array([[1j, 0], [0, -1j]]),
    np.array([[0.0 + 0j, 1.0], [-1.0, 0.0]]),
    np.array([[0, 1j], [1j, 0]]),
)


def ref_su2_from_vec(v):
    return v[0] * REF_SU2_BASIS[0] + v[1] * REF_SU2_BASIS[1] + v[2] * REF_SU2_BASIS[2]


def ref_su2_matrix_from_quat(p):
    w, x, y, z = p
    return np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])


def ref_su2_group_flow(x3, v3, t, g):
    return expm_skew(ref_su2_from_vec(x3), t) @ g @ expm_skew(ref_su2_from_vec(v3), -t)


def random_su2_point(rng):
    p = rng.gen.standard_normal(4)
    return ref_su2_matrix_from_quat(p / np.linalg.norm(p))


# -------------------------------------------------------------------- flows

def test_flow_time_zero_is_identity():
    rng = RngStream(70)
    v = rng.gen.standard_normal(4) + 1j * rng.gen.standard_normal(4)
    v /= np.linalg.norm(v)
    x = _ginibre(StreamBlock(rng, [0]), 4, 4)[0, 0]
    x = (x - x.conj().T) / 2
    np.testing.assert_allclose(apply_flow(u_flow(x, 0.0), v), v, atol=1e-14)


def test_su2_left_translation_is_u_flow_on_first_column():
    # S^3 = SU(2) is u_sphere n = 1 through g -> g e_1.  Left translation by
    # exp(tX) is the unitary flow of X on the first column; with
    # V = v diag(i, -i) the right factor exp(-tV) scales g e_1 by exp(-itv),
    # so g -> exp(tX) g exp(-tV) is u_flow(X - i v I, t) on g e_1
    rng = RngStream(79)
    for k in range(200):
        sub = rng.split(k)
        x3 = random_unit_vec3(sub.split(0)) * sub.gen.uniform(0.1, 2.0)
        g = random_su2_point(sub.split(1))
        v, t = sub.gen.uniform(-1.0, 1.0), sub.gen.uniform(-7.0, 7.0)
        old = ref_su2_group_flow(x3, np.array([v, 0.0, 0.0]), t, g)
        new = apply_flow(u_flow(su2_matrix(x3) - 1j * v * np.eye(2), t), g[:, 0])
        np.testing.assert_allclose(new, old[:, 0], rtol=0, atol=1e-13)


def test_flow_central_generator_is_scalar_rotation():
    rng = RngStream(71)
    v = rng.gen.standard_normal(6) + 1j * rng.gen.standard_normal(6)
    v /= np.linalg.norm(v)
    out = apply_flow(u_flow(1j * np.eye(6), 0.8), v)
    np.testing.assert_allclose(out, np.exp(0.8j) * v, atol=1e-13)


def test_flow_endpoint_at_pi_for_unit_generator():
    # with |X|_eq = 1 the endpoint is -exp(-i pi v) z, independent of X
    rng = RngStream(72)
    vnorm = 0.5
    z = random_c2_point(rng)
    ref = -np.exp(-1j * math.pi * vnorm) * z
    for k in range(10):
        x = su2_matrix(random_unit_vec3(rng.split(k))) - 1j * vnorm * np.eye(2)
        np.testing.assert_allclose(apply_flow(u_flow(x, math.pi), z), ref, atol=1e-12)


def test_flow_group_law():
    rng = RngStream(73)
    x = _ginibre(StreamBlock(rng, [0]), 3, 3)[0, 0]
    x = (x - x.conj().T) / 2
    v = rng.gen.standard_normal(6).view(complex)
    v /= np.linalg.norm(v)
    s, t = 0.7, -1.1
    once = apply_flow(u_flow(x, s + t), v)
    twice = apply_flow(u_flow(x, t), apply_flow(u_flow(x, s), v))
    np.testing.assert_allclose(once, twice, atol=1e-10)


def test_flow_rejects_off_sphere_points():
    with pytest.raises(InvalidInput):
        apply_flow(u_flow(1j * np.eye(2), 1.0), np.array([2.0, 0.0]))
    # one row off the sphere refuses the stack
    with pytest.raises(InvalidInput, match="off the unit sphere"):
        apply_flow(u_flow(1j * np.eye(2), 1.0), np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(InvalidInput, match="shape"):
        apply_flow(u_flow(1j * np.eye(2), 1.0), np.ones((1, 1, 2)) / math.sqrt(2.0))


def test_flow_on_a_stack_moves_each_point_as_alone():
    rng = RngStream(74)
    x = _ginibre(StreamBlock(rng, [0]), 3, 3)[0, 0]
    flow = u_flow((x - x.conj().T) / 2, 0.9)
    v = rng.gen.standard_normal((40, 6)).view(complex)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    stacked = apply_flow(flow, v)
    assert stacked.shape == v.shape
    # to the bit: each point is multiplied and renormalized on its own
    assert stacked.tobytes() == np.array([apply_flow(flow, row) for row in v]).tobytes()


def per_row_flow(flow, points):
    """Reference: exp(tX) times each point on its own, renormalized by that
    point's own norm."""
    e = expm_skew(flow.x, flow.t)
    return np.array([e @ row / np.linalg.norm(e @ row)
                     for row in np.atleast_2d(points)]).reshape(points.shape)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_flow_matches_the_per_row_reference_to_the_bit(dim):
    rng = RngStream(75).split(dim)
    x = _ginibre(StreamBlock(rng, [0]), dim, dim)[0, 0]
    flow = u_flow((x - x.conj().T) / 2, 1.3)
    for count in (1, 2, 17, 300):
        v = rng.gen.standard_normal((count, 2 * dim)).view(complex)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        np.testing.assert_array_equal(apply_flow(flow, v), per_row_flow(flow, v))
    np.testing.assert_array_equal(apply_flow(flow, v[0]), per_row_flow(flow, v[0]))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_rejects_non_finite_time(t):
    with pytest.raises(InvalidInput, match="finite"):
        u_flow(1j * np.eye(2), t)


# ---------------------------------------------------------- endpoint focusing

def test_endpoint_focus_zero_vector():
    # V = 0: all endpoints equal -z
    spread, identity = endpoint_focus_check(0.0, samples=30, rng=RngStream(74))
    assert spread <= 1e-10 and identity <= 1e-12


def test_endpoint_focus_half_vector():
    spread, identity = endpoint_focus_check(0.5, samples=100, rng=RngStream(75))
    assert spread <= 1e-10 and identity <= 1e-12


@pytest.mark.parametrize("entries", [flows.BLOCK_ENTRIES, 5000])
def test_endpoint_spread_equals_pdist_maximum(monkeypatch, entries):
    # the spread is the maximum over row blocks of the distance matrix, each
    # row against itself and the rows after it; it must be the pdist
    # maximum to the bit, with 2 row blocks of the 520 endpoints or 58
    samples, ends, real = 520, [], flows._max_pairwise_distance

    def spy(pts):
        ends.append(pts.copy())
        return real(pts)
    monkeypatch.setattr(flows, "BLOCK_ENTRIES", entries)
    monkeypatch.setattr(flows, "_max_pairwise_distance", spy)
    spread, _ = endpoint_focus_check(0.5, samples=samples, rng=RngStream(81))
    assert [e.shape for e in ends] == [(samples, 4)] * ENDPOINT_BASE_POINTS
    assert spread == max(float(np.max(pdist(e))) for e in ends)


def test_endpoint_focus_check_matches_su2_reference_on_its_streams():
    # replays the check's draws: each C^2 endpoint is the first column of
    # the SU(2) flow's endpoint, and the replay gives the check's values
    vnorm, samples, rng = -0.3, 20, RngStream(80)
    spread, identity = endpoint_focus_check(vnorm, samples=samples, rng=rng)
    v3 = np.array([vnorm, 0.0, 0.0])
    ref_spread = ref_identity = 0.0
    for bp in range(ENDPOINT_BASE_POINTS):
        g_rng = rng.split(bp)
        x_rngs = [g_rng.split(k + 1) for k in range(samples)]
        p = g_rng.gen.standard_normal(4)
        g = ref_su2_matrix_from_quat(p / np.linalg.norm(p))
        ends = []
        for x_rng in x_rngs:
            x3 = random_unit_vec3(x_rng)
            old = ref_su2_group_flow(x3, v3, math.pi, g)
            new = apply_flow(u_flow(su2_matrix(x3) - 1j * vnorm * np.eye(2), math.pi),
                             g[:, 0])
            np.testing.assert_allclose(new, old[:, 0], rtol=0, atol=1e-13)
            ends.append(new)
        ends = np.array(ends)
        ref_spread = max(ref_spread, np.max(pdist(ends.view(float))))
        ref_identity = max(ref_identity, np.max(np.linalg.norm(
            ends + np.exp(-1j * math.pi * vnorm) * g[:, 0], axis=1)))
    np.testing.assert_allclose([spread, identity], [ref_spread, ref_identity],
                               rtol=1e-12, atol=1e-17)


@pytest.mark.parametrize("vnorm, samples, seed", [(0.5, 20, 0), (-0.3, 257, 82),
                                                   (0.9, 2, 83)])
def test_endpoint_focus_check_keeps_the_bits_of_one_flow_per_sample(
        monkeypatch, vnorm, samples, seed):
    # a start point's generators are exponentiated as one stack; its
    # endpoints equal those of apply_flow on one flow at a time, to the bit
    seen, real = [], flows._max_pairwise_distance

    def spy(pts):
        seen.append(pts.copy())
        return real(pts)
    monkeypatch.setattr(flows, "_max_pairwise_distance", spy)
    rng, shift = RngStream(seed), -1j * vnorm * np.eye(2)
    spread, identity = endpoint_focus_check(vnorm, samples=samples, rng=rng)
    ref_identity = 0.0
    for bp, pts in zip(range(ENDPOINT_BASE_POINTS), seen, strict=True):
        g_rng = rng.split(bp)
        x_rngs = [g_rng.split(k + 1) for k in range(samples)]
        z = random_c2_point(g_rng)
        ends = np.array([apply_flow(u_flow(su2_matrix(random_unit_vec3(x_rng)) + shift,
                                           math.pi), z) for x_rng in x_rngs])
        assert np.array_equal(pts, ends.view(float))
        ref_identity = max(ref_identity, float(np.linalg.norm(
            ends + np.exp(-1j * math.pi * vnorm) * z, axis=1).max()))
    assert (spread, identity) == (max(float(np.max(pdist(pts))) for pts in seen),
                                  ref_identity)


def test_endpoint_focus_negative_control_non_unit_generator():
    # off the unit sphere exp(pi X) != -I and endpoints scatter
    vnorm = 0.5
    z = random_c2_point(RngStream(76))
    ends = []
    for k, scale in enumerate((0.7, 1.0, 1.3)):
        x = su2_matrix(scale * random_unit_vec3(RngStream(77).split(k)))
        ends.append(apply_flow(u_flow(x - 1j * vnorm * np.eye(2), math.pi), z))
    assert np.max(np.abs(ends[0] - ends[2])) > 1e-3


def test_endpoint_focus_rejects_long_vector():
    for vnorm in (1.0, -1.0, 1e300, math.inf, math.nan):
        with pytest.raises(InvalidInput, match=r"\|V\|_eq < 1"):
            endpoint_focus_check(vnorm, samples=10, rng=RngStream(78))


# ------------------------------------------------------------ phase intervals

def ref_phase_bound(p, q):
    """Reference for one pair: the sorted phases of PQ, the interval ends
    lo and hi, and each interval's PQ phase shifted by 0 or +-2pi into it,
    by a zero-cost assignment (None where there is none)."""
    a, b, theta = ref_phases(np.stack([p, q, p @ q]))
    lo = a + b.min() - flows.PHASE_EPS
    hi = a + b.max() + flows.PHASE_EPS
    lifts = theta[None, :] + np.array([0.0, 2 * math.pi, -2 * math.pi])[:, None]
    # fits[s, i, j]: phase j shifted by shift s lies in interval i
    fits = (lo[None, :, None] <= lifts[:, None, :]) & (lifts[:, None, :] <= hi[None, :, None])
    cost = np.where(fits.any(axis=0), 0.0, 1.0)
    rows, cols = linear_sum_assignment(cost)
    if cost[rows, cols].sum():
        return theta, lo, hi, None
    return theta, lo, hi, lifts[np.argmax(fits[:, rows, cols], axis=0), cols]


def test_phase_bound_identity_factor():
    p = haar_unitary(4, StreamBlock(RngStream(79), [0]))
    defined, verdict = phase_bound_check(p, np.eye(4)[None])
    assert defined.all() and verdict.all()
    _, lo, hi, lifted = ref_phase_bound(p[0], np.eye(4))
    np.testing.assert_allclose(np.sort(lifted), unitary_phases(p)[0], atol=1e-9)
    assert np.all(hi - lo <= 2 * 1e-9 + 1e-15)


def test_phase_bound_diagonal_example():
    p = np.diag(np.exp(1j * np.array([0.4, -0.2])))
    q = np.diag(np.exp(1j * np.array([0.1, 0.3])))
    assert all(v.all() for v in phase_bound_check(p[None], q[None]))
    pq_phases, lo, _, lifted = ref_phase_bound(p, q)
    np.testing.assert_allclose(pq_phases, [0.1, 0.5], atol=1e-12)
    np.testing.assert_allclose(lo, [-0.2 + 0.1 - 1e-9, 0.4 + 0.1 - 1e-9], atol=1e-12)
    np.testing.assert_allclose(lifted, [0.1, 0.5], atol=1e-12)


def test_phase_bound_monte_carlo_small():
    rng = RngStream(80)
    for k in range(500):
        n = 2 + k % 5
        sub = rng.split(k)
        defined, verdict = phase_bound_check(haar_unitary(n, StreamBlock(sub, [0])),
                                             haar_unitary(n, StreamBlock(sub, [1])))
        assert defined.all() and verdict.all()


def test_phase_bound_needs_unwrap_beyond_principal_branch():
    # large same-sign phases push the product past the branch cut: the raw
    # principal phases violate the bound (by the matching reference), the
    # +-2pi lift restores it
    p = np.diag(np.exp(1j * np.array([2.5, 2.6])))
    q = np.diag(np.exp(1j * np.array([2.0, 2.1])))
    assert ref_phase_bound_verdicts(p[None], q[None], raw_branch=True) == [False]
    assert phase_bound_check(p[None], q[None])[1].all()


def test_phase_bound_branch_cut_rejected():
    # a P or Q eigenvalue -1 sits on the phase branch cut: undefined, no pass
    for p, q in ((-np.eye(2), np.eye(2)), (np.eye(2), -np.eye(2))):
        defined, verdict = phase_bound_check(p[None], q[None])
        assert not defined.any()
        assert not verdict.any()


# ------------------------------------------------------- commutator eigenvalue

def test_commutator_block_diagonal_trivial():
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = haar_unitary(2, StreamBlock(RngStream(84), [0]))[0]
    u[2:, 2:] = haar_unitary(2, StreamBlock(RngStream(84), [1]))[0]
    res = commutator_eig1_persistence(u[None], 2, 2)
    assert res.has_eig1.all()
    assert (res.worst_residual <= checks.SHARED_VECTOR_TOL).all()
    assert res.worst_residual.max() <= 1e-12


def test_commutator_invertible_blocks_no_fixed_vector():
    th = math.pi / 4
    u = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]], dtype=complex)
    res = commutator_eig1_persistence(u[None], 1, 1)
    assert not res.has_eig1.any()
    assert res.spectral_dists.min() >= 1e-9


def test_commutator_rank_deficient_block_persists():
    rng = RngStream(85)
    for k in range(10):
        angles = rng.split(k).gen.uniform(0.2, 1.3, 2)
        angles[k % 2] = 0.0
        u = block_angle_unitary(2, 2, angles[None], StreamBlock(rng, [100 + k]))
        res = commutator_eig1_persistence(u, 2, 2)
        assert res.has_eig1.all()
        assert (res.worst_residual <= checks.SHARED_VECTOR_TOL).all()
        assert res.worst_residual.max() <= 1e-8


def test_commutator_all_or_nothing_on_grid():
    rng = RngStream(86)
    for k in range(20):
        angles = rng.split(k).gen.uniform(0.2, 1.3, 2)
        singular = k % 2 == 0
        if singular:
            angles[0] = 0.0
        u = block_angle_unitary(2, 2, angles[None], StreamBlock(rng, [200 + k]))
        res = commutator_eig1_persistence(u, 2, 2)
        assert res.has_eig1.all() or not res.has_eig1.any()
        assert res.has_eig1.all() == singular


def test_commutator_unbalanced_blocks_always_have_kernel():
    # l != m forces a non-trivial kernel in the wide block
    u = haar_unitary(5, StreamBlock(RngStream(87), [0]))
    res = commutator_eig1_persistence(u, 2, 3)
    assert res.has_eig1.all()
    assert (res.worst_residual <= checks.SHARED_VECTOR_TOL).all()


# ------------------------------- eigenvalue-1 distances from singular values

def eig1_kernel_pairs(case, seed, trials=12):
    """(a, b) unitary stacks for the eigenvalue-1 kernel, drawn as the
    checks draw them.  Commutator cases: a = exp(tX) U exp(-tX) and b = U
    at every t of the grid, singular off-diagonal blocks on even trials.
    Non-intersection: a = e1 and b = e2*; on even trials t1 = t2 and
    g2 = g1 V with V of singular off-diagonal blocks, so e1 e2 has
    eigenvalue 1."""
    block = StreamBlock(RngStream(seed), range(trials))
    gens = block.generators()
    if case == "nonintersection":
        n = 4
        diag = 1j * (0.5 * np.ones(n) + np.concatenate([-np.ones(2), np.ones(2)]))
        angles = np.array([gen.uniform(0.3, 1.2, 2) for gen in gens])
        angles[::2, 0] = 0.0
        v = block_angle_unitary(2, 2, angles, block.split(2))
        g1 = haar_unitary(n, block.split(0))
        g2 = haar_unitary(n, block.split(1))
        g2[::2] = g1[::2] @ v[::2]
        t1, t2 = np.array([np.sort(gen.uniform(0.0, math.pi, 2))[::-1] for gen in gens]).T
        t2[::2] = t1[::2]
        e1 = (g1 * np.exp(t1[:, None] * diag)[:, None, :]) @ conj_t(g1)
        e2 = (g2 * np.exp(-t2[:, None] * diag)[:, None, :]) @ conj_t(g2)
        return e1, conj_t(e2)
    l, m = {"l=m": (3, 3), "l!=m": (2, 3)}[case]
    angles = np.array([gen.uniform(0.15, 1.4, min(l, m)) for gen in gens])
    angles[::2, 0] = 0.0
    u = block_angle_unitary(l, m, angles, block.split(1))
    d = np.array([flows._twist_diag(l, m, t) for t in flows.T_GRID])
    return flows._twisted(d, u[:, None]), np.broadcast_to(u[:, None], (trials, *d.shape, l + m))


@pytest.mark.parametrize("case", ["l=m", "l!=m", "nonintersection"])
def test_eig1_kernel_matches_eigvals_on_the_same_draws(case):
    found = set()
    for seed in range(10):
        a, b = eig1_kernel_pairs(case, seed)
        want = np.min(np.abs(np.linalg.eigvals(a @ conj_t(b)) - 1.0), axis=-1)
        got = flows._eig1_distances(a.copy(), b)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        has = want <= flows.EIG1_TOL
        assert np.array_equal(got <= flows.EIG1_TOL, has)
        found.update(has.ravel().tolist())
    # the draws hold entries with eigenvalue 1 and, unless l != m forces
    # a kernel, entries without
    assert found == ({True} if case == "l!=m" else {True, False})


def eigvals_spy(monkeypatch):
    """Count the matrices passed to np.linalg.eigvals from now on."""
    seen, real = [], np.linalg.eigvals

    def spy(a):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return real(a)
    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return seen


def test_eigenvalue_1_checks_call_no_eigvals(monkeypatch):
    # both take min |lambda - 1| from singular values alone; the shared
    # eigenvector of a persisting commutator comes from `eig`
    seen = eigvals_spy(monkeypatch)
    assert checks.commutator(4, 4, 50, RngStream(0)).ok
    assert checks.commutator(1, 3, 20, RngStream(0)).ok
    assert checks.nonintersection(0.5, 1, 1, 250, RngStream(0)).ok
    assert seen == []
    # the spy does see the phase bound's eigensolves
    assert checks.eigenlemma(3, 10, RngStream(0)).ok
    assert sum(seen) == 3 * 10


def test_t_grid_is_symmetric_about_half_pi():
    # the commutator screen computes the first half of the grid and
    # mirrors it; that needs point G-1-k to be pi - point k
    size = flows.T_GRID.size
    assert size % 2 == 0
    np.testing.assert_allclose(flows.T_GRID + flows.T_GRID[::-1], math.pi,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("l, m", [(1, 1), (2, 2), (1, 3), (4, 4), (3, 5)])
def test_twists_at_t_and_pi_minus_t_give_the_same_singular_values(l, m):
    # the twist at pi - t is -D* for D the twist at t, so
    # a_(pi-t) - U = D*(UD - DU) and a_t - U = (DU - UD)D*
    u = haar_unitary(l + m, StreamBlock(RngStream(95).split(l), range(20)))
    d = np.array([flows._twist_diag(l, m, t) for t in flows.T_GRID])
    sv = np.linalg.svd(flows._twisted(d, u[:, None]) - u[:, None], compute_uv=False)
    np.testing.assert_allclose(sv, sv[:, ::-1], rtol=0, atol=1e-14)


def full_grid_persistence(u, l, m):
    """The commutator result with the singular-value screen run on every
    point of T_GRID, and the same shared-eigenvector step: (has eigenvalue
    1, distances, residual of the best shared eigenvector, inf where none
    persists)."""
    d = np.array([flows._twist_diag(l, m, t) for t in flows.T_GRID])
    dists = flows._eig1_distances(flows._twisted(d, u[:, None]), u[:, None])
    has = dists <= flows.EIG1_TOL
    worst = np.full(len(u), np.inf)
    for j in np.flatnonzero(has.all(axis=-1)):
        w, vecs = np.linalg.eig(flows._commutator(d[0], u[j]))
        for idx in np.flatnonzero(np.abs(w - 1.0) <= 1e-8):
            v = vecs[:, idx] / np.linalg.norm(vecs[:, idx])
            res = max(np.linalg.norm(flows._commutator(dt, u[j]) @ v - v) for dt in d)
            worst[j] = min(worst[j], res)
    return has, dists, worst


@pytest.mark.parametrize("l, m, trials", [(2, 2, 30), (4, 4, 16), (1, 3, 10), (3, 3, 16)])
def test_half_grid_screen_matches_the_full_grid_on_the_checks_draws(monkeypatch, l, m,
                                                                     trials):
    # the stacks the commutator check builds, singular and invertible
    # trials, in blocks of 7
    monkeypatch.setattr(matrixcore, "TRIAL_BLOCK", 7)
    calls, real = [], flows.commutator_eig1_persistence

    def recording(u, l, m):
        res = real(u, l, m)
        calls.append((u, res))
        return res
    monkeypatch.setattr(checks, "commutator_eig1_persistence", recording)
    assert checks.commutator(l, m, trials, RngStream(6)).ok
    assert sum(len(u) for u, _ in calls) == trials and len(calls) > 1
    half = flows.T_GRID.size // 2
    for u, res in calls:
        has, dists, worst = full_grid_persistence(u, l, m)
        assert np.array_equal(res.has_eig1, has)
        # the screened half keeps the full grid's bits, so a row's printed
        # minimum is the full grid's over that half; the mirrored half, and
        # so each row's minimum, is the full grid's up to rounding
        assert np.array_equal(res.spectral_dists[:, :half], dists[:, :half])
        np.testing.assert_allclose(res.spectral_dists, dists, rtol=0, atol=1e-15)
        assert np.array_equal(res.worst_residual, worst)
    persists = {bool(row.all()) for _, res in calls for row in res.has_eig1}
    assert persists == ({True, False} if l == m else {True})


# --------------------------------------------------------- non-intersection

def test_probe_balanced_case_clean():
    worst = geodesic_nonintersection_probe(0.5, 1, 1, 300, RngStream(89))
    assert isinstance(worst, float)
    assert worst >= checks.NONINTERSECTION_MIN_DIST
    assert worst >= 1e-9
    assert checks.nonintersection(0.5, 1, 1, 300, RngStream(89)).rows[0][1:] \
        == (worst, 300, True)


def per_trial_separated_times(gen):
    """Reference: one trial's times, drawn and sorted on their own and
    redrawn from `gen` until at least MIN_T_SEP apart."""
    while True:
        t1, t2 = np.sort(gen.uniform(0.0, math.pi, size=2))[::-1]
        if t1 - t2 >= flows.MIN_T_SEP:
            return t1, t2


@pytest.mark.parametrize("sep", [flows.MIN_T_SEP, 2.0])
def test_separated_times_match_a_per_trial_loop(monkeypatch, sep):
    # at a separation of 2 most first pairs are too close, and some need
    # several redraws: the stacked draw keeps every trial's bits
    monkeypatch.setattr(flows, "MIN_T_SEP", sep)
    block = StreamBlock(RngStream(96), range(300))
    t1, t2 = flows._separated_times(block.generators())
    ref = np.array([per_trial_separated_times(gen) for gen in block.generators()])
    assert t1.tobytes() == ref[:, 0].tobytes() and t2.tobytes() == ref[:, 1].tobytes()
    assert (t1 - t2 >= sep).all()
    first = np.array([gen.uniform(0.0, math.pi, size=2) for gen in block.generators()])
    assert (np.abs(first[:, 0] - first[:, 1]) < sep).any() == (sep > 1.0)


def test_probe_rejects_unbalanced_or_bad_offset():
    with pytest.raises(InvalidInput):
        geodesic_nonintersection_probe(0.5, 2, 1, 10, RngStream(90))
    with pytest.raises(InvalidInput):
        geodesic_nonintersection_probe(1.5, 1, 1, 10, RngStream(90))
    with pytest.raises(InvalidInput):
        geodesic_nonintersection_probe(0.0, 1, 1, 10, RngStream(90))


def test_probe_negative_control_equal_times():
    # at t1 = t2 fixed vectors appear exactly when the off-blocks of the
    # relative conjugator are singular (the commutator criterion)
    rng = RngStream(91)
    x = 0.5
    n = 4
    diag = 1j * (x * np.ones(n) + np.concatenate([-np.ones(2), np.ones(2)]))
    for k, singular in enumerate([True, False]):
        angles = rng.split(k).gen.uniform(0.3, 1.2, 2)
        if singular:
            angles[0] = 0.0
        u = block_angle_unitary(2, 2, angles[None], StreamBlock(rng, [10 + k]))[0]
        g1 = haar_unitary(n, StreamBlock(rng, [20 + k]))[0]
        g2 = g1 @ u
        t = 1.1
        e1 = (g1 * np.exp(t * diag)[None, :]) @ g1.conj().T
        e2 = (g2 * np.exp(-t * diag)[None, :]) @ g2.conj().T
        dist = np.min(np.abs(np.linalg.eigvals(e1 @ e2) - 1.0))
        assert (dist <= 1e-9) == singular
