import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from cwspheres import flows
from cwspheres.errors import InvalidInput
from cwspheres.flows import (ENDPOINT_BASE_POINTS, NonIntersectionResult,
                             apply_flow, block_angle_unitary,
                             commutator_eig1_persistence, endpoint_focus_check,
                             geodesic_nonintersection_probe, phase_bound_check,
                             u_flow)
from cwspheres.matrixcore import (RngStream, _ginibre, expm_skew, haar_unitary,
                                  seed_block, unitary_phases)


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
    x = _ginibre([rng], 4, 4)[0, 0]
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
    x = _ginibre([rng], 3, 3)[0, 0]
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
    x = _ginibre([rng], 3, 3)[0, 0]
    flow = u_flow((x - x.conj().T) / 2, 0.9)
    v = rng.gen.standard_normal((40, 6)).view(complex)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    stacked = apply_flow(flow, v)
    assert stacked.shape == v.shape
    # to the bit: each point is multiplied and renormalized on its own
    assert stacked.tobytes() == np.array([apply_flow(flow, row) for row in v]).tobytes()


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
    samples, ends, real = 520, [], flows.cdist

    def spy(block, rows):
        if len(rows) == samples:        # the first block sees every endpoint
            ends.append(rows)
        return real(block, rows)
    monkeypatch.setattr(flows, "BLOCK_ENTRIES", entries)
    monkeypatch.setattr(flows, "cdist", spy)
    spread, _ = endpoint_focus_check(0.5, samples=samples, rng=RngStream(81))
    assert len(ends) == ENDPOINT_BASE_POINTS
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
        x_rngs = seed_block([g_rng, *(g_rng.split(k + 1) for k in range(samples))])[1:]
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

def test_phase_bound_identity_factor():
    p = haar_unitary(4, [RngStream(79)])
    res = phase_bound_check(p, np.eye(4)[None])
    assert res.verdict.all()
    np.testing.assert_allclose(np.sort(res.lifted), unitary_phases(p), atol=1e-9)
    assert np.all(res.hi - res.lo <= 2 * 1e-9 + 1e-15)


def test_phase_bound_diagonal_example():
    p = np.diag(np.exp(1j * np.array([0.4, -0.2])))
    q = np.diag(np.exp(1j * np.array([0.1, 0.3])))
    res = phase_bound_check(p[None], q[None])
    assert res.verdict.all()
    np.testing.assert_allclose(res.pq_phases, [[0.1, 0.5]], atol=1e-12)
    np.testing.assert_allclose(res.lo, [[-0.2 + 0.1 - 1e-9, 0.4 + 0.1 - 1e-9]],
                               atol=1e-12)


def test_phase_bound_monte_carlo_small():
    rng = RngStream(80)
    for k in range(500):
        n = 2 + k % 5
        sub = rng.split(k)
        res = phase_bound_check(haar_unitary(n, [sub.split(0)]),
                                haar_unitary(n, [sub.split(1)]))
        assert res.verdict.all()


def test_phase_bound_needs_unwrap_beyond_principal_branch():
    # large same-sign phases push the product past the branch cut: the raw
    # principal phases violate the bound, the +-2pi lift restores it
    p = np.diag(np.exp(1j * np.array([2.5, 2.6])))
    q = np.diag(np.exp(1j * np.array([2.0, 2.1])))
    assert not phase_bound_check(p[None], q[None], raw_branch=True).verdict.any()
    assert phase_bound_check(p[None], q[None]).verdict.all()


def test_phase_bound_branch_cut_rejected():
    # a P or Q eigenvalue -1 sits on the phase branch cut: undefined, no pass
    for p, q in ((-np.eye(2), np.eye(2)), (np.eye(2), -np.eye(2))):
        res = phase_bound_check(p[None], q[None])
        assert not res.defined.any()
        assert not res.verdict.any()


# ------------------------------------------------------- commutator eigenvalue

def test_commutator_block_diagonal_trivial():
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = haar_unitary(2, [RngStream(84).split(0)])[0]
    u[2:, 2:] = haar_unitary(2, [RngStream(84).split(1)])[0]
    res = commutator_eig1_persistence(u[None], 2, 2)
    assert res.has_eig1.all()
    assert res.shared_eigenvector.all()
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
        u = block_angle_unitary(2, 2, angles[None], [rng.split(100 + k)])
        res = commutator_eig1_persistence(u, 2, 2)
        assert res.has_eig1.all()
        assert res.shared_eigenvector.all()
        assert res.worst_residual.max() <= 1e-8


def test_commutator_all_or_nothing_on_grid():
    rng = RngStream(86)
    for k in range(20):
        angles = rng.split(k).gen.uniform(0.2, 1.3, 2)
        singular = k % 2 == 0
        if singular:
            angles[0] = 0.0
        u = block_angle_unitary(2, 2, angles[None], [rng.split(200 + k)])
        res = commutator_eig1_persistence(u, 2, 2)
        assert res.has_eig1.all() or not res.has_eig1.any()
        assert res.has_eig1.all() == singular


def test_commutator_unbalanced_blocks_always_have_kernel():
    # l != m forces a non-trivial kernel in the wide block
    u = haar_unitary(5, [RngStream(87)])
    res = commutator_eig1_persistence(u, 2, 3)
    assert res.has_eig1.all()
    assert res.shared_eigenvector.all()


# --------------------------------------------------------- non-intersection

def test_probe_balanced_case_clean():
    res = geodesic_nonintersection_probe(0.5, 1, 1, 300, RngStream(89))
    assert isinstance(res, NonIntersectionResult)
    assert res.verdict
    assert res.min_spectral_distance >= 1e-9


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
        u = block_angle_unitary(2, 2, angles[None], [rng.split(10 + k)])[0]
        g1 = haar_unitary(n, [rng.split(20 + k)])[0]
        g2 = g1 @ u
        t = 1.1
        e1 = (g1 * np.exp(t * diag)[None, :]) @ g1.conj().T
        e2 = (g2 * np.exp(-t * diag)[None, :]) @ g2.conj().T
        dist = np.min(np.abs(np.linalg.eigvals(e1 @ e2) - 1.0))
        assert (dist <= 1e-9) == singular
