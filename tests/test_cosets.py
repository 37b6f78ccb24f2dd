import math

import numpy as np
import pytest

from cwspheres.cosets import (AlgebraElement, ModelSpace, align_imaginary_to_i,
                              orbit_projection_sample, permutation_matrix,
                              project_to_m, sp_algebra, sp_orbit_conjugator,
                              sp_orbit_projection, sp_permutation,
                              sp_unit_diag, space_for_spec, su2_algebra,
                              symplectic_completion, u_algebra)
from cwspheres.errors import InvalidInput
from cwspheres.matrixcore import (QuaternionMatrix, RngStream, conjugate,
                                  qabs, qmul, su2_from_vec, symplectic_defect)
from cwspheres.randers import eq_norm, sp_tangent


def unit_quaternion_vector(n, rng):
    v1 = rng.ginibre(n, 1)[:, 0]
    v2 = rng.ginibre(n, 1)[:, 0]
    nrm = math.sqrt(float(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2)))
    return (v1 / nrm, v2 / nrm)


def random_ball_quaternion(rng):
    q4 = rng.gen.standard_normal(4)
    q4 *= rng.gen.uniform(0.0, 1.0) ** 0.25 / np.linalg.norm(q4)
    return (q4[0] + 1j * q4[1], q4[2] + 1j * q4[3])


def random_sp_skew(n, rng):
    z1 = rng.ginibre(n)
    z2 = rng.ginibre(n)
    return QuaternionMatrix((z1 - z1.conj().T) / 2, (z2 + z2.T) / 2)


# ---------------------------------------------------------------- project_to_m

def test_project_diagonal_readoff():
    space = ModelSpace("u_sphere", n=3)
    mus = np.array([0.1, 0.2, 0.3, 0.7])
    t = project_to_m(space, u_algebra(1j * np.diag(mus)))
    assert t.q == 0.7
    np.testing.assert_allclose(t.u, np.zeros(3), atol=1e-15)


def test_project_two_eigenvalue_example():
    space = ModelSpace("u_sphere", n=1)
    t = project_to_m(space, u_algebra(1j * np.diag([-0.5, 1.5])))
    assert t.q == 1.5


def test_project_su2_subtracts_isotropy_component():
    space = ModelSpace("su2", su2_v=0.5)
    x = su2_from_vec([0.2, 0.3, 0.4])
    t = project_to_m(space, su2_algebra(x, scalar=1.0))
    np.testing.assert_allclose([t.q, t.u[0], t.u[1]], [-0.3, 0.3, 0.4],
                               atol=1e-15)


def test_project_sp_includes_circle_term():
    space = ModelSpace("sp_sphere", n=1)
    x = QuaternionMatrix(np.diag([0.2j, 0.5j]), np.diag([0.0, 0.3 + 0.4j]))
    t = project_to_m(space, sp_algebra(x, scalar=0.25))
    np.testing.assert_allclose(t.q, [0.75, 0.3, 0.4], atol=1e-15)


def test_project_linearity():
    rng = RngStream(30)
    space = ModelSpace("u_sphere", n=2)
    for k in range(20):
        z1 = rng.split(2 * k).ginibre(3)
        z2 = rng.split(2 * k + 1).ginibre(3)
        x1, x2 = (z1 - z1.conj().T) / 2, (z2 - z2.conj().T) / 2
        t1 = project_to_m(space, u_algebra(x1))
        t2 = project_to_m(space, u_algebra(x2))
        t12 = project_to_m(space, u_algebra(x1 + x2))
        assert abs(t12.q - (t1.q + t2.q)) <= 1e-12
        np.testing.assert_allclose(t12.u, t1.u + t2.u, atol=1e-12)


def test_project_family_mismatch():
    with pytest.raises(InvalidInput):
        project_to_m(ModelSpace("u_sphere", n=1), su2_algebra(su2_from_vec([1, 0, 0])))


# ------------------------------------------------------ orbit_projection_sample

def test_orbit_sample_central_element_is_constant():
    space = ModelSpace("u_sphere", n=2)
    e = u_algebra(0.7j * np.eye(3))
    m0, usq = orbit_projection_sample(space, e, 50, RngStream(31))
    assert m0.shape == (50, 1) and usq.shape == (50,)
    assert np.max(np.abs(m0 - 0.7)) <= 1e-12
    assert np.max(usq) <= 1e-24


def test_orbit_sample_sphere_geometry():
    # phases (-0.5, 1.5): center q = 0.5, radius 1 in the reference metric
    space = ModelSpace("u_sphere", n=1)
    e = u_algebra(1j * np.diag([-0.5, 1.5]))
    m0, usq = orbit_projection_sample(space, e, 1000, RngStream(32))
    devs = np.abs(np.sqrt((m0[:, 0] - 0.5) ** 2 + usq) - 1.0)
    assert devs.max() <= 1e-9


def test_orbit_sample_zero_trials():
    space = ModelSpace("u_sphere", n=1)
    with pytest.raises(InvalidInput):
        orbit_projection_sample(space, u_algebra(1j * np.eye(2)), 0, RngStream(33))


def test_orbit_sample_scalar_passes_through():
    space = ModelSpace("sp_sphere", n=1)
    e = sp_algebra(random_sp_skew(2, RngStream(34)), scalar=0.6)
    with_s, usq = orbit_projection_sample(space, e, 25, RngStream(35))
    # the scalar enters every projection through the same +x*i shift:
    # removing it must land all samples back on the orbit sphere of (X, 0)
    bare, bare_usq = orbit_projection_sample(
        space, AlgebraElement("sp_sphere", e.x, 0.0), 25, RngStream(35))
    np.testing.assert_allclose(with_s - [0.6, 0.0, 0.0], bare, atol=1e-12)
    np.testing.assert_array_equal(usq, bare_usq)


def test_orbit_geometry_weyl_extremes_and_sampling():
    # two-eigenvalue generator: orbit sphere has center (l-m)x2/2 + x1 and
    # radius (l+m)|x2|/2; Weyl permutations realize the extreme q values
    # exactly, Haar samples approach them from inside
    rng = RngStream(36)
    for case, (l, m, x1, x2) in enumerate([(1, 1, 0.5, 1.0), (2, 1, 0.0, 1.0),
                                           (1, 2, 0.3, -0.8)]):
        n1 = l + m
        space = ModelSpace("u_sphere", n=n1 - 1)
        diag = 1j * (x1 + x2 * np.concatenate([np.full(l, -m), np.full(m, l)]))
        e = u_algebra(np.diag(diag))
        lo, hi = sorted((x1 - m * x2, x1 + l * x2))
        center = 0.5 * (l - m) * x2 + x1
        radius = 0.5 * n1 * abs(x2)
        # exact extremes through permutation conjugation
        qs_weyl = []
        for target in range(n1):
            perm = list(range(n1))
            perm[target], perm[n1 - 1] = perm[n1 - 1], perm[target]
            g = permutation_matrix(perm).astype(complex)
            qs_weyl.append(project_to_m(space, u_algebra(conjugate(g, e.x))).q)
        assert abs(min(qs_weyl) - lo) <= 1e-12
        assert abs(max(qs_weyl) - hi) <= 1e-12
        # sphere containment + interior coverage for Haar samples
        m0, usq = orbit_projection_sample(space, e, 2000, rng.split(case))
        qs = m0[:, 0]
        devs = np.abs(np.sqrt((qs - center) ** 2 + usq) - radius)
        assert devs.max() <= 1e-9
        assert qs.min() <= lo + 0.05 * (hi - lo)
        assert qs.max() >= hi - 0.05 * (hi - lo)


# ------------------------------------------------------- symplectic completion

def test_completion_identity_case():
    row = (np.array([0.0, 0.0, 1.0], dtype=complex), np.zeros(3, dtype=complex))
    q = symplectic_completion(row)
    assert symplectic_defect(q) <= 1e-10
    np.testing.assert_allclose(q.q1[-1], row[0], atol=1e-14)
    np.testing.assert_allclose(q.q2[-1], row[1], atol=1e-14)


def test_completion_real_pair_example():
    row = (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
           np.zeros(2, dtype=complex))
    q = symplectic_completion(row)
    assert symplectic_defect(q) <= 1e-10
    np.testing.assert_allclose(q.q1[-1], row[0], atol=1e-14)
    # first entry of the last column: imaginary part orthogonal to i
    corner = (q.q1[0, -1], q.q2[0, -1])
    assert abs(corner[0].imag) <= 1e-12


def test_completion_random_vectors():
    rng = RngStream(37)
    for k, n in enumerate([1, 2, 3, 5]):
        row = unit_quaternion_vector(n, rng.split(k))
        q = symplectic_completion(row)
        assert symplectic_defect(q) <= 1e-10
        np.testing.assert_allclose(q.q1[-1], row[0], atol=1e-13)
        np.testing.assert_allclose(q.q2[-1], row[1], atol=1e-13)
        if n > 2:
            # middle of the last column vanishes by construction
            assert np.max(np.abs(q.q1[1:-1, -1])) <= 1e-12
            assert np.max(np.abs(q.q2[1:-1, -1])) <= 1e-12
        if n > 1:
            assert abs(q.q1[0, -1].real) <= 1e-12
            assert abs(q.q1[0, -1].imag) <= 1e-12


def test_completion_rejects_bad_input():
    with pytest.raises(InvalidInput):
        symplectic_completion((np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)))
    with pytest.raises(InvalidInput):
        symplectic_completion((2.0 * np.ones(2, dtype=complex),
                               np.zeros(2, dtype=complex)))


# ------------------------------------------------------- sp orbit projections

def test_sp_projection_fixed_base_corner():
    t = sp_orbit_projection(0.8, 0.3, (1.0, 0.0), (np.zeros(1), np.zeros(1)))
    np.testing.assert_allclose(t.q, [1.1, 0.0, 0.0], atol=1e-15)
    assert np.max(np.abs(t.u[0])) == 0.0


def test_sp_projection_j_corner():
    t = sp_orbit_projection(0.8, 0.3, (0.0, 1.0), (np.zeros(1), np.zeros(1)))
    np.testing.assert_allclose(t.q, [0.3 - 0.8, 0.0, 0.0], atol=1e-15)


def test_sp_projection_agrees_with_generic_path():
    rng = RngStream(38)
    worst = 0.0
    for k in range(200):
        sub = rng.split(k)
        n = int(sub.gen.integers(1, 4))
        xp = float(sub.gen.uniform(0.2, 2.0))
        xs = float(sub.gen.uniform(-1.0, 1.0))
        qpair = random_ball_quaternion(sub.split(0))
        w = unit_quaternion_vector(n, sub.split(1))
        closed = sp_orbit_projection(xp, xs, qpair, w)
        qc = sp_orbit_conjugator(qpair, w)
        x = QuaternionMatrix(1j * xp * np.eye(n + 1, dtype=complex),
                             np.zeros((n + 1, n + 1), dtype=complex))
        moved = conjugate(qc.conj_t(), x)
        generic = project_to_m(ModelSpace("sp_sphere", n=n),
                               AlgebraElement("sp_sphere", moved, xs))
        worst = max(worst,
                    float(np.max(np.abs(np.asarray(closed.q) - np.asarray(generic.q)))),
                    float(np.max(np.abs(closed.u[0] - generic.u[0]))),
                    float(np.max(np.abs(closed.u[1] - generic.u[1]))))
    assert worst <= 1e-9


def test_sp_projection_sweeps_the_orbit_sphere():
    rng = RngStream(39)
    for k in range(100):
        sub = rng.split(k)
        xp, xs = 0.9, -0.2
        t = sp_orbit_projection(xp, xs, random_ball_quaternion(sub.split(0)),
                                unit_quaternion_vector(2, sub.split(1)))
        shift = sp_tangent([xs, 0.0, 0.0], np.zeros(2), np.zeros(2))
        assert abs(eq_norm(t + (-1.0) * shift) - xp) <= 1e-12


def test_sp_projection_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        sp_orbit_projection(1.0, 0.0, (2.0, 0.0), (np.zeros(1), np.zeros(1)))
    with pytest.raises(InvalidInput):
        sp_orbit_projection(1.0, 0.0, (0.5, 0.0),
                            (2.0 * np.ones(2, dtype=complex), np.zeros(2)))


# ----------------------------------------------------------------- Weyl helpers

def test_permutation_matrix_and_sp_variant():
    p = permutation_matrix([1, 0, 2])
    np.testing.assert_array_equal(p @ np.array([1.0, 0.0, 0.0]),
                                  np.array([0.0, 1.0, 0.0]))
    q = sp_permutation([1, 0])
    assert symplectic_defect(q) <= 1e-12
    with pytest.raises(InvalidInput):
        permutation_matrix([0, 0])


def test_sp_unit_diag_conjugation_flips_i():
    j = (np.complex128(0.0), np.complex128(1.0))
    t = sp_unit_diag(2, 1, j)
    x = QuaternionMatrix(np.diag([0.0, 0.4j]), np.zeros((2, 2), dtype=complex))
    y = t.conj_t() @ x @ t
    assert abs(y.q1[1, 1] + 0.4j) <= 1e-14


def test_align_imaginary_to_i():
    rng = RngStream(40)
    for k in range(20):
        d3 = rng.split(k).gen.standard_normal(3)
        d = (1j * d3[0], d3[1] + 1j * d3[2])
        s = align_imaginary_to_i(d)
        rotated = qmul(qmul((np.conj(s[0]), -s[1]), d), s)
        mod = float(qabs(d))
        assert abs(rotated[0] - 1j * mod) <= 1e-12
        assert abs(rotated[1]) <= 1e-12
    # the antipodal special case d = -i
    s = align_imaginary_to_i((-1j, 0.0))
    rotated = qmul(qmul((np.conj(s[0]), -s[1]), (-1j, 0.0)), s)
    assert abs(rotated[0] - 1j) <= 1e-14


def test_space_for_spec_su2_shift():
    from cwspheres.killing import su2_cw_spec
    spec = su2_cw_spec(0.5, 1.0)
    space = space_for_spec(spec)
    assert abs(space.su2_v - 0.5) <= 1e-12


def test_presentation_catalog_consistency():
    from cwspheres.cosets import SPHERE_PRESENTATIONS
    from cwspheres.randers import SP_SPHERE, U_SPHERE
    assert len(SPHERE_PRESENTATIONS) == 9
    tagged = [row for row in SPHERE_PRESENTATIONS if row[3] is not None]
    # modeled presentations are exactly the unitary tower and the
    # symplectic-circle coset, and every tag implies admissibility
    assert {row[3] for row in tagged} == {U_SPHERE, SP_SPHERE}
    for _, _, admits, family in SPHERE_PRESENTATIONS:
        if family is not None:
            assert admits
