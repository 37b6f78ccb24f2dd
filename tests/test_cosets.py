import math

import numpy as np
import pytest

from cwspheres.cosets import (AlgebraElement, align_imaginary_to_i,
                              orbit_projection_sample, project_at, sp_algebra, u_algebra)
from cwspheres.errors import InvalidInput, InvalidSpec
from cwspheres.killing import orbit_length_report
from cwspheres.matrixcore import (QuaternionMatrix, RngStream, StreamBlock, _ginibre,
                                  haar_unitary, qabs, qmul)
from cwspheres.randers import RandersSpec, round_spec
from haar_reference import conjugate, haar_symplectic, project_to_m, read_point


def sp_spec(n):
    """A valid sp_sphere metric on S^(4n+3); the orbit sampler ignores its
    coefficients."""
    return RandersSpec("sp_sphere", n=n, a1=1.0, a2=1.3, b=1.0, c=0.2)


def qconj(x):
    """Quaternion conjugate of a pair, elementwise."""
    return (np.conj(x[0]), -x[1])


def base_point(n1, count=1):
    """`count` copies of e_last in C^n1, as a stack `project_at` takes."""
    w = np.zeros((count, n1), dtype=complex)
    w[:, -1] = 1.0
    return w


def random_sp_skew(n, rng):
    z1, z2 = _ginibre(StreamBlock(rng, [0]), n, n, count=2)[0]
    return QuaternionMatrix((z1 - z1.conj().T) / 2, (z2 + z2.T) / 2)


# ------------------------------------------------------------------ project_at

def test_project_diagonal_readoff():
    # at the base point the field of x is its last column
    mus = np.array([0.1, 0.2, 0.3, 0.7])
    m0, usq = project_at("u_sphere", u_algebra(1j * np.diag(mus)).x, 0.0, base_point(4))
    assert m0.tolist() == [[0.7]]
    assert usq[0] <= 1e-30


def test_project_two_eigenvalue_example():
    m0, _ = project_at("u_sphere", u_algebra(1j * np.diag([-0.5, 1.5])).x, 0.0,
                       base_point(2))
    assert m0.tolist() == [[1.5]]


def test_project_sp_includes_circle_term():
    x = QuaternionMatrix(np.diag([0.2j, 0.5j]), np.diag([0.0, 0.3 + 0.4j]))
    e = sp_algebra(x, scalar=0.25)
    m0, usq = project_at("sp_sphere", e.x, e.scalar,
                         (base_point(2), np.zeros((1, 2), dtype=complex)))
    np.testing.assert_allclose(m0, [[0.75, 0.3, 0.4]], atol=1e-15)
    assert usq[0] == 0.0


def test_project_linearity():
    # at a fixed point w, m0 is linear in the matrix; the m1 part u is too,
    # so |u|^2 obeys the parallelogram law
    rng = RngStream(30)
    for k in range(20):
        z1, z2 = _ginibre(StreamBlock(rng, [2 * k, 2 * k + 1]), 3, 3)[:, 0]
        x1, x2 = (z1 - z1.conj().T) / 2, (z2 - z2.conj().T) / 2
        w = z1[0] / np.linalg.norm(z1[0])
        m0, usq = zip(*(project_at("u_sphere", x, 0.0, w[None])
                        for x in (x1, x2, x1 + x2, x1 - x2)))
        q, usq = np.concatenate(m0)[:, 0], np.concatenate(usq)
        assert abs(q[2] - (q[0] + q[1])) <= 1e-12
        assert abs(q[3] - (q[0] - q[1])) <= 1e-12
        assert abs((usq[2] + usq[3]) - 2.0 * (usq[0] + usq[1])) <= 1e-12


def test_project_family_mismatch():
    # no invalid spec reaches the orbit sampler: it is refused as it is
    # built; the sampler refuses an element of another family, or one of a
    # size other than the coset rank's, before any draw
    sp_elem = sp_algebra(sp_scaled_identity(0.8, 2))
    for fields in (dict(family="sp_sphere", a1=1.0, a2=1.0, b=1.0),   # a2 = b
                   dict(family="u_sphere", n=0, a=1.0, b=1.0),
                   dict(family="su2", a=1.0, b=1.0)):
        with pytest.raises(InvalidSpec, match="invalid Randers spec"):
            orbit_projection_sample(RandersSpec(**fields), sp_elem, 10, RngStream(28))
    with pytest.raises(InvalidInput, match="family"):
        orbit_projection_sample(round_spec(1), sp_elem, 10, RngStream(28))
    with pytest.raises(InvalidInput, match="family"):
        orbit_length_report(round_spec(1), sp_elem, RngStream(28), trials=100)
    with pytest.raises(InvalidInput, match="coset rank"):
        orbit_length_report(round_spec(2), u_algebra(1j * np.eye(2)),
                            RngStream(28), trials=100)


# ------------------------------------------------------ orbit_projection_sample

def test_orbit_sample_central_element_is_constant():
    spec = round_spec(2)
    e = u_algebra(0.7j * np.eye(3))
    m0, usq = orbit_projection_sample(spec, e, 50, RngStream(31))
    assert m0.shape == (50, 1) and usq.shape == (50,)
    assert np.max(np.abs(m0 - 0.7)) <= 1e-12
    assert np.max(usq) <= 1e-24


def test_orbit_sample_sphere_geometry():
    # phases (-0.5, 1.5): center q = 0.5, radius 1 in the reference metric
    spec = round_spec(1)
    e = u_algebra(1j * np.diag([-0.5, 1.5]))
    m0, usq = orbit_projection_sample(spec, e, 1000, RngStream(32))
    devs = np.abs(np.sqrt((m0[:, 0] - 0.5) ** 2 + usq) - 1.0)
    assert devs.max() <= 1e-9


def test_orbit_sample_zero_trials():
    spec = round_spec(1)
    with pytest.raises(InvalidInput):
        orbit_projection_sample(spec, u_algebra(1j * np.eye(2)), 0, RngStream(33))


def test_orbit_sample_scalar_passes_through():
    spec = sp_spec(1)
    e = sp_algebra(random_sp_skew(2, RngStream(34)), scalar=0.6)
    with_s, usq = orbit_projection_sample(spec, e, 25, RngStream(35))
    # the scalar enters every projection through the same +x*i shift:
    # removing it must land all samples back on the orbit sphere of (X, 0)
    bare, bare_usq = orbit_projection_sample(
        spec, AlgebraElement("sp_sphere", e.x, 0.0), 25, RngStream(35))
    np.testing.assert_allclose(with_s - [0.6, 0.0, 0.0], bare, atol=1e-12)
    np.testing.assert_array_equal(usq, bare_usq)


def test_orbit_geometry_weyl_extremes_and_sampling():
    # two-eigenvalue generator: orbit sphere has center (l-m)x2/2 + x1 and
    # radius (l+m)|x2|/2; the basis points e_0..e_n (where a permutation
    # conjugate is read) realize the extreme q values exactly, uniform
    # samples approach them from inside.  q = sum_j
    # lambda_j |w_j|^2 with (|w_j|^2) uniform on the simplex, so q comes
    # within 5% of an eigenvalue of multiplicity r in n + 1 = l + m with
    # probability P(Beta(r, l + m - r) >= 0.95); the rarest pole, r = 1 in
    # l + m = 3, has p = 0.05^2 = 2.5e-3, and 6000 draws all miss it with
    # probability (1 - p)^6000 = 3.0e-7
    rng = RngStream(36)
    for case, (l, m, x1, x2) in enumerate([(1, 1, 0.5, 1.0), (2, 1, 0.0, 1.0),
                                           (1, 2, 0.3, -0.8)]):
        n1 = l + m
        spec = round_spec(n1 - 1)
        diag = 1j * (x1 + x2 * np.concatenate([np.full(l, -m), np.full(m, l)]))
        e = u_algebra(np.diag(diag))
        lo, hi = sorted((x1 - m * x2, x1 + l * x2))
        center = 0.5 * (l - m) * x2 + x1
        radius = 0.5 * n1 * abs(x2)
        # exact extremes at the basis points
        qs_basis = project_at("u_sphere", e.x, 0.0, np.eye(n1, dtype=complex))[0][:, 0]
        assert abs(min(qs_basis) - lo) <= 1e-12
        assert abs(max(qs_basis) - hi) <= 1e-12
        # sphere containment + interior coverage for uniform samples
        m0, usq = orbit_projection_sample(spec, e, 6000, rng.split(case))
        qs = m0[:, 0]
        devs = np.abs(np.sqrt((qs - center) ** 2 + usq) - radius)
        assert devs.max() <= 1e-9
        assert qs.min() <= lo + 0.05 * (hi - lo)
        assert qs.max() >= hi - 0.05 * (hi - lo)


# ------------------------------------------------------- sp orbit projections

def sp_scaled_identity(xp, n1):
    """The generator x' i I of Sp(n1)."""
    return QuaternionMatrix(1j * xp * np.eye(n1, dtype=complex),
                            np.zeros((n1, n1), dtype=complex))


def test_sp_projection_fixed_base_corner():
    # at w = e_last the field of (x' i I, x) reads m0 = (x' + x) i
    m0, usq = project_at("sp_sphere", sp_scaled_identity(0.8, 2), 0.3,
                         (base_point(2), np.zeros((1, 2), dtype=complex)))
    np.testing.assert_allclose(m0, [[1.1, 0.0, 0.0]], atol=1e-15)
    assert usq[0] == 0.0


def test_sp_projection_j_corner():
    # at w = j e_last, conj(j) x' i j = -x' i: the matrix part flips sign
    m0, usq = project_at("sp_sphere", sp_scaled_identity(0.8, 2), 0.3,
                         (np.zeros((1, 2), dtype=complex), base_point(2)))
    np.testing.assert_allclose(m0, [[0.3 - 0.8, 0.0, 0.0]], atol=1e-15)
    assert usq[0] <= 1e-30


def test_sp_projection_sweeps_the_orbit_sphere():
    # the orbit of (x' i I, x) projects onto the round sphere of radius |x'|
    # centred at x i in the reference inner product, and reaches both poles.
    # Its i coordinate is x + x' t, t = 2A - 1 with A = |w1|^2 ~ Beta(3, 3)
    # on S^11, so t >= 0.9 (and likewise t <= -0.9) has probability
    # p = P(Beta(3, 3) <= 0.05) = 1.158e-3, and 12000 draws miss a pole with
    # probability (1 - p)^12000 = 9.1e-7
    xp, xs = 0.9, -0.2
    spec = sp_spec(2)
    e = sp_algebra(sp_scaled_identity(xp, 3), scalar=xs)
    m0, usq = orbit_projection_sample(spec, e, 12000, RngStream(39))
    radius = np.sqrt(np.sum((m0 - [xs, 0.0, 0.0]) ** 2, axis=1) + usq)
    assert np.max(np.abs(radius - xp)) <= 1e-12
    assert m0[:, 0].min() <= xs - 0.9 * xp and m0[:, 0].max() >= xs + 0.9 * xp


def test_project_at_matches_haar_conjugation_on_same_draws():
    # the sampler reads g x g* at w = g* e_last alone: on the same Haar
    # draws, project_at(w) equals project_to_m(g x g*) to rounding (largest
    # difference seen: 3.6e-15, on Sp(3))
    rng = RngStream(42)
    worst = 0.0
    for n1 in (2, 8):
        g = haar_unitary(n1, StreamBlock(rng.split(n1), range(50)))
        z = _ginibre(StreamBlock(rng, [100 + n1]), n1, n1)[0, 0]
        x = (z - z.conj().T) / 2 + 0.3j * np.eye(n1)
        got = project_at("u_sphere", x, 0.0, read_point(g))
        want = project_to_m("u_sphere", conjugate(g, x), 0.0)
        worst = max(worst, *(np.max(np.abs(a - b)) for a, b in zip(got, want)))
    for n1 in (2, 3, 5):
        g = haar_symplectic(n1, StreamBlock(rng.split(10 + n1), range(50)))
        x = random_sp_skew(n1, rng.split(200 + n1))
        for scalar in (0.0, 0.37):
            got = project_at("sp_sphere", x, scalar, read_point(g))
            want = project_to_m("sp_sphere", conjugate(g, x), scalar)
            worst = max(worst, *(np.max(np.abs(a - b)) for a, b in zip(got, want)))
    assert worst <= 1e-12


def draw_moments(values):
    """Sample mean and variance of `values`, each with its standard error;
    the variance's from the sample fourth central moment."""
    d = values - values.mean()
    var = float(np.mean(d ** 2))
    return (float(values.mean()), math.sqrt(var / len(values)),
            var, math.sqrt((float(np.mean(d ** 4)) - var * var) / len(values)))


@pytest.mark.parametrize("dim", [2, 8])
def test_u_orbit_draws_follow_the_uniform_law(dim):
    # for w uniform on S^(2N-1), (|w_j|^2) is uniform on the simplex, so
    # q = sum_j lambda_j |w_j|^2 has mean mean(lambda) and variance
    # (mean(lambda^2) - mean(lambda)^2)/(N + 1); 10^4 draws, 5 sigma
    lam = np.linspace(-1.0, 2.0, dim) ** 3
    m0, _ = orbit_projection_sample(round_spec(dim - 1), u_algebra(1j * np.diag(lam)),
                                    10 ** 4, RngStream(43))
    mean, mean_se, var, var_se = draw_moments(m0[:, 0])
    assert abs(mean - lam.mean()) <= 5 * mean_se
    assert abs(var - (np.mean(lam ** 2) - lam.mean() ** 2) / (dim + 1)) <= 5 * var_se


def test_sp_orbit_draws_follow_the_uniform_law():
    # for w uniform on S^(4N-1), the i part of w* (i w) is 2A - 1 with
    # A ~ Beta(N, N): mean 0 and variance 1/(2N + 1); N = 3, 10^4 draws,
    # 5 sigma
    dim = 3
    m0, _ = orbit_projection_sample(sp_spec(dim - 1),
                                    sp_algebra(sp_scaled_identity(1.0, dim)),
                                    10 ** 4, RngStream(44))
    mean, mean_se, var, var_se = draw_moments(m0[:, 0])
    assert abs(mean) <= 5 * mean_se
    assert abs(var - 1.0 / (2 * dim + 1)) <= 5 * var_se


def test_sp_projection_agrees_with_generic_path():
    # the field of (x' i I, x) at the points w = g* e_last of Haar draws g
    # against the column (g x' i g*) e_last written out entry by entry in
    # quaternion arithmetic: x' sum_b g_ab i conj(g_last,b)
    rng = RngStream(38)
    unit_i = (np.complex128(1j), np.complex128(0.0))
    xp, xs = 0.8, 0.5
    for n in (1, 2, 3):
        g = haar_symplectic(n + 1, StreamBlock(rng.split(n), range(20)))
        m0, usq = project_at("sp_sphere", sp_scaled_identity(xp, n + 1), xs,
                             read_point(g))

        def entry(a):
            terms = [qmul(qmul((g.q1[:, a, b], g.q2[:, a, b]), unit_i),
                          qconj((g.q1[:, n, b], g.q2[:, n, b]))) for b in range(n + 1)]
            return xp * sum(t[0] for t in terms), xp * sum(t[1] for t in terms)

        last1, last2 = entry(n)
        want_m0 = np.stack([last1.imag + xs, last2.real, last2.imag], axis=1)
        want_usq = sum(qabs(entry(a)) ** 2 for a in range(n))
        assert np.max(np.abs(m0 - want_m0)) <= 1e-12
        assert np.max(np.abs(usq - want_usq)) <= 1e-12


def test_sp_projection_rejects_bad_inputs():
    with pytest.raises(InvalidInput, match="coset rank"):
        orbit_projection_sample(sp_spec(1),
                                sp_algebra(sp_scaled_identity(0.8, 3)), 10, RngStream(41))
    with pytest.raises(InvalidInput):
        sp_algebra(QuaternionMatrix(np.eye(2, dtype=complex), np.zeros((2, 2), complex)))


# ------------------------------------------------------------ axis alignment

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

