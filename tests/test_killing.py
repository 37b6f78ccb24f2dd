import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from cwspheres import checks
from cwspheres.errors import (InfeasibleParams, InvalidInput, InvalidSpec,
                              NotApplicable, NotKvfAdmissible)
from cwspheres.killing import (OrbitParams, central_kvf_phases, constant_length_identity,
                               f_poly, identity_scale, orbit_generator,
                               orbit_length_report, solve_metric,
                               sp_witness_pair)
from cwspheres.matrixcore import QuaternionMatrix, RngStream
from cwspheres.randers import RandersSpec, round_spec
from haar_reference import witness_by_conjugation
from root_reference import eq_root_pair

P_REF = OrbitParams(1, 1, 0.5, 1.0, 1.0)


def phases(p):
    """The generator's two eigenvalue phases (low block, high block)."""
    x = orbit_generator(p).x
    return (x[0, 0].imag, x[-1, -1].imag)


def random_feasible_params(rng, max_total=8):
    g = rng.gen
    while True:
        l = int(g.integers(1, max_total))
        m = int(g.integers(1, max_total + 1 - l))
        x2 = float(g.uniform(0.2, 2.0)) * (1 if g.random() < 0.5 else -1)
        # feasible interval for x1 is the open range between the phase roots
        lo, hi = sorted((m * x2, -l * x2))
        x1 = float(g.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        big = float(g.uniform(0.5, 2.0))
        try:
            return OrbitParams(l, m, x1, x2, big)
        except InfeasibleParams:
            continue


# --------------------------------------------------------------- OrbitParams

def test_params_validation():
    with pytest.raises(InfeasibleParams):
        OrbitParams(1, 1, 2.0, 1.0, 1.0)     # same-sign phases
    with pytest.raises(InfeasibleParams):
        OrbitParams(1, 1, 0.5, 0.0, 1.0)     # x2 = 0
    with pytest.raises(InvalidInput):
        OrbitParams(0, 1, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidInput):
        OrbitParams(1, 1, 0.5, 1.0, -1.0)


def test_params_geometry_accessors():
    assert phases(P_REF) == (-0.5, 1.5)
    assert P_REF.center == 0.5
    assert P_REF.radius == 1.0
    assert P_REF.n == 1


def test_orbit_generator_matrix():
    e = orbit_generator(OrbitParams(2, 1, 0.0, 1.0, 1.0))
    np.testing.assert_allclose(np.diag(e.x), [-1j, -1j, 2j])


# --------------------------------------------------------------- solve_metric

def test_solve_reference_instance():
    spec = solve_metric(P_REF)
    np.testing.assert_allclose([spec.a, spec.b, spec.c],
                               [16.0 / 9.0, 4.0 / 3.0, -2.0 / 3.0], rtol=1e-15)


def test_solve_second_instance():
    spec = solve_metric(OrbitParams(2, 1, 0.0, 1.0, 1.0))
    np.testing.assert_allclose([spec.a, spec.b, spec.c],
                               [0.5625, 0.5, -0.25], rtol=1e-15)


def test_solve_symmetric_case_gives_round_family():
    # x1 = -(l-m)x2/2 centers the orbit: c = 0 and a = b
    l, m, x2, big = 2, 1, 0.8, 1.5
    spec = solve_metric(OrbitParams(l, m, -(l - m) * x2 / 2.0, x2, big))
    assert spec.c == 0.0
    radius = 0.5 * (l + m) * x2
    np.testing.assert_allclose(spec.a, big ** 2 / radius ** 2, rtol=1e-14)
    np.testing.assert_allclose(spec.a, spec.b, rtol=1e-14)


# --------------------------------------------------- f_poly and the identity

def test_f_poly_reference_values():
    spec = solve_metric(P_REF)
    np.testing.assert_allclose(f_poly(spec, P_REF),
                               (4.0 / 9.0, 16.0 / 9.0, 16.0 / 9.0), rtol=1e-14)


def test_f_poly_degenerate_coefficients():
    flat = RandersSpec("u_sphere", n=1, a=2.0, b=2.0, c=0.5)
    k2, _, _ = f_poly(flat, P_REF)
    assert k2 == 0.0
    sym = OrbitParams(1, 1, 1e-300, 1.0, 1.0)  # x1 = 0, l = m
    _, k1, _ = f_poly(round_spec(), sym)
    assert abs(k1) <= 1e-299


def test_identity_zero_for_solved_metric():
    residuals = constant_length_identity(solve_metric(P_REF), P_REF)
    assert max(abs(r) for r in residuals) <= 1e-12


def test_identity_nonzero_for_round_spec():
    residuals = constant_length_identity(round_spec(), P_REF)
    assert max(abs(r) for r in residuals) > 0.1


def test_identity_linear_sensitivity():
    spec = solve_metric(P_REF)
    bumped = RandersSpec("u_sphere", n=1, a=spec.a, b=spec.b + 1e-3, c=spec.c)
    residuals = constant_length_identity(bumped, P_REF)
    worst = max(abs(r) for r in residuals)
    assert 1e-4 <= worst <= 1e-2


def test_identity_roundtrip_random_params():
    rng = RngStream(50)
    for k in range(100):
        p = random_feasible_params(rng.split(k))
        residuals = constant_length_identity(solve_metric(p), p)
        assert max(abs(r) for r in residuals) <= 1e-10 * max(1.0, p.L ** 2)


def identity_holds(spec, p):
    """`solve`'s verdict: the residuals within the tolerance relative to
    the largest coefficient of either side."""
    worst = max(abs(r) for r in constant_length_identity(spec, p))
    return worst <= checks.IDENTITY_RESIDUAL_TOL * identity_scale(spec, p)


@pytest.mark.parametrize("L", [1e-6, 1.0, 1e4, 1e6])
@pytest.mark.parametrize("x1,x2", [(0.5, 1.0), (0.3, 0.7)])
def test_scaled_identity_check_holds_at_every_scale(L, x1, x2):
    # an absolute bound fails the exact metric at L = 1e4 and passes
    # anything at L = 1e-6; relative to the coefficients it does neither
    p, unit = OrbitParams(1, 1, x1, x2, L), OrbitParams(1, 1, x1, x2, 1.0)
    spec = solve_metric(p)
    assert identity_holds(spec, p)
    assert identity_scale(spec, p) == pytest.approx(
        identity_scale(solve_metric(unit), unit) * L * L, rel=1e-12)
    assert not identity_holds(replace(spec, b=spec.b * (1 + 1e-6)), p)


# ------------------------------------------------------------------ the roots

def test_eq_root_pair_reference():
    spec = solve_metric(P_REF)
    np.testing.assert_allclose(eq_root_pair(spec, 1.0), (1.5, -0.5), rtol=1e-14)


def test_eq_root_pair_symmetric():
    np.testing.assert_allclose(eq_root_pair(round_spec(), 1.0), (1.0, -1.0))


def test_eq_root_pair_second_instance():
    spec = solve_metric(OrbitParams(2, 1, 0.0, 1.0, 1.0))
    np.testing.assert_allclose(eq_root_pair(spec, 1.0), (2.0, -1.0), rtol=1e-14)


def test_eq_root_pair_satisfies_defining_equation():
    rng = RngStream(51)
    for k in range(50):
        spec = solve_metric(random_feasible_params(rng.split(k)))
        big = rng.split(1000 + k).gen.uniform(0.5, 3.0)
        for root in eq_root_pair(spec, big):
            assert abs(math.sqrt(spec.a) * abs(root) + spec.c * root - big) <= 1e-12 * big


def test_roots_match_generator_phases():
    rng = RngStream(52)
    for k in range(100):
        p = random_feasible_params(rng.split(k))
        roots = eq_root_pair(solve_metric(p), p.L)
        assert abs(max(roots) - max(phases(p))) <= 1e-10 * max(1.0, abs(max(phases(p))))
        assert abs(min(roots) - min(phases(p))) <= 1e-10 * max(1.0, abs(min(phases(p))))


def test_central_phases_reference_values():
    np.testing.assert_allclose(
        central_kvf_phases(RandersSpec("u_sphere", n=1, a=0.5625, b=0.5, c=-0.25), 1.0),
        (2.0, -1.0), rtol=1e-14)
    np.testing.assert_allclose(
        central_kvf_phases(round_spec(), 1.0), (1.0, -1.0), rtol=1e-14)
    spec = solve_metric(P_REF)
    np.testing.assert_allclose(central_kvf_phases(spec, 1.0), (1.5, -0.5),
                               rtol=1e-14)


def test_central_phases_reject_inadmissible():
    with pytest.raises(NotKvfAdmissible):
        central_kvf_phases(RandersSpec("u_sphere", n=1, a=2.0, b=1.0, c=0.5), 1.0)


@pytest.mark.parametrize("k", [1e-6, 1.0, 1e6])
def test_central_phases_admissibility_is_scale_free(k):
    # a = b + c^2 is tested relative to a, so scaling the metric by k
    # (a, b by k^2, c by k) never changes the answer
    with pytest.raises(NotKvfAdmissible):
        central_kvf_phases(RandersSpec("u_sphere", n=1, a=2.0 * k * k, b=k * k,
                                       c=0.5 * k), 1.0)
    spec = solve_metric(OrbitParams(1, 1, 0.5, 1.0, k))
    np.testing.assert_allclose(central_kvf_phases(spec, k), eq_root_pair(spec, k),
                               rtol=1e-12)


def test_central_phases_equal_roots_when_admissible():
    rng = RngStream(53)
    for k in range(100):
        g = rng.split(k).gen
        b = g.uniform(0.3, 3.0)
        c = g.uniform(-1.0, 1.0)
        spec = RandersSpec("u_sphere", n=1, a=b + c * c, b=b, c=c)
        big = g.uniform(0.5, 2.0)
        np.testing.assert_allclose(central_kvf_phases(spec, big),
                                   eq_root_pair(spec, big), atol=1e-10)


def test_scale_covariance():
    lam = 2.0
    base = solve_metric(P_REF)
    scaled = solve_metric(OrbitParams(1, 1, 0.5, 1.0, lam))
    np.testing.assert_allclose(scaled.a, lam ** 2 * base.a, rtol=1e-14)
    np.testing.assert_allclose(scaled.b, lam ** 2 * base.b, rtol=1e-14)
    np.testing.assert_allclose(scaled.c, lam * base.c, rtol=1e-14)


# ------------------------------------------------------- orbit length reports
# `orbit_length_report` samples the metric values; `checks._length_row`
# judges them, as the `orbit` and `sp-central` checks do.

def test_report_constant_for_solved_instance():
    values = orbit_length_report(solve_metric(P_REF), orbit_generator(P_REF),
                                 RngStream(54), 1000)
    _, lo, hi, mean, _, verdict = checks._length_row("orbit", values, L=1.0)
    assert verdict == "constant"
    assert abs(mean - 1.0) <= 1e-12
    assert lo <= mean <= hi
    assert values.shape == (1000,)


def test_report_round_spec_balanced_generator_constant():
    e = orbit_generator(OrbitParams(1, 1, 0.0, 1.0, 1.0))
    values = orbit_length_report(round_spec(), e, RngStream(55), 300)
    assert checks._length_row("orbit", values, L=1.0)[5] == "constant"


def test_report_non_constant_for_mismatched_pair():
    # equal-modulus phases but c != 0: the one-form breaks constancy
    spec = solve_metric(P_REF)
    e = orbit_generator(OrbitParams(1, 1, 0.0, 1.0, 1.0))
    values = orbit_length_report(spec, e, RngStream(56), 300)
    assert checks._length_row("orbit", values, L=1.0)[5] == "non-constant"
    assert np.ptp(values) > 1e-2


def test_report_requires_enough_trials():
    # the floor belongs to the checks that form a verdict, not the sampler
    with pytest.raises(InvalidInput, match="at least 100 trials"):
        checks.orbit(round_spec(), P_REF, 10, RngStream(57))
    with pytest.raises(InvalidInput, match="at least 100 trials"):
        checks.sp_central(SP_SPEC, 99, RngStream(57))
    assert checks.orbit(solve_metric(P_REF), P_REF, 100, RngStream(57)).ok
    assert checks.sp_central(SP_SPEC, 100, RngStream(57)).ok


@pytest.mark.parametrize("spec,e", [
    (functools.partial(RandersSpec, "u_sphere", n=1, a=1.0, b=1.0, c=1.5),
     orbit_generator(P_REF)),
    (functools.partial(RandersSpec, "u_sphere", n=1, a=1.0, b=0.0, c=0.0),
     orbit_generator(P_REF)),
])
def test_report_rejects_invalid_spec(spec, e):
    # `spec` builds the spec: an invalid one is refused as it is built
    with pytest.raises(InvalidSpec):
        orbit_length_report(spec(), e, trials=100, rng=RngStream(57))


def test_monte_carlo_agrees_with_closed_form():
    # verdict "constant" exactly when the identity residuals vanish
    rng = RngStream(58)
    for k in range(50):
        p = random_feasible_params(rng.split(k), max_total=5)
        spec = solve_metric(p)
        if k % 2 == 1:
            bump = rng.split(5000 + k).gen.uniform(1e-3, 1e-2)
            spec = RandersSpec("u_sphere", n=spec.n, a=spec.a, b=spec.b + bump,
                               c=spec.c)
        residuals = constant_length_identity(spec, p)
        closed_constant = max(abs(r) for r in residuals) <= 1e-10
        assert checks.orbit(spec, p, 200, rng.split(9000 + k)).ok == closed_constant


# --------------------------------------------------------- sp witness & scan

SP_SPEC = RandersSpec("sp_sphere", n=2, a1=1.0, a2=1.3, b=1.0, c=0.3)


def sp_diag(entries_i, entries_j=None):
    d = np.asarray(entries_i, dtype=float)
    q1 = np.diag(1j * d).astype(complex)
    q2 = np.zeros_like(q1) if entries_j is None else np.diag(entries_j).astype(complex)
    return QuaternionMatrix(q1, q2)


def test_witness_gap_first_entry():
    x = sp_diag([1.0, 0.0, 0.0])
    m0_1, m0_2, f1, f2, expected = sp_witness_pair(x, SP_SPEC)
    assert expected == 2.0 * 0.3 * 1.0
    assert abs((f1 - f2) - expected) <= 1e-14
    np.testing.assert_allclose(m0_1, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(m0_2, [-1.0, 0.0, 0.0], atol=1e-12)


def test_witness_gap_equal_entries():
    x = sp_diag([0.7, 0.7, 0.7])
    _, _, f1, f2, expected = sp_witness_pair(x, SP_SPEC)
    assert abs(expected - 2.0 * 0.3 * 0.7) <= 1e-15
    assert abs(abs(f1 - f2) - expected) <= 1e-14


def test_witness_gap_quaternionic_entry():
    x = sp_diag([0.0, 0.3, 0.0], [0.0, 0.4 + 0.0j, 0.0])
    _, _, f1, f2, expected = sp_witness_pair(x, SP_SPEC)
    assert abs(expected - 2.0 * 0.3 * 0.5) <= 1e-15
    assert abs(abs(f1 - f2) - expected) <= 1e-13


def test_witness_points_match_the_conjugation_route():
    # the witness reads the field at e_idx s and e_idx (s j); the route it
    # replaced conjugates by h = t* P* and reads the last column, and
    # h* e_last is that same point, so the two agree to rounding.  (s is
    # imaginary, so conj(s) = -s names the same line and the same field.)
    rng = RngStream(63)
    cases = [sp_diag([0.0, -0.7]),                          # d = -i branch
             sp_diag([0.0, 0.3, -1.1], [0.0, 0.4 - 0.2j, 0.6j])]
    for k in range(30):
        n1 = 2 + k % 3
        entries = rng.split(k).gen.standard_normal((n1, 3))
        entries[: k % n1] = 0.0             # the first non-zero entry moves along
        entries[np.abs(entries) < 0.2] = 0.0
        entries[-1, 0] += 1.0
        cases.append(sp_diag(entries[:, 0], entries[:, 1] + 1j * entries[:, 2]))
    for x in cases:
        spec = RandersSpec("sp_sphere", n=x.shape[0] - 1, a1=1.0, a2=1.3, b=1.0, c=0.3)
        m0_1, m0_2, f1, f2, _ = sp_witness_pair(x, spec)
        ref_1, ref_2, ref_f1, ref_f2 = witness_by_conjugation(x, spec)
        np.testing.assert_allclose(np.stack([m0_1, m0_2]), np.stack([ref_1, ref_2]),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose([f1, f2], [ref_f1, ref_f2], rtol=0, atol=1e-14)


def test_witness_rejects_zero_and_reversible():
    with pytest.raises(InvalidInput):
        sp_witness_pair(sp_diag([0.0, 0.0, 0.0]), SP_SPEC)
    reversible = RandersSpec("sp_sphere", n=2, a1=1.0, a2=1.3, b=1.0, c=0.0)
    with pytest.raises(NotApplicable):
        sp_witness_pair(sp_diag([1.0, 0.0, 0.0]), reversible)
    for size in (1, 2, 4):          # SP_SPEC has n = 2: 3 x 3 generators
        with pytest.raises(InvalidInput, match="coset rank"):
            sp_witness_pair(sp_diag([1.0] * size), SP_SPEC)


def test_scan_central_vs_noncentral():
    report = checks.sp_central(SP_SPEC, 400, RngStream(61))
    assert [row[-1] for row in report.rows] == ["constant", "non-constant",
                                                "non-constant"]
    _, lo, hi, mean, _, _ = report.rows[1]
    assert hi - lo > 1e-4 * mean
    assert report.ok
