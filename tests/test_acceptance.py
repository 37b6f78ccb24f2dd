"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest -s`` to see them all).  Tolerances are fixed here or,
where a criterion runs a `verify` check, in `cwspheres.checks`; seeds are
fixed for reproducibility.
"""

import math
import time

import numpy as np
from scipy.spatial.distance import pdist

from cwspheres import checks
from cwspheres.errors import NotKvfAdmissible
from cwspheres.flows import (apply_flow, block_angle_unitary,
                             commutator_eig1_persistence, u_flow)
from cwspheres.killing import (OrbitParams, central_kvf_phases,
                               constant_length_identity, solve_metric,
                               sp_witness_pair)
from cwspheres.matrixcore import QuaternionMatrix, RngStream, StreamBlock
from cwspheres.randers import RandersSpec
from root_reference import eq_root_pair


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_feasible_params(rng, max_total=8):
    g = rng.gen
    l = int(g.integers(1, max_total))
    m = int(g.integers(1, max_total + 1 - l))
    x2 = float(g.uniform(0.2, 2.0)) * (1 if g.random() < 0.5 else -1)
    lo, hi = sorted((m * x2, -l * x2))
    x1 = float(g.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
    return OrbitParams(l, m, x1, x2, float(g.uniform(0.5, 2.0)))


def test_criterion_01_closed_form_round_trip():
    start = time.time()
    rng = RngStream(101)
    worst = 0.0
    for k in range(100):
        p = random_feasible_params(rng.split(k))
        residuals = constant_length_identity(solve_metric(p), p)
        worst = max(worst, max(abs(r) for r in residuals))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _report(1, ok, f"identity residuals <= 1e-10 over 100 random "
                          f"parameter sets (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_orbit_sampling_certifies_indicatrix():
    start = time.time()
    p = OrbitParams(1, 1, 0.5, 1.0, 1.0)
    spec = solve_metric(p)
    assert (spec.a, spec.b, spec.c) == (16.0 / 9.0, 4.0 / 3.0, -2.0 / 3.0)
    report = checks.orbit(spec, p, 1000, RngStream(102))
    _, lo, hi, mean, _, _ = report.rows[0]
    elapsed = time.time() - start
    ok = report.ok and hi - lo <= 1e-8 and elapsed < 5.0
    assert _report(2, ok, f"1000 conjugations: spread {hi - lo:.2e} <= 1e-8, "
                          f"mean {mean:.12f} ({elapsed:.2f}s)")


def test_criterion_03_central_phase_consistency():
    rng = RngStream(103)
    worst_eq = 0.0
    for k in range(100):
        g = rng.split(k).gen
        b = float(g.uniform(0.3, 3.0))
        c = float(g.uniform(-1.0, 1.0))
        big = float(g.uniform(0.5, 2.0))
        spec = RandersSpec("u_sphere", n=1, a=b + c * c, b=b, c=c)
        mu = central_kvf_phases(spec, big)
        roots = eq_root_pair(spec, big)
        worst_eq = max(worst_eq, abs(mu[0] - roots[0]), abs(mu[1] - roots[1]))
    rejected = 0
    gap_ok = True
    for k in range(100):
        g = rng.split(1000 + k).gen
        b = float(g.uniform(0.3, 3.0))
        c = float(g.uniform(-1.0, 1.0))
        big = float(g.uniform(0.5, 2.0))
        delta = float(g.uniform(1e-3, 1e-2))
        spec = RandersSpec("u_sphere", n=1, a=b + c * c, b=b, c=c)
        bumped = RandersSpec("u_sphere", n=1, a=spec.a, b=b + delta, c=c)
        try:
            central_kvf_phases(bumped, big)
        except NotKvfAdmissible:
            rejected += 1
        # candidate with the admissible spec's eigenvalue phases
        hi, lo = eq_root_pair(spec, big)
        x2 = (hi - lo) / 2.0
        p = OrbitParams(1, 1, lo + x2, x2, big)
        report = checks.orbit(bumped, p, 1000, rng.split(2000 + k))
        _, fmin, fmax, _, _, verdict = report.rows[0]
        gap_ok = gap_ok and not report.ok and verdict == "non-constant" \
            and fmax - fmin >= 1e-4 * big
    ok = worst_eq <= 1e-10 and rejected == 100 and gap_ok
    assert _report(3, ok, f"phase pairs agree to {worst_eq:.2e}; "
                          f"{rejected}/100 perturbed specs rejected; "
                          f"orbit gaps >= 1e-4*L: {gap_ok}")


def test_criterion_04_endpoint_focusing():
    # S^3 in C^2: a unit traceless X has exp(pi X) = -I, so the flow of
    # X - i v I takes every start point z to -exp(-i pi v) z
    rng = RngStream(104)
    vnorm = 0.5
    g4 = rng.gen.standard_normal(4)
    p = g4 / np.linalg.norm(g4)
    z = np.array([p[0] + 1j * p[1], -p[2] + 1j * p[3]])
    ref = -np.exp(-1j * math.pi * vnorm) * z
    ends = []
    for k in range(100):
        x3 = rng.split(k).gen.standard_normal(3)
        a, b, c = x3 / np.linalg.norm(x3)
        x = np.array([[1j * a, b + 1j * c], [-b + 1j * c, -1j * a]])
        ends.append(apply_flow(u_flow(x - 1j * vnorm * np.eye(2), math.pi), z))
    ends = np.array(ends)
    spread = float(np.max(pdist(ends.view(float))))
    identity_dev = float(np.max(np.linalg.norm(ends - ref, axis=1)))
    ok = spread <= 1e-10 and identity_dev <= 1e-12
    assert _report(4, ok, f"100 unit generators focus at one endpoint "
                          f"(spread {spread:.2e}, identity dev {identity_dev:.2e})")


def test_criterion_05_phase_interval_bound_monte_carlo():
    start = time.time()
    violations = 0
    for n in range(2, 7):
        report = checks.eigenlemma(n, 10000, RngStream(105).split(n))
        violations += sum(row[2] is False for row in report.rows)
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 60.0
    assert _report(5, ok, f"phase-interval bound: {violations} violations over "
                          f"5 x 10^4 Haar pairs, n in 2..6 ({elapsed:.1f}s)")


def test_criterion_06_commutator_eigenvalue_persistence():
    rng = RngStream(106)
    singular_ok = 0
    for k in range(200):
        sub = rng.split(k)
        l = int(sub.gen.integers(1, 4))
        m = int(sub.gen.integers(1, 4))
        r = min(l, m)
        angles = sub.gen.uniform(0.15, math.pi / 2 - 0.15, size=r)
        angles[k % r] = 0.0
        u = block_angle_unitary(l, m, angles[None], StreamBlock(sub, [1]))
        res = commutator_eig1_persistence(u, l, m)
        if res.has_eig1.all() and (res.worst_residual <= checks.SHARED_VECTOR_TOL).all() \
                and res.worst_residual.max() <= 1e-8:
            singular_ok += 1
    invertible_ok = 0
    for k in range(200):
        sub = rng.split(10000 + k)
        l = int(sub.gen.integers(1, 4))
        angles = sub.gen.uniform(0.15, math.pi / 2 - 0.15, size=l)
        u = block_angle_unitary(l, l, angles[None], StreamBlock(sub, [1]))
        res = commutator_eig1_persistence(u, l, l)
        if not res.has_eig1.any() and res.spectral_dists.min() >= 1e-9:
            invertible_ok += 1
    ok = singular_ok == 200 and invertible_ok == 200
    assert _report(6, ok, f"singular off-blocks: {singular_ok}/200 persist with "
                          f"shared eigenvector; invertible: {invertible_ok}/200 "
                          f"never reach eigenvalue 1")


def test_criterion_07_nonintersection_probe():
    report = checks.nonintersection(0.5, 1, 1, 1000, RngStream(107))
    worst = report.rows[0][1]
    ok = report.ok and worst >= 1e-9
    assert _report(7, ok, f"1000 trials, min spectral distance from 1: {worst:.2e}")


def test_criterion_08_symplectic_family_harness():
    rng = RngStream(108)
    spec_by_n = {n: RandersSpec("sp_sphere", n=n, a1=1.1, a2=1.4, b=1.0, c=0.3)
                 for n in (1, 2, 3)}
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        dim = n + 1
        diags = []
        for k in range(10):
            e3 = rng.split(n * 100 + k).gen.standard_normal((dim, 3))
            mask = rng.split(n * 200 + k).gen.random(dim) < 0.4
            e3[mask] = 0.0
            if not np.any(np.linalg.norm(e3, axis=1) > 1e-14):
                e3[0] = [1.0, 0.0, 0.0]
            diags.append(e3)
        one = np.zeros((dim, 3))
        one[0, 0] = 1.0
        diags.append(one)
        diags.append(np.tile([0.4, 0.3, -0.2], (dim, 1)))
        for e3 in diags:
            x = QuaternionMatrix(np.diag(1j * e3[:, 0]).astype(complex),
                                 np.diag(e3[:, 1] + 1j * e3[:, 2]).astype(complex))
            _, _, f1, f2, expected = sp_witness_pair(x, spec_by_n[n])
            worst = max(worst, abs(abs(f1 - f2) - expected))
            cases += 1
    scan_ok = checks.sp_central(spec_by_n[2], 1000, RngStream(109)).ok
    ok = worst <= 1e-12 and scan_ok
    assert _report(8, ok, f"witness gaps exact to {worst:.2e} over {cases} "
                          f"diagonals (n<=3); central-only scan: {scan_ok}")


def test_criterion_09_oracle_sanity():
    start = time.time()
    report = checks.oracle(20000, 12, RngStream(110), RngStream(111),
                           RngStream(112))
    anti_err, sym_dev, spread = (row[1] for row in report.rows)
    elapsed = time.time() - start
    ok = report.ok and elapsed < 180.0
    assert _report(9, ok, f"antipodal err {100 * anti_err:.2f}% (<=5%), "
                          f"symmetry dev {100 * sym_dev:.2f}% (<=1%), "
                          f"rotation spread {100 * spread:.2f}% (<=7%) "
                          f"({elapsed:.0f}s)")


def test_criterion_10_cw_displacement_constancy():
    start = time.time()
    p = OrbitParams(1, 1, 0.5, 1.0, 1.0)
    report = checks.displacement(solve_metric(p), p, 0.3, 50, 20000, 12,
                                 RngStream(113), RngStream(114))
    summary = dict(report.rows[-1][1:])
    elapsed = time.time() - start
    ok = report.ok and elapsed < 180.0
    assert _report(10, ok, f"flow at t=0.3: mean displacement {summary['mean']:.4f}, "
                           f"spread {100 * summary['rel_spread']:.2f}% (<=7%) "
                           f"({elapsed:.0f}s)")
