"""The batched Monte-Carlo checkers against per-trial reference loops.

The references below are the per-trial code the batched checkers
replaced: one Ginibre QR and one eigvals call per draw, one SVD per
eigenvalue-1 distance, one unit vector and one matrix-vector product per
orbit point, and a phase-interval verdict from a zero-cost perfect
matching found by `linear_sum_assignment`.  Run on the same streams, the
batched checks must give the same report bit for bit.  The Sp(n) QR
sampler that the tests keep as the orbit sampler's reference
(`haar_reference`) must match its per-draw QR bit for bit, and the
quaternion Gram-Schmidt up to rounding.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from cwspheres import checks, killing, matrixcore
from cwspheres.cli import _SP_DEFAULT
from cwspheres.checks import SHARED_VECTOR_TOL
from cwspheres.flows import (EIG1_TOL, MIN_T_SEP, PHASE_EPS, BRANCH_CUT_TOL, T_GRID,
                             phase_bound_check)
from cwspheres.killing import OrbitParams, solve_metric
from cwspheres.matrixcore import TRIAL_BLOCK, RngStream
from cwspheres.randers import SP_SPHERE, U_SPHERE

import haar_reference

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------- per-trial kernels

def ref_ginibre(rng, n):
    g = rng.gen
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)


def ref_haar_unitary(n, rng):
    q, r = np.linalg.qr(ref_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_haar_symplectic(n, rng):
    """One QR of the column-interleaved complex embedding of a quaternion
    Ginibre matrix: column 2a is [G1[:, a]; -conj G2[:, a]], column 2a + 1
    its j-partner [G2[:, a]; conj G1[:, a]]."""
    g1 = ref_ginibre(rng, n)
    g2 = ref_ginibre(rng, n)
    m = np.empty((2 * n, 2 * n), dtype=complex)
    m[:n, 0::2], m[n:, 0::2] = g1, -np.conj(g2)
    m[:n, 1::2], m[n:, 1::2] = g2, np.conj(g1)
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q[:n, 0::2], q[:n, 1::2]


def gram_schmidt_symplectic(n, rng):
    """Modified Gram-Schmidt over the quaternions, one column pair at a
    time: the slow, independent reference for the QR sampler."""
    g1 = ref_ginibre(rng, n)
    g2 = ref_ginibre(rng, n)
    cols = [(g1[:, a].copy(), g2[:, a].copy()) for a in range(n)]
    for _ in range(2):
        for a in range(n):
            v1, v2 = cols[a]
            for b in range(a):
                u1, u2 = cols[b]
                c0 = np.sum(np.conj(u1) * v1 + u2 * np.conj(v2))
                c1 = np.sum(np.conj(u1) * v2 - u2 * np.conj(v1))
                v1 = v1 - (u1 * c0 - u2 * np.conj(c1))
                v2 = v2 - (u1 * c1 + u2 * np.conj(c0))
            nrm = np.sqrt(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2))
            cols[a] = (v1 / nrm, v2 / nrm)
    return (np.column_stack([c[0] for c in cols]), np.column_stack([c[1] for c in cols]))


def ref_phases(u):
    phases = np.angle(np.linalg.eigvals(u))
    return np.sort(np.where(phases <= -np.pi, phases + TWO_PI, phases), axis=-1)


def ref_phase_bound_verdicts(p, q, raw_branch=False):
    """Per pair of the (T, n, n) stacks: "undefined" on the branch cut, else
    whether a zero-cost perfect matching of intervals to lifted PQ phases
    exists (cost 0 where some lift by 0 or +-2pi fits)."""
    a, b, theta = ref_phases(p), ref_phases(q), ref_phases(p @ q)
    lo = a + b.min(axis=-1, keepdims=True) - PHASE_EPS
    hi = a + b.max(axis=-1, keepdims=True) + PHASE_EPS
    fits = np.zeros(lo.shape + (lo.shape[-1],), dtype=bool)
    for s in (0.0,) if raw_branch else (0.0, TWO_PI, -TWO_PI):
        lift = theta[:, None, :] + s
        fits |= (lo[:, :, None] <= lift) & (lift <= hi[:, :, None])
    cut = (np.abs(a) >= math.pi - BRANCH_CUT_TOL) | (np.abs(b) >= math.pi - BRANCH_CUT_TOL)
    out = []
    for k in range(len(a)):
        if cut[k].any():
            out.append("undefined")
            continue
        cost = np.where(fits[k], 0.0, 1.0)
        rows, cols = linear_sum_assignment(cost)
        out.append(bool(cost[rows, cols].sum() == 0.0))
    return out


def ref_unit_vector(gen, count, dim):
    """One trial's orbit point: `count` complex Gaussian vectors of length
    `dim`, each one's real parts then its imaginary ones, normalised
    together, as (1, dim) rows."""
    z = gen.standard_normal((count, 2, dim))
    w = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    w = w / np.sqrt(np.sum(np.abs(w) ** 2))
    return [wj[None] for wj in w]


def ref_orbit_sample(space, e, trials, rng):
    """One unit vector, one matrix-vector product and one projection per
    orbit point: m0 from c = w* x w, usq = |x w - w c|^2."""
    m0, usq = [], []
    for k in range(trials):
        gen = rng.split(k).gen
        if space.family == U_SPHERE:
            (w,) = ref_unit_vector(gen, 1, space.n + 1)
            v = (e.x @ w[..., None])[..., 0]
            c = np.sum(np.conj(w) * v, axis=-1)
            m0.append([c[0].imag])
            usq.append(float(np.sum(np.abs(v - w * c[:, None]) ** 2)))
        else:
            assert space.family == SP_SPHERE
            w1, w2 = ref_unit_vector(gen, 2, space.n + 1)
            x1, x2 = e.x.q1, e.x.q2
            cw1, cw2 = np.conj(w1), np.conj(w2)
            v1 = (x1 @ w1[..., None] - x2 @ cw2[..., None])[..., 0]
            v2 = (x1 @ w2[..., None] + x2 @ cw1[..., None])[..., 0]
            cv1, cv2 = np.conj(v1), np.conj(v2)
            c1 = np.sum(cw1 * v1 + w2 * cv2, axis=-1)[:, None]
            c2 = np.sum(cw1 * v2 - w2 * cv1, axis=-1)[:, None]
            cc1, cc2 = np.conj(c1), np.conj(c2)
            u1 = v1 - (w1 * c1 - w2 * cc2)
            u2 = v2 - (w1 * c2 + w2 * cc1)
            m0.append([c1[0, 0].imag + e.scalar, c2[0, 0].real, c2[0, 0].imag])
            usq.append(float(np.sum(np.abs(u1) ** 2 + np.abs(u2) ** 2)))
    return np.array(m0), np.array(usq)


# -------------------------------------------------------- per-trial checks

def ref_digest(*arrays):
    """A trial's inputs_hash, from copies of its matrices' bytes."""
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    return hashlib.sha1(data).hexdigest()[:12]


def ref_eigenlemma(n, trials, rng):
    rows = []
    for k in range(trials):
        sub = rng.split(k)
        p = ref_haar_unitary(n, sub.split(0))
        q = ref_haar_unitary(n, sub.split(1))
        (verdict,) = ref_phase_bound_verdicts(p[None], q[None])
        rows.append((k, ref_digest(p, q), verdict,
                     0.0 if verdict is True else math.nan))
    defined = [row[2] for row in rows if row[2] != "undefined"]
    return checks.CheckReport(checks._TRIAL_HEADER, tuple(rows),
                              bool(defined) and all(defined))


def ref_block_angle_unitary(l, m, angles, rng):
    rot = np.eye(l + m)
    for i, th in enumerate(angles):
        cs, sn = math.cos(th), math.sin(th)
        rot[i, i] = cs
        rot[l + i, l + i] = cs
        rot[i, l + i] = -sn
        rot[l + i, i] = sn
    left = np.zeros((l + m, l + m), dtype=complex)
    right = np.zeros_like(left)
    left[:l, :l] = ref_haar_unitary(l, rng.split(0))
    left[l:, l:] = ref_haar_unitary(m, rng.split(1))
    right[:l, :l] = ref_haar_unitary(l, rng.split(2))
    right[l:, l:] = ref_haar_unitary(m, rng.split(3))
    return left @ rot @ right


def ref_commutator_eig1(u, l, m):
    """(has eigenvalue 1 per grid point, distances, shared, worst residual)."""
    mats = []
    dists = []
    for t in T_GRID:
        d = np.concatenate([np.full(l, np.exp(-1j * t)), np.full(m, np.exp(1j * t))])
        twisted = d[:, None] * u * np.conj(d)[None, :]
        mats.append(twisted @ u.conj().T)
        # min |lambda - 1| over the eigenvalues of twisted u*
        dists.append(np.linalg.svd(twisted - u, compute_uv=False)[-1])
    dists = np.array(dists)
    has = dists <= EIG1_TOL
    worst = np.inf
    if np.all(has):
        w, vecs = np.linalg.eig(mats[0])
        for idx in np.where(np.abs(w - 1.0) <= max(EIG1_TOL, 1e-8))[0]:
            v = vecs[:, idx] / np.linalg.norm(vecs[:, idx])
            worst = min(worst, max(float(np.linalg.norm(mat @ v - v)) for mat in mats))
    return has, dists, bool(np.all(has) and worst <= SHARED_VECTOR_TOL), float(worst)


def ref_commutator(l, m, trials, rng):
    r = min(l, m)
    rows = []
    for k in range(trials):
        sub = rng.split(k)
        invertible = (k % 2 == 1) and l == m
        angles = sub.gen.uniform(0.15, math.pi / 2 - 0.15, size=r)
        if not invertible:
            angles[k % r] = 0.0
        u = ref_block_angle_unitary(l, m, angles, sub.split(1))
        has, dists, shared, worst = ref_commutator_eig1(u, l, m)
        if invertible:
            verdict, residual = not has.any(), float(dists.min())
        else:
            verdict, residual = bool(has.all() and shared), worst
        rows.append((k, ref_digest(u), verdict, residual))
    return checks.CheckReport(checks._TRIAL_HEADER, tuple(rows),
                              all(row[2] for row in rows))


def ref_nonintersection(x, l, m, trials, rng):
    n = l + m
    diag = 1j * (x * np.ones(n) + np.concatenate([-np.ones(l), np.ones(m)]))
    worst = np.inf
    for k in range(trials):
        g_rng = rng.split(k)
        g1 = ref_haar_unitary(n, g_rng.split(0))
        g2 = ref_haar_unitary(n, g_rng.split(1))
        while True:
            t1, t2 = np.sort(g_rng.gen.uniform(0.0, math.pi, size=2))[::-1]
            if t1 - t2 >= MIN_T_SEP:
                break
        e1 = (g1 * np.exp(t1 * diag)[None, :]) @ g1.conj().T
        e2 = (g2 * np.exp(-t2 * diag)[None, :]) @ g2.conj().T
        # min |lambda - 1| over the eigenvalues of e1 e2
        worst = min(worst, float(np.linalg.svd(e1 - e2.conj().T, compute_uv=False)[-1]))
    ok = bool(worst >= 1e-9)
    return checks.CheckReport(("check", "min_spectral_distance", "trials", "verdict"),
                              (("nonintersection", worst, trials, ok),), ok)


# ------------------------------------------------- same draws, same bytes

@pytest.mark.parametrize("n", range(1, 9))
def test_symplectic_sampler_agrees_with_quaternion_gram_schmidt(n):
    # the QR of the interleaved embedding is the quaternionic QR factor, so
    # on the same streams it equals the Gram-Schmidt draw up to rounding
    rng = RngStream(31)
    q = haar_reference.haar_symplectic(n, matrixcore.StreamBlock(rng, range(40)))
    for k in range(40):
        q1, q2 = gram_schmidt_symplectic(n, rng.split(k))
        assert np.max(np.abs(q.q1[k] - q1)) <= 1e-13
        assert np.max(np.abs(q.q2[k] - q2)) <= 1e-13


def test_symplectic_sampler_matches_its_per_draw_qr():
    rng = RngStream(32)
    for n in (1, 2, 5):
        q = haar_reference.haar_symplectic(n, matrixcore.StreamBlock(rng, range(300)))
        for k in range(300):
            q1, q2 = ref_haar_symplectic(n, rng.split(k))
            assert np.array_equal(q.q1[k], q1) and np.array_equal(q.q2[k], q2)


S3 = OrbitParams(1, 1, 0.5, 1.0, 1.0)
S15 = OrbitParams(3, 5, 0.5, 1.0, 1.0)
# The `montecarlo` benchmark pass sizes, plus a trial count that leaves a
# partial last block.
CASES = {
    "orbit-S3": ("orbit", (solve_metric(S3), S3, 1250)),
    "orbit-S15": ("orbit", (solve_metric(S15), S15, 1250)),
    "sp-central": ("sp_central", (_SP_DEFAULT, 250)),
    "eigenlemma-n2": ("eigenlemma", (2, 400)),
    "eigenlemma-n4": ("eigenlemma", (4, 400)),
    "eigenlemma-n6": ("eigenlemma", (6, 400)),
    "eigenlemma-partial-block": ("eigenlemma", (3, 2 * TRIAL_BLOCK + 3)),
    "commutator-l2": ("commutator", (2, 2, 50)),
    "commutator-l4": ("commutator", (4, 4, 50)),
    "commutator-l1m3": ("commutator", (1, 3, 20)),
    "nonintersection": ("nonintersection", (0.5, 1, 1, 250)),
}
REFERENCES = {"eigenlemma": ref_eigenlemma, "commutator": ref_commutator,
              "nonintersection": ref_nonintersection}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_check_matches_per_trial_reference(monkeypatch, case):
    name, args = CASES[case]
    batched = getattr(checks, name)(*args, RngStream(0))
    if name in REFERENCES:
        reference = REFERENCES[name](*args, RngStream(0))
    else:   # orbit and sp-central, with the per-draw sampler swapped in
        monkeypatch.setattr(killing, "orbit_projection_sample", ref_orbit_sample)
        reference = getattr(checks, name)(*args, RngStream(0))
    # repr tells floats apart bit for bit and keeps Python bools apart
    # from numpy ones
    assert repr(batched) == repr(reference)
    assert batched.ok


def test_block_size_does_not_change_reports(monkeypatch):
    # every stacked draw, eigensolve and SVD is sized by the block: the
    # reports must not see where blocks end
    def reports():
        return [checks.eigenlemma(3, 40, RngStream(4)), checks.commutator(2, 2, 9, RngStream(4)),
                checks.commutator(4, 4, 17, RngStream(4)),
                checks.nonintersection(0.5, 1, 1, 40, RngStream(4)),
                checks.orbit(solve_metric(S3), S3, 100, RngStream(4)),
                checks.sp_central(_SP_DEFAULT, 100, RngStream(4))]
    full = reports()
    monkeypatch.setattr(matrixcore, "TRIAL_BLOCK", 7)
    assert repr(reports()) == repr(full)


# ------------------------------ cyclic-window verdict vs perfect matching

def haar_pairs(n, count, seed):
    """`count` Haar pairs in U(n) from one generator, as two stacks."""
    g = np.random.default_rng(seed)
    z = (g.standard_normal((2, count, n, n))
         + 1j * g.standard_normal((2, count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    return u[0], u[1]


def stack_verdicts(p, q):
    defined, verdict = phase_bound_check(p, q)
    return [bool(v) if ok else "undefined" for ok, v in zip(defined, verdict)]


@pytest.mark.parametrize("n", range(2, 7))
def test_cyclic_window_agrees_with_matching_on_haar_pairs(n):
    p, q = haar_pairs(n, 10 ** 4, 500 + n)
    got = stack_verdicts(p, q)
    assert got == ref_phase_bound_verdicts(p, q)
    # the lifted check never fails on a Haar pair
    assert all(v is True for v in got)


def _diag(phases):
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


def _conj(u, d):
    return u @ d @ u.conj().T


def near_edge_pairs():
    """Pairs built so that the verdict hinges on a comparison at an edge."""
    u = haar_pairs(4, 1, 7)[0][0]
    pairs = []
    # a PQ phase within 1e-9 of an interval end, on either side of it
    for delta in (0.5e-9, 1e-9, 1.5e-9, 2e-9, 2.5e-9):
        pairs.append((_diag([0.0, delta]), _diag([0.0, 0.3])))
        pairs.append((_diag([0.4, 0.4 + delta, -1.0]), _diag([-0.2, 0.1, 0.1 + delta])))
        pairs.append((_conj(u, _diag([0.0, delta, 1.0, -2.0])),
                      _conj(u, _diag([0.3, 0.3 - delta, 0.0, 0.0]))))
    # P or Q phases just inside +-pi: wrapped PQ phases need a rotation
    inside = math.pi - 2e-12
    pairs += [(_diag([inside, 0.3]), _diag([0.2, -0.1])),
              (_diag([-inside, 2.9]), _diag([0.5, 0.6])),
              (_diag([0.1, 2.0]), _diag([inside, -inside])),
              (_conj(u, _diag([inside, 1.0, -1.0, -inside])), _conj(u, _diag([0.4] * 4)))]
    # repeated eigenvalues
    v = haar_pairs(4, 1, 8)[0][0]
    pairs += [(_conj(u, _diag([0.5, 0.5, 0.5, -1.0])), _conj(v, _diag([0.2, 0.2, -0.3, -0.3]))),
              (_diag([0.7] * 3), _diag([2.6] * 3)),
              (np.eye(3), np.eye(3))]
    # the raw-branch counterexample of test_flows
    pairs.append((_diag([2.5, 2.6]), _diag([2.0, 2.1])))
    return pairs


def test_cyclic_window_agrees_with_matching_near_edges():
    verdicts = []
    for p, q in near_edge_pairs():
        (want,) = ref_phase_bound_verdicts(p[None], q[None])
        (got,) = stack_verdicts(p[None], q[None])
        assert got == want, (p, q)
        verdicts.append(want)
    assert False not in verdicts
