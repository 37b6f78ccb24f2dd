"""Isometry flows and executable eigenvalue-phase checkers.

Covers the one-parameter flows generated by constant-length Killing
fields (linear unitary flows on S^(2n+1)), the focusing of all
unit-generator flows at a single endpoint at time pi (on S^3 in C^2), and
two spectral facts the geodesic non-intersection argument rests on: a
phase-interval bound for products of unitary matrices, and persistence of
eigenvalue 1 for twisted commutators with singular off-diagonal blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInput
from .matrixcore import (BLOCK_ENTRIES, as_skew_hermitian, as_unitary, conj_t,
                         expm_skew, haar_unitary, seed_block, stream_list,
                         trial_blocks, unitary_phases)

TWO_PI = 2.0 * math.pi
ENDPOINT_BASE_POINTS = 3
PHASE_EPS = 1e-9                # slack of each phase interval
EIG1_TOL = 1e-9                 # |lambda - 1| that counts as eigenvalue 1
SHARED_VECTOR_TOL = 1e-8        # residual of a shared eigenvector
MIN_T_SEP = 1e-6                # least t1 - t2 of a non-intersection trial
NONINTERSECTION_MIN_DIST = 1e-9
BRANCH_CUT_TOL = 1e-12          # a phase this close to +-pi is on the cut
# t-grid of the commutator check: 32 uniform points strictly inside (0, pi)
T_GRID = np.linspace(0.0, math.pi, 34)[1:-1]
T_GRID.flags.writeable = False


# --------------------------------------------------------------------------
# flows
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowIsometry:
    """One-parameter isometry v -> exp(t X) v of the unit sphere of
    C^(n+1) at a fixed finite time t."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        as_skew_hermitian(self.x)
        if not math.isfinite(self.t):
            raise InvalidInput("flow time must be finite")


def u_flow(x, t) -> FlowIsometry:
    return FlowIsometry(np.asarray(x, dtype=complex), float(t))


def apply_flow(f: FlowIsometry, points):
    """Apply the flow to a unit vector of C^(n+1), or to each row of a
    (P, n+1) stack of them.

    Output is renormalized onto the sphere; the drift removed this way is
    at machine-precision scale because the exponential is exactly unitary.
    exp(tX) is computed once; each point is multiplied and renormalized on
    its own, since a stacked product rounds differently.
    """
    v = np.asarray(points, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1] != f.x.shape[0]:
        raise InvalidInput("point shape does not match the flow generator")
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-10):
        raise InvalidInput("point is off the unit sphere")
    e = expm_skew(f.x, f.t)
    moved = []
    for row in np.atleast_2d(v):
        out = e @ row
        moved.append(out / np.linalg.norm(out))
    return np.array(moved).reshape(v.shape)


def endpoint_focus_check(vnorm, rng, samples=100):
    """Spread of time-pi flow endpoints on S^3 in C^2 over random unit
    generators, and their distance from the predicted endpoint.

    A traceless X with |X|_eq = 1 has exp(pi X) = -I, so the flow of
    X - i vnorm I takes a start point z to -exp(-i pi vnorm) z whatever X
    is.  (Read on the first column z = g e_1, this is the flow
    g -> exp(tX) g exp(-tV) on SU(2) with V = vnorm diag(i, -i).)  Returns
    the largest pairwise C^2 distance between the endpoints of one start
    point, over a few random start points each probed with `samples`
    random unit X, and the largest |end + exp(-i pi vnorm) z| over the same
    endpoints; a spread needs at least two samples.
    """
    # refuses nan and inf too, before vnorm enters any product
    if not abs(vnorm) < 1.0:
        raise InvalidInput("isotropy vector must satisfy |V|_eq < 1")
    if int(samples) < 2:
        raise InvalidInput("need at least two samples")
    shift = -1j * vnorm * np.eye(2)
    phase = np.exp(-1j * math.pi * vnorm)
    spread = identity = 0.0
    for bp in range(ENDPOINT_BASE_POINTS):
        g_rng = rng.split(bp)
        x_rngs = [g_rng.split(k + 1) for k in range(int(samples))]
        seed_block([g_rng, *x_rngs])
        p = g_rng.gen.standard_normal(4)
        p /= np.linalg.norm(p)
        z = np.array([p[0] + 1j * p[1], -p[2] + 1j * p[3]])      # g e_1
        ends = []
        for x_rng in x_rngs:
            x3 = x_rng.gen.standard_normal(3)
            a, b, c = x3 / np.linalg.norm(x3)
            x = np.array([[1j * a, b + 1j * c], [-b + 1j * c, -1j * a]])
            ends.append(apply_flow(u_flow(x + shift, math.pi), z))
        ends = np.array(ends)
        pts = ends.view(float)
        # row blocks of the distance matrix, each row against itself and the
        # rows after it: the pairwise maximum in bounded memory
        rows = max(1, BLOCK_ENTRIES // len(pts))
        for top in range(0, len(pts), rows):
            spread = max(spread, float(np.max(cdist(pts[top:top + rows], pts[top:]))))
        identity = max(identity, float(np.linalg.norm(ends + phase * z, axis=1).max()))
    return spread, identity


# --------------------------------------------------------------------------
# phase-interval bound for products of unitaries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseBoundStack:
    """The phase-interval bound for a stack of pairs, one row per pair."""

    pq_phases: np.ndarray      # (T, n) sorted principal phases of PQ
    lo: np.ndarray             # (T, n) interval i is [lo_i, hi_i]
    hi: np.ndarray
    lifted: np.ndarray         # (T, n) lift matched to interval i, NaN on failure
    defined: np.ndarray        # (T,) no P or Q phase on the branch cut
    verdict: np.ndarray        # (T,) bool, False where undefined


def _on_branch_cut(phases):
    return np.any(np.abs(phases) >= math.pi - BRANCH_CUT_TOL, axis=-1)


def phase_bound_check(p, q, raw_branch=False) -> PhaseBoundStack:
    """Check, for each pair of the (T, n, n) stacks P and Q, that each phase
    of PQ, sorted and lifted to the reals, lies in [a_i + min(b), a_i +
    max(b)] where a, b are the sorted phases of P, Q.

    Interval i is widened by PHASE_EPS.  A phase of PQ fits it when some
    lift by 0 or +-2pi lies inside, matching the continuity of the phase
    paths of P exp(tB); with raw_branch=True only the principal branch
    (lift 0) is used, which is expected to produce counterexamples.
    Every lift that can land in an interval is among these, so fitting is
    membership in an arc of the circle.  The arcs share one width and
    start in the order of a, so a perfect matching of arcs to the sorted
    phases of PQ exists exactly when some cyclic rotation r matches phase
    (i + r) mod n to arc i for every i; the first such r gives the lifts.
    A pair with a P or Q phase on the branch cut is undefined: `defined`
    and `verdict` are False.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.ndim != 3 or p.shape != q.shape:
        raise InvalidInput("P and Q must be (T, n, n) stacks of equal shape")
    a = unitary_phases(p)
    b = unitary_phases(q)
    lo = a + b.min(axis=-1, keepdims=True) - PHASE_EPS
    hi = a + b.max(axis=-1, keepdims=True) + PHASE_EPS
    theta = unitary_phases(p @ q)
    shifts = np.array((0.0,) if raw_branch else (0.0, TWO_PI, -TWO_PI))
    # lifts[s, t, :, j] = theta[t, j] + shifts[s], against interval i on axis 2
    lifts = theta[None, :, None, :] + shifts[:, None, None, None]
    fits = (lo[None, :, :, None] <= lifts) & (lifts <= hi[None, :, :, None])
    first = np.argmax(fits, axis=0)[None]
    pick = np.take_along_axis(np.broadcast_to(lifts, fits.shape), first, axis=0)[0]
    rows = np.arange(a.shape[-1])
    cyc = (rows[None, :] + rows[:, None]) % len(rows)     # cyc[r, i] = (i + r) mod n
    rotation_ok = fits.any(axis=0)[:, rows, cyc].all(axis=-1)
    defined = ~(_on_branch_cut(a) | _on_branch_cut(b))
    verdict = rotation_ok.any(axis=-1) & defined
    best = np.argmax(rotation_ok, axis=-1)
    lifted = pick[np.arange(len(a))[:, None], rows, cyc[best]]
    lifted[~verdict] = np.nan
    return PhaseBoundStack(pq_phases=theta, lo=lo, hi=hi, lifted=lifted,
                           defined=defined, verdict=verdict)


# --------------------------------------------------------------------------
# twisted commutators: eigenvalue-1 persistence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorEig1Result:
    """Results for a stack of U, one row per matrix."""

    has_eig1: np.ndarray            # (T, G) bool, per grid point
    spectral_dists: np.ndarray      # (T, G) min |lambda - 1| per grid point
    shared_eigenvector: np.ndarray  # (T,) bool
    worst_residual: np.ndarray      # (T,)


def _twist_diag(l, m, t):
    return np.concatenate([np.full(l, np.exp(-1j * t)), np.full(m, np.exp(1j * t))])


def commutator_eig1_persistence(u, l, m) -> CommutatorEig1Result:
    """Presence of eigenvalue 1 for exp(tX) U exp(-tX) U* across T_GRID,
    X = i diag(-I_l, I_m), plus a shared-eigenvector check, for each
    matrix of a (T, n, n) stack.

    The expected behaviour is all-or-nothing: eigenvalue 1 occurs for some
    interior t exactly when an off-diagonal block of U is singular, and
    then a single eigenvector works for every t.
    """
    us = as_unitary(u)
    if us.ndim != 3 or us.shape[-1] != l + m or l < 1 or m < 1:
        raise InvalidInput("U must be a stack of (l+m) x (l+m) matrices with l, m >= 1")
    d = np.array([_twist_diag(l, m, t) for t in T_GRID])          # (G, n)
    mats = (d[:, :, None] * us[:, None] * np.conj(d)[:, None, :]) @ conj_t(us)[:, None]
    dists = np.min(np.abs(np.linalg.eigvals(mats) - 1.0), axis=-1)
    has = dists <= EIG1_TOL
    worst = np.full(len(us), np.inf)
    persists = np.flatnonzero(has.all(axis=-1))
    if persists.size:
        w, vecs = np.linalg.eig(mats[persists, 0])
        for k, wk, vk in zip(persists, w, vecs):
            for idx in np.where(np.abs(wk - 1.0) <= max(EIG1_TOL, 1e-8))[0]:
                v = vk[:, idx] / np.linalg.norm(vk[:, idx])
                # per-row norms: the residual reaches the report bit for bit
                worst[k] = min(worst[k], max(float(np.linalg.norm(r))
                                             for r in mats[k] @ v - v))
    shared = has.all(axis=-1) & (worst <= SHARED_VECTOR_TOL)
    return CommutatorEig1Result(has_eig1=has, spectral_dists=dists,
                                shared_eigenvector=shared, worst_residual=worst)


def block_angle_unitary(l, m, angles, rngs) -> np.ndarray:
    """(T, l+m, l+m) stack of unitaries, one per row of the (T, r) array
    `angles` and stream of the sequence `rngs`, r = min(l, m), whose
    off-diagonal blocks have singular values |sin(angles)| (padded with
    zeros if l != m).

    Cosine-sine style construction: Haar factors on the diagonal blocks
    around a real block rotation through the given principal angles.
    Setting an angle to zero makes the off-diagonal blocks rank-deficient;
    keeping all angles inside (0, pi/2) with l = m makes them invertible.
    Each Haar factor is drawn as one stack.
    """
    r = min(l, m)
    angles = np.asarray(angles, dtype=float)
    rngs = stream_list(rngs)
    if angles.shape != (len(rngs), r):
        raise InvalidInput(f"need a ({len(rngs)}, {r}) array of principal angles")
    n = l + m
    rot = np.tile(np.eye(n), (len(rngs), 1, 1))
    for i in range(r):
        cs = np.array([math.cos(th) for th in angles[:, i]])
        sn = np.array([math.sin(th) for th in angles[:, i]])
        rot[:, i, i] = cs
        rot[:, l + i, l + i] = cs
        rot[:, i, l + i] = -sn
        rot[:, l + i, i] = sn
    left = np.zeros((len(rngs), n, n), dtype=complex)
    right = np.zeros_like(left)
    left[:, :l, :l] = haar_unitary(l, [s.split(0) for s in rngs])
    left[:, l:, l:] = haar_unitary(m, [s.split(1) for s in rngs])
    right[:, :l, :l] = haar_unitary(l, [s.split(2) for s in rngs])
    right[:, l:, l:] = haar_unitary(m, [s.split(3) for s in rngs])
    return left @ rot @ right


# --------------------------------------------------------------------------
# geodesic non-intersection probe
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NonIntersectionResult:
    verdict: bool
    min_spectral_distance: float


def _separated_times(rng):
    """Times t1 > t2 in (0, pi) at least MIN_T_SEP apart, redrawn until so."""
    while True:
        t1, t2 = np.sort(rng.gen.uniform(0.0, math.pi, size=2))[::-1]
        if t1 - t2 >= MIN_T_SEP:
            return t1, t2


def geodesic_nonintersection_probe(x, l, m, trials, rng):
    """For random conjugates X1, X2 of X = i(x I + diag(-I_l, I_m)) and
    random times t1 > t2 in (0, pi), check that exp(t1 X1) exp(-t2 X2)
    never has eigenvalue 1.  Trial k draws from `rng.split(k)`; trials are
    stacked a block at a time.

    Distinct flow curves of the orbit's generators could only intersect at
    interior times if such a product had a fixed vector; the phase windows
    of the product stay inside (-2pi, 0) + (0, 2pi) whenever 0 < |x| < 1.
    """
    if l != m or l < 1:
        raise InvalidInput("the probe covers the balanced case l = m >= 1 only")
    if not 0.0 < abs(x) < 1.0:
        raise InvalidInput("0 < |x| < 1 is required")
    if int(trials) < 1:
        raise InvalidInput("need at least one trial")
    n = l + m
    diag = 1j * (x * np.ones(n) + np.concatenate([-np.ones(l), np.ones(m)]))
    worst = np.inf
    for _, subs in trial_blocks(rng, trials, n * n):
        g1 = haar_unitary(n, [s.split(0) for s in subs])
        g2 = haar_unitary(n, [s.split(1) for s in subs])
        t1, t2 = np.array([_separated_times(s) for s in seed_block(subs)]).T
        e1 = (g1 * np.exp(t1[:, None] * diag)[:, None, :]) @ conj_t(g1)
        e2 = (g2 * np.exp(-t2[:, None] * diag)[:, None, :]) @ conj_t(g2)
        dist = np.min(np.abs(np.linalg.eigvals(e1 @ e2) - 1.0), axis=-1)
        worst = min(worst, float(dist.min()))
    return NonIntersectionResult(verdict=bool(worst >= NONINTERSECTION_MIN_DIST),
                                 min_spectral_distance=worst)
