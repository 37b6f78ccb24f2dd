"""Isometry flows and executable eigenvalue-phase checkers.

Covers the one-parameter flows generated by constant-length Killing
fields (group-times-circle form on S^3, linear unitary form on S^(2n+1)),
the focusing of all unit-generator flows at a single endpoint at time pi,
and two spectral facts the geodesic non-intersection argument rests on:
a phase-interval bound for products of unitary matrices, and persistence
of eigenvalue 1 for twisted commutators with singular off-diagonal
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist

from .errors import BranchUndefined, InvalidInput, TrackingFailed
from .matrixcore import (as_skew_hermitian, as_unitary, expm_skew,
                         haar_unitary, su2_from_vec, su2_inner,
                         su2_matrix_from_quat, unitary_phases)
from .randers import SU2, U_SPHERE

TWO_PI = 2.0 * math.pi
ENDPOINT_BASE_POINTS = 3
PHASE_EPS = 1e-9                # slack of each phase interval
EIG1_TOL = 1e-9                 # |lambda - 1| that counts as eigenvalue 1
SHARED_VECTOR_TOL = 1e-8        # residual of a shared eigenvector
MIN_T_SEP = 1e-6                # least t1 - t2 of a non-intersection trial
NONINTERSECTION_MIN_DIST = 1e-9


def default_t_grid(points=32):
    """Uniform grid strictly inside (0, pi)."""
    return np.linspace(0.0, math.pi, points + 2)[1:-1]


# --------------------------------------------------------------------------
# flows
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowIsometry:
    """One-parameter isometry at a fixed time t.

    u_sphere: v -> exp(t X) v on the unit sphere of C^(n+1).
    su2:      g -> exp(t X) g exp(-t V) on SU(2), the flow of the algebra
              element (X, 1) in the group-times-circle presentation.
    """

    family: str
    x: np.ndarray
    t: float
    v: np.ndarray = None       # su2 only

    def __post_init__(self):
        as_skew_hermitian(self.x)
        if self.family == SU2:
            if self.v is None:
                raise InvalidInput("su2 flow needs the isotropy vector V")
            as_skew_hermitian(self.v)
        elif self.family != U_SPHERE:
            raise InvalidInput(f"unsupported flow family {self.family!r}")


def u_flow(x, t) -> FlowIsometry:
    return FlowIsometry(U_SPHERE, np.asarray(x, dtype=complex), float(t))


def su2_flow(x, v, t) -> FlowIsometry:
    x = su2_from_vec(x) if np.ndim(x) == 1 else np.asarray(x, dtype=complex)
    v = su2_from_vec(v) if np.ndim(v) == 1 else np.asarray(v, dtype=complex)
    return FlowIsometry(SU2, x, float(t), v)


def apply_flow(f: FlowIsometry, point):
    """Apply the flow to a point of the model sphere.

    Points are unit vectors in C^(n+1) for u_sphere and SU(2) matrices for
    su2.  Output is renormalized onto the sphere; the drift removed this
    way is at machine-precision scale because the exponentials are exactly
    unitary.
    """
    if f.family == U_SPHERE:
        v = np.asarray(point, dtype=complex)
        if v.ndim != 1 or v.shape[0] != f.x.shape[0]:
            raise InvalidInput("point shape does not match the flow generator")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-10:
            raise InvalidInput("point is off the unit sphere")
        out = expm_skew(f.x, f.t) @ v
        return out / np.linalg.norm(out)
    g = np.asarray(point, dtype=complex)
    as_unitary(g)
    if abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise InvalidInput("su2 point must have unit determinant")
    return expm_skew(f.x, f.t) @ g @ expm_skew(f.v, -f.t)


def endpoint_focus_check(v, rng, samples=100):
    """Spread of time-pi flow endpoints over random unit generators.

    For |X|_eq = 1 the exponential at time pi is -I, so for a fixed start
    point every flow ends at the same place regardless of X.  Returns the
    maximum pairwise endpoint distance (Frobenius) over a few random start
    points, each probed with `samples` random unit X; a spread needs at
    least two samples.
    """
    v = su2_from_vec(v) if np.ndim(v) == 1 else np.asarray(v, dtype=complex)
    if su2_inner(v, v) >= 1.0:
        raise InvalidInput("isotropy vector must satisfy |V|_eq < 1")
    if int(samples) < 2:
        raise InvalidInput("need at least two samples")
    worst = 0.0
    for bp in range(ENDPOINT_BASE_POINTS):
        g_rng = rng.split(bp)
        p = g_rng.gen.standard_normal(4)
        p /= np.linalg.norm(p)
        g = su2_matrix_from_quat(p)
        ends = []
        for k in range(int(samples)):
            x_rng = g_rng.split(k + 1)
            x3 = x_rng.gen.standard_normal(3)
            x3 /= np.linalg.norm(x3)
            ends.append(apply_flow(su2_flow(x3, v, math.pi), g).ravel())
        flat = np.array(ends).view(float)
        worst = max(worst, float(np.max(pdist(flat))))
    return worst


# --------------------------------------------------------------------------
# phase-interval bound for products of unitaries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInput("interval must satisfy lo <= hi")

    def contains(self, value):
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class PhaseBoundResult:
    intervals: tuple
    pq_phases: np.ndarray      # principal phases of PQ, sorted
    lifted: np.ndarray         # matched real lifts (NaN where unmatched)
    verdict: bool


def _reject_branch_boundary(phases, who):
    if np.any(np.abs(phases) >= math.pi - 1e-12):
        raise BranchUndefined(f"{who} has an eigenvalue at the phase branch cut")


def phase_bound_check(p, q, raw_branch=False) -> PhaseBoundResult:
    """Check that each phase of PQ, sorted and lifted to the reals, lies in
    [a_i + min(b), a_i + max(b)] where a, b are the sorted phases of P, Q.

    Lifting allows a +-2pi unwrap, matching the continuity of the phase
    paths of P exp(tB); with raw_branch=True the principal branch is used
    as-is, which is expected to produce counterexamples.
    """
    a = unitary_phases(p)
    b = unitary_phases(q)
    _reject_branch_boundary(a, "P")
    _reject_branch_boundary(b, "Q")
    lo_off, hi_off = float(np.min(b)), float(np.max(b))
    intervals = tuple(PhaseInterval(ai + lo_off - PHASE_EPS, ai + hi_off + PHASE_EPS)
                      for ai in a)
    theta = unitary_phases(np.asarray(p, dtype=complex) @ np.asarray(q, dtype=complex))
    n = len(a)
    shifts = (0.0,) if raw_branch else (0.0, TWO_PI, -TWO_PI)
    cost = np.ones((n, n))
    pick = np.full((n, n), np.nan)
    for i, iv in enumerate(intervals):
        for j in range(n):
            for s in shifts:
                if iv.contains(theta[j] + s):
                    cost[i, j] = 0.0
                    pick[i, j] = theta[j] + s
                    break
    rows, cols = linear_sum_assignment(cost)
    ok = cost[rows, cols].sum() == 0.0
    lifted = np.full(n, np.nan)
    if ok:
        for i, j in zip(rows, cols):
            lifted[i] = pick[i, j]
    return PhaseBoundResult(intervals=intervals, pq_phases=theta,
                            lifted=lifted, verdict=bool(ok))


# --------------------------------------------------------------------------
# continuous eigenvalue-phase tracking
# --------------------------------------------------------------------------

def _wrap_to_pi(x):
    return (x + math.pi) % TWO_PI - math.pi


MAX_TRACKING_STEPS = 2 ** 14


def eigenvalue_tracking(p, b, steps=64):
    """Continuous phase paths c_i(t) of the eigenvalues of P exp(tB) for
    t in [0, 1].

    Consecutive grid points are matched by minimum total circular distance
    and unwrapped; if any per-step jump reaches pi/2 the step count is
    doubled, up to a cap (multiple-eigenvalue encounters are measure zero
    but can force refinement nearby).  Returns (t_values, paths) with
    paths of shape (n, len(t_values)); paths start at the sorted phases
    of P.
    """
    p = as_unitary(p)
    b = as_skew_hermitian(b)
    steps = int(steps)
    if steps < 16:
        raise InvalidInput("at least 16 tracking steps are required")
    beta, vecs = np.linalg.eigh(-1j * b)
    while True:
        ts = np.linspace(0.0, 1.0, steps + 1)
        # batched P exp(tB)
        expo = np.exp(1j * np.outer(ts, beta))                # (steps+1, n)
        mats = np.einsum("ab,tb,cb->tac", vecs, expo, np.conj(vecs))
        mats = p[None, :, :] @ mats
        raw = np.angle(np.linalg.eigvals(mats))               # (steps+1, n)
        paths = np.empty_like(raw).T                          # (n, steps+1)
        paths[:, 0] = np.sort(np.where(raw[0] <= -math.pi, raw[0] + TWO_PI, raw[0]))
        ok = True
        for k in range(1, steps + 1):
            prev = paths[:, k - 1]
            diff = _wrap_to_pi(raw[k][None, :] - prev[:, None])
            rows, cols = linear_sum_assignment(np.abs(diff))
            step_jump = diff[rows, cols]
            if np.max(np.abs(step_jump)) >= math.pi / 2.0:
                ok = False
                break
            paths[rows, k] = prev[rows] + step_jump
        if ok:
            return ts, paths
        steps *= 2
        if steps > MAX_TRACKING_STEPS:
            raise TrackingFailed(
                "eigenvalue clustering persisted past the step cap")


# --------------------------------------------------------------------------
# twisted commutators: eigenvalue-1 persistence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorEig1Result:
    has_eig1: np.ndarray           # per grid point
    spectral_dists: np.ndarray     # min |lambda - 1| per grid point
    shared_eigenvector: bool
    worst_residual: float


def _twist_diag(l, m, t):
    return np.concatenate([np.full(l, np.exp(-1j * t)), np.full(m, np.exp(1j * t))])


def commutator_eig1_persistence(u, l, m, t_grid=None) -> CommutatorEig1Result:
    """Presence of eigenvalue 1 for exp(tX) U exp(-tX) U* across a t-grid,
    X = i diag(-I_l, I_m), plus a shared-eigenvector check.

    The expected behaviour is all-or-nothing: eigenvalue 1 occurs for some
    interior t exactly when an off-diagonal block of U is singular, and
    then a single eigenvector works for every t.
    """
    u = as_unitary(u)
    if u.shape[0] != l + m or l < 1 or m < 1:
        raise InvalidInput("U must be (l+m) x (l+m) with l, m >= 1")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0) or np.any(t_grid >= math.pi):
        raise InvalidInput("t grid must lie strictly inside (0, pi)")
    mats = []
    dists = np.empty(len(t_grid))
    for k, t in enumerate(t_grid):
        d = _twist_diag(l, m, t)
        mat = (d[:, None] * u * np.conj(d)[None, :]) @ u.conj().T
        mats.append(mat)
        dists[k] = np.min(np.abs(np.linalg.eigvals(mat) - 1.0))
    has = dists <= EIG1_TOL
    shared = False
    worst = np.inf
    if np.all(has):
        w, vecs = np.linalg.eig(mats[0])
        for idx in np.where(np.abs(w - 1.0) <= max(EIG1_TOL, 1e-8))[0]:
            v = vecs[:, idx] / np.linalg.norm(vecs[:, idx])
            worst = min(worst, max(float(np.linalg.norm(mat @ v - v)) for mat in mats))
        shared = worst <= SHARED_VECTOR_TOL
    return CommutatorEig1Result(has_eig1=has, spectral_dists=dists,
                                shared_eigenvector=shared,
                                worst_residual=float(worst))


def block_angle_unitary(l, m, angles, rng) -> np.ndarray:
    """Unitary in U(l+m) whose off-diagonal blocks have singular values
    |sin(angles)| (padded with zeros if l != m).

    Cosine-sine style construction: Haar factors on the diagonal blocks
    around a real block rotation through the given principal angles.
    Setting an angle to zero makes the off-diagonal blocks rank-deficient;
    keeping all angles inside (0, pi/2) with l = m makes them invertible.
    """
    r = min(l, m)
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (r,):
        raise InvalidInput(f"need {r} principal angles")
    rot = np.eye(l + m)
    for i, th in enumerate(angles):
        cs, sn = math.cos(th), math.sin(th)
        rot[i, i] = cs
        rot[l + i, l + i] = cs
        rot[i, l + i] = -sn
        rot[l + i, i] = sn
    left = np.zeros((l + m, l + m), dtype=complex)
    right = np.zeros_like(left)
    left[:l, :l] = haar_unitary(l, rng.split(0))
    left[l:, l:] = haar_unitary(m, rng.split(1))
    right[:l, :l] = haar_unitary(l, rng.split(2))
    right[l:, l:] = haar_unitary(m, rng.split(3))
    return left @ rot @ right


# --------------------------------------------------------------------------
# geodesic non-intersection probe
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NonIntersectionResult:
    verdict: bool
    min_spectral_distance: float


def geodesic_nonintersection_probe(x, l, m, trials, rng):
    """For random conjugates X1, X2 of X = i(x I + diag(-I_l, I_m)) and
    random times t1 > t2 in (0, pi), check that exp(t1 X1) exp(-t2 X2)
    never has eigenvalue 1.

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
    for k in range(int(trials)):
        g_rng = rng.split(k)
        g1 = haar_unitary(n, g_rng.split(0))
        g2 = haar_unitary(n, g_rng.split(1))
        while True:
            t1, t2 = np.sort(g_rng.gen.uniform(0.0, math.pi, size=2))[::-1]
            if t1 - t2 >= MIN_T_SEP:
                break
        e1 = (g1 * np.exp(t1 * diag)[None, :]) @ g1.conj().T
        e2 = (g2 * np.exp(-t2 * diag)[None, :]) @ g2.conj().T
        dist = np.min(np.abs(np.linalg.eigvals(e1 @ e2) - 1.0))
        worst = min(worst, float(dist))
    return NonIntersectionResult(verdict=bool(worst >= NONINTERSECTION_MIN_DIST),
                                 min_spectral_distance=worst)
