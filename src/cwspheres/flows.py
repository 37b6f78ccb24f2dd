"""Isometry flows and executable eigenvalue-phase checkers.

Covers the one-parameter flows generated by constant-length Killing
fields (linear unitary flows on S^(2n+1)), the focusing of all
unit-generator flows at a single endpoint at time pi (on S^3 in C^2), and
two spectral facts the geodesic non-intersection argument rests on: a
phase-interval bound for products of unitary matrices, and persistence of
eigenvalue 1 for twisted commutators with singular off-diagonal blocks.

The Monte-Carlo probes draw from a `StreamBlock` a block of trials at a
time.  Both eigenvalue-1 probes measure min |lambda - 1| in one way, as
the least singular value of a stacked SVD.  The commutator check takes it
on half its t-grid: the twists at t and pi - t give the same singular
values, so the second half is the first mirrored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .matrixcore import (BLOCK_ENTRIES, TRIAL_BLOCK, StreamBlock, as_skew_hermitian,
                         as_unitary, conj_t, expm_skew, haar_unitary, trial_blocks,
                         unitary_phases)

TWO_PI = 2.0 * math.pi
ENDPOINT_BASE_POINTS = 3
PHASE_EPS = 1e-9                # slack of each phase interval
EIG1_TOL = 1e-9                 # |lambda - 1| that counts as eigenvalue 1
MIN_T_SEP = 1e-6                # least t1 - t2 of a non-intersection trial
BRANCH_CUT_TOL = 1e-12          # a phase this close to +-pi is on the cut
# t-grid of the commutator check: 32 uniform points strictly inside (0, pi),
# symmetric about pi/2 (point G-1-k is pi - point k), so its first half
# mirrors onto its second
T_GRID = np.linspace(0.0, math.pi, 34)[1:-1]
T_GRID.flags.writeable = False
_HALF_GRID = T_GRID.size // 2


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
    exp(tX) is computed once and multiplies every point as a stack of
    matrix-vector products, one per point, so each row gets the bits of
    `exp(tX) @ row` and of its own norm.
    """
    v = np.asarray(points, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1] != f.x.shape[0]:
        raise InvalidInput("point shape does not match the flow generator")
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-10):
        raise InvalidInput("point is off the unit sphere")
    e = expm_skew(f.x, f.t)
    rows = np.atleast_2d(v)
    moved = (np.broadcast_to(e, (len(rows), *e.shape)) @ rows[:, :, None])[:, :, 0]
    return (moved / _row_norms(moved)[:, None]).reshape(v.shape)


def _row_norms(v):
    """Euclidean norm of each row of a real or complex (P, d) array, to the
    bit what np.linalg.norm gives for that row alone: a row's norm squares
    with a dot product, and a stacked matmul of rows takes the same dot."""
    sq = (v.real[:, None, :] @ v.real[:, :, None])[:, 0, 0]
    if np.iscomplexobj(v):
        sq = sq + (v.imag[:, None, :] @ v.imag[:, :, None])[:, 0, 0]
    return np.sqrt(sq)


def _max_pairwise_distance(pts):
    """Largest Euclidean distance between two rows of the (P, d) array
    `pts`, over row blocks of the distance matrix, each row against itself
    and the rows after it: bounded memory, and scipy's pdist maximum to the
    bit, since both add the squared coordinate differences in order."""
    cols = np.ascontiguousarray(pts.T)
    rows = max(1, BLOCK_ENTRIES // len(pts))
    worst = 0.0
    for top in range(0, len(pts), rows):
        sq = None
        for col in cols:
            diff = np.subtract.outer(col[top:top + rows], col[top:])
            diff *= diff
            if sq is None:
                sq = diff
            else:
                sq += diff
        worst = max(worst, float(sq.max()))
    return math.sqrt(worst)


def endpoint_focus_check(vnorm, rng, samples=100):
    """Spread of time-pi flow endpoints on S^3 in C^2 over random unit
    generators, and their distance from the predicted endpoint.

    A traceless X with |X|_eq = 1 has exp(pi X) = -I, so the flow of
    X - i vnorm I takes a start point z to -exp(-i pi vnorm) z whatever X
    is.  (Read on the first column z = g e_1, this is the flow
    g -> exp(tX) g exp(-tV) on SU(2) with V = vnorm diag(i, -i).)  Returns
    the largest pairwise C^2 distance between the endpoints of one start
    point, over a few random start points each probed with `samples`
    random unit X (start point b from `rng.split(b)`, its X number k from
    `rng.split(b).split(k)`, k = 1..samples; the start points are seeded as
    one block, each one's samples TRIAL_BLOCK at a time), and the largest
    |end + exp(-i pi vnorm) z| over the same endpoints; a spread needs at
    least two samples.  A start point's
    generators are exponentiated as one stack and its endpoints
    renormalized row by row: the same bits as `apply_flow` on each flow.
    """
    # refuses nan and inf too, before vnorm enters any product
    if not abs(vnorm) < 1.0:
        raise InvalidInput("isotropy vector must satisfy |V|_eq < 1")
    if int(samples) < 2:
        raise InvalidInput("need at least two samples")
    shift = -1j * vnorm * np.eye(2)
    phase = np.exp(-1j * math.pi * vnorm)
    spread = identity = 0.0
    starts = StreamBlock(rng, range(ENDPOINT_BASE_POINTS)).generators()
    for bp, start in enumerate(starts):
        p = start.standard_normal(4)
        p /= np.linalg.norm(p)
        z = np.array([p[0] + 1j * p[1], -p[2] + 1j * p[3]])      # g e_1
        parent = rng.split(bp)
        x3 = np.empty((int(samples), 3))
        for first in range(0, len(x3), TRIAL_BLOCK):
            ids = range(first + 1, min(first + TRIAL_BLOCK, len(x3)) + 1)
            for gen, row in zip(StreamBlock(parent, ids).generators(), x3[first:]):
                gen.standard_normal(out=row)
        a, b, c = (x3 / _row_norms(x3)[:, None]).T
        x = np.moveaxis(np.array([[1j * a, b + 1j * c], [-b + 1j * c, -1j * a]]), -1, 0)
        ends = expm_skew(x + shift, math.pi) @ z
        ends /= _row_norms(ends)[:, None]
        spread = max(spread, _max_pairwise_distance(ends.view(float)))
        identity = max(identity, float(np.linalg.norm(ends + phase * z, axis=1).max()))
    return spread, identity


# --------------------------------------------------------------------------
# phase-interval bound for products of unitaries
# --------------------------------------------------------------------------

def _on_branch_cut(phases):
    return np.any(np.abs(phases) >= math.pi - BRANCH_CUT_TOL, axis=-1)


def phase_bound_check(p, q):
    """Check, for each pair of the (T, n, n) stacks P and Q, that the
    sorted phases of PQ, each shifted by 0 or +-2pi, fit one to one into
    the intervals [a_i + min(b), a_i + max(b)], where a, b are the sorted
    phases of P, Q.  Returns the (T,) bool arrays `(defined, verdict)`.

    Interval i is widened by PHASE_EPS.  A phase of PQ fits it when one of
    its three shifts lies inside, matching the continuity of the phase
    paths of P exp(tB).  Every shift that can land in an interval is among
    these, so fitting is membership in an arc of the circle.  The arcs
    share one width and start in the order of a, so a perfect matching of
    arcs to the sorted phases of PQ exists exactly when some cyclic
    rotation r matches phase (i + r) mod n to arc i for every i.  A pair
    with a P or Q phase on the branch cut is undefined: `defined` and
    `verdict` are False.
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
    shifts = np.array((0.0, TWO_PI, -TWO_PI))
    # lifts[s, t, :, j] = theta[t, j] + shifts[s], against interval i on axis 2
    lifts = theta[None, :, None, :] + shifts[:, None, None, None]
    fits = ((lo[None, :, :, None] <= lifts) & (lifts <= hi[None, :, :, None])).any(axis=0)
    rows = np.arange(a.shape[-1])
    cyc = (rows[None, :] + rows[:, None]) % len(rows)     # cyc[r, i] = (i + r) mod n
    some_rotation = fits[:, rows, cyc].all(axis=-1).any(axis=-1)
    defined = ~(_on_branch_cut(a) | _on_branch_cut(b))
    return defined, some_rotation & defined


# --------------------------------------------------------------------------
# twisted commutators: eigenvalue-1 persistence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorEig1Result:
    """Results for a stack of U, one row per matrix."""

    has_eig1: np.ndarray            # (T, G) bool, per grid point
    spectral_dists: np.ndarray      # (T, G) min |lambda - 1| per grid point
    worst_residual: np.ndarray      # (T,) best shared eigenvector's, inf if none


def _twist_diag(l, m, t):
    return np.concatenate([np.full(l, np.exp(-1j * t)), np.full(m, np.exp(1j * t))])


def _twisted(d, u):
    """D U D*, D = diag(d), broadcast over the leading axes of the twist
    diagonals `d` and the unitaries `u`: exp(tX) U exp(-tX) for d the
    diagonal of exp(tX)."""
    return d[..., :, None] * u * np.conj(d)[..., None, :]


def _commutator(d, u):
    """The twisted commutator exp(tX) U exp(-tX) U*, broadcast as `_twisted`."""
    return _twisted(d, u) @ conj_t(u)


def _eig1_distances(a, b):
    """min |lambda - 1| over the eigenvalues of a b*, for each pair of the
    unitary stacks `a` and `b`, as the smallest singular value of a - b:
    a b* - I = (a - b) b* with b unitary, and a b* is normal, so the
    singular values of a b* - I are its |lambda - 1|.  This is the one
    way the package measures the distance; it agrees with an eigensolve
    of a b* to about 1e-15, not to the bit.  `a` is overwritten with
    a - b."""
    a -= b
    return np.linalg.svd(a, compute_uv=False)[..., -1]


def commutator_eig1_persistence(u, l, m) -> CommutatorEig1Result:
    """Presence of eigenvalue 1 for exp(tX) U exp(-tX) U* across T_GRID,
    X = i diag(-I_l, I_m), plus the residual of the best shared eigenvector,
    for each matrix of a (T, n, n) stack.

    The expected behaviour is all-or-nothing: eigenvalue 1 occurs for some
    interior t exactly when an off-diagonal block of U is singular, and
    then a single eigenvector works for every t.

    `spectral_dists` holds the singular-value distance of `_eig1_distances`
    at every (trial, t), with a = exp(tX) U exp(-tX) and b = U, computed on
    the first half of T_GRID and mirrored onto the second: with D = exp(tX),
    the twist at pi - t is -D* (X's eigenvalues are +-i), so
    a_(pi-t) - U = D*UD - U = D*(UD - DU) while a_t - U = (DU - UD)D*, and
    both have the singular values of UD - DU.  Where eigenvalue 1
    persists, the candidate shared eigenvectors are taken from an
    eigensolve at the first t, their residuals at every t are computed as
    one stack, and `worst_residual` is the least candidate's largest
    residual over the grid.
    """
    us = as_unitary(u)
    if us.ndim != 3 or us.shape[-1] != l + m or l < 1 or m < 1:
        raise InvalidInput("U must be a stack of (l+m) x (l+m) matrices with l, m >= 1")
    d = np.array([_twist_diag(l, m, t) for t in T_GRID])          # (G, n)
    half = _eig1_distances(_twisted(d[:_HALF_GRID], us[:, None]), us[:, None])
    dists = np.concatenate([half, half[:, ::-1]], axis=1)
    has = dists <= EIG1_TOL
    worst = np.full(len(us), np.inf)
    persists = np.flatnonzero(has.all(axis=-1))
    if persists.size:
        w, vecs = np.linalg.eig(_commutator(d[0], us[persists]))
        pk, idx = np.nonzero(np.abs(w - 1.0) <= max(EIG1_TOL, 1e-8))
        v = vecs[pk, :, idx]
        v = v / _row_norms(v)[:, None]
        # every candidate's residual at every t: (C, G, n)
        r = (_commutator(d, us[persists[pk], None]) @ v[:, None, :, None])[..., 0]
        r -= v[:, None, :]
        res = _row_norms(r.reshape(-1, l + m)).reshape(r.shape[:2]).max(axis=-1)
        np.minimum.at(worst, persists[pk], res)
    return CommutatorEig1Result(has_eig1=has, spectral_dists=dists, worst_residual=worst)


def block_angle_unitary(l, m, angles, rngs) -> np.ndarray:
    """(T, l+m, l+m) stack of unitaries, one per row of the (T, r) array
    `angles` and stream of the StreamBlock `rngs`, r = min(l, m), whose
    off-diagonal blocks have singular values |sin(angles)| (padded with
    zeros if l != m).

    Cosine-sine style construction: Haar factors on the diagonal blocks
    around a real block rotation through the given principal angles.
    Setting an angle to zero makes the off-diagonal blocks rank-deficient;
    keeping all angles inside (0, pi/2) with l = m makes them invertible.
    Each Haar factor is drawn as one stack, factor j from the block
    `rngs.split(j)`; anything but a StreamBlock is refused.
    """
    if not isinstance(rngs, StreamBlock):
        raise InvalidInput(f"need a StreamBlock of streams, not a {type(rngs).__name__}")
    r = min(l, m)
    angles = np.asarray(angles, dtype=float)
    kids = [rngs.split(j) for j in range(4)]
    count = len(kids[0])
    if angles.shape != (count, r):
        raise InvalidInput(f"need a ({count}, {r}) array of principal angles")
    n = l + m
    rot = np.tile(np.eye(n), (count, 1, 1))
    for i in range(r):
        cs = np.array([math.cos(th) for th in angles[:, i]])
        sn = np.array([math.sin(th) for th in angles[:, i]])
        rot[:, i, i] = cs
        rot[:, l + i, l + i] = cs
        rot[:, i, l + i] = -sn
        rot[:, l + i, i] = sn
    left = np.zeros((count, n, n), dtype=complex)
    right = np.zeros_like(left)
    left[:, :l, :l] = haar_unitary(l, kids[0])
    left[:, l:, l:] = haar_unitary(m, kids[1])
    right[:, :l, :l] = haar_unitary(l, kids[2])
    right[:, l:, l:] = haar_unitary(m, kids[3])
    return left @ rot @ right


# --------------------------------------------------------------------------
# geodesic non-intersection probe
# --------------------------------------------------------------------------

def _separated_times(gens):
    """(T,) arrays of times t1 > t2 in (0, pi) at least MIN_T_SEP apart, a
    pair from each Generator of `gens`: the pairs are sorted as one stack,
    and a pair closer than MIN_T_SEP is redrawn from its own Generator until
    it is not."""
    times = np.array([gen.uniform(0.0, math.pi, size=2) for gen in gens])
    times.sort(axis=1)
    times = times[:, ::-1]
    for k in np.flatnonzero(times[:, 0] - times[:, 1] < MIN_T_SEP):
        while times[k, 0] - times[k, 1] < MIN_T_SEP:
            times[k] = np.sort(gens[k].uniform(0.0, math.pi, size=2))[::-1]
    return times[:, 0], times[:, 1]


def geodesic_nonintersection_probe(x, l, m, trials, rng) -> float:
    """For random conjugates X1, X2 of X = i(x I + diag(-I_l, I_m)) and
    random times t1 > t2 in (0, pi), the least distance min|lambda - 1|
    of an eigenvalue of exp(t1 X1) exp(-t2 X2) from 1.  Trial k draws X1's
    and X2's conjugators from `rng.split(k).split(0)` and `.split(1)`, its
    times from `rng.split(k)`; trials are stacked a block at a time.

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
    for _, block in trial_blocks(rng, trials, n * n):
        g1 = haar_unitary(n, block.split(0))
        g2 = haar_unitary(n, block.split(1))
        t1, t2 = _separated_times(block.generators())
        e1 = (g1 * np.exp(t1[:, None] * diag)[:, None, :]) @ conj_t(g1)
        e2 = (g2 * np.exp(-t2[:, None] * diag)[:, None, :]) @ conj_t(g2)
        # a = e1, b = e2*: a b* = e1 e2
        worst = min(worst, float(_eig1_distances(e1, conj_t(e2)).min()))
    return worst
