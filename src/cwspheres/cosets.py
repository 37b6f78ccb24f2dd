"""Coset presentations of spheres and the isometry-algebra projection to m.

The base point is the last standard basis vector of the ambient column
space.  Projection of an algebra element applies it to the base point and
reads off the m0/m1 coordinates:

* u_sphere:  S^(2n+1) = U(n+1)/U(n); q is the imaginary part of the last
  coordinate, u the first n coordinates.
* sp_sphere: S^(4n+3) = Sp(n+1)U(1)/Sp(n)U(1); algebra elements are pairs
  (X, x); the circle factor acts by right scalar multiplication, so the
  last coordinate picks up an extra x*i.

An adjoint-orbit point g X g* projects through its column
g X g* e_last = g(X w), w = g* e_last, and g is an isometry, so the
projection depends on w alone: it is the Killing field of X at the sphere
point w, moved to the base point (`project_at`).  For Haar g the point w
is uniform on the sphere, so orbit sampling draws w, not g.

S^3 = SU(2) needs no presentation of its own: SU(2)-left times
circle-right is U(2) acting on C^2, the u_sphere presentation with n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .matrixcore import (QuaternionMatrix, RngStream, _ginibre, as_quaternion_skew,
                         as_skew_hermitian, qabs, qmul, trial_blocks)
from .randers import SP_SPHERE, U_SPHERE, RandersSpec, m1_norm_sq

UNIT_TOL = 1e-9


@dataclass(frozen=True)
class AlgebraElement:
    """Killing-field candidate: matrix part plus the u(1)/R scalar summand.

    The matrix part is a complex skew-Hermitian ndarray for u_sphere and
    a skew QuaternionMatrix for sp_sphere.  The scalar part is zero
    whenever the presentation has no circle summand.
    """

    family: str
    x: object
    scalar: float = 0.0


def u_algebra(x) -> AlgebraElement:
    return AlgebraElement(U_SPHERE, as_skew_hermitian(x))


def sp_algebra(x: QuaternionMatrix, scalar=0.0) -> AlgebraElement:
    return AlgebraElement(SP_SPHERE, as_quaternion_skew(x), float(scalar))


# --------------------------------------------------------------------------
# projection to m
# --------------------------------------------------------------------------

def project_to_m(family, x, scalar):
    """(m0, usq) of the projection to m of the matrix part `x`, or of each
    matrix of a (T, n+1, n+1) stack, with circle summand `scalar`: the
    column x e_last read off in the coordinates of `family`, as m0
    coordinates on the last axis and squared m1 norms, the inputs of
    `randers_norm_array`."""
    if family == U_SPHERE:
        col = x[..., :, -1]
        m0, u = col[..., -1:].imag, col[..., :-1]
    else:
        col1 = x.q1[..., :, -1]
        col2 = x.q2[..., :, -1]
        m0 = np.stack([col1[..., -1].imag + scalar, col2[..., -1].real,
                       col2[..., -1].imag], axis=-1)
        u = (col1[..., :-1], col2[..., :-1])
    return m0, m1_norm_sq(family, u)


def project_at(family, x, scalar, w):
    """(m0, usq) of the projection to m of g x g*, with circle summand
    `scalar`, for every isometry g with g* e_last = w, given a (T, n+1)
    stack of unit vectors `w` of C^(n+1) or, for sp_sphere, a pair (w1, w2)
    of them, w1 + w2 j in H^(n+1): the column g x g* e_last = g v, v = x w,
    has last coordinate c = w* v, and since g is an isometry its other
    coordinates have the norm of v - w c (c acting on the right)."""
    if family == U_SPHERE:
        v = (x @ w[..., None])[..., 0]
        c = np.sum(np.conj(w) * v, axis=-1)
        return c.imag[:, None], m1_norm_sq(family, v - w * c[:, None])
    w1, w2 = w
    v = x @ QuaternionMatrix(w1[..., None], w2[..., None])
    v1, v2 = v.q1[..., 0], v.q2[..., 0]
    c1, c2 = (np.sum(p, axis=-1) for p in qmul((np.conj(w1), -w2), (v1, v2)))
    wc1, wc2 = qmul(w, (c1[:, None], c2[:, None]))
    m0 = np.stack([c1.imag + scalar, c2.real, c2.imag], axis=-1)
    return m0, m1_norm_sq(family, (v1 - wc1, v2 - wc2))


def orbit_projection_sample(spec: RandersSpec, e: AlgebraElement,
                            trials: int, rng: RngStream):
    """(m0, usq) arrays of the projections to m of `trials` random
    adjoint-orbit points of `e`, draw k from `rng.split(k)`, on the sphere
    of the valid metric spec `spec`.

    A Haar conjugate g x g* projects as `project_at` of w = g* e_last, a
    uniform point of the unit sphere, so trial k draws that point alone: a
    normalised complex Gaussian vector of C^(n+1) for u_sphere, a pair of
    them for sp_sphere, a block of trials at a time, each block's streams
    seeded together.  The scalar summand is invariant under the adjoint
    action and passes through unchanged.  `e` must belong to the spec's
    family and be (n+1) x (n+1).
    """
    if e.family != spec.family:
        raise InvalidInput(f"algebra family {e.family!r} != spec family {spec.family!r}")
    dim = spec.n + 1
    if e.x.shape != (dim, dim):
        raise InvalidInput("matrix size does not match the coset rank")
    if int(trials) < 1:
        raise InvalidInput("need at least one orbit draw")
    count = 1 if spec.family == U_SPHERE else 2
    parts = []
    for _, block in trial_blocks(rng, trials, count * dim):
        w = _ginibre(block, 1, dim, count)[:, :, 0]
        w /= np.sqrt(np.sum(np.abs(w) ** 2, axis=(1, 2)))[:, None, None]
        parts.append(project_at(spec.family, e.x, e.scalar,
                                w[:, 0] if count == 1 else (w[:, 0], w[:, 1])))
    return (np.concatenate([m0 for m0, _ in parts]),
            np.concatenate([usq for _, usq in parts]))


# --------------------------------------------------------------------------
# Weyl-group normalizations and imaginary-axis alignment
# --------------------------------------------------------------------------

def permutation_matrix(perm):
    """Real permutation matrix P with P e_k = e_perm[k]."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidInput("not a permutation")
    p = np.zeros((n, n))
    for k, target in enumerate(perm):
        p[target, k] = 1.0
    return p


def sp_permutation(perm) -> QuaternionMatrix:
    p = permutation_matrix(perm)
    return QuaternionMatrix(p.astype(complex), np.zeros_like(p, dtype=complex))


def sp_unit_diag(n, idx, s) -> QuaternionMatrix:
    """Diagonal Sp(n) element with unit quaternion `s` (a scalar pair) at
    position idx and ones elsewhere."""
    if abs(float(qabs((np.complex128(s[0]), np.complex128(s[1])))) - 1.0) > UNIT_TOL:
        raise InvalidInput("diagonal entry must be a unit quaternion")
    q1 = np.eye(n, dtype=complex)
    q2 = np.zeros((n, n), dtype=complex)
    q1[idx, idx] = s[0]
    q2[idx, idx] = s[1]
    return QuaternionMatrix(q1, q2)


def align_imaginary_to_i(d):
    """Unit quaternion s with conj(s) * d * s = |d| * i, for imaginary d.

    Uses s = (d/|d| + i)/|d/|d| + i|, valid unless d/|d| = -i, where s = j
    works.  `d` is a quaternion scalar pair with (numerically) zero real
    part.
    """
    d1, d2 = np.complex128(d[0]), np.complex128(d[1])
    mod = float(qabs((d1, d2)))
    if mod < 1e-15:
        raise InvalidInput("cannot align the zero quaternion")
    if abs(d1.real) > 1e-9 * mod:
        raise InvalidInput("expected an imaginary quaternion")
    h1, h2 = d1 / mod + 1j, d2 / mod
    hn = float(qabs((h1, h2)))
    if hn < 1e-9:
        return (np.complex128(0.0), np.complex128(1.0))  # d/|d| = -i: use j
    return (h1 / hn, h2 / hn)
