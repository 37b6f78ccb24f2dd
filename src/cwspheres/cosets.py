"""Coset presentations of spheres and Killing fields read in the tangent model m.

The base point is the last standard basis vector e_last of the ambient
column space.  A tangent vector there has m0/m1 coordinates:

* u_sphere:  S^(2n+1) = U(n+1)/U(n); q is the imaginary part of the last
  coordinate, u the first n coordinates.
* sp_sphere: S^(4n+3) = Sp(n+1)U(1)/Sp(n)U(1); algebra elements are pairs
  (X, x); the circle factor acts by right scalar multiplication, so the
  last coordinate picks up an extra x*i.

The Killing field of X at a sphere point w is X w.  Any isometry g with
g* e_last = w moves it to the base point as the column g X g* e_last of
the adjoint-orbit point g X g*, so its m coordinates depend on w alone:
`project_at` reads them, and is the one place the package reads a Killing
field.  At w = e_last this is the projection of X itself.  For Haar g the
point w is uniform on the sphere, so orbit sampling draws w, not g; the
symplectic witness reads the field at two chosen points.

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
# the Killing field at sphere points
# --------------------------------------------------------------------------

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
# imaginary-axis alignment
# --------------------------------------------------------------------------

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
