"""Coset presentations of spheres and the isometry-algebra projection to m.

The base point is the last standard basis vector of the ambient column
space.  Projection of an algebra element applies it to the base point and
reads off the m0/m1 coordinates:

* u_sphere:  S^(2n+1) = U(n+1)/U(n); q is the imaginary part of the last
  coordinate, u the first n coordinates.
* sp_sphere: S^(4n+3) = Sp(n+1)U(1)/Sp(n)U(1); algebra elements are pairs
  (X, x); the circle factor acts by right scalar multiplication, so the
  last coordinate picks up an extra x*i.
* su2:       S^3 = SU(2) presented as (SU(2) x S^1) / <(V, 1)> with V a
  multiple of the first su(2) basis axis; projecting (X, x) subtracts the
  isotropy component, giving X - x*V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .matrixcore import (QuaternionMatrix, RngStream, as_quaternion_skew,
                         as_skew_hermitian, as_symplectic, conjugate,
                         haar_su2, haar_symplectic, haar_unitary, qabs,
                         qconj, qmul, trial_blocks, vec_from_su2)
from .randers import (SP_SPHERE, SU2, U_SPHERE, RandersSpec, TangentVector,
                      m1_norm_sq, sp_tangent, su2_tangent, u_tangent)

UNIT_TOL = 1e-9

# Catalog of the transitive compact-group presentations of spheres.  An
# invariant non-reversible Randers metric exists exactly when the isotropy
# representation on the tangent space has a non-zero trivial summand, which
# singles out the unitary and symplectic-circle towers; only presentations
# carrying a family tag are modeled computationally here.
SPHERE_PRESENTATIONS = (
    ("S^n", "SO(n+1)/SO(n)", False, None),
    ("S^(2n+1)", "SU(n+1)/SU(n)", True, U_SPHERE),
    ("S^(2n+1)", "U(n+1)/U(n)", True, U_SPHERE),
    ("S^(4n+3)", "Sp(n+1)/Sp(n)", True, None),
    ("S^(4n+3)", "Sp(n+1)U(1)/Sp(n)U(1)", True, SP_SPHERE),
    ("S^(4n+3)", "Sp(n+1)Sp(1)/Sp(n)Sp(1)", False, None),
    ("S^6", "G2/SU(3)", False, None),
    ("S^7", "Spin(7)/G2", False, None),
    ("S^15", "Spin(9)/Spin(7)", False, None),
)


@dataclass(frozen=True)
class ModelSpace:
    """A sphere with a fixed coset presentation.

    `n` is the coset rank (ambient matrices are (n+1) x (n+1)); ignored
    for su2.  `su2_v` is the length of the distinguished isotropy vector V
    along the first su(2) axis, used only by the su2 family.
    """

    family: str
    n: int = 1
    su2_v: float = 0.0

    def __post_init__(self):
        if self.family not in (U_SPHERE, SP_SPHERE, SU2):
            raise InvalidInput(f"unknown family {self.family!r}")
        if self.family != SU2 and self.n < 1:
            raise InvalidInput("coset rank n must be >= 1")


def space_for_spec(spec: RandersSpec) -> ModelSpace:
    """Model space matching a metric spec.

    For su2 the isotropy vector length is recovered as c/b, the unique
    choice for which the constructed metrics have their defining orbit
    property.
    """
    if spec.family == SU2:
        if not (spec.b or 0) > 0:
            raise InvalidInput("an su2 spec needs b > 0 to place its isotropy vector")
        return ModelSpace(SU2, su2_v=spec.c / spec.b)
    return ModelSpace(spec.family, n=spec.n)


@dataclass(frozen=True)
class AlgebraElement:
    """Killing-field candidate: matrix part plus the u(1)/R scalar summand.

    The matrix part is a complex skew-Hermitian ndarray for u_sphere and
    su2, and a skew QuaternionMatrix for sp_sphere.  The scalar part is
    zero whenever the presentation has no circle summand.
    """

    family: str
    x: object
    scalar: float = 0.0


def u_algebra(x) -> AlgebraElement:
    return AlgebraElement(U_SPHERE, as_skew_hermitian(x))


def sp_algebra(x: QuaternionMatrix, scalar=0.0) -> AlgebraElement:
    return AlgebraElement(SP_SPHERE, as_quaternion_skew(x), float(scalar))


def su2_algebra(x, scalar=0.0) -> AlgebraElement:
    x = as_skew_hermitian(np.asarray(x, dtype=complex))
    if x.shape != (2, 2) or abs(np.trace(x)) > 1e-10:
        raise InvalidInput("su2 matrix part must be traceless 2x2 skew-Hermitian")
    return AlgebraElement(SU2, x, float(scalar))


# --------------------------------------------------------------------------
# projection to m
# --------------------------------------------------------------------------

def _m_parts(space: ModelSpace, x, scalar):
    """m0 coordinates (last axis) and m1 part of the projection of the
    matrix part `x`, or of each matrix of a stack, with circle summand
    `scalar`: the column x e_last read off in the family's coordinates."""
    if space.family == U_SPHERE:
        col = x[..., :, -1]
        return col[..., -1:].imag, col[..., :-1]
    if space.family == SP_SPHERE:
        col1 = x.q1[..., :, -1]
        col2 = x.q2[..., :, -1]
        lam = np.stack([col1[..., -1].imag + scalar, col2[..., -1].real,
                        col2[..., -1].imag], axis=-1)
        return lam, (col1[..., :-1], col2[..., :-1])
    # su2: su(2) coordinates less the isotropy component along (V, 1)
    y = vec_from_su2(x) - np.array([space.su2_v, 0.0, 0.0]) * scalar
    return y[..., :1], y[..., 1:]


def project_to_m(space: ModelSpace, e: AlgebraElement) -> TangentVector:
    """Project an algebra element to the tangent model space at the base point."""
    if e.family != space.family:
        raise InvalidInput(f"algebra family {e.family!r} != space family {space.family!r}")
    if space.family != SU2 and e.x.shape != (space.n + 1, space.n + 1):
        raise InvalidInput("matrix size does not match the coset rank")
    m0, u = _m_parts(space, e.x, e.scalar)
    if space.family == SP_SPHERE:
        return sp_tangent(m0, *u)
    if space.family == U_SPHERE:
        return u_tangent(m0[0], u)
    return su2_tangent(np.concatenate([m0, u]))


def project_to_m_stack(space: ModelSpace, xs, scalar):
    """(m0, usq) of the projections of a (T, n+1, n+1) stack of matrix
    parts with circle summand `scalar`: m0 coordinates of shape (T, k) and
    squared m1 norms of shape (T,), the inputs of `randers_norm_array`."""
    m0, u = _m_parts(space, xs, scalar)
    return m0, m1_norm_sq(space.family, u)


def _haar_for(space: ModelSpace, rngs):
    """Stacked Haar draws of the space's group, one per stream."""
    if space.family == U_SPHERE:
        return haar_unitary(space.n + 1, rngs)
    if space.family == SP_SPHERE:
        return haar_symplectic(space.n + 1, rngs)
    return haar_su2(rngs)


def orbit_projection_sample(space: ModelSpace, e: AlgebraElement,
                            trials: int, rng: RngStream):
    """(m0, usq) arrays of the projections to m of `trials` random
    adjoint-orbit points of `e`, draw k from `rng.split(k)`.

    The scalar summand is invariant under the adjoint action and passes
    through unchanged; only the matrix part is conjugated by Haar draws,
    a block of trials at a time.
    """
    if int(trials) < 1:
        raise InvalidInput("need at least one orbit draw")
    dim = e.x.shape[-1]
    parts = [project_to_m_stack(space, conjugate(_haar_for(space, subs), e.x), e.scalar)
             for _, subs in trial_blocks(rng, trials, dim * dim)]
    return (np.concatenate([m0 for m0, _ in parts]),
            np.concatenate([usq for _, usq in parts]))


# --------------------------------------------------------------------------
# quaternionic completion (structured unitary basis over H)
# --------------------------------------------------------------------------

def _rdot(v, w):
    """Row inner product sum_a v_a * conj(w_a) as a quaternion scalar pair."""
    p = qmul(v, qconj(w))
    return (np.sum(p[0]), np.sum(p[1]))


def _left_scale(s, v):
    """Left multiplication of a quaternion vector pair by a scalar pair."""
    return qmul((np.full_like(v[0], s[0]), np.full_like(v[1], s[1])), v)


def _vnorm(v):
    return math.sqrt(float(np.sum(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2)))


def symplectic_completion(last_row) -> QuaternionMatrix:
    """Complete a unit quaternion vector to Q in Sp(n) with that last row.

    Rows between the first and the last are chosen orthogonal to the last
    standard basis vector, so the last column of Q is supported on its
    first and last entries only; a final unit-scalar adjustment turns the
    first entry of the last column into a multiple of j (imaginary part in
    span{j, k}, zero real part).  Gram-Schmidt over the quaternions with
    coefficients on the left.
    """
    r1 = np.asarray(last_row[0], dtype=complex)
    r2 = np.asarray(last_row[1], dtype=complex)
    if r1.shape != r2.shape or r1.ndim != 1:
        raise InvalidInput("last row must be a pair of equal-length 1-d arrays")
    n = r1.shape[0]
    r = (r1, r2)
    nrm = _vnorm(r)
    if nrm < 1e-12:
        raise InvalidInput("last row must be non-zero")
    if abs(nrm - 1.0) > UNIT_TOL:
        raise InvalidInput(f"last row must have unit norm (got {nrm})")
    if n == 1:
        return as_symplectic(QuaternionMatrix(r1.reshape(1, 1), r2.reshape(1, 1)))

    def orthogonalize(v, basis):
        for u in basis:
            s = _rdot(v, u)
            sv = _left_scale(s, u)
            v = (v[0] - sv[0], v[1] - sv[1])
        return v

    def basis_vec(a):
        return (np.eye(n, dtype=complex)[a], np.zeros(n, dtype=complex))

    f = orthogonalize(basis_vec(n - 1), [r])
    fn = _vnorm(f)
    if fn < 1e-9:
        # last row is a scalar multiple of e_n; its complement is spanned by
        # the remaining basis vectors and no scalar adjustment is needed
        first = basis_vec(0)
        middle = [basis_vec(a) for a in range(1, n - 1)]
    else:
        first = (f[0] / fn, f[1] / fn)
        middle = []
        for a in range(n):
            if len(middle) == n - 2:
                break
            cand = basis_vec(a)
            cand = orthogonalize(cand, [r, first] + middle)
            cand = orthogonalize(cand, [r, first] + middle)
            cn = _vnorm(cand)
            if cn > 1e-6:
                middle.append((cand[0] / cn, cand[1] / cn))
        if len(middle) < n - 2:
            raise InvalidInput("completion failed: degenerate input vector")
        # unit-scalar adjustment: rotate the first row's last entry onto j
        t = (first[0][-1], first[1][-1])
        mod = float(qabs(t))
        if mod > 1e-12:
            # lam = (mod * j) * t^{-1}, so that lam * t = mod * j exactly
            tinv = (np.conj(t[0]) / mod ** 2, -t[1] / mod ** 2)
            lam = qmul((np.complex128(0.0), np.complex128(mod)), tinv)
            first = _left_scale(lam, first)
    ordered = [first] + middle + [r]
    q1 = np.vstack([row[0] for row in ordered])
    q2 = np.vstack([row[1] for row in ordered])
    return as_symplectic(QuaternionMatrix(q1, q2))


# --------------------------------------------------------------------------
# closed-form symplectic orbit projection
# --------------------------------------------------------------------------

def sp_orbit_conjugator(q, w) -> QuaternionMatrix:
    """Sp(n+1) element whose last row is (sqrt(1-|q|^2) w, q), built by the
    structured completion above.  `q` is a quaternion scalar pair and `w`
    a unit quaternion n-vector pair."""
    q1s, q2s = complex(q[0]), complex(q[1])
    w1 = np.asarray(w[0], dtype=complex)
    w2 = np.asarray(w[1], dtype=complex)
    csq = 1.0 - (abs(q1s) ** 2 + abs(q2s) ** 2)
    if csq < -UNIT_TOL:
        raise InvalidInput("corner quaternion must have modulus <= 1")
    c = math.sqrt(max(csq, 0.0))
    row = (np.append(c * w1, q1s), np.append(c * w2, q2s))
    return symplectic_completion(row)


def sp_orbit_projection(xprime, x, q, w) -> TangentVector:
    """Projection to m of the orbit point of (x'*i*I, x) determined by the
    corner quaternion q = q1 + q2 j and unit vector w of the conjugator's
    last row.

    Closed form (matches the conjugate-then-project path through
    sp_orbit_conjugator):

        m0:  (x'(2|q1|^2 - 1) + x) i  +  2 x' conj(q1) q2 k
        m1:  2 x' sqrt(1 - |q|^2) * conj(w_a) * i * q1   per entry a

    As (q, w) sweep their domain these points fill the round sphere of
    radius |x'| centered at x*i in <.,.>_eq.
    """
    xprime = float(xprime)
    x = float(x)
    q1s, q2s = complex(q[0]), complex(q[1])
    qn = abs(q1s) ** 2 + abs(q2s) ** 2
    if qn > 1.0 + UNIT_TOL:
        raise InvalidInput("corner quaternion must have modulus <= 1")
    c = math.sqrt(max(1.0 - qn, 0.0))
    w1 = np.asarray(w[0], dtype=complex)
    w2 = np.asarray(w[1], dtype=complex)
    if c > 1e-12:
        wn = math.sqrt(float(np.sum(np.abs(w1) ** 2 + np.abs(w2) ** 2)))
        if abs(wn - 1.0) > UNIT_TOL:
            raise InvalidInput("w must be a unit vector")
    lam1 = xprime * (2.0 * abs(q1s) ** 2 - 1.0) + x
    z = 2.0 * xprime * np.conj(q1s) * q2s  # coefficient of k; z*k = Re(z) k - Im(z) j
    lam = np.array([lam1, -z.imag, z.real])
    scale = 2.0 * xprime * c
    u1 = scale * 1j * q1s * np.conj(w1)
    u2 = scale * 1j * np.conj(q1s) * w2
    return sp_tangent(lam, u1, u2)


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
