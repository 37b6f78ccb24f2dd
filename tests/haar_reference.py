"""The conjugation route to Killing fields, kept for the tests.

`cosets.project_at` reads the Killing field of x at a sphere point w, the
projection of every conjugate g x g* with g* e_last = w.  This module
keeps the routes it replaced: Haar draws of Sp(n) by one QR of the
complex embedding, the adjoint action g x g*, the Sp(n) membership defect,
the read-off `project_to_m` of a conjugate's last column, and the
symplectic witness built from explicit conjugators.  The tests use them as
the slow references that `project_at`, the orbit sampler and
`killing.sp_witness_pair` are cross-checked against on the same inputs.
`to_complex`, the 2n x 2n complex embedding of a quaternion matrix, is the
independent oracle for `QuaternionMatrix` products.
"""

import numpy as np

from cwspheres.cosets import align_imaginary_to_i
from cwspheres.errors import InvalidInput
from cwspheres.matrixcore import QuaternionMatrix, _ginibre, _haar_qr, conj_t, qmul
from cwspheres.randers import SP_SPHERE, U_SPHERE, m1_norm_sq, randers_norm_array


def symplectic_defect(q):
    """Max-entry defect of the two Sp(n) membership conditions
    Q1*Q2 - Q2^T conj(Q1) = 0  and  Q1*Q1 + Q2^T conj(Q2) = I, over every
    matrix of a stack."""
    n = q.shape[-1]
    gram = q.conj_t() @ q
    return max(np.max(np.abs(gram.q1 - np.eye(n))), np.max(np.abs(gram.q2)))


def haar_symplectic(n, rngs):
    """Stacked QuaternionMatrix of Haar-distributed Sp(n) draws, one per
    stream of the StreamBlock `rngs`: the QR of the complex embedding of a
    quaternion Ginibre matrix G1 + G2*j with each column's j-partner next
    to it, [G1; -conj G2] in column 2a and [G2; conj G1] in column 2a + 1.
    Orthonormalised in that order, each column pair spans a right-H line,
    so Q embeds an Sp(n) matrix: Q1, Q2 are its top half's even, odd columns.
    """
    g = _ginibre(rngs, n, n, count=2)
    g1, g2 = g[:, 0], g[:, 1]
    m = np.empty((len(g), 2 * n, 2 * n), dtype=complex)
    m[:, :n, 0::2], m[:, n:, 0::2] = g1, -np.conj(g2)
    m[:, :n, 1::2], m[:, n:, 1::2] = g2, np.conj(g1)
    q = _haar_qr(m)
    return QuaternionMatrix(q[:, :n, 0::2], q[:, :n, 1::2])


def to_complex(q):
    """2n x 2n complex embedding [[Q1, Q2], [-conj(Q2), conj(Q1)]] of the
    QuaternionMatrix `q`: quaternion products map to ordinary complex
    products under it."""
    top = np.hstack([q.q1, q.q2])
    bot = np.hstack([-np.conj(q.q2), np.conj(q.q1)])
    return np.vstack([top, bot])


def conjugate(g, x):
    """Adjoint action g x g* for unitary g on ndarray x, or symplectic g on
    QuaternionMatrix x; a stack of g gives the stack of conjugates of x."""
    if isinstance(g, QuaternionMatrix):
        if not isinstance(x, QuaternionMatrix) or g.shape[-2:] != x.shape \
                or x.shape[0] != x.shape[1]:
            raise InvalidInput("conjugation operands have incompatible shapes")
        return g @ x @ g.conj_t()
    g = np.asarray(g, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if g.ndim not in (2, 3) or g.shape[-2:] != x.shape or x.shape[0] != x.shape[1]:
        raise InvalidInput("conjugation operands have incompatible shapes")
    return g @ x @ conj_t(g)


def read_point(g):
    """The unit vectors w = g* e_last of a stack of unitary or symplectic
    matrices g, in the form `cosets.project_at` takes."""
    if isinstance(g, QuaternionMatrix):
        gs = g.conj_t()
        return gs.q1[:, :, -1], gs.q2[:, :, -1]
    return conj_t(g)[:, :, -1]


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


def witness_by_conjugation(x, spec):
    """The sp witness pair (m0_1, m0_2, F_1, F_2) of the diagonal generator
    `x` by explicit conjugation.  With idx its first non-zero diagonal
    entry, P the permutation swapping idx and the last slot,
    s = `align_imaginary_to_i(x_idx)` and t the diagonal Sp(n+1) element
    with s (then s j) in the last slot and ones elsewhere, read
    `project_to_m` of h x h*, h = t* P*."""
    n1 = x.shape[0]
    idx = int(np.flatnonzero(np.hypot(np.abs(np.diagonal(x.q1)),
                                      np.abs(np.diagonal(x.q2))) > 1e-14)[0])
    perm = np.arange(n1)
    perm[[idx, n1 - 1]] = perm[[n1 - 1, idx]]
    p = np.eye(n1, dtype=complex)[:, perm]          # P e_k = e_perm[k]
    pmat = QuaternionMatrix(p, np.zeros_like(p))
    s = align_imaginary_to_i((x.q1[idx, idx], x.q2[idx, idx]))
    parts = []
    for rot in (s, qmul(s, (np.complex128(0), np.complex128(1)))):
        q1, q2 = np.eye(n1, dtype=complex), np.zeros((n1, n1), dtype=complex)
        q1[-1, -1], q2[-1, -1] = rot
        h = QuaternionMatrix(q1, q2).conj_t() @ pmat.conj_t()
        parts.append(project_to_m(SP_SPHERE, h @ x @ h.conj_t(), 0.0))
    m0, usq = zip(*parts)
    f1, f2 = randers_norm_array(spec, np.stack(m0), np.array(usq)).tolist()
    return m0[0], m0[1], f1, f2
