"""The Haar-plus-conjugation route to orbit projections, kept for the tests.

`cosets.orbit_projection_sample` draws the unit vector w = g* e_last that
a Haar conjugate g x g* is read at, not g itself.  This module keeps the
route it replaced: Haar draws of Sp(n) by one QR of the complex embedding,
the adjoint action g x g*, and the Sp(n) membership defect.  The tests
use it as the slow reference that the sampler is cross-checked against on
the same draws.
"""

import numpy as np

from cwspheres.errors import InvalidInput
from cwspheres.matrixcore import QuaternionMatrix, _ginibre, _haar_qr, conj_t


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
