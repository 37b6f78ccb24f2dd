"""Constant-length Killing field analysis.

Centerpiece of the package: the closed-form metric solver for
two-eigenvalue generators on the unitary-family spheres, the quadratic
identity certifying constant length, and the witness pair showing that on
the symplectic-family spheres only central vectors work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cosets import (AlgebraElement, align_imaginary_to_i, orbit_projection_sample,
                     project_at, u_algebra)
from .errors import InfeasibleParams, InvalidInput, NotApplicable, NotKvfAdmissible
from .matrixcore import QuaternionMatrix, qmul
from .randers import SP_SPHERE, U_SPHERE, RandersSpec, randers_norm_array


# --------------------------------------------------------------------------
# two-eigenvalue orbit parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitParams:
    """Data of a two-eigenvalue skew generator on S^(2n+1), n+1 = l+m.

    The generator is i*(x1 I + x2 diag(-m I_l, l I_m)), with eigenvalue
    phases x1 - m x2 (multiplicity l) and x1 + l x2 (multiplicity m).
    Feasibility requires the two phases to have opposite signs:
    (x1 - m x2)(x1 + l x2) < 0.  L is the target constant length.
    """

    l: int
    m: int
    x1: float
    x2: float
    L: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.l, int) and isinstance(self.m, int)) \
                or self.l < 1 or self.m < 1:
            raise InvalidInput("l and m must be positive integers")
        if not (self.L > 0 and all(map(math.isfinite, (self.L, self.x1, self.x2)))):
            raise InvalidInput("L must be positive, and L, x1 and x2 finite")
        if self.x2 == 0.0:
            raise InfeasibleParams("x2 != 0 is required")
        if not (self.x1 - self.m * self.x2) * (self.x1 + self.l * self.x2) < 0:
            raise InfeasibleParams(
                "(x1 - m*x2)*(x1 + l*x2) < 0 is required for opposite-sign phases")

    @property
    def n(self):
        return self.l + self.m - 1

    @property
    def center(self):
        """m0 coordinate of the projected orbit's center."""
        return 0.5 * (self.l - self.m) * self.x2 + self.x1

    @property
    def radius(self):
        """Radius of the projected orbit sphere in <.,.>_eq."""
        return 0.5 * (self.l + self.m) * abs(self.x2)


def orbit_generator(p: OrbitParams) -> AlgebraElement:
    """The skew matrix i*(x1 I + x2 diag(-m I_l, l I_m)) as an algebra element."""
    diag = np.concatenate([np.full(p.l, -p.m * p.x2), np.full(p.m, p.l * p.x2)])
    return u_algebra(1j * np.diag(p.x1 + diag))


# --------------------------------------------------------------------------
# closed-form solver and identities
# --------------------------------------------------------------------------

def solve_metric(p: OrbitParams) -> RandersSpec:
    """The unique (up to scale) metric triple making `p`'s generator a
    constant-length Killing field:

        b = L^2 / (R^2 - sigma^2),  c = -(b/L) sigma,  a = b + c^2,

    with sigma the orbit center and R the orbit radius.  The denominator
    is positive exactly when the opposite-sign phase condition holds.
    """
    # products, not `** 2`: an overflow must reach the spec's check as inf
    denom = p.radius * p.radius - p.center * p.center
    if denom <= 0:
        raise InfeasibleParams("orbit sphere does not surround the origin")
    b = p.L * p.L / denom
    c = -(b / p.L) * p.center
    a = b + c * c
    return RandersSpec(U_SPHERE, n=p.n, a=a, b=b, c=c)


def f_poly(s: RandersSpec, p: OrbitParams):
    """Coefficients (k2, k1, k0) of the squared Riemannian part along the
    projected orbit, as a quadratic in the block-mixing parameter t:

        f(t) = (a-b) x2^2 t^2 + [(l-m) x2^2 b + 2 a x1 x2] t
               + (x2^2 b m l + a x1^2).
    """
    if s.family != U_SPHERE:
        raise InvalidInput("f_poly expects a u_sphere spec")
    k2 = (s.a - s.b) * p.x2 ** 2
    k1 = (p.l - p.m) * p.x2 ** 2 * s.b + 2.0 * s.a * p.x1 * p.x2
    k0 = p.x2 ** 2 * s.b * p.m * p.l + s.a * p.x1 ** 2
    return (k2, k1, k0)


def _identity_sides(s: RandersSpec, p: OrbitParams):
    """Coefficients of f(t) (`f_poly`) and of (-c (x2 t + x1) + L)^2."""
    r2 = s.c ** 2 * p.x2 ** 2
    r1 = 2.0 * s.c * p.x2 * (s.c * p.x1 - p.L)
    r0 = (p.L - s.c * p.x1) ** 2
    return f_poly(s, p), (r2, r1, r0)


def constant_length_identity(s: RandersSpec, p: OrbitParams):
    """Coefficient-wise residuals of f(t) = (-c (x2 t + x1) + L)^2.

    All three residuals vanish exactly when the generator of `p` has
    constant length L for the metric `s`.
    """
    lhs, rhs = _identity_sides(s, p)
    return tuple(k - r for k, r in zip(lhs, rhs))


def identity_scale(s: RandersSpec, p: OrbitParams):
    """The largest coefficient magnitude of either side of the identity,
    the scale at which its residuals round: on a solved metric it grows
    as L^2, so a bound on the residuals is relative to it."""
    lhs, rhs = _identity_sides(s, p)
    return max(abs(v) for v in (*lhs, *rhs))


def central_kvf_phases(s: RandersSpec, L):
    """The two eigenvalue phases of generators commuting with the central
    circle action: -Lc/b +- sqrt(L^2/b + L^2 c^2 / b^2).

    Requires the admissibility relation a = b + c^2 (round off-center
    indicatrix); then the pair is the two solutions of sqrt(a)|x| + c x = L.
    """
    if s.family != U_SPHERE:
        raise InvalidInput("central_kvf_phases expects a u_sphere spec")
    if abs(s.a - (s.b + s.c ** 2)) > 1e-10 * s.a:
        raise NotKvfAdmissible(
            f"a = b + c^2 fails: a={s.a!r}, b + c^2={s.b + s.c ** 2!r}")
    L = float(L)
    root = math.sqrt(L ** 2 / s.b + (L * s.c / s.b) ** 2)
    return (-L * s.c / s.b + root, -L * s.c / s.b - root)


# --------------------------------------------------------------------------
# Monte-Carlo orbit sampling
# --------------------------------------------------------------------------

def orbit_length_report(s: RandersSpec, e: AlgebraElement, rng, trials) -> np.ndarray:
    """Metric values of `e`'s Killing field at `trials` adjoint-orbit
    projections, one uniform sphere point per trial
    (`orbit_projection_sample`), through one norm evaluation: F of the
    Killing field is constant on the sphere exactly when it is constant on
    the orbit.
    """
    m0, usq = orbit_projection_sample(s, e, trials, rng)
    return randers_norm_array(s, m0, usq)


# --------------------------------------------------------------------------
# symplectic family: impossibility harnesses
# --------------------------------------------------------------------------

def _diagonal_entries(x: QuaternionMatrix):
    off1 = x.q1 - np.diag(np.diagonal(x.q1))
    off2 = x.q2 - np.diag(np.diagonal(x.q2))
    if max(np.max(np.abs(off1)), np.max(np.abs(off2))) > 1e-12:
        raise InvalidInput("expected a diagonal quaternion matrix")
    return np.diagonal(x.q1), np.diagonal(x.q2)


def sp_witness_pair(x: QuaternionMatrix, s: RandersSpec):
    """Two sphere points where a nonzero diagonal skew generator's Killing
    field projects to opposite multiples of the metric axis.

    The chosen diagonal entry d is the first of modulus above 1e-14, at
    index idx.  With s rotating d to |d| i (`align_imaginary_to_i`), the
    points are e_idx s and e_idx (s j), where the field reads +|d| i and
    -|d| i.  Returns (m0 at the first, m0 at the second, F there, F there,
    2|c| |d|): the metric values differ by exactly the last entry, which
    rules out nonzero generators in the matrix algebra alone whenever
    c != 0.
    """
    if s.family != SP_SPHERE:
        raise InvalidInput("sp_witness_pair expects an sp_sphere spec")
    if x.shape != (s.n + 1, s.n + 1):
        raise InvalidInput("matrix size does not match the coset rank")
    if s.c == 0.0:
        raise NotApplicable("witness pair needs a non-reversible metric (c != 0)")
    d1, d2 = _diagonal_entries(x)
    mods = np.linalg.norm(np.stack([d1.real, d1.imag, d2.real, d2.imag], axis=1),
                          axis=1)
    if np.max(mods) < 1e-14:
        raise InvalidInput("generator must be non-zero")
    idx = int(np.argmax(mods > 1e-14))
    align = align_imaginary_to_i((d1[idx], d2[idx]))
    w1 = np.zeros((2, s.n + 1), dtype=complex)
    w2 = np.zeros_like(w1)
    w1[:, idx], w2[:, idx] = zip(align, qmul(align, (np.complex128(0), np.complex128(1))))
    m0, usq = project_at(SP_SPHERE, x, 0.0, (w1, w2))
    f1, f2 = randers_norm_array(s, m0, usq).tolist()
    return m0[0], m0[1], f1, f2, 2.0 * abs(s.c) * mods[idx]
