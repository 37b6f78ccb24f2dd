"""Minkowski/Randers norms on the tangent model space m = m0 + m1.

Two coset families share one parameter container:

* ``u_sphere``  -- S^(2n+1) with unitary symmetry; m0 = R, m1 = C^n,
  F(q, u) = sqrt(a q^2 + b |u|^2) + c q.
* ``sp_sphere`` -- S^(4n+3) with symplectic-circle symmetry; m0 = Im H
  (coordinates along i, j, k), m1 = H^n,
  F = sqrt(a1 l1^2 + a2 (l2^2 + l3^2) + b |u|^2) + c l1.

S^3 as the group SU(2), with SU(2) acting on the left and a circle on the
right, is U(2) acting on C^2 = H: its left-invariant Randers metrics are
the u_sphere metrics with n = 1.

The reference inner product <.,.>_eq is the a = b = 1 (resp.
a1 = a2 = b = 1) case; orbit centers and radii elsewhere in the package
are always measured in it.

A `RandersSpec` checks an int n >= 1 (not a bool), finite real positive
coefficients, the Randers condition |c| < sqrt(a) (resp. sqrt(a1)) and
a2 != b when it is built, and raises `InvalidSpec` if any fails; no
function that takes a spec checks it again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidSpec

U_SPHERE = "u_sphere"
SP_SPHERE = "sp_sphere"

_FAMILIES = (U_SPHERE, SP_SPHERE)


# --------------------------------------------------------------------------
# metric parameter container
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RandersSpec:
    """Parameters of a homogeneous Randers metric on a model sphere.

    u_sphere uses (a, b, c); sp_sphere uses (a1, a2, b, c).  Unused
    coefficients stay None.  `n` is the coset rank: S^(2n+1) for u_sphere,
    S^(4n+3) for sp_sphere.  Building an invalid spec raises `InvalidSpec`.
    """

    family: str
    n: int = 1
    a: float = None
    b: float = None
    c: float = 0.0
    a1: float = None
    a2: float = None

    def __post_init__(self):
        violations = _validate_spec(self)
        if violations:
            raise InvalidSpec(violations)


def round_spec(n=1):
    """The symmetric (round) u_sphere metric on S^(2n+1)."""
    return RandersSpec(U_SPHERE, n=n, a=1.0, b=1.0, c=0.0)


def _validate_spec(s: RandersSpec):
    """Return the list of violated invariants (empty list means valid).

    Each entry names the failed inequality.  For sp_sphere the full
    symplectic-circle symmetry additionally requires a2 != b, since a2 = b
    enlarges the symmetry to the unitary family.
    """
    violations = []
    if s.family not in _FAMILIES:
        return [f"unknown family {s.family!r}"]
    if isinstance(s.n, bool) or not isinstance(s.n, int) or s.n < 1:
        violations.append("n >= 1")
    if s.family == SP_SPHERE:
        named = [("a1", s.a1), ("a2", s.a2), ("b", s.b)]
    else:
        named = [("a", s.a), ("b", s.b)]
    for name, value in named:
        fault = _coefficient_fault(name, value)
        if fault:
            violations.append(fault)
        elif value <= 0:
            violations.append(f"{name} > 0")
    fault = _coefficient_fault("c", s.c)
    if fault:
        violations.append(fault)
        return violations
    lead = s.a1 if s.family == SP_SPHERE else s.a
    if _is_finite_real(lead) and lead > 0:
        bound = "sqrt(a1)" if s.family == SP_SPHERE else "sqrt(a)"
        if not abs(s.c) < math.sqrt(lead):
            violations.append(f"|c| < {bound}")
    if s.family == SP_SPHERE and _is_real(s.a2) and _is_real(s.b) and s.a2 == s.b:
        violations.append("a2 != b")
    return violations


def _is_real(value):
    """An int or a float, numpy's included, but not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_finite_real(value):
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:           # an int beyond the float range
        return False


def _coefficient_fault(name, value):
    """Why `value` cannot be coefficient `name`, or None if it is a finite
    real number."""
    if _is_finite_real(value):
        return None
    if value is None or _is_real(value):
        return f"{name} missing or non-finite"
    return f"{name} not a real number"


# --------------------------------------------------------------------------
# norm evaluation
# --------------------------------------------------------------------------

def m1_norm_sq(family, u):
    """Squared norm of m1 parts, summed over the last axis: `u` is a
    complex pair for sp_sphere, one complex array for u_sphere."""
    if family == SP_SPHERE:
        return np.sum(np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2, axis=-1)
    return np.sum(np.abs(u) ** 2, axis=-1)


def randers_norm_array(s: RandersSpec, m0, usq):
    """Evaluate F = alpha + beta on stacked tangent vectors.

    `m0` is an array holding the m0 coordinates on its last axis: (l1, l2,
    l3) for sp_sphere, the single coordinate q for u_sphere.  `usq` holds the
    squared m1 norms; the leading axes of both broadcast.  F is positively
    homogeneous of degree one and F(0) = 0.  The one-form beta pairs y
    with the distinguished m0 axis (q, resp. l1), weighted by c.
    """
    width = 3 if s.family == SP_SPHERE else 1
    if np.ndim(m0) < 1 or np.shape(m0)[-1] != width:
        raise InvalidInput(f"{s.family} m0 needs {width} coordinate(s) on its last "
                           f"axis, got shape {np.shape(m0)}")
    axis = m0[..., 0]
    if s.family == SP_SPHERE:
        alpha_sq = (s.a1 * axis ** 2 + s.a2 * (m0[..., 1] ** 2 + m0[..., 2] ** 2)
                    + s.b * usq)
    else:
        alpha_sq = s.a * axis ** 2 + s.b * usq
    return np.sqrt(alpha_sq) + s.c * axis


# --------------------------------------------------------------------------
# JSON wire format
# --------------------------------------------------------------------------

def spec_to_json(s: RandersSpec) -> str:
    """Serialize to the shared JSON schema."""
    doc = {"family": s.family, "n": s.n, "b": s.b, "c": s.c}
    if s.family == SP_SPHERE:
        doc["a1"] = s.a1
        doc["a2"] = s.a2
    else:
        doc["a"] = s.a
    return json.dumps(doc, sort_keys=True)


def spec_from_json(text: str) -> RandersSpec:
    """Parse the shared JSON schema; raises InvalidInput on malformed input,
    and `InvalidSpec` through `RandersSpec` on a coefficient that is not a
    finite number."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:     # ValueError covers JSONDecodeError
        raise InvalidInput(f"malformed spec JSON: {exc}") from exc
    if not isinstance(doc, dict) or "family" not in doc:
        raise InvalidInput("spec JSON must be an object with a 'family' key")
    family = doc["family"]
    if family == "su2":
        raise InvalidInput("S^3 = SU(2) is the u_sphere family with n = 1: write the "
                           "su2 config with \"family\": \"u_sphere\", \"n\": 1 and the "
                           "same a, b and c")
    if family not in _FAMILIES:
        raise InvalidInput(f"unknown family {family!r}")
    n = doc.get("n", 1)
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidInput(f"bad spec field: n must be an integer, not {n!r}")
    names = ("a1", "a2", "b") if family == SP_SPHERE else ("a", "b")
    for name in names:
        if name not in doc:
            raise InvalidInput(f"bad spec field: {name!r} missing")
    coeffs = {name: doc[name] for name in (*names, "c") if name in doc}
    # a finite number becomes a float; anything else (a bool, a string,
    # null, an int beyond the float range) is left for RandersSpec to refuse
    return RandersSpec(family, n=n, **{name: float(value) if _is_finite_real(value) else value
                                       for name, value in coeffs.items()})
