"""Constant-displacement isometry analysis for homogeneous Randers spheres.

Library + CLI that constructs homogeneous Randers metrics on odd spheres,
certifies Killing fields of constant length through closed-form identities
and Monte-Carlo orbit sampling, and cross-checks displacement constancy of
the induced isometry flows with a brute-force geodesic-distance oracle.

Modules
-------
matrixcore
    Skew-Hermitian exponentials, eigenvalue phases, stacked Haar U(n) and
    Ginibre draws from a `StreamBlock` of seeded RNG streams (one seeding
    function for blocks and lone streams), quaternion pairs.
randers
    Metric parameter containers for the u_sphere and sp_sphere families
    (S^3 = SU(2) is u_sphere n = 1), the vectorised norm on (m0, usq)
    arrays, JSON.
cosets
    Coset presentations: the Killing field at a stack of sphere points as
    (m0, usq) arrays, orbit sampling at uniform sphere points, the
    imaginary-axis alignment of the symplectic witness.
killing
    Closed-form metric solver and constant-length identities, orbit
    length samples, witness constructions.
flows
    Isometry flows (unitary ones on S^(2n+1)), endpoint focusing on S^3
    in C^2, spectral phase-interval and commutator checkers on stacks
    of matrices, geodesic non-intersection probe.
geodesy
    Sampled sphere graphs and the shortest-path distance oracle (refined
    and raw distances), displacement profiles; the one module that
    imports scipy.
checks
    The nine `verify` checks, each returning a typed report, and the one
    owner of every pass/fail threshold: the modules above measure, checks
    judge.  Only `displacement` and `oracle` import geodesy, when they are
    called, so the other seven never load scipy.
cli
    Command-line front end that formats the reports.
"""

__version__ = "0.1.0"
