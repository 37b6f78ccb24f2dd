"""The closed-form root pair, kept for the tests.

On a spec with a = b + c^2, `killing.central_kvf_phases` gives the two
eigenvalue phases of a generator of constant length L that commutes with
the central circle action.  They are also the two solutions of
sqrt(a)|x| + c x = L: this module keeps that second formula as the
reference the phases are checked against.
"""

import math


def eq_root_pair(s, L):
    """The two solutions of sqrt(a)|x| + c x = L for the u_sphere spec `s`,
    as (positive, negative).

    Since |c| < sqrt(a) both branch denominators are positive.
    """
    sq = math.sqrt(s.a)
    return (L / (sq + s.c), -L / (sq - s.c))
