"""Exception types shared across the package."""


class CwError(Exception):
    """Base class for all package errors."""


class InvalidInput(CwError):
    """Malformed or out-of-domain input (shape mismatch, non-finite data, ...)."""


class InvalidSpec(InvalidInput):
    """Randers metric parameters that break an invariant, each named in `.violations`."""

    def __init__(self, violations):
        super().__init__("invalid Randers spec: " + "; ".join(violations))
        self.violations = violations


class InfeasibleParams(CwError):
    """Parameter set violates a feasibility inequality."""


class NotKvfAdmissible(CwError):
    """Metric parameters do not satisfy the admissibility relation a = b + c^2."""


class NotApplicable(CwError):
    """Operation requires a hypothesis (e.g. a non-reversible metric) that fails."""


class ResolutionTooCoarse(CwError):
    """Sampled sphere graph is too coarse (disconnected or target unreachable)."""
