"""Exception types shared across the package.

All domain failures derive from :class:`SpinMapError` so the CLI can map
them to exit code 1 with a machine-readable error object.
"""


def _plain(value):
    """``value`` with numpy scalars and arrays turned into Python floats and lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


class SpinMapError(Exception):
    """Base class for domain errors."""

    code = "error"

    def payload(self):
        return {"error": self.code, "message": str(self)}


class CapacityError(SpinMapError):
    """A configured size cap (site count, branch count) was exceeded."""

    code = "capacity"


class ConnectivityError(SpinMapError):
    """A spin has no measured coupling into the already-placed set."""

    code = "connectivity"


class InfeasibilityError(SpinMapError):
    """No lattice assignment satisfies the coupling constraints."""

    code = "infeasible"


class LabelingError(SpinMapError):
    """Eigenstate could not be matched to a basis label (overlap too low)."""

    code = "labeling"


class SingularityError(SpinMapError):
    """A perturbative denominator vanished."""

    code = "singularity"


class InversionError(SpinMapError):
    """Hyperfine inversion has no real solution for the given frequencies."""

    code = "inversion"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

    def payload(self):
        return {**super().payload(), "residual": _plain(self.residual)}


class FitError(SpinMapError):
    """A curve fit failed to converge or the signal is too weak."""

    code = "fit"


class BoundaryError(SpinMapError):
    """A scan minimum sits on the grid boundary (grid too narrow)."""

    code = "boundary"


class InsufficientStatisticsError(SpinMapError):
    """Too few complete dwell intervals to estimate a rate."""

    code = "insufficient_statistics"


class NonConvergenceError(SpinMapError):
    """Iterative optimization did not converge within the iteration cap."""

    code = "non_convergence"

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

    def payload(self):
        return {**super().payload(), "diagnostics": _plain(self.diagnostics)}


class RecoveryError(SpinMapError):
    """A pipeline run did not uniquely recover its own ground truth."""

    code = "recovery"


class InputError(SpinMapError):
    """Malformed input file or configuration value."""

    code = "input"
