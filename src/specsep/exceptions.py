"""Exception hierarchy shared across the package."""


class SpecsepError(Exception):
    """Base class for all package-specific failures."""


class SpectrumError(SpecsepError, ValueError):
    """Invalid joint-spectrum input (weights, signs, duplicates)."""


class SolverError(SpecsepError):
    """Base class for transform-solver failures."""


class PoleError(SolverError):
    """A denominator fell below the pole guard threshold."""


class ConvergenceError(SolverError):
    """Fixed-point iteration failed: its budget ran out or a pole guard tripped.

    Attributes carry the evaluation point, the last residuals and the
    iteration count so callers can report them.
    """

    def __init__(self, z, residuals, iterations, message=None):
        self.z = z
        self.residuals = residuals
        self.iterations = iterations
        super().__init__(
            message
            or f"no convergence at z={z!r} after {iterations} iterations "
            f"(last residuals {residuals[0]:.3e}, {residuals[1]:.3e})"
        )


class ContinuationError(SolverError):
    """Real-axis continuation stalled before reaching its target height."""

    def __init__(self, x, v, message=None):
        self.x = x
        self.v = v
        super().__init__(message or f"continuation toward x={x} stalled at v={v:.3e}")


class SingularTransformError(SolverError, ValueError):
    """Variable transformation hit a vanishing denominator."""


class BracketError(SolverError):
    """No real root reached on the branch: Newton left its pole-free interval or stalled."""


class GapTrackingError(SpecsepError):
    """A tracked gap closed, jumped, or broke monotonicity across aspect ratios."""


class NotInGapError(SpecsepError):
    """Boundary values at the requested point are not real enough for a gap."""


class GapStateError(SpecsepError, ValueError):
    """A gap carries no finite real-branch point (g, s) at one of its ends."""


class SignConstancyError(SpecsepError):
    """A pair's separation function changed sides across a gap.

    Carries the offending pair index and its values at the gap's two ends.
    """

    def __init__(self, pair_index, pair, values):
        self.pair_index = pair_index
        self.pair = pair
        self.values = values
        super().__init__(
            f"pair {pair_index} with (u, t)={pair} crosses -1 inside the gap: {values}"
        )
