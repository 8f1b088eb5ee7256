"""Exception hierarchy shared across the toolkit, and its float64 overflow guard.

Each class carries the command-line exit code for its failure (PAPER.md):
2 parse/validation (``InvalidInput`` and its subclasses), 3 graph
structure, 4 degenerate spectrum, 5 other numeric failure (the default).
"""

import functools

import numpy as np


def overflow_raises(quantity, result=lambda out: out):
    """Decorate the function that computes ``quantity``: an array operation
    in it that overflows float64 or yields NaN, a Python float OverflowError
    (``x ** 2``) and a ``result(out)`` (None: no check) that is not finite
    raise FloatingPointError naming the quantity (exit 5 in the CLI) where
    numpy would warn and go on with inf or NaN. Nested, the inner name wins."""

    def fail(kind, _flag=None):
        raise FloatingPointError(f"{quantity}: {kind} in its float64 arithmetic") from None

    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            with np.errstate(over="call", invalid="call", call=fail):
                try:
                    out = fn(*args, **kwargs)
                except OverflowError:
                    fail("overflow")
                if result is not None and not np.isfinite(result(out)).all():
                    fail("overflow")  # one that numpy did not flag
            return out

        return checked

    return decorate


class LipkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 5


class InvalidInput(LipkitError):
    """Input rejected by validation: malformed, out of range or inconsistent."""

    exit_code = 2


class NonConvergence(LipkitError):
    """An iterative procedure failed to converge."""


class DegenerateSpectrum(LipkitError):
    """Singular values too close for the requested derivative to be defined."""

    exit_code = 4

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class ZeroSingular(LipkitError):
    """Requested quantity involves 1/sigma_k terms with sigma_k = 0."""

    exit_code = 4


class OrderOverflow(InvalidInput):
    """Expansion order above the configured maximum."""


class NotSkew(InvalidInput):
    """Matrix is not skew-symmetric within tolerance."""


class NotSimplex(InvalidInput):
    """Vector is not a probability vector."""


class UnknownActivation(InvalidInput):
    """Activation name not in the supported table."""


class UnknownNode(InvalidInput):
    """Node id not present in the graph."""


class NotAPath(LipkitError):
    """Graph is not a chain."""

    exit_code = 3


class CycleDetected(LipkitError):
    """Graph is not acyclic."""

    exit_code = 3


class GraphInvalid(InvalidInput):
    """Graph violates a structural invariant other than acyclicity."""


class InvalidParams(InvalidInput):
    """Attention-bound parameter set malformed (missing key or shape mismatch)."""


class NonBracketable(InvalidInput):
    """Root of x*exp(x+1) = y requested for y < 0."""


class CallbackFailure(LipkitError):
    """A user-supplied callback raised; original exception attached as __cause__."""


class NotUnit(InvalidInput):
    """Direction vector is not unit norm."""


class EmptyBand(InvalidInput):
    """No spectrum bin falls inside the requested frequency ball."""


class GridMismatch(InvalidInput):
    """Two signals do not share grid shape and spacing."""


class NotPSD(InvalidInput):
    """Matrix expected to be positive semidefinite is not."""


class PlayerCountTooLarge(InvalidInput):
    """Shapley player count above the mode's limit: 16 players in exact mode,
    63 in Monte Carlo mode (coalition masks are int64)."""


class DegenerateWeights(InvalidInput):
    """Importance-score weights are all zero (or player count < 2)."""


class NegativeShapley(InvalidInput):
    """Importance-score normalization needs nonnegative Shapley values."""
