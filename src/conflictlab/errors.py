"""Exception types shared across the package.

Validation problems subclass ValueError, runtime/iteration failures subclass
RuntimeError, so callers can catch broad categories without importing every
name.

A failure keeps its message, not the solver's arrays.  The public entries
that run a solver loop or a flow step are wrapped in ``_releasing``: a
failure leaves them with the locals of every finished frame along its
exception chain cleared, so a caller that keeps its failures (a scan, a
benchmark) keeps a few kilobytes per failure, whatever the grid size,
rather than the working set of the solve.  Messages carry what a failure
needs to be read: the residual and the iteration count of a solver, the
time of a flow.  The cost: a post-mortem debugger or ``pytest -l`` no
longer sees the locals of a failed solver or step.
"""

import functools
import traceback


def _clear_chain(err):
    """Clear the locals of every finished frame in the tracebacks of err,
    its __cause__ and its __context__, and theirs in turn; frames still
    running are left as they are."""
    chain, seen = [err], set()
    while chain:
        e = chain.pop()
        if e is not None and id(e) not in seen:
            seen.add(id(e))
            traceback.clear_frames(e.__traceback__)
            chain += e.__cause__, e.__context__


def _releasing(fn):
    """fn, whose failures leave it through _clear_chain.  The clearing runs
    after fn's own frame has finished, so that frame is cleared too."""

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BaseException as err:
            _clear_chain(err)
            raise

    return entry


class NegativeConstant(ValueError):
    """A coupling constant (alpha, beta or gamma) is negative."""


class NonpositiveMass(ValueError):
    """m1 <= 0 or m2 < 0."""


class BadTheta(ValueError):
    """The conflict flag is not -1 or +1."""


class TooCoarse(ValueError):
    """Grid resolution below the supported minimum."""


class ZeroDensity(ValueError):
    """A density that must carry mass is identically zero."""


class NegativeDensity(ValueError):
    """A field that must be nonnegative has negative entries."""


class GridMismatch(ValueError):
    """Fields that must share a grid do not."""


class Supercritical(ValueError):
    """Masses on or past the Pohozaev line alpha m1 >= 8 pi + 2 beta m2."""


class GammaZero(ValueError):
    """The annulus reduction asked for at gamma = 0, where it does not apply."""


class AtBlowdown(ValueError):
    """Evaluation at or beyond the blow-down time t = ln(1/psi)."""


class HypothesisViolated(ValueError):
    """Standing hypothesis (beta_m - gamma*m2)/2pi - 2 > 0 fails."""


class TooFewPoints(ValueError):
    """Not enough scale points for a slope fit."""


class UnsupportedRegime(ValueError):
    """Flow limit-combination (delta1, delta2, epsilon) is not one of the
    three supported limits (1,1,0), (1,0,0), (0,0,1)."""


class ParseError(ValueError):
    """Configuration text could not be parsed; message carries line/key."""


class UnknownKey(ParseError):
    """Configuration contains a key or section that is not recognized."""


class SolverDiverged(RuntimeError):
    """A Picard or Newton solve failed to reach the residual tolerance."""


class Oscillation(SolverDiverged):
    """Residual non-monotone over many iterations at minimum damping."""


class NoRoot(RuntimeError):
    """The energy-matching bisection stalled."""


class MonotonicityLost(RuntimeError):
    """v_r > 0 detected where the hypothesis regime requires v_r <= 0."""


class StepRejected(RuntimeError):
    """A flow step violated positivity or increased the energy monitor."""


class Stalled(RuntimeError):
    """Adaptive time step underflowed below 1e-14."""


class DegenerateQuadraticForm(Warning):
    """|beta^2 + alpha*gamma*theta| below threshold: the energy monitor for
    the potential flow is disabled, stepping proceeds."""
