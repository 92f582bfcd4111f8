"""The exception classes some caller tells apart by type, and _releasing.

Three: SolverDiverged, its subclass Oscillation, and StepRejected.  A
refused input is a plain ValueError (exit 3), a failed computation a
plain RuntimeError (exit 2): a class lives here only if a caller names it.

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


class SolverDiverged(RuntimeError):
    """A Picard or Newton solve failed to reach the residual tolerance."""


class Oscillation(SolverDiverged):
    """Residual non-monotone over many iterations at minimum damping."""


class StepRejected(RuntimeError):
    """A flow step violated positivity or increased the energy monitor."""
