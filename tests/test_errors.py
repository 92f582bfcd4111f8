"""errors._releasing: a failure that leaves a wrapped entry keeps its
message, not the locals of the frames it passed through, along its
__cause__ and __context__ too."""

import pytest

from conflictlab.errors import SolverDiverged, _releasing

MESSAGE = "residual 1.000e+00 above tol 1.0e-10 after 3 iterations"


def _deepest():
    block = bytearray(1 << 20)
    raise KeyError(len(block))


def _entry(cause):
    """Raises with two KeyErrors behind it: its context, and its cause if
    cause is set, each from a frame holding 1 MiB."""
    block = bytearray(1 << 20)
    try:
        _deepest()
    except KeyError as err:
        earlier = err
    try:
        _deepest()
    except KeyError:
        raise SolverDiverged(MESSAGE) from (earlier if cause else None)
    return block


@pytest.mark.parametrize("cause", [True, False], ids=["cause", "context"])
def test_failure_keeps_no_locals_along_its_chain(keeps_no_arrays, cause):
    setup = lambda grid: (_releasing(_entry), cause)
    (err,) = keeps_no_arrays(setup, SolverDiverged, sizes=(32,))
    assert str(err) == MESSAGE
    assert isinstance(err.__context__, KeyError)
    assert isinstance(err.__cause__, KeyError) if cause else err.__cause__ is None
    assert err.__cause__ is not err.__context__
    with pytest.raises(AssertionError):  # unwrapped, it keeps its blocks
        keeps_no_arrays(lambda grid: (_entry, cause), SolverDiverged, sizes=(32,))


def test_success_and_identity_pass_through():
    def add(x, y=1):
        return x + y

    entry = _releasing(add)
    assert entry(1, y=2) == 3
    assert (entry.__name__, entry.__module__, entry.__wrapped__) == ("add", __name__, add)
