import gc
import tracemalloc

import pytest

from conflictlab.model import make_grid


@pytest.fixture(scope="session")
def g256():
    return make_grid(256)


@pytest.fixture(scope="session")
def g1024():
    return make_grid(1024)


@pytest.fixture(scope="session")
def g4096():
    return make_grid(4096)


def _failure(call, exc):
    try:
        call()
    except exc as err:
        return err
    raise AssertionError(f"{exc.__name__} not raised")


def _kept_bytes(call, exc):
    """The bytes that a held failure of call keeps allocated after
    gc.collect(), under tracemalloc, after one failure to warm caches;
    with the failure."""
    _failure(call, exc)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        err = _failure(call, exc)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, err
    finally:
        tracemalloc.stop()


@pytest.fixture
def keeps_no_arrays():
    """keeps_no_arrays(setup, exc, sizes=(1024, 8192)): setup(grid) returns
    an entry and the arguments of a call that must raise exc, for a grid of
    each size.  Asserts that the held failure keeps under 16 KB allocated
    (a 1024-cell array is 8 KB, an 8192-cell one 64 KB), and at no size
    1 KB more than at the first; returns the failures."""

    def check(setup, exc, sizes=(1024, 8192)):
        kept, errs = {}, []
        for n in sizes:
            entry, *args = setup(make_grid(n))
            kept[n], err = _kept_bytes(lambda: entry(*args), exc)
            errs.append(err)
        assert max(kept.values()) < 16 * 1024, kept
        assert max(kept.values()) < kept[sizes[0]] + 1024, kept
        return errs

    return check
