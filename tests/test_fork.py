"""How stacked work is split: the row blocks of _fork._row_blocks, and the
errors and results crossing the fork: every library error pickles, and a
forked child's outcome reaches the caller of _fork._in_processes."""

import inspect
import os
import pickle

import pytest

from anisopriv import errors
from anisopriv._fork import _BLOCK_ROWS, _in_processes, _row_blocks, _usable_cpus
from anisopriv.errors import FieldErrors


def library_errors():
    """One instance of every exception class errors defines."""
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if cls.__module__ != errors.__name__ or not issubclass(cls, BaseException):
            continue
        if issubclass(cls, FieldErrors):
            yield cls([("lr", "must be positive"), ("batch", "must be >= 1")])
        elif issubclass(cls, errors.AnisoError):
            yield cls(f"{name} happened", operation="child_op")
        else:
            yield cls(f"{name} happened")


@pytest.mark.parametrize("error", library_errors(), ids=lambda e: type(e).__name__)
def test_every_error_pickles(error):
    back = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(error)
    assert str(back) == str(error)
    for attr in ("operation", "fields"):
        assert getattr(back, attr, None) == getattr(error, attr, None)


def test_library_errors_cover_the_module():
    assert {type(e).__name__ for e in library_errors()} >= {
        "AnisoError", "FieldErrors", "NotPositiveDefinite", "TrainingDivergedWarning"}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_in_child(error):
    def job():
        raise error
    return job


def test_child_field_errors_reach_the_caller():
    failed = FieldErrors([("lr", "must be positive")])
    with pytest.raises(FieldErrors) as info:
        _in_processes([lambda: 1, raise_in_child(failed)])
    assert info.value.fields == (("lr", "must be positive"),)
    assert str(info.value) == "lr: must be positive"
    assert_no_child_left()


class NeedsTwo(Exception):
    """Pickles, but does not unpickle: args holds one value, __init__ takes two."""

    def __init__(self, what, why):
        super().__init__(f"{what} because {why}")


def test_outcome_that_does_not_unpickle_names_its_type():
    with pytest.raises(RuntimeError, match="an exception of type NeedsTwo, which could not "
                                           "be unpickled: TypeError"):
        _in_processes([lambda: 1, raise_in_child(NeedsTwo("step", "nan"))])
    assert_no_child_left()
    assert _in_processes([lambda: 1, lambda: "two"]) == [1, "two"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_forked_job_may_run_on_every_usable_cpu():
    # the kernel places a child; it inherits the whole CPU set of this process
    here = os.sched_getaffinity(0)
    assert _in_processes([lambda: 1, lambda: os.sched_getaffinity(0)]) == [1, here]
    assert_no_child_left()
    assert _usable_cpus() == len(here)


@pytest.mark.parametrize("n, rows, n_blocks", [
    (1, 1, 1), (2048, 1, 1), (2049, 1, 2), (4097, 1, 3), (5000, 1, 3),
    (64, 32, 1), (64, 150, 5), (64, 200, 7), (3, 4096, 3),
])
def test_row_blocks_table(n, rows, n_blocks):
    # Euler paths at one row each, and runs of a batch of rows each
    blocks = _row_blocks(n, rows)
    assert len(blocks) == n_blocks
    assert [b.start for b in blocks] == [0, *(b.stop for b in blocks[:-1])]
    assert blocks[-1].stop == n
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert all(size * rows <= _BLOCK_ROWS or size == 1 for size in sizes)
