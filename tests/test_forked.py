import os
import sys
import time

import pytest

from evoadapt.forked import ChildDied, split_map

from conftest import assert_no_child_left


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_results_come_back_in_item_order(deadline, n):
    assert split_map(lambda x: x * x, list(range(n))) == [x * x for x in range(n)]
    assert_no_child_left()


def test_odd_indexed_items_run_in_one_child(deadline):
    pids = split_map(lambda _: os.getpid(), list(range(6)))
    assert pids[0::2] == [os.getpid()] * 3
    assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()
    assert_no_child_left()


class Planted(Exception):
    pass


def failing_at(indices):
    def fn(i):
        if i in indices:
            raise (Planted if i % 2 else ValueError)(f"task {i} failed")
        return i
    return fn


def serial_error(fn, items):
    try:
        [fn(item) for item in items]
    except Exception as exc:
        return type(exc), exc.args
    raise AssertionError("no planted failure")


@pytest.mark.parametrize("indices", [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1}, {4}, {3, 5, 6}])
def test_the_lowest_failing_index_wins(deadline, indices):
    fn, items = failing_at(indices), list(range(8))
    with pytest.raises(Exception) as caught:
        split_map(fn, items)
    assert (type(caught.value), caught.value.args) == serial_error(fn, items)
    assert_no_child_left()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="exception notes need Python 3.11")
def test_a_child_exception_carries_the_child_traceback(deadline):
    with pytest.raises(Planted, match="^task 1 failed") as caught:
        split_map(failing_at({1}), [0, 1])
    note, = caught.value.__notes__
    assert note.startswith("raised by task 1 in the forked child:\nTraceback")
    assert "in fn" in note


class TwoArgs(Exception):
    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def test_an_exception_that_does_not_unpickle_arrives_by_name(deadline):
    def fn(i):
        if i == 1:
            raise TwoArgs("no way back", 7)
        return i

    with pytest.raises(RuntimeError, match="^TwoArgs: no way back"):
        split_map(fn, [0, 1])
    assert_no_child_left()


def test_a_child_that_dies_raises_child_died(deadline):
    def fn(i):
        if i == 3:
            os._exit(3)
        return i

    with pytest.raises(ChildDied, match="no result for task 3 and exited with status 3$"):
        split_map(fn, list(range(6)))
    assert_no_child_left()


@pytest.mark.parametrize("error", [KeyboardInterrupt(), ValueError("parent failed")],
                         ids=["interrupt", "failure"])
def test_the_parent_stops_and_kills_a_child_whose_results_no_longer_matter(deadline, error):
    """Task 2 raises here while the child sleeps in task 3: nothing the child
    has not sent can change the outcome, so the child is killed."""
    def fn(i):
        if i == 2:
            raise error
        if i == 3:
            time.sleep(30)
        return i

    start = time.monotonic()
    with pytest.raises(type(error)):
        split_map(fn, list(range(6)))
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_the_parent_waits_for_child_results_below_its_failure(deadline):
    def fn(i):
        if i == 1:
            time.sleep(0.2)
            raise Planted("task 1 failed")
        if i == 4:
            raise ValueError("task 4 failed")
        return i

    with pytest.raises(Planted, match="^task 1 failed"):
        split_map(fn, list(range(6)))
    assert_no_child_left()
