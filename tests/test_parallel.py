import os
import threading
import warnings

import pytest

from climbdetect import parallel


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square_and_pid(x):
    return x * x, os.getpid()


def test_results_in_item_order(forking):
    items = [(x,) for x in range(7)]
    got = parallel.fork_map(square_and_pid, items, [1, 5, 2, 8, 3, 1, 4])
    assert [square for square, _ in got] == [x * x for x in range(7)]
    # the caller and two workers each ran a share
    assert len({pid for _, pid in got}) == 3 and got[3][1] == os.getpid()
    assert_no_child()


def fail_at(x, failing):
    if x in failing:
        raise ValueError(f"item {x} failed")
    return x


@pytest.mark.parametrize("failing", [{1, 4}, {4, 5}, {0}, {6}])
def test_first_exception_in_item_order(forking, failing):
    items = [(x, failing) for x in range(7)]
    with pytest.raises(ValueError) as serial:
        [fail_at(*item) for item in items]
    with pytest.raises(ValueError) as forked:
        parallel.fork_map(fail_at, items, [1] * 7)
    assert str(forked.value) == str(serial.value) == f"item {min(failing)} failed"
    assert_no_child()


def warn_and_fail(x):
    warnings.warn(f"item {x}")
    if x == 4:
        raise KeyError(x)
    return x


@pytest.mark.filterwarnings("default::UserWarning")
def test_warnings_in_item_order_up_to_the_first_exception(forking):
    shown = []
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: shown.append(str(message))
        with pytest.raises(KeyError):
            parallel.fork_map(warn_and_fail, [(x,) for x in range(7)], [1] * 7)
    # the serial loop warns for items 0 to 4 and stops at 4
    assert shown == [f"item {x}" for x in range(5)]
    assert_no_child()


class TwoArgumentError(Exception):
    """Pickles, but unpickling calls it with one argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_unpicklable(x, kind):
    if x == 1:
        if kind == "local":
            class LocalError(Exception):
                pass
            raise LocalError("not importable")
        raise TwoArgumentError("one", "two")
    return x


@pytest.mark.parametrize("kind, name", [("local", "LocalError"),
                                        ("two arguments", "TwoArgumentError")])
def test_unpicklable_exception_names_its_type(forking, kind, name):
    with pytest.raises(RuntimeError, match=rf"\.{name} in a worker process: "):
        # item 1 is the smaller: a worker runs it
        parallel.fork_map(raise_unpicklable, [(0, kind), (1, kind)], [2, 1])
    assert_no_child()


def exit_in_worker(x, parent):
    if os.getpid() != parent:
        os._exit(3)
    return x


def test_a_worker_that_dies_is_reported(forking):
    with pytest.raises(ChildProcessError, match="exit code 3 before sending its results"):
        parallel.fork_map(exit_in_worker, [(0, os.getpid()), (1, os.getpid())], [2, 1])
    assert_no_child()


def never_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("cpus, sizes", [
    ({0}, [10 ** 6] * 5),                  # one CPU
    ({0, 1}, [parallel.MIN_SHARE - 1] * 3),  # a worker's share would be too small
    ({0, 1, 2, 3}, [10 ** 6]),             # one item
])
def test_no_fork_without_cpus_or_work(monkeypatch, cpus, sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", never_fork)
    items = [(x,) for x in range(len(sizes))]
    assert parallel.fork_map(square_and_pid, items, sizes) == [
        (x * x, os.getpid()) for x in range(len(sizes))]


def test_no_fork_inside_a_worker_or_beside_threads(forking, monkeypatch):
    monkeypatch.setattr(os, "fork", never_fork)
    items, sizes = [(x,) for x in range(4)], [1] * 4
    monkeypatch.setattr(parallel, "_in_worker", True)
    assert [square for square, _ in parallel.fork_map(square_and_pid, items, sizes)] == [
        0, 1, 4, 9]
    monkeypatch.setattr(parallel, "_in_worker", False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert parallel.fork_map(square_and_pid, items, sizes) == [
            (x * x, os.getpid()) for x in range(4)]
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def test_fork_failure_runs_the_share_in_process(forking, monkeypatch):
    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert parallel.fork_map(square_and_pid, [(x,) for x in range(5)], [1] * 5) == [
        (x * x, os.getpid()) for x in range(5)]


def nested(x):
    # a worker maps in-process
    return parallel.fork_map(square_and_pid, [(x,), (x + 1,)], [1, 1])


def test_workers_map_in_process(forking):
    got = parallel.fork_map(nested, [(0,), (10,)], [1, 1])
    assert [[square for square, _ in pair] for pair in got] == [[0, 1], [100, 121]]
    assert got[1][0][1] == got[1][1][1] != os.getpid()
    assert_no_child()


def test_worker_count_follows_the_shares(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    share = parallel.MIN_SHARE
    # the caller takes the largest share; each worker needs MIN_SHARE
    assert parallel._shares([share] * 3) == [[0], [1], [2]]
    assert parallel._shares([share, share, share - 1]) == [[0, 2], [1]]
    assert parallel._shares([share - 1] * 2) == [[0, 1]]
    # the two smaller items make the larger share, so the worker would get one
    assert parallel._shares([share // 2, share // 2 + 1, share // 2 + 2]) == [[0, 1, 2]]
    assert parallel._shares([share // 2 + 2, share // 2, share // 2 + 1]) == [[0, 1, 2]]
    assert parallel._shares([share, share * 3 // 4, share * 3 // 4]) == [[1, 2], [0]]
