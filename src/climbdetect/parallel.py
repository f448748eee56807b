"""Independent work spread over the CPUs of the process's affinity mask.

`fork_map` runs ``fn`` over a command's items, such as its recordings or
its sites, in forked worker processes and in the calling process, and
returns what the serial loop returns: the results in item order, the
warnings the items issue in item order, and the first exception in item
order. A worker inherits the caller's memory, so items are not sent to it;
it sends its results back pickled through a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings

# The least work, in samples, that a forked worker is given. On a 2-CPU
# Xeon VM, forking a 100 MB process, exiting and reaping it takes about
# 9.4 ms, and the first 32 ms of work after it run about 4 ms slower from
# copy-on-write faults: about 13 ms, the time to read and filter about 1,700
# samples at 7.5 us each.
MIN_SHARE = 2000

# Set in a worker, which runs nested maps in-process.
_in_worker = False


def fork_map(fn, items, sizes) -> list:
    """``[fn(*item) for item in items]``, the items shared among forked workers.

    ``sizes[i]`` is the work of ``items[i]`` in samples. The process forks
    one worker fewer than it has CPUs, at most one per item, and fewer
    until each worker's share of the sizes is at least `MIN_SHARE`; the
    calling process takes the largest share. Without ``os.fork`` or
    ``os.sched_getaffinity``, with one CPU, beside other threads or inside
    a worker, the items run in-process, as does a share whose worker
    cannot be forked. Warnings the items issue are shown
    in item order, after every worker is done, and the first exception in
    item order is raised; items after it in their worker do not run.
    """
    items = list(items)
    shares = _shares(list(sizes))
    if len(shares) == 1:
        return [fn(*item) for item in items]
    own, children, received = shares[0], [], None
    try:
        for share in shares[1:]:
            child = _fork(fn, items, share, children)
            if child is None:  # no process to be had: the caller runs the share
                own = sorted(own + share)
            else:
                children.append(child)
        done = _run(fn, items, own)
        received = [stream.read() for _, stream in children]
    finally:
        statuses = []
        for pid, stream in children:
            stream.close()
            if received is None:  # the caller is leaving by an exception
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), data, status in zip(children, received, statuses):
        if status != 0:
            raise ChildProcessError(f"worker process {pid} ended with exit code "
                                    f"{os.waitstatus_to_exitcode(status)} before "
                                    "sending its results")
        done += pickle.loads(data)
    results = []
    for _, result, caught, error in sorted(done, key=lambda outcome: outcome[0]):
        for message in caught:
            warnings.showwarning(*message)
        if error is not None:
            raise error
        results.append(result)
    return results


def _shares(sizes: list) -> list[list[int]]:
    """The item indices of each process, the largest share first, for the
    caller: each item, the largest first, goes to the share with the least
    work so far."""
    cpus = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and not _in_worker
            and threading.active_count() == 1):  # forking beside threads can deadlock
        cpus = len(os.sched_getaffinity(0))
    for count in range(min(cpus, len(sizes)), 1, -1):
        loads, shares = [0] * count, [[] for _ in range(count)]
        for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
            least = loads.index(min(loads))
            shares[least].append(i)
            loads[least] += sizes[i]
        if min(loads) >= MIN_SHARE:  # the least is a worker's
            return [sorted(shares[k]) for k in sorted(range(count), key=lambda k: -loads[k])]
    return [list(range(len(sizes)))]


def _fork(fn, items, share, children):
    """(pid, pipe to read its results from) of a worker that runs ``share``,
    or None when no process can be forked."""
    global _in_worker
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, open(read_end, "rb")
    code = 1
    try:
        _in_worker = True
        os.close(read_end)
        for _, stream in children:  # so that a worker sees its reader leave
            stream.close()
        data = _pickled(_run(fn, items, share))
        with open(write_end, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)  # never back into the caller's code, nor its exit handlers


def _run(fn, items, share) -> list[tuple]:
    """(index, result, warnings shown, exception) of each item of ``share`` in
    turn, up to the first that raises; warnings pass the filters as usual."""
    done = []
    with warnings.catch_warnings(record=True) as caught:
        for i in share:
            seen = len(caught)
            try:
                result, error = fn(*items[i]), None
            except Exception as exc:  # raised by the caller, in item order
                result, error = None, exc
            done.append((i, result, [(w.message, w.category, w.filename, w.lineno)
                                     for w in caught[seen:]], error))
            if error is not None:
                break
    return done


def _pickled(done: list[tuple]) -> bytes:
    """``done`` pickled; an exception that does not survive pickling becomes
    a RuntimeError that names its type."""
    i, result, caught, error = done[-1]
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            kind = type(error)
            done[-1] = i, result, caught, RuntimeError(
                f"{kind.__module__}.{kind.__qualname__} in a worker process: {error}")
    return pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
