import os

import pytest

from climbdetect import parallel


@pytest.fixture
def forking(monkeypatch):
    """Three CPUs and no least share, so that every map of two items or more
    forks; the list of the calls to ``os.fork`` made in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(parallel, "MIN_SHARE", 1)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks
