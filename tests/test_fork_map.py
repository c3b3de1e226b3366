"""experiments._fork_map, the map that spreads repcheck's points over this
process and one forked child per further usable CPU: the same results and
the same first error as a serial run, and no child left behind."""

import os
import threading
import time

import pytest

from fuchswave.errors import StiffnessError
from fuchswave.experiments import ExperimentConfig, _fork_map, persist, run_experiment

MAIN_PID = os.getpid()


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the host has; returns the pids forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def in_child():
    return os.getpid() != MAIN_PID


def test_repcheck_writes_the_same_bytes_on_one_process_and_on_two(tmp_path, two_cpus,
                                                                  monkeypatch):
    cfg = ExperimentConfig.from_dict({"experiment": "repcheck", "zone": {"N": 0.1},
                                      "steps": 1})
    persist(run_experiment(cfg), tmp_path / "two")
    assert len(two_cpus) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    persist(run_experiment(cfg), tmp_path / "one")
    assert len(two_cpus) == 1
    files = sorted(p.name for p in (tmp_path / "one").iterdir() if p.name != "runinfo.json")
    assert len(files) == 2
    for name in files:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_the_lowest_index_error_reaches_the_caller_from_a_child(two_cpus):
    # costs deal items 0 and 2 to the child, 1 and 3 to this process; the
    # child fails at 2 and this process at 3, so a serial run raises item 2's error
    def fn(x):
        if x == 2 and in_child():
            raise StiffnessError("step size collapsed", t=12.5, xi=3.0)
        if x == 3:
            raise ValueError("a later item")
        return x

    with pytest.raises(StiffnessError) as info:
        _fork_map(fn, [0, 1, 2, 3], [1.0, 4.0, 3.0, 1.0])
    assert len(two_cpus) == 1
    assert type(info.value) is StiffnessError
    assert str(info.value) == "step size collapsed (t=12.5, xi=3.0)"
    assert (info.value.t, info.value.xi) == (12.5, 3.0)


def test_a_child_exception_that_does_not_pickle_arrives_as_its_repr(two_cpus):
    class Local(Exception):
        pass

    def fn(x):
        if in_child():
            raise Local("no module path")
        return x

    with pytest.raises(RuntimeError, match=r"Local\('no module path'\)"):
        _fork_map(fn, [0, 1], [1.0, 1.0])


def test_a_child_that_exits_without_a_result_is_an_error(two_cpus):
    def fn(x):
        if in_child():
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exit status 3 without a full result"):
        _fork_map(fn, [0, 1], [1.0, 1.0])


def test_an_interrupt_in_this_process_kills_the_children(two_cpus):
    def fn(x):
        if in_child():
            time.sleep(60.0)
        raise KeyboardInterrupt

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _fork_map(fn, [0, 1], [1.0, 1.0])
    assert time.perf_counter() - start < 10.0


def test_one_cpu_or_a_running_thread_maps_serially(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _fork_map(lambda x: x * x, [1, 2, 3], [1.0, 2.0, 3.0]) == [1, 4, 9]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _fork_map(lambda x: x * x, [1, 2, 3], [1.0, 2.0, 3.0]) == [1, 4, 9]
    finally:
        release.set()
        thread.join()
