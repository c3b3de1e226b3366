"""modal._fork_map, the map that spreads repcheck's points, the shares of
evolve_state's large solves and the time segments of
state_propagator_checkpoints over this process and one forked child per
further usable CPU: the same results and the same first error as a serial
run, and no child left behind.  Time segments are cut where one period
2 pi/xi_max has passed since the segment began, a rule of the checkpoints
and xi_max alone, and composed by the cocycle Phi(t,0) = Phi(t,tau)
Phi(tau,0), so scatter writes the same bytes on any CPU count; a span
shorter than one period, and a scale-invariant one, stays one solve."""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fuchswave
from fuchswave import modal
from fuchswave.cli import run_cli
from fuchswave.coeffs import CoefficientModel, example_bounded
from fuchswave.errors import StiffnessError
from fuchswave.experiments import ExperimentConfig, persist, run_experiment
from fuchswave.modal import _fork_map
from fuchswave.zones import ZoneConfig

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
    assert list(_fork_map(lambda x: x * x, [1, 2, 3], [1.0, 2.0, 3.0])) == [1, 4, 9]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert list(_fork_map(lambda x: x * x, [1, 2, 3], [1.0, 2.0, 3.0])) == [1, 4, 9]
    finally:
        release.set()
        thread.join()


def test_a_map_inside_a_share_runs_serially(two_cpus, tmp_path, monkeypatch):
    # every fork, in this process or in a forked one, adds a line to one file:
    # the two top-level shares fork once, and each share's nested map runs
    # in the one process that computes the share
    log, fork = tmp_path / "forks", os.fork

    def logged_fork():
        pid = fork()
        if pid:
            with open(log, "a") as fh:
                fh.write(f"{pid}\n")
        return pid

    monkeypatch.setattr(os, "fork", logged_fork)
    pids = _fork_map(lambda x: _fork_map(lambda y: os.getpid(), [0, 1], [1.0, 1.0]),
                     [0, 1], [1.0, 1.0])
    assert len(log.read_text().split()) == 1 and len(two_cpus) == 1
    assert [len(set(inner)) for inner in pids] == [1, 1]
    assert len({inner[0] for inner in pids}) == 2
    assert not modal._in_share


def test_a_forked_run_records_cpu_time_and_the_childrens_peak_rss(tmp_path):
    # in a fresh interpreter with two usable CPUs, repcheck forks one child;
    # runinfo.json records it beside the wall time, and the manifest not
    cfgfile, out = tmp_path / "repcheck.json", tmp_path / "out"
    cfgfile.write_text(json.dumps({"experiment": "repcheck", "zone": {"N": 0.1},
                                   "steps": 1}))
    script = ("import os, sys\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from fuchswave.cli import run_cli\n"
              f"sys.exit(run_cli(['repcheck', '--config', {str(cfgfile)!r}, "
              f"'--out', {str(out)!r}]))\n")
    src = str(Path(fuchswave.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    info = json.loads((out / "runinfo.json").read_text())
    assert info["children_peak_rss_mb"] > 0.0
    assert info["cpu_time_s"] > 0.0 and info["wall_time_s"] > 0.0
    manifest = (out / "manifest.json").read_text()
    assert "cpu_time" not in manifest and "peak_rss" not in manifest


# one octave band of 3,181 shells, (1.5, 2.5) on a 1-D box: one solve of
# more than 2 CALL_COMPONENTS modes, dealt into two interleaved shares
SPLIT_SIMULATE = {
    "experiment": "simulate",
    "model": {"family": "bounded_perturbation", "b0": 2.0, "m0": 0.75,
              "c1": 0.5, "p1": 0.5, "c2": 0.5, "p2": 0.5},
    "grid": {"n_dim": 1, "points_per_dim": 16384, "box_length": 20000.0},
    "data": {"kind": "ring", "center": 2.0, "width": 0.5, "amp0": 1.0, "amp1": 0.5},
    "times": {"t_final": 4.0, "checkpoints": 3},
}


def _persisted(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "runinfo.json"}


def test_a_split_simulate_writes_the_same_bytes_on_one_cpu_and_on_two(tmp_path, two_cpus,
                                                                      monkeypatch):
    cfg = ExperimentConfig.from_dict(SPLIT_SIMULATE)
    persist(run_experiment(cfg), tmp_path / "two")
    assert len(two_cpus) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    persist(run_experiment(cfg), tmp_path / "one")
    assert len(two_cpus) == 1
    two = _persisted(tmp_path / "two")
    assert len(two) == 2 and _persisted(tmp_path / "one") == two


def test_a_split_simulate_writes_the_same_bytes_beside_a_running_thread(tmp_path, two_cpus):
    cfg = ExperimentConfig.from_dict(SPLIT_SIMULATE)
    persist(run_experiment(cfg), tmp_path / "forked")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        persist(run_experiment(cfg), tmp_path / "threaded")
    finally:
        release.set()
        thread.join()
    assert len(two_cpus) == 1
    assert _persisted(tmp_path / "threaded") == _persisted(tmp_path / "forked")


def test_a_split_band_keeps_the_error_of_the_whole_solve(two_cpus):
    # 3,001 modes in one octave band, two shares, at simulate's rtol 1e-9, to
    # spectral2d's t = 150; 20 sampled shells against the single-system
    # oracle at rtol 1e-12.  The split solve deviates by at most 7.92e-8,
    # the whole band in one solve by 7.93e-8: both meet the one bound 1e-7
    bounded = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    xi, times = np.linspace(1.5, 2.5, 3001), np.geomspace(1.0, 150.0, 8)
    u, v = modal.evolve_state(bounded, xi, np.ones(xi.size), np.full(xi.size, 0.5), times,
                              rtol=1e-9)
    assert len(two_cpus) == 1
    worst = 0.0
    for j in np.linspace(0, xi.size - 1, 20).astype(int):
        system = modal.ModalSystem(bounded, ZoneConfig(N=1.0), xi[j], modal.FORM_HYP)
        E = modal.propagator_checkpoints(system, 0.0, times, rtol=1e-12)
        # E = T Phi T^-1, T = diag(xi, -i); the state is Phi (1, 0.5)
        ref = np.column_stack((E[:, 0, 0] + 0.5 * E[:, 0, 1] / (1j * xi[j]),
                               1j * xi[j] * E[:, 1, 0] + 0.5 * E[:, 1, 1])).real
        got = np.column_stack((u[:, j].real, v[:, j].real))
        worst = max(worst, (np.linalg.norm(got - ref, axis=1)
                            / np.linalg.norm(ref, axis=1)).max())
    assert worst < 1e-7


def test_a_stiffness_error_in_a_share_reaches_the_caller_as_in_a_serial_run(two_cpus,
                                                                           monkeypatch):
    # m = -1/(2-t)^4 blows every mode up at t = 2.  Of 3,000 modes in two
    # shares, share 1 holds the top frequency, costs more and runs here; share
    # 0 runs in the child, and its error, the one a serial run raises, names
    # its own top frequency
    blowup = SimpleNamespace(family="blowup", b0=0.0, m0=0.0,
                             kernel=lambda: lambda t: (0.0, -1.0 / (2.0 - t) ** 4))
    xi = np.linspace(1.5, 2.5, 3000)
    errors = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with pytest.raises(StiffnessError) as info, np.errstate(invalid="ignore"):
            modal.evolve_state(blowup, xi, np.ones(xi.size), np.zeros(xi.size), [1.0, 3.0])
        errors.append((type(info.value), info.value.t, info.value.xi))
    assert len(two_cpus) == 1
    assert errors[0] == errors[1] == (StiffnessError, 1.0, xi[-2])


def test_a_split_solve_on_one_cpu_holds_one_share_at_a_time(monkeypatch):
    # 6,000 modes in one octave band, three shares of 2,000, on one CPU: each
    # share's (u, v) is copied into the output before the next share is
    # solved, so when a share's solve starts the traced memory exceeds that
    # at the first share's start by less than half of one share's result
    bounded = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    xi, times = np.linspace(1.5, 2.5, 6000), np.linspace(0.1, 1.0, 50)
    share_bytes = 2 * times.size * 2000 * 8
    started, solve_modes = [], modal._solve_modes

    def recorded(*args, **kwargs):
        started.append(tracemalloc.get_traced_memory()[0])
        return solve_modes(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(modal, "_solve_modes", recorded)
    tracemalloc.start()
    try:
        modal.evolve_state(bounded, xi, np.ones(xi.size), np.full(xi.size, 0.5), times)
    finally:
        tracemalloc.stop()
    assert len(started) == 3
    assert max(started) - started[0] < share_bytes / 2


def test_scatter_writes_the_same_bytes_on_one_cpu_on_two_and_beside_a_thread(tmp_path,
                                                                            two_cpus,
                                                                            monkeypatch):
    # scatter's fundamental matrices to t = 256 run as time segments: one
    # fork on two CPUs, none beside a running thread or on one CPU
    cfgfile = tmp_path / "scatter.json"
    cfgfile.write_text(json.dumps({"experiment": "scatter", "times": {"t_final": 64.0}}))

    def run(name):
        assert run_cli(["scatter", "--config", str(cfgfile),
                        "--out", str(tmp_path / name)]) == 0
        return _persisted(tmp_path / name)

    two = run("two")
    assert len(two_cpus) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        threaded = run("threaded")
    finally:
        release.set()
        thread.join()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run("one")
    assert len(two_cpus) == 1
    assert len(two) == 2 and threaded == two and one == two


def test_a_stiffness_error_in_a_later_time_segment_reaches_the_caller_as_in_a_serial_run(
        two_cpus, monkeypatch):
    # m = -1/(2-t)^4 blows every mode up at t = 2.  At xi_max = 8 the
    # checkpoints 1.5 and 2.5 make two time segments, [0, 1.5] and [1.5, 2.5];
    # the second, shorter, runs in the child and fails there, with the error
    # a serial run raises
    blowup = SimpleNamespace(family="blowup", b0=0.0, m0=0.0,
                             kernel=lambda: lambda t: (0.0, -1.0 / (2.0 - t) ** 4))
    xi, times = np.array([6.0, 7.0, 8.0]), [1.5, 2.5]
    assert [tau for tau, _ in modal._segments(np.array(times), xi.max())] == [0.0, 1.5]
    errors = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with pytest.raises(StiffnessError) as info, np.errstate(invalid="ignore"):
            modal.state_propagator_checkpoints(blowup, xi, times)
        errors.append((type(info.value), info.value.t, info.value.xi))
    assert len(two_cpus) == 1
    assert errors[0] == errors[1] == (StiffnessError, 1.5, 8.0)


@pytest.mark.parametrize("model, xi, t_end", [
    (CoefficientModel(b0=3.0, m0=0.0), 1e-5, 1e3),
    (CoefficientModel(b0=2.0, m0=0.75), 2.0, 1e3),
    (example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5), 0.5, 12.0)],
    ids=["sweep_pure", "pure_past_hankel", "bounded_within_a_period"])
def test_short_and_scale_invariant_spans_are_one_solve(model, xi, t_end, two_cpus,
                                                       monkeypatch):
    # a scale-invariant span, however many periods long (Hankel's expansion
    # carries it past z = xi (1+t) = Z_MATCH), and a span shorter than one
    # period 2 pi/xi (12.57 at xi = 0.5) are one DOP853 solve, and no fork
    solves, solve_ivp = [], modal.solve_ivp

    def recorded(*args, **kwargs):
        solves.append(args)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(modal, "solve_ivp", recorded)
    times = np.geomspace(1.0, 1.0 + t_end, 121)[1:] - 1.0
    modal.weighted_propagator(model, ZoneConfig(N=1.0), xi, times, rtol=1e-10)
    assert len(solves) == 1 and not two_cpus
