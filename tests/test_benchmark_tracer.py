"""The benchmark's layer tracer (perfbench/tracing.py) patches fuchswave
functions and methods by name; a traced benchmark run crashes on a name that
was renamed or deleted.  Installing and uninstalling it here makes such a
change fail the test suite instead."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_finds_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer("guard")
    try:
        tracer.install()
    finally:
        restored = tracer.uninstall()
    assert restored > 0


def test_benchmark_tracer_counts_the_q_quadrature(monkeypatch):
    # the tracer reads Q_k's quadrature nodes off DiagonalizationStage.q_generator
    # calls made inside diagonalize.q_propagator; a q_propagator that stopped
    # calling the method would read as 0 nodes without this check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from fuchswave import diagonalize
    from fuchswave.coeffs import example_bounded
    from fuchswave.zones import ZoneConfig

    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    stage = diagonalize.build_stage(model, 2, ZoneConfig(N=1.0))
    s, t, xi = 0.0, 10.0, 2.0
    # 16 nodes a panel; panels span at most 4 rad of 2 xi tau within the
    # segments [0, 1], [1, 3], [3, 7] and [7, 10], where 1 + tau at most doubles
    n_grid = 16 * (1 + 2 + 4 + 3)
    tracer = Tracer("q_nodes")
    try:
        tracer.install()
        res = diagonalize.q_propagator(stage, s, t, xi)
    finally:
        tracer.uninstall()
    assert res.path == "series"
    assert tracer.q_nodes == [n_grid]
    assert tracer.counts["diagonalize.DiagonalizationStage.q_generator"] >= 1
    metrics = tracer.layer_metrics()
    assert metrics["diagonalize.q_nodes"] == n_grid
    assert metrics["diagonalize.symbol_s"] > 0.0


def test_benchmark_tracer_counts_the_q_fallback_as_diagonalize(monkeypatch):
    # diagonalize.solve_ivp is modal's driver, imported by name; the tracer
    # wraps that name, so the Q_k ODE fallback's right-hand-side calls count
    # as diagonalize's, and modal's solve count stays 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from fuchswave import diagonalize
    from fuchswave.coeffs import example_bounded
    from fuchswave.zones import ZoneConfig

    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    stage = diagonalize.build_stage(model, 2, ZoneConfig(N=1.0))
    tracer = Tracer("q_fallback")
    try:
        tracer.install()
        res = diagonalize.q_propagator(stage, 0.0, 10.0, 2.0, max_grid=10)
    finally:
        tracer.uninstall()
    assert res.path == "ode"
    metrics = tracer.layer_metrics()
    assert metrics["diagonalize.ode_rhs_calls"] > 0
    assert metrics["modal.ivp_calls"] == 0
