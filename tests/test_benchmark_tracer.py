"""The benchmark's layer tracer (perfbench/tracing.py) patches fuchswave
functions and methods by name; a traced benchmark run crashes on a name that
was renamed or deleted.  Installing and uninstalling it here makes such a
change fail the test suite instead."""

from pathlib import Path

import numpy as np

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


def test_benchmark_tracer_counts_refined_q_panels_as_quadrature_nodes(monkeypatch):
    # the bound summed over this span's 16-node panels exceeds q_propagator's
    # target, so it splits the panels where the generator is large and
    # samples them again; every sampled node counts, and no ODE solve runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from fuchswave import diagonalize
    from fuchswave.coeffs import example_bounded
    from fuchswave.zones import ZoneConfig

    model = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    stage = diagonalize.build_stage(model, 2, ZoneConfig(N=1.0))
    s, t, xi = 0.0, 100.0, 1.5
    sampled, q_generator = [], diagonalize.DiagonalizationStage.q_generator

    def recorded(self, taus, xi):
        sampled.append(np.size(taus))
        return q_generator(self, taus, xi)

    monkeypatch.setattr(diagonalize.DiagonalizationStage, "q_generator", recorded)
    tracer = Tracer("q_refined")
    try:
        tracer.install()
        res = diagonalize.q_propagator(stage, s, t, xi)
    finally:
        tracer.uninstall()
    assert res.path == "series"
    assert res.tail_bound <= 1e-11
    metrics = tracer.layer_metrics()
    assert metrics["diagonalize.ode_rhs_calls"] == 0
    assert metrics["modal.ivp_calls"] == 0
    assert metrics["diagonalize.q_nodes"] == sum(sampled)
    assert sum(sampled) > 16 * diagonalize._panel_layout(s, t, xi)[0].size
