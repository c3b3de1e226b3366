"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured quantities and asserting the stated tolerance and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import json
import math
import time

import numpy as np
import pytest

from fuchswave.cli import run_cli
from fuchswave.coeffs import (PURE, CoefficientModel, classify_regime,
                              example_bounded, example_log)
from fuchswave.diagonalize import build_stage, free_phase, q_propagator
from fuchswave.estimates import (DataSpec, fit_decay, grid_for_data,
                                 improved_u_bound, radial_grid,
                                 scattering_residual, sharpness_limit)
from fuchswave.experiments import ExperimentConfig, run_experiment
from fuchswave.modal import (propagator_label, scale_invariant_norm_traces,
                             spectral_norm)
from fuchswave.zones import ZoneConfig, theta

CFG = ZoneConfig(N=1.0)
EX31 = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5, ell=6)

EIGHT_CELLS = [(1.0, 1.0), (1.0, 0.01), (2.0, 0.75), (2.0, 2.0),
               (3.0, 0.0), (4.0, 0.0), (2.0, 0.25), (0.0, 5.0)]

_SUITE_START = time.perf_counter()


def _report(criterion, ok, detail, elapsed, budget):
    line = (f"ACCEPT {criterion:>2}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:6.1f}s / budget {budget:.0f}s] {detail}")
    print(line)
    return line


def test_criterion_01_regime_classifier():
    start = time.perf_counter()
    ok = True
    for b0, m0 in EIGHT_CELLS:
        cls = classify_regime(b0, m0)
        half = -(b0 + 1.0) / 2.0
        disc = (b0 - 1.0) ** 2 / 4.0 - m0
        root = math.sqrt(disc) if disc >= 0 else 1j * math.sqrt(-disc)
        ok &= abs(cls.mu_plus - (half + root)) <= 1e-12
        ok &= abs(cls.mu_minus - (half - root)) <= 1e-12
        if 4 * m0 > (b0 - 1) ** 2:
            ok &= cls.case == "complex_pair"
        elif 4 * m0 == (b0 - 1) ** 2:
            ok &= cls.case == "double_root"
        elif 4 * m0 >= b0 * (b0 - 2):
            ok &= cls.case == "real_small_muplus"
        else:
            ok &= cls.case == "real_large_muplus"
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0, f"8 cells vs hand arithmetic at 1e-12",
            elapsed, 1)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_dissipative_zone_rate():
    start = time.perf_counter()
    cells = [c for c in EIGHT_CELLS if 4 * c[1] != (c[0] - 1.0) ** 2]
    rows = []
    ok = True
    for xi in (1e-3, 1e-4):
        th = theta(CFG, xi)
        times = np.geomspace(1e2, th, 120)
        norms = scale_invariant_norm_traces(cells, CFG, xi, times, rtol=1e-10)
        for j, (b0, m0) in enumerate(cells):
            target = classify_regime(b0, m0).mu_plus.real
            fit = fit_decay(times, norms[:, j], (1e2, th), target, tol=0.05)
            rows.append((b0, m0, xi, fit.exponent, target, fit.verdict))
            ok &= fit.verdict
    elapsed = time.perf_counter() - start
    detail = "; ".join(f"({r[0]:g},{r[1]:g})@{r[2]:g}: {r[3]:+.3f} vs {r[4]:+.2f}"
                       f" {'ok' if r[5] else 'FAIL'}" for r in rows)
    _report(2, ok and elapsed < 120.0, detail, elapsed, 120)
    assert elapsed < 120.0
    # Known spec-level calibration defect for slowly oscillating complex
    # pairs: the finite-window log-log fit of the oscillating matrix norm is
    # biased by up to ~0.3 although the exponent bound itself is correct.
    # The criterion is asserted as stated; see ROADMAP Open item 5.
    assert ok, "slow complex-pair oscillation exceeds the stated tolerance"


def test_criterion_03_hyperbolic_zone_rate():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for xi in (2.0 * CFG.N, 8.0 * CFG.N):
        times = np.geomspace(1e2, 1e4, 120)
        norms = scale_invariant_norm_traces(EIGHT_CELLS, CFG, xi, times,
                                            rtol=1e-9)
        for j, (b0, m0) in enumerate(EIGHT_CELLS):
            fit = fit_decay(times, norms[:, j], (1e2, 1e4), -b0 / 2.0, tol=0.05)
            worst = max(worst, abs(fit.exponent - fit.predicted))
            ok &= fit.verdict
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 120.0,
            f"8 cells x {{2N, 8N}}, worst |fit - (-b0/2)| = {worst:.4f}; "
            f"{propagator_label(PURE)}",
            elapsed, 120)
    assert ok
    assert elapsed < 120.0


def test_criterion_04_and_05_representation_identity():
    # the `fuchswave repcheck` run: EX31, N = 1, steps 2, seed 20240901
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="repcheck", model=EX31, zone=CFG, steps=2,
                           seed=20240901)
    record = run_experiment(cfg)
    worst_rel = record.outputs["worst_rel_error"]
    (name, _, rows), = record.traces
    assert name == "repcheck_points" and len(rows) == 20
    stage = build_stage(EX31, 2, CFG)
    det_ok = True
    unit_ok = True
    for s, t, xi, _ in rows:
        q = q_propagator(stage, s, t, xi)
        det_ok &= abs(np.linalg.det(q.matrix)) >= math.exp(-2.0 * q.C_total) - 1e-12
        E0 = free_phase(t, s, xi)
        unit_ok &= spectral_norm(E0 @ E0.conj().T - np.eye(2)) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(4, record.all_pass and worst_rel <= 1e-6 and elapsed < 60.0,
            f"repcheck's 20 random points, worst rel error {worst_rel:.2e}", elapsed, 60)
    _report(5, det_ok and unit_ok,
            "det Q >= exp(-2 C_total) and unitary phase factor on all points",
            elapsed, 60)
    assert record.verdicts == {"representation_identity": True}
    assert worst_rel <= 1e-6
    assert det_ok and unit_ok
    assert elapsed < 60.0


def test_criterion_06_levinson_solver():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="levinson", model=CoefficientModel(b0=3.0, m0=0.0),
                           zone=ZoneConfig(N=0.01), xi=1e-4)
    record = run_experiment(cfg)
    ok = record.all_pass
    elapsed = time.perf_counter() - start
    out = record.outputs
    _report(6, ok and elapsed < 30.0,
            f"residuals at theta/2: {out['residual_k0']:.2e}, {out['residual_k1']:.2e} "
            f"<= 0.01; Picard rate within contraction bound", elapsed, 30)
    assert ok
    assert elapsed < 30.0


def test_criterion_07_hartman_wintner():
    start = time.perf_counter()
    # the `fuchswave hw` defaults: xi = 1e-6, N = 1, horizon 4 t_final = 4e4
    model = example_log(3.0, 0.5, b1=0.5, m1=0.5, gamma=1.0, sigma=1.5)
    cfg = ExperimentConfig(experiment="hw", model=model, zone=CFG, xi=1e-6, t_final=1e4)
    record = run_experiment(cfg)
    (name, _, rows), = record.traces
    assert name == "hw_transform_norm"
    ts, norms = np.asarray(rows).T
    # diag(N) vanishes at t = 10, 100, 1000; ||N|| strictly decreasing over
    # the decades [1e2, 1e3), [1e3, 1e4) and end to end past t = 1e2
    tail_norms = norms[ts >= 1e2]
    dec_max = [norms[(ts >= lo) & (ts < lo * 10)].max() for lo in (1e2, 1e3)]
    decreasing = dec_max[0] > dec_max[1] and tail_norms[-1] < tail_norms[0]
    out = record.outputs
    ok = record.all_pass and decreasing
    elapsed = time.perf_counter() - start
    _report(7, ok and elapsed < 60.0,
            f"diag(N) {'= 0.0' if record.verdicts['diag_zero'] else '!= 0'}, "
            f"||N|| decreasing, "
            f"transformed tail {out['l1_tail']:.4f} <= 10% of sigma-tail "
            f"{out['sigma_tail']:.4f}", elapsed, 60)
    assert record.verdicts == {"diag_zero": True, "norm_decreasing": True,
                               "tail_reduction": True}
    assert decreasing
    assert elapsed < 60.0


def test_criterion_08_energy_sharpness():
    start = time.perf_counter()
    data = DataSpec(kind="ring", center=2.0, width=0.8, amp0=1.0, amp1=0.7)
    grid = grid_for_data(data, lo=1.05, hi=8.0, n_points=48, n_refine=160)
    rep = sharpness_limit(EX31, CFG, data, grid, horizon=1e4, n_dim=1,
                          rtol=1e-9)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.variation < 0.01 and rep.limit > 0.0
    _report(8, ok and elapsed < 120.0,
            f"lam^2 (grad^2 + ut^2): variation {rep.variation:.3%} over "
            f"[1e3, 1e4], limit {rep.limit:.4f} > 0", elapsed, 120)
    assert ok
    assert elapsed < 120.0


def test_criterion_09_moment_improvement():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="moments", model=CoefficientModel(b0=4.0, m0=0.0),
                           zone=CFG, n_dim=1, t_final=1e4, rtol=1e-9)
    record = run_experiment(cfg)
    out = record.outputs
    ok = record.all_pass and math.isfinite(out["weighted_integral"])
    elapsed = time.perf_counter() - start
    _report(9, ok and elapsed < 120.0,
            f"generic {out['generic_fit']:+.3f} vs -1, moment "
            f"{out['moment_fit']:+.3f} vs -2 (zero order "
            f"{out['zero_order']}); {record.propagator}",
            elapsed, 120)
    assert ok
    assert elapsed < 120.0


def test_criterion_10_modified_scattering():
    start = time.perf_counter()
    data = DataSpec(kind="ring", center=0.6, width=0.5, amp0=1.0, amp1=0.7)
    grid = grid_for_data(data, lo=0.05, hi=2.0, n_points=48, n_refine=120)
    res = scattering_residual(EX31, CFG, data, grid, horizon=1e4, rtol=1e-8)
    free = CoefficientModel(b0=0.0, m0=0.0)
    res0 = scattering_residual(free, CFG, data, grid, horizon=1e4, rtol=1e-8)
    data_scale = res0.residual_dt[0] + 1.0  # free residuals are pure noise
    zero_ok = (res0.residual_dt.max() < 1e-5
               and res0.residual_grad.max() < 1e-5)
    ok = res.passed and zero_ok
    elapsed = time.perf_counter() - start
    _report(10, ok and elapsed < 120.0,
            f"residual_dt {res.residual_dt[0]:.2e} -> {res.residual_dt[-1]:.2e}, "
            f"residual_grad {res.residual_grad[0]:.2e} -> "
            f"{res.residual_grad[-1]:.2e}; free case at noise floor", elapsed, 120)
    assert res.passed
    assert zero_ok
    assert elapsed < 120.0


def test_criterion_11_improved_solution_bound():
    start = time.perf_counter()
    model = CoefficientModel(b0=2.0, m0=2.0)
    data = DataSpec(kind="gaussian", width=1.0, amp0=1.0, amp1=0.5)
    grid = radial_grid(1e-4, 6.0, 160)
    fit = improved_u_bound(model, CFG, data, grid, n_dim=1, window=(1e2, 1e4),
                           rtol=1e-9)
    elapsed = time.perf_counter() - start
    ok = fit.verdict and fit.exponent <= -0.45
    _report(11, ok and elapsed < 60.0,
            f"||u|| exponent {fit.exponent:+.3f} <= 1 + Re mu+ + 0.05 = -0.45; "
            f"{propagator_label(model.family)}",
            elapsed, 60)
    assert ok
    assert elapsed < 60.0


def test_criterion_12_end_to_end_sweep(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    verdicts = manifest["verdicts"]
    elapsed = time.perf_counter() - start
    total = time.perf_counter() - _SUITE_START
    ok = code == 0 and len(verdicts) == 4 and all(verdicts.values())
    _report(12, ok and total < 900.0,
            f"sweep exit {code}, {sum(verdicts.values())}/4 rows pass; "
            f"suite wall time {total:.0f}s < 900s", elapsed, 900)
    assert ok
    assert total < 900.0
