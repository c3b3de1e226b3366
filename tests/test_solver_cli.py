import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuchswave
from fuchswave import errors, experiments, modal
from fuchswave.cli import build_parser, run_cli
from fuchswave.coeffs import CoefficientModel
from fuchswave.errors import ConfigError, ResolutionError, StiffnessError
from fuchswave.estimates import DataSpec, energy_trace, grid_for_data
from fuchswave.experiments import (EXPERIMENTS, ExperimentConfig,
                                   ResultRecord, _IGNORED_KEYS, config_hash, persist,
                                   run_experiment)
from fuchswave.solver import Grid, simulate_fields
from fuchswave.zones import ZoneConfig

CFG = ZoneConfig(N=1.0)
FREE = CoefficientModel(b0=0.0, m0=0.0)

SIMULATE_CONFIG = {
    "model": {"b0": 0.0, "m0": 0.0},
    "grid": {"n_dim": 1, "points_per_dim": 512, "box_length": 200.0},
    "data": {"kind": "ring", "center": 1.0, "width": 0.5, "amp0": 1.0, "amp1": 0.0},
    "times": {"t_final": 10.0, "checkpoints": 6},
}

# cheap configs on top of the CLI defaults, one per experiment
CHEAP_CONFIGS = {
    "simulate": SIMULATE_CONFIG,
    "classify": {},
    "sweep": {"sweep_cells": [[3.0, 0.0, 1.0]], "xi": 1e-3,
              "times": {"t_final": 1000.0}},
    "scatter": {"times": {"t_final": 64.0}},
    "moments": {},
    "levinson": {},
    "hw": {"times": {"t_final": 1000.0}},
    "repcheck": {"zone": {"N": 0.1}, "steps": 1},
}


def fft_roundtrip_error(grid, seed=0):
    """Relative error of ifftn(fftn(field)) on a random field."""
    rng = np.random.default_rng(seed)
    shape = (grid.points_per_dim,) * grid.n_dim
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    back = np.fft.ifftn(np.fft.fftn(field))
    return float(np.linalg.norm((back - field).ravel()) / np.linalg.norm(field.ravel()))


def test_fft_round_trip():
    for grid in (Grid(1, 4096, 100.0), Grid(2, 64, 30.0), Grid(3, 16, 10.0)):
        assert fft_roundtrip_error(grid) < 1e-12


def physical_space_norms(model, grid, data_spec, times, rtol):
    """Reference for simulate_fields: every mode on the FFT mesh, an inverse
    FFT of u, u_t and each component of grad u per checkpoint, and Riemann
    sums of their squares over the box."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_dim, d=grid.box_length / grid.points_per_dim)
    axes = np.meshgrid(*([k] * grid.n_dim), indexing="ij")
    xi = np.sqrt(sum(a ** 2 for a in axes))
    uniq, inverse = np.unique(np.round(xi.ravel(), 12), return_inverse=True)
    prof = data_spec.profile(uniq)
    u_modes, v_modes = modal.evolve_state(model, uniq, data_spec.amp0 * prof,
                                          data_spec.amp1 * prof, times, rtol=rtol)
    scale = (grid.points_per_dim / grid.box_length) ** grid.n_dim
    dV = (grid.box_length / grid.points_per_dim) ** grid.n_dim
    cols = np.empty((4, times.size))
    for i, t in enumerate(times):
        u_hat = (u_modes[i][inverse] * scale).reshape(xi.shape)
        v_hat = (v_modes[i][inverse] * scale).reshape(xi.shape)
        u_sq = np.sum(np.abs(np.fft.ifftn(u_hat)) ** 2) * dV
        ut_sq = np.sum(np.abs(np.fft.ifftn(v_hat)) ** 2) * dV
        grad_sq = sum(np.sum(np.abs(np.fft.ifftn(1j * a * u_hat)) ** 2) * dV for a in axes)
        cols[:, i] = (np.sqrt(u_sq) / (1.0 + t), np.sqrt(grad_sq), np.sqrt(ut_sq),
                      0.5 * (grad_sq + ut_sq))
    return cols


@pytest.mark.parametrize("grid", [Grid(1, 256, 60.0), Grid(2, 32, 20.0), Grid(3, 16, 12.0)],
                         ids=["1d", "2d", "3d"])
def test_parseval_norms_match_physical_space_ffts(grid):
    model = CoefficientModel(family="bounded_perturbation", b0=2.0, m0=0.75,
                             c1=0.5, p1=0.5, c2=0.5, p2=0.5)
    data = DataSpec(kind="ring", center=2.0, width=1.0, amp0=1.0, amp1=0.7)
    times = np.array([0.0, 0.5, 2.0, 6.0])
    trace = simulate_fields(model, CFG, grid, data, times, rtol=1e-10)
    ref = physical_space_norms(model, grid, data, times, rtol=1e-10)
    cols = np.array([trace.u_over_1pt, trace.grad, trace.ut, trace.energy])
    assert np.all(ref > 0.0)
    assert np.max(np.abs(cols - ref) / ref) <= 1e-12


def test_only_shells_with_data_are_evolved(monkeypatch):
    # ring data on (1, 3): the shells outside its support carry zeros
    # through evolve_state and the Parseval sums, so they are left out
    grid = Grid(2, 64, 40.0)
    data = DataSpec(kind="ring", center=2.0, width=1.0, amp0=1.0, amp1=0.7)
    shells = np.unique(np.round(grid.xi_mesh().ravel(), 12))
    evolved, evolve_state = [], modal.evolve_state

    def recorded(model, xi, *args, **kwargs):
        evolved.append(np.asarray(xi))
        return evolve_state(model, xi, *args, **kwargs)

    monkeypatch.setattr(modal, "evolve_state", recorded)
    trace = simulate_fields(FREE, CFG, grid, data, np.array([0.0, 2.0]), rtol=1e-10)
    assert len(evolved) == 1
    assert np.array_equal(evolved[0], shells[data.profile(shells) != 0.0])
    assert 0 < evolved[0].size < shells.size / 2 and np.all(trace.energy > 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 1000, 10.0)   # not a power of two
    with pytest.raises(ValueError):
        Grid(4, 64, 10.0)
    warn = Grid(1, 256, 10.0).resolution_warning(CFG, 1e4)
    assert warn is not None and "truncation" in warn


def test_free_energy_conservation_physical_space():
    grid = Grid(1, 2048, 400.0)
    data = DataSpec(kind="ring", center=1.0, width=0.5, amp0=1.0, amp1=0.0)
    times = np.array([0.0, 1.0, 5.0, 20.0])
    trace = simulate_fields(FREE, CFG, grid, data, times, rtol=1e-11)
    drift = np.abs(trace.energy - trace.energy[0]) / trace.energy[0]
    assert drift.max() < 1e-8


def test_zero_data_yields_zero_fields():
    grid = Grid(1, 256, 100.0)
    data = DataSpec(kind="ring", center=1.0, width=0.5, amp0=0.0, amp1=0.0)
    trace = simulate_fields(FREE, CFG, grid, data, [0.0, 2.0])
    assert np.all(trace.ut == 0.0) and np.all(trace.grad == 0.0)


def test_resolution_warning_and_strict_mode():
    grid = Grid(1, 256, 10.0)
    data = DataSpec(kind="ring", center=2.0, width=0.5, amp0=1.0, amp1=0.0)
    trace = simulate_fields(FREE, CFG, grid, data, [0.0, 1e4])
    assert trace.warnings
    with pytest.raises(ResolutionError):
        simulate_fields(FREE, CFG, grid, data, [0.0, 1e4], strict=True)


def test_plancherel_consistency_with_radial_quadrature():
    # box norms of the box run (Parseval over its discrete modes) vs
    # continuum radial quadrature
    model = CoefficientModel(b0=2.0, m0=1.0)
    data = DataSpec(kind="ring", center=2.0, width=0.5, amp0=1.0, amp1=0.7)
    grid = Grid(1, 8192, 1600.0)
    times = np.array([0.0, 1.0, 5.0])
    box = simulate_fields(model, CFG, grid, data, times, rtol=1e-10)
    rgrid = grid_for_data(data, lo=0.5, hi=6.0, n_points=64, n_refine=400)
    rad = energy_trace(model, CFG, data, rgrid, times, n_dim=1, rtol=1e-10)
    for i in range(times.size):
        assert box.grad[i] == pytest.approx(rad.grad[i], rel=5e-3)
        assert box.ut[i] == pytest.approx(rad.ut[i], rel=5e-3)
        assert box.u_over_1pt[i] == pytest.approx(rad.u_over_1pt[i], rel=5e-3)


def test_config_validation_and_hash_determinism():
    raw = {"experiment": "classify", "model": {"b0": 3.0, "m0": 0.0}}
    cfg = ExperimentConfig.from_dict(raw)
    assert config_hash(cfg) == config_hash(ExperimentConfig.from_dict(raw))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "classify", "nope": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "classify",
                                    "model": {"b0": 1.0, "mass": 2.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "unknown"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "classify", "schema": 99})


@pytest.mark.parametrize("field, raw", [
    ("strict", {"strict": "false"}), ("strict", {"strict": 1}),
    ("n_dim", {"n_dim": 2.7}), ("n_dim", {"n_dim": True}),
    ("checkpoints", {"times": {"checkpoints": 61.0}}), ("seed", {"seed": "11"}),
    ("steps", {"steps": False}), ("t_final", {"times": {"t_final": "1e4"}}),
    ("rtol", {"tolerances": {"rtol": True}}), ("fit", {"tolerances": {"fit": None}}),
    ("xi", {"xi": [1e-4]}), ("zone.N", {"zone": {"N": "1"}}),
    ("sweep_cells", {"sweep_cells": [[2.0, 2.0]]}),
    ("sweep_cells", {"sweep_cells": [[2.0, "2", 1.0]]}),
    ("sweep_cells", {"sweep_cells": [[2.0, 2.0, False]]}),
    ("sweep_cells", {"sweep_cells": {"b0": 2.0}}),
    ("config.model.b0", {"model": {"b0": "3"}}),
    ("config.model.ell", {"model": {"ell": 8.0}}),
    ("config.model.family", {"model": {"family": 1}}),
    ("config.data.center", {"data": {"kind": "ring", "center": "1"}}),
    ("config.grid.points_per_dim", {"grid": {"n_dim": 1, "points_per_dim": 512.0,
                                             "box_length": 200.0}})])
def test_config_rejects_wrong_json_types_naming_the_field(field, raw):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        ExperimentConfig.from_dict({"experiment": "sweep", **raw})


def test_config_numbers_are_stored_as_floats_and_canonical_reads_back():
    cfg = ExperimentConfig.from_dict({"experiment": "sweep", "xi": 1, "zone": {"N": 2},
                                      "times": {"t_final": 100, "checkpoints": 7},
                                      "tolerances": {"rtol": 1e-9, "fit": 0}})
    assert (cfg.xi, cfg.zone.N, cfg.t_final, cfg.fit_tol) == (1.0, 2.0, 100.0, 0.0)
    assert all(type(x) is float for x in (cfg.xi, cfg.zone.N, cfg.t_final, cfg.fit_tol))
    assert cfg.checkpoints == 7
    # so do the model, data and grid blocks: an integer hashes like its float
    as_int, as_float = (ExperimentConfig.from_dict(
        {"experiment": "scatter", "model": {"b0": b0}, "data": {"kind": "ring", "center": b0}})
        for b0 in (3, 3.0))
    assert type(as_int.model.b0) is float and type(as_int.data.center) is float
    assert config_hash(as_int) == config_hash(as_float)
    for exp, extra in CHEAP_CONFIGS.items():
        cfg = ExperimentConfig.from_dict({"experiment": exp, **extra})
        assert config_hash(ExperimentConfig.from_dict(cfg.canonical())) == config_hash(cfg)


def test_config_defaults_come_from_the_dataclasses():
    for exp in EXPERIMENTS:
        cfg = ExperimentConfig.from_dict({"experiment": exp})
        assert cfg.canonical() == ExperimentConfig(exp, CoefficientModel(),
                                                   ZoneConfig()).canonical()


def test_ignored_config_keys_leave_the_run_unchanged():
    raw = {"experiment": "classify", "model": {"b0": 3.0, "m0": 0.0}}
    for key in _IGNORED_KEYS:
        cfg = ExperimentConfig.from_dict({**raw, key: 1})
        assert key not in cfg.canonical()
        assert config_hash(cfg) == config_hash(ExperimentConfig.from_dict(raw))


def test_persist_determinism_and_archive(tmp_path):
    record = ResultRecord(
        config={"experiment": "classify"}, config_hash="ab" * 32,
        experiment="classify", verdicts={"ok": True},
        outputs={"value": 1.5},
        traces=[(f"trace{i}", "t,v", [[1.0, 2.0], [3.0, 4.0]]) for i in range(3)],
        wall_time=0.1)
    out = tmp_path / "run"
    p1 = persist(record, out)
    first = p1.read_bytes()
    csvs = sorted(f.name for f in out.glob("*.csv"))
    assert len(csvs) == 3 and all("abababababab" in c for c in csvs)

    p2 = persist(record, out)
    assert p2.read_bytes() == first          # bit-for-bit reproducible
    archived = list(out.glob("manifest.*.json"))
    assert len(archived) == 1                # previous manifest kept


def test_sweep_without_cells_writes_the_header_only(tmp_path):
    # a trace with no rows is a CSV of its header line alone
    cfgfile = tmp_path / "empty.json"
    cfgfile.write_text(json.dumps({"sweep_cells": []}))
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "run")]) == 0
    (csv_file,) = (tmp_path / "run").glob("sweep_results_*.csv")
    assert csv_file.read_text() == "b0,m0,sigma,zone,predicted,fitted,verdict\n"


def test_persist_failure_leaves_the_directory_as_it_was(tmp_path):
    out = tmp_path / "run"
    good = ResultRecord(
        config={"experiment": "classify"}, config_hash="cd" * 32,
        experiment="classify", verdicts={"ok": True}, outputs={"value": 1.5},
        traces=[("trace", "t,v", [[1.0, 2.0]])], wall_time=0.1)
    persist(good, out)
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    bad = ResultRecord(
        config={"experiment": "classify"}, config_hash="ef" * 32,
        experiment="classify", verdicts={"ok": True}, outputs={"value": object()},
        traces=[("trace", "t,v", [[1.0, 2.0]])], wall_time=0.1)
    with pytest.raises(TypeError):
        persist(bad, out)
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    with pytest.raises(TypeError):
        persist(bad, tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()


def test_run_classify_experiment():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "classify", "model": {"b0": 4.0, "m0": 0.0}})
    rec = run_experiment(cfg)
    assert rec.outputs["case"] == "real_large_muplus"
    assert rec.outputs["mu_plus"] == [pytest.approx(-1.0), pytest.approx(0.0)]
    # trace/determinant arithmetic pins mu- = -(b0+1) - mu+ = -4
    assert rec.outputs["mu_minus"] == [pytest.approx(-4.0), pytest.approx(0.0)]


def test_cli_classify(capsys):
    code = run_cli(["classify", "--b0", "4", "--m0", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "real_large_muplus" in out
    assert "mu+ = -1" in out


# the flags each subcommand takes besides --config and --out: the config
# fields its experiment reads
CLI_FLAGS = {
    "classify": {"b0", "m0"},
    "simulate": {"b0", "m0", "N", "tfinal", "tol", "strict"},
    "sweep": {"N", "tfinal", "tol"},
    "scatter": {"b0", "m0", "sigma", "N", "tfinal", "tol"},
    "moments": {"b0", "m0", "sigma", "N", "tfinal", "tol"},
    "levinson": {"b0", "m0", "N"},
    "repcheck": {"b0", "m0", "N"},
    "hw": {"b0", "m0", "sigma", "N", "tfinal"},
}


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_cli_subcommand_takes_only_the_flags_its_experiment_reads(command, capsys):
    parser = build_parser()
    assert parser.parse_args([command, "--config", "c.json", "--out", "o"]).out == "o"
    for flag in ("b0", "m0", "sigma", "N", "tfinal", "tol", "strict"):
        argv = [command, f"--{flag}"] + ([] if flag == "strict" else ["1.5"])
        if flag in CLI_FLAGS[command]:
            assert getattr(parser.parse_args(argv), flag) in (1.5, True)
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            # a usage error exits 1; 2 would read as a failed verdict
            assert run_cli(argv) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli([command, "--help"]) == 0


def test_cli_simulate_without_config(capsys):
    code = run_cli(["simulate"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err.lower()


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli(["classify", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "config" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"experiment": "classify", "bogus": 1}))
    assert run_cli(["classify", "--config", str(unknown)]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err


@pytest.mark.parametrize("experiment, xi, N, bound", [
    ("sweep", 0.0, 1.0, 1.0 / 101.0), ("sweep", 0.5, 1.0, 1.0 / 101.0),
    ("levinson", 0.0, 0.01, 0.01), ("levinson", 2.0, 1.0, 1.0)])
def test_sweep_and_levinson_reject_an_xi_whose_slow_zone_is_too_short(experiment, xi, N,
                                                                       bound):
    # sweep fits from t = 1e2 up to theta(xi), and levinson builds its solutions
    # on [1, 1 + theta(xi)]; an xi whose theta is infinite (xi = 0) or does not
    # reach past the window's start is a ConfigError naming xi, N and the bound
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "xi": xi, "zone": {"N": N}})
    with pytest.raises(ConfigError, match=re.escape(f"i.e. 0 < xi < {bound:g} at N = {N:g}, "
                                                    f"got xi = {xi!r}")):
        run_experiment(cfg)


@pytest.mark.parametrize("xi, passes", [(2.0, False), (1.0, False), (-0.5, False),
                                        (0.5, True), (1e-6, True), (0.0, True)])
def test_hw_rejects_an_xi_without_a_slow_zone_before_any_solve(monkeypatch, xi, passes):
    # hw reduces the slow-zone Fuchs system, so it needs theta(xi) > 0, i.e.
    # 0 < xi < N, or xi = 0 (no zone boundary); the construction is replaced,
    # so a rejected xi must fail before it and an accepted one reach it
    class Reached(Exception):
        pass

    def hartman_wintner(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(experiments.asymptotic, "hartman_wintner", hartman_wintner)
    cfg = ExperimentConfig.from_dict({"experiment": "hw", "xi": xi})
    expected = Reached if passes else ConfigError
    with pytest.raises(expected, match=None if passes else re.escape(
            f"hw needs theta(xi) > 0, i.e. 0 < xi < 1 at N = 1, got xi = {xi!r}")):
        run_experiment(cfg)


def test_cli_empty_sweep(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps({"experiment": "sweep", "sweep_cells": []}))
    code = run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["verdicts"] == {}


def test_sweep_records_a_failed_cell_and_exits_on_a_program_fault(tmp_path, capsys,
                                                                   monkeypatch):
    # an integration that fails is a failed row (exit 2); any other exception
    # in a cell is a fault of the program (exit 1), not a verdict
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(json.dumps({"experiment": "sweep", **CHEAP_CONFIGS["sweep"]}))

    def fails(error):
        def trace(*args, **kwargs):
            raise error
        return trace

    monkeypatch.setattr(modal, "propagator_norm_trace",
                        fails(StiffnessError("step size becomes too small", 1.0, 1e-3)))
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["verdicts"] == {"b0=3,m0=0,sigma=1": False}
    # the error message holds commas; its cell is quoted, so every row keeps
    # the header's 7 fields
    (entry,) = manifest["csv_files"]
    with open(tmp_path / "o" / entry["file"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7, 7]
    assert rows[1][-1] == "error:step size becomes too small (t=1.0, xi=0.001)"
    monkeypatch.setattr(modal, "propagator_norm_trace", fails(TypeError("a bug")))
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "p")]) == 1
    assert "TypeError: a bug" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_scatter_tol_reaches_the_oracle_unchanged(tmp_path, monkeypatch):
    # --tol below the default 1e-9 is the rtol of the scattering solves, as
    # the manifest records it
    cfgfile = tmp_path / "scatter.json"
    cfgfile.write_text(json.dumps({"experiment": "scatter", **CHEAP_CONFIGS["scatter"]}))
    rtols, state_propagator_checkpoints = [], modal.state_propagator_checkpoints

    def recorded(*args, rtol, **kwargs):
        rtols.append(rtol)
        return state_propagator_checkpoints(*args, rtol=rtol, **kwargs)

    monkeypatch.setattr(modal, "state_propagator_checkpoints", recorded)
    assert run_cli(["scatter", "--config", str(cfgfile), "--tol", "1e-10",
                    "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert rtols == [1e-10] and manifest["config"]["tolerances"]["rtol"] == 1e-10


def test_cli_simulate_run(tmp_path, capsys):
    cfgfile = tmp_path / "sim.json"
    cfgfile.write_text(json.dumps({"experiment": "simulate", **SIMULATE_CONFIG}))
    out = tmp_path / "simout"
    code = run_cli(["simulate", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["csv_files"]
    entry = manifest["csv_files"][0]
    assert entry["columns"] == "t,u_over_1pt,grad,ut,energy"
    csv = (out / entry["file"]).read_text().splitlines()
    assert csv[0] == entry["columns"]
    assert len(csv) > 3


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_cli_out_rerun_reproduces_manifest(experiment, tmp_path, capsys):
    # every experiment persists with --out, and a rerun archives the old
    # manifest and writes a byte-identical new one
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(CHEAP_CONFIGS[experiment]))
    out = tmp_path / "out"
    argv = [experiment, "--config", str(cfgfile), "--out", str(out)]
    assert run_cli(argv) != 1, capsys.readouterr().err
    assert run_cli(argv) != 1, capsys.readouterr().err
    archived = list(out.glob("manifest.*.json"))
    assert len(archived) == 1
    assert archived[0].read_bytes() == (out / "manifest.json").read_bytes()


@pytest.mark.parametrize("experiment, propagator", [
    ("sweep", "dop853+hankel(z*=25)"),   # the cells are scale-invariant
    ("levinson", "dop853"),
    ("classify", "none"),
])
def test_manifest_names_the_propagator(experiment, propagator, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(CHEAP_CONFIGS[experiment]))
    out = tmp_path / "out"
    assert run_cli([experiment, "--config", str(cfgfile), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["propagator"] == propagator


def test_cli_reports_persist_failure(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(["classify", "--out", str(blocker / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_levinson_and_moments(tmp_path):
    assert run_cli(["levinson", "--out", str(tmp_path / "lev")]) == 0
    manifest = json.loads((tmp_path / "lev" / "manifest.json").read_text())
    assert all(manifest["verdicts"].values())
    assert any(c["file"].startswith("levinson_residual")
               for c in manifest["csv_files"])
    assert run_cli(["moments"]) == 0


def test_experiment_repcheck_record(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "repcheck",
        "model": {"family": "bounded_perturbation", "b0": 2.0, "m0": 0.75,
                  "c1": 0.5, "p1": 0.5, "c2": 0.5, "p2": 0.5, "ell": 6},
        "seed": 11, "steps": 1})
    rec = run_experiment(cfg)
    assert rec.verdicts["representation_identity"]
    assert rec.outputs["worst_rel_error"] <= 1e-6


def test_cli_experiments_leave_scipy_subpackages_unimported(tmp_path):
    # DOP853 is loaded without scipy.integrate's package, and every other
    # scipy import waits for its one use: in a fresh interpreter, the CLI runs
    # of scatter, sweep, repcheck and simulate import none of the subpackages
    # that scipy.integrate's __init__ pulls in.  repcheck runs twice, with a
    # bounded model at N = 1 and with the CLI-default model at N = 0.1 (the
    # cheap config)
    heavy = ["scipy.integrate", "scipy.special", "scipy.optimize",
             "scipy.interpolate", "scipy.sparse"]
    configs = {**CHEAP_CONFIGS, "repcheck": {
        "model": {"family": "bounded_perturbation", "b0": 2.0, "m0": 0.75,
                  "c1": 0.5, "p1": 0.5, "c2": 0.5, "p2": 0.5}, "seed": 10543},
        "repcheck_cheap": CHEAP_CONFIGS["repcheck"]}
    runs = []
    for name in ("scatter", "sweep", "repcheck", "repcheck_cheap", "simulate"):
        cfgfile = tmp_path / f"{name}.json"
        cfgfile.write_text(json.dumps(configs[name]))
        runs.append([name.removesuffix("_cheap"), "--config", str(cfgfile),
                     "--out", str(tmp_path / name)])
    script = (
        "import json, sys\n"
        "from fuchswave.cli import run_cli\n"
        f"codes = [run_cli(argv) for argv in {runs!r}]\n"
        f"loaded = sorted(m for m in {heavy!r} if m in sys.modules)\n"
        "print(json.dumps([codes, loaded]))\n")
    src = str(Path(fuchswave.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert 1 not in codes, done.stderr
    assert loaded == []


def test_each_module_loads_only_the_modules_it_runs():
    # in a fresh interpreter, the package root loads no submodule, zones
    # none, coeffs and asymptotic only the errors module, and none of them
    # scipy
    expected = {"fuchswave": [], "fuchswave.zones": ["fuchswave.zones"],
                "fuchswave.coeffs": ["fuchswave.coeffs", "fuchswave.errors"],
                "fuchswave.asymptotic": ["fuchswave.asymptotic", "fuchswave.errors"]}
    src = str(Path(fuchswave.__file__).resolve().parents[1])
    for name, modules in expected.items():
        script = (f"import json, sys, {name}\n"
                  "print(json.dumps(sorted(m for m in sys.modules\n"
                  "                        if m.startswith(('fuchswave.', 'scipy')))))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == modules, name


def test_every_error_class_is_defined_in_the_errors_module():
    # one hierarchy in one leaf module: no other src module defines an
    # ...Error class, errors imports nothing of fuchswave, and each class
    # keeps the built-in base that every except clause relies on
    bases = {"ConfigError": ValueError, "InvalidWindowError": ValueError,
             "RegimeUnsupportedError": ValueError, "SeriesRangeError": ValueError,
             "SupportError": ValueError, "UnsupportedOrderError": ValueError,
             "DichotomyViolationError": RuntimeError, "HorizonError": RuntimeError,
             "NeedsLargerStartError": RuntimeError, "ResolutionError": RuntimeError,
             "StiffnessError": RuntimeError, "ZoneConstantError": RuntimeError}
    elsewhere = []
    for path in sorted(Path(fuchswave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "errors":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert node.level == 0 and not node.module.startswith("fuchswave")
                if isinstance(node, ast.Import):
                    assert not any(a.name.startswith("fuchswave") for a in node.names)
            continue
        elsewhere += [(path.stem, node.name) for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef) and node.name.endswith("Error")]
    assert elsewhere == []
    defined = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.FuchswaveError)}
    assert defined == set(bases) | {"FuchswaveError"}
    for name, base in bases.items():
        assert issubclass(getattr(errors, name), base), name


def test_src_modules_use_every_name_they_import():
    # an import whose name no line of the module reads is dead; diagonalize
    # keeps solve_ivp for the benchmark tracer, which wraps that name there
    kept = {("diagonalize", "solve_ivp")}
    unused = []
    for path in sorted(Path(fuchswave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported - read)
                   if (path.stem, name) not in kept]
    assert unused == []


def test_every_src_function_has_a_src_caller():
    # a top-level function, class, public method or module-level constant that
    # nothing else in src/ reads is dead code or a test aid; a docstring or a
    # CLI string does not count as a read.  Exempt: the names the benchmark
    # tracer patches (perfbench/tracing.py, read as text), dunder methods,
    # the console entry point cli.main and the two documented model
    # constructors example_bounded and example_log
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    traced = set(re.findall(r"\w+", tracer.read_text()))
    exempt = {"cli.main", "coeffs.example_bounded", "coeffs.example_log"}
    trees, defined, reads = [], [], {}   # reads: name -> ids of the definitions around each read
    for path in sorted(Path(fuchswave.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        trees.append(tree)                # keeps the node ids unique
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{path.stem}.{n.id}", node) for target in targets
                            for n in ast.walk(target) if isinstance(n, ast.Name)]
        stack = [(tree, ())]
        while stack:
            node, around = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)):
                around += (id(node),)
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append(around)
            stack += [(child, around) for child in ast.iter_child_nodes(node)]
    unused = []
    for qualname, node in defined:
        name = qualname.rpartition(".")[2]
        if (qualname in exempt or name in traced
                or (name.startswith("__") and name.endswith("__"))):
            continue
        if not any(id(node) not in around for around in reads.get(name, [])):
            unused.append(qualname)
    assert unused == []
