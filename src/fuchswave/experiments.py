"""Experiment configuration, dispatch and result persistence.

A single JSON document (schema 1) describes a run.  Its schema is two
tables: _FIELDS maps the JSON path of every plain field to its
ExperimentConfig field and JSON type, and _BLOCKS the model, zone, data and
grid objects to their dataclasses; from_dict, canonical() and the checks
that reject unknown fields all walk them, and an error names its field by
its JSON path.  EXPERIMENTS maps each experiment to its runner, to the
JSON paths the runner reads (from_dict rejects any other block or field set
away from its default) and to what the command line needs of it: help
line, flags and demonstration defaults.
Results are persisted as a deterministic manifest plus one CSV per trace,
file names derived from the config hash.  Wall time, CPU time and the
forked children's peak RSS are tracked on the record but kept out of the
manifest (in runinfo.json) so identical configs rewrite identical manifests
bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import resource
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, asymptotic, diagonalize, estimates, modal, zones
from .coeffs import PURE, CoefficientModel, classify_regime, predicted_decay, sorted_distinct
from .errors import ConfigError, RegimeUnsupportedError, SeriesRangeError, StiffnessError
from .estimates import DataSpec, fit_decay, grid_for_data
from .solver import Grid, simulate_fields
from .zones import ZoneConfig

SCHEMA_VERSION = 1

# representative cells for the four qualitative rows of the slow-zone /
# oscillatory-zone rate table (sigma = 1)
DEFAULT_SWEEP_CELLS = ((2.0, 2.0, 1.0), (2.0, 0.25, 1.0),
                       (3.0, 0.8, 1.0), (3.0, 0.0, 1.0))


def _reject_unknown(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


# JSON type of each plain field: (what it must be, test, stored value); a
# wrong type is a ConfigError naming the field, never a coercion, and the
# types are exact, so a bool is neither an integer nor a number
_INTEGER = ("an integer", lambda v: type(v) is int, int)
_NUMBER = ("a number", lambda v: type(v) in (int, float), float)
_FLAG = ("true or false", lambda v: type(v) is bool, bool)
_TEXT = ("a string", lambda v: type(v) is str, str)
_OBJECT = ("an object", lambda v: type(v) is dict, dict)
# the JSON type of a block field by its annotation; others (tables) pass as given
_FIELD_KINDS = {"int": _INTEGER, "float": _NUMBER, "bool": _FLAG, "str": _TEXT}
# cells are stored as given: floats would change the config hash of integer cells
_CELLS = ("a list of [b0, m0, sigma] number lists",
          lambda v: type(v) is list and all(type(c) is list and len(c) == 3
                                            and all(map(_NUMBER[1], c)) for c in v),
          lambda v: tuple(map(tuple, v)))

# every ExperimentConfig field outside the blocks: JSON path -> (field, JSON
# type); times and tolerances group theirs, an absent key keeps the default
_FIELDS = {
    "n_dim": ("n_dim", _INTEGER),
    "times.t_final": ("t_final", _NUMBER),
    "times.checkpoints": ("checkpoints", _INTEGER),
    "tolerances.rtol": ("rtol", _NUMBER),
    "tolerances.fit": ("fit_tol", _NUMBER),
    "sweep_cells": ("sweep_cells", _CELLS),
    "strict": ("strict", _FLAG),
    "seed": ("seed", _INTEGER),
    "xi": ("xi", _NUMBER),
    "steps": ("steps", _INTEGER),
}
# the blocks: JSON key (and ExperimentConfig field) -> dataclass
_BLOCKS = {"model": CoefficientModel, "zone": ZoneConfig, "data": DataSpec, "grid": Grid}


def _read(value, kind, path):
    what, valid, store = kind
    if not valid(value):
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return store(value)


def _read_block(name, value):
    """Block `name` from its JSON object: each field read with the JSON type
    of its annotation, unknown fields rejected, and any TypeError or
    ValueError of the dataclass a ConfigError that names the block."""
    cls = _BLOCKS[name]
    kinds = {f.name: _FIELD_KINDS.get(f.type) for f in fields(cls)}
    block = _read(value, _OBJECT, name)
    _reject_unknown(block, set(kinds), name)
    block = {k: v if kinds[k] is None else _read(v, kinds[k], f"{name}.{k}")
             for k, v in block.items()}
    try:
        return cls.from_json(block) if hasattr(cls, "from_json") else cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} block: {exc}") from exc


@dataclass
class ExperimentConfig:
    experiment: str
    model: CoefficientModel = field(default_factory=CoefficientModel)
    zone: ZoneConfig = field(default_factory=ZoneConfig)
    data: DataSpec | None = None
    grid: Grid | None = None
    n_dim: int = 1
    t_final: float = 1e4
    checkpoints: int = 61
    rtol: float = 1e-9
    fit_tol: float = 0.05
    sweep_cells: tuple = DEFAULT_SWEEP_CELLS
    strict: bool = False
    seed: int = 20240901
    xi: float = 1e-4
    steps: int = 2

    @classmethod
    def from_dict(cls, d):
        given = {}   # the plain fields' values by JSON path
        for key, value in d.items():
            if any(path.startswith(key + ".") for path in _FIELDS):
                given.update((f"{key}.{k}", v)
                             for k, v in _read(value, _OBJECT, key).items())
            elif key not in ("schema", "experiment", *_BLOCKS):
                given[key] = value
        _reject_unknown(given, set(_FIELDS), "config")
        if d.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema {d.get('schema')!r}")
        exp = d.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {exp!r}")
        # an absent, null or empty block keeps the default
        blocks = {name: _read_block(name, d[name]) for name in _BLOCKS
                  if d.get(name) not in (None, {})}
        cfg = cls(experiment=exp, **blocks, **{
            _FIELDS[path][0]: _read(value, _FIELDS[path][1], path)
            for path, value in given.items()})
        _reject_unread(cfg, [*given, *(name for name in _BLOCKS if name in d)])
        return cfg

    def canonical(self):
        base = {"schema": SCHEMA_VERSION, "experiment": self.experiment}
        for name in _BLOCKS:
            block = getattr(self, name)
            if block is not None:
                base[name] = (json.loads(block.to_json()) if hasattr(block, "to_json")
                              else asdict(block))
        for path, (name, _) in _FIELDS.items():
            group, _, key = path.rpartition(".")
            (base.setdefault(group, {}) if group else base)[key] = getattr(self, name)
        return json.loads(json.dumps(base))   # the cells' tuples as JSON lists


def _reject_unread(cfg, paths):
    """ConfigError naming the given JSON paths that cfg's experiment does not
    read and that move its canonical config, and so its hash, away from the
    default's: such a block or field would change the hash and nothing else."""
    reads = EXPERIMENTS[cfg.experiment].reads
    canon, default = cfg.canonical(), ExperimentConfig(cfg.experiment).canonical()

    def at(tree, path):   # the canonical JSON text at a path
        for key in path.split("."):
            tree = tree.get(key)
        return json.dumps(tree, sort_keys=True)

    unread = [p for p in paths if p not in reads and at(canon, p) != at(default, p)]
    if unread:
        raise ConfigError(f"{cfg.experiment} reads no {sorted(unread)}: it reads "
                          f"{', '.join(reads)}")


def config_hash(config):
    canon = config.canonical() if isinstance(config, ExperimentConfig) else config
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ResultRecord:
    config: dict
    config_hash: str
    experiment: str
    verdicts: dict
    outputs: dict
    traces: list                 # (name, header, rows) per CSV
    wall_time: float
    tool_version: str = __version__
    propagator: str = "none"     # how the mode equations were solved
    cpu_time: float = 0.0        # this process's and its waited-for children's
    children_peak_rss_mb: float = 0.0

    @property
    def all_pass(self):
        return all(self.verdicts.values())


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

def run_classify(cfg):
    cls = classify_regime(cfg.model)
    outputs = {
        "mu_plus": [cls.mu_plus.real, cls.mu_plus.imag],
        "mu_minus": [cls.mu_minus.real, cls.mu_minus.imag],
        "case": cls.case,
        "dominant_exponent": cls.dominant_exponent,
        "distinct_eigenvalues": cls.distinct_eigenvalues,
        "real_distinct": cls.real_distinct,
        "lambda_dominated": cls.lambda_dominated,
    }
    return {}, outputs, []


def run_simulate(cfg):
    if cfg.grid is None or cfg.data is None:
        raise ConfigError("simulate needs both a grid and a data block")
    times = sorted_distinct(np.concatenate([[0.0], np.geomspace(1.0, cfg.t_final,
                                                               cfg.checkpoints - 1)]))
    trace = simulate_fields(cfg.model, cfg.zone, cfg.grid, cfg.data, times,
                            rtol=cfg.rtol, strict=cfg.strict)
    rows = np.column_stack([trace.times, trace.u_over_1pt, trace.grad,
                            trace.ut, trace.energy])
    outputs = {"warnings": trace.warnings,
               "final_energy": float(trace.energy[-1])}
    return {}, outputs, [("simulate_trace", "t,u_over_1pt,grad,ut,energy", rows)]


def _double_root_log_shift(window):
    """Expected finite-window slope excess for a defective (double) root:
    the exact profile carries a ln(1+t) factor, so the log-log slope sits at
    Re(mu+) + <1/ln(1+t)> over the window."""
    ts = np.geomspace(window[0], window[1], 200)
    return float(np.mean(1.0 / np.log1p(ts)))


def _slow_zone_xi(cfg, t_from):
    """cfg.xi, once its slow zone is known to reach past t_from (theta(xi) > t_from)."""
    bound = cfg.zone.N / (1.0 + t_from)
    if not 0.0 < cfg.xi < bound:
        raise ConfigError(f"{cfg.experiment} needs theta(xi) > {t_from:g}, i.e. 0 < xi < "
                          f"{bound:g} at N = {cfg.zone.N:g}, got xi = {cfg.xi!r}")
    return cfg.xi


def run_sweep(cfg):
    verdicts = {}
    rows = []
    t_lo = 1e2   # start of both fit windows
    xi_low = _slow_zone_xi(cfg, t_lo)
    for cell in cfg.sweep_cells:
        b0, m0, sigma = cell
        name = f"b0={b0:g},m0={m0:g},sigma={sigma:g}"
        try:
            model = CoefficientModel(b0=b0, m0=m0, sigma=sigma, ell=cfg.model.ell)
            cls = classify_regime(model)
            if sigma > 1.0 and not cls.real_distinct:
                rows.append((b0, m0, sigma, "n/a", 0.0, 0.0, "not_applicable"))
                continue
            th = zones.theta(cfg.zone, xi_low)
            times_d = np.geomspace(t_lo, th, 120)
            norm_d = modal.propagator_norm_trace(model, cfg.zone, xi_low, times_d,
                                                 rtol=cfg.rtol)
            pred_d = predicted_decay(model, "diss")
            if not cls.distinct_eigenvalues:
                pred_d += _double_root_log_shift((t_lo, th))
            fit_d = fit_decay(times_d, norm_d, (t_lo, th), pred_d, tol=cfg.fit_tol)
            rows.append((b0, m0, sigma, "diss", fit_d.predicted, fit_d.exponent,
                         "pass" if fit_d.verdict else "fail"))

            xi_high = 2.0 * cfg.zone.N
            times_h = np.geomspace(t_lo, cfg.t_final, 120)
            norm_h = modal.propagator_norm_trace(model, cfg.zone, xi_high, times_h,
                                                 rtol=cfg.rtol)
            fit_h = fit_decay(times_h, norm_h, (t_lo, cfg.t_final),
                              predicted_decay(model, "hyp_large"), tol=cfg.fit_tol)
            rows.append((b0, m0, sigma, "hyp", fit_h.predicted, fit_h.exponent,
                         "pass" if fit_h.verdict else "fail"))
            verdicts[name] = bool(fit_d.verdict and fit_h.verdict)
        # a cell whose integration or regime fails is a failed row, and the
        # sweep continues; any other exception is a fault of the program
        except (StiffnessError, SeriesRangeError, RegimeUnsupportedError) as exc:
            rows.append((b0, m0, sigma, "error", 0.0, 0.0, f"error:{exc}"))
            verdicts[name] = False
    return verdicts, {"cells": len(cfg.sweep_cells)}, [
        ("sweep_results", "b0,m0,sigma,zone,predicted,fitted,verdict", rows)]


def run_scatter(cfg):
    if cfg.data is None:
        raise ConfigError("scatter needs a data block")
    grid = grid_for_data(cfg.data, lo=0.05, hi=4.0 * cfg.zone.N, n_points=48,
                         n_refine=120)
    res = estimates.scattering_residual(cfg.model, cfg.zone, cfg.data, grid,
                                        horizon=cfg.t_final, n_dim=cfg.n_dim,
                                        rtol=cfg.rtol)
    rows = np.column_stack([res.times, res.residual_dt, res.residual_grad])
    verdicts = {"residuals_decay": res.passed}
    outputs = {"final_dt": float(res.residual_dt[-1]),
               "final_grad": float(res.residual_grad[-1]),
               "w_sup_norm": float(modal._norm2(res.W_samples).max())}
    return verdicts, outputs, [("scattering_residuals", "t,residual_dt,residual_grad", rows)]


def run_moments(cfg):
    verdicts, outputs = estimates.moment_experiment(cfg.model, cfg.zone, n_dim=cfg.n_dim,
                                                    window=(1e2, cfg.t_final), rtol=cfg.rtol)
    return verdicts, outputs, []


def modal_fuchs_system(model, config, xi, zero_extended=True):
    """The slow-zone Fuchs form diagonalised by the constant eigenbasis,
    shifted to the t >= 1 clock of the asymptotic library and evaluated on
    arrays of times.  Exponents are ordered by ascending real part (recorded
    permutation convention); with zero_extended, R vanishes past 1 + theta.
    Returns the system and its exponents."""
    A = modal.fuchs_constant_matrix(model, config)
    eigvals, vecs = np.linalg.eig(A)
    order = np.argsort(eigvals.real)
    eigvals = eigvals[order]
    P = vecs[:, order]
    P /= np.linalg.norm(P, axis=0)
    P_inv = np.linalg.inv(P)
    th = zones.theta(config, xi)

    def mu(t):
        return np.broadcast_to(eigvals, np.shape(t) + (2,))

    def R(t):
        tm = t - 1.0
        R_t = P_inv @ modal.fuchs_remainder(model, config, tm, xi) @ P
        if zero_extended:
            R_t = np.where(np.expand_dims(tm > th, (-2, -1)), 0.0, R_t)
        return R_t

    return asymptotic.FuchsSystem(dimension=2, mu=mu, R=R), eigvals


def run_levinson(cfg):
    xi = _slow_zone_xi(cfg, 0.0)
    sys, eigvals = modal_fuchs_system(cfg.model, cfg.zone, xi)
    th = zones.theta(cfg.zone, xi)
    t_probe = 1.0 + th / 2.0
    verdicts = {}
    outputs = {"mu": [[z.real, z.imag] for z in eigvals], "theta": th}
    traces = []
    for k in range(2):
        sol = asymptotic.levinson_solve(sys, k, t0=1.0, T=2.0 * (th + 1.0),
                                        tol=1e-11)
        res_probe = float(np.interp(math.log(t_probe), np.log(sol.grid_t),
                                    sol.residual_trace))
        rate_ok = (not sol.rates) or max(sol.rates) <= sol.contraction_bound + 1e-9
        verdicts[f"residual_k{k}"] = res_probe <= 0.01
        verdicts[f"contraction_k{k}"] = bool(rate_ok)
        outputs[f"residual_k{k}"] = res_probe
        outputs[f"iterations_k{k}"] = sol.iterations
        outputs[f"contraction_bound_k{k}"] = sol.contraction_bound
        traces.append((f"levinson_residual_k{k}", "t,residual",
                       np.column_stack([sol.grid_t, sol.residual_trace])))
    return verdicts, outputs, traces


def run_hw(cfg):
    xi = 0.0 if cfg.xi == 0.0 else _slow_zone_xi(cfg, 0.0)   # 0: no zone boundary
    sys, _ = modal_fuchs_system(cfg.model, cfg.zone, xi, zero_extended=False)
    sigma = cfg.model.sigma
    transform, reduced = asymptotic.hartman_wintner(sys, sigma, t0=1.0,
                                                    horizon=4.0 * cfg.t_final)
    ts = transform.grid_t
    window = (ts >= 1e2) & (ts <= cfg.t_final)
    xs = np.log(ts[window])
    r1 = np.linalg.norm(reduced.R(ts[window]), 2, axis=(-2, -1))
    r_sig = np.linalg.norm(sys.R(ts[window]), 2, axis=(-2, -1)) ** sigma
    l1_tail = float(np.trapezoid(r1, xs))
    sigma_tail = float(np.trapezoid(r_sig, xs))

    diag_N = np.abs(np.diagonal(transform.N_matrix(np.array([1e1, 1e2, 1e3])),
                                axis1=-2, axis2=-1)).max()
    tail_norms = transform.N_norms[ts >= math.sqrt(cfg.t_final)]
    decreasing = bool(np.all(np.diff(_decade_maxima(ts[ts >= math.sqrt(cfg.t_final)],
                                                    tail_norms)) <= 0))
    verdicts = {
        "diag_zero": bool(diag_N == 0.0),
        "norm_decreasing": decreasing,
        "tail_reduction": l1_tail <= 0.1 * sigma_tail,
    }
    outputs = {"l1_tail": l1_tail, "sigma_tail": sigma_tail,
               "valid_from": transform.valid_from,
               "ratio": l1_tail / sigma_tail if sigma_tail else float("nan")}
    rows = np.column_stack([ts, transform.N_norms])
    return verdicts, outputs, [("hw_transform_norm", "t,norm_N", rows)]


def _decade_maxima(ts, vals):
    edges = np.arange(math.floor(math.log10(ts[0])), math.ceil(math.log10(ts[-1])) + 1)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ts >= 10.0 ** lo) & (ts < 10.0 ** hi)
        if sel.any():
            out.append(vals[sel].max())
    return np.array(out)


def _repcheck_points(cfg):
    """repcheck's 20 seeded (s, t, xi): xi in [N, 8N], s in [0, 50] and t - s
    in [10, 1e3], xi and t - s log-uniform."""
    rng = np.random.default_rng(cfg.seed)
    N = cfg.zone.N
    points = []
    for _ in range(20):
        xi = float(np.exp(rng.uniform(math.log(N), math.log(8.0 * N))))
        s = float(rng.uniform(0.0, 50.0))
        points.append((s, s + float(np.exp(rng.uniform(math.log(10.0), math.log(1e3)))), xi))
    return points


def run_repcheck(cfg):
    stage = diagonalize.build_stage(cfg.model, cfg.steps, cfg.zone)
    points = _repcheck_points(cfg)
    items = [(modal.ModalSystem(cfg.model, cfg.zone, xi, modal.FORM_HYP), s, t)
             for s, t, xi in points]

    def job(i):   # the oracle's 20 matrices for i None, else point i's representation
        if i is None:
            return [E.entries for E in modal.integrate_fundamentals(items, tol=1e-12)]
        s, t, xi = points[i]
        return diagonalize.assemble_representation(stage, s, t, xi).entries

    # per radian of phase xi (t - s), Q_k's nodes cost about twice the
    # stacked oracle's steps: 14 against 7 us on one Xeon core
    phases = [xi * (t - s) for s, t, xi in points]
    oracle, *reps = modal._fork_map(job, [None, *range(len(points))],
                                    [sum(phases) / 2.0, *phases])
    rels = [modal.spectral_norm(rep - orc) / modal.spectral_norm(orc)
            for rep, orc in zip(reps, oracle)]
    rows = [point + (rel,) for point, rel in zip(points, rels)]
    worst = max(0.0, *rels)
    verdicts = {"representation_identity": worst <= 1e-6}
    return verdicts, {"worst_rel_error": worst}, [
        ("repcheck_points", "s,t,xi,rel_error", rows)]


class Experiment(NamedTuple):
    run: object        # run_*(cfg) -> (verdicts, outputs, traces)
    help: str          # the subcommand's help line
    flags: tuple       # its CLI flags
    reads: tuple       # the JSON paths of the blocks and fields run reads
    defaults: dict     # its CLI demonstration config, under the config file and flags


_BOUNDED = {"family": "bounded_perturbation", "b0": 2.0, "m0": 0.75,
            "c1": 0.5, "p1": 0.5, "c2": 0.5, "p2": 0.5}
_SOLVE = ("model", "zone", "times.t_final", "tolerances.rtol")

# every experiment, in the CLI's order
EXPERIMENTS = {
    "simulate": Experiment(run_simulate, "spectral box run with physical-space norm traces",
                           ("b0", "m0", "N", "tfinal", "tol", "strict"),
                           (*_SOLVE, "grid", "data", "times.checkpoints", "strict"), {}),
    "classify": Experiment(run_classify, "low-frequency exponents mu+- and the regime case",
                           ("b0", "m0"), ("model",), {"model": {"b0": 2.0, "m0": 2.0}}),
    "sweep": Experiment(run_sweep, "fitted vs predicted zone rates over (b0, m0, sigma) cells",
                        ("N", "tfinal", "tol"), (*_SOLVE, "xi", "sweep_cells", "tolerances.fit"),
                        {"model": {"b0": 2.0, "m0": 2.0}, "xi": 1e-4}),
    "scatter": Experiment(run_scatter, "modified-scattering residual decay",
                          ("b0", "m0", "sigma", "N", "tfinal", "tol"), (*_SOLVE, "data", "n_dim"),
                          {"model": _BOUNDED,
                           "data": {"kind": "ring", "center": 0.6, "width": 0.5,
                                    "amp0": 1.0, "amp1": 0.7}}),
    "moments": Experiment(run_moments, "moment-condition rate improvement",
                          ("b0", "m0", "sigma", "N", "tfinal", "tol"), (*_SOLVE, "n_dim"),
                          {"model": {"b0": 4.0, "m0": 0.0}}),
    "levinson": Experiment(run_levinson, "distinguished-solution construction demo",
                           ("b0", "m0", "N"), ("model", "zone", "xi"),
                           {"model": {"b0": 3.0, "m0": 0.0}, "zone": {"N": 0.01}, "xi": 1e-4}),
    "hw": Experiment(run_hw, "remainder-reduction transform demo",
                     ("b0", "m0", "sigma", "N", "tfinal"),
                     ("model", "zone", "xi", "times.t_final"),
                     {"model": {"family": "log_perturbation", "b0": 3.0, "m0": 0.5, "b1": 0.5,
                                "m1": 0.5, "gamma": 1.0, "sigma": 1.5}, "xi": 1e-6}),
    "repcheck": Experiment(run_repcheck, "representation identity vs direct oracle",
                           ("b0", "m0", "N"), ("model", "zone", "steps", "seed"),
                           {"model": {**_BOUNDED, "ell": 6}, "steps": 2}),
}


def _propagator(cfg):
    """modal.propagator_label of the experiment's mode solves: sweep's are
    scale-invariant, repcheck's DOP853 only; levinson and hw solve no ODE."""
    if cfg.experiment in ("classify", "levinson", "hw"):
        return "none"
    if cfg.experiment in ("simulate", "scatter", "moments"):
        return modal.propagator_label(cfg.model.family)
    return modal.propagator_label(PURE if cfg.experiment == "sweep" else None)


def run_experiment(cfg):
    start, cpu_start = time.perf_counter(), sum(os.times()[:4])
    verdicts, outputs, traces = EXPERIMENTS[cfg.experiment].run(cfg)
    return ResultRecord(
        config=cfg.canonical(), config_hash=config_hash(cfg),
        experiment=cfg.experiment, verdicts=verdicts, outputs=outputs,
        traces=traces, wall_time=time.perf_counter() - start,
        propagator=_propagator(cfg), cpu_time=sum(os.times()[:4]) - cpu_start,
        # the largest child this process has waited for; ru_maxrss is in KiB
        children_peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    )


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

def _csv_text(header, rows):
    # a cell is quoted only where it holds a comma, quote or line break
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [format(x, ".17g") if isinstance(x, float) else str(x) for x in row]
        for row in rows)
    return header + "\n" + text.getvalue()


def persist(record, out_dir):
    """Write manifest.json plus one CSV per trace; a pre-existing manifest is
    archived with a timestamp suffix.  Returns the manifest path.

    Everything is serialized before the directory is touched, so a record
    that cannot be written leaves the directory as it was; manifest.json
    appears last and whole (temp file, then os.replace)."""
    h12 = record.config_hash[:12]
    csvs = [(f"{name}_{h12}.csv", header, _csv_text(header, rows))
            for name, header, rows in record.traces]
    csv_files = [{"file": fname, "columns": header} for fname, header, _ in csvs]
    manifest = {
        "schema": SCHEMA_VERSION,
        "tool_version": record.tool_version,
        "experiment": record.experiment,
        "config": record.config,
        "config_hash": record.config_hash,
        "propagator": record.propagator,
        "verdicts": record.verdicts,
        "outputs": record.outputs,
        "csv_files": csv_files,
    }
    manifest_text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        stamp = datetime.now().strftime("%Y%m%dT%H%M%S%f")
        manifest_path.rename(out / f"manifest.{stamp}.json")
    for fname, _, text in csvs:
        (out / fname).write_text(text)
    tmp_path = out / "manifest.json.tmp"
    tmp_path.write_text(manifest_text)
    os.replace(tmp_path, manifest_path)
    # wall time lives outside the manifest so reruns reproduce it bit for bit
    (out / "runinfo.json").write_text(json.dumps(
        {"wall_time_s": record.wall_time, "cpu_time_s": record.cpu_time,
         "children_peak_rss_mb": record.children_peak_rss_mb,
         "created": datetime.now().isoformat()}) + "\n")
    return manifest_path
