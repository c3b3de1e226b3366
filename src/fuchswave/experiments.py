"""Experiment configuration, dispatch and result persistence.

A single JSON document (schema 1) describes a run; unknown fields are
rejected.  Results are persisted as a deterministic manifest plus one CSV per
trace, file names derived from the config hash.  Wall time is tracked on the
record but kept out of the manifest so identical configs rewrite identical
manifests bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import pickle
import signal
import threading
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__, asymptotic, diagonalize, estimates, modal, zones
from .coeffs import PURE, CoefficientModel, classify_regime, predicted_decay
from .errors import ConfigError, RegimeUnsupportedError, SeriesRangeError, StiffnessError
from .estimates import DataSpec, fit_decay, grid_for_data
from .solver import Grid, simulate_fields
from .zones import ZoneConfig

SCHEMA_VERSION = 1

EXPERIMENTS = ("simulate", "classify", "sweep", "scatter", "moments",
               "levinson", "hw", "repcheck")

# representative cells for the four qualitative rows of the slow-zone /
# oscillatory-zone rate table (sigma = 1)
DEFAULT_SWEEP_CELLS = ((2.0, 2.0, 1.0), (2.0, 0.25, 1.0),
                       (3.0, 0.8, 1.0), (3.0, 0.0, 1.0))


_TOP_KEYS = {"schema", "experiment", "model", "zone", "data", "grid", "n_dim",
             "times", "tolerances", "sweep_cells", "strict",
             "seed", "xi", "steps"}
# accepted and ignored: never changed a result; older manifests carry them
_IGNORED_KEYS = {"threads", "freq_samples"}


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
# the JSON type of a block field by its annotation; others (tables) pass as given
_FIELD_KINDS = {"int": _INTEGER, "float": _NUMBER, "bool": _FLAG, "str": _TEXT}
# cells are stored as given: floats would change the config hash of integer cells
_CELLS = ("a list of [b0, m0, sigma] number lists",
          lambda v: type(v) is list and all(type(c) is list and len(c) == 3
                                            and all(map(_NUMBER[1], c)) for c in v),
          lambda v: tuple(map(tuple, v)))


def _read(value, kind, where):
    what, valid, store = kind
    if not valid(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return store(value)


def _read_block(d, cls, where):
    """The fields of a model/data/grid block, each read with the JSON type of
    its annotation in cls; unknown fields are rejected."""
    block = dict(d)
    kinds = {f.name: _FIELD_KINDS.get(f.type) for f in fields(cls)}
    _reject_unknown(block, set(kinds), where)
    return {k: v if kinds[k] is None else _read(v, kinds[k], f"{where}.{k}")
            for k, v in block.items()}


@dataclass
class ExperimentConfig:
    experiment: str
    model: CoefficientModel
    zone: ZoneConfig
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
        d = dict(d)
        _reject_unknown(d, _TOP_KEYS | _IGNORED_KEYS, "config")
        if d.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema {d.get('schema')!r}")
        exp = d.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
        model_d = _read_block(d.get("model", {}), CoefficientModel, "config.model")
        try:
            model = CoefficientModel.from_json(model_d) if model_d else CoefficientModel()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad model block: {exc}") from exc
        zone_d = dict(d.get("zone", {}))
        _reject_unknown(zone_d, {"N"}, "config.zone")
        zone = ZoneConfig(**{k: _read(v, _NUMBER, f"zone.{k}") for k, v in zone_d.items()})
        data = None
        if d.get("data"):
            data = DataSpec(**_read_block(d["data"], DataSpec, "config.data"))
        grid = None
        if d.get("grid"):
            grid = Grid(**_read_block(d["grid"], Grid, "config.grid"))
        times = dict(d.get("times", {}))
        _reject_unknown(times, {"t_final", "checkpoints"}, "config.times")
        tols = dict(d.get("tolerances", {}))
        _reject_unknown(tols, {"rtol", "fit"}, "config.tolerances")
        # (block, key, field, JSON type) of every plain field; an absent key
        # keeps the dataclass default
        given = ((d, "n_dim", "n_dim", _INTEGER), (times, "t_final", "t_final", _NUMBER),
                 (times, "checkpoints", "checkpoints", _INTEGER),
                 (tols, "rtol", "rtol", _NUMBER), (tols, "fit", "fit_tol", _NUMBER),
                 (d, "sweep_cells", "sweep_cells", _CELLS), (d, "strict", "strict", _FLAG),
                 (d, "seed", "seed", _INTEGER), (d, "xi", "xi", _NUMBER),
                 (d, "steps", "steps", _INTEGER))
        return cls(experiment=exp, model=model, zone=zone, data=data, grid=grid,
                   **{name: _read(block[key], kind, key) for block, key, name, kind in given
                      if key in block})

    def canonical(self):
        base = {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "model": json.loads(self.model.to_json()),
            "zone": {"N": self.zone.N},
            "n_dim": self.n_dim,
            "times": {"t_final": self.t_final, "checkpoints": self.checkpoints},
            "tolerances": {"rtol": self.rtol, "fit": self.fit_tol},
            "sweep_cells": [list(c) for c in self.sweep_cells],
            "strict": self.strict,
            "seed": self.seed,
            "xi": self.xi,
            "steps": self.steps,
        }
        if self.data is not None:
            base["data"] = asdict(self.data)
        if self.grid is not None:
            base["grid"] = asdict(self.grid)
        return base


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
    times = np.unique(np.concatenate([[0.0], np.geomspace(1.0, cfg.t_final,
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
    data = cfg.data or DataSpec(kind="ring", center=0.6, width=0.5,
                                amp0=1.0, amp1=0.7)
    grid = grid_for_data(data, lo=0.05, hi=4.0 * cfg.zone.N, n_points=48,
                         n_refine=120)
    res = estimates.scattering_residual(cfg.model, cfg.zone, data, grid,
                                        horizon=cfg.t_final, n_dim=cfg.n_dim,
                                        rtol=cfg.rtol)
    rows = np.column_stack([res.times, res.residual_dt, res.residual_grad])
    verdicts = {"residuals_decay": res.passed}
    outputs = {"final_dt": float(res.residual_dt[-1]),
               "final_grad": float(res.residual_grad[-1]),
               "w_sup_norm": float(np.linalg.svd(res.W_samples, compute_uv=False)[:, 0].max())}
    return verdicts, outputs, [("scattering_residuals", "t,residual_dt,residual_grad", rows)]


def run_moments(cfg):
    cmp = estimates.moment_experiment(cfg.model, cfg.zone, n_dim=cfg.n_dim,
                                      window=(1e2, cfg.t_final), rtol=cfg.rtol)
    verdicts = {"generic_rate": cmp.generic_fit.verdict,
                "moment_rate": cmp.moment_fit.verdict}
    outputs = {
        "kappa": cmp.moment_data.kappa,
        "kappa_prime": cmp.moment_data.kappa_prime,
        "zero_order": cmp.moment_data.zero_order,
        "generic_fit": cmp.generic_fit.exponent,
        "generic_predicted": cmp.generic_fit.predicted,
        "moment_fit": cmp.moment_fit.exponent,
        "moment_predicted": cmp.moment_fit.predicted,
        "weighted_integral": cmp.moment_data.weighted_integral,
    }
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


def _fork_map(fn, items, costs):
    """[fn(x) for x in items] on this process and one os.fork() child per further
    CPU in the affinity mask (processes: the mode solves' Python right-hand sides
    hold the GIL); serial on one CPU, without fork, or beside another thread.
    Items are dealt longest-processing-time first on costs, ties to the lowest
    share.  An item that raises ends its share; the lowest-index error is raised."""
    n = min(len(items), len(getattr(os, "sched_getaffinity", lambda pid: ())(0)))
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    shares, loads = [[] for _ in range(n)], [0.0] * n
    for i in sorted(range(len(items)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]

    def run(share):   # (index, ok, value or exception), up to the first error
        out = []
        for i in sorted(share):
            try:
                out.append((i, True, fn(items[i])))
            except Exception as exc:
                return out + [(i, False, exc)]
        return out

    pids, pipes = [], []
    try:
        for share in filter(None, shares[1:]):
            r, w = map(os.fdopen, os.pipe(), ("rb", "wb"))
            pipes.append((r, len(share)))
            with w:
                if (pid := os.fork()) == 0:   # one pickle, then exit with no cleanup
                    try:
                        out = run(share)
                        if not out[-1][1]:   # an exception that will not pickle goes as its repr
                            try:
                                pickle.dumps(out[-1][2])
                            except Exception:
                                out[-1] = out[-1][:2] + (RuntimeError(repr(out[-1][2])),)
                        w.write(pickle.dumps(out))
                        w.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
        done = run(shares[0])
        blobs = [r.read() for r, _ in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r, _ in pipes:
            r.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for (_, size), blob, code in zip(pipes, blobs, codes):
        got = pickle.loads(blob) if blob else []
        if not got or got[-1][1] and len(got) < size:
            raise RuntimeError(f"a forked child ended with exit status {code} "
                               "without a full result")
        done += got
    failed = min((row for row in done if not row[1]), default=None)
    if failed:
        raise failed[2]
    return [value for _, _, value in sorted(done)]


def run_repcheck(cfg):
    stage = diagonalize.build_stage(cfg.model, cfg.steps, cfg.zone)
    rng = np.random.default_rng(cfg.seed)
    N = cfg.zone.N
    points = []
    for _ in range(20):
        xi = float(np.exp(rng.uniform(math.log(N), math.log(8.0 * N))))
        s = float(rng.uniform(0.0, 50.0))
        points.append((s, s + float(np.exp(rng.uniform(math.log(10.0), math.log(1e3)))), xi))

    def rel_error(point):
        s, t, xi = point
        E_rep = diagonalize.assemble_representation(stage, s, t, xi)
        sysm = modal.ModalSystem(cfg.model, cfg.zone, xi, modal.FORM_HYP)
        E_orc = modal.integrate_fundamental(sysm, s, t, tol=1e-12)
        return (modal.spectral_norm(E_rep.entries - E_orc.entries)
                / modal.spectral_norm(E_orc.entries))

    # both the oracle's steps and Q_k's nodes scale with the phase xi (t - s)
    rels = _fork_map(rel_error, points, [xi * (t - s) for s, t, xi in points])
    rows = [point + (rel,) for point, rel in zip(points, rels)]
    worst = max(0.0, *rels)
    verdicts = {"representation_identity": worst <= 1e-6}
    return verdicts, {"worst_rel_error": worst}, [
        ("repcheck_points", "s,t,xi,rel_error", rows)]


_RUNNERS = {
    "classify": run_classify,
    "simulate": run_simulate,
    "sweep": run_sweep,
    "scatter": run_scatter,
    "moments": run_moments,
    "levinson": run_levinson,
    "hw": run_hw,
    "repcheck": run_repcheck,
}


def _propagator(cfg):
    """modal.propagator_label of the experiment's mode solves; sweep cells are
    scale-invariant, and repcheck, levinson and hw integrate with DOP853 only."""
    if cfg.experiment == "classify":
        return "none"
    if cfg.experiment in ("simulate", "scatter", "moments"):
        return modal.propagator_label(cfg.model.family)
    return modal.propagator_label(PURE if cfg.experiment == "sweep" else None)


def run_experiment(cfg):
    start = time.perf_counter()
    verdicts, outputs, traces = _RUNNERS[cfg.experiment](cfg)
    return ResultRecord(
        config=cfg.canonical(), config_hash=config_hash(cfg),
        experiment=cfg.experiment, verdicts=verdicts, outputs=outputs,
        traces=traces, wall_time=time.perf_counter() - start,
        propagator=_propagator(cfg),
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
        {"wall_time_s": record.wall_time,
         "created": datetime.now().isoformat()}) + "\n")
    return manifest_path
