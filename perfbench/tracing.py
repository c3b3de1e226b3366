"""Layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each fuchswave layer,
and the scipy/numpy entry points the layers call (`modal.solve_ivp`,
`diagonalize.solve_ivp`, `numpy.fft.ifftn`), with wrappers that time every
call on a frame stack.  A wrapper adds its duration minus its children's to
its layer's self time, so the self times of all layers plus the `uncovered`
remainder of the root frame add up to the traced run exactly.  Calls at layer
boundaries also become span records (name, start, end, parent, run id) held
in memory and written out at the end; hot leaves called per right-hand side
or per coefficient evaluation are only counted and timed.
`Tracer.uninstall()` puts every original attribute back.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []                    # (span_id, parent_id, name, start, end)
        self.stack = []                    # frames: [name, layer, start, child_s, span_id]
        self.self_s = defaultdict(float)   # per layer
        self.total_s = defaultdict(float)  # inclusive, per wrapped name
        self.counts = defaultdict(int)
        self.q_nodes = []
        self._patched = []                 # (owner, attr, original)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, layer, span=True, after=None):
        stack, self_s, total_s, counts, spans = (
            self.stack, self.self_s, self.total_s, self.counts, self.spans)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent_span = stack[-1][4] if stack else None
            span_id = len(spans) if span else parent_span
            if span:
                spans.append(None)           # reserve the id in call order
            frame = [name, layer, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self_s[layer] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                total_s[name] += dur
                counts[name] += 1
                if span:
                    spans[span_id] = (span_id, parent_span, name, frame[2], end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_function(self, module, attr, layer, span=True, after=None):
        """Wrap a module-level function everywhere fuchswave imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, f"{layer}.{attr}", layer, span, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("fuchswave") and \
                    getattr(mod, attr, None) is original:
                self.patch(mod, attr, wrapper)

    def patch_method(self, cls, attr, layer, span=True, after=None):
        original = cls.__dict__[attr]
        self.patch(cls, attr, self.wrap(original, f"{layer}.{cls.__name__}.{attr}",
                                        layer, span, after))

    def uninstall(self):
        """Restore every patched attribute; returns how many were restored."""
        patched = self._patched[::-1]
        self._patched = []
        for owner, attr, original in patched:
            setattr(owner, attr, original)
        for owner, attr, original in patched:
            now = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        return len(patched)

    # -- the layers -----------------------------------------------------------

    def install(self):
        import numpy as np
        from fuchswave import coeffs, diagonalize, estimates, experiments, modal, solver, zones

        counts = self.counts
        for attr in ("b", "m", "b_jet", "m_jet", "lam", "integral_b"):
            self.patch_method(coeffs.CoefficientModel, attr, "coeffs", span=False)
        for attr in ("classify_regime", "predicted_decay", "check_hypotheses"):
            self.patch_function(coeffs, attr, "coeffs", span=False)

        for attr in ("theta", "classify", "cutoffs", "micro_weight", "sharp_weight",
                     "theta_derivative"):
            self.patch_function(zones, attr, "zones", span=False)

        def ivp_counter(layer):
            def after(args, kwargs, sol):
                y0 = args[2] if len(args) > 2 else kwargs["y0"]
                counts[f"{layer}.ivp_rhs"] += sol.nfev
                counts[f"{layer}.ivp_mode_rhs"] += sol.nfev * (len(y0) // 2)
                counts[f"{layer}.ivp_failed"] += int(not sol.success)
                if self.stack and self.stack[-1][0] == "modal.evolve_state":
                    counts["modal.bands"] += 1
            return after

        for mod, layer in ((modal, "modal"), (diagonalize, "diagonalize")):
            rhs_name = f"{layer}.rhs"

            def ivp(fun, *args, _orig=mod.solve_ivp, _rhs=rhs_name, _layer=layer, **kwargs):
                return _orig(self.wrap(fun, _rhs, _layer, span=False), *args, **kwargs)

            self.patch(mod, "solve_ivp", self.wrap(ivp, f"{layer}.solve_ivp", layer,
                                                   after=ivp_counter(layer)))

        def evolve_after(args, kwargs, result):
            if self.stack and self.stack[-1][1] == "solver":
                counts["solver.modes"] += len(args[1])

        self.patch_function(modal, "evolve_state", "modal", after=evolve_after)
        for attr in ("integrate_fundamental", "propagator_checkpoints",
                     "state_propagator_checkpoints", "weighted_propagator",
                     "propagator_norm_trace", "scale_invariant_norm_traces",
                     "check_cocycle", "evolve_micro_energy", "dump_trajectory"):
            self.patch_function(modal, attr, "modal")
        self.patch_function(modal, "spectral_norm", "modal", span=False)

        q_nodes = self.q_nodes = []       # quadrature nodes per q_propagator call
        open_nodes = [0]

        def q_after(args, kwargs, res):
            counts["diagonalize.series"] += int(res.path == "series")
            q_nodes.append(open_nodes[0])
            open_nodes[0] = 0

        def generator_after(args, kwargs, G):
            if any(f[0] == "diagonalize.q_propagator" for f in self.stack):
                open_nodes[0] += math.prod(G.shape[:-2])

        self.patch_function(diagonalize, "q_propagator", "diagonalize", after=q_after)
        for attr in ("build_stage", "assemble_representation", "assemble_from_boundary",
                     "q_limit", "min_zone_constant"):
            self.patch_function(diagonalize, attr, "diagonalize")
        for attr in ("free_phase", "preliminary_transform"):
            self.patch_function(diagonalize, attr, "diagonalize", span=False)
        self.patch_method(diagonalize.DiagonalizationStage, "q_generator", "diagonalize",
                          span=False, after=generator_after)
        self.patch_method(diagonalize.DiagonalizationStage, "N_total", "diagonalize",
                          span=False)

        for attr in ("scattering_residual", "scattering_operator", "energy_trace",
                     "fit_decay", "sharpness_limit", "moment_experiment",
                     "improved_u_bound", "grid_for_data", "radial_grid",
                     "free_micro_propagator", "lp_lq_rate", "moment_parameters"):
            self.patch_function(estimates, attr, "estimates")
        self.patch_function(estimates, "radial_norm", "estimates", span=False)
        self.patch_method(estimates.DataSpec, "profile", "estimates", span=False)

        self.patch_function(solver, "simulate_fields", "solver")

        def fft_after(args, kwargs, out):
            n = out.size
            counts["solver.fft_points"] += n
            counts["solver.fft_flop"] += 5.0 * n * math.log2(n)

        self.patch(np.fft, "ifftn", self.wrap(np.fft.ifftn, "solver.fft", "solver",
                                              after=fft_after))

        for attr in ("run_experiment", "persist", "config_hash"):
            self.patch_function(experiments, attr, "experiments")
        self.patch(experiments.ExperimentConfig, "from_dict", classmethod(self.wrap(
            experiments.ExperimentConfig.from_dict.__func__,
            "experiments.ExperimentConfig.from_dict", "experiments")))

    def run(self, fn, *args):
        """Call fn under the root frame; its self time is the uncovered rest."""
        return self.wrap(fn, "run", "uncovered")(*args)

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        c, t, s = self.counts, self.total_s, self.self_s
        q_calls = c["diagonalize.q_propagator"]
        ivp_s = t["modal.solve_ivp"]
        return {
            "coeffs.calls": c["coeffs.CoefficientModel.b"] + c["coeffs.CoefficientModel.m"],
            "coeffs.jet_calls": (c["coeffs.CoefficientModel.b_jet"]
                                 + c["coeffs.CoefficientModel.m_jet"]),
            "coeffs.self_s": s["coeffs"],
            "zones.calls": sum(v for k, v in c.items() if k.startswith("zones.")),
            "zones.self_s": s["zones"],
            "modal.ivp_calls": c["modal.solve_ivp"],
            "modal.rhs_calls": c["modal.ivp_rhs"],
            "modal.mode_rhs": c["modal.ivp_mode_rhs"],
            "modal.ivp_failed": c["modal.ivp_failed"],
            "modal.ivp_s": ivp_s,
            "modal.rhs_s": t["modal.rhs"],
            "modal.stepper_s": ivp_s - t["modal.rhs"],
            "modal.evolve_calls": c["modal.evolve_state"],
            "modal.bands": c["modal.bands"],
            "modal.oracle_s": t["modal.integrate_fundamental"],
            "modal.trace_s": t["modal.propagator_norm_trace"],
            "modal.self_s": s["modal"],
            "diagonalize.stage_s": t["diagonalize.build_stage"],
            "diagonalize.q_calls": q_calls,
            "diagonalize.q_s": t["diagonalize.q_propagator"],
            "diagonalize.symbol_s": (t["diagonalize.DiagonalizationStage.q_generator"]
                                     + t["diagonalize.DiagonalizationStage.N_total"]),
            "diagonalize.assemble_s": t["diagonalize.assemble_representation"],
            "diagonalize.q_nodes": sum(self.q_nodes),
            "diagonalize.q_nodes_max": max(self.q_nodes, default=0),
            "diagonalize.series_frac": c["diagonalize.series"] / q_calls if q_calls else 0.0,
            "diagonalize.ode_rhs_calls": c["diagonalize.ivp_rhs"],
            "diagonalize.self_s": s["diagonalize"],
            "estimates.self_s": s["estimates"],
            "estimates.radial_norm_calls": c["estimates.radial_norm"],
            "solver.fft_calls": c["solver.fft"],
            "solver.fft_s": t["solver.fft"],
            "solver.fft_points": c["solver.fft_points"],
            "solver.fft_gflop": c["solver.fft_flop"] / 1e9,
            "solver.modes": c["solver.modes"],
            "solver.self_s": s["solver"],
            "experiments.self_s": s["experiments"],
            "experiments.persist_s": t["experiments.persist"],
            "trace.uncovered_s": s["uncovered"],
            "trace.spans": len(self.spans),
        }

    def self_time_sum(self):
        return sum(self.self_s.values())

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
