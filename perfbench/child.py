"""One experiment call in a fresh process: generate the workload config, call
`fuchswave.cli.run_cli` with `--config` and `--out`, and write the timings to
`child.json` in the work directory.  With `--trace 1` the layers are wrapped
by `tracing.Tracer` around the call and the spans are written to
`spans.jsonl`.

The host's CPU speed drifts by up to 2x over seconds to minutes (other
tenants share the cores), which would swamp any bound on a wall time.  So a
timer signal runs a fixed probe every `PROBE_PERIOD_S` from the start of the
process (`SpeedProbe`), and the wall times of set-up and of the call, less
the probe's own time, are also reported rescaled to the speed at which the
probe takes `PROBE_REFERENCE_S`.  The probe mixes a pure-Python loop with
small-array numpy arithmetic like the program's ODE right-hand sides: the
numpy part alone tracked the wall time of scatter, sweep and repcheck calls
best, the Python loop alone that of spectral2d; the mix serves all four.

    python3 perfbench/child.py --workload W --variant V --work DIR --trace 0|1
"""

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_PERIOD_S = 0.02
PROBE_REFERENCE_S = 2e-4    # fixes the unit: a "second" at the speed where the probe takes 0.2 ms


class SpeedProbe:
    """CPU speed sampled from a timer signal: the time of a fixed probe."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 1.0, 24)
        self.samples = []                  # (start, duration) of each probe

    def _tick(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(1000):
            acc += i * i
        x = self.x
        for _ in range(15):
            self.np.concatenate((x, -(x * x + 0.5) * x - 0.3 * x))
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, start, end):
        """Probe seconds spent in [start, end) and the mean speed there,
        relative to the reference (0.5 when the loop took twice as long)."""
        durations = [d for t, d in self.samples if start <= t < end]
        return {"probe_s": sum(durations), "samples": len(durations),
                "speed": statistics.fmean(PROBE_REFERENCE_S / d for d in durations)
                if durations else None}


def main():
    probe = SpeedProbe()
    probe.start()
    boot = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    import numpy
    import scipy
    from fuchswave.cli import run_cli
    from workloads import EXPERIMENT, make_config

    work = Path(args.work)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(make_config(args.workload, args.variant),
                                      indent=1, sort_keys=True) + "\n")
    argv = [EXPERIMENT[args.workload], "--config", str(config_path),
            "--out", str(work / "out")]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()

    report = {"ready_wall": time.time(), "error": None, "rc": None}
    start = time.perf_counter()
    try:
        report["rc"] = tracer.run(run_cli, argv) if tracer else run_cli(argv)
    except Exception as exc:  # recorded as a failed call, not a crash of the bench
        report["error"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    probe.stop()
    report["run_wall_s"] = end - start
    report["probe_setup"] = probe.window(boot, start)
    report["probe_run"] = probe.window(start, end)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer:
        report["trace"] = {"restored": tracer.uninstall(),
                           "self_sum_s": tracer.self_time_sum(),
                           "layers": tracer.layer_metrics()}
        tracer.write_spans(work / "spans.jsonl")
    (work / "child.json").write_text(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
