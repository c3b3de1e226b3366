"""fuchswave benchmark: four experiment workloads through the public CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each experiment call runs in a fresh
process (`child.py`), one at a time, with BLAS/OpenMP capped to one thread
and the program at its defaults (`threads=1`).  Calls repeat while the next
one is expected to end within `--seconds`; every call's outputs are checked
against the reference set (`check.py`).  The last line of standard output is
one JSON object:

- `--trace 0`: medians over the calls of the end-to-end metrics `run_s`
  (the experiment call, cold, untraced), `setup_s` (interpreter start to
  just before the call) and `peak_rss_mb`; the fastest and slowest call are
  printed alongside.  Both times are wall seconds rescaled to a reference
  CPU speed sampled during the call (`child.SpeedProbe`); the plain wall
  seconds are printed as `run_wall_s` and `setup_wall_s`;
- `--trace 1`: untraced and traced calls alternate; the per-layer metrics
  come from the traced calls (`tracing.py`), `trace.overhead` is traced over
  untraced `run_s`, and counts must repeat exactly between traced calls.

`failed` / `attempted` is the failure fraction: calls that raised, exited
non-zero, failed a verdict or failed the output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_run  # noqa: E402
from workloads import GENERATORS, variant_of  # noqa: E402

THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHILD_TIMEOUT_S = 120
MIN_CALLS = 2           # untraced runs; a traced run makes traced, plain, traced
OUT_DIR = ".perfbench_out"

# count metrics of the traced calls; they must repeat exactly
TRACE_COUNTS = (
    "coeffs.calls", "coeffs.jet_calls", "zones.calls", "modal.ivp_calls",
    "modal.rhs_calls", "modal.mode_rhs", "modal.ivp_failed", "modal.evolve_calls",
    "modal.bands", "diagonalize.q_calls", "diagonalize.q_nodes",
    "diagonalize.q_nodes_max", "diagonalize.series_frac", "diagonalize.ode_rhs_calls",
    "estimates.radial_norm_calls", "solver.fft_calls", "solver.fft_points",
    "solver.fft_gflop", "solver.modes", "experiments.out_bytes", "trace.spans")
UNITS = {"_s": "s", "_mb": "MB", "_frac": "ratio", "_gflop": "GFLOP-computed",
         "_bytes": "B", ".overhead": "ratio"}


def unit_of(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def child_env(root):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "FUCHSWAVE_THREADS")}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root, workload, variant, work, trace, run_id):
    """One fresh-process experiment call; returns the child's report."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--variant", str(variant), "--work", str(work), "--trace", str(int(trace)),
           "--run-id", run_id]
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err:
        spawned = time.time()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"timeout after {CHILD_TIMEOUT_S} s"}
    report_path = work / "child.json"
    if proc.returncode != 0 or not report_path.exists():
        tail = (work / "stderr.txt").read_text()[-400:]
        return {"error": f"child exit {proc.returncode}: {tail}"}
    report = json.loads(report_path.read_text())
    report["setup_wall_s"] = report["ready_wall"] - spawned
    for name, probe in (("setup", report["probe_setup"]), ("run", report["probe_run"])):
        if probe["speed"] is None:
            return {"error": f"no CPU speed sample during {name}"}
        report[f"{name}_s"] = (report[f"{name}_wall_s"] - probe["probe_s"]) * probe["speed"]
    return report


def call_failures(workload, work, report, reference):
    """Why one call counts as failed (empty when it passed)."""
    if report.get("error"):
        return [report["error"]]
    if report["rc"] != 0:
        return [f"run_cli returned {report['rc']}"]
    try:
        errors = check_run(workload, work, reference)
    except Exception as exc:  # unreadable or missing outputs fail the call
        errors = [f"output check raised {type(exc).__name__}: {exc}"]
    trace = report.get("trace")
    if trace:
        wall = report["run_wall_s"]
        if abs(trace["self_sum_s"] - wall) > 1e-3 * wall + 1e-3:
            errors.append(f"layer self times sum to {trace['self_sum_s']:.6f} s, "
                          f"the traced call took {wall:.6f} s")
        if trace["restored"] == 0:
            errors.append("tracer patched nothing")
    return errors


def git_commit(root):
    """HEAD of the checkout's own .git, if it has one (read, not executed)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fuchswave" / "cli.py").is_file():
        print(f"no fuchswave sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))    # the output check reads estimates
    variant = variant_of(args.seed)
    reference = json.loads((HERE / "references" / args.workload /
                            f"{variant}.json").read_text())
    run_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_id = f"{args.workload}-{args.seed}-{int(time.time() * 1e3)}"

    calls = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 0
        work = run_dir / f"call{len(calls)}"
        call_start = time.perf_counter()
        report = run_child(root, args.workload, variant, work, traced,
                           f"{run_id}/{len(calls)}")
        report["traced"] = traced
        report["failures"] = call_failures(args.workload, work, report, reference)
        if traced and not report["failures"]:
            # the persisted results; runinfo.json holds wall-clock values
            report["trace"]["layers"]["experiments.out_bytes"] = sum(
                p.stat().st_size for p in (work / "out").iterdir()
                if p.name != "runinfo.json")
        calls.append(report)
        state = "ok" if not report["failures"] else "FAILED: " + "; ".join(report["failures"])
        print(f"call {len(calls) - 1}{' traced' if traced else ''}: " + " ".join(
            f"{k}={report.get(k, float('nan')):.4f}"
            for k in ("run_s", "run_wall_s", "setup_s", "setup_wall_s")) + f" {state}",
            flush=True)
        # start another call only if it can end inside the measuring window;
        # past the window a failed call ends the run even below the minimum
        last = time.perf_counter() - call_start
        if time.perf_counter() - start + last > args.seconds and \
                (len(calls) >= MIN_CALLS + args.trace or report["failures"]):
            break

    good = [c for c in calls if not c["failures"]]
    plain = [c for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]
    failed = len(calls) - len(good)
    problems = []
    if args.trace:
        # layer times in the same rescaled seconds as run_s
        layers = [{name: value * c["run_s"] / c["run_wall_s"] if unit_of(name) == "s"
                   else value for name, value in c["trace"]["layers"].items()}
                  for c in traced]
        metrics = {name: layers[0][name] if name in TRACE_COUNTS
                   else median([m[name] for m in layers])
                   for name in layers[0]} if layers else {}
        for name in TRACE_COUNTS:
            if len({m[name] for m in layers}) > 1:
                problems.append(f"count {name} differs between traced calls")
        metrics["trace.overhead"] = (median([c["run_s"] for c in traced])
                                     / median([c["run_s"] for c in plain])
                                     if traced and plain else float("nan"))
        metrics["trace.run_s"] = median([c["run_s"] for c in traced])
    else:
        metrics = {name: median([c[name] for c in plain])
                   for name in ("run_s", "setup_s", "peak_rss_mb")}
        for name in ("run_s", "run_wall_s", "setup_s", "setup_wall_s"):
            values = [c[name] for c in plain]
            if values:
                print(f"{name} over {len(values)} calls: min {min(values):.4f} "
                      f"median {median(values):.4f} max {max(values):.4f} s")
    if not good or (args.trace and not (traced and plain)):
        problems.append("no successful call of each kind")

    versions = next((c["versions"] for c in calls if "versions" in c), {})
    provenance = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "seconds": args.seconds, "trace": args.trace, "run_id": run_id,
        "git_commit": git_commit(root), "src_sha256_16": src_digest(root),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS, **versions,
    }
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"fail_frac = {failed}/{len(calls)} = {failed / len(calls):.3f}")
    for problem in problems:
        print(f"problem: {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics, "calls": calls,
         "problems": problems}, indent=1, default=str) + "\n")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(calls),
        "failed": failed,
        # a metric no call could measure reads 0 next to "correct": false
        "metrics": {name: {"value": 0.0 if value != value else value,
                           "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
