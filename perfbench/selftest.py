"""Checks of the benchmark itself.

    python3 perfbench/selftest.py [--workload W] [--variant V]

Run from the root of a checkout.  For one workload variant (default
`sweep` 0):

1. an untraced call passes the output check;
2. perturbing each CSV cell of the last row or one manifest output by a
   relative 1e-3, pushing a noise-level column past its limit, or failing
   one verdict, is flagged;
3. a rerun at half the oracle rtol still passes (the tolerance sits above
   integration noise) -- for workloads whose rtol comes from the config;
4. two traced calls give identical counts, their layer self times add up to
   the traced run, and every patched attribute was restored.

Exit code 0 when all hold.
"""

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

from check import NOISE_FIELDS, compare, load_outputs
from run import HERE, OUT_DIR, TRACE_COUNTS, call_failures, child_env, run_child
from workloads import EXPERIMENT, make_config

# workloads whose oracle rtol is read from tolerances.rtol
RTOL_FROM_CONFIG = ("sweep", "spectral2d")


def perturbations(got):
    """(label, perturbed copy) pairs that the check must flag: a relative
    1e-3 change of a compared value, a noise-level value beyond its limit,
    a failed verdict."""
    out = []
    name = sorted(got["traces"])[0]
    columns = got["traces"][name]["columns"].split(",")
    row = got["traces"][name]["rows"][-1]
    for j, col in enumerate(columns):
        if not isinstance(row[j], float) or row[j] == 0.0:
            continue
        bad = copy.deepcopy(got)
        if col in NOISE_FIELDS:
            bad["traces"][name]["rows"][-1][j] = 10.0 * NOISE_FIELDS[col]
            out.append((f"CSV cell {name}[-1].{col} = 10 x its limit", bad))
        else:
            bad["traces"][name]["rows"][-1][j] *= 1.0 + 1e-3
            out.append((f"CSV cell {name}[-1].{col} * (1 + 1e-3)", bad))
    numeric = [k for k, v in got["outputs"].items() if k not in NOISE_FIELDS
               and isinstance(v, (int, float)) and not isinstance(v, bool) and v != 0]
    if numeric:
        bad = copy.deepcopy(got)
        bad["outputs"][numeric[0]] *= 1.0 + 1e-3
        out.append((f"output {numeric[0]} * (1 + 1e-3)", bad))
    if got["verdicts"]:
        bad = copy.deepcopy(got)
        bad["verdicts"][sorted(bad["verdicts"])[0]] = False
        out.append(("one verdict failed", bad))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="sweep", choices=sorted(EXPERIMENT))
    parser.add_argument("--variant", type=int, default=0)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))    # the output check reads estimates
    base = root / OUT_DIR / "selftest"
    reference = json.loads((HERE / "references" / args.workload /
                            f"{args.variant}.json").read_text())
    ok = True

    def report(label, passed):
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}", flush=True)

    work = base / "plain"
    call = run_child(root, args.workload, args.variant, work, False, "selftest")
    failures = call_failures(args.workload, work, call, reference)
    report(f"untraced call passes the output check {failures}", not failures)
    got = load_outputs(work / "out")
    for label, bad in perturbations(got):
        errors = compare(bad, reference)
        report(f"flagged: {label} -> {errors[:1]}", bool(errors))

    if args.workload in RTOL_FROM_CONFIG:
        cfg = make_config(args.workload, args.variant)
        cfg["tolerances"] = {"rtol": 5e-10}
        work = base / "half_rtol"
        work.mkdir(parents=True, exist_ok=True)
        (work / "config.json").write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "fuchswave.cli", EXPERIMENT[args.workload],
             "--config", str(work / "config.json"), "--out", str(work / "out")],
            cwd=root, env=child_env(root), capture_output=True, text=True, check=False)
        errors = compare(load_outputs(work / "out"), reference)
        report(f"half-rtol rerun (exit {proc.returncode}) passes the check {errors[:3]}",
               proc.returncode == 0 and not errors)

    layers = []
    for i in range(2):
        work = base / f"traced{i}"
        call = run_child(root, args.workload, args.variant, work, True, f"selftest/{i}")
        failures = call_failures(args.workload, work, call, reference)
        report(f"traced call {i}: check, self-time sum and restore of "
               f"{call.get('trace', {}).get('restored')} attributes {failures}",
               not failures)
        layers.append(call.get("trace", {}).get("layers", {}))
    differ = [n for n in TRACE_COUNTS if n in layers[0]
              and layers[0].get(n) != layers[1].get(n)]
    report(f"counts identical across two traced calls (differ: {differ})", not differ)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
