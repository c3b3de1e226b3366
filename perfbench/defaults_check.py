"""Traced runs of `scatter`, `sweep` and `repcheck` at the CLI defaults,
checked against the work counts recorded when the benchmark was defined.

    python3 perfbench/defaults_check.py

Run from the root of a checkout; takes a few minutes (the defaults are the
full-size experiments).  Each experiment runs traced in a fresh process.
Exit code 0 when every count matches, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, child_env

EXPECTED = {
    "scatter": {"modal.rhs_calls": 4280212, "modal.ivp_calls": 8},
    "sweep": {"modal.rhs_calls": 1832038, "modal.ivp_calls": 8},
    "repcheck": {"modal.rhs_calls": 884152, "diagonalize.q_nodes": 1324828,
                 "diagonalize.q_nodes_max": 216273, "diagonalize.q_calls": 20,
                 "diagonalize.series_frac": 1.0},
}


def traced_counts(experiment, out_dir):
    """In-process: the layer metrics of one traced CLI call at the defaults."""
    from fuchswave.cli import run_cli
    from tracing import Tracer

    tracer = Tracer(f"defaults-{experiment}")
    tracer.install()
    try:
        rc = tracer.run(run_cli, [experiment, "--out", out_dir])
    finally:
        tracer.uninstall()
    return {"rc": rc, **tracer.layer_metrics()}


def main():
    root = Path.cwd()
    ok = True
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for experiment, expected in EXPECTED.items():
            proc = subprocess.run(
                [sys.executable, str(HERE / "defaults_check.py"), "--one", experiment,
                 str(Path(tmp) / experiment)],
                cwd=root, env=child_env(root), capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{experiment}: FAILED\n{proc.stderr[-1000:]}")
                ok = False
                continue
            got = json.loads(proc.stdout.splitlines()[-1])
            for name, want in expected.items():
                match = got[name] == want
                ok &= match
                print(f"{experiment} {name} = {got[name]} (expected {want}) "
                      f"{'ok' if match else 'MISMATCH'}")
            print(f"{experiment} rc = {got['rc']}, traced ivp_s = {got['modal.ivp_s']:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(traced_counts(sys.argv[2], sys.argv[3])))
    else:
        sys.exit(main())
