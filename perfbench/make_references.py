"""Regenerate the reference outputs of every workload variant.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Each variant runs once through `child.py`, exactly as the
benchmark runs it; the verdicts, manifest outputs and CSV traces are stored in
`references/<workload>/<variant>.json` together with the generated config.
"""

import json
import shutil
import sys
from pathlib import Path

from check import load_outputs
from run import HERE, OUT_DIR, run_child
from workloads import GENERATORS, VARIANTS


def main(workloads):
    root = Path.cwd()
    for workload in workloads or sorted(GENERATORS):
        target = HERE / "references" / workload
        target.mkdir(parents=True, exist_ok=True)
        for variant in range(VARIANTS):
            work = root / OUT_DIR / "references" / workload / str(variant)
            report = run_child(root, workload, variant, work, False, "reference")
            if report.get("error") or report["rc"] != 0:
                sys.exit(f"{workload} variant {variant} failed: "
                         f"{report.get('error') or report['rc']}")
            ref = load_outputs(work / "out")
            if not all(ref["verdicts"].values()):
                sys.exit(f"{workload} variant {variant} fails a verdict: {ref['verdicts']}")
            ref["config"] = json.loads((work / "config.json").read_text())
            (target / f"{variant}.json").write_text(json.dumps(ref, indent=1) + "\n")
            print(f"{workload} {variant}: run_s={report['run_s']:.2f}", flush=True)
            shutil.rmtree(work)


if __name__ == "__main__":
    main(sys.argv[1:])
