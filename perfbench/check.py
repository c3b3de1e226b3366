"""Output check of one experiment call against the stored reference set.

Every verdict must pass.  Manifest outputs and CSV traces must match the
reference of the same workload variant within `REL_TOL * |ref| + ABS_TOL *
max|ref column|`.  Rerunning at a tighter oracle rtol moves the outputs by
at most 5e-6 relative (the scattering residuals; 6e-9 elsewhere), so the
tolerance sits well above integration noise while a 1e-3 change anywhere is
flagged.  Noise-level error columns only have to stay below the program's
own acceptance limit.  For `spectral2d` the t = 0 box norms must also match the
continuum radial norms of the same profile (`estimates.radial_norm`), a
second code path.
"""

from __future__ import annotations

import json
from pathlib import Path

REL_TOL = 1e-4
ABS_TOL = 1e-8
# columns and outputs that measure integration noise: bounded, not compared
NOISE_FIELDS = {"rel_error": 1e-6, "worst_rel_error": 1e-6}
BOX_NORM_TOL = 1e-6


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def load_outputs(out_dir):
    """Verdicts, outputs and CSV traces of a persisted run."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    traces = {}
    for entry in manifest["csv_files"]:
        lines = (out_dir / entry["file"]).read_text().splitlines()
        name = entry["file"].rsplit("_", 1)[0]   # strip the config-hash suffix
        traces[name] = {"columns": lines[0],
                        "rows": [[_cell(c) for c in line.split(",")] for line in lines[1:]]}
    return {"verdicts": manifest["verdicts"], "outputs": manifest["outputs"],
            "traces": traces}


def _close(got, ref, scale):
    return abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL * scale


def _compare_value(path, got, ref, scale, errors):
    key = path.rsplit(".", 1)[-1]
    if key in NOISE_FIELDS and isinstance(got, float):
        if not abs(got) <= NOISE_FIELDS[key]:
            errors.append(f"{path} = {got!r} exceeds {NOISE_FIELDS[key]}")
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if not (isinstance(got, (int, float)) and not isinstance(got, bool)
                and _close(got, ref, scale if scale is not None else abs(ref))):
            errors.append(f"{path} = {got!r}, reference {ref!r}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path} = {got!r}, reference {ref!r}")
        else:
            for i, (g, r) in enumerate(zip(got, ref)):
                _compare_value(f"{path}[{i}]", g, r, scale, errors)
    elif got != ref:
        errors.append(f"{path} = {got!r}, reference {ref!r}")


def compare(got, ref):
    """Mismatches between a run's outputs and its reference, as messages."""
    errors = [f"verdict {k} failed" for k, ok in got["verdicts"].items() if not ok]
    if set(got["verdicts"]) != set(ref["verdicts"]):
        errors.append(f"verdicts {sorted(got['verdicts'])} != {sorted(ref['verdicts'])}")
    if set(got["outputs"]) != set(ref["outputs"]):
        errors.append(f"outputs {sorted(got['outputs'])} != {sorted(ref['outputs'])}")
    for key in set(got["outputs"]) & set(ref["outputs"]):
        _compare_value(f"outputs.{key}", got["outputs"][key], ref["outputs"][key],
                       None, errors)
    if set(got["traces"]) != set(ref["traces"]):
        errors.append(f"traces {sorted(got['traces'])} != {sorted(ref['traces'])}")
    for name in set(got["traces"]) & set(ref["traces"]):
        g, r = got["traces"][name], ref["traces"][name]
        if g["columns"] != r["columns"] or len(g["rows"]) != len(r["rows"]):
            errors.append(f"{name}: shape or columns differ from the reference")
            continue
        columns = r["columns"].split(",")
        for j, col in enumerate(columns):
            ref_col = [row[j] for row in r["rows"]]
            numeric = [abs(x) for x in ref_col if isinstance(x, float)]
            scale = max(numeric, default=0.0)
            for i, row in enumerate(g["rows"]):
                _compare_value(f"{name}[{i}].{col}", row[j], ref_col[i], scale, errors)
    return errors


def box_norm_errors(config, got):
    """t = 0 box norms of a spectral run against the continuum radial norms."""
    import numpy as np
    from fuchswave.estimates import DataSpec, radial_norm

    spec = DataSpec(**config["data"])
    lo, hi = spec.support_interval()
    r = np.linspace(lo, hi, 20001)
    prof = spec.profile(r)
    n_dim = config["grid"]["n_dim"]
    expected = {"u_over_1pt": radial_norm(spec.amp0 * prof, r, n_dim),
                "grad": radial_norm(r * spec.amp0 * prof, r, n_dim),
                "ut": radial_norm(spec.amp1 * prof, r, n_dim)}
    trace = got["traces"]["simulate_trace"]
    columns = trace["columns"].split(",")
    first = dict(zip(columns, trace["rows"][0]))
    errors = []
    if first["t"] != 0.0:
        errors.append("simulate trace does not start at t = 0")
    for col, want in expected.items():
        rel = abs(first[col] - want) / want
        if not rel <= BOX_NORM_TOL:
            errors.append(f"t=0 box norm {col} = {first[col]!r} vs continuum {want!r} "
                          f"(rel {rel:.2e})")
    return errors


def check_run(workload, work_dir, reference):
    """All output-check failures of one call, as messages."""
    work_dir = Path(work_dir)
    config = json.loads((work_dir / "config.json").read_text())
    if config != reference["config"]:
        return ["generated config differs from the reference config"]
    got = load_outputs(work_dir / "out")
    errors = compare(got, reference)
    if workload == "spectral2d":
        errors += box_norm_errors(config, got)
    return errors
