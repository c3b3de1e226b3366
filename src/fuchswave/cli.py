"""Command-line interface.

One subcommand per entry of experiments.EXPERIMENTS, which gives its help
line, its flags (each sets a config field its experiment reads) and its
demonstration defaults.  A JSON config (--config) is merged into the
defaults field by field, and the flags override it.  Results land under
--out as manifest.json plus CSV traces.

Exit codes: 0 all verdicts pass, 2 some verdict failed, 1 error (a usage
error included).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coeffs import PURE
from .errors import ConfigError
from .experiments import EXPERIMENTS, ExperimentConfig, persist, run_experiment


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


# value flags: config field each one overrides, and its help text
_VALUE_FLAGS = {
    "b0": (("model", "b0"), None),
    "m0": (("model", "m0"), None),
    "sigma": (("model", "sigma"), None),
    "N": (("zone", "N"), "zone constant"),
    "tfinal": (("times", "t_final"), None),
    "tol": (("tolerances", "rtol"), "oracle relative tolerance"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuchswave",
        description="Numerical experiments for damped wave equations with "
                    "time-decaying dissipation and mass")
    sub = parser.add_subparsers(dest="command")
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.help)
        p.add_argument("--config", help="JSON experiment description")
        p.add_argument("--out", help="output directory for manifest + CSVs")
        for flag in experiment.flags:
            if flag == "strict":
                p.add_argument("--strict", action="store_true",
                               help="escalate resolution warnings to errors")
            else:
                p.add_argument(f"--{flag}", type=float, help=_VALUE_FLAGS[flag][1])
    return parser


def _assemble_config(args):
    raw = json.loads(json.dumps(EXPERIMENTS[args.command].defaults))
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed config {args.config}: line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        # a block of another family or data kind replaces the default block
        for name, tag in (("model", "family"), ("data", "kind")):
            block = loaded.get(name)
            if (name in raw and isinstance(block, dict) and tag in block
                    and block[tag] != raw[name].get(tag, PURE)):
                del raw[name]
        _deep_update(raw, loaded)
    raw["experiment"] = args.command

    for flag, (path, _) in _VALUE_FLAGS.items():
        val = getattr(args, flag, None)
        if val is not None:
            raw.setdefault(path[0], {})[path[1]] = val
    if getattr(args, "strict", False):
        raw["strict"] = True
    return ExperimentConfig.from_dict(raw)


def _print_record(record):
    if record.experiment == "classify":
        out = record.outputs
        mp, mm = out["mu_plus"], out["mu_minus"]
        print(f"mu+ = {mp[0]:+.6g}{mp[1]:+.6g}i")
        print(f"mu- = {mm[0]:+.6g}{mm[1]:+.6g}i")
        print(f"regime: {out['case']}  dominant exponent {out['dominant_exponent']:+.6g}")
        return
    for name, ok in record.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    for key, val in record.outputs.items():
        if isinstance(val, float):
            print(f"  {key} = {val:.6g}")


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error returns 1, because 2 means a verdict failed
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        cfg = _assemble_config(args)
        record = run_experiment(cfg)
        _print_record(record)
        if args.out:
            print(f"wrote {persist(record, args.out)}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, not a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if record.verdicts and not record.all_pass:
        return 2
    return 0


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
