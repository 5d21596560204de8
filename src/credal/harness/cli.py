"""Command-line entry point.

Usage::

    credal <experiment> [--config FILE] [--out DIR] [--seed N]
                        [--preset desk|paper] [--delta D] [--jobs K]
    credal certificate --annotations FILE [--delta D] [--regime R] [--out DIR]

Exit codes: 0 on success, 2 on configuration errors (with schema
diagnostics), 1 on numerical failure (with the offending coordinates).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import get_args

from credal.estimation import Regime
from credal.harness.config import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    load_config,
    validate_config,
)
from credal.harness.experiments import ExperimentError, run
from credal.measures import QuadratureError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credal",
        description="Structured credal set experiments: diameters, certificates, robust training.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (overlays the preset)")
        p.add_argument("--out", default=f"out/{name}", help="output directory")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--preset", choices=("desk", "paper"), help="scale preset (default desk)")
        p.add_argument("--delta", type=float, help="confidence parameter")
        replicated = "diameter_ablation, noise_ablation, sample_complexity and mechanism_complexity"
        p.add_argument("--jobs", type=int, default=1, help=f"parallel replication workers for {replicated}")
        if name == "certificate":
            p.add_argument("--annotations", help="annotation file to certify")
            p.add_argument("--regime", choices=get_args(Regime), help="certificate regime tag")
    return parser


def _assemble_config(args: argparse.Namespace):
    """The preset or the config file's document, with the flags laid over it, validated once."""
    if args.config:
        doc = load_config(args.config).document()
        if doc["experiment"] != args.experiment:
            raise ConfigError(
                f"config file is for {doc['experiment']!r} but the CLI asked for {args.experiment!r}"
            )
        if args.preset and args.preset != doc["preset"]:
            raise ConfigError("--preset conflicts with the preset recorded in the config file")
    else:
        doc = {"schema_version": SCHEMA_VERSION, "experiment": args.experiment, "preset": args.preset or "desk"}
    flags = {"seed": args.seed, "delta": args.delta}
    doc.update({key: value for key, value in flags.items() if value is not None})
    params = {key: getattr(args, key, None) for key in ("annotations", "regime")}
    doc["params"] = {**doc.get("params", {}), **{key: value for key, value in params.items() if value}}
    return validate_config(doc)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        config = _assemble_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run(config, args.out, jobs=args.jobs)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    if config.experiment == "certificate":
        summary = json.loads(open(manifest["summary"]).read())
        print(json.dumps(summary["certificate"], indent=2, sort_keys=True))
    else:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
