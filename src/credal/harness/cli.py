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
import dataclasses
import json
import sys
from typing import get_args

from credal.estimation import Regime
from credal.harness.config import (
    EXPERIMENTS,
    ConfigError,
    load_config,
    preset_config,
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
        p.add_argument("--jobs", type=int, default=1, help="parallel replication workers")
        if name == "certificate":
            p.add_argument("--annotations", help="annotation file to certify")
            p.add_argument("--regime", choices=get_args(Regime), help="certificate regime tag")
    return parser


def _assemble_config(args: argparse.Namespace):
    if args.config:
        config = load_config(args.config)
        if config.experiment != args.experiment:
            raise ConfigError(
                f"config file is for {config.experiment!r} but the CLI asked for {args.experiment!r}"
            )
        if args.preset and args.preset != config.preset:
            raise ConfigError("--preset conflicts with the preset recorded in the config file")
    else:
        config = preset_config(args.experiment, args.preset or "desk", seed=args.seed or 0)
    if args.delta is not None:
        doc = config.document()
        doc["delta"] = args.delta
        config = validate_config(doc)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.experiment == "certificate":
        params = dict(config.params)
        if getattr(args, "annotations", None):
            params["annotations"] = args.annotations
        if getattr(args, "regime", None):
            params["regime"] = args.regime
        config = dataclasses.replace(config, params=params)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
