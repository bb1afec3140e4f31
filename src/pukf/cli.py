"""Command-line front end for benchmark campaigns.

Exit codes: 0 on success, 2 for configuration problems, 3 for I/O
problems writing or reading report files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigError, ReportIoError
from .harness import (
    FILTERS,
    SCENARIOS,
    CampaignConfig,
    emit_report,
    format_report,
    run_campaign,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pukf-bench",
        description="Monte Carlo filter benchmarks over the built-in scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign")
    run.add_argument("--config", help="JSON config file; flags override its values")
    run.add_argument("--scenario", help="scenario name (see list-scenarios)")
    run.add_argument(
        "--filters",
        help="comma-separated filter specs, e.g. pukf@0.1,pukf@1,ekf2,ruf@3",
    )
    run.add_argument("--runs", type=int, help="number of Monte Carlo runs")
    run.add_argument("--steps", type=int, help="steps per run (default 10)")
    run.add_argument("--seed", type=int, help="master seed (default 0)")
    run.add_argument(
        "--ref-particles",
        type=int,
        dest="ref_particles",
        help="particle count for the KL reference; 0 disables KL (default)",
    )
    run.add_argument("--jobs", type=int, help="concurrent runs (default 1)")
    run.add_argument("--out", help="report path; stdout if omitted")
    run.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
    run.add_argument(
        "--include-timing",
        action="store_true",
        default=None,
        dest="include_timing",
        help="add wall-clock rows (makes output non-deterministic)",
    )

    sub.add_parser("list-scenarios", help="print scenario names")
    sub.add_parser("list-filters", help="print filter specs and parameters")
    return parser


def _merge_config(args) -> CampaignConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(values, dict):
            raise ConfigError("config file must contain a JSON object")

    keys = [f.name for f in dataclasses.fields(CampaignConfig)]
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    unknown = set(values) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "scenario" not in values:
        raise ConfigError("a scenario is required (--scenario or config file)")
    values.setdefault("filters", ())

    try:
        return CampaignConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.command == "list-filters":
        for name in sorted(FILTERS):
            entry = FILTERS[name]
            spec = f"{name}@<{entry.param_name}>" if entry.param_name else name
            print(f"{spec:24s} {entry.doc}")
        return 0

    try:
        cfg = _merge_config(args)
        report, _ = run_campaign(cfg)
        if cfg.out:
            emit_report(report, cfg.out, cfg.format)
            print(f"wrote {cfg.out}", file=sys.stderr)
        else:
            sys.stdout.write(format_report(report, cfg.format))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReportIoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
