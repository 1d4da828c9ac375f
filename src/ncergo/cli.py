"""Command line harness: run scenario tasks and emit deterministic reports.

Subcommands map one-to-one onto scenario tasks (plus `run` for the full
configured set). A single-task subcommand pulls in its dependency closure,
so `certify` runs verify and average first. Option overrides are merged
into the config before parsing, which keeps the report digest honest: it
always identifies the effective scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, NcError
from .scenario import (
    TOOL_VERSION,
    emit_report,
    report_to_text,
    run_scenario,
    scenario_from_dict,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncergo",
        description="weighted ergodic averages over matrix algebras: "
                    "verification, averaging, maximal bounds, certificates",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {TOOL_VERSION}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="scenario JSON file")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="output directory; omit to print the structured "
                             "report to stdout")
    common.add_argument("--format", choices=("structured", "tabular", "both"),
                        default="structured")
    common.add_argument("--seed-override", type=int, default=None,
                        metavar="U64", help="replace the config seed")
    common.add_argument("--budget", type=int, default=None, metavar="POINTS",
                        help="lattice-point budget per evaluation")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common],
                   help="check the contraction tuple")
    sub.add_parser("average", parents=[common],
                   help="weighted averages over the configured box")

    p_max = sub.add_parser("maximal", parents=[common],
                           help="dominant-element ladder")
    p_max.add_argument("--p", type=float, default=None, dest="p_value")
    p_max.add_argument("--cutoffs", type=_int_list, default=None,
                       metavar="C1,C2,...")

    p_bes = sub.add_parser("besicovitch", parents=[common],
                           help="weight discrepancy verification")
    p_bes.add_argument("--epsilon", type=float, default=None)
    p_bes.add_argument("--cutoff", type=_int_list, default=None,
                       metavar="N1,...,Nd")
    p_bes.add_argument("--onset", type=int, default=None)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="tail smallness certificates")
    p_cert.add_argument("--epsilon", type=float, default=None)
    p_cert.add_argument("--onsets", type=_int_list, default=None,
                        metavar="N1,N2,...")

    sub.add_parser("run", parents=[common], help="all configured tasks")
    return parser


def _apply_override(data: dict, keys: tuple[str, ...], value) -> None:
    d = data
    for k in keys[:-1]:
        nxt = d.get(k)
        if not isinstance(nxt, dict):
            nxt = {}
            d[k] = nxt
        d = nxt
    d[keys[-1]] = value


def _collect_overrides(args) -> list[tuple[tuple[str, ...], object]]:
    overrides: list[tuple[tuple[str, ...], object]] = []
    if args.seed_override is not None:
        overrides.append((("seed",), args.seed_override))
    if args.budget is not None:
        overrides.append((("budget",), args.budget))
    if args.command == "maximal":
        if args.p_value is not None:
            overrides.append((("p",), args.p_value))
        if args.cutoffs is not None:
            overrides.append((("cutoffs",), args.cutoffs))
    elif args.command == "besicovitch":
        if args.epsilon is not None:
            overrides.append((("besicovitch", "epsilon"), args.epsilon))
        if args.cutoff is not None:
            overrides.append((("besicovitch", "cutoff"), args.cutoff))
        if args.onset is not None:
            overrides.append((("besicovitch", "onset"), args.onset))
    elif args.command == "certify":
        if args.epsilon is not None:
            overrides.append((("certify", "epsilon"), args.epsilon))
        if args.onsets is not None:
            overrides.append((("certify", "onsets"), args.onsets))
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    path = Path(args.config)
    try:
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        for keys, value in _collect_overrides(args):
            _apply_override(data, keys, value)
        config = scenario_from_dict(data, base_dir=path.parent)
        tasks = None if args.command == "run" else [args.command]
        report = run_scenario(config, tasks)
    except NcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for t in report.tasks:
        line = f"[{t.status}] {t.name}"
        if t.error:
            line += f": {t.error}"
        print(line, file=sys.stderr)
    print(f"wall clock: {report.wall_clock_seconds:.3f}s", file=sys.stderr)

    if args.out is not None:
        fmts = ("structured", "tabular") if args.format == "both" else (args.format,)
        for written in emit_report(report, fmts, args.out):
            print(f"wrote {written}", file=sys.stderr)
    else:
        sys.stdout.write(report_to_text(report))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
