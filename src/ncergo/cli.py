"""Command line harness: run scenario tasks and emit deterministic reports.

Subcommands map one-to-one onto scenario tasks (plus `run` for the full
configured set). A single-task subcommand pulls in its dependency closure,
so `certify` runs verify and average first. Option overrides are merged
into the config before parsing, which keeps the report digest honest: it
always identifies the effective scenario.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, NcError
from .scenario import (
    TOOL_VERSION,
    _read_config,
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
        d = d.setdefault(k, {})
        if not isinstance(d, dict):  # a malformed block is reported, never replaced
            raise ConfigError(f"malformed config: {k!r} is not an object, so "
                              f"{'.'.join(keys)} cannot be overridden")
    d[keys[-1]] = value


# (subcommand, or None for every one; its argument; the config keys it sets),
# applied in this order when the argument is given
_OVERRIDES = (
    (None, "seed_override", ("seed",)),
    (None, "budget", ("budget",)),
    ("maximal", "p_value", ("p",)),
    ("maximal", "cutoffs", ("cutoffs",)),
    ("besicovitch", "epsilon", ("besicovitch", "epsilon")),
    ("besicovitch", "cutoff", ("besicovitch", "cutoff")),
    ("besicovitch", "onset", ("besicovitch", "onset")),
    ("certify", "epsilon", ("certify", "epsilon")),
    ("certify", "onsets", ("certify", "onsets")),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    path = Path(args.config)
    try:
        data = _read_config(path)
        for command, arg, keys in _OVERRIDES:
            if command in (None, args.command) and getattr(args, arg) is not None:
                _apply_override(data, keys, getattr(args, arg))
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
        try:
            paths = emit_report(report, fmts, args.out)
        except OSError as exc:
            print(f"error: cannot write reports to {args.out}: {exc}", file=sys.stderr)
            return 2
        for written in paths:
            print(f"wrote {written}", file=sys.stderr)
    else:
        sys.stdout.write(report_to_text(report))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
