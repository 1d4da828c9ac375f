"""Self-test of the output checks at reduced size.

    python3 bench/selftest.py [--seed N]

For each workload's small variant: run the scenario in process, confirm
every check passes on the program's output, then move one reported value
by 1e-6 relative (an averages trace at the box corner, a certificate
tail_sup, a maximal norm) and confirm that a check on that task fails.
Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from ncergo.scenario import report_to_text, run_scenario, scenario_from_dict  # noqa: E402

NUDGE = 1e-6


def _table(report: dict, name: str):
    for task in report["tasks"]:
        for tab in task["tables"]:
            if tab["name"] == name:
                return tab
    return None


def _mutations(report: dict, upper: tuple[int, ...]):
    """(label, task, mutated report) for each value the self-test moves."""
    corner = "(" + ",".join(str(u) for u in upper) + ")"
    for table, task, column in (("averages", "average", "trace_re"),
                                ("certify", "certify", "tail_sup"),
                                ("maximal", "maximal", "norm")):
        if _table(report, table) is None:
            continue
        bad = copy.deepcopy(report)
        tab = _table(bad, table)
        row = tab["rows"][0]
        if table == "averages":
            at = tab["columns"].index("index")
            row = next(r for r in tab["rows"] if r[at] == corner)
        row[tab["columns"].index(column)] *= 1.0 + NUDGE
        yield f"{table}.{column} x (1 + {NUDGE:g})", task, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    problems = 0
    for name in workloads.WORKLOADS:
        config = workloads.build(name, ROOT, args.seed, size="small")
        report = json.loads(report_to_text(run_scenario(scenario_from_dict(config))))
        checks = oracles.check_report(name, config, report)
        failing = [c for c in checks if not c.passed]
        print(f"{name}: {len(checks) - len(failing)}/{len(checks)} checks pass "
              "on the program's output")
        for c in failing:
            print(f"  FAIL {c.task} {c.name}: {c.deviation:.3g} > {c.tolerance:.3g}")
        problems += len(failing)
        upper = tuple(config["box"]["upper"])
        for label, task, bad in _mutations(report, upper):
            caught = [c for c in oracles.check_report(name, config, bad)
                      if not c.passed and c.task == task]
            print(f"  {label}: " + (
                "caught by " + "; ".join(f"{c.name} ({c.deviation:.3g})" for c in caught)
                if caught else "NOT CAUGHT"))
            problems += not caught
    print("self-test " + ("passed" if problems == 0 else f"FAILED ({problems})"))
    return 0 if problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
