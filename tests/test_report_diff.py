"""tools/report_diff.py: a nudged float is named by its column, and only it."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

from ncergo.scenario import canonical_json, emit_report, run_scenario, scenario_from_dict
from test_scenario import small_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def report_diff(old, new):
    out = subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                         capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


def test_report_diff_names_exactly_the_nudged_column(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    emit_report(run_scenario(scenario_from_dict(small_config())), ("structured", "tabular"),
                old)
    shutil.copytree(old, new)
    code, lines = report_diff(old, new)
    assert code == 0
    assert lines == [f"{p.name}: identical" for p in sorted(old.iterdir())]

    # one float of the averages table, in report.json and in averages.csv
    data = json.loads((new / "report.json").read_text())
    table = next(t for t in data["tasks"] if t["name"] == "average")["tables"][0]
    col = table["columns"].index("norm_p")
    table["rows"][5][col] *= 1.0 + 1e-9
    (new / "report.json").write_text(canonical_json(data) + "\n")
    with open(new / "averages.csv", newline="") as f:
        rows = list(csv.reader(f))
    rows[6][col] = repr(float(rows[6][col]) * (1.0 + 1e-9))
    with open(new / "averages.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)

    code, lines = report_diff(old, new)
    assert code == 1
    changed = [line for line in lines if not line.endswith(": identical")]
    assert [line.split(": ")[0] for line in changed] == [
        "averages.csv", "  averages.csv/norm_p", "report.json", "  average/averages/norm_p",
    ]
    assert all(line.endswith("floats changed: 1") for line in changed if line.startswith("  "))
    rel = float(changed[1].split("largest relative change ")[1].split(",")[0])
    assert 0.9e-9 < rel < 1.1e-9
