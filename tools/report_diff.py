#!/usr/bin/env python3
"""Compare two report directories written by `ncergo run`.

    python3 tools/report_diff.py OLD_DIR NEW_DIR

For each file in either directory it prints `<file>: identical` or
`<file>: changed`, followed by one indented line per change:

- report.json: each changed top-level key, summary key
  (`<task>/summary/<key>`) and table column (`<task>/<table>/<column>`);
- a CSV: each changed column (`<file>/<column>`);
- any other file: the file's tokens, as one entry.

Where every changed value is a float on at least one side, the line gives
the largest relative change |new - old| / max(|old|, |new|) and the largest
absolute one. Any other change (strings, integers, booleans, differing
lengths) is listed verbatim, old -> new. Strings whose numeric tokens are
the only difference, such as a projection's text, count as floats.

Plain JSON and CSV only; ncergo is not imported. Exits 0 when every file
is identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from pathlib import Path

_TOKEN = re.compile(r"[\s,;]+")


def _number(v):
    """v as a float when it is a float, an int, or a string that parses as
    one; None otherwise. Booleans are not numbers."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _is_int(v) -> bool:
    if isinstance(v, bool):
        return False
    if isinstance(v, int):
        return True
    return isinstance(v, str) and re.fullmatch(r"[+-]?\d+", v) is not None


class _Change:
    """The changes of one named item: float moves and verbatim differences."""

    def __init__(self):
        self.rel = self.abs = 0.0
        self.floats = 0
        self.verbatim: list[str] = []

    def add(self, old, new, where: str = "") -> None:
        if (isinstance(old, str) and isinstance(new, str) and _number(old) is None
                and _tokens_match(old, new)):
            for x, y in zip(_TOKEN.split(old), _TOKEN.split(new)):
                self._scalar(x, y, where)
        else:
            self._scalar(old, new, where)

    def _scalar(self, old, new, where: str) -> None:
        if old == new:
            return
        a, b = _number(old), _number(new)
        if a is not None and b is not None and not (_is_int(old) and _is_int(new)):
            diff = abs(b - a)
            self.rel = max(self.rel, diff / max(abs(a), abs(b)))
            self.abs = max(self.abs, diff)
            self.floats += 1
        else:
            self.verbatim.append(f"{where}{old!r} -> {new!r}")

    def lines(self, name: str) -> list[str]:
        out = []
        if self.floats:
            out.append(f"  {name}: largest relative change {self.rel:.3g}, "
                       f"absolute {self.abs:.3g}; floats changed: {self.floats}")
        out.extend(f"  {name}: {v}" for v in self.verbatim)
        return out


def _tokens_match(old: str, new: str) -> bool:
    """Same token count, and every differing token pair is numeric."""
    a, b = _TOKEN.split(old), _TOKEN.split(new)
    return len(a) == len(b) and all(
        x == y or (_number(x) is not None and _number(y) is not None)
        for x, y in zip(a, b)
    )


def _column_lines(name: str, old: list, new: list) -> list[str]:
    change = _Change()
    if len(old) != len(new):
        change.verbatim.append(f"{len(old)} rows -> {len(new)} rows")
    for i, (a, b) in enumerate(zip(old, new)):
        change.add(a, b, f"row {i}: ")
    return change.lines(name)


def _matched(old: dict, new: dict, name: str, out: list[str]):
    """(key, old value, new value) for each key of both dicts, in key order;
    a key of one dict only gets its line in out."""
    for key in sorted(set(old) | set(new)):
        if key in old and key in new:
            yield key, old[key], new[key]
        else:
            out.append(f"  {name}{key}: only in {'new' if key in new else 'old'}")


def _value_lines(name: str, old, new) -> list[str]:
    """Changes of a JSON value; dicts recurse into name/key."""
    if isinstance(old, dict) and isinstance(new, dict):
        out: list[str] = []
        for key, a, b in _matched(old, new, f"{name}/", out):
            out.extend(_value_lines(f"{name}/{key}", a, b))
        return out
    if isinstance(old, list) and isinstance(new, list):
        return _column_lines(name, old, new)
    change = _Change()
    change.add(old, new)
    return change.lines(name)


def _table_lines(name: str, old: dict, new: dict) -> list[str]:
    if old["columns"] != new["columns"]:
        return [f"  {name}: columns {old['columns']!r} -> {new['columns']!r}"]
    out = []
    for j, col in enumerate(old["columns"]):
        out.extend(_column_lines(f"{name}/{col}", [r[j] for r in old["rows"]],
                                 [r[j] for r in new["rows"]]))
    return out


def _by_name(items: list[dict]) -> dict:
    return {t["name"]: t for t in items}


def _report_lines(old: dict, new: dict) -> list[str]:
    out: list[str] = []
    for key, a, b in _matched(old, new, "", out):
        if key != "tasks":
            out.extend(_value_lines(key, a, b))
    for task, a, b in _matched(_by_name(old.get("tasks", [])), _by_name(new.get("tasks", [])),
                               "task ", out):
        for key, x, y in _matched(a, b, f"{task}/", out):
            if key not in ("name", "tables"):
                out.extend(_value_lines(f"{task}/{key}", x, y))
        for tab, x, y in _matched(_by_name(a["tables"]), _by_name(b["tables"]),
                                  f"{task}/", out):
            out.extend(_table_lines(f"{task}/{tab}", x, y))
    return out


def _csv_lines(name: str, old: str, new: str) -> list[str]:
    a = list(csv.reader(io.StringIO(old)))
    b = list(csv.reader(io.StringIO(new)))
    if not a or not b or a[0] != b[0]:
        return [f"  {name}: header {a[:1]!r} -> {b[:1]!r}"]
    out = []
    for j, col in enumerate(a[0]):
        out.extend(_column_lines(f"{name}/{col}", [r[j] for r in a[1:]],
                                 [r[j] for r in b[1:]]))
    return out


def file_lines(name: str, old: bytes, new: bytes) -> list[str]:
    """The lines printed for one file present in both directories."""
    if old == new:
        return [f"{name}: identical"]
    a, b = old.decode(), new.decode()
    if name.endswith(".json"):
        body = _report_lines(json.loads(a), json.loads(b))
    elif name.endswith(".csv"):
        body = _csv_lines(name, a, b)
    else:
        body = _value_lines(name, a, b)
    # bytes can differ where values do not (formatting only)
    return [f"{name}: changed"] + (body or ["  bytes differ, values equal"])


def diff_dirs(old_dir: Path, new_dir: Path) -> list[str]:
    files = sorted(
        {p.relative_to(old_dir).as_posix() for p in old_dir.rglob("*") if p.is_file()}
        | {p.relative_to(new_dir).as_posix() for p in new_dir.rglob("*") if p.is_file()}
    )
    out = []
    for name in files:
        a, b = old_dir / name, new_dir / name
        if not a.is_file() or not b.is_file():
            out.append(f"{name}: only in {'NEW_DIR' if b.is_file() else 'OLD_DIR'}")
        else:
            out.extend(file_lines(name, a.read_bytes(), b.read_bytes()))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    lines = diff_dirs(old_dir, new_dir)
    print("\n".join(lines))
    return 0 if all(line.endswith(": identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
