"""The README's examples run as written, on the shipped configs."""

import re
import shlex
from pathlib import Path

import pytest

from ncergo.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if not lang
            for line in body.splitlines() if line.startswith("ncergo ")]


def test_readme_has_examples():
    assert [lang for lang, _ in BLOCKS].count("python") == 1
    assert COMMANDS


def test_readme_python_example_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(tmp_path, command):
    args = shlex.split(command)[1:]
    for flag, where in (("--config", ROOT), ("--out", tmp_path)):
        if flag in args:
            i = args.index(flag) + 1
            args[i] = str(where / args[i])
    assert cli_main(args) == 0
