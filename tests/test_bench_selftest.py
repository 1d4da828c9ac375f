"""The benchmark's self-test passes on the package as it stands.

bench/selftest.py runs each workload's reduced variant in process and checks
the reports against references computed outside the package; a package
change that breaks those checks fails here before it fails a benchmark run.
The test only reads bench/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-test passed"
