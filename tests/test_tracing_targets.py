"""The benchmark tracer's targets still resolve in the package.

bench/tracing.py rebinds the functions named in SPANS and wraps the
attributes named in COUNTERS; a target that moved or was renamed would break
`bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_and_counter_targets_resolve():
    tracing = load_tracing()
    for module, attr, _ in tracing.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, attr, _ in tracing.COUNTERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), (module, cls, attr)
