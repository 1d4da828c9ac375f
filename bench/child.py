"""One fresh interpreter doing what `ncergo run --out DIR --format both` does.

    python3 bench/child.py setup CONFIG
    python3 bench/child.py rounds CONFIG OUT_DIR --seconds S --warmup SMALL
                                  [--spans FILE]

`setup` times `import ncergo` plus parsing CONFIG into a ScenarioConfig.
`rounds` does the same set-up, runs the scenario SMALL once untimed (so
lazy imports and first-call costs are paid), then repeats rounds of
`run_scenario` plus `emit_report` in both formats into OUT_DIR, each timed.
It starts another round only while the last one would still end within S
seconds of the first round's start, so a run stays close to S. With
--spans it runs exactly one round, traced: the benchmark's tracer is
installed after the warm-up, the spans are written to FILE and per-layer
metrics are added. The last stdout line is one JSON object with the
measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _setup(config_path: Path):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import ncergo.cli  # noqa: F401  (the entry point `ncergo run` loads)
    from ncergo import scenario

    t1 = time.perf_counter()
    data = json.loads(config_path.read_text())
    config = scenario.scenario_from_dict(data, base_dir=config_path.parent)
    t2 = time.perf_counter()
    return scenario, config, {"import_s": t1 - t0, "parse_s": t2 - t1,
                              "setup_s": t2 - t0}


def _round(scenario, config, out: Path) -> tuple[float, dict]:
    t0 = time.perf_counter()
    report = scenario.run_scenario(config)
    scenario.emit_report(report, ("structured", "tabular"), out)
    return time.perf_counter() - t0, {t.name: t.status for t in report.tasks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "rounds"))
    parser.add_argument("config", type=Path)
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--warmup", type=Path, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    scenario, config, result = _setup(args.config)
    if args.mode == "rounds":
        if args.warmup is not None:
            small = scenario.scenario_from_dict(
                json.loads(args.warmup.read_text()), base_dir=args.warmup.parent)
            _round(scenario, small, args.out / "warmup")
        tracer = None
        if args.spans is not None:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result.update(run_s=[], status=[], report_sha256=[])
        started = time.perf_counter()
        while True:
            run_s, status = _round(scenario, config, args.out)
            result["run_s"].append(run_s)
            result["status"].append(status)
            result["report_sha256"].append(hashlib.sha256(
                (args.out / "report.json").read_bytes()).hexdigest())
            elapsed = time.perf_counter() - started
            if tracer is not None or elapsed + run_s > args.seconds:
                break
        if tracer is not None:
            tracer.write(args.spans)
            result["layers"] = tracer.metrics()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
