"""Scenario benchmark for ncergo: end-to-end timings, per-layer spans, and
output checks against references computed outside the program.

    python3 bench/run.py --workload pinch_run --seed 20260815 --seconds 36 --trace 0

Run from the repository root. The work runs in fresh interpreters (see
child.py), each doing what `ncergo run --out DIR --format both` does, with
a small untimed warm-up scenario first. With --trace 0, several set-up-only
interpreters time `import ncergo` plus parsing, then one interpreter repeats
rounds of `run_scenario` plus `emit_report` for about --seconds, and the
end-to-end metrics (medians over the set-up samples and over the rounds)
are printed. With --trace 1 pairs of one plain and one traced single-round
interpreter repeat instead and the per-layer metrics are printed. In both
modes the last round's report is checked by oracles.py. An operation is
one scenario task in one round; it fails when its status is not ok, when a
check on its output fails, or when its round's report bytes differ from
the checked one. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(env: dict, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncergo" / "__init__.py").is_file() or not (
        ROOT / "configs"
    ).is_dir():
        print(f"error: no ncergo sources (src/ncergo, configs/) under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    work = ROOT / ".bench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "report"
    out_dir.mkdir(parents=True)
    config = workloads.build(args.workload, ROOT, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, **{v: threads for v in THREAD_VARS})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"BLAS threads capped at {threads} via {', '.join(THREAD_VARS)}")

    small_path = work / "warmup.json"
    small_path.write_text(json.dumps(
        workloads.build(args.workload, ROOT, args.seed, size="small"), indent=1))

    def rounds(seconds: float, *extra: str) -> dict:
        return _child(env, "rounds", str(config_path), str(out_dir),
                      "--seconds", str(seconds), "--warmup", str(small_path),
                      *extra)

    setups, plain, traced = [], [], []
    if args.trace:
        # pairs of one plain and one traced round, while another pair fits
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(rounds(0.0))
            spans = work / f"spans-{len(traced)}.json"
            traced.append(rounds(0.0, "--spans", str(spans)))
            now = time.perf_counter()
            if now - started + (now - t0) > args.seconds:
                break
    else:
        setups = [_child(env, "setup", str(config_path))
                  for _ in range(SETUP_SAMPLES)]
        plain.append(rounds(args.seconds))
    run_times = [t for r in plain for t in r["run_s"]]
    traced_times = [t for r in traced for t in r["run_s"]]

    report_bytes = (out_dir / "report.json").read_bytes()
    checked_sha = hashlib.sha256(report_bytes).hexdigest()
    checks = oracles.check_report(args.workload, config, json.loads(report_bytes))
    bad_tasks = {c.task for c in checks if not c.passed}
    for c in checks:
        print(f"  {'ok  ' if c.passed else 'FAIL'} {c.task:12s} {c.name}: "
              f"worst {c.deviation:.3g} (tolerance {c.tolerance:.3g})")

    attempted = failed = 0
    shas = [h for r in plain + traced for h in r["report_sha256"]]
    statuses = [st for r in plain + traced for st in r["status"]]
    for sha, status_of in zip(shas, statuses):
        for task, status in status_of.items():
            attempted += 1
            failed += status != "ok" or task in bad_tasks or sha != checked_sha
    correct = not bad_tasks and all(sha == checked_sha for sha in shas)

    if args.trace:
        layers = traced[0]["layers"]
        for rnd in traced[1:]:
            for name, value in rnd["layers"].items():
                if units[name] != "s" and value != layers[name]:
                    print(f"  FAIL count {name} differs between traced rounds")
                    correct = False
        values = {
            name: (_median(r["layers"][name] for r in traced)
                   if units[name] == "s" else value)
            for name, value in layers.items()
        }
        values["cli.import_s"] = _median(r["import_s"] for r in traced)
        values["scenario.parse_s"] = _median(r["parse_s"] for r in traced)
        values["trace.run_s"] = _median(traced_times)
        values["trace.untraced_run_s"] = _median(run_times)
        values["trace.overhead_pct"] = 100.0 * (
            values["trace.run_s"] / values["trace.untraced_run_s"] - 1.0)
        names = [m["name"] for m in spec["per_layer"]]
        print(f"  traced rounds {len(traced)}, plain rounds {len(plain)}; "
              f"run_s traced {values['trace.run_s']:.4f} s vs untraced "
              f"{values['trace.untraced_run_s']:.4f} s "
              f"({values['trace.overhead_pct']:+.1f}% tracing overhead); "
              f"spans in {work.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": _median([s["setup_s"] for s in setups]
                               + [r["setup_s"] for r in plain]),
            "run_s": _median(run_times),
            "peak_rss_mb": plain[0]["peak_rss_mb"],
        }
        names = [m["name"] for m in spec["end_to_end"]]
        print(f"  rounds {len(run_times)}: run_s "
              + " ".join(f"{t:.3f}" for t in run_times)
              + f"; setup samples {len(setups) + len(plain)}")

    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    for n in names:
        print(f"  {n} = {values[n]:.6g} {units[n]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
