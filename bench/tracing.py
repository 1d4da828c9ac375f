"""Spans and counters around the calls into each ncergo layer.

The program is not changed: `Tracer.install()` rebinds the public functions
listed in SPANS (in every loaded ncergo module that imported them) to
wrappers that record one span per call, and wraps a few hot entry points
in plain counters, where a span per call would cost more than the call.
Spans are kept in memory as (name, parent, start, end) and written out once
at the end; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name); the layer is the part before the dot
SPANS = (
    ("ncergo.scenario", "run_scenario", "scenario.run_scenario"),
    ("ncergo.scenario", "emit_report", "scenario.emit_report"),
    ("ncergo.algebra", "lp_norm", "algebra.lp_norm"),
    ("ncergo.averages", "weighted_average_grid", "averages.weighted_average_grid"),
    ("ncergo.averages", "limit_oracle", "averages.limit_oracle"),
    ("ncergo.contraction", "verify_absolute_contraction",
     "contraction.verify_absolute_contraction"),
    ("ncergo.contraction", "cesaro_limit_projection",
     "contraction.cesaro_limit_projection"),
    ("ncergo.weights", "verify_besicovitch", "weights.verify_besicovitch"),
    ("ncergo.weights", "eval_weight_box", "weights.eval_weight_box"),
    ("ncergo.maximal", "dominant_element", "maximal.dominant_element"),
    ("ncergo.maximal", "maximal_inequality_report", "maximal.maximal_inequality_report"),
    ("ncergo.maximal", "interpolation_check", "maximal.interpolation_check"),
    ("ncergo.bau", "onset_ladder", "bau.onset_ladder"),
    ("ncergo.bau", "certify_bau", "bau.certify_bau"),
    ("ncergo.bau", "certify_bau_complex", "bau.certify_bau_complex"),
)

# (module, class or None, attribute, counter name)
COUNTERS = (
    ("ncergo.algebra", "Element", "__init__", "algebra.elements_built"),
    ("ncergo.contraction", "AbsoluteContraction", "apply", "contraction.apply_calls"),
    ("numpy.linalg", None, "eigh", "linalg.eigh_calls"),
    ("numpy.linalg", None, "eigvalsh", "linalg.eigvalsh_calls"),
    ("numpy.linalg", None, "svd", "linalg.svd_calls"),
)

EXACT_METHODS = ("commuting_exact", "single_exact", "infinity_exact")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.gap_max = 0.0
        self.final_lambda = 0.0

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_emit(self, written):
        self.counts["scenario.report_bytes"] += sum(Path(p).stat().st_size
                                                    for p in written)

    def _on_grid(self, family):
        self.counts["averages.map_applications"] += family.applications

    def _on_dominant(self, rep):
        self.counts["maximal.dominant_iterations"] += rep.iterations
        if rep.method in EXACT_METHODS:
            self.counts["maximal.exact_calls"] += 1
        else:
            self.counts["maximal.descent_calls"] += 1
        self.gap_max = max(self.gap_max, float(rep.gap))

    def _on_ladder(self, certs):
        self.counts["bau.certificates"] += len(certs)
        if certs:
            self.final_lambda = float(certs[-1].lam)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in the loaded ncergo modules."""
        hooks = {
            "scenario.emit_report": self._on_emit,
            "averages.weighted_average_grid": self._on_grid,
            "maximal.dominant_element": self._on_dominant,
            "bau.onset_ladder": self._on_ladder,
        }
        replace = {}
        for module, attr, name in SPANS:
            orig = getattr(sys.modules[module], attr)
            replace[id(orig)] = self._span(name, orig, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ncergo" and not mod_name.startswith("ncergo."):
                continue
            for key, val in list(vars(mod).items()):
                if id(val) in replace:
                    setattr(mod, key, replace[id(val)])
        for module, cls, attr, name in COUNTERS:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._counter(name, getattr(owner, attr)))

    # -- derived metrics ----------------------------------------------------

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": dict(self.counts)}))

    def metrics(self) -> dict:
        """Per-layer totals: inclusive time by span name, self time by layer."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_t, calls = Counter(), Counter(), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child[i]
            calls[name] += 1
        c = self.counts
        return {
            "scenario.run_self_s": self_t["scenario.run_scenario"],
            "scenario.emit_s": incl["scenario.emit_report"],
            "scenario.report_bytes": c["scenario.report_bytes"],
            "algebra.elements_built": c["algebra.elements_built"],
            "algebra.lp_norm_calls": calls["algebra.lp_norm"],
            "algebra.lp_norm_s": incl["algebra.lp_norm"],
            "linalg.eigh_calls": c["linalg.eigh_calls"],
            "linalg.eigvalsh_calls": c["linalg.eigvalsh_calls"],
            "linalg.svd_calls": c["linalg.svd_calls"],
            "averages.grid_s": incl["averages.weighted_average_grid"],
            "averages.grid_calls": calls["averages.weighted_average_grid"],
            "averages.map_applications": c["averages.map_applications"],
            "averages.limit_s": incl["averages.limit_oracle"],
            "contraction.verify_s": incl["contraction.verify_absolute_contraction"],
            "contraction.apply_calls": c["contraction.apply_calls"],
            "contraction.cesaro_s": incl["contraction.cesaro_limit_projection"],
            "weights.besicovitch_s": incl["weights.verify_besicovitch"],
            "weights.eval_box_s": incl["weights.eval_weight_box"],
            "maximal.dominant_s": incl["maximal.dominant_element"],
            "maximal.dominant_calls": calls["maximal.dominant_element"],
            "maximal.dominant_iterations": c["maximal.dominant_iterations"],
            "maximal.descent_calls": c["maximal.descent_calls"],
            "maximal.exact_calls": c["maximal.exact_calls"],
            "maximal.ladder_s": incl["maximal.maximal_inequality_report"],
            "maximal.interpolation_s": incl["maximal.interpolation_check"],
            "maximal.bracket_gap_max": self.gap_max,
            "bau.onset_ladder_s": incl["bau.onset_ladder"],
            "bau.self_s": sum(v for k, v in self_t.items() if k.startswith("bau.")),
            "bau.certificates": c["bau.certificates"],
            "bau.final_lambda": self.final_lambda,
        }
