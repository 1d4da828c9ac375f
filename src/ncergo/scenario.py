"""Scenario configs, deterministic task execution, and report emission.

A scenario is a single JSON document fixing the algebra, the contraction
tuple, the weight, the element, and per-task parameters. Runs are
bitwise-deterministic given (config, tool version): randomness only enters
through counter-based generators keyed by (seed, purpose tag), reports
carry no timestamps, and floats are printed with 17 significant digits so
emitted bytes are reproducible and round-trippable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._numeric import DEFAULT_BUDGET
from ._rng import generator
from .algebra import (
    Algebra,
    Box,
    Element,
    element_from_text,
    element_to_text,
    format_float,
    lp_norm,
    stack_lp_norm,
    stack_trace,
)
from .averages import (
    AverageFamily,
    GridStream,
    ergodic_average_family,
    limit_oracle,
)
from .bau import onset_ladder
from .contraction import (
    AbsoluteContraction,
    composition,
    convex_combination,
    identity_map,
    kraus,
    pinching,
    scaled_unitary,
    schur_multiplier,
    substochastic,
    verify_absolute_contraction,
)
from .errors import (
    ConfigError,
    IntegrityError,
    NcError,
    NumericError,
    UnsupportedError,
)
from .maximal import interpolation_check, maximal_inequality_report
from .weights import (
    BesicovitchWeight,
    InverseMinDecay,
    PeriodicZeroMean,
    SeededNoise,
    TrigPolynomial,
    TrigTerm,
    Weight,
    normalized,
    sup_bound,
    verify_besicovitch,
)

TOOL_VERSION = "0.1.9"
SCHEMA_VERSION = "1"

TASK_ORDER = ("verify", "besicovitch", "average", "maximal", "certify")
_TASK_DEPS = {
    "verify": (),
    "besicovitch": (),
    "average": ("verify",),
    "maximal": ("verify",),
    "certify": ("verify", "average"),
}

_TABLE_COLUMNS = {
    "verify": ("map", "kind", "subunital_margin", "trace_margin",
               "choi_min_eig", "passed", "evaluator"),
    "besicovitch": ("upper", "min_coordinate", "volume", "discrepancy",
                    "passed", "evaluator"),
    "averages": ("index", "evaluator", "trace_re", "trace_im", "norm_p",
                 "residual_2"),
    "maximal": ("cutoff", "family_size", "norm", "lower_bound", "ratio",
                "iterations", "converged", "evaluator"),
    "certify": ("onset", "epsilon", "lambda", "trace_complement", "tail_sup",
                "dominant_norm", "tail_size", "sound", "flags", "evaluator"),
}


# ---------------------------------------------------------------------------
# canonical serialization

class RenderedJSON(str):
    """Canonical JSON text that canonical_json writes as it stands."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    A RenderedJSON anywhere in obj is copied verbatim; report_to_dict uses
    it for table rows rendered a column at a time.
    """
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    if type(obj) is RenderedJSON:
        out.append(obj)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise IntegrityError("non-finite value cannot be serialized")
        out.append(format_float(v))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise IntegrityError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    else:
        raise IntegrityError(f"cannot serialize {type(obj).__name__}")


def config_digest(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# config parsing

_TOP_KEYS = {
    "name", "description", "seed", "algebra", "contractions", "weight",
    "element", "p", "box", "cutoffs", "besicovitch", "certify",
    "interpolation", "tolerances", "budget", "tasks",
}

_DEFAULT_TOLERANCES = {
    "verify": 1e-10,
    "dominant": 1e-8,
    "cauchy_rtol": 0.05,
    "interpolation_slack": 1e-6,
}

# keys of the nested object blocks; box also has a bare upper-corner form
_NESTED_KEYS = {
    "algebra": {"block_dims", "trace_weights"},
    "box": {"lower", "upper"},
    "weight": {"terms", "perturbation", "bound", "approximants", "normalize"},
    "besicovitch": {"epsilon", "cutoff", "onset", "ladder"},
    "certify": {"epsilon", "onsets"},
    "interpolation": {"q", "cutoff"},
    "tolerances": set(_DEFAULT_TOLERANCES),
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int | None
    algebra: Algebra
    dimension: int
    contraction_specs: tuple[dict, ...]
    weight: Weight
    element_spec: dict
    p: float
    box: Box
    cutoffs: tuple[int, ...]
    besicovitch_epsilon: float
    besicovitch_cutoff: tuple[int, ...]
    besicovitch_onset: int
    besicovitch_ladder: tuple[tuple[int, ...], ...] | None
    certify_epsilon: float
    certify_onsets: tuple[int, ...]
    interpolation_q: float | None
    interpolation_cutoff: int
    tolerances: dict
    budget: int
    default_tasks: tuple[str, ...]
    digest: str
    base_dir: str


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigError(f"complex entries are [re, im], got {v!r}")
        return complex(float(v[0]), float(v[1]))
    return complex(float(v), 0.0)


def _parse_matrix(rows) -> np.ndarray:
    try:
        mat = np.array([[_as_complex(e) for e in row] for row in rows],
                       dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed matrix: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {mat.shape}")
    return mat


def _element_like(alg: Algebra, obj, base_dir: str) -> Element:
    """Element from a JSON-friendly description."""
    if isinstance(obj, str):
        el = element_from_text(obj)
    elif isinstance(obj, dict) and "text" in obj:
        el = element_from_text(obj["text"])
    elif isinstance(obj, dict) and "path" in obj:
        path = Path(base_dir) / obj["path"]
        if not path.is_file():
            raise ConfigError(f"referenced element file not found: {path}")
        el = element_from_text(path.read_text())
    elif isinstance(obj, dict) and "blocks" in obj:
        return alg.element([_parse_matrix(b) for b in obj["blocks"]])
    elif isinstance(obj, dict) and "diagonal" in obj:
        vals = [_as_complex(v) for v in obj["diagonal"]]
        if len(vals) != alg.total_dim:
            raise ConfigError(
                f"diagonal needs {alg.total_dim} entries, got {len(vals)}"
            )
        blocks, at = [], 0
        for d in alg.block_dims:
            blocks.append(np.diag(np.array(vals[at:at + d], dtype=np.complex128)))
            at += d
        return alg.element(blocks)
    elif isinstance(obj, dict) and "diagonal_phases_over_2pi" in obj:
        ts = [float(t) for t in obj["diagonal_phases_over_2pi"]]
        if len(ts) != alg.total_dim:
            raise ConfigError(
                f"need {alg.total_dim} phases, got {len(ts)}"
            )
        return _element_like(
            alg, {"diagonal": [[np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)]
                               for t in ts]}, base_dir,
        )
    elif isinstance(obj, list):
        if alg.num_blocks != 1:
            raise ConfigError("bare matrix form needs a single-block algebra")
        return alg.element([_parse_matrix(obj)])
    else:
        raise ConfigError(f"cannot interpret element description {obj!r}")
    if el.algebra != alg:
        raise ConfigError(
            f"element algebra {el.algebra!r} does not match scenario {alg!r}"
        )
    return el


def _diagonal_partition_projections(alg: Algebra, groups) -> list[Element]:
    seen: set[int] = set()
    projections = []
    for group in groups:
        coords = [int(c) for c in group]
        for c in coords:
            if c < 0 or c >= alg.total_dim:
                raise ConfigError(f"diagonal coordinate {c} out of range")
            if c in seen:
                raise ConfigError(f"diagonal coordinate {c} used twice")
            seen.add(c)
        diag = [0.0] * alg.total_dim
        for c in coords:
            diag[c] = 1.0
        projections.append(_element_like(alg, {"diagonal": diag}, "."))
    return projections


def _build_contraction(alg: Algebra, spec, base_dir: str) -> AbsoluteContraction:
    """The contraction a config spec describes; each kind's fields are read
    here and nowhere else, and a missing or malformed one is a ConfigError
    naming the kind and the field."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"contraction spec needs a 'kind' tag, got {spec!r}")
    kind = spec["kind"]

    def field(name: str, read):
        try:
            return read(spec[name])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(
                f"{kind} contraction: missing or malformed field {name!r} "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def element(obj) -> Element:
        return _element_like(alg, obj, base_dir)

    def elements(objs) -> list[Element]:
        return [element(obj) for obj in objs]

    def sub(obj) -> AbsoluteContraction:
        return _build_contraction(alg, obj, base_dir)

    if kind == "scaled_unitary":
        scale = field("scale", float) if "scale" in spec else 1.0
        return scaled_unitary(alg, field("unitary", element), scale)
    if kind == "pinching" and "diagonal_partition" in spec:
        return pinching(field("diagonal_partition",
                              lambda groups: _diagonal_partition_projections(alg, groups)))
    if kind == "pinching":
        return pinching(field("projections", elements))
    if kind == "schur_multiplier":
        return schur_multiplier(alg, field("coefficients", element).blocks[0])
    if kind == "kraus":
        return kraus(alg, field("operators", elements))
    if kind == "substochastic":
        return substochastic(alg, field(
            "matrix", lambda rows: [[float(v) for v in row] for row in rows]))
    if kind == "convex_combination":
        terms = field("terms", lambda ts: [(float(w), m) for w, m in ts])
        return convex_combination([(w, sub(m)) for w, m in terms])
    if kind == "composition":
        return composition([sub(m) for m in field("maps", list)])
    if kind == "identity":
        return identity_map(alg)
    raise ConfigError(f"unknown contraction kind {kind!r}")


def _parse_trig_terms(d: int, terms) -> TrigPolynomial:
    parsed = []
    for t in terms:
        coef = _as_complex(t["coefficient"])
        if "phases_over_2pi" in t:
            phases = [2 * np.pi * float(v) for v in t["phases_over_2pi"]]
        else:
            phases = [float(v) for v in t["phases"]]
        parsed.append(TrigTerm(coef, tuple(phases)))
    return TrigPolynomial(d, tuple(parsed))


def _parse_perturbation(spec, seed: int | None):
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "inverse_min":
        return InverseMinDecay(float(spec["amplitude"]),
                               float(spec.get("exponent", 1.0)))
    if kind == "periodic_zero_mean":
        return PeriodicZeroMean(np.array([float(v) for v in spec["table"]]))
    if kind == "seeded_noise":
        return SeededNoise(int(seed), float(spec["amplitude"]),
                           float(spec.get("exponent", 0.0)))
    raise ConfigError(f"unknown perturbation kind {kind!r}")


def _parse_weight(d: int, spec: dict, seed: int | None) -> Weight:
    if not isinstance(spec, dict) or "terms" not in spec:
        raise ConfigError("weight spec needs a 'terms' list")
    base = _parse_trig_terms(d, spec["terms"])
    pert = _parse_perturbation(spec.get("perturbation"), seed)
    w: Weight
    if pert is None and "bound" not in spec and "approximants" not in spec:
        w = base
    else:
        bound = float(spec.get(
            "bound",
            base.coefficient_bound() + (pert.sup_bound() if pert else 0.0),
        ))
        approximants = tuple(
            (float(a["epsilon"]), _parse_trig_terms(d, a["terms"]))
            for a in spec.get("approximants", [])
        )
        w = BesicovitchWeight(base, pert, bound, approximants)
    if spec.get("normalize", False):
        w = normalized(w)
    return w


def _int_tuple(values, label: str) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label} must be a list of integers") from exc
    if not out or any(v < 1 for v in out):
        raise ConfigError(f"{label} entries must be >= 1")
    return out


def _default_onsets(box: Box) -> tuple[int, ...]:
    top = min(box.upper)
    lo = min(box.lower)
    onsets, j = [], 1
    while j < top:
        if j >= lo:
            onsets.append(j)
        j *= 2
    onsets.append(top)
    return tuple(dict.fromkeys(onsets))


def scenario_from_dict(data: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Parse a scenario document; whatever in it cannot be read, a missing
    key or a value of the wrong type or form, is a ConfigError."""
    try:
        return _read_scenario(data, base_dir)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(
            f"malformed config ({type(exc).__name__}: {exc})"
        ) from exc


def _read_scenario(data: dict, base_dir: str | Path) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    for block, keys in _NESTED_KEYS.items():
        if isinstance(data.get(block), dict):
            unknown |= {f"{block}.{k}" for k in set(data[block]) - keys}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("algebra", "contractions", "weight", "element", "p", "box"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")

    alg_spec = data["algebra"]
    if not isinstance(alg_spec, dict) or "block_dims" not in alg_spec:
        raise ConfigError("algebra spec needs a 'block_dims' list")
    alg = Algebra(
        _int_tuple(alg_spec["block_dims"], "block_dims"),
        alg_spec.get("trace_weights"),
    )

    contractions = data["contractions"]
    if not isinstance(contractions, list) or not contractions:
        raise ConfigError("contractions must be a nonempty list")
    d = len(contractions)

    seed = data.get("seed")
    if seed is not None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")

    element_spec = data["element"]
    _EXPLICIT_ELEMENT_KEYS = (
        "text", "path", "blocks", "diagonal", "diagonal_phases_over_2pi",
    )
    if not isinstance(element_spec, dict) or (
        "mode" not in element_spec
        and not any(k in element_spec for k in _EXPLICIT_ELEMENT_KEYS)
    ):
        raise ConfigError(
            "element spec needs a 'mode' tag or an explicit payload key"
        )
    randomized = element_spec.get("mode", "").startswith("random")
    pert_spec = data["weight"].get("perturbation") if isinstance(data["weight"], dict) else None
    if pert_spec is not None and pert_spec.get("kind") == "seeded_noise":
        randomized = True
    if randomized and seed is None:
        raise ConfigError("seed is mandatory when any component is randomized")

    weight = _parse_weight(d, data["weight"], seed)
    if weight.dimension != d:
        raise ConfigError(
            f"weight dimension {weight.dimension} != {d} contractions"
        )

    box_spec = data["box"]
    if isinstance(box_spec, (list, tuple)):
        box_spec = {"upper": box_spec}
    if not isinstance(box_spec, dict) or "upper" not in box_spec:
        raise ConfigError("box must be an upper-corner list or {lower?, upper}")
    lower = _int_tuple(box_spec.get("lower", [1] * d), "box.lower")
    upper = _int_tuple(box_spec["upper"], "box.upper")
    if len(lower) != d or len(upper) != d:
        raise ConfigError(f"box must be {d}-dimensional")
    box = Box(lower, upper)

    p = float(data["p"])
    if p <= 1.0:
        raise ConfigError(f"p must exceed 1, got {p}")

    cutoffs = _int_tuple(data.get("cutoffs", [4, 8, 16]), "cutoffs")

    bes = data.get("besicovitch", {})
    bes_cut = _int_tuple(bes.get("cutoff", [64] * d), "besicovitch.cutoff")
    if len(bes_cut) != d:
        raise ConfigError("besicovitch.cutoff dimension mismatch")
    bes_ladder = None
    if "ladder" in bes:
        bes_ladder = tuple(
            _int_tuple(rung, "besicovitch.ladder rung") for rung in bes["ladder"]
        )

    cert = data.get("certify", {})
    cert_onsets = (
        _int_tuple(cert["onsets"], "certify.onsets")
        if "onsets" in cert
        else _default_onsets(box)
    )

    interp = data.get("interpolation")
    interp_q = None
    interp_cutoff = 4
    if interp is not None:
        interp_q = float(interp["q"])
        interp_cutoff = int(interp.get("cutoff", 4))
        if not 1.0 <= interp_q < p:
            raise ConfigError(
                f"interpolation needs 1 <= q < p, got q={interp_q}, p={p}"
            )
        if interp_cutoff < 1:
            raise ConfigError(f"interpolation.cutoff must be >= 1, got {interp_cutoff}")

    tolerances = dict(_DEFAULT_TOLERANCES)
    tolerances.update({k: float(v) for k, v in data.get("tolerances", {}).items()})

    tasks = tuple(data.get("tasks", TASK_ORDER))
    for t in tasks:
        if t not in TASK_ORDER:
            raise ConfigError(f"unknown task {t!r}")

    return ScenarioConfig(
        name=str(data.get("name", "scenario")),
        seed=seed,
        algebra=alg,
        dimension=d,
        contraction_specs=tuple(contractions),
        weight=weight,
        element_spec=element_spec,
        p=p,
        box=box,
        cutoffs=cutoffs,
        besicovitch_epsilon=float(bes.get("epsilon", 0.05)),
        besicovitch_cutoff=bes_cut,
        besicovitch_onset=int(bes.get("onset", 1)),
        besicovitch_ladder=bes_ladder,
        certify_epsilon=float(cert.get("epsilon", 0.01)),
        certify_onsets=cert_onsets,
        interpolation_q=interp_q,
        interpolation_cutoff=interp_cutoff,
        tolerances=tolerances,
        budget=int(data.get("budget", DEFAULT_BUDGET)),
        default_tasks=tasks,
        digest=config_digest(data),
        base_dir=str(base_dir),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data, base_dir=path.parent)


# ---------------------------------------------------------------------------
# report structures

@dataclass(frozen=True, eq=False)
class Table:
    """One report table, held by column: data[j] holds the cells of
    columns[j].

    A float column is a read-only float64 array; any other column is a
    tuple of Python values (ints, bools, None, str or mixed). Emission
    renders each table from these columns, once per file.
    """

    name: str
    columns: tuple[str, ...]
    data: tuple[np.ndarray | tuple, ...]

    def __post_init__(self):
        data = tuple(map(_table_column, self.data))
        if len(data) != len(self.columns) or len({len(c) for c in data}) > 1:
            raise ValueError(
                f"table {self.name!r} needs one column of cells per name, "
                "all of one length"
            )
        object.__setattr__(self, "data", data)

    @classmethod
    def from_rows(cls, name: str, columns: Sequence[str], rows) -> "Table":
        """The table with these rows, each column a tuple."""
        rows = tuple(rows)
        data = tuple(zip(*rows, strict=True)) if rows else ((),) * len(columns)
        return cls(name, tuple(columns), data)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The cells row by row, float cells as Python floats."""
        return tuple(zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                           for c in self.data]))


def _table_column(values) -> np.ndarray | tuple:
    """A read-only copy of a 1-D float64 array, else the values as a tuple."""
    if isinstance(values, np.ndarray):
        if values.dtype != np.float64 or values.ndim != 1:
            raise ValueError(
                f"an array column must be 1-D float64, got {values.dtype} "
                f"of shape {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        return values
    return tuple(values)


@dataclass(frozen=True)
class TaskResult:
    name: str
    status: str  # ok | failed | skipped
    error: str | None
    tables: tuple[Table, ...]
    summary: dict


@dataclass(frozen=True)
class RunReport:
    scenario: str
    digest: str
    tool_version: str
    schema_version: str
    seed: int | None
    tasks: tuple[TaskResult, ...]
    operation_counts: dict
    wall_clock_seconds: float | None = None  # console diagnostics only

    @property
    def failed(self) -> bool:
        return any(t.status != "ok" for t in self.tasks)


def report_to_dict(report: RunReport) -> dict:
    """The report as data for canonical_json; each table's rows are one
    RenderedJSON, formatted a column at a time."""
    return _report_dict(report, {})


def _report_dict(report: RunReport, floats: dict) -> dict:
    """report_to_dict with each table's _float_text looked up by id(table)
    in floats where present."""
    # wall clock deliberately left out: emitted bytes depend only on
    # (config, tool version)
    return {
        "schema_version": report.schema_version,
        "tool_version": report.tool_version,
        "scenario": report.scenario,
        "digest": report.digest,
        "seed": report.seed,
        "operation_counts": report.operation_counts,
        "tasks": [
            {
                "name": t.name,
                "status": t.status,
                "error": t.error,
                "summary": t.summary,
                "tables": [
                    {
                        "name": tab.name,
                        "columns": list(tab.columns),
                        "rows": _json_rows(tab, floats.get(id(tab))),
                    }
                    for tab in t.tables
                ],
            }
            for t in report.tasks
        ],
    }


def report_to_text(report: RunReport) -> str:
    return canonical_json(report_to_dict(report)) + "\n"


def parse_report(text: str) -> RunReport:
    """The RunReport a report.json text holds; report_to_text gives the
    text back byte for byte.

    Every table column is a tuple, as JSON reads it: a float printed as
    "0" comes back as the int 0, and prints as "0" again.
    """
    data = json.loads(text)
    tasks = tuple(
        TaskResult(
            t["name"],
            t["status"],
            t["error"],
            tuple(
                Table.from_rows(tab["name"], tab["columns"], tab["rows"])
                for tab in t["tables"]
            ),
            t["summary"],
        )
        for t in data["tasks"]
    )
    return RunReport(
        data["scenario"],
        data["digest"],
        data["tool_version"],
        data["schema_version"],
        data["seed"],
        tasks,
        data["operation_counts"],
        None,
    )


# ---------------------------------------------------------------------------
# task execution

class _RunState:
    def __init__(self, config: ScenarioConfig, budget: int,
                 tasks: frozenset[str] = frozenset(TASK_ORDER)):
        self.config = config
        self.budget = budget
        self.tasks = tasks  # the run's tasks, closed under dependencies
        self.maps: list[AbsoluteContraction] | None = None
        self.x: Element | None = None
        self.shifted = None  # family minus its limit, kept for certify only
        self.map_applications = 0
        self.dominant_iterations = 0

    def get_maps(self) -> list[AbsoluteContraction]:
        if self.maps is None:
            cfg = self.config
            self.maps = [
                _build_contraction(cfg.algebra, spec, cfg.base_dir)
                for spec in cfg.contraction_specs
            ]
        return self.maps

    def get_element(self) -> Element:
        """The scenario's element, built on first use; unreadable is a ConfigError."""
        if self.x is None:
            cfg = self.config
            spec = cfg.element_spec
            mode = spec.get("mode", "")
            try:
                if mode.startswith("random"):
                    kind = mode.removeprefix("random_")
                    if kind not in ("positive", "hermitian", "general"):
                        raise ConfigError(f"unknown element mode {mode!r}")
                    rng = generator(cfg.seed, "element")
                    self.x = cfg.algebra.random_element(
                        rng, kind=kind, scale=float(spec.get("scale", 1.0))
                    )
                else:
                    self.x = _element_like(cfg.algebra, spec, cfg.base_dir)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(
                    f"malformed element ({type(exc).__name__}: {exc})"
                ) from exc
        return self.x


def _index_labels(axes: Sequence[Sequence[int]]) -> list[str]:
    """"(i,j,...)" labels of every index in the product of the axes' values,
    in lexicographic order; each value is formatted once per axis."""
    strs = [[str(int(v)) for v in axis] for axis in axes]
    return ["(" + ",".join(idx) + ")" for idx in itertools.product(*strs)]


def _run_verify(state: _RunState) -> TaskResult:
    cfg = state.config
    maps = state.get_maps()
    rows = []
    failures = []
    for i, m in enumerate(maps, start=1):
        rep = verify_absolute_contraction(m, tol=cfg.tolerances["verify"])
        rows.append((
            f"T{i}", m.kind, rep.subunital_margin, rep.trace_margin,
            rep.choi_min_eig, rep.passed, "transfer-matrix",
        ))
        if not rep.passed:
            failures.append(f"T{i}")
    table = Table.from_rows("verify", _TABLE_COLUMNS["verify"], rows)
    summary = {"maps": len(maps), "all_passed": not failures}
    if failures:
        return TaskResult(
            "verify", "failed",
            f"maps {failures} failed absolute-contraction verification",
            (table,), summary,
        )
    return TaskResult("verify", "ok", None, (table,), summary)


def _run_besicovitch(state: _RunState) -> TaskResult:
    cfg = state.config
    rep = verify_besicovitch(
        cfg.weight,
        cfg.besicovitch_epsilon,
        cfg.besicovitch_cutoff,
        onset=cfg.besicovitch_onset,
        ladder=cfg.besicovitch_ladder,
        budget=state.budget,
    )
    audited = sup_bound(cfg.weight, Box.full(cfg.besicovitch_cutoff))
    rows = tuple(
        (_index_labels([(v,) for v in r.upper])[0], r.min_coordinate,
         int(np.prod(r.upper)), r.discrepancy, r.discrepancy < rep.epsilon,
         "kahan-prefix")
        for r in rep.rows
    )
    table = Table.from_rows("besicovitch", _TABLE_COLUMNS["besicovitch"], rows)
    summary = {
        "epsilon": rep.epsilon,
        "onset": rep.onset,
        "onset_observed": rep.onset_observed,
        "passed": rep.passed,
        "finite_box_evidence": rep.finite_box_evidence,
        "declared_bound_audit": audited,
    }
    status = "ok" if rep.passed else "failed"
    error = None if rep.passed else (
        f"discrepancy exceeded {rep.epsilon} at some rung past onset {rep.onset}"
    )
    return TaskResult("besicovitch", status, error, (table,), summary)


def _run_average(state: _RunState) -> TaskResult:
    cfg = state.config
    maps = state.get_maps()
    x = state.get_element()
    stream = GridStream(cfg.weight, maps, x, cfg.box, state.budget)
    alg, box = stream.algebra, cfg.box
    limit = None
    if isinstance(cfg.weight, TrigPolynomial):
        limit = limit_oracle(cfg.weight, maps, x)
    # per-member columns and, only when certify reads it, the family minus
    # its limit, laid out last axis first like the stream's chunks
    lead = (box.shape[-1],) + box.shape[:-1]
    tr = np.empty(lead, dtype=np.complex128)
    norms = np.empty(lead)
    residuals = None if limit is None else np.empty(lead)
    centre = None if limit is None else alg.vec(limit.value)
    shifted = None
    if limit is not None and "certify" in state.tasks:
        shifted = np.empty(box.shape + (alg.basis_size,), dtype=np.complex128)
        shifted_lead = np.moveaxis(shifted, -2, 0)
    for lo, hi, block in stream.chunks():
        if not np.all(np.isfinite(block.view(np.float64))):
            raise NumericError("non-finite entries in element block")
        flat = block.reshape(-1, alg.basis_size)
        stacks = alg.block_stacks(flat)
        members = block.shape[:-1]
        tr[lo:hi] = stack_trace(alg, stacks).reshape(members)
        norms[lo:hi] = stack_lp_norm(alg, stacks, cfg.p).reshape(members)
        if limit is not None:
            diff = flat - centre
            residuals[lo:hi] = stack_lp_norm(
                alg, alg.block_stacks(diff), 2.0).reshape(members)
            if shifted is not None:
                shifted_lead[lo:hi] = diff.reshape(block.shape)
    state.map_applications += stream.applications
    if shifted is not None:
        state.shifted = AverageFamily(alg, box, shifted, "grid-shifted",
                                      stream.applications)
    labels = _index_labels([
        range(lo, hi + 1) for lo, hi in zip(box.lower, box.upper)
    ])
    tr = np.moveaxis(tr, 0, -1).ravel()
    table = Table("averages", _TABLE_COLUMNS["averages"], (
        labels, ("grid",) * len(labels), tr.real, tr.imag,
        np.moveaxis(norms, 0, -1).ravel(),
        ((None,) * len(labels) if residuals is None
         else np.moveaxis(residuals, 0, -1).ravel()),
    ))
    summary = {
        "box_lower": list(cfg.box.lower),
        "box_upper": list(cfg.box.upper),
        "evaluator": "grid",
        "applications": stream.applications,
        "limit_norm_2": None if limit is None else lp_norm(limit.value, 2.0),
        "limit_notes": None if limit is None else "; ".join(limit.notes),
    }
    return TaskResult("average", "ok", None, (table,), summary)


def _run_maximal(state: _RunState) -> TaskResult:
    cfg = state.config
    maps = state.get_maps()
    x = state.get_element()
    rep = maximal_inequality_report(
        maps, x, cfg.p, cfg.cutoffs,
        tol=cfg.tolerances["dominant"],
        budget=state.budget,
        cauchy_rtol=cfg.tolerances["cauchy_rtol"],
    )
    state.dominant_iterations += sum(r.iterations for r in rep.rows)
    state.map_applications += rep.applications
    rows = tuple(
        (r.cutoff, r.family_size, r.norm, r.lower_bound, r.ratio,
         r.iterations, r.converged, r.method)
        for r in rep.rows
    )
    table = Table.from_rows("maximal", _TABLE_COLUMNS["maximal"], rows)
    summary = {
        "p": rep.p,
        "nondecreasing": rep.nondecreasing,
        "cauchy_gap": rep.cauchy_gap,
        "cauchy_ok": rep.cauchy_ok,
        "truncated": rep.truncated,
        "unconverged_rungs": sum(not r.converged for r in rep.rows),
    }
    if cfg.interpolation_q is not None:
        small = ergodic_average_family(
            maps, x, Box.full((cfg.interpolation_cutoff,) * cfg.dimension),
            state.budget,
        )
        irep = interpolation_check(
            small.block_stacks(), cfg.p, cfg.interpolation_q,
            slack=cfg.tolerances["interpolation_slack"],
            tol=cfg.tolerances["dominant"], algebra=small.algebra,
        )
        state.map_applications += small.applications
        state.dominant_iterations += irep.iterations
        summary.update({
            "interpolation_q": irep.q,
            "interpolation_lhs": irep.lhs,
            "interpolation_rhs": irep.rhs,
            "interpolation_passed": irep.passed,
        })
    status = "ok" if rep.nondecreasing else "failed"
    error = None if rep.nondecreasing else (
        "ratio ladder decreased: " + "; ".join(rep.decrease_notes())
    )
    return TaskResult("maximal", status, error, (table,), summary)


def _run_certify(state: _RunState) -> TaskResult:
    cfg = state.config
    if state.shifted is None:
        raise UnsupportedError(
            "certification needs a trig-polynomial weight with a computed limit"
        )
    certs = onset_ladder(
        state.shifted, cfg.p, cfg.certify_epsilon, cfg.certify_onsets,
        tol=cfg.tolerances["dominant"],
    )
    if not certs:
        raise ConfigError("certify onset ladder is empty inside the box")
    state.dominant_iterations += sum(c.iterations for c in certs)
    rows = tuple(
        (c.onset, c.epsilon, c.lam, c.trace_complement, c.tail_sup,
         c.dominant_norm, c.tail_size, c.sound, "; ".join(c.flags),
         "chebyshev-cut")
        for c in certs
    )
    table = Table.from_rows("certify", _TABLE_COLUMNS["certify"], rows)
    final = certs[-1]
    summary = {
        "epsilon": cfg.certify_epsilon,
        "final_onset": final.onset,
        "final_lambda": final.lam,
        "final_tail_sup": final.tail_sup,
        "final_trace_complement": final.trace_complement,
        "min_tail_sup": min(c.tail_sup for c in certs),
        "all_sound": all(c.sound for c in certs),
        "unconverged_solves": sum(not c.converged for c in certs),
        "projection_text": element_to_text(final.e.element),
    }
    status = "ok" if summary["all_sound"] else "failed"
    error = None if summary["all_sound"] else "a certificate failed re-verification"
    return TaskResult("certify", status, error, (table,), summary)


_TASK_RUNNERS = {
    "verify": _run_verify,
    "besicovitch": _run_besicovitch,
    "average": _run_average,
    "maximal": _run_maximal,
    "certify": _run_certify,
}

_CAPTURED = (NcError, ValueError, ZeroDivisionError, FloatingPointError,
             np.linalg.LinAlgError, OSError)


def run_scenario(
    config: ScenarioConfig,
    tasks: Sequence[str] | None = None,
    budget: int | None = None,
) -> RunReport:
    """Execute tasks in dependency order; capture per-task failures.

    Requested tasks are closed under their dependencies, and a task is
    skipped when a dependency did not succeed. The returned report is fully
    deterministic apart from wall_clock_seconds, which emission excludes.
    """
    started = time.perf_counter()
    requested = set(config.default_tasks if tasks is None else tasks)
    for t in requested:
        if t not in TASK_ORDER:
            raise ConfigError(f"unknown task {t!r}")
    grow = True
    while grow:
        closed = requested | {d for t in requested for d in _TASK_DEPS[t]}
        grow = closed != requested
        requested = closed
    state = _RunState(config, config.budget if budget is None else int(budget),
                      frozenset(requested))
    results: list[TaskResult] = []
    status: dict[str, str] = {}
    for name in TASK_ORDER:
        if name not in requested:
            continue
        blocked = [
            dep for dep in _TASK_DEPS[name] if status.get(dep) != "ok"
        ]
        if blocked:
            result = TaskResult(
                name, "skipped",
                f"dependency {blocked[0]!r} did not succeed", (), {},
            )
        else:
            try:
                result = _TASK_RUNNERS[name](state)
            except _CAPTURED as exc:
                result = TaskResult(
                    name, "failed", f"{type(exc).__name__}: {exc}", (), {},
                )
        results.append(result)
        status[name] = result.status
    counts = {
        "map_applications": state.map_applications,
        "dominant_iterations": state.dominant_iterations,
    }
    return RunReport(
        config.name, config.digest, TOOL_VERSION, SCHEMA_VERSION, config.seed,
        tuple(results), counts, time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# emission

def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return str(v)


def _plain_ascii(text: str) -> bool:
    """True when json.dumps(text) is text in quotes: printable ASCII with no
    quote or backslash."""
    return (text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text)


def _csv_quoted(cells: list[str]) -> list[str]:
    """cells as csv.QUOTE_MINIMAL writes them with lineterminator "\\n": a
    cell holding a comma, a quote or a newline is quoted, quotes doubled."""
    text = "".join(cells)
    if '"' in text or "\n" in text:
        return [f'"{c.replace(chr(34), chr(34) * 2)}"'
                if "," in c or '"' in c or "\n" in c else c for c in cells]
    if "," in text:
        return [f'"{c}"' if "," in c else c for c in cells]
    return cells


def _format_column(values: tuple, json_out: bool) -> list[str]:
    """One tuple column as JSON or CSV cells, the same cells canonical_json
    or csv.writer with _csv_cell give one at a time.

    A column of one string or None repeated is formatted once; all-float
    (for JSON, finite) and (for CSV, any; for JSON, plain ASCII) string
    columns are formatted whole; any other column cell by cell, so a
    non-finite float still raises IntegrityError in JSON.
    """
    if len(values) > 1 and (values[0] is None or type(values[0]) is str) \
            and values.count(values[0]) == len(values):
        return _format_column(values[:1], json_out) * len(values)
    kinds = set(map(type, values))
    if kinds == {float} and (not json_out or all(map(math.isfinite, values))):
        return [f"{v:.17g}" for v in values]
    if not json_out:
        return _csv_quoted(list(values) if kinds == {str}
                           else [_csv_cell(v) for v in values])
    if kinds == {str} and _plain_ascii("".join(values)):
        return [f'"{v}"' for v in values]
    return [canonical_json(v) for v in values]


def _float_text(table: Table) -> list[tuple[list[str], bool] | None]:
    """Each float64 column of table as its .17g cells and whether all of
    them are finite; None for a tuple column.

    JSON and CSV print these cells alike, so emit_report formats them once
    for both files.
    """
    return [
        ([f"{v:.17g}" for v in col.tolist()], bool(np.isfinite(col).all()))
        if isinstance(col, np.ndarray) else None
        for col in table.data
    ]


def _cells(table: Table, json_out: bool, floats) -> list[list[str]]:
    """table's columns as JSON or CSV cells; floats is its _float_text."""
    out = []
    for values, text in zip(table.data, floats):
        if text is None:
            out.append(_format_column(values, json_out))
        elif json_out and not text[1]:
            raise IntegrityError("non-finite value cannot be serialized")
        else:
            out.append(text[0])
    return out


def _json_rows(table: Table, floats=None) -> RenderedJSON:
    """The table's rows as one JSON array, a row "[c1,...,cn]" at a time."""
    cells = _cells(table, True, _float_text(table) if floats is None else floats)
    rows = list(map(",".join, zip(*cells)))
    return RenderedJSON(f"[[{'],['.join(rows)}]]" if rows else "[]")


def table_to_csv(table: Table) -> str:
    return _csv_text(table, _float_text(table))


def _csv_text(table: Table, floats) -> str:
    """The header, then a line "c1,...,cn" per row; floats is the table's
    _float_text."""
    lines = [_csv_quoted(list(table.columns)), *zip(*_cells(table, False, floats))]
    if len(table.columns) == 1:  # csv writes a lone empty field as ""
        lines = [[c or '""' for c in line] for line in lines]
    return "\n".join(map(",".join, lines)) + "\n"


def emit_report(
    report: RunReport,
    formats: Sequence[str] = ("structured",),
    out_dir: str | Path = ".",
) -> list[Path]:
    """Write report files; returns the written paths in sorted order.

    "structured" writes report.json, "tabular" one CSV per table; a task
    whose summary holds a projection_text also gets <task>_projection.txt.
    Each float column is formatted once for both files (_float_text), and
    each file renders a table's rows from its columns in one pass. A
    non-finite float raises IntegrityError in report.json and prints as
    nan or inf in the CSV.
    """
    fmts = set(formats)
    unknown = fmts - {"structured", "tabular"}
    if unknown:
        raise ConfigError(f"unknown formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    floats = {id(tab): _float_text(tab) for t in report.tasks for tab in t.tables}
    if "structured" in fmts:
        path = out / "report.json"
        path.write_text(canonical_json(_report_dict(report, floats)) + "\n")
        written.append(path)
    if "tabular" in fmts:
        for task in report.tasks:
            for table in task.tables:
                path = out / f"{table.name}.csv"
                path.write_text(_csv_text(table, floats[id(table)]))
                written.append(path)
    for task in report.tasks:
        text = task.summary.get("projection_text")
        if text is not None:
            path = out / f"{task.name}_projection.txt"
            path.write_text(text)
            written.append(path)
    return sorted(written)
