"""Scenario configs, deterministic reports, emitted files, and the CLI."""

import ast
import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import ncergo
from ncergo.algebra import Algebra, element_to_text
from ncergo.cli import main as cli_main
from ncergo.contraction import (
    composition,
    convex_combination,
    identity_map,
    kraus,
    pinching,
    scaled_unitary,
    schur_multiplier,
    substochastic,
)
from ncergo.errors import ConfigError
from ncergo.scenario import (
    ScenarioConfig,
    canonical_json,
    config_digest,
    emit_report,
    load_scenario,
    parse_report,
    report_to_text,
    run_scenario,
    scenario_from_dict,
    table_to_csv,
)

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "pinch_trig_d2.json"


def small_config(**extra):
    data = {
        "name": "unit-small",
        "seed": 7,
        "algebra": {"block_dims": [2], "trace_weights": [1.0]},
        "contractions": [
            {
                "kind": "pinching",
                "diagonal_partition": [[0], [1]],
            },
            {
                "kind": "pinching",
                "diagonal_partition": [[0], [1]],
            },
        ],
        "weight": {
            "terms": [
                {"coefficient": 0.5, "phases_over_2pi": [0.0, 0.0]},
                {"coefficient": 0.3, "phases_over_2pi": [0.25, 0.1]},
            ]
        },
        "element": {"mode": "random_positive"},
        "p": 2.0,
        "box": [8, 8],
        "cutoffs": [2, 4],
        "certify": {"epsilon": 0.05, "onsets": [1, 2, 4]},
        "besicovitch": {"epsilon": 0.05, "cutoff": [16, 16]},
    }
    data.update(extra)
    return data


# ---------------------------------------------------------------------------
# canonical serialization

def test_canonical_json_is_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
    assert a == '{"a":[1.5,true,null,"x"],"b":1}'
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_canonical_json_rejects_non_finite():
    from ncergo.errors import IntegrityError

    with pytest.raises(IntegrityError):
        canonical_json({"v": float("nan")})


def test_digest_tracks_content():
    d1 = config_digest(small_config())
    d2 = config_digest(small_config())
    d3 = config_digest(small_config(seed=8))
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 64


# ---------------------------------------------------------------------------
# config validation

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(small_config(bogus=1))


@pytest.mark.parametrize("block, key", [
    ("algebra", "block_dim"),
    ("box", "uper"),
    ("weight", "normalise"),
    ("besicovitch", "cutof"),
    ("certify", "epsilom"),
    ("certify", "lambda"),
    ("interpolation", "cutof"),
    ("tolerances", "dominnat"),
])
def test_unknown_nested_key_rejected(block, key):
    # a misspelled nested key would otherwise leave its default in force
    data = small_config(box={"upper": [8, 8]}, interpolation={"q": 1.5},
                        tolerances={"dominant": 1e-8})
    scenario_from_dict(copy.deepcopy(data))
    data[block][key] = 1
    with pytest.raises(ConfigError, match=rf"'{block}\.{key}'"):
        scenario_from_dict(data)


def test_every_config_field_is_read():
    # a ScenarioConfig field that no code reads is a knob that does nothing
    read = set()
    for path in Path(ncergo.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        read |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in called
        }
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert fields - read == set()


def test_missing_required_key_rejected():
    bad = small_config()
    del bad["p"]
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)


def test_seed_required_for_random_element():
    bad = small_config()
    del bad["seed"]
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)


def test_p_must_exceed_one():
    with pytest.raises(ConfigError):
        scenario_from_dict(small_config(p=1.0))


def test_explicit_element_text_allows_no_seed():
    data = small_config()
    del data["seed"]
    data["element"] = {
        "diagonal": [0.5, 0.25],
    }
    cfg = scenario_from_dict(data)
    assert cfg.seed is None


def test_reference_config_loads():
    cfg = load_scenario(REFERENCE)
    assert cfg.dimension == 2
    assert cfg.p == 2.0
    assert cfg.digest == config_digest(json.loads(REFERENCE.read_text()))


# ---------------------------------------------------------------------------
# contraction specs: every kind and element form against its constructor

def two_block(first, second):
    """The element first + second of M_2 + C."""
    return Algebra((2, 1)).element([np.array(first, dtype=complex),
                                    np.array(second, dtype=complex)])


def diagonal(a, b, c):
    return two_block(np.diag([a, b]), [[c]])


def unitary_by(element):
    return {"kind": "scaled_unitary", "unitary": element}


SWAP = [[0, 1], [1, 0]]
U = two_block(SWAP, [[1j]])
U_BLOCKS = {"blocks": [SWAP, [[[0, 1]]]]}
PARTITION = {"kind": "pinching", "diagonal_partition": [[0], [1, 2]]}


def partition_pinching(alg):
    return pinching([diagonal(1, 0, 0), diagonal(0, 1, 1)])


def phase(t):
    return complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t))


# case: (block dims, the config's contraction spec, the direct constructor
# call, or None when verify must fail with a ConfigError)
CONTRACTION_CASES = {
    "scaled_unitary": ((2, 1), dict(unitary_by(U_BLOCKS), scale=0.75),
                       lambda alg: scaled_unitary(alg, U, 0.75)),
    "scaled_unitary no scale": ((2, 1), unitary_by(U_BLOCKS),
                                lambda alg: scaled_unitary(alg, U)),
    "pinching by partition": ((2, 1), PARTITION, partition_pinching),
    "pinching by projections": (
        (2, 1),
        {"kind": "pinching", "projections": [
            {"diagonal": [1, 0, 0]}, {"blocks": [[[0, 0], [0, 1]], [[1]]]}]},
        partition_pinching,
    ),
    "schur_multiplier": (
        (2,), {"kind": "schur_multiplier", "coefficients": [[1, 0.5], [0.5, 1]]},
        lambda alg: schur_multiplier(alg, np.array([[1, 0.5], [0.5, 1]])),
    ),
    "kraus": (
        (2, 1),
        {"kind": "kraus", "operators": [
            {"diagonal": [0.5, 0.5, 0.5]}, {"blocks": [[[0, 0.5], [0.5, 0]], [[0.5]]]}]},
        lambda alg: kraus(alg, [diagonal(0.5, 0.5, 0.5),
                                 two_block([[0, 0.5], [0.5, 0]], [[0.5]])]),
    ),
    "substochastic": (
        (2,), {"kind": "substochastic", "matrix": [[0.5, 0.25], [0.25, 0.5]]},
        lambda alg: substochastic(alg, [[0.5, 0.25], [0.25, 0.5]]),
    ),
    "convex_combination": (
        (2, 1),
        {"kind": "convex_combination",
         "terms": [[0.5, {"kind": "identity"}], [0.25, unitary_by(U_BLOCKS)]]},
        lambda alg: convex_combination([(0.5, identity_map(alg)),
                                        (0.25, scaled_unitary(alg, U))]),
    ),
    "composition": (
        (2, 1), {"kind": "composition", "maps": [PARTITION, unitary_by(U_BLOCKS)]},
        lambda alg: composition([partition_pinching(alg), scaled_unitary(alg, U)]),
    ),
    "identity": ((2, 1), {"kind": "identity"}, identity_map),
    "element text": ((2, 1), unitary_by({"text": element_to_text(U)}),
                     lambda alg: scaled_unitary(alg, U)),
    "element text string": ((2, 1), unitary_by(element_to_text(U)),
                            lambda alg: scaled_unitary(alg, U)),
    "element path": ((2, 1), unitary_by({"path": "u.txt"}),
                     lambda alg: scaled_unitary(alg, U)),
    "element diagonal": ((2, 1), unitary_by({"diagonal": [1, [0, 1], -1]}),
                         lambda alg: scaled_unitary(alg, diagonal(1, 1j, -1))),
    "element phases": (
        (2, 1), unitary_by({"diagonal_phases_over_2pi": [0.0, 0.25, 0.5]}),
        lambda alg: scaled_unitary(alg, diagonal(phase(0.0), phase(0.25), phase(0.5))),
    ),
    "element bare matrix": (
        (2,), unitary_by(SWAP),
        lambda alg: scaled_unitary(alg, alg.element([np.array(SWAP, dtype=complex)])),
    ),
    "unknown kind": ((2, 1), {"kind": "no_such_kind"}, None),
    "no kind": ((2, 1), {"unitary": U_BLOCKS}, None),
}


def one_map_config(dims, spec):
    return small_config(
        algebra={"block_dims": list(dims)},
        contractions=[spec],
        weight={"terms": [{"coefficient": 0.5, "phases_over_2pi": [0.0]}]},
        box=[4],
        besicovitch={"cutoff": [16]},
    )


@pytest.mark.parametrize("case", CONTRACTION_CASES)
def test_contraction_specs_build_what_their_constructors_build(tmp_path, case):
    from ncergo.scenario import _RunState

    dims, spec, direct = CONTRACTION_CASES[case]
    (tmp_path / "u.txt").write_text(element_to_text(U))
    cfg = scenario_from_dict(one_map_config(dims, spec), base_dir=tmp_path)
    if direct is None:
        verify = run_scenario(cfg, tasks=["verify"]).tasks[0]
        assert verify.status == "failed"
        assert verify.error.startswith("ConfigError: ") and "kind" in verify.error
        return
    (built,) = _RunState(cfg, cfg.budget).get_maps()
    want = direct(Algebra(dims))
    assert built.kind == want.kind
    for got, expected in zip(built.transfer_blocks, want.transfer_blocks, strict=True):
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# runs: determinism and structure

def test_run_is_deterministic():
    cfg = scenario_from_dict(small_config())
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert report_to_text(r1) == report_to_text(r2)
    assert not r1.failed


def test_report_round_trip():
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg, tasks=["verify", "average"])
    text = report_to_text(rep)
    back = parse_report(text)
    assert report_to_text(back) == text


def test_task_order_and_dependencies():
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg, tasks=["certify"])
    names = [t.name for t in rep.tasks]
    assert names == ["verify", "average", "certify"]
    assert all(t.status == "ok" for t in rep.tasks)


def test_failed_dependency_skips_downstream():
    bad = small_config()
    # second map violates the subunital condition: its verification fails
    bad["contractions"][1] = {
        "kind": "kraus",
        "operators": [{"blocks": [[[1.2, 0.0], [0.0, 1.0]]]}],
    }
    cfg = scenario_from_dict(bad)
    rep = run_scenario(cfg, tasks=["average"])
    by_name = {t.name: t for t in rep.tasks}
    assert by_name["verify"].status == "failed"
    assert by_name["average"].status == "skipped"
    assert rep.failed


def test_wall_clock_not_in_emitted_bytes():
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg, tasks=["verify"])
    assert rep.wall_clock_seconds is None or "wall_clock" not in report_to_text(rep)


def test_table_columns_pinned():
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg)
    by_name = {t.name: t for t in rep.tasks}
    verify_tables = by_name["verify"].tables
    assert verify_tables[0].columns == (
        "map", "kind", "subunital_margin", "trace_margin", "choi_min_eig",
        "passed", "evaluator",
    )
    maximal_tables = by_name["maximal"].tables
    assert maximal_tables[0].columns == (
        "cutoff", "family_size", "norm", "lower_bound", "ratio", "iterations",
        "converged", "evaluator",
    )


def test_maximal_summary_counts_unconverged_rungs(monkeypatch):
    # a rung capped before its gap closes shows in the summary, not only in
    # the rows; the capped rung here is simulated
    from ncergo import scenario

    def capped_last_rung(*args, **kwargs):
        rep = maximal_inequality_report(*args, **kwargs)
        last = dataclasses.replace(rep.rows[-1], converged=False)
        return dataclasses.replace(rep, rows=rep.rows[:-1] + (last,))

    maximal_inequality_report = scenario.maximal_inequality_report
    cfg = scenario_from_dict(small_config())
    assert run_scenario(cfg, tasks=["maximal"]).tasks[1].summary["unconverged_rungs"] == 0
    monkeypatch.setattr(scenario, "maximal_inequality_report", capped_last_rung)
    task = run_scenario(cfg, tasks=["maximal"]).tasks[1]
    assert task.name == "maximal"
    assert [row[6] for row in task.tables[0].rows] == [True, False]
    assert task.summary["unconverged_rungs"] == 1


def test_certify_summary_counts_unconverged_solves(monkeypatch):
    # a certify row whose dominant solve hit the iteration cap shows in the
    # summary, not only in the row's flags; the capped solve is simulated
    from ncergo import scenario

    def capped_last_row(*args, **kwargs):
        certs = onset_ladder(*args, **kwargs)
        return certs[:-1] + (dataclasses.replace(certs[-1], converged=False),)

    onset_ladder = scenario.onset_ladder
    cfg = scenario_from_dict(small_config())
    task = run_scenario(cfg, tasks=["certify"]).tasks[-1]
    assert task.name == "certify" and task.summary["unconverged_solves"] == 0
    monkeypatch.setattr(scenario, "onset_ladder", capped_last_row)
    task = run_scenario(cfg, tasks=["certify"]).tasks[-1]
    assert task.name == "certify" and len(task.tables[0].rows) >= 2
    assert task.summary["unconverged_solves"] == 1


def test_csv_formatting():
    from ncergo.scenario import Table

    t = Table.from_rows("demo", ("a", "b", "c"), [(1, True, 0.5), (2, False, None)])
    txt = table_to_csv(t)
    assert txt.splitlines()[0] == "a,b,c"
    assert txt.splitlines()[1] == "1,true,0.5"
    assert txt.splitlines()[2] == "2,false,"


def per_cell_csv(table):
    """CSV formatted one cell at a time, as emission did before columns."""
    import csv
    import io

    from ncergo.scenario import _csv_cell

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def per_cell_json_rows(table):
    """canonical_json of plain row lists writes one cell at a time."""
    return canonical_json([list(r) for r in table.rows])


ESCAPED = ('say "hi"', "back\\slash", "a,b", "two\nlines", "caf\u00e9", "\x7f",
           "cr\rhere", '"', ",", "\n", "", " pad ")


def assert_renders_per_cell(table):
    from ncergo.scenario import _json_rows

    assert _json_rows(table) == per_cell_json_rows(table)
    assert table_to_csv(table) == per_cell_csv(table)


def test_columnar_emission_matches_per_cell_emission():
    from ncergo.errors import IntegrityError
    from ncergo.scenario import Table, _json_rows

    mixed = (None, True, False, 3, np.int64(-4), np.float64(0.1), -0.0, "s")
    floats = (-0.0, 5e-324, 1e300, 0.1, -2.5, 1.0, 123456789.0, 0.0)
    rows = [
        (floats[k], None, f"({k},{k + 1})", ESCAPED[k % len(ESCAPED)],
         mixed[k], k - 3)
        for k in range(8)
    ]
    columns = ("floats", "nones", "plain", "escaped", "mixed", "ints")
    # each string that json.dumps escapes or csv quotes, alone among plain ones
    one_escape = [
        [r[:3] + (text if k == 5 else "plain",) + r[4:] for k, r in enumerate(rows)]
        for text in ESCAPED
    ]
    for body in [rows, []] + one_escape:
        table = Table.from_rows("mixed", columns, body)
        assert_renders_per_cell(table)
        # the same cells with the float column as a float64 array
        arrays = Table("mixed", columns, (
            np.array([r[0] for r in body], dtype=np.float64),) + table.data[1:])
        assert isinstance(arrays.data[0], np.ndarray)
        assert arrays.rows == table.rows
        assert_renders_per_cell(arrays)
    # a non-finite float still refuses to serialize, and still prints in CSV
    for bad in (float("nan"), float("inf"), -float("inf")):
        body = [(bad,) + rows[0][1:]] + rows[1:]
        table = Table.from_rows("mixed", columns, body)
        array = np.array([r[0] for r in body])
        for t in (table, Table("mixed", columns, (array,) + table.data[1:])):
            with pytest.raises(IntegrityError):
                _json_rows(t)
            assert table_to_csv(t) == per_cell_csv(t)


def test_columnar_emission_of_labels_and_lone_columns():
    from ncergo.scenario import Table

    n = 5
    values = np.array([-0.0, 5e-324, 1e300, 0.0, -1e-300])
    for labels in (["(5)", "(6)", "(7)", "(8)", "(9)"],  # one coordinate: no comma
                   ["(1,2)", "(1,3)", "(2,2)", "(2,3)", "(12,30)"]):
        table = Table("averages", ("index", "evaluator", "value", "none"), (
            labels, ("grid",) * n, values, (None,) * n))
        assert_renders_per_cell(table)
    # csv writes a lone empty field as "", in the header and in the body
    for column in [(None, "", "x", "a,b"), ("", ""), (None, None), ()]:
        for name in ("c", ""):
            assert_renders_per_cell(Table(name or "lone", (name,), (column,)))
    for empty in (Table("empty", ("a", "b"), (np.empty(0), ())),
                  Table.from_rows("empty", ("a", "b"), [])):
        assert_renders_per_cell(empty)
        assert per_cell_json_rows(empty) == "[]"


def reduced_reference_configs():
    """configs/pinch_trig_d2.json and configs/rate_d2.json on small boxes,
    each with all five tasks."""
    pinch = json.loads(REFERENCE.read_text())
    pinch.update({
        "box": [16, 16],
        "cutoffs": [4, 8],
        "certify": {"epsilon": 0.01, "onsets": [4, 8, 16]},
        "besicovitch": {"epsilon": 0.05, "cutoff": [16, 16]},
    })
    rate = json.loads((REFERENCE.parent / "rate_d2.json").read_text())
    rate.update({
        "box": [8, 8],
        "cutoffs": [2, 4],
        "tasks": list(ncergo.scenario.TASK_ORDER),
        "certify": {"epsilon": 0.01, "onsets": [1, 2, 4, 8]},
        "besicovitch": {"epsilon": 0.05, "cutoff": [8, 8]},
        "interpolation": {"q": 1.5, "cutoff": 3},
    })
    return [pinch, rate]


@pytest.mark.parametrize("index", [0, 1])
def test_emitted_files_match_per_cell_rendering(index, tmp_path):
    from ncergo.scenario import report_to_dict

    data = reduced_reference_configs()[index]
    rep = run_scenario(scenario_from_dict(data, base_dir=REFERENCE.parent))
    assert [t.name for t in rep.tasks] == list(ncergo.scenario.TASK_ORDER)
    assert all(t.status == "ok" for t in rep.tasks)
    emit_report(rep, formats=("structured", "tabular"), out_dir=tmp_path)
    # the report's layout, with every table's rows as plain lists
    want = report_to_dict(rep)
    for task_data, task in zip(want["tasks"], rep.tasks):
        for table_data, table in zip(task_data["tables"], task.tables):
            table_data["rows"] = [list(r) for r in table.rows]
            assert (tmp_path / f"{table.name}.csv").read_text() == per_cell_csv(table)
    assert (tmp_path / "report.json").read_text() == canonical_json(want) + "\n"


def test_emit_report_files_round_trip(tmp_path):
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg)
    assert [t.name for t in rep.tasks] == list(ncergo.scenario.TASK_ORDER)
    assert all(t.status == "ok" and t.tables for t in rep.tasks)
    paths = emit_report(rep, formats=("structured", "tabular"), out_dir=tmp_path)
    names = sorted(p.name for p in paths)
    assert "report.json" in names
    assert any(n.endswith(".csv") for n in names)
    text = (tmp_path / "report.json").read_text()
    assert report_to_text(parse_report(text)) == text
    # emitting twice produces identical bytes
    again = tmp_path / "again"
    again.mkdir()
    rep2 = run_scenario(cfg)
    emit_report(rep2, formats=("structured", "tabular"), out_dir=again)
    for name in names:
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes()


def test_average_table_float_columns_are_arrays():
    cfg = scenario_from_dict(small_config())
    [table] = {t.name: t for t in run_scenario(cfg, tasks=["average"]).tasks}[
        "average"].tables
    columns = dict(zip(table.columns, table.data))
    for name in ("trace_re", "trace_im", "norm_p", "residual_2"):
        col = columns[name]
        assert isinstance(col, np.ndarray) and col.dtype == np.float64, name
        assert col.shape == (cfg.box.size,) and not col.flags.writeable, name
    assert columns["index"][:2] == ("(1,1)", "(1,2)")
    assert columns["evaluator"] == ("grid",) * cfg.box.size


def test_budget_truncation_reported():
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg, tasks=["average"], budget=3)
    by_name = {t.name: t for t in rep.tasks}
    assert by_name["average"].status == "failed"
    assert "budget" in (by_name["average"].error or "").lower()


# ---------------------------------------------------------------------------
# the averages table against per-element formulas

def two_block_config(trig=True, p=3.0):
    weight = {
        "terms": [
            {"coefficient": 0.5, "phases_over_2pi": [0.0, 0.0]},
            {"coefficient": 0.3, "phases_over_2pi": [0.25, 0.1]},
        ]
    }
    if not trig:
        weight["perturbation"] = {"kind": "inverse_min", "amplitude": 0.2,
                                  "exponent": 1.0}
    return small_config(
        algebra={"block_dims": [2, 3], "trace_weights": [0.5, 2.0]},
        contractions=[
            {"kind": "pinching", "diagonal_partition": [[0], [1], [2, 3], [4]]},
            {
                "kind": "scaled_unitary",
                "scale": 1.0,
                "unitary": {"blocks": [[[0, 1], [1, 0]],
                                       [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]},
            },
        ],
        weight=weight,
        element={"mode": "random_general"},
        p=p,
        box={"lower": [2, 1], "upper": [6, 5]},
    )


def reference_average_rows(cfg):
    """Rows as computed one element at a time, with the per-element formulas."""
    from ncergo.averages import limit_oracle, weighted_average_grid
    from ncergo.scenario import TrigPolynomial, _RunState

    def tr(el):
        return complex(sum(w * np.trace(b)
                           for w, b in zip(el.algebra.trace_weights, el.blocks)))

    def svd_norm(el, p):
        svals = [np.linalg.svd(b, compute_uv=False) for b in el.blocks]
        total = sum(w * float(np.sum(s**p))
                    for w, s in zip(el.algebra.trace_weights, svals))
        return float(total ** (1.0 / p))

    def norm(el, p):
        # p = 2 in the Frobenius form, every other p from singular values
        if p != 2.0:
            return svd_norm(el, p)
        total = sum(w * float(np.sum(b.real**2 + b.imag**2))
                    for w, b in zip(el.algebra.trace_weights, el.blocks))
        value = float(total ** (1.0 / p))
        assert abs(value - svd_norm(el, p)) <= 1e-14 * value
        return value

    state = _RunState(cfg, cfg.budget)
    maps, x = state.get_maps(), state.get_element()
    fam = weighted_average_grid(cfg.weight, maps, x, cfg.box)
    limit = None
    if isinstance(cfg.weight, TrigPolynomial):
        limit = limit_oracle(cfg.weight, maps, x).value
    rows = []
    for n in cfg.box.indices():
        el = fam.value(n)
        t = tr(el)
        rows.append((
            "(" + ",".join(str(c) for c in n) + ")", "grid", float(t.real),
            float(t.imag), norm(el, cfg.p),
            None if limit is None else norm(el - limit, 2.0),
        ))
    return rows


@pytest.mark.parametrize("trig", [True, False])
def test_averages_table_matches_element_formulas(trig):
    for p in (2.0, 3.0):  # the Frobenius and the singular-value route
        cfg = scenario_from_dict(two_block_config(trig, p=p))
        rep = run_scenario(cfg, tasks=["average"])
        average = {t.name: t for t in rep.tasks}["average"]
        assert average.status == "ok"
        rows = list(average.tables[0].rows)
        ref = reference_average_rows(cfg)
        assert len(rows) == cfg.box.size == 25
        assert rows[0][0] == "(2,1)" and rows[-1][0] == "(6,5)"
        assert all(r[3] != 0.0 for r in ref)  # imaginary traces are exercised
        assert all((r[5] is None) != trig for r in ref)
        # repr round-trips floats exactly, so this is a bitwise comparison
        assert [repr(r) for r in rows] == [repr(r) for r in ref]


def chunked_two_block_config(trig):
    """two_block_config on a box whose last axis starts at 2, and the grid
    slab's bytes: with CHUNK_BYTES patched to one slab, the stream walks
    chunks of two slabs, [0, 2), [2, 4) and [4, 7), so the first starts
    below the box and yields one slab."""
    cfg = scenario_from_dict(dict(two_block_config(trig),
                                  box={"lower": [2, 2], "upper": [6, 7]}))
    return cfg, cfg.box.upper[0] * cfg.algebra.basis_size * 16


@pytest.mark.parametrize("trig", [True, False])
def test_averages_table_matches_element_formulas_across_chunks(trig, monkeypatch):
    from ncergo import averages

    cfg, slab_bytes = chunked_two_block_config(trig)
    ref = reference_average_rows(cfg)
    seen = []
    real_chunks = averages.GridStream.chunks

    def chunks(self, *args, **kwargs):
        for lo, hi, block in real_chunks(self, *args, **kwargs):
            seen.append((lo, hi))
            yield lo, hi, block

    monkeypatch.setattr(averages.GridStream, "chunks", chunks)
    monkeypatch.setattr(averages, "CHUNK_BYTES", slab_bytes)
    rep = run_scenario(cfg, tasks=["average"])
    assert seen == [(0, 1), (1, 3), (3, 6)]
    rows = list({t.name: t for t in rep.tasks}["average"].tables[0].rows)
    assert [repr(r) for r in rows] == [repr(r) for r in ref]


@pytest.mark.parametrize("chunked", [False, True])
def test_certify_reads_the_grid_family_minus_its_limit(chunked, monkeypatch):
    from ncergo import averages, scenario
    from ncergo.averages import limit_oracle, weighted_average_grid
    from ncergo.scenario import _RunState

    cfg, slab_bytes = chunked_two_block_config(True)
    state = _RunState(cfg, cfg.budget)
    maps, x = state.get_maps(), state.get_element()
    want = weighted_average_grid(cfg.weight, maps, x, cfg.box).minus_constant(
        limit_oracle(cfg.weight, maps, x).value)
    families = []
    real_ladder = scenario.onset_ladder

    def ladder(family, *args, **kwargs):
        families.append(family)
        return real_ladder(family, *args, **kwargs)

    monkeypatch.setattr(scenario, "onset_ladder", ladder)
    if chunked:
        monkeypatch.setattr(averages, "CHUNK_BYTES", slab_bytes)
    run_scenario(cfg, tasks=["certify"])
    [got] = families
    assert got.box == want.box and got.applications == want.applications
    assert got.raw().tobytes() == want.raw().tobytes()


def test_certify_needs_a_trig_weight():
    from ncergo.weights import BesicovitchWeight

    cfg = scenario_from_dict(two_block_config(trig=False))
    assert isinstance(cfg.weight, BesicovitchWeight)
    rep = run_scenario(cfg, tasks=["certify"])
    by_name = {t.name: t for t in rep.tasks}
    assert by_name["average"].status == "ok"
    assert by_name["certify"].status == "failed"
    assert by_name["certify"].error == (
        "UnsupportedError: certification needs a trig-polynomial weight "
        "with a computed limit")


def test_average_task_holds_no_family_without_certify():
    # the table is reduced chunk by chunk from the grid stream: with a trig
    # weight and no certify, neither the family nor its shifted copy is held
    import tracemalloc

    partition = [[i, i + 1] for i in range(0, 16, 2)]
    cfg = scenario_from_dict(small_config(
        algebra={"block_dims": [8, 8]},
        contractions=[{"kind": "pinching", "diagonal_partition": partition}] * 2,
        box=[128, 128],
    ))
    family_bytes = cfg.box.size * cfg.algebra.basis_size * 16
    assert family_bytes >= 8 * 2**20
    tracemalloc.start()
    try:
        rep = run_scenario(cfg, tasks=["average"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    average = {t.name: t for t in rep.tasks}["average"]
    assert average.status == "ok"
    assert average.tables[0].rows[-1][5] is not None  # residuals were taken
    assert peak < family_bytes


def test_non_finite_family_fails_average(monkeypatch):
    from ncergo.averages import GridStream

    real_chunks = GridStream.chunks

    def poisoned_chunks(self, *args, **kwargs):
        for i, (lo, hi, block) in enumerate(real_chunks(self, *args, **kwargs)):
            if i == 0:
                block[1, 2, 3] = complex(np.inf, 0.0)
            yield lo, hi, block

    monkeypatch.setattr(GridStream, "chunks", poisoned_chunks)
    cfg = scenario_from_dict(small_config())
    rep = run_scenario(cfg, tasks=["certify"])
    by_name = {t.name: t for t in rep.tasks}
    assert by_name["average"].status == "failed"
    assert by_name["average"].error == (
        "NumericError: non-finite entries in element block")
    assert by_name["certify"].status == "skipped"


# ---------------------------------------------------------------------------
# CLI

def write_config(tmp_path, data):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(data))
    return p


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    import os
    import subprocess
    import sys

    src = str(Path(ncergo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ncergo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_run_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    err = capsys.readouterr().err
    assert "verify" in err and "certify" in err


def test_cli_stdout_report_when_no_out(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    rc = cli_main(["verify", "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    parsed = parse_report(out)
    assert [t.name for t in parsed.tasks] == ["verify"]


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config(bogus=3))
    rc = cli_main(["run", "--config", str(cfg_path)])
    assert rc == 2


TERMS = small_config()["weight"]["terms"]
PINCH = small_config()["contractions"][0]

# case: (top-level overrides, the contraction field verify must name, or None
# when parsing itself must fail)
MALFORMED = {
    "term without coefficient": (
        {"weight": {"terms": [{"phases_over_2pi": [0.0, 0.0]}]}}, None),
    "perturbation without amplitude": (
        {"weight": {"terms": TERMS, "perturbation": {"kind": "inverse_min"}}}, None),
    "perturbation not an object": (
        {"weight": {"terms": TERMS, "perturbation": 5}}, None),
    "interpolation without q": ({"interpolation": {"cutoff": 4}}, None),
    "interpolation cutoff below 1": ({"interpolation": {"q": 1.5, "cutoff": 0}}, None),
    "element mode not a string": ({"element": {"mode": 3}}, None),
    "p not a number": ({"p": "x"}, None),
    "tolerance not a number": ({"tolerances": {"verify": "x"}}, None),
    "scaled_unitary without unitary": (
        {"contractions": [{"kind": "scaled_unitary"}, PINCH]}, "unitary"),
    "terms not a list": (
        {"contractions": [{"kind": "convex_combination", "terms": 5}, PINCH]}, "terms"),
    "scale not a number": (
        {"contractions": [unitary_by(U_BLOCKS) | {"scale": "x"}, PINCH],
         "algebra": {"block_dims": [2, 1]}}, "scale"),
}


# parse failures whose message is a range check, not "malformed config (...)"
PARSE_ERRORS = {
    "interpolation cutoff below 1": "error: interpolation.cutoff must be >= 1, got 0",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_is_a_config_error(tmp_path, capsys, case):
    extra, field = MALFORMED[case]
    data = small_config(**extra)
    if field is None:
        rc = cli_main(["run", "--config", str(write_config(tmp_path, data))])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            PARSE_ERRORS.get(case, "error: malformed config ("))
        return
    verify = run_scenario(scenario_from_dict(data), tasks=["verify"]).tasks[0]
    assert verify.status == "failed"
    assert verify.error.startswith("ConfigError: ")
    assert f"field {field!r}" in verify.error


@pytest.mark.parametrize("element", [{"blocks": 5}, {"diagonal_phases_over_2pi": 3}])
def test_malformed_element_fails_its_tasks(tmp_path, capsys, element):
    # the element is read when average first needs it, so parsing passes
    rc = cli_main(["run", "--config", str(write_config(tmp_path, small_config(element=element)))])
    assert rc == 1
    tasks = {t.name: t for t in parse_report(capsys.readouterr().out).tasks}
    assert tasks["average"].error.startswith("ConfigError: malformed element (")


def test_cli_task_failure_exit_1(tmp_path):
    bad = small_config()
    bad["contractions"][1] = {
        "kind": "kraus",
        "operators": [{"blocks": [[[1.2, 0.0], [0.0, 1.0]]]}],
    }
    cfg_path = write_config(tmp_path, bad)
    rc = cli_main(["verify", "--config", str(cfg_path)])
    assert rc == 1


def test_cli_seed_override_changes_digest(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    rc = cli_main(["verify", "--config", str(cfg_path)])
    out1 = capsys.readouterr().out
    rc = cli_main(["verify", "--config", str(cfg_path), "--seed-override", "99"])
    out2 = capsys.readouterr().out
    d1 = parse_report(out1).digest
    d2 = parse_report(out2).digest
    assert d1 != d2


def test_cli_certify_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    rc = cli_main(
        ["certify", "--config", str(cfg_path), "--epsilon", "0.02", "--onsets", "1,2"]
    )
    assert rc == 0
    parsed = parse_report(capsys.readouterr().out)
    assert [t.name for t in parsed.tasks] == ["verify", "average", "certify"]
    certify = [t for t in parsed.tasks if t.name == "certify"][0]
    rows = certify.tables[0].rows
    assert [r[0] for r in rows] == [1, 2]
    assert all(r[1] == pytest.approx(0.02) for r in rows)


# ---------------------------------------------------------------------------
# operation counts

def test_operation_counts_cover_every_solve_and_grid(monkeypatch):
    import sys

    from ncergo import averages, maximal

    totals = {"iterations": 0, "solves": 0, "applications": 0}

    def counted_dominant(*args, **kwargs):
        rep = dominant_element(*args, **kwargs)
        totals["iterations"] += rep.iterations
        totals["solves"] += 1
        return rep

    def counted_chunks(self, *args, **kwargs):
        # every grid, the average task's and the maximal task's families,
        # is walked by one GridStream
        yield from real_chunks(self, *args, **kwargs)
        totals["applications"] += self.applications

    dominant_element = maximal.dominant_element
    real_chunks = averages.GridStream.chunks
    monkeypatch.setattr(averages.GridStream, "chunks", counted_chunks)
    # rebind the name in every module that imported it, certify's solver too
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "ncergo":
            continue
        for key, val in list(vars(mod).items()):
            if val is dominant_element:
                monkeypatch.setattr(mod, key, counted_dominant)

    data = json.loads((REFERENCE.parent / "rate_d2.json").read_text())
    data.update({
        "box": [8, 8],
        "cutoffs": [2, 4],
        "tasks": ["verify", "besicovitch", "average", "maximal", "certify"],
        "certify": {"epsilon": 0.01, "onsets": [1, 2, 4, 8]},
        "besicovitch": {"epsilon": 0.05, "cutoff": [8, 8]},
        "interpolation": {"q": 1.5, "cutoff": 3},
    })
    report = run_scenario(scenario_from_dict(data, base_dir=REFERENCE.parent))
    assert all(t.status == "ok" for t in report.tasks)
    # ladder, interpolation (two solves) and 2 per certificate
    assert totals["solves"] == 2 + 2 + 2 * 4
    assert totals["iterations"] > 0
    assert report.operation_counts == {
        "map_applications": totals["applications"],
        "dominant_iterations": totals["iterations"],
    }


def test_pyproject_version_matches_tool_version():
    import ncergo

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == ncergo.TOOL_VERSION == ncergo.__version__
