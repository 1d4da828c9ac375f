"""Output checks for the benchmark workloads, computed with numpy alone.

Nothing here imports ncergo. Every reference value is derived from the
scenario config (and the seeded element draw, replayed below) by a route
that differs from the program's: closed-form weight means for the pinching
workload, numpy prefix sums over explicit matrix powers for rate_d2, and
direct sums with the benchmark's own map implementation for large_grid.

`check_report(workload, config, report)` returns one `Check` per property,
grouped by the task whose output it speaks about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
REL_TOL = 1e-9
VERIFY_TOL = 1e-10
TRACE_COMPLEMENT_SLACK = 1e-12


@dataclass(frozen=True)
class Check:
    task: str
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.tolerance)


# ---------------------------------------------------------------------------
# inputs: the element the scenario draws from its seed

def _splitmix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def scenario_element(config: dict) -> list[np.ndarray]:
    """Blocks of the random positive element a scenario draws from its seed.

    Replays the documented draw: a Philox stream keyed by
    splitmix64(seed) xor key("element"), then per block a complex Gaussian
    g and x_b = scale * g g* / (2 d).
    """
    spec = config["element"]
    if spec.get("mode") != "random_positive":
        raise ValueError(f"oracles expect a random_positive element, got {spec}")
    tag = 0
    for ch in b"element":
        tag = _splitmix((tag + ch) & MASK64)
    key = _splitmix(int(config["seed"]) & MASK64) ^ tag
    rng = np.random.Generator(np.random.Philox(key=key))
    blocks = []
    for d in config["algebra"]["block_dims"]:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(float(spec.get("scale", 1.0)) * ((g @ g.conj().T) / (2 * d)))
    return blocks


# ---------------------------------------------------------------------------
# small numpy helpers

def _cplx(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v, 0.0)


def _matrix(rows) -> np.ndarray:
    return np.array([[_cplx(v) for v in row] for row in rows], dtype=np.complex128)


def _term_phases(term: dict) -> np.ndarray:
    if "phases_over_2pi" in term:
        return 2 * np.pi * np.array(term["phases_over_2pi"], dtype=np.float64)
    return np.array(term["phases"], dtype=np.float64)


def _is_trivial_phase(theta: float) -> bool:
    return abs(np.exp(1j * theta) - 1.0) <= 1e-15


def _weight_box(weight: dict, upper) -> np.ndarray:
    """a(k) on [1, upper] (2-d), skeleton plus inverse_min perturbation."""
    k1 = np.arange(1, upper[0] + 1)[:, None]
    k2 = np.arange(1, upper[1] + 1)[None, :]
    out = np.zeros((upper[0], upper[1]), dtype=np.complex128)
    for term in weight["terms"]:
        th = _term_phases(term)
        out += _cplx(term["coefficient"]) * np.exp(1j * (th[0] * k1 + th[1] * k2))
    pert = weight.get("perturbation")
    if pert is not None:
        if pert["kind"] != "inverse_min":
            raise ValueError(f"oracles model inverse_min only, got {pert}")
        out += pert["amplitude"] / np.minimum(k1, k2) ** pert.get("exponent", 1.0)
    return out


def _mean_weight_closed_form(weight: dict, upper) -> np.ndarray:
    """m(N) = |N|^-1 sum_{k <= N} a(k) for a trig polynomial, by geometric sums."""
    out = np.zeros(tuple(upper), dtype=np.complex128)
    for term in weight["terms"]:
        factors = []
        for theta, top in zip(_term_phases(term), upper):
            n = np.arange(1, top + 1, dtype=np.float64)
            if _is_trivial_phase(theta):
                factors.append(np.ones(top, dtype=np.complex128))
            else:
                z = np.exp(1j * theta)
                factors.append(z * (1 - z**n) / ((1 - z) * n))
        out += _cplx(term["coefficient"]) * np.multiply.outer(*factors)
    return out


def _limit_coefficient(weight: dict) -> complex:
    """Sum of coefficients whose phases are all trivial."""
    return sum(
        (_cplx(t["coefficient"]) for t in weight["terms"]
         if all(_is_trivial_phase(th) for th in _term_phases(t))),
        0j,
    )


def _schatten(blocks_stack: list[np.ndarray], p: float) -> np.ndarray:
    """Unit-weight Schatten p-norms of a batch given as one (..., d, d) per block."""
    total = 0.0
    for b in blocks_stack:
        s = np.linalg.svd(b, compute_uv=False)
        total = total + np.sum(s**p, axis=-1)
    return total ** (1.0 / p)


def _rel_dev(reported, reference) -> float:
    """Worst |rep - ref| / (|ref| + 1e-3 * max|ref|) over paired values."""
    rep = np.asarray(reported, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if rep.shape != ref.shape:
        return math.inf
    if rep.size == 0:
        return 0.0
    floor = 1e-3 * float(np.abs(ref).max()) + 1e-300
    return float(np.max(np.abs(rep - ref) / (np.abs(ref) + floor)))


def _index(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.strip("()").split(","))


def _tables(report: dict) -> tuple[dict, dict]:
    tasks = {t["name"]: t for t in report["tasks"]}
    tables = {}
    for t in report["tasks"]:
        for tab in t["tables"]:
            tables[tab["name"]] = [dict(zip(tab["columns"], r)) for r in tab["rows"]]
    return tasks, tables


def _truth(task: str, name: str, ok: bool) -> Check:
    return Check(task, name, 0.0 if ok else 1.0, 0.0)


# ---------------------------------------------------------------------------
# checks shared by every workload

def _check_verify(rows: list[dict], maps: int) -> list[Check]:
    """Every map is unital and trace-preserving: both margins are 0 exactly;
    the Choi matrix is positive semidefinite."""
    margins = [abs(r[c]) for r in rows for c in ("subunital_margin", "trace_margin")]
    return [
        Check("verify", "subunital and trace margins within 1e-10 of 0",
              max(margins, default=math.inf), VERIFY_TOL),
        Check("verify", "choi_min_eig >= -1e-10",
              max((-r["choi_min_eig"] for r in rows), default=math.inf), VERIFY_TOL),
        _truth("verify", "every map passed",
               len(rows) == maps and all(r["passed"] for r in rows)),
    ]


def _check_certify_common(rows: list[dict], epsilon: float, onsets: list[int],
                          upper: int) -> list[Check]:
    expected = sorted({o for o in onsets if o <= upper})
    return [
        _truth("certify", "one row per onset inside the box",
               [r["onset"] for r in rows] == expected),
        Check("certify", "trace_complement <= epsilon + 1e-12",
              max((r["trace_complement"] for r in rows), default=math.inf),
              epsilon + TRACE_COMPLEMENT_SLACK),
        _truth("certify", "tail_sup <= lambda and every row sound",
               all(r["tail_sup"] <= r["lambda"] and r["sound"] for r in rows)),
        _truth("certify", "tail_size = (top - onset + 1)^2",
               all(r["tail_size"] == (upper - r["onset"] + 1) ** 2 for r in rows)),
        _truth("certify", "epsilon column", all(r["epsilon"] == epsilon for r in rows)),
    ]


def _status_checks(tasks: dict, expected: tuple[str, ...]) -> list[Check]:
    return [_truth(name, "status ok", name in tasks and tasks[name]["status"] == "ok")
            for name in expected]


def _check_trig_besicovitch(rows: list[dict]) -> list[Check]:
    return [
        Check("besicovitch", "discrepancy of a trig weight against itself is 0",
              max((abs(r["discrepancy"]) for r in rows), default=math.inf), 0.0),
        _truth("besicovitch", "every rung passed", all(r["passed"] for r in rows)),
    ]


# ---------------------------------------------------------------------------
# pinch_run: both maps are the same diagonal pinching, so T^k x = diag x

def check_pinch(config: dict, report: dict) -> list[Check]:
    tasks, tables = _tables(report)
    checks = _status_checks(tasks, ("verify", "besicovitch", "average",
                                    "maximal", "certify"))
    p = float(config["p"])
    upper = tuple(config["box"]["upper"])
    x = scenario_element(config)[0]
    dx = np.real(np.diag(x))
    norm_dx_p = float(np.sum(dx**p) ** (1 / p))
    norm_dx_2 = float(np.sqrt(np.sum(dx**2)))
    tau = float(np.sum(dx))
    m = _mean_weight_closed_form(config["weight"], upper)
    c0 = _limit_coefficient(config["weight"])

    rows = tables.get("averages", [])
    idx = [tuple(c - 1 for c in _index(r["index"])) for r in rows]
    mv = np.array([m[i] for i in idx])
    checks += [
        _truth("average", "one row per box index", len(rows) == m.size),
        Check("average", "trace = m(N) tau(x)",
              _rel_dev([r["trace_re"] for r in rows] + [r["trace_im"] for r in rows],
                       list(mv.real * tau) + list(mv.imag * tau)), REL_TOL),
        Check("average", "norm_p = |m(N)| ||diag x||_p",
              _rel_dev([r["norm_p"] for r in rows], np.abs(mv) * norm_dx_p), REL_TOL),
        Check("average", "residual_2 = |m(N) - c0| ||diag x||_2",
              _rel_dev([r["residual_2"] for r in rows], np.abs(mv - c0) * norm_dx_2),
              REL_TOL),
    ]

    crow = tables.get("certify", [])
    cert = config["certify"]
    eps = float(cert["epsilon"])
    ref_dom, ref_sup, ref_lam = [], [], []
    for r in crow:
        tail = m[r["onset"] - 1:, r["onset"] - 1:] - c0
        dom = (np.abs(tail.real).max() + np.abs(tail.imag).max()) * norm_dx_p
        ref_dom.append(dom)
        ref_lam.append(dom / (eps / 2) ** (1 / p))
        ref_sup.append(np.abs(tail).max() * dx.max())
    checks += _check_certify_common(crow, eps, cert["onsets"], min(upper))
    checks += [
        Check("certify", "e = 1: |trace_complement| ~ 0",
              max((abs(r["trace_complement"]) for r in crow), default=math.inf),
              TRACE_COMPLEMENT_SLACK),
        Check("certify", "dominant_norm = (max|Re r| + max|Im r|) ||diag x||_p",
              _rel_dev([r["dominant_norm"] for r in crow], ref_dom), REL_TOL),
        Check("certify", "lambda = dominant_norm / (eps/2)^(1/p)",
              _rel_dev([r["lambda"] for r in crow], ref_lam), REL_TOL),
        Check("certify", "tail_sup = max|m - c0| max(diag x)",
              _rel_dev([r["tail_sup"] for r in crow], ref_sup), REL_TOL),
    ]

    mrow = tables.get("maximal", [])
    norm_x_p = float(np.sum(np.linalg.eigvalsh(x) ** p) ** (1 / p))
    checks += [
        _truth("maximal", "one row per cutoff, family_size = c^2",
               [(r["cutoff"], r["family_size"]) for r in mrow]
               == [(c, c * c) for c in sorted(config["cutoffs"])]),
        Check("maximal", "norm = ||diag x||_p",
              _rel_dev([r["norm"] for r in mrow], [norm_dx_p] * len(mrow)), REL_TOL),
        Check("maximal", "lower_bound = ||diag x||_p",
              _rel_dev([r["lower_bound"] for r in mrow], [norm_dx_p] * len(mrow)),
              REL_TOL),
        Check("maximal", "ratio = ||diag x||_p / ||x||_p",
              _rel_dev([r["ratio"] for r in mrow], [norm_dx_p / norm_x_p] * len(mrow)),
              REL_TOL),
    ]
    summary = tasks.get("maximal", {}).get("summary", {})
    interp = config.get("interpolation")
    if interp is not None:
        q = float(interp["q"])
        rhs = dx.max() ** (1 - q / p) * float(np.sum(dx**q) ** (1 / q)) ** (q / p)
        checks += [
            Check("maximal", "interpolation lhs = ||diag x||_p, rhs closed form",
                  _rel_dev([summary.get("interpolation_lhs", math.nan),
                            summary.get("interpolation_rhs", math.nan)],
                           [norm_dx_p, rhs]), REL_TOL),
            _truth("maximal", "interpolation passed",
                   summary.get("interpolation_passed") is True),
        ]
    checks += _check_trig_besicovitch(tables.get("besicovitch", []))
    checks += _check_verify(tables.get("verify", []), len(config["contractions"]))
    return checks


# ---------------------------------------------------------------------------
# rate_d2_certify: T1 x = diag(S diag x), T2 y = U* y U, first map first

def _rate_grid(config: dict, x: np.ndarray, upper):
    """A_N for every N in [1, upper] by numpy prefix sums."""
    s = np.array(config["contractions"][0]["matrix"], dtype=np.float64)
    u = _matrix(config["contractions"][1]["unitary"]["blocks"][0])
    scale = float(config["contractions"][1].get("scale", 1.0))
    dvec, diags = np.real(np.diag(x)), []
    for _ in range(upper[0]):
        dvec = s @ dvec
        diags.append(dvec)
    diags = np.array(diags)                               # (N1, n)
    powers, w = [], np.eye(u.shape[0], dtype=np.complex128)
    for _ in range(upper[1]):
        w = w @ u
        powers.append(w)
    powers = np.array(powers)                             # (N2, n, n)
    steps = scale ** np.arange(1, upper[1] + 1)
    terms = np.einsum("bji,aj,bjl->abil", powers.conj(), diags, powers)
    terms = terms * steps[None, :, None, None]
    a = _weight_box(config["weight"], upper)
    sums = np.cumsum(np.cumsum(terms * a[:, :, None, None], axis=0), axis=1)
    vols = np.multiply.outer(np.arange(1, upper[0] + 1), np.arange(1, upper[1] + 1))
    return sums / vols[:, :, None, None]


def check_rate(config: dict, report: dict) -> list[Check]:
    tasks, tables = _tables(report)
    checks = _status_checks(tasks, ("verify", "besicovitch", "average", "certify"))
    p = float(config["p"])
    upper = tuple(config["box"]["upper"])
    x = scenario_element(config)[0]
    n = x.shape[0]
    grid = _rate_grid(config, x, upper)
    limit = (_limit_coefficient(config["weight"]) * np.real(np.trace(x)) / n
             * np.eye(n))

    rows = tables.get("averages", [])
    idx = [tuple(c - 1 for c in _index(r["index"])) for r in rows]
    a_n = np.array([grid[i] for i in idx]).reshape(-1, n, n)
    tr = np.trace(a_n, axis1=1, axis2=2)
    checks += [
        _truth("average", "one row per box index", len(rows) == upper[0] * upper[1]),
        Check("average", "trace = tau(A_N), prefix-sum grid",
              _rel_dev([r["trace_re"] for r in rows] + [r["trace_im"] for r in rows],
                       list(tr.real) + list(tr.imag)), REL_TOL),
        Check("average", "norm_p = ||A_N||_p",
              _rel_dev([r["norm_p"] for r in rows], _schatten([a_n], p)), REL_TOL),
        Check("average", "residual_2 = ||A_N - L||_2, L = c0 tau(x)/n 1",
              _rel_dev([r["residual_2"] for r in rows], _schatten([a_n - limit], 2.0)),
              REL_TOL),
    ]

    crow = tables.get("certify", [])
    eps = float(config.get("certify", {}).get("epsilon", 0.01))
    onsets = config.get("certify", {}).get("onsets")
    if onsets is None:
        onsets, j = [], 1
        while j < min(upper):
            onsets.append(j)
            j *= 2
        onsets.append(min(upper))
    resid = grid - limit
    op_norm = np.linalg.svd(resid, compute_uv=False)[..., 0]
    ref_sup = [op_norm[r["onset"] - 1:, r["onset"] - 1:].max() for r in crow]
    checks += _check_certify_common(crow, eps, onsets, min(upper))
    checks += [
        Check("certify", "e = 1: |trace_complement| ~ 0",
              max((abs(r["trace_complement"]) for r in crow), default=math.inf),
              TRACE_COMPLEMENT_SLACK),
        Check("certify", "tail_sup = max_{N >= onset} ||A_N - L||_inf",
              _rel_dev([r["tail_sup"] for r in crow], ref_sup), REL_TOL),
        Check("certify", "lambda = dominant_norm / (eps/2)^(1/p)",
              _rel_dev([r["lambda"] for r in crow],
                       [r["dominant_norm"] / (eps / 2) ** (1 / p) for r in crow]),
              REL_TOL),
    ]

    checks += _check_trig_besicovitch(tables.get("besicovitch", []))
    checks += _check_verify(tables.get("verify", []), len(config["contractions"]))
    return checks


# ---------------------------------------------------------------------------
# large_grid: direct sums with the benchmark's own map implementation

def _map_from_spec(spec: dict, dims):
    """Callable acting on a list of (..., d, d) block stacks."""
    kind = spec["kind"]
    if kind == "scaled_unitary":
        s = float(spec.get("scale", 1.0))
        us = [_matrix(b) for b in spec["unitary"]["blocks"]]
        return lambda xs: [s * (u.conj().T @ x @ u) for u, x in zip(us, xs)]
    if kind == "pinching":
        group = np.full(sum(dims), -1)
        for g, coords in enumerate(spec["diagonal_partition"]):
            group[list(coords)] = g
        masks, at = [], 0
        for d in dims:
            g = group[at:at + d]
            masks.append(((g[:, None] == g[None, :]) & (g[:, None] >= 0))
                         .astype(np.float64))
            at += d
        return lambda xs: [x * mk for x, mk in zip(xs, masks)]
    if kind == "kraus":
        ops = [[_matrix(b) for b in op["blocks"]] for op in spec["operators"]]
        return lambda xs: [
            sum(op[i].conj().T @ x @ op[i] for op in ops) for i, x in enumerate(xs)
        ]
    if kind == "convex_combination":
        parts = [(float(w), _map_from_spec(sub, dims)) for w, sub in spec["terms"]]

        def combine(xs):
            outs = [(w, f(xs)) for w, f in parts]
            return [sum(w * y[i] for w, y in outs) for i in range(len(xs))]

        return combine
    raise ValueError(f"oracle has no model of map kind {kind!r}")


def sample_indices(upper) -> list[tuple[int, int]]:
    """Eight or more indices spread over the box, corner included."""
    a, b = upper
    pts = [(1, 1), (1, b), (a, 1), (2, 3), ((a + 1) // 2, (b + 2) // 3),
           ((2 * a) // 3, (b + 1) // 2), (a - 1, b), (a, b)]
    return sorted(set(pts))


def _direct_averages(config: dict, samples) -> dict:
    """A_N at the sampled N by direct summation of a(k) T2^k2 T1^k1 x."""
    dims = config["algebra"]["block_dims"]
    t1, t2 = (_map_from_spec(s, dims) for s in config["contractions"])
    upper = tuple(config["box"]["upper"])
    a = _weight_box(config["weight"], upper)
    y = [b[None] for b in scenario_element(config)]
    orbit = []
    for _ in range(upper[0]):
        y = t1(y)
        orbit.append(y)
    z = [np.concatenate([o[i] for o in orbit]) for i in range(len(dims))]
    sums = {n: [np.zeros((d, d), dtype=np.complex128) for d in dims] for n in samples}
    for k2 in range(1, upper[1] + 1):
        z = t2(z)
        for n in samples:
            if k2 > n[1]:
                continue
            w = a[:n[0], k2 - 1]
            for i in range(len(dims)):
                sums[n][i] += np.tensordot(w, z[i][:n[0]], axes=(0, 0))
    return {n: [s / (n[0] * n[1]) for s in blocks] for n, blocks in sums.items()}


def check_large_grid(config: dict, report: dict) -> list[Check]:
    tasks, tables = _tables(report)
    checks = _status_checks(tasks, ("verify", "besicovitch", "average"))
    p = float(config["p"])
    upper = tuple(config["box"]["upper"])
    samples = sample_indices(upper)
    ref = _direct_averages(config, samples)
    rows = {_index(r["index"]): r for r in tables.get("averages", [])}
    got = [rows.get(n) for n in samples]
    if any(r is None for r in got):
        return checks + [_truth("average", "sampled rows present", False)]
    tr = [sum(np.trace(b) for b in ref[n]) for n in samples]
    norms = [float(_schatten([b[None] for b in ref[n]], p)[0]) for n in samples]
    checks += [
        _truth("average", "one row per box index", len(rows) == upper[0] * upper[1]),
        Check("average", f"trace = tau(A_N), direct sums at {len(samples)} N",
              _rel_dev([r["trace_re"] for r in got] + [r["trace_im"] for r in got],
                       [t.real for t in tr] + [t.imag for t in tr]), REL_TOL),
        Check("average", "norm_p = ||A_N||_p at the sampled N",
              _rel_dev([r["norm_p"] for r in got], norms), REL_TOL),
        _truth("average", "no limit column for a Besicovitch weight",
               all(r["residual_2"] is None for r in rows.values())),
    ]

    brow = tables.get("besicovitch", [])
    bes = config["besicovitch"]
    # sum over k <= (n, n) of 1/min(k) is (2n+1) H_n - 2n; the generated
    # weight's inverse_min perturbation has exponent 1
    amp = float(config["weight"]["perturbation"]["amplitude"])
    ref_d = []
    for r in brow:
        n1, n2 = _index(r["upper"])
        h = math.fsum(1.0 / k for k in range(1, n1 + 1))
        ref_d.append(amp * ((2 * n1 + 1) * h - 2 * n1) / n1**2 if n1 == n2 else math.nan)
    checks += [
        Check("besicovitch", "D(n,n) = A((2n+1)H_n - 2n)/n^2",
              _rel_dev([r["discrepancy"] for r in brow], ref_d)
              if brow else math.inf, REL_TOL),
        _truth("besicovitch", "passed = D < eps exactly from the onset",
               all(r["passed"] == (r["discrepancy"] < bes["epsilon"]) for r in brow)
               and tasks.get("besicovitch", {}).get("summary", {}).get("passed")
               is True),
    ]
    checks += _check_verify(tables.get("verify", []), len(config["contractions"]))
    return checks


CHECKERS = {
    "pinch_run": check_pinch,
    "rate_d2_certify": check_rate,
    "large_grid": check_large_grid,
}


def check_report(workload: str, config: dict, report: dict) -> list[Check]:
    return CHECKERS[workload](config, report)
