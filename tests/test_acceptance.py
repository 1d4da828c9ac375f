"""Release gate: one test per acceptance criterion, at the stated tolerances.

Each test prints a one-line metric summary next to its pass/fail status.
Criteria with runtime bounds time themselves with time.monotonic.
"""

import time
from pathlib import Path

import numpy as np

from conftest import oracle_four_positives, stacks_of
from ncergo._rng import generator
from ncergo.algebra import (
    Algebra,
    Box,
    is_positive,
    lp_norm,
    trace,
)
from ncergo.averages import (
    ergodic_average_family,
    limit_oracle,
    weighted_average_direct,
    weighted_average_factorized,
    weighted_average_grid,
)
from ncergo.bau import onset_ladder, tail_box
from ncergo.contraction import (
    convex_combination,
    pinching,
    scaled_unitary,
    substochastic,
)
from ncergo.maximal import (
    dominant_element,
    interpolation_check,
    maximal_inequality_report,
)
from ncergo.scenario import (
    emit_report,
    load_scenario,
    report_to_text,
    run_scenario,
)
from ncergo.weights import (
    BesicovitchWeight,
    InverseMinDecay,
    TrigPolynomial,
    TrigTerm,
    normalized,
    verify_besicovitch,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHAPES = [(2,), (3,), (2, 2), (3, 2)]


# ---------------------------------------------------------------------------
# shared construction helpers

def rand_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))

def rand_pinching(alg, rng):
    # random two-set diagonal partition per block
    parts = []
    for d in alg.block_dims:
        idx = rng.permutation(d)
        cut = int(rng.integers(1, d)) if d > 1 else 1
        parts.append((sorted(idx[:cut]), sorted(idx[cut:])))
    projs = []
    for side in (0, 1):
        blocks = []
        for bi, d in enumerate(alg.block_dims):
            v = np.zeros(d)
            group = parts[bi][side]
            if len(group):
                v[np.array(group, dtype=int)] = 1.0
            blocks.append(np.diag(v).astype(complex))
        projs.append(alg.element(blocks))
    return pinching([p for p in projs if p.max_abs() > 0])

def rand_map(alg, rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        u = alg.element([rand_unitary(rng, d) for d in alg.block_dims])
        return scaled_unitary(alg, u, scale=float(rng.uniform(0.8, 1.0)))
    if kind == 1:
        return rand_pinching(alg, rng)
    u = alg.element([rand_unitary(rng, d) for d in alg.block_dims])
    return convex_combination([
        (0.5, scaled_unitary(alg, u, scale=1.0)),
        (0.5, rand_pinching(alg, rng)),
    ])

def rand_weight(rng, d, terms):
    ts = []
    for i in range(terms):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ph = tuple(rng.uniform(0, 2 * np.pi, d).tolist()) if i else (0.0,) * d
        ts.append(TrigTerm(c, ph))
    return normalized(TrigPolynomial(d, tuple(ts)))

def eigmin(x):
    return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in x.blocks)

def diag_el(alg, vec):
    blocks, off = [], 0
    for d in alg.block_dims:
        blocks.append(np.diag(np.asarray(vec[off:off + d], dtype=float)).astype(complex))
        off += d
    return alg.element(blocks)

def grid_oracle_2x2(mats, p, rounds=5, pts=25, span=3.0):
    # coarse-to-fine search over real symmetric a = [[a11, b], [b, a22]]
    # subject to a - x_k psd for every member
    best = None
    c11, c22, cb = 1.0, 1.0, 0.0
    width = span
    for _ in range(rounds):
        a11 = np.linspace(c11 - width, c11 + width, pts)
        a22 = np.linspace(c22 - width, c22 + width, pts)
        bb = np.linspace(cb - width, cb + width, pts)
        g11, g22, gb = np.meshgrid(a11, a22, bb, indexing="ij")
        cand = np.stack(
            [np.stack([g11, gb], axis=-1), np.stack([gb, g22], axis=-1)], axis=-2
        )
        feas = np.ones(g11.shape, dtype=bool)
        for x in mats:
            diff = cand - x[None, None, None]
            tr = diff[..., 0, 0] + diff[..., 1, 1]
            det = diff[..., 0, 0] * diff[..., 1, 1] - diff[..., 0, 1] * diff[..., 1, 0]
            feas &= (tr >= -1e-9) & (det >= -1e-9)
        lam, _ = np.linalg.eigh(cand)
        lam = np.maximum(lam, 0.0)
        if p == np.inf:
            vals = lam[..., -1]
        else:
            vals = (lam**p).sum(axis=-1) ** (1.0 / p)
        vals = np.where(feas, vals, np.inf)
        flat = int(np.argmin(vals))
        idx = np.unravel_index(flat, vals.shape)
        best = float(vals[idx])
        c11, c22, cb = float(g11[idx]), float(g22[idx]), float(gb[idx])
        width /= (pts - 1) / 4.0
    return best

def harmonic(n):
    return np.cumsum(1.0 / np.arange(1, n + 1))


# ---------------------------------------------------------------------------
# criterion 1: norm and trace inequalities on seeded random elements

def test_criterion_01_norm_trace_suite():
    t0 = time.monotonic()
    slack = 1e-9
    worst = 0.0
    for i in range(500):
        rng = generator(1000 + i, "gate1")
        shape = SHAPES[i % 4]
        weights = tuple(rng.uniform(0.5, 2.0, len(shape))) if i % 3 == 0 else None
        alg = Algebra(shape, weights)
        x = alg.random_element(rng, kind="general")
        y = alg.random_element(rng, kind="general")
        if i % 5 == 0:
            p = np.inf
        elif i % 7 == 0:
            p = 1.0
        else:
            p = float(rng.uniform(1.1, 4.0))
        q = np.inf if p == 1.0 else (p / (p - 1.0) if np.isfinite(p) else 1.0)

        holder = lp_norm(x @ y, 1.0) - lp_norm(x, p) * lp_norm(y, q)
        triangle = lp_norm(x + y, p) - (lp_norm(x, p) + lp_norm(y, p))
        xp = alg.random_element(rng, kind="positive")
        yp = alg.random_element(rng, kind="positive")
        monotone = lp_norm(xp, p) - lp_norm(xp + yp, p)
        worst = max(worst, holder, triangle, monotone)

        x0, x1, x2, x3 = oracle_four_positives(x)
        recon = (x0 - x2) + (x1 - x3) * 1j
        worst = max(worst, (recon - x).max_abs())
        assert all(is_positive(part, slack) for part in (x0, x1, x2, x3))
    elapsed = time.monotonic() - t0
    assert worst <= slack
    assert elapsed < 30.0
    print(f"criterion 1: 500 trials, worst violation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: diagonal subalgebra of M8 against a scalar implementation

def test_criterion_02_commutative_oracle():
    t0 = time.monotonic()
    rng = generator(20260815, "commutative")
    m = rng.random((8, 8)) + 0.05
    for _ in range(200):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
    s = 0.97 * m
    v = rng.random(8)
    terms = (
        TrigTerm(0.5, (0.0, 0.0)),
        TrigTerm(0.25 + 0.15j, (0.7, 1.9)),
        TrigTerm(0.2, (2.4, 0.3)),
    )
    a = TrigPolynomial(2, terms)

    alg = Algebra((8,))
    x = alg.element([np.diag(v).astype(complex)])
    t = substochastic(alg, s)
    fam = weighted_average_grid(a, [t, t], x, Box.full((16, 16)))

    # scalar route: matrix powers on the diagonal vector plus prefix sums
    pw = [v.astype(complex)]
    for _ in range(32):
        pw.append(s @ pw[-1])
    k = np.arange(1, 17, dtype=np.float64)
    wgrid = np.zeros((16, 16), dtype=np.complex128)
    for term in terms:
        wgrid += term.coefficient * (
            np.exp(1j * term.phases[0] * k)[:, None]
            * np.exp(1j * term.phases[1] * k)[None, :]
        )
    num = np.zeros((16, 16, 8), dtype=np.complex128)
    for k1 in range(1, 17):
        for k2 in range(1, 17):
            num[k1 - 1, k2 - 1] = wgrid[k1 - 1, k2 - 1] * pw[k1 + k2]
    num = num.cumsum(axis=0).cumsum(axis=1)

    worst = 0.0
    for n, el in fam.items():
        ref = num[n[0] - 1, n[1] - 1] / (n[0] * n[1])
        got = np.diagonal(el.blocks[0])
        worst = max(worst, float(np.abs(got - ref).max()))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(f"criterion 2: 256 indices, worst deviation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: direct, factorized, and grid evaluators agree

def test_criterion_03_evaluator_agreement():
    t0 = time.monotonic()
    boxes = {1: (32,), 2: (16, 16), 3: (8, 8, 8)}
    worst = 0.0
    for i in range(20):
        d = 1 + i % 3
        rng = generator(3000 + i, "gate3")
        alg = Algebra(SHAPES[i % 4])
        maps = [rand_map(alg, rng) for _ in range(d)]
        x = alg.random_element(rng, kind="general")
        a = rand_weight(rng, d, 1 + i % 3)
        upper = boxes[d]
        fam = weighted_average_grid(a, maps, x, Box.full(upper))
        for n in (upper, tuple(max(1, u // 2) for u in upper)):
            direct = weighted_average_direct(a, maps, x, n)
            fact = weighted_average_factorized(a, maps, x, n)
            g = fam.value(n)
            worst = max(
                worst,
                (direct - g).max_abs(),
                (fact - g).max_abs(),
                (direct - fact).max_abs(),
            )
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 120.0
    print(f"criterion 3: 20 scenarios, worst route gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: averages sandwiched by the unweighted mean

def test_criterion_04_sandwich():
    worst = np.inf
    box = Box.full((8, 8))
    for i in range(100):
        rng = generator(9000 + i, "sandwich")
        alg = Algebra(SHAPES[i % 4])
        maps = [rand_map(alg, rng), rand_map(alg, rng)]
        x = alg.random_element(rng, kind="positive")
        a = rand_weight(rng, 2, 1 + i % 3)
        fam = weighted_average_grid(a, maps, x, box)
        erg = ergodic_average_family(maps, x, box)
        # x is hermitian, so the split of A_N recovers the averages taken
        # against Re a and Im a separately
        re_fam, im_fam = fam.hermitian_split()
        for n, m_el in erg.items():
            for part in (re_fam.value(n), im_fam.value(n)):
                worst = min(worst, eigmin(m_el + part), eigmin(m_el - part))
    assert worst >= -1e-10
    print(f"criterion 4: 100 scenarios, worst eigenvalue {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: dominant elements against independent oracles

def test_criterion_05_dominant_oracles():
    # seeded diagonal families against the entrywise-max oracle
    worst_rel = 0.0
    for i in range(50):
        rng = generator(5000 + i, "gate5")
        alg = Algebra(SHAPES[i % 4])
        total = alg.total_dim
        fam = [
            diag_el(alg, rng.uniform(-1.0, 1.0, total))
            for _ in range(2 + i % 4)
        ]
        stacked = np.stack([
            np.concatenate([np.diagonal(b).real for b in x.blocks]) for x in fam
        ])
        oracle_el = diag_el(alg, np.maximum(stacked.max(axis=0), 0.0))
        for p in (1.0, 2.0, 4.0):
            rep = dominant_element(stacks_of(fam), p, algebra=alg)
            ref = lp_norm(oracle_el, p)
            worst_rel = max(worst_rel, abs(rep.norm - ref) / max(ref, 1e-30))
    assert worst_rel <= 1e-6

    # single-element families are bitwise exact
    for p in (1.0, 2.0, 4.0, np.inf):
        alg = Algebra((3,))
        x = alg.random_element(generator(42, "gate5-single"), kind="positive")
        assert dominant_element(stacks_of([x]), p, algebra=alg).norm == lp_norm(x, p)

    # 45-degree projection pair in M2 against the dense grid search; the
    # trace optimum has the closed form 1 + sin(pi/4)
    alg = Algebra((2,))
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p45 = np.full((2, 2), 0.5, dtype=complex)
    fam = [alg.element([p0]), alg.element([p45])]
    rep = dominant_element(stacks_of(fam), 1.0, tol=1e-10, algebra=alg)
    closed = 1.0 + np.sin(np.pi / 4)
    oracle = grid_oracle_2x2([p0.real, p45.real], 1.0)
    assert abs(rep.norm - closed) <= 1e-6
    assert rep.gap <= 1e-3
    assert abs(rep.norm - oracle) <= 1e-3 * oracle
    print(
        f"criterion 5: diag rel {worst_rel:.2e}, projection gap {rep.gap:.2e}, "
        f"norm {rep.norm:.6f} vs grid {oracle:.6f}"
    )


# ---------------------------------------------------------------------------
# criterion 6: dominant-norm ratios along a cutoff ladder

def test_criterion_06_maximal_ladder():
    seeds = [(7000, 1), (7001, 1), (7002, 1), (7003, 1), (7005, 1),
             (7007, 2), (7008, 2), (7009, 2), (7010, 2), (7012, 2)]
    worst_gap = 0.0
    for seed, d in seeds:
        rng = generator(seed, "ladder")
        alg = Algebra((3,) if d == 1 else (2,))
        maps = []
        for _ in range(d):
            u = alg.element([rand_unitary(rng, dd) for dd in alg.block_dims])
            maps.append(convex_combination([
                (0.6, scaled_unitary(alg, u, scale=1.0)),
                (0.4, rand_pinching(alg, rng)),
            ]))
        x = alg.random_element(rng, kind="positive")
        rep = maximal_inequality_report(maps, x, 2.0, (4, 8, 16, 32))
        assert rep.nondecreasing, f"seed {seed}: ratio ladder decreased"
        assert rep.cauchy_gap < 0.05, f"seed {seed}: gap {rep.cauchy_gap:.3f}"
        worst_gap = max(worst_gap, rep.cauchy_gap)
    print(f"criterion 6: 10 ladders nondecreasing, worst last-rung gap {worst_gap:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: projection certificates on the reference scenario

def test_criterion_07_bau_certificates():
    cfg = load_scenario(CONFIG_DIR / "pinch_trig_d2.json")
    alg = cfg.algebra
    e0 = alg.element([np.diag([1.0, 0.0]).astype(complex)])
    e1 = alg.element([np.diag([0.0, 1.0]).astype(complex)])
    maps = [pinching([e0, e1]), pinching([e0, e1])]
    x = alg.random_element(generator(cfg.seed, "element"), kind="positive")
    fam = weighted_average_grid(cfg.weight, maps, x, cfg.box, cfg.budget)
    resid = fam.minus_constant(limit_oracle(cfg.weight, maps, x).value)

    certs = onset_ladder(resid, cfg.p, cfg.certify_epsilon, cfg.certify_onsets)
    assert certs, "no certificates produced"
    for cert in certs:
        assert cert.sound
        # exhaustive re-verification of the two certificate clauses
        comp = trace(alg.identity() - cert.e.element).real
        assert comp <= cfg.certify_epsilon + 1e-14
        tail = resid.restrict(tail_box(resid, cert.onset))
        e = cert.e.element
        measured = max(
            lp_norm(e @ el @ e, np.inf) for _, el in tail.items()
        )
        assert measured <= cert.lam + 1e-10
        assert abs(measured - cert.tail_sup) <= 1e-12
        # the uniform bound must come from the trace budget via Chebyshev
        if any("imaginary part negligible" in f for f in cert.flags):
            ref = cert.dominant_norm / cert.epsilon ** (1.0 / cert.p)
        else:
            ref = cert.dominant_norm / (cert.epsilon / 2.0) ** (1.0 / cert.p)
        assert abs(cert.lam - ref) <= 1e-8
    small = [c for c in certs if c.onset <= 64 and c.tail_sup <= 1e-3]
    assert small, "no onset <= 64 reached tail_sup <= 1e-3"
    best = min(c.tail_sup for c in small)
    print(f"criterion 7: {len(certs)} sound certificates, best tail_sup {best:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: perturbed weights against closed-form harmonic sums

def test_criterion_08_besicovitch():
    eps = 0.05

    base1 = TrigPolynomial(1, (TrigTerm(0.7, (0.0,)), TrigTerm(0.2, (1.3,))))
    w1 = BesicovitchWeight(base1, InverseMinDecay(0.6), base1.coefficient_bound() + 0.6)
    rep1 = verify_besicovitch(w1, eps, (128,))
    h = harmonic(128)
    for row in rep1.rows:
        n = row.upper[0]
        ref = 0.6 * h[n - 1] / n
        assert abs(row.discrepancy - ref) <= 1e-12 * ref
    assert rep1.onset_observed is not None and rep1.onset_observed <= 100
    assert verify_besicovitch(w1, eps, (128,), onset=rep1.onset_observed).passed

    base2 = TrigPolynomial(2, (TrigTerm(0.6, (0.0, 0.0)), TrigTerm(0.25, (0.8, 2.1))))
    w2 = BesicovitchWeight(base2, InverseMinDecay(0.2), base2.coefficient_bound() + 0.2)
    rep2 = verify_besicovitch(w2, eps, (64, 64))
    h = harmonic(64)
    for row in rep2.rows:
        n = row.upper[0]
        assert row.upper == (n, n)
        ref = 0.2 * ((2 * n + 1) * h[n - 1] - 2 * n) / (n * n)
        assert abs(row.discrepancy - ref) <= 1e-12 * ref
    assert rep2.onset_observed is not None and rep2.onset_observed <= 32
    assert verify_besicovitch(w2, eps, (64, 64), onset=rep2.onset_observed).passed
    print(
        f"criterion 8: onsets d1 {rep1.onset_observed} <= 100, "
        f"d2 {rep2.onset_observed} <= 32, rows match harmonic sums"
    )


# ---------------------------------------------------------------------------
# criterion 9: residual decay rate on the reference scenarios

def test_criterion_09_convergence_rate():
    slopes = {}
    for name in ("rate_d1.json", "rate_d2.json"):
        cfg = load_scenario(CONFIG_DIR / name)
        rep = run_scenario(cfg)
        assert not rep.failed
        avg = next(t for t in rep.tasks if t.name == "average")
        tab = avg.tables[0]
        cols = dict(zip(tab.columns, zip(*tab.rows)))
        res = dict(zip(cols["index"], cols["residual_2"]))
        ns = [8, 16, 32, 64]
        d = cfg.box.dim
        errs = [res["(" + ",".join([str(n)] * d) + ")"] for n in ns]
        assert all(a > b for a, b in zip(errs, errs[1:])), f"{name}: not decreasing"
        slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        assert -1.3 <= slope <= -0.7, f"{name}: slope {slope:.3f}"
        slopes[name] = slope
    print(
        "criterion 9: slopes "
        + ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    )


# ---------------------------------------------------------------------------
# criterion 10: dominant-norm interpolation between levels

def test_criterion_10_interpolation():
    worst = np.inf
    for i in range(100):
        rng = generator(5000 + i, "interp")
        alg = Algebra(SHAPES[i % 4])
        fam = [alg.random_element(rng, kind="positive") for _ in range(2 + i % 4)]
        for p, q in ((4.0, 2.0), (3.0, 1.5)):
            rep = interpolation_check(stacks_of(fam), p, q, slack=1e-6, algebra=alg)
            assert rep.passed, f"trial {i} (p={p}, q={q}): {rep.lhs} > {rep.rhs}"
            worst = min(worst, (rep.rhs - rep.lhs) / rep.rhs)
    print(f"criterion 10: 200 checks hold, tightest relative margin {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical reports on re-run

def test_criterion_11_determinism(tmp_path):
    for name in ("pinch_trig_d2.json", "rate_d1.json"):
        texts, trees = [], []
        for run in (0, 1):
            rep = run_scenario(load_scenario(CONFIG_DIR / name))
            texts.append(report_to_text(rep))
            out = tmp_path / f"{name}-{run}"
            emit_report(rep, ("structured", "tabular"), out)
            trees.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert texts[0] == texts[1]
        assert trees[0].keys() == trees[1].keys()
        for fname in trees[0]:
            assert trees[0][fname] == trees[1][fname], f"{name}: {fname} differs"
    print("criterion 11: re-runs byte-identical for 2 scenarios")
