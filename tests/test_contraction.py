"""Map constructors, verification margins, powers, and mean projections."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergo._rng import generator
from ncergo.algebra import Algebra, Element, Projection
from ncergo.contraction import (
    CLUSTER_TOL,
    LinearOperator,
    apply_power,
    cesaro_limit_projection,
    choi_matrix,
    composition,
    convex_combination,
    identity_map,
    is_hermiticity_preserving,
    kraus,
    operator_from_function,
    pinching,
    scaled_unitary,
    schur_multiplier,
    substochastic,
    trace_adjoint_matrix,
    verify_absolute_contraction,
)
from ncergo.errors import StructuralError, UnsupportedError


def diag_projection(alg, block, idxs):
    mats = [np.zeros((d, d), dtype=complex) for d in alg.block_dims]
    for i in idxs:
        mats[block][i, i] = 1.0
    return Projection(alg.element(mats))


def rotation_unitary(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def unitary_element(alg, *mats):
    return alg.element(list(mats))


# ---------------------------------------------------------------------------
# constructors and verification margins

def test_scaled_unitary_margins():
    alg = Algebra((2,))
    t = scaled_unitary(alg, unitary_element(alg, rotation_unitary(0.3)), scale=0.8)
    rep = verify_absolute_contraction(t)
    assert rep.passed
    # T(1) = s 1, so both margins equal 1 - s
    assert rep.subunital_margin == pytest.approx(0.2, abs=1e-12)
    assert rep.trace_margin == pytest.approx(0.2, abs=1e-12)
    assert rep.choi_min_eig >= -1e-12


def test_scaled_unitary_rejects_bad_inputs():
    alg = Algebra((2,))
    with pytest.raises(StructuralError):
        scaled_unitary(alg, unitary_element(alg, np.array([[1, 1], [0, 1]], dtype=complex)))
    with pytest.raises(StructuralError):
        scaled_unitary(alg, unitary_element(alg, rotation_unitary(0.1)), scale=1.5)


def test_pinching_is_idempotent_and_verified():
    alg = Algebra((2, 2), (1.0, 0.5))
    e = diag_projection(alg, 0, [0])
    f = diag_projection(alg, 1, [0, 1])
    t = pinching([e, f])
    rep = verify_absolute_contraction(t)
    assert rep.passed
    m = t.transfer_matrix()
    assert np.abs(m @ m - m).max() < 1e-12


def test_pinching_rejects_overlap():
    alg = Algebra((2,))
    e = diag_projection(alg, 0, [0])
    with pytest.raises(StructuralError):
        pinching([e, e])


def test_schur_multiplier_action_and_margins():
    alg = Algebra((2,))
    coeff = np.array([[1.0, 0.25], [0.25, 0.5]], dtype=complex)
    t = schur_multiplier(alg, coeff)
    rep = verify_absolute_contraction(t)
    assert rep.passed
    x = alg.element([np.array([[1, 2], [3, 4]], dtype=complex)])
    y = t.apply(x)
    assert np.abs(y.blocks[0] - coeff * x.blocks[0]).max() < 1e-14
    # diagonal of the coefficient matrix must not exceed 1
    with pytest.raises(StructuralError):
        schur_multiplier(alg, np.array([[1.5, 0], [0, 1.0]], dtype=complex))
    # PSD is required
    with pytest.raises(StructuralError):
        schur_multiplier(alg, np.array([[1.0, 0.99], [0.99, 0.5]], dtype=complex))


def test_kraus_gram_conditions_named():
    alg = Algebra((2,))
    big = [alg.element([np.sqrt(1.2) * np.eye(2, dtype=complex)])]
    with pytest.raises(StructuralError, match="subunital"):
        kraus(alg, big)


def test_substochastic_action_matches_matrix():
    alg = Algebra((4,))
    rng = generator(11, "sub")
    s = rng.random((4, 4))
    s = 0.9 * s / s.sum(axis=1, keepdims=True)  # row sums 0.9
    # shrink columns too so the trace condition holds
    col = s.sum(axis=0).max()
    s = s / max(col, 1.0)
    t = substochastic(alg, s)
    rep = verify_absolute_contraction(t)
    assert rep.passed
    v = np.array([0.3, 1.2, 0.0, 2.0])
    x = alg.element([np.diag(v).astype(complex)])
    y = t.apply(x)
    assert np.abs(np.diag(y.blocks[0]) - s @ v).max() < 1e-12


def test_substochastic_validation():
    alg = Algebra((2,))
    with pytest.raises(StructuralError):
        substochastic(alg, np.array([[0.8, 0.8], [0.0, 0.1]]))  # row sum > 1
    with pytest.raises(StructuralError):
        substochastic(alg, -np.eye(2))
    with pytest.raises(UnsupportedError):
        substochastic(Algebra((2, 2)), np.eye(2) * 0.5)


def test_convex_combination_and_composition():
    alg = Algebra((2,))
    t1 = scaled_unitary(alg, unitary_element(alg, rotation_unitary(0.4)))
    t2 = pinching([diag_projection(alg, 0, [0]), diag_projection(alg, 0, [1])])
    conv = convex_combination([(0.5, t1), (0.3, t2)])
    assert verify_absolute_contraction(conv).passed
    m = conv.transfer_matrix()
    assert np.abs(m - 0.5 * t1.transfer_matrix() - 0.3 * t2.transfer_matrix()).max() < 1e-12
    comp = composition([t1, t2])
    # composition applies left factor first
    assert np.abs(comp.transfer_matrix() - t2.transfer_matrix() @ t1.transfer_matrix()).max() < 1e-12
    with pytest.raises(StructuralError):
        convex_combination([(0.7, t1), (0.7, t2)])
    with pytest.raises(StructuralError):
        convex_combination([(-0.1, t1)])


def test_identity_map():
    alg = Algebra((2, 3))
    t = identity_map(alg)
    rep = verify_absolute_contraction(t)
    assert rep.passed
    assert rep.subunital_margin == pytest.approx(0.0, abs=1e-14)
    assert np.abs(t.transfer_matrix() - np.eye(alg.basis_size)).max() == 0.0


# ---------------------------------------------------------------------------
# adjoint and Choi oracles

def test_trace_adjoint_pairing_seeded():
    # tau(T(x) y) == tau(x T'(y)) for the weighted trace
    alg = Algebra((2, 3), (1.0, 0.3))
    rng = generator(5, "adj")
    t = convex_combination(
        [
            (0.6, scaled_unitary(alg, unitary_element(alg, rotation_unitary(0.7), np.eye(3, dtype=complex)))),
            (0.4, pinching([diag_projection(alg, 1, [0, 2])])),
        ]
    )
    from ncergo.algebra import trace

    adj = LinearOperator(alg, trace_adjoint_matrix(t))
    for _ in range(10):
        x = alg.random_element(rng, kind="general")
        y = alg.random_element(rng, kind="general")
        assert trace(t.apply(x) @ y) == pytest.approx(trace(x @ adj.apply(y)), abs=1e-10)


def test_choi_detects_transpose():
    # the transpose map preserves positivity but is not completely
    # positive; its Choi matrix has an eigenvalue -1 on M_2
    alg = Algebra((2,))
    t = operator_from_function(alg, lambda x: alg.element([x.blocks[0].T]))
    choi = choi_matrix(t)
    assert np.linalg.eigvalsh(choi)[0] == pytest.approx(-1.0, abs=1e-12)
    rep = verify_absolute_contraction(t)
    assert not rep.passed
    assert rep.choi_min_eig == pytest.approx(-1.0, abs=1e-12)


def test_non_hermiticity_preserving_raises():
    alg = Algebra((2,))
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    t = operator_from_function(alg, lambda x: alg.element([a @ x.blocks[0]]))
    assert not is_hermiticity_preserving(t)
    with pytest.raises(StructuralError):
        verify_absolute_contraction(t)


# ---------------------------------------------------------------------------
# powers

def test_apply_power_order_noncommuting():
    alg = Algebra((2,))
    t1 = scaled_unitary(alg, unitary_element(alg, rotation_unitary(0.5)), scale=0.9)
    e = diag_projection(alg, 0, [0])
    f = diag_projection(alg, 0, [1])
    t2 = pinching([e, f])
    rng = generator(2, "pow")
    x = alg.random_element(rng, kind="hermitian")
    y = apply_power([t1, t2], (3, 2), x)
    manual = x
    for _ in range(3):
        manual = t1.apply(manual)
    for _ in range(2):
        manual = t2.apply(manual)
    assert (y - manual).max_abs() < 1e-12
    with pytest.raises(ValueError):
        apply_power([t1], (0,), x)


# ---------------------------------------------------------------------------
# mean projections

def test_cesaro_projection_of_pinching_is_itself():
    alg = Algebra((3,))
    t = pinching([diag_projection(alg, 0, [0, 1]), diag_projection(alg, 0, [2])])
    proj = cesaro_limit_projection(t)
    assert np.abs(proj.transfer_matrix() - t.transfer_matrix()).max() < 1e-10


def test_cesaro_projection_strict_contraction_is_zero():
    alg = Algebra((2,))
    t = scaled_unitary(alg, unitary_element(alg, rotation_unitary(0.3)), scale=0.5)
    proj = cesaro_limit_projection(t)
    assert np.abs(proj.transfer_matrix()).max() < 1e-12


def test_cesaro_projection_matches_long_average():
    # unitary conjugation by diag(1, e^{i}): the mean projection kills the
    # off-diagonal and keeps the diagonal
    alg = Algebra((2,))
    u = np.diag([1.0, np.exp(1.0j)])
    t = scaled_unitary(alg, unitary_element(alg, u))
    proj = cesaro_limit_projection(t)
    n = 20000
    acc = np.zeros((4, 4), dtype=complex)
    m = t.transfer_matrix()
    cur = np.eye(4, dtype=complex)
    for _ in range(n):
        cur = m @ cur
        acc += cur
    acc /= n
    assert np.abs(proj.transfer_matrix() - acc).max() < 1e-3
    assert np.abs(proj.transfer_matrix() @ proj.transfer_matrix() - proj.transfer_matrix()).max() < 1e-10


def test_cesaro_projection_phase():
    # with phase e^{-i theta} the rotation eigenvector at e^{i theta}
    # survives; with phase 1 it does not contribute
    alg = Algebra((2,))
    theta = 2 * np.pi / 5
    u = np.diag([1.0, np.exp(1j * theta)])
    t = scaled_unitary(alg, unitary_element(alg, u))
    p0 = cesaro_limit_projection(t)
    p1 = cesaro_limit_projection(t, phase=np.exp(-1j * theta))
    # transfer eigenvalues are exp(i theta (k - l)); phase shifts the cluster
    assert np.real(np.trace(p0.transfer_matrix())) == pytest.approx(2.0, abs=1e-10)
    assert np.real(np.trace(p1.transfer_matrix())) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        cesaro_limit_projection(t, phase=0.5)


def schur_projection(op, phase=1.0):
    """Oracle: the eigenvalue-1 spectral projection of phase*T, Schur route.

    A complex Schur form sorted so that the eigenvalues within CLUSTER_TOL of
    1 lead, then one Sylvester solve for the coupling block.
    """
    a = complex(phase) * op.transfer_matrix()
    dim = a.shape[0]
    t, z, k = scipy.linalg.schur(
        a, output="complex", sort=lambda v: abs(v - 1.0) <= CLUSTER_TOL
    )
    if k in (0, dim):
        return np.eye(dim) if k else np.zeros((dim, dim))
    y = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
    proj = np.zeros((dim, dim), dtype=complex)
    proj[:k, :k] = np.eye(k)
    proj[:k, k:] = y
    return z @ proj @ z.conj().T


def assert_mean_projection(op, phase):
    """The kernel route matches the Schur oracle and is the mean projection."""
    got = cesaro_limit_projection(op, phase)
    p = got.transfer_matrix()
    a = phase * op.transfer_matrix()
    assert got.notes == ()
    assert np.abs(p - schur_projection(op, phase)).max() <= 1e-12
    assert np.abs(p @ p - p).max() <= 1e-12
    assert np.abs(a @ p - p).max() <= 1e-12
    assert np.abs(p @ a - p).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    parts=st.lists(st.sampled_from(["unitary", "diagonal", "pinching", "twisted"]),
                   min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_cesaro_projection_matches_schur_oracle(dims, parts, seed):
    # convex combinations of conjugations and pinchings are absolute
    # contractions, hence power bounded; the twisted pinching (a pinching
    # followed by a diagonal conjugation) keeps unimodular eigenvalues other
    # than 1, which the phases below move onto 1
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.5, 2.0, size=len(dims))))

    def random_unitary(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]

    def diagonal():
        return alg.element([np.diag(np.exp(2j * np.pi * rng.random(d))) for d in dims])

    def pinch():
        projs = []
        for b, d in enumerate(dims):
            cut = int(rng.integers(0, d + 1))
            projs += [diag_projection(alg, b, range(cut)), diag_projection(alg, b, range(cut, d))]
        return pinching([q for q in projs if q.element.max_abs() > 0])

    build = {
        "unitary": lambda: scaled_unitary(alg, alg.element([random_unitary(d) for d in dims])),
        "diagonal": lambda: scaled_unitary(alg, diagonal()),
        "pinching": pinch,
        "twisted": lambda: composition([pinch(), scaled_unitary(alg, diagonal())]),
    }
    w = rng.dirichlet(np.ones(len(parts))) * rng.choice([1.0, rng.uniform(0.8, 1.0)])
    t = convex_combination([(wi, build[kind]()) for wi, kind in zip(w, parts)])
    eigs = np.linalg.eigvals(t.transfer_matrix())
    peripheral = eigs[np.abs(np.abs(eigs) - 1.0) <= 1e-9]
    phases = [1.0, np.exp(2j * np.pi * rng.random())]
    phases += [np.conj(mu) / abs(mu) for mu in peripheral[:4]]
    for phase in phases:
        assert_mean_projection(t, phase)


@pytest.mark.parametrize("name", ["pinch_trig_d2", "rate_d1", "rate_d2"])
def test_cesaro_projection_matches_schur_oracle_on_configs(name):
    # every (map, phase) pair the limit oracle reaches in the shipped configs
    from ncergo.scenario import _RunState, scenario_from_dict

    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = scenario_from_dict(json.loads(path.read_text()))
    maps = _RunState(cfg, cfg.budget).get_maps()
    for term in cfg.weight.terms:
        for t, theta in zip(maps, term.phases):
            assert_mean_projection(t, np.exp(1j * theta))


def test_cesaro_projection_flags_a_jordan_block_without_clamping():
    # T = J_2(1) ⊕ 1/2 ⊕ 1/2: eigenvalue 1 is double but has one eigenvector,
    # so T is not power bounded and its averages have no limit
    alg = Algebra((2,))

    def raw_map(coupling):
        m = np.diag([1.0, 1.0, 0.5, 0.5]).astype(complex)
        m[0, 1] = coupling
        return operator_from_function(alg, lambda x: alg.unvec(m @ alg.vec(x)))

    notes = cesaro_limit_projection(raw_map(1.0)).notes
    assert any("rank disagreement: 2 eigenvalues" in n and "but 1 singular values" in n
               and "kept 2" in n for n in notes)
    assert any("not semisimple" in n for n in notes)
    # a semisimple eigenvalue 1 of the same multiplicity raises no note
    assert cesaro_limit_projection(raw_map(0.0)).notes == ()


def test_apply_rejects_other_algebra():
    # same block dims, different trace weights: a different algebra
    alg = Algebra((2,))
    other = Algebra((2,), (0.5,)).identity()
    raw = operator_from_function(alg, lambda x: x)
    with pytest.raises(StructuralError):
        raw.apply(other)
    with pytest.raises(StructuralError):
        identity_map(alg).apply(other)


# ---------------------------------------------------------------------------
# closed-form transfer and Choi matrices against probing through the old
# per-kind Element formulas

def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def substochastic_kraus(alg, s):
    # the Kraus family {sqrt(S_ij) e_ji} that realizes a substochastic map
    n = alg.block_dims[0]
    ops = []
    for i in range(n):
        for j in range(n):
            if s[i, j] != 0.0:
                k = np.zeros((n, n), dtype=complex)
                k[j, i] = np.sqrt(s[i, j])
                ops.append(alg.element([k]))
    return ops or [alg.zero()]


def draw_spec(alg, rng, depth=0):
    """A random map as a (kind, params) record, nested up to two levels."""
    kinds = ["scaled_unitary", "kraus", "pinching"]
    if alg.num_blocks == 1:
        kinds += ["schur_multiplier", "substochastic"]
    if depth < 2:
        kinds += ["convex_combination", "composition"]
    kind = kinds[int(rng.integers(len(kinds)))]
    dims = alg.block_dims
    if kind == "scaled_unitary":
        u = alg.element([random_unitary(rng, d) for d in dims])
        return kind, (float(rng.uniform(0.1, 1.0)), u)
    if kind == "kraus":
        ops = [[random_complex(rng, d) for d in dims]
               for _ in range(int(rng.integers(1, 4)))]
        top = max(
            float(np.linalg.eigvalsh(sum(g(k[b]) for k in ops))[-1])
            for b in range(len(dims))
            for g in (lambda m: m.conj().T @ m, lambda m: m @ m.conj().T)
        )
        c = 1.0 / np.sqrt(top * rng.uniform(1.01, 2.0))
        return kind, [alg.element([c * m for m in k]) for k in ops]
    if kind == "pinching":
        # diagonal groups rotated per block, so projections span blocks and
        # are Hermitian only up to rounding
        rot = [random_unitary(rng, d) for d in dims]
        coords = rng.permutation(alg.total_dim)
        cuts = np.sort(rng.choice(np.arange(1, alg.total_dim + 1),
                                  size=int(rng.integers(1, alg.total_dim + 1)),
                                  replace=False))
        projs, start = [], 0
        offsets = np.cumsum((0,) + dims)
        for stop in cuts:
            group = set(int(c) for c in coords[start:stop])
            start = stop
            blocks = []
            for b, (v, d) in enumerate(zip(rot, dims)):
                mask = [1.0 if offsets[b] + i in group else 0.0 for i in range(d)]
                blocks.append(v @ np.diag(mask) @ v.conj().T)
            projs.append(Projection(alg.element(blocks)))
        return kind, projs
    if kind == "schur_multiplier":
        a = random_complex(rng, dims[0])
        h = a @ a.conj().T
        return kind, rng.uniform(0.3, 1.0) * h / float(np.max(np.real(np.diag(h))))
    if kind == "substochastic":
        s = rng.random((dims[0], dims[0])) * (rng.random((dims[0], dims[0])) < 0.7)
        return kind, s / max(1.0, s.sum(axis=0).max(), s.sum(axis=1).max())
    subs = [draw_spec(alg, rng, depth + 1) for _ in range(int(rng.integers(1, 4)))]
    if kind == "composition":
        return kind, subs
    w = rng.random(len(subs)) + 0.05
    w = w / (w.sum() * rng.uniform(1.0, 1.5))
    return kind, [(float(wi), sub) for wi, sub in zip(w, subs)]


def build_spec(alg, spec):
    kind, p = spec
    if kind == "scaled_unitary":
        return scaled_unitary(alg, p[1], p[0])
    if kind == "kraus":
        return kraus(alg, p)
    if kind == "pinching":
        return pinching(p)
    if kind == "schur_multiplier":
        return schur_multiplier(alg, p)
    if kind == "substochastic":
        return substochastic(alg, p)
    if kind == "convex_combination":
        return convex_combination([(w, build_spec(alg, sub)) for w, sub in p])
    return composition([build_spec(alg, sub) for sub in p])


def reference_apply(spec, x):
    alg = x.algebra
    kind, p = spec
    if kind == "scaled_unitary":
        s, u = p
        return Element(alg, [s * (ub.conj().T @ xb @ ub) for ub, xb in zip(u.blocks, x.blocks)])
    if kind == "pinching":
        acc = alg.zero()
        for proj in p:
            e = proj.element
            acc = acc + (e @ x @ e)
        return acc
    if kind == "schur_multiplier":
        return Element(alg, [p * x.blocks[0]])
    if kind in ("kraus", "substochastic"):
        ops = p if kind == "kraus" else substochastic_kraus(alg, p)
        blocks = [np.zeros_like(b) for b in x.blocks]
        for k in ops:
            for i, (kb, xb) in enumerate(zip(k.blocks, x.blocks)):
                blocks[i] = blocks[i] + kb.conj().T @ xb @ kb
        return Element(alg, blocks)
    if kind == "convex_combination":
        acc = alg.zero()
        for lam, sub in p:
            acc = acc + lam * reference_apply(sub, x)
        return acc
    for sub in p:
        x = reference_apply(sub, x)
    return x


def probed_transfer(alg, fn):
    cols = np.empty((alg.basis_size, alg.basis_size), dtype=complex)
    col = 0
    for b, d in enumerate(alg.block_dims):
        for i in range(d):
            for j in range(d):
                cols[:, col] = alg.vec(fn(alg.basis_element(b, i, j)))
                col += 1
    return cols


def probed_choi(alg, fn):
    n = alg.total_dim
    choi = np.zeros((n * n, n * n), dtype=complex)
    offset = 0
    for b, d in enumerate(alg.block_dims):
        for i in range(d):
            for j in range(d):
                out = fn(alg.basis_element(b, i, j))
                gi, gj = offset + i, offset + j
                row_off = 0
                for blk in out.blocks:
                    db = blk.shape[0]
                    rows, cols = gi * n + row_off, gj * n + row_off
                    choi[rows:rows + db, cols:cols + db] += blk
                    row_off += db
        offset += d
    return choi


def has_composition(spec):
    kind, p = spec
    if kind == "composition":
        return True
    return kind == "convex_combination" and any(has_composition(s) for _, s in p)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_forms_match_probed_reference(dims, single, seed):
    if single:  # Schur multipliers and substochastic maps need one block
        dims = dims[:1]
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.1, 3.0, size=len(dims))))
    spec = draw_spec(alg, rng)
    t = build_spec(alg, spec)
    assert t.kind == {"substochastic": "kraus"}.get(spec[0], spec[0])

    def fn(x):
        return reference_apply(spec, x)

    choi = choi_matrix(t)
    pairs = ((t.transfer_matrix(), probed_transfer(alg, fn)),
             (choi, probed_choi(alg, fn)))
    for got, want in pairs:
        if has_composition(spec):
            # a matrix product sums in another order than applying in turn
            assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(want).max())
        else:
            assert np.array_equal(got, want)
    # entry ((i, r), (j, c)) lies in a block pair when i, j share a block and
    # r, c share a block; every other entry is an exact zero
    block_of = np.repeat(np.arange(len(dims)), dims)
    pair = (block_of[:, None] * len(dims) + block_of[None, :]).reshape(-1)
    outside = pair[:, None] != pair[None, :]
    assert not np.any(choi[outside])
    full_min = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])
    rep = verify_absolute_contraction(t)
    if len(dims) == 1:
        assert rep.choi_min_eig == full_min
    else:
        assert abs(rep.choi_min_eig - full_min) <= 1e-12 * (1.0 + np.abs(choi).max())


# ---------------------------------------------------------------------------
# per-block storage against the dense construction it replaced

def dense_conjugation_matrix(algebra, pairs):
    """The dense transfer matrix of x -> sum_j A_j x B_j, zero off the blocks,
    built as the constructors did before maps were stored per block."""
    m = np.zeros((algebra.basis_size,) * 2, dtype=np.complex128)
    off = 0
    for b, d in enumerate(algebra.block_dims):
        basis = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)
        acc = np.zeros_like(basis)
        for left, right in pairs:
            acc = acc + left[b] @ basis @ right[b]
        m[off:off + d * d, off:off + d * d] = acc.reshape(d * d, d * d).T
        off += d * d
    return m


def dense_spec(alg, spec):
    """The dense transfer matrix of a draw_spec record, the old way."""
    kind, p = spec

    def kraus_pairs(ops):
        return [([b.conj().T for b in k.blocks], k.blocks) for k in ops]

    if kind == "scaled_unitary":
        s, u = p
        return s * dense_conjugation_matrix(alg, [([b.conj().T for b in u.blocks], u.blocks)])
    if kind == "pinching":
        return dense_conjugation_matrix(alg, [(q.element.blocks, q.element.blocks) for q in p])
    if kind == "kraus":
        return dense_conjugation_matrix(alg, kraus_pairs(p))
    if kind == "substochastic":
        return dense_conjugation_matrix(alg, kraus_pairs(substochastic_kraus(alg, p)))
    if kind == "schur_multiplier":
        return np.diag(p.reshape(-1))
    if kind == "convex_combination":
        m = np.zeros((alg.basis_size,) * 2, dtype=np.complex128)
        for w, sub in p:
            m = m + w * dense_spec(alg, sub)
        return m
    m = dense_spec(alg, p[0])
    for sub in p[1:]:
        m = dense_spec(alg, sub) @ m
    return m


@pytest.mark.parametrize("dims,stored,dense", [((4,) * 16, 4096, 65536),
                                               ((8, 8, 8), 12288, 36864)])
def test_per_block_storage_scales_with_the_fourth_powers(dims, stored, dense):
    alg = Algebra(dims)
    rng = np.random.default_rng(len(dims))
    t = convex_combination([
        (0.5, scaled_unitary(alg, alg.element([random_unitary(rng, d) for d in dims]))),
        (0.5, pinching([diag_projection(alg, b, [0]) for b in range(len(dims))])),
    ])
    assert [m.shape for m in t.transfer_blocks] == [(d * d, d * d) for d in dims]
    assert sum(m.size for m in t.transfer_blocks) == stored
    assert t.transfer_matrix().size == dense


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_match_the_dense_construction(dims, single, seed):
    if single:
        dims = dims[:1]
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.1, 3.0, size=len(dims))))
    spec = draw_spec(alg, rng)
    t = build_spec(alg, spec)
    want = dense_spec(alg, spec)
    for b, s in enumerate(alg._slices):
        got, ref = t.transfer_blocks[b], want[s, s]
        if has_composition(spec):
            assert np.abs(got - ref).max() <= 1e-15 * (1.0 + np.abs(ref).max())
        else:
            assert np.array_equal(got, ref)
    owner = np.repeat(np.arange(len(dims)), [d * d for d in dims])
    assert not np.any(want[owner[:, None] != owner[None, :]])


def dense_verify(op, m):
    """verify_absolute_contraction on the dense transfer matrix m, as it ran
    before maps were stored per block: dense products, the adjoint as one
    F-ordered matrix, and an eigensolve of every block pair of the dense
    (n, n, n, n) Choi array."""
    alg = op.algebra
    n = alg.total_dim
    one = alg.identity()
    w = np.concatenate([np.full(d * d, wt) for d, wt in zip(alg.block_dims, alg.trace_weights)])
    adj = np.array((m.conj().T * w[None, :]) / w[:, None], copy=True)

    def min_eig(v):
        return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0])
                   for b in alg.unvec(v).blocks)

    vone = alg.vec(one)
    sub = min_eig(vone - m @ vone)
    tr = min_eig(vone - adj @ vone)
    rows, cols = np.concatenate([
        off + np.indices((d, d)).reshape(2, -1)
        for off, d in zip(np.cumsum((0,) + alg.block_dims[:-1]), alg.block_dims)
    ], axis=1)
    choi = np.zeros((n, n, n, n), dtype=np.complex128)
    choi[rows[None, :], rows[:, None], cols[None, :], cols[:, None]] = m
    cuts = np.cumsum((0,) + alg.block_dims)
    spans = [(slice(lo, hi), hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
    choi_min = min(
        float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0])
        for blk in (choi[bi, bo, bi, bo].reshape(di * do, di * do)
                    for bi, di in spans for bo, do in spans)
    )
    return sub, tr, choi_min


def assert_verify_matches_dense(t, m):
    rep = verify_absolute_contraction(t)
    got = (rep.subunital_margin, rep.trace_margin, rep.choi_min_eig)
    want = dense_verify(t, m)
    assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_verify_matches_the_dense_choi_oracle_bitwise(dims, single, seed):
    # off-pair Choi blocks are exact zeros: they enter the minimum as 0.0,
    # as an eigensolve of the zero block does
    if single:
        dims = dims[:1]
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.1, 3.0, size=len(dims))))
    spec = draw_spec(alg, rng)
    t = build_spec(alg, spec)
    assert_verify_matches_dense(t, t.transfer_matrix())


def test_verify_matches_the_dense_choi_oracle_on_large_grid_maps():
    from ncergo.scenario import _RunState, scenario_from_dict

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = scenario_from_dict(workloads.large_grid(root, workloads.DEFAULT_SEED))
    maps = _RunState(cfg, cfg.budget).get_maps()
    assert cfg.algebra.block_dims == (16, 8)
    for t in maps:
        assert_verify_matches_dense(t, t.transfer_matrix())


def test_block_coupling_matrix_is_rejected():
    alg = Algebra((2, 1))
    m = np.eye(alg.basis_size, dtype=complex)
    assert LinearOperator.from_matrix(alg, m).transfer_blocks[1].shape == (1, 1)
    m[4, 0] = 1e-300  # block 0's e_00 leaks into block 1
    with pytest.raises(StructuralError, match="couples blocks"):
        LinearOperator.from_matrix(alg, m)
    with pytest.raises(StructuralError, match="couples blocks"):
        operator_from_function(alg, lambda x: alg.element(
            [x.blocks[0], x.blocks[0][:1, :1] + x.blocks[1]]))
