"""Least dominant elements: exact paths, a search oracle, and ladders."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stacks_of
from ncergo._rng import generator
from ncergo.algebra import Algebra, Box, Element, is_positive, lp_norm, positive_part
from ncergo.averages import AverageFamily, ergodic_average_family
from ncergo.contraction import convex_combination, identity_map, pinching, scaled_unitary
from ncergo.errors import NumericError, StructuralError
from ncergo.maximal import (
    FEAS_TOL,
    LadderRow,
    MaximalLadderReport,
    dominant_element,
    interpolation_check,
    maximal_inequality_report,
    prepare_signed,
)
from ncergo.algebra import Projection


def diag_el(alg, *vecs):
    return alg.element([np.diag(np.asarray(v, dtype=float)).astype(complex) for v in vecs])


def dominates(a, x, tol=1e-8):
    return is_positive(a - x, tol)


def diag_oracle_norm(alg, vectors, p):
    # diagonal families reduce to scalars: the least dominant is the
    # entrywise positive maximum
    top = np.maximum(np.max(np.stack(vectors), axis=0), 0.0)
    blocks, off = [], 0
    for d in alg.block_dims:
        blocks.append(np.diag(top[off:off + d]).astype(complex))
        off += d
    return lp_norm(alg.element(blocks), p)


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


# ---------------------------------------------------------------------------
# exact paths

def test_single_positive_is_bitwise_exact():
    alg = Algebra((3,))
    rng = generator(0, "sp")
    x = alg.random_element(rng, kind="positive")
    rep = dominant_element(stacks_of([x]), p=2.0, algebra=alg)
    assert rep.method == "single_exact"
    assert rep.iterations == 0
    assert (rep.dominant - x).max_abs() == 0.0
    assert rep.norm == pytest.approx(lp_norm(x, 2.0), abs=1e-12)
    assert rep.gap <= 1e-12


def test_single_general_takes_positive_part():
    alg = Algebra((2,))
    x = diag_el(alg, [2.0, -3.0])
    rep = dominant_element(stacks_of([x]), p=1.0, algebra=alg)
    assert (rep.dominant - positive_part(x)).max_abs() < 1e-12
    assert rep.norm == pytest.approx(2.0, abs=1e-12)


def test_infinity_path_is_scaled_identity():
    alg = Algebra((2,))
    e11 = diag_el(alg, [1.0, 0.0])
    e22 = diag_el(alg, [0.0, 1.0])
    rep = dominant_element(stacks_of([e11, e22]), p=np.inf, algebra=alg)
    assert rep.method == "infinity_exact"
    assert rep.norm == pytest.approx(1.0, abs=1e-12)
    assert (rep.dominant - alg.identity()).max_abs() < 1e-12


def test_commuting_diagonal_family_exact():
    alg = Algebra((2,))
    fam = [diag_el(alg, [3.0, 1.0]), diag_el(alg, [2.0, 2.0])]
    rep = dominant_element(stacks_of(fam), p=1.0, algebra=alg)
    assert rep.method == "commuting_exact"
    assert rep.iterations == 0
    assert rep.norm == pytest.approx(5.0, abs=1e-12)
    assert rep.gap <= 1e-12
    for x in fam:
        assert dominates(rep.dominant, x)


def test_commuting_shared_eigenbasis_exact():
    # same family conjugated by a fixed unitary still solves exactly
    alg = Algebra((2,))
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    mats = [u @ np.diag(v) @ u.T for v in ([3.0, -1.0], [2.0, 2.0], [-5.0, 1.5])]
    fam = [alg.element([m.astype(complex)]) for m in mats]
    rep = dominant_element(stacks_of(fam), p=2.0, algebra=alg)
    assert rep.method == "commuting_exact"
    want = np.linalg.norm([3.0, 2.0])  # entrywise max of spectra, clamped
    assert rep.norm == pytest.approx(want, abs=1e-10)


def test_validation_errors():
    alg = Algebra((2,))
    with pytest.raises(StructuralError):
        dominant_element([np.zeros((0, 2, 2), dtype=complex)], p=2.0, algebra=alg)
    other = Algebra((3,))
    with pytest.raises(StructuralError):  # a member of another algebra
        dominant_element(stacks_of([other.identity()]), p=2.0, algebra=alg)
    skew = alg.element([np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(StructuralError):
        dominant_element(stacks_of([skew]), p=2.0, algebra=alg)
    with pytest.raises(ValueError):
        dominant_element(stacks_of([alg.identity()]), p=0.5, algebra=alg)


# ---------------------------------------------------------------------------
# search oracle for genuinely noncommuting instances

def test_two_projections_45_degrees():
    # rank-one projections with a 45 degree angle between ranges
    alg = Algebra((2,))
    x1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    x2 = np.full((2, 2), 0.5)
    fam = [alg.element([x1.astype(complex)]), alg.element([x2.astype(complex)])]
    rep = dominant_element(stacks_of(fam), p=1.0, tol=1e-10, algebra=alg)
    # closed form for the trace optimum: 1 + sin(pi/4)
    assert rep.norm == pytest.approx(1.0 + np.sin(np.pi / 4), abs=1e-6)
    assert rep.gap <= 1e-3
    assert rep.feasibility_margin >= -1e-8
    oracle = grid_oracle_2x2([x1, x2], 1.0)
    assert rep.norm == pytest.approx(oracle, abs=1e-3)


def test_noncommuting_seeded_vs_grid_oracle():
    rng = generator(12, "grid")
    alg = Algebra((2,))
    for trial in range(4):
        mats = []
        for _ in range(2):
            m = rng.standard_normal((2, 2))
            mats.append((m + m.T) / 2)
        fam = [alg.element([m.astype(complex)]) for m in mats]
        for p in (1.0, 2.0):
            rep = dominant_element(stacks_of(fam), p=p, tol=1e-10, algebra=alg)
            oracle = grid_oracle_2x2(mats, p)
            assert rep.norm <= oracle + 2e-3
            assert rep.norm >= rep.lower_bound - 1e-12
            for x, m in zip(fam, mats):
                assert dominates(rep.dominant, x, tol=1e-7)


def test_diagonal_oracle_seeded():
    for seed in range(30):
        rng = generator(seed, "diag")
        shape = [(3,), (2, 2), (4,)][seed % 3]
        alg = Algebra(shape)
        dim = alg.total_dim
        k = 2 + seed % 4
        vectors = [rng.standard_normal(dim) for _ in range(k)]
        fam = []
        for v in vectors:
            blocks, off = [], 0
            for d in alg.block_dims:
                blocks.append(np.diag(v[off:off + d]).astype(complex))
                off += d
            fam.append(alg.element(blocks))
        p = (1.0, 2.0, 4.0)[seed % 3]
        rep = dominant_element(stacks_of(fam), p=p, algebra=alg)
        want = diag_oracle_norm(alg, vectors, p)
        assert rep.norm == pytest.approx(want, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# invariants on the general solver

def random_family(alg, rng, k):
    fam = []
    for _ in range(k):
        fam.append(alg.random_element(rng, kind="hermitian"))
    return fam


def test_feasibility_and_bracket_seeded():
    for seed in range(12):
        rng = generator(seed, "brk")
        alg = Algebra((2, 2), (1.0, 0.5)) if seed % 2 else Algebra((3,))
        fam = random_family(alg, rng, 3 + seed % 3)
        p = (1.5, 2.0, 3.0, np.inf)[seed % 4]
        rep = dominant_element(stacks_of(fam), p=p, algebra=alg)
        assert rep.feasibility_margin >= -1e-7
        for x in fam:
            assert dominates(rep.dominant, x, tol=1e-7)
        assert is_positive(rep.dominant, 1e-9)
        # sandwich: at least the worst member, at most the sum of positives
        low = max(lp_norm(positive_part(x), p) for x in fam)
        up = lp_norm(sum((positive_part(x) for x in fam), alg.zero()), p)
        assert rep.norm >= low - 1e-7
        assert rep.norm <= up + 1e-7
        assert rep.lower_bound <= rep.norm + 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    weights=st.lists(st.sampled_from((1.0, 0.5, 0.25)), min_size=3, max_size=3),
    n=st.integers(2, 80),
    p=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_route_bracket_is_sound(dims, weights, n, p, seed):
    # up to 80 members, so the working set grows well past its first member
    dims = [max(dims[0], 2)] + dims[1:]
    alg = Algebra(dims, weights[:len(dims)])
    stacks = stack_family("noncommuting", seed, dims, n)
    rep = dominant_element(stacks, p, algebra=alg)
    assert rep.method == "dual_fista"
    scale = 1.0 + max(float(np.abs(s).max()) for s in stacks)
    assert rep.feasibility_margin >= -FEAS_TOL * scale
    # the dual certificate: rho_k >= 0, ||sum_k rho_k||_q <= 1, and the
    # lower bound is its pairing with the family
    assert len(rep.members) == len(set(rep.members)) == rep.rho[0].shape[0]
    eigs = [np.linalg.eigvalsh(r) for r in rep.rho]
    for lam in eigs:
        assert np.all(lam >= -1e-12 * (1.0 + np.abs(lam).max(initial=0.0)))
    sums = [np.linalg.eigvalsh(r.sum(axis=0)) for r in rep.rho]
    if p == 1.0:
        norm_q = max(float(np.abs(lam).max()) for lam in sums)
    else:
        q = p / (p - 1.0)
        norm_q = sum(w * float(np.sum(np.abs(lam) ** q))
                     for w, lam in zip(alg.trace_weights, sums)) ** (1.0 / q)
    assert norm_q <= 1.0 + 1e-12
    members = list(rep.members)
    pairing = sum(
        w * float(np.einsum("kij,kji->", r, s[members]).real)
        for w, r, s in zip(alg.trace_weights, rep.rho, stacks)
    )
    assert rep.lower_bound == pytest.approx(pairing, rel=1e-12, abs=1e-15)
    assert rep.lower_bound <= rep.norm


def test_duplicates_do_not_change_answer():
    alg = Algebra((2,))
    rng = generator(21, "dup")
    fam = random_family(alg, rng, 3)
    a = dominant_element(stacks_of(fam), p=2.0, algebra=alg)
    b = dominant_element(stacks_of(fam + fam), p=2.0, algebra=alg)
    assert b.norm == pytest.approx(a.norm, rel=1e-6)


def test_scaling_equivariance():
    alg = Algebra((2,))
    rng = generator(22, "scl")
    fam = random_family(alg, rng, 3)
    for p in (2.0, 1.0):
        a = dominant_element(stacks_of(fam), p=p, algebra=alg)
        for factor in (2.5, 1e-6, 1e6):
            b = dominant_element(stacks_of([factor * x for x in fam]), p=p, algebra=alg)
            assert b.norm == pytest.approx(factor * a.norm, rel=1e-5)


def test_monotone_in_members():
    alg = Algebra((2,))
    rng = generator(23, "mono")
    fam = random_family(alg, rng, 4)
    small = dominant_element(stacks_of(fam[:2]), p=2.0, algebra=alg)
    big = dominant_element(stacks_of(fam), p=2.0, algebra=alg)
    # certified bracket ordering: the lower bound of the subfamily cannot
    # exceed the norm of the larger one
    assert small.lower_bound <= big.norm + 1e-9


def test_active_set_many_members():
    # exceed the working-set threshold with commuting-breaking rotations
    alg = Algebra((2,))
    rng = generator(24, "act")
    fam = []
    base = np.diag([1.0, -0.5])
    for i in range(60):
        th = float(rng.uniform(0, np.pi))
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        scale = float(rng.uniform(0.2, 1.0))
        fam.append(alg.element([(scale * u @ base @ u.T).astype(complex)]))
    rep = dominant_element(stacks_of(fam), p=2.0, algebra=alg)
    for x in fam:
        assert dominates(rep.dominant, x, tol=1e-6)
    assert rep.norm >= max(lp_norm(positive_part(x), 2.0) for x in fam) - 1e-6


# ---------------------------------------------------------------------------
# p = 2: the dual's smooth part is the quadratic (1/2) tau(S^2), so a(S) = S

@pytest.mark.parametrize("p, maps_sums", [(2.0, False), (3.0, True)])
def test_p2_solve_eig_maps_no_sum(monkeypatch, p, maps_sums):
    # the only eigendecompositions of a p = 2 step are the working set's
    # projections, (|W|, d, d) stacks; a(S) = S_+^(q-1) for q != 2 needs one
    # of the (d, d) sum S itself
    from ncergo import algebra, maximal

    shapes = []
    for module in (algebra, maximal):
        def spy(s, f, real=module.stack_eig_map):
            shapes.append(s.shape)
            return real(s, f)
        monkeypatch.setattr(module, "stack_eig_map", spy)
    alg = Algebra((3, 2))
    rep = dominant_element(stack_family("noncommuting", 5, (3, 2), 12), p,
                           max_iter=200, algebra=alg)
    assert rep.method == "dual_fista" and rep.iterations > 0
    assert shapes  # the projections
    assert any(len(s) == 2 for s in shapes) == maps_sums


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_p2_signed_tail_bracket_is_sound_and_dominant_positive(dims, n, seed):
    # certify's shape: the +-family of decaying residuals, a tail taken by index
    dims = [max(dims[0], 2)] + dims[1:]
    alg = Algebra(dims)
    rng = np.random.default_rng(seed)
    decay = 1.0 / np.arange(1, n + 1)[:, None, None]
    part = prepare_signed([decay * s for s in stack_family("noncommuting", seed, dims, n)],
                          algebra=alg)
    tail = part.take(np.sort(rng.permutation(n)[:int(rng.integers(2, n + 1))]))
    rep = dominant_element(tail, 2.0, max_iter=2000, algebra=alg)
    assert rep.method == "dual_fista"
    scale = 1.0 + float(tail.size.max())
    assert rep.feasibility_margin >= -FEAS_TOL * scale
    # no clamp makes the dominant positive: a >= +-r_k does
    assert is_positive(rep.dominant, 1e-9)
    assert len(rep.members) == len(set(rep.members)) == rep.rho[0].shape[0]
    for r in rep.rho:
        lam = np.linalg.eigvalsh(r)
        assert np.all(lam >= -1e-12 * (1.0 + np.abs(lam).max(initial=0.0)))
    norm_q = sum(w * float(np.sum(np.linalg.eigvalsh(r.sum(axis=0)) ** 2))
                 for w, r in zip(alg.trace_weights, rep.rho)) ** 0.5
    assert norm_q <= 1.0 + 1e-12
    members = tail.members(list(rep.members))
    pairing = sum(w * float(np.einsum("kij,kji->", r, s).real)
                  for w, r, s in zip(alg.trace_weights, rep.rho, members))
    assert rep.lower_bound == pytest.approx(pairing, rel=1e-12, abs=1e-15)
    assert rep.lower_bound <= rep.norm


# ---------------------------------------------------------------------------
# ladders over ergodic averages

def shift_maps(alg, seed):
    rng = generator(seed, "sm")
    th = float(rng.uniform(0.3, 1.0))
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    rot = scaled_unitary(alg, alg.element([u]))
    pin = pinching([Projection(alg.element([np.diag([1.0, 0.0]).astype(complex)]))])
    return [convex_combination([(0.6, rot), (0.4, pin)])]


def test_maximal_ladder_identity_map():
    alg = Algebra((2,))
    rng = generator(28, "mli")
    x = alg.random_element(rng, kind="positive")
    rep = maximal_inequality_report([identity_map(alg)], x, 2.0, cutoffs=(2, 4, 8))
    assert all(r.ratio == pytest.approx(1.0, abs=1e-10) for r in rep.rows)
    assert rep.nondecreasing
    assert rep.cauchy_ok
    assert not rep.truncated


def test_maximal_ladder_mixed_map():
    alg = Algebra((2,))
    rng = generator(29, "mlm")
    x = alg.random_element(rng, kind="positive")
    rep = maximal_inequality_report(shift_maps(alg, 29), x, 2.0, cutoffs=(2, 4, 8, 16))
    assert rep.nondecreasing
    sizes = [r.family_size for r in rep.rows]
    assert sizes == [2, 4, 8, 16]
    assert [r.cutoff for r in rep.rows] == [2, 4, 8, 16]
    assert all(r.converged for r in rep.rows)


def test_maximal_ladder_rejects_bad_inputs():
    alg = Algebra((2,))
    rng = generator(30, "mlr")
    x = alg.random_element(rng, kind="positive")
    with pytest.raises(ValueError):
        maximal_inequality_report([identity_map(alg)], x, 1.0, cutoffs=(2,))
    y = alg.random_element(rng, kind="hermitian")
    while is_positive(y, 1e-12):
        y = alg.random_element(rng, kind="hermitian")
    with pytest.raises(StructuralError):
        maximal_inequality_report([identity_map(alg)], y, 2.0, cutoffs=(2,))


# ---------------------------------------------------------------------------
# interpolation between exponents

def test_interpolation_projection_is_tight():
    # for a single projection both sides coincide, so the check is exact
    alg = Algebra((4,))
    e = alg.element([np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)])
    rep = interpolation_check(stacks_of([e]), p=4.0, q=2.0, algebra=alg)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-9)


def test_interpolation_seeded_positive_families():
    for seed in range(10):
        rng = generator(seed, "int")
        alg = Algebra((2, 2), (1.0, 0.5)) if seed % 2 else Algebra((3,))
        fam = [alg.random_element(rng, kind="positive") for _ in range(3)]
        for p, q in ((4.0, 2.0), (3.0, 1.5)):
            rep = interpolation_check(stacks_of(fam), p=p, q=q, algebra=alg)
            assert rep.passed, (seed, p, q, rep.lhs, rep.rhs)


def test_interpolation_prepares_a_positive_family_once(monkeypatch):
    # both exponents solve over the same positive family: the positivity
    # test runs once, the family is prepared once for both solves, and each
    # side equals dominant_element at its exponent
    from ncergo import maximal

    alg = Algebra((2, 2), (1.0, 0.5))
    rng = generator(28, "isp")
    fam = stacks_of([alg.random_element(rng, kind="positive") for _ in range(3)])
    calls = {"stack_is_positive": 0, "prepare_family": 0}
    for name in calls:
        def counted(*args, _fn=getattr(maximal, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(maximal, name, counted)
    rep = interpolation_check(fam, p=4.0, q=2.0, algebra=alg)
    assert calls == {"stack_is_positive": 1, "prepare_family": 1}
    monkeypatch.undo()
    assert rep.lhs == dominant_element(fam, 4.0, algebra=alg).norm
    assert rep.dominant_q == dominant_element(fam, 2.0, algebra=alg).norm


def test_interpolation_rejects_a_non_positive_member():
    alg = Algebra((2,))
    rng = generator(29, "inp")
    fam = [alg.random_element(rng, kind="positive") for _ in range(2)]
    fam.append(diag_el(alg, [1.0, -0.5]))  # Hermitian, not positive
    with pytest.raises(StructuralError, match="positive"):
        interpolation_check(stacks_of(fam), p=4.0, q=2.0, algebra=alg)


def test_interpolation_validates_exponents():
    alg = Algebra((2,))
    one = stacks_of([alg.identity()])
    with pytest.raises(ValueError):
        interpolation_check(one, p=2.0, q=2.0, algebra=alg)
    with pytest.raises(ValueError):
        interpolation_check(one, p=2.0, q=np.inf, algebra=alg)


# ---------------------------------------------------------------------------
# stack input: strided views give the solve of contiguous copies, bit for bit

FAMILY_KINDS = ("diagonal", "commuting", "noncommuting", "active_set")
SHAPES = (((2,), (1.0,)), ((3,), (0.5,)), ((2, 1), (1.0, 0.25)))


def stack_family(kind, seed, dims, n):
    """Per-block (n, d, d) stacks of Hermitian members of the given kind."""
    rng = np.random.default_rng(seed)
    stacks = []
    for d in dims:
        lam = rng.uniform(-1.0, 1.5, size=(n, d))
        if kind == "diagonal":
            s = lam[:, :, None] * np.eye(d)
        elif kind == "commuting":
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u = np.linalg.qr(g)[0]
            s = (u[None] * lam[:, None, :]) @ u.conj().T
        else:
            g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            s = (g + np.conj(np.swapaxes(g, -1, -2))) / 4
        stacks.append(np.asarray(s, dtype=complex))
    return stacks


def family_views(alg, stacks):
    """The stacks as the strided views an AverageFamily over them hands out."""
    n = stacks[0].shape[0]
    fam = AverageFamily(
        alg, Box.full((n,)),
        np.concatenate([s.reshape(n, -1) for s in stacks], axis=1), "synthetic",
    )
    return fam.block_stacks()


def assert_same_report(a, b):
    assert all(
        x.tobytes() == y.tobytes()
        for x, y in zip(a.dominant.blocks, b.dominant.blocks)
    )
    assert (a.norm, a.lower_bound, a.iterations, a.method) == (
        b.norm, b.lower_bound, b.iterations, b.method)
    assert (a.feasibility_margin, a.converged) == (
        b.feasibility_margin, b.converged)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from((1.5, 2.0, 3.0)),
    data=st.data(),
)
def test_stack_input_matches_list_input(kind, shape, seed, p, data):
    dims, weights = shape
    if kind == "active_set":
        n = data.draw(st.integers(49, 60), label="n")
    elif kind == "noncommuting":
        n = data.draw(st.integers(2, 6), label="n")
    else:
        n = data.draw(st.integers(2, 60), label="n")
    alg = Algebra(dims, weights)
    stacks = stack_family(kind, seed, dims, n)
    # an AverageFamily hands out strided read-only views, as the ladder uses
    views = family_views(alg, stacks)
    from_copies = dominant_element([s.copy() for s in views], p, algebra=alg)
    from_stacks = dominant_element(views, p, algebra=alg)
    assert_same_report(from_copies, from_stacks)
    if kind in ("diagonal", "commuting"):
        assert from_stacks.method == "commuting_exact"
    else:
        assert from_stacks.method == "dual_fista"


def test_stack_input_single_and_infinity_routes():
    alg = Algebra((2, 1), (1.0, 0.5))
    for kind, n in (("noncommuting", 1), ("noncommuting", 5)):
        views = family_views(alg, stack_family(kind, 11, alg.block_dims, n))
        for p in (2.0, np.inf):
            assert_same_report(
                dominant_element([s.copy() for s in views], p, algebra=alg),
                dominant_element(views, p, algebra=alg),
            )


def test_stack_input_validation():
    alg = Algebra((2,))
    good = stack_family("noncommuting", 3, (2,), 4)
    with pytest.raises(StructuralError, match="nonempty"):
        dominant_element([np.zeros((0, 2, 2), dtype=complex)], 2.0, algebra=alg)
    with pytest.raises(StructuralError):
        dominant_element(good + good, 2.0, algebra=alg)  # one stack per block
    with pytest.raises(StructuralError):
        dominant_element([good[0][:, :1, :1]], 2.0, algebra=alg)
    skew = good[0].copy()
    skew[2, 0, 1] += 1e-3
    with pytest.raises(StructuralError, match="Hermitian"):
        dominant_element([skew], 2.0, algebra=alg)
    bad = good[0].copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(NumericError):
        dominant_element([bad], 2.0, algebra=alg)


def test_ladder_rows_carry_the_solve_method():
    alg = Algebra((2,))
    x = alg.element([np.diag([0.7, 0.2]).astype(complex)])
    rep = maximal_inequality_report([identity_map(alg)] * 2, x, 2.0, [2, 4])
    assert [r.method for r in rep.rows] == ["commuting_exact"] * 2
    # the rungs are restrictions of one walk over the largest box, [1, 4]^2
    assert rep.applications == 4 + 4 * 4


@pytest.mark.parametrize("seed", range(4))
def test_ladder_rungs_are_the_direct_families(seed):
    # the ladder walks its largest rung within the budget once and restricts
    # it; every rung from cutoff 2 on is the family a walk of its own box
    # gives, bit for bit, so the rows match per-rung solves. At cutoff 1 the
    # direct walk's one-point slab takes numpy's matrix-vector product, which
    # rounds differently, so that rung agrees to rounding only
    rng = np.random.default_rng(seed)
    dims = [(2, 1), (3,), (1, 2, 2), (2,)][seed]
    alg = Algebra(dims, tuple(rng.uniform(0.5, 2.0, size=len(dims))))
    units = [
        alg.element([np.linalg.qr(rng.standard_normal((d, d))
                                  + 1j * rng.standard_normal((d, d)))[0] for d in dims])
        for _ in range(2)
    ]
    maps = [convex_combination([(0.6, scaled_unitary(alg, u)),
                                (0.4, identity_map(alg))]) for u in units]
    x = alg.random_element(rng, kind="positive")
    cuts = [1, 2, 3, 5, 8]
    rep = maximal_inequality_report(maps, x, 2.0, cuts + [9], budget=64)
    assert rep.truncated and [r.cutoff for r in rep.rows] == cuts
    assert rep.applications == 8 + 8 * 8
    full = ergodic_average_family(maps, x, Box.full((8, 8)))
    for c, row in zip(cuts, rep.rows):
        direct = ergodic_average_family(maps, x, Box.full((c, c)))
        got = full.restrict(Box.full((c, c))).raw()
        if c == 1:
            assert np.abs(got - direct.raw()).max() <= 1e-15 * x.max_abs()
            continue
        assert np.array_equal(got, direct.raw())
        want = dominant_element(direct.block_stacks(), 2.0, 1e-11, algebra=alg)
        assert (row.norm, row.lower_bound, row.iterations) == (
            want.norm, want.lower_bound, want.iterations)


# ---------------------------------------------------------------------------
# bracket and ladder diagnostics

def test_dual_bound_above_norm_raises_beyond_rounding(monkeypatch):
    from ncergo import maximal

    alg = Algebra((3,))
    fam = stacks_of(random_family(alg, generator(41, "bracket"), 4))
    rep = dominant_element(fam, 2.0, algebra=alg)
    assert rep.method == "dual_fista"
    solve = maximal._solve_dual

    def inflated(factor):
        def solve_inflated(*args):
            a, (_, members, rho), *rest = solve(*args)
            return (a, (factor * rep.norm, members, rho), *rest)
        return solve_inflated

    # an excess within rounding is clamped onto the norm
    monkeypatch.setattr(maximal, "_solve_dual", inflated(1 + 1e-13))
    assert dominant_element(fam, 2.0, algebra=alg).lower_bound == rep.norm
    monkeypatch.setattr(maximal, "_solve_dual", inflated(1.01))
    with pytest.raises(NumericError, match="dual_fista.*exceeds"):
        dominant_element(fam, 2.0, algebra=alg)


@pytest.mark.parametrize("seed, cutoffs", [(7, [8, 16]), (10, [4, 8])],
                         ids=["seed7", "seed10"])
def test_ladder_nondecreasing_on_rate_d2_seeds(seed, cutoffs):
    # rungs of close norm: an upper bound loose by more than the check's
    # 1e-10 on the earlier rung would read as a decrease
    from ncergo.scenario import run_scenario, scenario_from_dict

    configs = Path(__file__).resolve().parent.parent / "configs"
    data = json.loads((configs / "rate_d2.json").read_text())
    data.update(seed=seed, cutoffs=cutoffs)
    report = run_scenario(scenario_from_dict(data, base_dir=configs), ["maximal"])
    maximal = {t.name: t for t in report.tasks}["maximal"]
    assert maximal.status == "ok", maximal.error
    assert maximal.summary["nondecreasing"] is True
    rows = maximal.tables[0].rows
    (_, _, norm_a, lower_a, ratio_a, *_), (_, _, norm_b, lower_b, ratio_b, *_) = rows
    assert ratio_b >= ratio_a
    # verified brackets: the larger family's norm is at least the smaller's
    assert norm_b >= lower_a
    assert norm_a - lower_a <= 1e-8 * lower_a
    assert norm_b - lower_b <= 1e-8 * lower_b


def test_decrease_notes_tell_loose_from_contradictory_brackets():
    def row(cutoff, norm, lower):
        return LadderRow(cutoff, cutoff, norm, lower, norm / 2.0, 1, True,
                         "dual_fista")

    rows = (row(2, 1.0, 0.9), row(4, 1.2, 1.1), row(8, 1.15, 1.0),
            row(16, 0.95, 0.9))
    rep = MaximalLadderReport(2.0, rows, False, None, False, False, 0)
    notes = rep.decrease_notes()
    assert len(notes) == 2
    assert notes[0].startswith("cutoff 4 -> 8:")
    assert notes[0].endswith("is inside, so its upper bound is loose (gap 9.09%)")
    assert notes[1].startswith("cutoff 8 -> 16:")
    assert "[1, 1.15] is below it, so the brackets contradict" in notes[1]
