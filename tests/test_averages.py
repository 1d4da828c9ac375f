"""Weighted averages: three evaluation routes, limits, and splits."""

import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncergo import averages
from ncergo._numeric import kahan_cumsum
from ncergo._rng import generator
from ncergo.algebra import Algebra, Box, Projection, lp_norm, trace, volume
from ncergo.averages import (
    GridStream,
    _iterate_powers,
    _walk_slabs,
    ergodic_average_family,
    limit_oracle,
    weighted_average_direct,
    weighted_average_factorized,
    weighted_average_grid,
)
from ncergo.contraction import (
    apply_power,
    composition,
    convex_combination,
    identity_map,
    kraus,
    operator_from_function,
    pinching,
    scaled_unitary,
    substochastic,
)
from ncergo.errors import BudgetError, StructuralError
from ncergo.weights import TrigPolynomial, TrigTerm, eval_weight_box


def diag_projection(alg, block, idxs):
    mats = [np.zeros((d, d), dtype=complex) for d in alg.block_dims]
    for i in idxs:
        mats[block][i, i] = 1.0
    return Projection(alg.element(mats))


def rotation(alg, theta):
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    blocks = [u if d == 2 else np.eye(d, dtype=complex) for d in alg.block_dims]
    return scaled_unitary(alg, alg.element(blocks))


def mixed_maps(alg, seed):
    rng = generator(seed, "maps")
    theta = float(rng.uniform(0.2, 1.2))
    t1 = rotation(alg, theta)
    t2 = convex_combination(
        [
            (0.5, pinching([diag_projection(alg, 0, [0])])),
            (0.4, rotation(alg, theta / 2)),
        ]
    )
    return [t1, t2]


def trig_weight(dim, seed):
    rng = generator(seed, "weight")
    terms = [TrigTerm(0.4 + 0.0j, (0.0,) * dim)]
    for _ in range(2):
        coeff = complex(rng.uniform(0.1, 0.3), rng.uniform(-0.1, 0.1))
        phases = tuple(float(p) for p in rng.uniform(0.3, 2.8, size=dim))
        terms.append(TrigTerm(coeff, phases))
    return TrigPolynomial(dim, tuple(terms))


def naive_average(a, maps, x, n):
    # reference: literal double loop over the box
    from itertools import product

    acc = x.algebra.zero()
    for k in product(*[range(1, c + 1) for c in n]):
        acc = acc + complex(a.eval(k)) * apply_power(maps, k, x)
    return (1.0 / np.prod(n)) * acc


# ---------------------------------------------------------------------------
# the three routes agree with the naive loop and each other

def test_direct_matches_naive_loop():
    alg = Algebra((2, 2), (1.0, 0.5))
    rng = generator(1, "x")
    x = alg.random_element(rng, kind="general")
    maps = mixed_maps(alg, 1)
    a = trig_weight(2, 1)
    for n in [(1, 1), (3, 2), (5, 5)]:
        got = weighted_average_direct(a, maps, x, n)
        want = naive_average(a, maps, x, n)
        assert (got - want).max_abs() < 1e-11


def test_three_routes_agree_seeded():
    for seed in range(6):
        d = 1 + seed % 3
        alg = Algebra((2,)) if seed % 2 else Algebra((2, 2), (1.0, 0.25))
        rng = generator(seed, "x3")
        x = alg.random_element(rng, kind="general")
        maps = (mixed_maps(alg, seed) * 3)[:d]
        a = trig_weight(d, seed)
        n = (4, 3, 2)[:d]
        direct = weighted_average_direct(a, maps, x, n)
        fact = weighted_average_factorized(a, maps, x, n)
        grid = weighted_average_grid(a, maps, x, Box.full(n)).value(n)
        assert (direct - fact).max_abs() < 1e-10
        assert (direct - grid).max_abs() < 1e-10


def random_map(alg, rng):
    dims = alg.block_dims
    kind = int(rng.integers(3))
    if kind == 0:
        blocks = []
        for d in dims:
            q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            blocks.append(q * (np.diag(r) / np.abs(np.diag(r)))[None, :])
        return scaled_unitary(alg, alg.element(blocks), float(rng.uniform(0.5, 1.0)))
    if kind == 1:
        ops = [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
               for _ in range(2)]
        top = max(
            float(np.linalg.eigvalsh(sum(g(k[b]) for k in ops))[-1])
            for b in range(len(dims))
            for g in (lambda m: m.conj().T @ m, lambda m: m @ m.conj().T)
        )
        c = 1.0 / np.sqrt(1.01 * top)
        return kraus(alg, [alg.element([c * m for m in k]) for k in ops])
    b = int(rng.integers(len(dims)))
    return pinching([diag_projection(alg, b, [int(rng.integers(dims[b]))])])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    d=st.integers(1, 2),
    terms=st.integers(1, 3),
    n=st.lists(st.integers(1, 6), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_three_routes_agree_property(dims, d, terms, n, seed):
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.1, 3.0, size=len(dims))))
    x = alg.random_element(rng, kind="general")
    maps = [random_map(alg, rng) for _ in range(d)]
    a = TrigPolynomial(d, tuple(
        TrigTerm(complex(*rng.uniform(-1.0, 1.0, size=2)),
                 tuple(rng.uniform(0.0, 2 * np.pi, size=d)))
        for _ in range(terms)
    ))
    n = tuple(n[:d])
    direct = weighted_average_direct(a, maps, x, n)
    fact = weighted_average_factorized(a, maps, x, n)
    grid = weighted_average_grid(a, maps, x, Box.full(n)).value(n)
    tol = 1e-12 * (1.0 + x.max_abs())
    assert (direct - fact).max_abs() <= tol
    assert (direct - grid).max_abs() <= tol


def whole_grid_pipeline(a, maps, x0, box):
    """The grid evaluator as one pass per stage over the whole grid on
    [1, box.upper]: walk, weight, one compensated sum per axis, divide."""
    upper = box.upper
    grid = np.empty(upper + (len(x0),), dtype=np.complex128)
    _walk_slabs(maps, x0, grid)
    grid *= eval_weight_box(a, upper)[..., None]
    for axis in range(len(upper)):
        grid = kahan_cumsum(grid, axis)
    vols = reduce(
        np.multiply.outer,
        [np.arange(1, u + 1, dtype=np.float64) for u in upper],
    ).reshape(upper)
    grid /= vols[..., None]
    return grid[tuple(slice(l - 1, u) for l, u in zip(box.lower, upper))]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.lists(st.integers(1, 6), min_size=0, max_size=2),
    chunk=st.integers(1, 4),
    last=st.sampled_from(["one", "below", "at", "across"]),
    extra=st.integers(0, 8),
    lower_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
# one-element slabs (a 1x1 algebra, every axis but the last of length 1),
# where a one-slab chunk would make numpy round the in-place weight
# multiply differently
@example(dims=[1], n=[], chunk=1, last="across", extra=4, lower_seed=0, seed=3)
@example(dims=[1], n=[1], chunk=2, last="across", extra=0, lower_seed=0, seed=1)
def test_slab_walk_matches_per_point_walk(dims, n, chunk, last, extra,
                                          lower_seed, seed):
    # d = len(n) + 1 axes; the last one is 1 long, or below, at or across
    # the chunk length: CHUNK_BYTES is patched to `chunk` slabs, and chunks
    # hold at least two
    length = max(chunk, 2)
    n = n + [{"one": 1, "below": length - 1, "at": length,
              "across": length + 1 + extra}[last]]
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.1, 3.0, size=len(dims))))
    x = alg.random_element(rng, kind="general")
    maps = [random_map(alg, rng) for _ in n]
    upper = tuple(n)
    ref = np.empty(upper + (alg.basis_size,), dtype=np.complex128)
    flat = ref.reshape(-1, alg.basis_size)

    def visit(pos, v):
        flat[pos] = v

    ref_count = _iterate_powers(maps, alg.vec(x), upper, visit)
    grid = np.full_like(ref, np.nan)
    count = _walk_slabs(maps, alg.vec(x), grid)
    assert count == ref_count
    assert np.abs(grid - ref).max() <= 1e-12 * (1.0 + x.max_abs())
    # the streamed grid evaluator is bitwise the whole-grid pipeline, on a
    # box whose lower corner is above 1 on some axes
    lows = np.random.default_rng(lower_seed)
    box = Box(tuple(int(lows.integers(1, min(u, 3) + 1)) for u in upper), upper)
    a = TrigPolynomial(len(n), tuple(
        TrigTerm(complex(*rng.uniform(-1.0, 1.0, size=2)),
                 tuple(rng.uniform(0.0, 2 * np.pi, size=len(n))))
        for _ in range(2)
    ))
    slab_bytes = volume(upper[:-1]) * alg.basis_size * 16
    with mock.patch.object(averages, "CHUNK_BYTES", chunk * slab_bytes):
        fam = weighted_average_grid(a, maps, x, box)
    want = whole_grid_pipeline(a, maps, alg.vec(x), box)
    assert fam.raw().shape == want.shape
    assert fam.raw().tobytes() == want.tobytes()
    assert fam.applications == ref_count


def per_point_grid(maps, x, upper):
    ref = np.empty(tuple(upper) + (x.algebra.basis_size,), dtype=np.complex128)
    flat = ref.reshape(-1, x.algebra.basis_size)

    def visit(pos, v):
        flat[pos] = v

    _iterate_powers(maps, x.algebra.vec(x), tuple(upper), visit)
    return ref


def element_of_kind(alg, rng, kind):
    """An exactly Hermitian, a nearly Hermitian (one entry moved by a few
    units in its last place) or a general element."""
    if kind == "general":
        return alg.random_element(rng, kind="general")
    x = alg.random_element(rng, kind="hermitian")
    if kind == "hermitian":
        return x
    blocks = [b.copy() for b in x.blocks]
    b = int(rng.integers(len(blocks)))
    i, j = (int(v) for v in rng.integers(blocks[b].shape[0], size=2))
    blocks[b][i, j] += 4 * np.spacing(abs(blocks[b][i, j])) * (1 + 1j)
    return alg.element(blocks)


def is_exactly_hermitian(alg, rows):
    return all(
        np.array_equal(s, np.conj(np.swapaxes(s, -1, -2)))
        and not np.diagonal(s, axis1=-2, axis2=-1).imag.any()
        for s in alg.block_stacks(rows)
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    kind=st.sampled_from(["hermitian", "nearly", "general"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_walk_matches_complex_per_point_walk(dims, n, kind, seed):
    rng = np.random.default_rng(seed)
    alg = Algebra(dims, tuple(rng.uniform(0.1, 3.0, size=len(dims))))
    x = element_of_kind(alg, rng, kind)
    maps = [random_map(alg, rng) for _ in n]
    ref = per_point_grid(maps, x, n)
    grid = np.full_like(ref, np.nan)
    _walk_slabs(maps, alg.vec(x), grid)
    assert np.abs(grid - ref).max() <= 1e-12 * (1.0 + x.max_abs())
    if kind == "hermitian":
        # every walked T^k x is exactly self-adjoint, which the complex
        # walk leaves to rounding
        assert is_exactly_hermitian(alg, grid.reshape(-1, alg.basis_size))


@pytest.mark.parametrize("kind,parts", [("hermitian", 1), ("nearly", 2),
                                        ("general", 2)])
def test_walk_takes_one_real_part_only_for_a_self_adjoint_x(monkeypatch, kind, parts):
    alg = Algebra((3, 2))
    rng = generator(21, "parts")
    x = element_of_kind(alg, rng, kind)
    maps = [random_map(alg, rng) for _ in range(2)]
    seen = []
    real_step = averages._real_step

    def counted(t, rows, out):
        seen.append(rows.shape[0])
        real_step(t, rows, out)

    monkeypatch.setattr(averages, "_real_step", counted)
    fam = weighted_average_grid(trig_weight(2, 21), maps, x, Box.full((3, 5)))
    # one step on axis 1 from the single point x, then 4 more; 5 steps of
    # the 3-point slab on axis 2
    assert seen == [parts] * 3 + [3 * parts] * 5
    want = weighted_average_direct(trig_weight(2, 21), maps, x, (3, 5))
    assert (fam.value((3, 5)) - want).max_abs() <= 1e-12 * (1.0 + x.max_abs())


def test_grid_refuses_a_map_that_does_not_preserve_adjoints():
    alg = Algebra((2, 1))
    a = np.array([[0.5, 0.4], [0.0, 0.3]], dtype=complex)
    left = operator_from_function(
        alg, lambda x: alg.element([a @ x.blocks[0], x.blocks[1]]))
    x = alg.random_element(generator(22, "adj"), kind="hermitian")
    maps = [identity_map(alg), left]
    with pytest.raises(StructuralError, match=r"map 2 of 2.*deviation 4\.000e-01"):
        GridStream(trig_weight(2, 22), maps, x, Box.full((2, 2)))
    with pytest.raises(StructuralError, match="does not preserve adjoints"):
        weighted_average_grid(trig_weight(2, 22), maps, x, Box.full((2, 2)))


def test_grid_accepts_a_composition_whose_adjoint_deviation_is_rounding():
    alg = Algebra((3, 2))
    rng = generator(23, "comp")
    t = composition([random_map(alg, rng) for _ in range(3)])
    perm = [np.arange(d * d).reshape(d, d).T.reshape(-1) for d in alg.block_dims]
    assert any(not np.array_equal(np.conj(m[np.ix_(p, p)]), m)
               for m, p in zip(t.transfer_blocks, perm))
    x = alg.random_element(rng, kind="general")
    maps = [t, random_map(alg, rng)]
    ref = per_point_grid(maps, x, (4, 3))
    grid = np.empty_like(ref)
    _walk_slabs(maps, alg.vec(x), grid)
    assert np.abs(grid - ref).max() <= 1e-12 * (1.0 + x.max_abs())
    fam = weighted_average_grid(trig_weight(2, 23), maps, x, Box.full((4, 3)))
    want = weighted_average_direct(trig_weight(2, 23), maps, x, (4, 3))
    assert (fam.value((4, 3)) - want).max_abs() <= 1e-12 * (1.0 + x.max_abs())


def test_grid_peak_memory_is_bounded_by_the_family():
    # the grid over [1, upper] is streamed in chunks, never held whole: the
    # peak traced allocation stays within 1.5x the family's own bytes
    alg = Algebra((8, 8))
    rng = generator(12, "mem")
    x = alg.random_element(rng, kind="general")
    maps = [random_map(alg, rng) for _ in range(2)]
    box = Box.full((64, 128))
    tracemalloc.start()
    try:
        fam = weighted_average_grid(trig_weight(2, 12), maps, x, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    family_bytes = fam.raw().nbytes
    assert family_bytes >= 8 * 2**20
    assert peak <= 1.5 * family_bytes


def test_grid_family_consistent_across_boxes():
    alg = Algebra((2,))
    rng = generator(9, "xg")
    x = alg.random_element(rng, kind="hermitian")
    maps = mixed_maps(alg, 9)
    a = trig_weight(2, 9)
    big = weighted_average_grid(a, maps, x, Box.full((6, 6)))
    small = weighted_average_grid(a, maps, x, Box((2, 3), (5, 5)))
    for idx, el in small.items():
        assert (el - big.value(idx)).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# structure of families

def test_family_restrict_and_minus():
    alg = Algebra((2,))
    rng = generator(4, "fam")
    x = alg.random_element(rng, kind="hermitian")
    maps = mixed_maps(alg, 4)
    a = trig_weight(2, 4)
    fam = weighted_average_grid(a, maps, x, Box.full((4, 4)))
    sub = fam.restrict(Box((2, 2), (4, 4)))
    assert sub.box.lower == (2, 2)
    assert (sub.value((3, 3)) - fam.value((3, 3))).max_abs() == 0.0
    shifted = fam.minus_constant(x)
    assert (shifted.value((2, 2)) - (fam.value((2, 2)) - x)).max_abs() < 1e-14
    re_fam, im_fam = fam.hermitian_split()
    v = fam.value((3, 2))
    assert (re_fam.value((3, 2)) - (v + v.adjoint()) * 0.5).max_abs() < 1e-14
    assert (im_fam.value((3, 2)) - (v - v.adjoint()) * -0.5j).max_abs() < 1e-14


def test_ergodic_family_is_unweighted_mean():
    alg = Algebra((2,))
    rng = generator(5, "erg")
    x = alg.random_element(rng, kind="positive")
    maps = mixed_maps(alg, 5)
    fam = ergodic_average_family(maps, x, Box.full((3, 3)))
    ones = TrigPolynomial.constant(2, 1.0)
    want = naive_average(ones, maps, x, (3, 3))
    assert (fam.value((3, 3)) - want).max_abs() < 1e-11


def test_identity_map_constant_weight_average_is_x():
    alg = Algebra((2, 3))
    rng = generator(6, "idm")
    x = alg.random_element(rng, kind="general")
    ones = TrigPolynomial.constant(1, 1.0)
    got = weighted_average_direct(ones, [identity_map(alg)], x, (17,))
    assert (got - x).max_abs() < 1e-12


def test_budget_enforced():
    alg = Algebra((2,))
    x = alg.identity()
    maps = [identity_map(alg), identity_map(alg)]
    a = trig_weight(2, 0)
    with pytest.raises(BudgetError):
        weighted_average_direct(a, maps, x, (100, 100), budget=10)
    with pytest.raises(BudgetError):
        weighted_average_grid(a, maps, x, Box.full((100, 100)), budget=10)


# ---------------------------------------------------------------------------
# limits

def test_limit_oracle_identity_map():
    # with T = id the average is a(.) averaged, whose limit keeps only the
    # constant term
    alg = Algebra((2,))
    rng = generator(8, "lim")
    x = alg.random_element(rng, kind="hermitian")
    a = trig_weight(1, 8)
    res = limit_oracle(a, [identity_map(alg)], x)
    const = a.terms[0].coefficient
    assert (res.value - complex(const) * x).max_abs() < 1e-10


def test_limit_oracle_matches_long_horizon():
    # substochastic irreducible chain: averages settle at rate 1/N, so a
    # horizon of 2^13 pins the limit to ~1e-3 while the oracle is exact
    alg = Algebra((3,))
    s = np.array(
        [
            [0.0, 0.7, 0.3],
            [0.5, 0.2, 0.3],
            [0.5, 0.1, 0.4],
        ]
    )
    t = substochastic(alg, s)
    rng = generator(10, "lh")
    x = alg.random_element(rng, kind="positive")
    a = TrigPolynomial.constant(1, 1.0)
    res = limit_oracle(a, [t], x)
    n = 8192
    approx = weighted_average_direct(a, [t], x, (n,), budget=1 << 24)
    err = lp_norm(res.value - approx, 2.0)
    assert err < 5e-3
    # the limit is invariant under one more application of T on the left
    assert (t.apply(res.value) - res.value).max_abs() < 1e-9


def test_limit_oracle_phase_term_vanishes_for_strict_contraction():
    alg = Algebra((2,))
    t = scaled_unitary(alg, alg.identity(), scale=0.5)
    a = TrigPolynomial(1, (TrigTerm(1.0 + 0j, (0.7,)),))
    rng = generator(11, "ph")
    x = alg.random_element(rng, kind="hermitian")
    res = limit_oracle(a, [t], x)
    assert res.value.max_abs() < 1e-12
