"""The stack-reduction kernels against the numpy reductions they replace.

The max and min kernels must equal numpy's reductions bit for bit. The sum
kernels feed screening bounds only, so they are held to those bounds: the
Gershgorin bounds reach every top eigenvalue and _reach every compressed
norm. Entries mix ordinary values with +-0.0, the smallest subnormal,
+-1e300 and repeated values, so maxima tie, signs of zero meet and squares
underflow or overflow.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergo import bau, maximal
from ncergo.algebra import (
    fold,
    member_max,
    stack_abs,
    stack_abs_max,
    stack_hermitian_deviation,
    stack_max,
    stack_sum,
)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.5, -2.5)

DIMS = st.sampled_from((1, 2, 3, 4, 8, 16))
SIZES = st.sampled_from((1, 2, 7, 300))
MIX = st.sampled_from((0.0, 0.3, 1.0))
SEEDS = st.integers(0, 2**32 - 1)


def entries(rng, shape, mix):
    """Floats of the given shape: normals over six decades, a share mix of
    them replaced by SPECIAL values (so maxima tie and zeros meet)."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape) < mix
    a[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return a


def complex_stack(rng, n, d, mix):
    return entries(rng, (n, d, d), mix) + 1j * entries(rng, (n, d, d), mix)


def hermitian_stack(rng, n, d, mix):
    g = complex_stack(rng, n, d, mix)
    return (g + np.conj(np.swapaxes(g, 1, 2))) / 2


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(d=DIMS, n=SIZES, mix=MIX, seed=SEEDS)
def test_max_kernels_equal_numpy_bit_for_bit(d, n, mix, seed):
    rng = np.random.default_rng(seed)
    s, t = complex_stack(rng, n, d, mix), complex_stack(rng, n, 1 + d // 2, mix)
    assert same_bits(stack_abs(s), np.ascontiguousarray(np.abs(s).transpose(1, 2, 0)))
    a = entries(rng, (d, d, n), mix)
    assert same_bits(stack_max(a), a.max(axis=0))
    assert same_bits(stack_max(a, axis=1), a.max(axis=1))
    # over two axes in turn: the same only where no signed zeros tie
    assert same_bits(stack_max(stack_max(np.abs(a))), np.abs(a).max(axis=(0, 1)))
    # what prepare_family, _PreparedPart and _certify_tails took before
    assert same_bits(stack_abs_max([s, t]), np.maximum.reduce(
        [np.abs(s).max(axis=(1, 2)), np.abs(t).max(axis=(1, 2))]))
    # the commuting route's entrywise maximum over members
    diag = entries(rng, (n, d), mix)
    assert same_bits(member_max(diag), diag.max(axis=0))
    # _diagonal_floor's and _weyl_floor's least over columns
    cols = list(entries(rng, (d, n), mix))
    assert same_bits(fold(np.minimum, cols), np.min(cols, axis=0))
    dev, mag = stack_hermitian_deviation([s, t])
    assert same_bits(dev, np.maximum.reduce(
        [np.abs(x - np.conj(np.swapaxes(x, -1, -2))).max(axis=(1, 2)) for x in (s, t)]))
    assert same_bits(mag, np.maximum.reduce([np.abs(x).max(axis=(1, 2)) for x in (s, t)]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=DIMS, n=SIZES, seed=SEEDS)
def test_sum_kernel_matches_numpy_to_rounding(d, n, seed):
    a = np.abs(entries(np.random.default_rng(seed), (d, d, n), 0.0))
    for axis in (0, 1):
        got, want = stack_sum(a, axis), a.sum(axis=axis)
        assert np.all(np.abs(got - want) <= 4 * d * np.finfo(float).eps * want)


def top_eigenvalue_pad(x_b):
    # the rounding allowance the Weyl floor pads with, per member
    d = x_b.shape[-1]
    return maximal.ROUND_PAD * d * d * np.finfo(float).eps * (1.0 + np.abs(x_b).max(axis=(1, 2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dims=st.lists(DIMS, min_size=1, max_size=2), n=SIZES, mix=MIX, seed=SEEDS)
def test_gershgorin_bounds_every_top_eigenvalue(dims, n, mix, seed):
    rng = np.random.default_rng(seed)
    stacks = [hermitian_stack(rng, n, d, mix) for d in dims]
    bound = maximal._gershgorin(stacks)
    assert bound.shape == (n, len(dims))
    for b, x_b in enumerate(stacks):
        lam = np.linalg.eigvalsh(x_b)
        assert np.all(bound[:, b] + top_eigenvalue_pad(x_b) >= lam[:, -1])
    # certify's +-r_k: plus bounds lambda_max(r_k), minus lambda_max(-r_k)
    part = bau._PreparedPart(stacks)
    for b, r_b in enumerate(part.r):
        lam, pad = np.linalg.eigvalsh(r_b), top_eigenvalue_pad(r_b)
        assert np.all(part.plus[:, b] + pad >= lam[:, -1])
        assert np.all(part.minus[:, b] + pad >= -lam[:, 0])


def random_projection(rng, d):
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    v = q[:, :int(rng.integers(0, d + 1))]
    return v @ v.conj().T


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(d=DIMS, n=SIZES, mix=MIX, hermitian=st.booleans(), seed=SEEDS)
def test_reach_bounds_every_compressed_norm(d, n, mix, hermitian, seed):
    rng = np.random.default_rng(seed)
    r = (hermitian_stack if hermitian else complex_stack)(rng, n, d, mix)
    reach = bau._reach([r])[0]
    assert reach.shape == (n,)
    for e in (np.eye(d), random_projection(rng, d), random_projection(rng, d)):
        comp = e[None] @ r @ e[None]
        assert np.all(reach >= np.linalg.svd(comp, compute_uv=False)[:, 0])


def test_reach_of_subnormal_members_is_not_zero():
    # their squares underflow to 0, so the Frobenius form alone would read 0
    r = np.full((1, 2, 2), 5e-324 + 0j)
    assert bau._reach([r])[0][0] >= np.linalg.svd(r, compute_uv=False)[0, 0] > 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dims=st.lists(DIMS, min_size=1, max_size=2), n=SIZES, mix=MIX, seed=SEEDS)
def test_prepared_part_at_a_tails_indices_equals_the_tail_prepared_alone(dims, n, mix, seed):
    rng = np.random.default_rng(seed)
    stacks = [hermitian_stack(rng, n, d, mix) for d in dims]
    idx = np.sort(rng.permutation(n)[:int(rng.integers(1, n + 1))])
    whole, tail = bau._PreparedPart(stacks), bau._PreparedPart([s[idx] for s in stacks])
    assert all(same_bits(a[idx], b) for a, b in zip(whole.r, tail.r))
    assert all(same_bits(a[idx], b) for a, b in zip(whole.reach, tail.reach))
    for field in ("plus", "minus", "size"):
        assert same_bits(getattr(whole, field)[idx], getattr(tail, field))
    got, want = whole.plus_minus(idx), tail.plus_minus(np.arange(idx.size))
    assert all(same_bits(a, b) for a, b in zip(got.stacks, want.stacks))
    assert same_bits(got.bound, want.bound) and same_bits(got.size, want.size)
