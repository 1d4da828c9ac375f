"""Element arithmetic, norms, decompositions, and the text format."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_four_positives, oracle_positive_part
from ncergo import algebra
from ncergo._rng import generator
from ncergo.algebra import (
    Algebra,
    Box,
    Element,
    Projection,
    element_from_text,
    element_to_text,
    is_positive,
    lp_norm,
    modulus,
    positive_part,
    spectral_projection,
    stack_hermitian_part,
    stack_is_positive,
    stack_lp_norm,
    stack_positive_part,
    stack_trace,
    trace,
    volume,
)
from ncergo.errors import NumericError, StructuralError

SHAPES = [(2,), (3,), (2, 2), (3, 2)]


def random_algebra(shape, weighted=False):
    weights = tuple(1.0 / (i + 1) for i in range(len(shape))) if weighted else None
    return Algebra(shape, weights)


# ---------------------------------------------------------------------------
# basic structure

def test_algebra_dimensions():
    alg = Algebra((2, 3), (1.0, 0.5))
    assert alg.total_dim == 5
    assert alg.basis_size == 13
    assert alg.total_trace() == pytest.approx(2.0 + 0.5 * 3)


def test_bad_weights_rejected():
    with pytest.raises(ValueError):
        Algebra((2,), (0.0,))
    with pytest.raises(ValueError):
        Algebra((2,), (-1.0,))
    with pytest.raises(ValueError):
        Algebra((0,))


def test_element_shape_mismatch():
    alg = Algebra((2,))
    with pytest.raises(StructuralError):
        alg.element([np.zeros((3, 3), dtype=complex)])


def test_non_finite_rejected():
    alg = Algebra((2,))
    bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    with pytest.raises(NumericError):
        alg.element([bad])


def test_vec_unvec_roundtrip():
    alg = Algebra((2, 3))
    rng = generator(1, "vec")
    x = alg.random_element(rng, kind="general")
    y = alg.unvec(alg.vec(x))
    assert (x - y).max_abs() == 0.0


def test_box_iteration_lex():
    box = Box((1, 2), (2, 3))
    assert list(box.indices()) == [(1, 2), (1, 3), (2, 2), (2, 3)]
    assert box.size == 4
    assert volume((3, 4)) == 12
    assert box.contains((2, 2)) and not box.contains((3, 2))


def test_box_validation():
    with pytest.raises(ValueError):
        Box((2,), (1,))
    with pytest.raises(ValueError):
        Box((0,), (1,))


# ---------------------------------------------------------------------------
# norms: oracle checks on explicitly known matrices

def test_lp_norm_diagonal_oracle():
    # diag(3, -4) with unit weight: ||x||_1 = 7, ||x||_2 = 5, ||x||_inf = 4
    alg = Algebra((2,))
    x = alg.element([np.diag([3.0, -4.0]).astype(complex)])
    assert lp_norm(x, 1.0) == pytest.approx(7.0, abs=1e-12)
    assert lp_norm(x, 2.0) == pytest.approx(5.0, abs=1e-12)
    assert lp_norm(x, np.inf) == pytest.approx(4.0, abs=1e-12)


def test_lp_norm_weighted_blocks():
    # weights (1, 1/2): ||1||_1 = 2 + 3/2
    alg = Algebra((2, 3), (1.0, 0.5))
    one = alg.identity()
    assert lp_norm(one, 1.0) == pytest.approx(3.5, abs=1e-12)
    # p scaling of the identity: ||1||_p = tau(1)^(1/p)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(one, p) == pytest.approx(3.5 ** (1 / p), abs=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_lp_norm_of_huge_and_tiny_members(p, scale):
    # x = diag(3, -4) + (2i) with weights (1, 1/2): ||x||_p^p = 3^p + 4^p + 2^p / 2;
    # the p-th powers of scale * x overflow or underflow, its norm must not
    alg = Algebra((2, 1), (1.0, 0.5))
    rng = np.random.default_rng(5)
    y = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 1)]
    members = [[np.diag([3.0, -4.0]), np.array([[2j]])], y, [np.zeros((2, 2)), np.zeros((1, 1))]]
    stacks = [np.stack([m[b] for m in members]).astype(complex) * scale for b in range(2)]
    want = [scale * (3**p + 4**p + 2**p / 2) ** (1 / p),
            scale * stack_lp_norm(alg, [b[1:2] / scale for b in stacks], p)[0], 0.0]
    got = stack_lp_norm(alg, stacks, p)
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert lp_norm(alg.element([b[0] for b in stacks]), p) == got[0]


def test_lp_norm_near_the_largest_double():
    # the all-c 2x2 matrix has singular values (2c, 0): its norm is 2c for every p,
    # finite at c = 6e307 and inf, with no overflow warning, at c = 1e308
    alg = Algebra((2,))
    stacks = [np.stack([np.full((2, 2), 6e307), np.full((2, 2), 1e308)]).astype(complex)]
    for p in (2.0, 3.0):
        got = stack_lp_norm(alg, stacks, p)
        assert got[0] == pytest.approx(1.2e308, rel=1e-14) and got[1] == np.inf


def test_lp_norm_bad_exponent():
    alg = Algebra((2,))
    with pytest.raises(ValueError):
        lp_norm(alg.identity(), 0.5)
    with pytest.raises(ValueError):
        lp_norm(alg.identity(), np.nan)
    with pytest.raises(ValueError):
        stack_lp_norm(alg, [np.zeros((3, 2, 2), dtype=complex)], -np.inf)


def test_modulus_matches_sqrt():
    # |x| = (x* x)^(1/2), checked against direct eigenvalue square roots
    alg = Algebra((3,))
    rng = generator(7, "mod")
    x = alg.random_element(rng, kind="general")
    m = modulus(x)
    gram = x.adjoint() @ x
    lam, v = np.linalg.eigh(gram.blocks[0])
    direct = (v * np.sqrt(np.maximum(lam, 0.0))) @ v.conj().T
    assert np.abs(m.blocks[0] - direct).max() < 1e-10
    assert is_positive(m, 1e-10)


def test_trace_weighted():
    alg = Algebra((2, 2), (2.0, 0.5))
    x = alg.element([np.eye(2, dtype=complex), 3 * np.eye(2, dtype=complex)])
    assert trace(x) == pytest.approx(2.0 * 2 + 0.5 * 6)


# ---------------------------------------------------------------------------
# seeded norm properties

def test_norm_properties_seeded():
    # Hoelder |tau(xy)| <= ||x||_p ||y||_q, triangle, positivity monotonicity
    for seed in range(40):
        rng = generator(seed, "props")
        shape = SHAPES[seed % len(SHAPES)]
        alg = random_algebra(shape, weighted=seed % 2 == 0)
        x = alg.random_element(rng, kind="general")
        y = alg.random_element(rng, kind="general")
        for p in (1.0, 2.0, 4.0):
            q = np.inf if p == 1.0 else p / (p - 1.0)
            lhs = abs(trace(x @ y))
            assert lhs <= lp_norm(x, p) * lp_norm(y, q) + 1e-9
            assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-9
        a = alg.random_element(rng, kind="positive")
        b = alg.random_element(rng, kind="positive")
        for p in (1.0, 2.0, np.inf):
            assert lp_norm(a, p) <= lp_norm(a + b, p) + 1e-9


def test_four_positives_reconstruction_seeded():
    for seed in range(40):
        rng = generator(seed, "four")
        alg = random_algebra(SHAPES[seed % len(SHAPES)])
        x = alg.random_element(rng, kind="general")
        x0, x1, x2, x3 = oracle_four_positives(x)
        for part in (x0, x1, x2, x3):
            assert is_positive(part, 1e-9)
        rebuilt = x0 - x2 + (x1 - x3) * 1j
        assert (x - rebuilt).max_abs() < 1e-9


def test_positive_negative_parts():
    alg = Algebra((2,))
    x = alg.element([np.diag([2.0, -3.0]).astype(complex)])
    assert positive_part(x).blocks[0][0, 0] == pytest.approx(2.0)
    assert positive_part(-x).blocks[0][1, 1] == pytest.approx(3.0)
    # x = x_+ - x_-
    assert (x - (positive_part(x) - positive_part(-x))).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# stack helpers against the per-element formulas

def reference_trace(alg, blocks):
    return complex(sum(w * np.trace(b) for w, b in zip(alg.trace_weights, blocks)))


def svd_lp_norm(alg, blocks, p):
    svals = [np.linalg.svd(b, compute_uv=False) for b in blocks]
    if p == np.inf:
        return max(float(s[0]) for s in svals)
    total = sum(w * float(np.sum(s**p)) for w, s in zip(alg.trace_weights, svals))
    return float(total ** (1.0 / p))


def reference_lp_norm(alg, blocks, p):
    """p = 2 in the Frobenius form, every other p from singular values."""
    if p != 2.0:
        return svd_lp_norm(alg, blocks, p)
    total = sum(w * float(np.sum(b.real**2 + b.imag**2))
                for w, b in zip(alg.trace_weights, blocks))
    return float(total ** (1.0 / p))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    data=st.data(),
    n=st.integers(1, 20),
    p=st.sampled_from((1.0, 1.5, 2.0, 3.0, np.inf)),
    chunk_bytes=st.sampled_from((1, 100, 1000, 4 << 20)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_helpers_match_element_formulas_bitwise(dims, data, n, p,
                                                      chunk_bytes, seed):
    weights = data.draw(st.lists(
        st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
        min_size=len(dims), max_size=len(dims)), label="weights")
    alg = Algebra(dims, weights)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 6, size=n)[:, None, None]
    stacks = []
    for d in dims:
        s = scale * (rng.standard_normal((n, d, d))
                     + 1j * rng.standard_normal((n, d, d)))
        s[rng.random(n) < 0.2] = -0.0  # all-zero members, with signed zeros
        stacks.append(s)
    traces = stack_trace(alg, stacks)
    # p = 2 sums a chunk of members at a time, of any length
    with mock.patch.object(algebra, "CHUNK_BYTES", chunk_bytes):
        norms = stack_lp_norm(alg, stacks, p)
    assert traces.shape == norms.shape == (n,)
    for k in range(n):
        blocks = [s[k] for s in stacks]
        ref_tr = reference_trace(alg, blocks)
        got_tr = complex(traces[k])
        assert got_tr.real.hex() == ref_tr.real.hex()
        assert got_tr.imag.hex() == ref_tr.imag.hex()
        assert float(norms[k]).hex() == reference_lp_norm(alg, blocks, p).hex()
        if p == 2.0:
            via_svd = svd_lp_norm(alg, blocks, p)
            assert abs(float(norms[k]) - via_svd) <= 1e-14 * via_svd
        x = alg.element(blocks)
        assert trace(x) == ref_tr and lp_norm(x, p) == float(norms[k])


# the per-Element positivity code the stack kernels replaced, as the oracle

def oracle_is_positive(blocks, tol):
    dev = max(float(np.abs(b - b.conj().T).max()) for b in blocks)
    mag = max(float(np.abs(b).max()) for b in blocks)
    if dev > tol * (1.0 + mag):
        return False
    return all(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) >= -tol
               for b in blocks)


def kernel_members(alg, rng, kinds):
    return [alg.random_element(rng, kind=kind, scale=float(10.0 ** rng.uniform(-3, 3)))
            for kind in kinds]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 16), min_size=1, max_size=3),
    kinds=st.lists(st.sampled_from(("general", "hermitian", "positive")),
                   min_size=1, max_size=6),
    tol=st.sampled_from((1e-10, 1e-8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_positivity_kernels_match_element_code_bitwise(dims, kinds, tol, seed):
    alg = Algebra(dims)
    members = kernel_members(alg, np.random.default_rng(seed), kinds)
    stacks = [np.stack([x.blocks[b] for x in members]) for b in range(len(dims))]
    decided = stack_is_positive(stacks, tol)
    pos_stacks = [stack_positive_part(stack_hermitian_part(s)) for s in stacks]
    for k, x in enumerate(members):
        assert decided[k] == oracle_is_positive(x.blocks, tol) == is_positive(x, tol)
        pos = positive_part(x)
        for b, s in enumerate(stacks):
            want = oracle_positive_part(s[k])
            assert pos_stacks[b][k].tobytes() == pos.blocks[b].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# projections and spectral cuts

def test_projection_validation():
    alg = Algebra((2,))
    e = alg.element([np.diag([1.0, 0.0]).astype(complex)])
    Projection(e)
    complement = Projection(alg.identity() - e)
    assert complement.element.blocks[0][1, 1] == pytest.approx(1.0)
    bad = alg.element([np.diag([0.5, 0.0]).astype(complex)])
    with pytest.raises(StructuralError):
        Projection(bad)


def test_spectral_projection_interval():
    alg = Algebra((3,))
    x = alg.element([np.diag([0.5, 1.5, 3.0]).astype(complex)])
    e = spectral_projection(x, (-np.inf, 2.0))
    assert np.real(np.trace(e.element.blocks[0])) == pytest.approx(2.0)
    inside = spectral_projection(x, (1.0, 2.0))
    assert np.real(np.trace(inside.element.blocks[0])) == pytest.approx(1.0)


def test_spectral_projection_requires_hermitian():
    alg = Algebra((2,))
    x = alg.element([np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(StructuralError):
        spectral_projection(x, (0.0, 1.0))


# ---------------------------------------------------------------------------
# text format

def test_text_roundtrip_seeded():
    for seed in range(10):
        rng = generator(seed, "text")
        alg = random_algebra(SHAPES[seed % len(SHAPES)], weighted=True)
        x = alg.random_element(rng, kind="general")
        y = element_from_text(element_to_text(x))
        assert y.algebra == alg
        assert (x - y).max_abs() == 0.0  # 17 significant digits round-trip


def test_text_rejects_garbage():
    with pytest.raises(StructuralError):
        element_from_text("not a header")


def test_hermitian_hint_propagation():
    alg = Algebra((2,))
    rng = generator(3, "herm")
    a = alg.random_element(rng, kind="hermitian")
    b = alg.random_element(rng, kind="hermitian")
    assert (a + b).hermitian_hint
    assert (a - b).hermitian_hint
    assert (2.0 * a).hermitian_hint
    assert a.adjoint().hermitian_hint
