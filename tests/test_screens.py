"""Screened family sweeps against their unscreened formulas, bit for bit.

The dominant solver and certification measure only the members a cheap
rigorous bound cannot clear. The unscreened formulas are kept here as
oracles: a screen may skip work but never change a number.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergo import bau, maximal
from ncergo.algebra import (
    Algebra,
    Box,
    spectral_projection,
    stack_hermitian_part,
    stack_positive_part,
)
from ncergo.averages import AverageFamily
from ncergo.maximal import FEAS_TOL, JOINT_CHUNK
from ncergo.scenario import run_scenario, scenario_from_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + np.conj(np.swapaxes(g, -1, -2))) / 2


def screen_family(kind, seed, dims, n):
    """Per-block Hermitian stacks of n members of the given kind."""
    rng = np.random.default_rng(seed)
    stacks = []
    for d in dims:
        if kind == "diagonal":
            # few distinct values, so top eigenvalues and margins tie often
            s = (rng.integers(-3, 4, size=(n, d)) / 2)[:, :, None] * np.eye(d)
        elif kind == "near_duplicate":
            base = hermitian(rng, (d, d))
            s = base[None] + 1e-9 * hermitian(rng, (n, d, d))
            s[::3] = base  # some members repeat exactly
        elif kind == "plus_minus":
            half = hermitian(rng, ((n + 1) // 2, d, d))
            s = np.stack((half, -half), axis=1).reshape((-1, d, d))[:n]
        else:
            mags = rng.uniform(0.0, 2.0, size=(n, 1, 1))
            s = mags * hermitian(rng, (n, d, d))
        stacks.append(np.ascontiguousarray(s, dtype=complex))
    return stacks


def gather(stacks):
    # the member gather _top_member and _margin_bounds take, of plain stacks
    return lambda idx: [x_b[idx] for x_b in stacks]


def full_margins(a_blocks, stacks):
    # unscreened: every member's min eigenvalue of a - x_k, across blocks
    return np.minimum.reduce([
        np.linalg.eigvalsh(stack_hermitian_part(a_b[None] - x_b))[:, 0]
        for a_b, x_b in zip(a_blocks, stacks)
    ])


def full_top(stacks):
    # unscreened: first member with the largest top eigenvalue, and its value
    top = np.maximum.reduce([np.linalg.eigvalsh(x_b)[:, -1] for x_b in stacks])
    return int(np.argmax(top)), float(top.max())


def full_compressed_sup(e, stacks):
    # unscreened: one batched svd of every compressed member per block
    worst = 0.0
    for e_b, r_b in zip(e.element.blocks, stacks):
        if r_b.shape[0] == 0:
            continue
        sv = np.linalg.svd(e_b[None] @ r_b @ e_b[None], compute_uv=False)
        worst = max(worst, float(sv[:, 0].max()) if sv.size else 0.0)
    return worst


def trial_dominants(kind, stacks, top, rng):
    """Candidate a's around where the solver's checks and finish put them."""
    eyes = [np.eye(x_b.shape[-1], dtype=complex) for x_b in stacks]
    if kind == "top":  # the p = inf dominant: some margins are exactly 0
        return [top * i for i in eyes]
    if kind == "top_perturbed":
        return [top * i + 1e-10 * hermitian(rng, i.shape) for i in eyes]
    if kind == "sum_positive":  # dominates everything with room to spare
        return [stack_positive_part(x_b).sum(axis=0) for x_b in stacks]
    return [stack_positive_part(x_b[0]) for x_b in stacks]  # violated by most members


def check_outcome(margins, members, work, scale):
    """(lift, joining member or None) as the solver's check takes them."""
    lift = max(0.0, -float(margins.min(initial=0.0)))
    viol = np.flatnonzero((margins < -FEAS_TOL * scale) & ~np.isin(members, work))
    return lift, int(members[viol[np.argmin(margins[viol])]]) if viol.size else None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(1, 300),
    kind=st.sampled_from(("diagonal", "near_duplicate", "plus_minus", "general")),
    a_kind=st.sampled_from(("top", "top_perturbed", "sum_positive", "first_positive")),
    drift=st.sampled_from((0.0, 1e-13, 1e-6, 1e-2)),
    work_size=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_kernels_equal_unscreened(dims, n, kind, a_kind, drift, work_size, seed):
    stacks = screen_family(kind, seed, dims, n)
    rng = np.random.default_rng(seed + 1)
    scale = 1.0 + max(float(np.abs(s).max()) for s in stacks)
    bound = maximal._gershgorin(stacks)
    assert np.all(bound.max(axis=1) >= np.maximum.reduce(
        [np.linalg.eigvalsh(x_b)[:, -1] for x_b in stacks]) - 1e-13 * scale)

    # top member: the first argmax and the max of the full eigvalsh
    k, top = full_top(stacks)
    assert maximal._top_member(gather(stacks), bound, scale) == (k, top)

    # the finish's query (cap = inf, no working set): the minimum margin
    a = trial_dominants(a_kind, stacks, top, rng)
    exact = full_margins(a, stacks)
    low, near, _ = maximal._margin_bounds(a, gather(stacks), bound, scale, cap=np.inf)
    assert low[near].min() == exact.min()
    assert np.all(low[near] == exact[near]) and np.all(low <= exact)

    # the checks' running bounds, also after a drift from the last check's
    # a: the lift and the joining member (the first on ties) are those of a
    # full sweep; low never exceeds a margin and is exact where measured.
    # The working set holds the most violated members, as in the solver,
    # so the joining member must come from further up
    work = [int(j) for j in np.argsort(exact, kind="stable")[:work_size]]
    last = None
    for a_t in (a, [b + drift * hermitian(rng, b.shape) for b in a]):
        exact = full_margins(a_t, stacks)
        low, near, pad = maximal._margin_bounds(a_t, gather(stacks), bound, scale, last,
                                                work)
        assert np.all(near[1:] > near[:-1])
        assert np.all(low[near] == exact[near])
        assert np.all(low <= exact)
        assert check_outcome(low[near], near, work, scale) == check_outcome(
            exact, np.arange(n), work, scale)
        last = (low, a_t, pad)


def test_min_margin_reaches_past_the_lowest_floor():
    # b's Gershgorin bound is loose (1.1 against lambda_max 0.793), so b has
    # the lowest floor, yet the diagonal a has the lower margin, 8e-4 below
    a = np.diag([0.7935, 0.0])
    b = np.array([[0.6, 0.5], [0.5, -0.5]])
    stacks = [np.stack([b, a]).astype(complex)]
    bound = maximal._gershgorin(stacks)
    zero = [np.zeros((2, 2), dtype=complex)]
    floor = maximal._weyl_floor(zero, bound, 1.6)[0]
    assert floor[0] < floor[1]
    low, near, _ = maximal._margin_bounds(zero, gather(stacks), bound, 1.6, cap=np.inf)
    assert low[near].min() == full_margins(zero, stacks).min()
    assert full_margins(zero, stacks).min() == pytest.approx(-0.7935)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(1, 300),
    kind=st.sampled_from(("diagonal", "near_duplicate", "plus_minus", "general",
                          "complex")),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_compressed_sup_equals_batched_svd(dims, n, kind, seed):
    alg = Algebra(dims)
    rng = np.random.default_rng(seed)
    if kind == "complex":  # certify_bau_complex measures non-Hermitian residuals
        stacks = [rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
                  for d in dims]
    else:
        stacks = screen_family(kind, seed, dims, n)
    for e in (spectral_projection(alg.identity(), (-np.inf, np.inf)),
              spectral_projection(alg.random_element(rng, kind="hermitian"),
                                  (-np.inf, 0.0))):
        assert bau._compressed_sup(e, stacks) == full_compressed_sup(e, stacks)


# ---------------------------------------------------------------------------
# joint-eigenbasis residual test in member chunks

def joint_eigenbasis(stacks):
    # dominant_element passes 1 + the family's largest |entry| as the scale
    return maximal._joint_eigenbasis(stacks, 1.0 + max(float(np.abs(s).max()) for s in stacks))


def rotated_commuting(rng, d, n):
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    lam = rng.uniform(-1.0, 1.5, size=(n, d))
    return (u[None] * lam[:, None, :]) @ u.conj().T


def test_commuting_family_past_one_chunk_is_exact():
    rng = np.random.default_rng(5)
    n = 2 * JOINT_CHUNK + 7
    stacks = [rotated_commuting(rng, 3, n), rotated_commuting(rng, 2, n)]
    rep = maximal.dominant_element(stacks, 2.0, algebra=Algebra((3, 2)))
    assert rep.method == "commuting_exact"


def test_noncommuting_member_past_first_chunk_is_caught():
    # the first chunk holds multiples of 1, which pass in any basis, so only
    # a later chunk can fail
    rng = np.random.default_rng(6)
    n = JOINT_CHUNK + 40
    stack = rotated_commuting(rng, 2, n)
    stack[:JOINT_CHUNK] = rng.uniform(-1.0, 1.5, size=(JOINT_CHUNK, 1, 1)) * np.eye(2)
    stack[JOINT_CHUNK + 11] = np.array([[0.5, 0.4], [0.4, -0.2]])
    alg = Algebra((2,))
    assert joint_eigenbasis([stack]) is None
    rep = maximal.dominant_element([stack], 2.0, tol=1e-6, algebra=alg)
    assert rep.method == "dual_fista"


# ---------------------------------------------------------------------------
# the screens keep working: results cannot show it, so count the members

def test_screens_skip_most_members_on_rate_d2_onset_one(monkeypatch):
    measured = {"checks": [], "finish": [], "sup": []}
    counting = {"on": None}
    margins_full, svd = maximal._margins_full, np.linalg.svd

    def count_margins(a_blocks, stacks):
        if counting["on"] in ("checks", "finish"):
            measured[counting["on"]][-1][0] += stacks[0].shape[0]
        return margins_full(a_blocks, stacks)

    def count_svd(a, *args, **kwargs):
        if counting["on"] == "sup":
            measured["sup"][-1][0] += a.shape[0]
        return svd(a, *args, **kwargs)

    def wrap(fn, name, size):
        def wrapped(*args, **kwargs):
            # the finish's margin query is the one with cap = inf
            key = "finish" if kwargs.get("cap") == np.inf else name
            measured[key].append([0, size(*args)])
            counting["on"] = key
            try:
                return fn(*args, **kwargs)
            finally:
                counting["on"] = None
        return wrapped

    monkeypatch.setattr(maximal, "_margins_full", count_margins)
    monkeypatch.setattr(np.linalg, "svd", count_svd)
    monkeypatch.setattr(maximal, "_margin_bounds", wrap(
        maximal._margin_bounds, "checks", lambda a, members, bound, *_: len(bound)))
    monkeypatch.setattr(bau, "_compressed_sup", wrap(
        bau._compressed_sup, "sup", lambda e, stacks, *_: stacks[0].shape[0]))

    data = json.loads((CONFIGS / "rate_d2.json").read_text())
    data["tasks"] = ["average", "certify"]
    data["certify"] = {"onsets": [1]}
    report = run_scenario(scenario_from_dict(data, base_dir=CONFIGS))
    assert all(t.status == "ok" for t in report.tasks)

    # onset 1 of the 64^2 box: 4,096 residuals, 8,192 +- members per part
    checks = [m for m in measured["checks"] if m[1] == 8192]
    finish = [m for m in measured["finish"] if m[1] == 8192]
    sup = [m for m in measured["sup"] if m[1] == 4096]
    assert checks and finish and sup
    # every check measures only the members that can bind (about 0.2% of
    # the members over all checks at the default seed)
    assert sum(c for c, _ in checks) < 0.05 * sum(t for _, t in checks)
    for count, total in finish:
        assert count < 0.05 * total
    for count, total in sup:
        assert count < 0.10 * total


def residual_plus_minus(seed, dims, n):
    """Certify's +-family of n decaying Hermitian residuals, interleaved in
    a shuffled order, so that member index says nothing of size."""
    rng = np.random.default_rng(seed)
    decay = 1.0 / np.arange(1, n + 1)[:, None, None]
    return maximal.prepare_signed([decay * hermitian(rng, (n, d, d)) for d in dims],
                                  algebra=Algebra(dims)).take(rng.permutation(n))


def unscreened_margin_bounds(a_blocks, members, bound, scale, last=None, work=(), cap=0.0):
    # every member measured, at every check and at the finish
    pad = maximal._weyl_floor(a_blocks, bound, scale)[1]
    every = np.arange(len(bound))
    return full_margins(a_blocks, members(every)), every, pad


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    n=st.integers(2, 120),
    p=st.sampled_from((1.0, 1.5, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_solve_equals_measuring_every_member(dims, n, p, seed):
    alg = Algebra(dims)
    fam = residual_plus_minus(seed, dims, n)
    got = maximal.dominant_element(fam, p, tol=1e-6, max_iter=300, algebra=alg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(maximal, "_margin_bounds", unscreened_margin_bounds)
        want = maximal.dominant_element(fam, p, tol=1e-6, max_iter=300, algebra=alg)
    same_report(got, want)
    assert got.margins_measured <= want.margins_measured


@pytest.mark.parametrize("dims", [(4,), (3, 2)])
def test_first_check_measures_few_members_of_a_plus_minus_family(dims):
    # max_iter 0: one check at the start point (the scaled positive part of
    # one member, rank-deficient, so every Weyl floor is loose), then the
    # finish; together they measure at most 5% of the 2,000 members
    fam = residual_plus_minus(3, dims, 1000)
    rep = maximal.dominant_element(fam, 2.0, max_iter=0, algebra=Algebra(dims))
    assert rep.method == "dual_fista" and rep.iterations == 0
    assert 0 < rep.margins_measured <= 0.05 * 2000


# ---------------------------------------------------------------------------
# prepared families: per-member data taken by index, bit for bit

def same_report(a, b):
    fields = ("norm", "lower_bound", "feasibility_margin", "method", "members",
              "iterations", "converged")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    for xs, ys in ((a.rho, b.rho), (a.dominant.blocks, b.dominant.blocks)):
        assert len(xs) == len(ys)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    n=st.integers(1, 80),
    kind=st.sampled_from(("diagonal", "near_duplicate", "plus_minus", "general")),
    skew=st.booleans(),
    p=st.sampled_from((1.5, 2.0, np.inf)),
    seed=st.integers(0, 2**32 - 1),
)
def test_prepared_family_take_equals_gathered_stacks(dims, n, kind, skew, p, seed):
    alg = Algebra(dims)
    rng = np.random.default_rng(seed)
    stacks = screen_family(kind, seed, dims, n)
    if skew:  # not exactly Hermitian, within the validation's tolerance
        stacks = [s + 1e-12j * hermitian(rng, s.shape) for s in stacks]
    idx = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    prep = maximal.prepare_family(stacks, algebra=alg)
    got = maximal.dominant_element(prep.take(idx), p, tol=1e-6, max_iter=300, algebra=alg)
    want = maximal.dominant_element([s[idx] for s in stacks], p, tol=1e-6,
                                    max_iter=300, algebra=alg)
    same_report(got, want)


def interleaved_copy(signed, idx):
    """The tail idx of a signed family as certify used to build it: a copy
    holding r_k and -r_k in turn (np.stack), the -0.0 that negation leaves
    on the imaginary diagonal cleared, prepared as a plain family."""
    stacks = []
    for r_b in signed.stacks:
        g = r_b[idx]
        pm = np.stack((g, -g), axis=1).reshape((-1,) + g.shape[1:])
        diag = np.arange(g.shape[-1])
        pm.imag[:, diag, diag] = 0.0
        stacks.append(pm)
    return maximal.PreparedFamily(tuple(stacks), maximal._gershgorin(stacks),
                                  maximal.stack_abs_max(stacks))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    n=st.integers(1, 80),
    kind=st.sampled_from(("diagonal", "near_duplicate", "general")),
    p=st.sampled_from((1.5, 2.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_signed_family_equals_the_interleaved_copy(dims, n, kind, p, seed):
    alg = Algebra(dims)
    rng = np.random.default_rng(seed)
    signed = maximal.prepare_signed(screen_family(kind, seed, dims, n), algebra=alg)
    idx = np.sort(rng.permutation(n)[:int(rng.integers(1, n + 1))])
    tail = signed.take(idx)
    got = maximal.dominant_element(tail, p, tol=1e-6, max_iter=300, algebra=alg)
    want = maximal.dominant_element(interleaved_copy(signed, idx), p, tol=1e-6,
                                    max_iter=300, algebra=alg)
    basis = maximal._joint_eigenbasis(list(tail.stacks), 1.0 + float(tail.size.max()))
    if basis is not None and not all(np.array_equal(v, np.eye(len(v))) for v in basis):
        # the basis comes from the r_k alone, so it differs in rounding from
        # the one the copy's 2m members give
        assert got.method == want.method == "commuting_exact"
        assert abs(got.norm - want.norm) <= 1e-14 * want.norm
    else:
        same_report(got, want)
        assert got.margins_measured == want.margins_measured


def complex_residuals(rng, dims, shape, real):
    n = int(np.prod(shape))
    blocks = []
    for d in dims:
        decay = 1.0 / np.arange(1, n + 1)[:, None, None]
        g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        blocks.append(decay * ((g + np.conj(np.swapaxes(g, -1, -2))) / 2 if real else g))
    data = np.concatenate([b.reshape(n, -1) for b in blocks], axis=1)
    alg = Algebra(dims)
    return AverageFamily(alg, Box((1, 1), shape), data.reshape(shape + (-1,)), "synthetic")


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_onset_ladder_equals_certify_bau_complex_per_tail(dims, shape, real, seed):
    fam = complex_residuals(np.random.default_rng(seed), dims, shape, real)
    onsets = (1, 2, 3, 5)
    rows = fam.raw().reshape(-1, fam.algebra.basis_size)
    for m in onsets[:2]:  # a tail's members by index, in restrict's order
        box = bau.tail_box(fam, m)
        assert np.array_equal(rows[bau._members(fam.box, box)],
                              fam.restrict(box).raw().reshape(-1, rows.shape[1]))
    certs = bau.onset_ladder(fam, 2.0, 0.05, onsets, tol=1e-6, max_iter=400)
    want = [bau.certify_bau_complex(fam.restrict(bau.tail_box(fam, m)), 2.0, 0.05,
                                    tol=1e-6, max_iter=400)
            for m in onsets if m <= min(shape)]
    assert len(certs) == len(want)
    for a, b in zip(certs, want):
        assert (a.epsilon, a.lam, a.p, a.onset, a.tail_sup, a.dominant_norm,
                a.trace_complement, a.tail_size, a.flags, a.iterations) == (
            b.epsilon, b.lam, b.p, b.onset, b.tail_sup, b.dominant_norm,
            b.trace_complement, b.tail_size, b.flags, b.iterations)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(a.e.element.blocks, b.e.element.blocks))


# ---------------------------------------------------------------------------
# the joint-eigenbasis commutator pre-test only answers None where the
# seeded passes would

def joint_eigenbasis_oracle(raw, stacks, tol=1e-10):
    # the routine without the commutator pre-test
    scale = 1.0 + max(float(np.abs(s).max()) for s in raw)
    if all(maximal._offdiag_max(s) <= 1e-13 * scale for s in raw):
        return [np.eye(s.shape[-1], dtype=np.complex128) for s in raw]
    n = raw[0].shape[0]
    steps = np.arange(1, n + 1)
    for seed_coef in (1.2345678901, 2.7182818284):
        coef = np.cos(seed_coef * steps)[:, None, None]
        basis = [
            np.linalg.eigh(stack_hermitian_part(np.add.reduce(coef * s, axis=0, initial=0)))[1]
            for s in raw
        ]
        if all(maximal._offdiag_max(v.conj().T @ x_b[lo:lo + JOINT_CHUNK] @ v) <= tol * scale
               for lo in range(0, n, JOINT_CHUNK)
               for v, x_b in zip(basis, stacks)):
            return basis
    return None


def same_basis(got, want):
    if want is None:
        return got is None
    return got is not None and all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("rel", (0.0, 1e-13, 1e-11, 1e-10, 1e-8))
@pytest.mark.parametrize("seed", range(6))
def test_commutator_pretest_keeps_joint_eigenbasis_on_perturbed_commuting(rel, seed):
    rng = np.random.default_rng(seed)
    n = (3, 40, JOINT_CHUNK + 9)[seed % 3]
    stacks = [rotated_commuting(rng, d, n) for d in (2, 3)[:1 + seed % 2]]
    stacks = [s + rel * hermitian(rng, s.shape) for s in stacks]
    want = joint_eigenbasis_oracle(stacks, stacks)
    assert same_basis(joint_eigenbasis(stacks), want)
    if rel <= 1e-13:
        assert want is not None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(1, 300),
    kind=st.sampled_from(("diagonal", "near_duplicate", "plus_minus", "general")),
    seed=st.integers(0, 2**32 - 1),
)
def test_commutator_pretest_keeps_joint_eigenbasis_on_screen_kinds(dims, n, kind, seed):
    stacks = screen_family(kind, seed, dims, n)
    assert same_basis(joint_eigenbasis(stacks),
                      joint_eigenbasis_oracle(stacks, stacks))


# ---------------------------------------------------------------------------
# the commuting route in the identity basis: diagonals read, margins floored

def near_diagonal_family(seed, dims, n, scale=3.0):
    """Exactly Hermitian stacks within 0.9e-13 * scale of diagonal, whose
    diagonals hold exact zeros, -0.0 (at least every seventh member's first
    coordinate) and values of either sign up to scale (the last coordinate
    of a block up to scale / 100), prepared as certify prepares its
    +-residuals: the stacks stand for themselves."""
    rng = np.random.default_rng(seed)
    stacks = []
    for d in dims:
        diag = rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, d)) * rng.uniform(0.0, scale, (n, d))
        diag[::7, 0] = -0.0
        diag[:, -1] *= np.where(diag[:, -1] > 0.0, 0.01, 1.0)  # a small top
        g = rng.uniform(-1.0, 1.0, (n, d, d)) + 1j * rng.uniform(-1.0, 1.0, (n, d, d))
        s = 0.9e-13 * scale / np.sqrt(2.0) * (g + np.conj(np.swapaxes(g, 1, 2))) / 2
        s[:, np.arange(d), np.arange(d)] = 0.0
        s.real[:, np.arange(d), np.arange(d)] = diag
        stacks.append(s)
    size = np.maximum.reduce([np.abs(s).max(axis=(1, 2)) for s in stacks])
    return maximal.PreparedFamily(tuple(stacks), maximal._gershgorin(stacks), size)


@pytest.mark.parametrize("dims, weights", [
    ((1,), None), ((3,), None), ((2, 3), (0.25, 2.0)), ((4, 1, 2), (1.0, 3.0, 0.5)),
])
@pytest.mark.parametrize("seed", range(3))
def test_identity_basis_diagonals_equal_the_transform_bit_for_bit(dims, weights, seed):
    alg = Algebra(dims, weights)
    prep = near_diagonal_family(seed, dims, 60)
    stacks = list(prep.stacks)
    assert all(np.signbit(x_b[::7, 0, 0].real).all() for x_b in stacks)
    basis = maximal._joint_eigenbasis(stacks, 1.0 + float(prep.size.max()))
    assert all(np.array_equal(v, np.eye(v.shape[0])) for v in basis)
    got, identity = maximal._basis_diagonals(basis, stacks)
    assert identity
    want = [np.real(np.einsum("ia,kij,ja->ka", np.conj(v), x_b, v))
            for v, x_b in zip(basis, stacks)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # the report is the transform's: dominant, norm and the smallest margin
    p = 1.5
    rep = maximal.dominant_element(prep, p, algebra=alg)
    assert rep.method == "commuting_exact"
    m = [np.maximum(w.max(axis=0), 0.0) for w in want]
    a_blocks = [(v * mb) @ v.conj().T for v, mb in zip(basis, m)]
    assert [b.tobytes() for b in rep.dominant.blocks] == [b.tobytes() for b in a_blocks]
    norm = sum(w * float(np.sum(mb**p)) for w, mb in zip(alg.trace_weights, m)) ** (1 / p)
    assert rep.norm == norm
    assert rep.feasibility_margin == float(full_margins(a_blocks, stacks).min())


def test_diagonal_family_finish_measures_few_members():
    # the Weyl floor min(m) - g_k of the entrywise maximum is loose; the
    # diagonal floor min_i(m_i - x_kii) less the off-diagonal row sums is not
    n = 1200
    rep = maximal.dominant_element(near_diagonal_family(11, (3, 2), n), 2.0,
                                   algebra=Algebra((3, 2)))
    assert rep.method == "commuting_exact"
    assert rep.margins_measured < n // 10


def parent_gershgorin(stacks):
    # the numpy reductions the column passes replaced
    cols = []
    for x_b in stacks:
        mag = np.abs(x_b)
        diag = np.diagonal(x_b, axis1=-2, axis2=-1).real
        rows = diag - np.diagonal(mag, axis1=-2, axis2=-1) + mag.sum(axis=-1)
        cols.append(rows.max(axis=-1))
    return np.stack(cols, axis=1)


def parent_diagonal_floor(m_blocks, stacks, scale, signed=False):
    if signed:  # the members x_1, -x_1, x_2, ... as stacks of their own
        stacks = [np.stack((x, -x), axis=1).reshape((-1,) + x.shape[1:]) for x in stacks]
    cols = []
    for m, x_b in zip(m_blocks, stacks):
        mag = np.abs(x_b)
        diag = x_b.diagonal(axis1=1, axis2=2).real + 0.0
        off = mag.sum(axis=-1) - np.diagonal(mag, axis1=1, axis2=2)
        cols.extend((m - diag - off).T)
    a_blocks = [np.diag(m) for m in m_blocks]
    pad = maximal._round_pad(a_blocks, scale, max(float(m.max()) for m in m_blocks))
    return np.min(cols, axis=0) - pad, a_blocks, pad


def tied_commuting_family(kind, seed, dims, n):
    """Stacks sharing an eigenbasis (the identity for "diagonal", a random
    unitary otherwise) whose eigenvalues hold -0.0, exact zeros and block
    maxima tied across many members."""
    rng = np.random.default_rng(seed)
    stacks = []
    for d in dims:
        lam = rng.choice([-0.0, 0.0, -1.5, 0.75, 2.0], size=(n, d))
        lam[::4, -1] = 2.0
        lam[:, 0] = np.where(lam[:, 0] > 0.0, -0.0, lam[:, 0])  # a block row topped by zeros
        if kind == "diagonal":
            s = lam[:, :, None] * np.eye(d)  # -0.0 off the diagonal too
        else:
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            s = (u[None] * lam[:, None, :]) @ u.conj().T
        stacks.append(np.ascontiguousarray(s, dtype=complex))
    return stacks


@pytest.mark.parametrize("kind", ("diagonal", "rotated"))
@pytest.mark.parametrize("dims, weights", [((1,), None), ((3,), None), ((2, 4), (0.5, 2.0))])
@pytest.mark.parametrize("p", (1.0, 1.5, 3.0))
@pytest.mark.parametrize("prepared", (False, True))
def test_commuting_route_equals_numpy_reductions(monkeypatch, kind, dims, weights, p, prepared):
    alg = Algebra(dims, weights)
    stacks = tied_commuting_family(kind, 7, dims, 97)

    def solve():
        if not prepared:
            return maximal.dominant_element(stacks, p, algebra=alg)
        # as certify passes its +-residuals: the stacks stand for themselves
        herm = [stack_hermitian_part(s) for s in stacks]
        fam = maximal.PreparedFamily(tuple(herm), maximal._gershgorin(herm),
                                     maximal.stack_abs_max(herm))
        return maximal.dominant_element(fam, p, algebra=alg)

    got = solve()
    with monkeypatch.context() as m:
        m.setattr(maximal, "member_max", lambda a: a.max(axis=0))
        m.setattr(maximal, "_gershgorin", parent_gershgorin)
        m.setattr(maximal, "_diagonal_floor", parent_diagonal_floor)
        m.setattr(maximal, "stack_abs_max", lambda stacks: np.maximum.reduce(
            [np.abs(s).max(axis=(1, 2)) for s in stacks]))
        want = solve()
    assert got.method == want.method == "commuting_exact"
    assert [a.tobytes() for a in got.dominant.blocks] == [
        b.tobytes() for b in want.dominant.blocks]
    assert (got.norm, got.feasibility_margin, got.margins_measured) == (
        want.norm, want.feasibility_margin, want.margins_measured)
