"""Dominant elements, maximal-average ladders, and interpolation checks.

The central quantity is the order-theoretic analogue of a supremum norm for
a finite family of Hermitian elements:

    inf { ||a||_p : a >= 0 and a >= x_k for every k }.

Its dual is max { sum_k tau(rho_k x_k) : rho_k >= 0, ||sum_k rho_k||_q <= 1 }
with 1/p + 1/q = 1, and the two optima agree. Exact routes exist for
p = inf (a multiple of the identity), single elements, and families sharing
an eigenbasis (entrywise maxima there). The general route is one solver:
accelerated projected ascent on the smooth form of the dual, whose iterates
are both a dual certificate and, through S = sum_k rho_k, a primal point.
Every reported norm belongs to a verified feasible point, so it upper bounds
the infimum; the reported lower bound is sum_k tau(rho_k x_k) for a
certificate with rho_k >= 0 and ||sum_k rho_k||_q <= 1, so the truth is
bracketed. A solve that stops at its iteration cap says so (converged is
False) and still returns a verified bracket.

Sweeps over the whole family measure only the members a cheap rigorous
bound cannot clear: Gershgorin row bounds on each member's top eigenvalue,
and, before the joint-eigenbasis test reduces the whole family, the
commutators of the first members with the first one (members that nearly
share an eigenbasis nearly commute). A check of the solver's point a
against the family measures only the members that can hold the smallest
margin lambda_min(a - x_k) or be the most violated: Weyl's inequality
bounds every margin from below, and members are measured, lowest bounds
first, until every bound left clears the smallest margin found.
Batched LAPACK works one matrix at a time, so a member measured alone gets
bit for bit the value the full batch gives, and every reported number is
the one an exhaustive sweep gives.

prepare_family validates a family and computes these per-member data once
(a PreparedFamily), and prepare_signed computes them for a family with its
negatives (certify's +-r_k) from one copy of each r_k; dominant_element
takes plain stacks, which it prepares, or a PreparedFamily, so callers that
solve over nested families (certify's onset ladder) prepare once and take
each solve's members by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numeric import DEFAULT_BUDGET
from .algebra import (
    Algebra,
    Box,
    Element,
    fold,
    is_positive,
    lp_norm,
    member_max,
    stack_abs,
    stack_abs_max,
    stack_eig_map,
    stack_hermitian_deviation,
    stack_hermitian_part,
    stack_is_positive,
    stack_lp_norm,
    stack_max,
    stack_positive_part,
    stack_sum,
    volume,
)
from .averages import ergodic_average_family
from .contraction import LinearOperator
from .errors import NumericError, StructuralError

FEAS_TOL = 1e-12
BRACKET_RTOL = 1e-12  # relative excess of the dual bound taken as rounding
CHECK_EVERY = 10  # dual steps between checks against the whole family
STEP_GROW = 1.25  # step enlargement after every accepted step
PROX_WEIGHT = 3.0  # p = 1 smoothing weight mu, over the family's largest entry
ROUND_PAD = 4.0  # rounding allowance of a screened bound, in d^2 eps (scale + ||a||)
JOINT_CHUNK = 256  # members per chunk of the joint-eigenbasis residual test
MARGIN_CHUNK = 8  # a margin query measures chunks of 8, 64, 512, ... members


@dataclass(frozen=True)
class DominantReport:
    dominant: Element
    p: float
    norm: float
    lower_bound: float
    iterations: int
    feasibility_margin: float
    converged: bool
    method: str
    # dual certificate (empty on exact routes): rho[b][j] is block b of rho_k,
    # k = members[j]; rho_k >= 0, ||sum rho_k||_q <= 1, lower_bound its pairing
    members: tuple[int, ...] = ()
    rho: tuple[np.ndarray, ...] = ()
    margin_pad: float = 0.0  # rounding allowance of the measured feasibility_margin
    margins_measured: int = 0  # member margins the checks and the finish measured

    @property
    def gap(self) -> float:
        return (self.norm - self.lower_bound) / max(self.lower_bound, 1e-30)


# ---------------------------------------------------------------------------
# block-stack helpers (Hermitian work arrays, one stack per block)

def _check_blocks(alg: Algebra, stacks: Sequence[np.ndarray]) -> None:
    """Raise unless stacks are one (n, d_b, d_b) stack per block, common n >= 1."""
    if len(stacks) != alg.num_blocks:
        raise StructuralError(
            f"expected {alg.num_blocks} block stacks, got {len(stacks)}"
        )
    n = stacks[0].shape[0] if stacks[0].ndim == 3 else -1
    for s, d in zip(stacks, alg.block_dims):
        if s.shape != (n, d, d):
            raise StructuralError(
                f"block stack shape {s.shape} does not match ({n}, {d}, {d})"
            )
    if n == 0:
        raise StructuralError("the family must be nonempty")


def _family_stacks(alg: Algebra, family: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The family's complex stacks: shapes (n, d_b, d_b), common n >= 1, finite."""
    raw = [np.asarray(s, dtype=np.complex128) for s in family]
    _check_blocks(alg, raw)
    if not all(np.all(np.isfinite(s)) for s in raw):
        raise NumericError("non-finite entries in a block stack")
    return raw


@dataclass(frozen=True)
class PreparedFamily:
    """A validated family of Hermitian members and its per-member screen data.

    stacks holds Hermitian x_k, one (m, d_b, d_b) stack per block. The
    members are the x_k or, in a signed family, x_1, -x_1, x_2, ... (member
    j is (-1)^j x_(j // 2)), formed by members(idx) only where a caller
    gathers them. bound holds the (members, blocks) Gershgorin row bounds
    g_jb >= lambda_max(x_jb); size each x_k's largest |entry|; given the
    stacks as passed, or None when stacks stand for them (a family built
    exactly Hermitian, such as certify's residual parts). take(idx) holds
    bit for bit what preparing the gathered x_k gives.
    """

    stacks: tuple[np.ndarray, ...]
    bound: np.ndarray
    size: np.ndarray
    given: tuple[np.ndarray, ...] | None = None
    signed: bool = False

    def take(self, idx) -> "PreparedFamily":
        """The x_k for k in idx (an index sequence), in that order, with their signs."""
        rows = (2 * np.asarray(idx)[:, None] + (0, 1)).ravel() if self.signed else idx
        return PreparedFamily(
            tuple(s[idx] for s in self.stacks), self.bound[rows], self.size[idx],
            None if self.given is None else tuple(s[idx] for s in self.given),
            self.signed,
        )

    def members(self, idx) -> list[np.ndarray]:
        """Per-block stacks of the members idx (an index sequence), in that order.
        A member -x_k is x_k negated, with the -0.0 this leaves on its imaginary
        diagonal cleared: the Hermitian part of -x_k, bit for bit."""
        if not self.signed:
            return [s[idx] for s in self.stacks]
        idx = np.asarray(idx)
        out = [s[idx // 2] for s in self.stacks]
        for g in out:
            np.negative(g, out=g, where=(idx % 2 == 1)[:, None, None])
            diag = np.arange(g.shape[-1])
            g.imag[:, diag, diag] = 0.0
        return out


def prepare_family(family: Sequence[np.ndarray], *, algebra: Algebra) -> PreparedFamily:
    """Validate per-block stacks (n, d_b, d_b) of Hermitian members once.

    Raises as dominant_element does on malformed, non-finite or
    non-Hermitian input; the result can be passed to dominant_element in
    place of the stacks, whole or through take().
    """
    raw = _family_stacks(algebra, family)
    dev, mag = stack_hermitian_deviation(raw)
    if np.any(dev > 1e-8 * (1.0 + mag)):
        raise StructuralError(
            "family members must be Hermitian; split complex elements first"
        )
    stacks = [stack_hermitian_part(s) for s in raw]
    return PreparedFamily(tuple(stacks), _gershgorin(stacks), stack_abs_max(stacks),
                          tuple(raw))


def prepare_signed(family: Sequence[np.ndarray], *, algebra: Algebra) -> PreparedFamily:
    """Prepare the signed family x_1, -x_1, x_2, ... of per-block stacks
    (m, d_b, d_b) of Hermitian x_k, holding each x_k once. Raises as
    prepare_family does, but does not check Hermiticity: the Hermitian parts
    stand for the x_k, so callers gate their input or build it exactly so."""
    stacks = [stack_hermitian_part(s) for s in _family_stacks(algebra, family)]
    return PreparedFamily(tuple(stacks), _gershgorin(stacks, True), stack_abs_max(stacks),
                          signed=True)


def _offdiag_max(s: np.ndarray) -> float:
    """Largest off-diagonal modulus over a (n, d, d) stack."""
    mag = np.abs(s)
    diag = np.arange(s.shape[-1])
    mag[:, diag, diag] = 0.0
    return float(mag.max())


def _margins_full(a_blocks: list[np.ndarray], stacks: list[np.ndarray]) -> np.ndarray:
    """Per-family-member min eigenvalue of a - x_k, across all blocks."""
    return np.minimum.reduce([np.linalg.eigvalsh(stack_hermitian_part(a_b[None] - x_b))[:, 0]
                              for a_b, x_b in zip(a_blocks, stacks)])


def _row_radii(x_b: np.ndarray, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off), each (d, members): the real diagonals of the members of
    an (m, d, d) stack and their Gershgorin radii sum_{j != i} |x_kij|, by
    column passes; -x_k of a signed family has x_k's radii, computed once."""
    mag = stack_abs(x_b)
    off = stack_sum(mag, axis=1)
    off -= np.diagonal(mag).T
    diag = np.diagonal(x_b, axis1=1, axis2=2).real.T
    if signed:
        diag = np.stack((diag, -diag), axis=-1).reshape(len(diag), -1)
        off = np.repeat(off, 2, axis=1)
    return diag, off


def _gershgorin(stacks: list[np.ndarray], signed: bool = False) -> np.ndarray:
    """(members, blocks) Gershgorin row bounds g_jb >= lambda_max(x_jb), no LAPACK.

    The radii are column-pass sums, so g is exact up to the rounding every
    caller pads for.
    """
    cols = []
    for x_b in stacks:
        diag, off = _row_radii(x_b, signed)
        off += diag
        cols.append(stack_max(off))
    return np.stack(cols, axis=1)


def _top_member(members, bound: np.ndarray, scale: float) -> tuple[int, float]:
    """First member with the largest top eigenvalue, and that eigenvalue.

    members(idx) gathers the stacks of the members idx; bound holds Gershgorin
    bounds g_kb >= lambda_max(x_kb). The member with the largest bound is
    measured first; only members whose bound reaches its value (less 1e-12 *
    scale for rounding) can hold or tie the maximum, so only they are measured
    after it.
    """
    def top(idx) -> np.ndarray:
        return np.maximum.reduce([np.linalg.eigvalsh(x_b)[:, -1] for x_b in members(idx)])

    bound = bound.max(axis=1)
    first = top([int(np.argmax(bound))])[0]
    cand = np.flatnonzero(bound >= first - 1e-12 * scale)
    vals = top(cand)
    j = int(np.argmax(vals))
    return int(cand[j]), float(vals[j])


def _weyl_floor(a_blocks: list[np.ndarray], bound: np.ndarray, scale: float):
    """(floor, pad): floor[k] <= min_b lambda_min(a_b - x_kb), less pad.

    Weyl: lambda_min(a_b - x_kb) >= lambda_min(a_b) - g_kb. pad allows for
    the rounding of g, of the eigenvalues of a and of a measured margin.
    """
    lam = [np.linalg.eigvalsh(a_b) for a_b in a_blocks]
    pad = _round_pad(a_blocks, scale, max(float(np.abs(v).max()) for v in lam))
    floor = fold(np.minimum, (v[0] - g for v, g in zip(lam, bound.T))) - pad
    return floor, pad


def _round_pad(a_blocks: list[np.ndarray], scale: float, a_norm: float) -> float:
    """ROUND_PAD d^2 eps (scale + ||a||), d the largest block size."""
    d = max(a_b.shape[-1] for a_b in a_blocks)
    return ROUND_PAD * d * d * np.finfo(float).eps * (scale + a_norm)


def _diagonal_floor(m_blocks: list[np.ndarray], stacks: list[np.ndarray], scale: float,
                    signed: bool):
    """(floor, a, pad) for _margin_bounds' last, a = diag(m_b) per block.

    Gershgorin:
    lambda_min(a_b - x_kb) >= min_i (m_bi - x_kbii - sum_{j != i} |x_kbij|);
    floor[k] is the least over blocks, less the Weyl floor's pad.
    """
    cols = []  # one (members,) column per block row i
    for m, x_b in zip(m_blocks, stacks):
        diag, off = _row_radii(x_b, signed)
        low = np.subtract(m[:, None], diag, out=np.empty_like(off))
        low -= off
        cols.extend(low)
    a_blocks = [np.diag(m) for m in m_blocks]
    pad = _round_pad(a_blocks, scale, max(float(m.max()) for m in m_blocks))
    return fold(np.minimum, cols) - pad, a_blocks, pad


def _margin_bounds(a_blocks: list[np.ndarray], members, bound: np.ndarray,
                   scale: float, last=None, work=(), cap: float = 0.0):
    """(low, near, pad): low[k] <= lambda_min(a - x_k), exact on near;
    members(idx) gathers the members idx, as in _top_member.

    low is the larger of the Weyl floor and, when last = (low, a, pad) of an
    earlier call, that bound less ||a - a_last|| (Weyl again), both padded
    for rounding. Members are then measured in chunks of MARGIN_CHUNK,
    MARGIN_CHUNK^2, ... members, each the lowest bounds that do not clear
    min(m, cap), m the smallest measured margin of a member outside work,
    until every bound left clears it; near holds the measured members by
    index, and their margins become their bounds. A member left unmeasured
    has a margin above min(m, cap), so every margin below it is exact. With
    cap = 0 (a check) that fixes the lift max(0, -min_k margin) and the most
    violated member outside work; with cap = inf and work empty (the
    finish), the smallest margin.
    """
    low, pad = _weyl_floor(a_blocks, bound, scale)
    if last is not None:
        low_last, a_last, pad_last = last
        drift = max(float(np.abs(np.linalg.eigvalsh(a_b - r_b)).max())
                    for a_b, r_b in zip(a_blocks, a_last))
        low = np.maximum(low, low_last - (drift + pad + pad_last))
    outside = np.ones(low.size, dtype=bool)
    outside[np.asarray(work, dtype=int)] = False
    measured = np.zeros(low.size, dtype=bool)
    top, chunk = cap, MARGIN_CHUNK
    while True:
        idx = np.flatnonzero((low <= top) & ~measured)
        if not idx.size:
            break
        if idx.size > chunk:
            idx = idx[np.argpartition(low[idx], chunk)[:chunk]]
        low[idx] = _margins_full(a_blocks, members(idx))
        measured[idx] = True
        top = min(top, float(low[idx[outside[idx]]].min(initial=np.inf)))
        chunk *= MARGIN_CHUNK
    return low, np.flatnonzero(measured), pad


def _tau_pair(u: list[np.ndarray], v: list[np.ndarray], wts) -> float:
    """sum_b w_b Re tr(u_b v_b^*) over matching stacks: tau(u v) for Hermitian v."""
    return float(sum(w * np.vdot(vb, ub).real for w, ub, vb in zip(wts, u, v)))


def _solve_dual(prep: PreparedFamily, alg: Algebra, p: float, tol: float, max_iter: int):
    """Accelerated projected ascent on the smooth dual, over a working set W.

    For p > 1 the dual is g(rho) = sum_k tau(rho_k x_k) - (1/q) tau(S^q),
    S = sum_k rho_k, rho_k >= 0; its gradient in rho_k is x_k - a(S) with
    a(S) = (S_+)^(q-1) the primal point S pairs with. For p = 1 the dual
    constraint S <= 1 is smoothed by a proximal term: a(S) = (c + (S - 1)/mu)_+
    minimises tau((1 - S) a) + (mu/2) tau((a - c)^2) over a >= 0, and the
    centre c (first 0) moves to a at every check, so mu stays fixed and the
    smoothing leaves no bias at the fixed point (proximal point method).

    FISTA (Beck & Teboulle, 2009) with backtracking on the local curvature
    tau(dS da) / ||d rho||^2, as in TFOCS, and gradient restart (O'Donoghue &
    Candes, 2015); each step clamps the (|W|, d_b, d_b) stacks to PSD with one
    batched eigh per block. Every CHECK_EVERY steps a(S) meets the whole
    family: the most violated member joins W, a + max(0, -min margin) * 1 is
    a verified dominant (upper bound) and rho / ||S||_q a verified dual
    certificate (lower bound). Stops at a best verified relative gap <= tol.

    A check keeps a running lower bound on every margin (_margin_bounds):
    the larger of the Weyl floor lambda_min(a) - g_k (bound holds
    g_k >= lambda_max(x_k)) and the last check's bound less ||a - a_last||.
    Members are measured, lowest bounds first, until every bound left
    clears min(0, smallest measured margin outside W), and measured margins
    become their bounds. The lift and the member that joins W depend only
    on margins below 0 and below -FEAS_TOL * scale, which are always
    measured, so the check returns what an exhaustive sweep would. The
    drift term clears near-duplicate members, whose Weyl floor is loose.
    Also returned: the bounds of the check that gave the best dominant, for
    the finish's own margin query, and the number of margins measured.
    """
    wts = alg.trace_weights
    members, bound, size = prep.members, prep.bound, float(prep.size.max())
    scale = 1.0 + size
    q = np.inf if p == 1.0 else p / (p - 1.0)
    mu = PROX_WEIGHT / max(size, 1e-300)  # so that a(S) is in the units of x
    center = [np.zeros_like(x_b[0]) for x_b in prep.stacks]  # p = 1 only

    def a_of(rho: list[np.ndarray]) -> list[np.ndarray]:
        if p == 1.0:
            return [stack_positive_part(c + (r.sum(axis=0) - np.eye(c.shape[-1])) / mu)
                    for c, r in zip(center, rho)]
        return [stack_eig_map(r.sum(axis=0), lambda lam: np.maximum(lam, 0.0) ** (q - 1.0))
                for r in rho]

    def norm_q(rho: list[np.ndarray]) -> float:  # ||S||_q
        lams = [np.abs(np.linalg.eigvalsh(r.sum(axis=0))) for r in rho]
        if p == 1.0:
            return max(float(lam.max()) for lam in lams)
        return sum(w * float(np.sum(lam**q)) for w, lam in zip(wts, lams)) ** (1.0 / q)

    # start from the positive part of the member with the largest top
    # eigenvalue, scaled to the best multiple (p > 1) or to ||S||_inf = 1
    work = [_top_member(members, bound, scale)[0]]
    x_w = members(work)
    rho = [stack_positive_part(x) for x in x_w]
    s_norm = norm_q(rho)
    if s_norm > 0.0:
        c = 1.0 / s_norm if p == 1.0 else (_tau_pair(x_w, rho, wts) / s_norm**q) ** (p - 1.0)
        rho = [c * r for r in rho]

    best_up = (np.inf, [], None)  # (norm, a, margin bounds at its check)
    best_low = (0.0, (), [r[:0] for r in rho])  # (bound, members, rho / ||S||_q)
    last = None  # (margin bounds, a, pad) at the last check
    measured = 0
    y = rho
    a_y = a_rho = a_of(rho)
    t_mom, step, it, converged = 1.0, 1.0, 0, False
    while True:
        if it % CHECK_EVERY == 0:
            low, near, pad = _margin_bounds(a_rho, members, bound, scale, last, work)
            last, margins = (low, a_rho, pad), low[near]
            measured += near.size
            lift = max(0.0, -float(margins.min(initial=0.0)))
            a_up = [a_b + lift * np.eye(a_b.shape[-1]) for a_b in a_rho]
            up = float(stack_lp_norm(alg, [b[None] for b in a_up], p)[0])
            if up < best_up[0]:
                best_up = (up, a_up, last)
            pair, s_norm = _tau_pair(x_w, rho, wts), norm_q(rho)
            if pair > best_low[0] * s_norm:
                best_low = (pair / s_norm, tuple(work), [r / s_norm for r in rho])
            gap = best_up[0] - best_low[0]
            if gap <= tol * best_low[0]:
                converged = True
                break
            if it >= max_iter:
                break
            if p == 1.0:  # proximal point: re-centre the smoothing at a
                center = a_rho
                a_rho = a_of(rho)
                y, a_y, t_mom = rho, a_rho, 1.0
            # the most violated member outside W; the first on ties
            viol = np.flatnonzero((margins < -FEAS_TOL * scale) & ~np.isin(near, work))
            if viol.size:
                work.append(int(near[viol[np.argmin(margins[viol])]]))
                x_w = members(work)
                rho = [np.concatenate([r, np.zeros_like(r[:1])]) for r in rho]
                y, a_y, t_mom = rho, a_rho, 1.0
        it += 1
        grad = [x - a_b[None] for x, a_b in zip(x_w, a_y)]
        while True:
            cand = [stack_positive_part(yb + step * gb) for yb, gb in zip(y, grad)]
            a_c = a_of(cand)
            d_rho = [c - yb for c, yb in zip(cand, y)]
            moved = _tau_pair(d_rho, d_rho, wts)
            curv = _tau_pair([d.sum(axis=0) for d in d_rho],
                             [ac - ay for ac, ay in zip(a_c, a_y)], wts)
            if curv * step <= moved:
                break
            step *= 0.5
        if _tau_pair(d_rho, [c - r for c, r in zip(cand, rho)], wts) < 0.0:
            y, a_y, t_mom = cand, a_c, 1.0
        else:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom)) / 2.0
            beta = (t_mom - 1.0) / t_next
            y = [c + beta * (c - r) for c, r in zip(cand, rho)]
            a_y, t_mom = a_of(y), t_next
        rho, a_rho = cand, a_c
        step *= STEP_GROW
    return best_up[1], best_low, it, converged, best_up[2], measured


def _joint_eigenbasis(stacks: list[np.ndarray], tol: float = 1e-10):
    """Common unitary diagonalizing every matrix of the Hermitian stacks, or None.

    A basis passes when it brings every matrix within eps = tol * scale of
    diagonal (largest off-diagonal modulus), and then their negatives too,
    so a signed family is tested on its x_k alone. That needs them to
    nearly commute: with x = V(D_x + E_x)V*, ||E_x||_F <= d eps and
    [D_x, D_y] = 0, ||[x, y]||_F <= 2 d eps (||x||_F + ||y||_F) + 6 d^2 eps^2.
    So before the seeded passes, each reducing the whole family, the first
    member of each block is tested against the first JOINT_CHUNK members,
    with that bound doubled plus 1e-12 * scale^2 for rounding; a failure
    returns None, as both passes would.
    """
    scale = 1.0 + max(float(np.abs(s).max()) for s in stacks)
    if all(_offdiag_max(s) <= 1e-13 * scale for s in stacks):
        return [np.eye(s.shape[-1], dtype=np.complex128) for s in stacks]
    eps = tol * scale
    for x_b in stacks:
        head, d = x_b[:JOINT_CHUNK], x_b.shape[-1]
        comm = head[0] @ head - head @ head[0]
        fro = np.sqrt(np.sum(np.abs(head) ** 2, axis=(1, 2)))
        allow = 2.0 * (2.0 * d * eps * (fro[0] + fro) + 6.0 * d * d * eps * eps)
        if np.any(np.sqrt(np.sum(np.abs(comm) ** 2, axis=(1, 2)))
                  > allow + 1e-12 * scale * scale):
            return None
    n = stacks[0].shape[0]
    steps = np.arange(1, n + 1)
    for seed_coef in (1.2345678901, 2.7182818284):
        coef = np.cos(seed_coef * steps)[:, None, None]
        # sequential over members from 0, like sum() over a list
        basis = [
            np.linalg.eigh(stack_hermitian_part(np.add.reduce(coef * s, axis=0, initial=0)))[1]
            for s in stacks
        ]
        # the residual test stops at the first chunk of members that fails
        if all(_offdiag_max(v.conj().T @ x_b[lo:lo + JOINT_CHUNK] @ v) <= tol * scale
               for lo in range(0, n, JOINT_CHUNK)
               for v, x_b in zip(basis, stacks)):
            return basis
    return None


def _basis_diagonals(basis: list[np.ndarray], stacks: list[np.ndarray]):
    """(diags, identity): diags[b][k] the real diagonal of v_b* x_kb v_b;
    identity when every v_b is the identity matrix.

    In the identity basis the diagonals are read, not transformed; + 0.0
    turns -0.0 into 0.0, as the transform does, so both give the same bits.
    """
    if all(np.array_equal(v, np.eye(v.shape[0])) for v in basis):
        return [x_b.diagonal(axis1=1, axis2=2).real + 0.0 for x_b in stacks], True
    return [np.real(np.einsum("ia,kij,ja->ka", np.conj(v), x_b, v))
            for v, x_b in zip(basis, stacks)], False


# ---------------------------------------------------------------------------
# dominant element

def dominant_element(
    family: Sequence[np.ndarray] | PreparedFamily,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
    *,
    algebra: Algebra,
) -> DominantReport:
    """Smallest-norm positive element dominating every family member.

    family holds the per-block stacks (n, d_b, d_b) of n Hermitian members
    of algebra, as AverageFamily.block_stacks() returns them, or the
    PreparedFamily prepare_family or prepare_signed makes of them; strided
    views, contiguous copies and prepared families give the same report.
    Exact for p = inf, single elements, and families with a joint
    eigenbasis; otherwise the dual solver (see _solve_dual) runs until the
    verified relative gap is at most tol or max_iter steps are spent. The
    reported norm belongs to a verified feasible dominant, the lower bound
    to the dual certificate the report carries.
    """
    alg = algebra
    if isinstance(family, PreparedFamily):
        prep = family
        _check_blocks(alg, prep.stacks)
        if not np.all(np.isfinite(prep.size)):
            raise NumericError("non-finite entries in a block stack")
    else:
        prep = prepare_family(family, algebra=alg)
    wts = alg.trace_weights
    stacks = list(prep.stacks)
    scale = 1.0 + float(prep.size.max())

    def finish(a_el: Element, norm, lower, iters, converged, method,
               members=(), rho=(), measured=0, last=None):
        low, near, pad = _margin_bounds(list(a_el.blocks), prep.members, prep.bound,
                                        scale, last, cap=np.inf)
        norm, lower = float(norm), float(lower)
        if lower > norm:
            # the dual bound can pass the primal norm only by rounding
            if lower - norm > BRACKET_RTOL * norm:
                raise NumericError(
                    f"{method}: dual lower bound {lower!r} exceeds the verified "
                    f"norm {norm!r} by more than rounding"
                )
            lower = norm
        return DominantReport(
            a_el, p, norm, lower, int(iters), float(low[near].min()), bool(converged),
            method, tuple(int(k) for k in members), tuple(rho), float(pad),
            measured + near.size,
        )

    if p == np.inf:
        t = max(_top_member(prep.members, prep.bound, scale)[1], 0.0)
        a = alg.scalar(t)
        return finish(a, t, t, 0, True, "infinity_exact")

    p = float(p)
    if p < 1.0 or not np.isfinite(p):
        raise ValueError(f"norm order must satisfy p >= 1 or p = inf, got {p}")

    if len(prep.bound) == 1:
        raw = stacks if prep.given is None else list(prep.given)
        if stack_is_positive(raw, 1e-10)[0]:
            a = alg.element([s[0] for s in raw])
        else:
            a = alg.element([stack_positive_part(s[0]) for s in stacks], True)
        norm = lp_norm(a, p)
        return finish(a, norm, norm, 0, True, "single_exact")

    basis = _joint_eigenbasis(stacks)
    if basis is not None:
        diags, identity = _basis_diagonals(basis, stacks)
        if prep.signed:  # and those of the -x_k, -0.0 turned into 0.0 again
            diags = [np.concatenate((d, -d + 0.0)) for d in diags]
        m_blocks = [np.maximum(member_max(diag), 0.0) for diag in diags]
        a_blocks = [(v * m) @ v.conj().T for v, m in zip(basis, m_blocks)]
        norm = sum(w * float(np.sum(m**p)) for w, m in zip(wts, m_blocks)) ** (1.0 / p)
        a = alg.element(a_blocks, True)
        last = _diagonal_floor(m_blocks, stacks, scale, prep.signed) if identity else None
        return finish(a, norm, norm, 0, True, "commuting_exact", last=last)

    a_blocks, (lower, members, rho), iters, converged, last, measured = _solve_dual(
        prep, alg, p, tol, max_iter
    )
    a = alg.element(a_blocks, True)
    return finish(a, lp_norm(a, p), lower, iters, converged, "dual_fista",
                  members, rho, measured, last)


# ---------------------------------------------------------------------------
# maximal-average ladder

@dataclass(frozen=True)
class LadderRow:
    cutoff: int
    family_size: int
    norm: float
    lower_bound: float
    ratio: float
    iterations: int
    converged: bool
    method: str


@dataclass(frozen=True)
class MaximalLadderReport:
    p: float
    rows: tuple[LadderRow, ...]
    nondecreasing: bool
    cauchy_gap: float | None
    cauchy_ok: bool
    truncated: bool
    applications: int  # map applications of the ladder's family grids

    def decrease_notes(self) -> tuple[str, ...]:
        """One note per pair of consecutive rungs whose ratio decreased.

        The later family contains the earlier one, so its true dominant norm
        is at least the earlier one's. If the later verified norm still
        reaches the earlier lower bound, the brackets agree and the earlier
        upper bound is loose; otherwise the brackets contradict each other.
        """
        notes = []
        for a, b in zip(self.rows, self.rows[1:]):
            if not _ratio_decreased(a, b):
                continue
            gap = (a.norm - a.lower_bound) / max(a.lower_bound, 1e-30)
            verdict = (
                f"inside, so its upper bound is loose (gap {gap:.2%})"
                if b.norm >= a.lower_bound else
                "below it, so the brackets contradict each other"
            )
            notes.append(
                f"cutoff {a.cutoff} -> {b.cutoff}: ratio {a.ratio:.10g} -> "
                f"{b.ratio:.10g}; the norm {b.norm:.10g} at cutoff {b.cutoff} "
                f"against cutoff {a.cutoff}'s bracket "
                f"[{a.lower_bound:.10g}, {a.norm:.10g}] is {verdict}"
            )
        return tuple(notes)


def _ratio_decreased(a: LadderRow, b: LadderRow) -> bool:
    return not b.ratio >= a.ratio - 1e-10


def maximal_inequality_report(
    maps: Sequence[LinearOperator],
    x: Element,
    p: float,
    cutoffs: Sequence[int],
    tol: float = 1e-8,
    max_iter: int = 10000,
    budget: int = DEFAULT_BUDGET,
    cauchy_rtol: float = 0.05,
) -> MaximalLadderReport:
    """Dominant norms of {M_N(T) x : max(N) <= cutoff} along a cutoff ladder.

    Ratios are against ||x||_p. The rungs are nested boxes [1, c]^d, so the
    largest rung within the budget is walked once and every rung is its
    restriction. Each rung is a cold solve to a verified relative gap of at
    most min(tol, 1e-11); the report flags whether the ratio ladder is
    nondecreasing and whether the last two rungs agree within cauchy_rtol.
    """
    if p == np.inf or float(p) <= 1.0:
        raise ValueError("ladder requires 1 < p < inf")
    if not is_positive(x, 1e-8):
        raise StructuralError("ladder requires a positive element")
    cuts = sorted(int(c) for c in cutoffs)
    if not cuts or cuts[0] < 1:
        raise ValueError("cutoffs must be positive integers")
    d = len(maps)
    base_norm = lp_norm(x, float(p))
    rows: list[LadderRow] = []
    fits = [c for c in cuts if volume((c,) * d) <= budget]
    truncated = len(fits) < len(cuts)
    full = (ergodic_average_family(maps, x, Box.full((fits[-1],) * d), budget)
            if fits else None)
    for c in fits:
        fam = full.restrict(Box.full((c,) * d))
        # _ratio_decreased forgives 1e-10 in the ratio, so a rung whose norm
        # may sit tol above the truth could fake a decrease on a plateau:
        # solve each rung to a tenth of that slack (ratios up to 10)
        rep = dominant_element(
            fam.block_stacks(), float(p), min(tol, 1e-11), max_iter,
            algebra=fam.algebra,
        )
        rows.append(
            LadderRow(
                c,
                fam.box.size,
                rep.norm,
                rep.lower_bound,
                rep.norm / base_norm,
                rep.iterations,
                rep.converged,
                rep.method,
            )
        )
    ratios = [r.ratio for r in rows]
    nondecr = not any(_ratio_decreased(a, b) for a, b in zip(rows, rows[1:]))
    if len(ratios) >= 2 and ratios[-2] > 0:
        cauchy_gap = abs(ratios[-1] - ratios[-2]) / ratios[-2]
        cauchy_ok = cauchy_gap < cauchy_rtol
    else:
        cauchy_gap, cauchy_ok = None, False
    return MaximalLadderReport(
        float(p), tuple(rows), nondecr, cauchy_gap, cauchy_ok, truncated,
        full.applications if full is not None else 0,
    )


# ---------------------------------------------------------------------------
# interpolation

@dataclass(frozen=True)
class InterpolationReport:
    p: float
    q: float
    lhs: float
    rhs: float
    sup_op_norm: float
    dominant_q: float
    slack: float
    passed: bool
    iterations: int  # of both dominant solves


def interpolation_check(
    family: Sequence[np.ndarray],
    p: float,
    q: float,
    slack: float = 1e-6,
    tol: float = 1e-8,
    max_iter: int = 10000,
    *,
    algebra: Algebra,
) -> InterpolationReport:
    """Check the dominant-norm interpolation bound between levels q < p.

    family holds per-block stacks (n, d_b, d_b) of positive members; any
    other family raises StructuralError. Verifies
    sup-norm_p <= (sup_k ||x_k||_inf)^(1-q/p) * (sup-norm_q)^(q/p)
    up to relative slack covering optimization tolerance.
    """
    p, q = float(p), float(q)
    if not (1.0 <= q < p) or not np.isfinite(p):
        raise ValueError(f"interpolation needs 1 <= q < p < inf, got q={q}, p={p}")
    raw = _family_stacks(algebra, family)
    if not np.all(stack_is_positive(raw, 1e-8)):
        raise StructuralError("interpolation requires a family of positive elements")
    prep = prepare_family(raw, algebra=algebra)  # one preparation for both solves
    rep_p = dominant_element(prep, p, tol, max_iter, algebra=algebra)
    ess = float(stack_lp_norm(algebra, raw, np.inf).max())
    rep_q = dominant_element(prep, q, tol, max_iter, algebra=algebra)
    theta = q / p
    rhs = ess ** (1.0 - theta) * rep_q.norm**theta
    passed = rep_p.norm <= rhs * (1.0 + slack) + 1e-15
    return InterpolationReport(
        p, q, rep_p.norm, rhs, ess, rep_q.norm, slack, passed,
        rep_p.iterations + rep_q.iterations,
    )
