"""Dominant elements, maximal-average ladders, and interpolation checks.

The central quantity is the order-theoretic analogue of a supremum norm for
a finite family of Hermitian elements:

    inf { ||a||_p : a >= 0 and a >= x_k for every k }.

Exact routes exist for p = inf (a multiple of the identity), single
elements, and families sharing an eigenbasis (entrywise maxima there). The
general route is projected descent on the convex objective tau((a_+)^p)
over the feasible cone, with feasibility enforced by Dykstra-corrected
cyclic projections onto the sets {a : a >= x_k} (eigendecompose a - x_k,
clamp negative eigenvalues, add x_k back). Reported norms always belong to
verified feasible points, so they upper bound the true infimum; the
reported lower bound comes from a dual certificate sum_k tau(rho_k x_k)
with rho_k >= 0 and ||sum_k rho_k||_q <= 1, so the truth is bracketed.
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
    decompose_four_positives,
    is_positive,
    lp_norm,
    stack_hermitian_deviation,
    volume,
)
from .averages import ergodic_average_family
from .contraction import LinearOperator
from .errors import BudgetError, NumericError, StructuralError

FEAS_TOL = 1e-12
BRACKET_RTOL = 1e-12  # relative excess of the dual bound taken as rounding
ACTIVE_SET_THRESHOLD = 48


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

    @property
    def gap(self) -> float:
        return (self.norm - self.lower_bound) / max(self.lower_bound, 1e-30)


# ---------------------------------------------------------------------------
# block-stack helpers (Hermitian work arrays, one stack per block)

def _herm(b: np.ndarray) -> np.ndarray:
    return (b + np.conj(np.swapaxes(b, -1, -2))) / 2


def _stack_elements(family: Sequence[Element]) -> tuple[Algebra, list[np.ndarray]]:
    fam = list(family)
    if not fam:
        raise StructuralError("dominant element needs a nonempty family")
    alg = fam[0].algebra
    for x in fam:
        if x.algebra != alg:
            raise StructuralError("family members live in different algebras")
    return alg, [
        np.stack([x.blocks[b] for x in fam]) for b in range(alg.num_blocks)
    ]


def _check_stacks(alg: Algebra, raw: list[np.ndarray]) -> None:
    """Shapes (n, d_b, d_b) with a common n >= 1, finite, Hermitian per member."""
    if len(raw) != alg.num_blocks:
        raise StructuralError(
            f"expected {alg.num_blocks} block stacks, got {len(raw)}"
        )
    n = raw[0].shape[0] if raw[0].ndim == 3 else -1
    for s, d in zip(raw, alg.block_dims):
        if s.shape != (n, d, d):
            raise StructuralError(
                f"block stack shape {s.shape} does not match ({n}, {d}, {d})"
            )
        if not np.all(np.isfinite(s)):
            raise NumericError("non-finite entries in a block stack")
    if n == 0:
        raise StructuralError("dominant element needs a nonempty family")
    dev, mag = stack_hermitian_deviation(raw)
    if np.any(dev > 1e-8 * (1.0 + mag)):
        raise StructuralError(
            "family members must be Hermitian; split complex elements first"
        )


def _offdiag_max(s: np.ndarray) -> float:
    """Largest off-diagonal modulus over a (n, d, d) stack."""
    return float(np.where(np.eye(s.shape[-1], dtype=bool), 0.0, np.abs(s)).max())


def _pos_clamp(b: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(b)
    lam = np.maximum(lam, 0.0)
    return (v * lam) @ v.conj().T


def _project_above(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Frobenius projection of y onto {a : a >= x}."""
    return x + _pos_clamp(y - x)


def _inner(ya: list[np.ndarray], yb: list[np.ndarray], wts) -> float:
    return float(
        sum(w * np.real(np.trace(a @ b)) for w, a, b in zip(wts, ya, yb))
    )


def _objective(blocks: list[np.ndarray], wts, p: float) -> float:
    total = 0.0
    for w, b in zip(wts, blocks):
        lam = np.maximum(np.linalg.eigvalsh(b), 0.0)
        total += w * float(np.sum(lam**p))
    return total


def _gradient(blocks: list[np.ndarray], wts, p: float) -> list[np.ndarray]:
    out = []
    for b in blocks:
        lam, v = np.linalg.eigh(b)
        pos = np.maximum(lam, 0.0)
        if p == 1.0:
            f = (lam > 0).astype(np.float64)
        else:
            f = p * pos ** (p - 1.0)
        out.append((v * f) @ v.conj().T)
    return out


def _margins_full(a_blocks: list[np.ndarray], stacks: list[np.ndarray]) -> np.ndarray:
    """Per-family-member min eigenvalue of a - x_k, across all blocks."""
    margins = None
    for a_b, x_b in zip(a_blocks, stacks):
        eig = np.linalg.eigvalsh(_herm(a_b[None] - x_b))
        m = eig[:, 0]
        margins = m if margins is None else np.minimum(margins, m)
    return margins


def _min_eig(blocks: list[np.ndarray]) -> float:
    return min(float(np.linalg.eigvalsh(_herm(b))[0]) for b in blocks)


def _dykstra(
    start: list[np.ndarray],
    stacks: list[np.ndarray],
    scale: float,
    max_sweeps: int = 200,
) -> list[np.ndarray]:
    """Dykstra projection of start onto {a >= x_k for all k} n {a >= 0}.

    Cyclic eigenvalue-clamp projections with persistent corrections; sweeps
    stop once every margin clears -FEAS_TOL * scale.
    """
    n_sets = stacks[0].shape[0] + 1  # family constraints plus the positive cone
    a = [b.copy() for b in start]
    corr = [[np.zeros_like(b) for b in a] for _ in range(n_sets)]
    tol = FEAS_TOL * scale
    for _ in range(max_sweeps):
        for i in range(n_sets):
            for bi in range(len(a)):
                w = a[bi] + corr[i][bi]
                if i < n_sets - 1:
                    proj = _project_above(w, stacks[bi][i])
                else:
                    proj = _pos_clamp(_herm(w))
                corr[i][bi] = w - proj
                a[bi] = proj
        worst = float(np.min(_margins_full(a, stacks)))
        if worst >= -tol and _min_eig(a) >= -tol:
            break
    return a


def _solve_descent(
    stacks: list[np.ndarray],
    wts,
    p: float,
    tol: float,
    iter_cap: int,
    initial: list[np.ndarray] | None,
) -> tuple[list[np.ndarray], int, bool]:
    scale = 1.0 + max(float(np.abs(s).max()) for s in stacks)
    if initial is None:
        a = [
            sum(_pos_clamp(x_b[k]) for k in range(x_b.shape[0]))
            for x_b in stacks
        ]
    else:
        a = [b.copy() for b in initial]
    a = _dykstra(a, stacks, scale)
    f = _objective(a, wts, p)
    eta = None
    consecutive_small = 0
    it = 0
    converged = False
    while it < iter_cap:
        it += 1
        g = _gradient(a, wts, p)
        g2 = _inner(g, g, wts)
        if g2 <= 0.0 or f <= 0.0:
            converged = True
            break
        if eta is None:
            a2 = _inner(a, a, wts)
            eta = 0.5 * np.sqrt(max(a2, 1e-30) / g2)
        accepted = False
        cand, fc = a, f
        for _ in range(40):
            stepped = [ab - eta * gb for ab, gb in zip(a, g)]
            cand = _dykstra(stepped, stacks, scale)
            fc = _objective(cand, wts, p)
            moved = _inner(
                [ab - cb for ab, cb in zip(a, cand)],
                [ab - cb for ab, cb in zip(a, cand)],
                wts,
            )
            if fc <= f - 0.1 * moved / eta:
                accepted = True
                break
            if moved <= 1e-28 * (1.0 + _inner(a, a, wts)):
                break
            eta *= 0.5
        if accepted:
            rel = (f - fc) / max(abs(f), 1e-30)
            a, f = cand, fc
            eta *= 1.4
            consecutive_small = consecutive_small + 1 if rel < tol else 0
        else:
            consecutive_small += 1
        if consecutive_small >= 10:
            converged = True
            break
    return a, it, converged


def _norming_functional(a_blocks: list[np.ndarray], wts, p: float):
    """(norm, rho) with rho >= 0, ||rho||_q = 1, and tau(rho a) = ||a_+||_p."""
    eigs = [np.linalg.eigh(b) for b in a_blocks]
    norm_p = sum(
        w * float(np.sum(np.maximum(lam, 0.0) ** p))
        for w, (lam, _) in zip(wts, eigs)
    )
    norm = norm_p ** (1.0 / p)
    rho = []
    for lam, v in eigs:
        pos = np.maximum(lam, 0.0)
        if norm <= 0.0:
            r = np.zeros_like(pos)
        elif p == 1.0:
            r = (pos > 1e-14 * (1.0 + pos.max())).astype(np.float64)
        else:
            r = pos ** (p - 1.0) / norm ** (p - 1.0)
        rho.append((v * r) @ v.conj().T)
    return norm, rho


def _assignment_bound(
    a_blocks: list[np.ndarray], stacks: list[np.ndarray], wts, p: float
) -> float:
    """Dual bound from splitting the norming functional along a's eigenbasis.

    Each eigencoordinate's mass goes to the member with the largest diagonal
    value there; every rho_k stays positive and sum_k rho_k has q-norm 1.
    Exact on commuting families, loose when contacts do not align with a.
    """
    norm, _ = _norming_functional(a_blocks, wts, p)
    if norm <= 0.0:
        return 0.0
    bound = 0.0
    for w, a_b, x_b in zip(wts, a_blocks, stacks):
        lam, v = np.linalg.eigh(a_b)
        pos = np.maximum(lam, 0.0)
        diag = np.real(np.einsum("ia,kij,ja->ka", np.conj(v), x_b, v))
        best = np.maximum(diag.max(axis=0), 0.0)
        if p == 1.0:
            r = (pos > 1e-14 * (1.0 + pos.max())).astype(np.float64)
        else:
            r = pos ** (p - 1.0) / norm ** (p - 1.0)
        bound += w * float(np.sum(r * best))
    return bound


def _contact_bound(
    a_blocks: list[np.ndarray], stacks: list[np.ndarray], wts, p: float
) -> float:
    """Dual bound from multipliers supported on the contact kernels.

    At the optimum the KKT conditions put the norming functional rho in the
    cone generated by positive operators living on ker(a - x_k); a few
    block-coordinate least-squares sweeps recover such a decomposition,
    which is then rescaled to q-norm 1. Valid for any feasible a.
    """
    norm, rho = _norming_functional(a_blocks, wts, p)
    if norm <= 0.0:
        return 0.0
    scale = 1.0 + max(float(np.abs(s).max()) for s in stacks)
    ctol = 1e-7 * scale
    eigs = [
        np.linalg.eigh(_herm(a_b[None] - x_b))
        for a_b, x_b in zip(a_blocks, stacks)
    ]
    hit = np.zeros(stacks[0].shape[0], dtype=bool)
    for lam, _ in eigs:
        hit |= lam[:, 0] <= ctol
    contacts: list[tuple[int, list[np.ndarray | None]]] = []
    for k in np.flatnonzero(hit)[:64]:
        bases: list[np.ndarray | None] = []
        for lam, v in eigs:
            keep = lam[k] <= ctol
            bases.append(v[k][:, keep] if np.any(keep) else None)
        contacts.append((int(k), bases))
    if not contacts:
        return 0.0

    parts = [
        [np.zeros_like(b) for b in a_blocks] for _ in contacts
    ]
    for _ in range(30):
        for idx, (_, bases) in enumerate(contacts):
            for bi, basis in enumerate(bases):
                if basis is None:
                    continue
                residual = rho[bi] - sum(
                    parts[j][bi] for j in range(len(contacts)) if j != idx
                )
                c = _pos_clamp(_herm(basis.conj().T @ residual @ basis))
                parts[idx][bi] = basis @ c @ basis.conj().T

    total = [sum(part[bi] for part in parts) for bi in range(len(a_blocks))]
    if p == 1.0:
        nq = max(
            float(np.linalg.eigvalsh(_herm(b)).max()) for b in total
        )
    else:
        q = p / (p - 1.0)
        nq = sum(
            w * float(np.sum(np.maximum(np.linalg.eigvalsh(_herm(b)), 0.0) ** q))
            for w, b in zip(wts, total)
        ) ** (1.0 / q)
    if nq <= 1e-300:
        return 0.0
    pairing = 0.0
    for j, (k, _) in enumerate(contacts):
        for bi, w in enumerate(wts):
            pairing += w * float(np.real(np.trace(parts[j][bi] @ stacks[bi][k])))
    return max(pairing / nq, 0.0)


def _dual_lower_bound(
    a_blocks: list[np.ndarray], stacks: list[np.ndarray], wts, p: float
) -> float:
    return max(
        _assignment_bound(a_blocks, stacks, wts, p),
        _contact_bound(a_blocks, stacks, wts, p),
    )


def _joint_eigenbasis(raw: list[np.ndarray], stacks: list[np.ndarray],
                      tol: float = 1e-10):
    """Common unitary diagonalizing every member, or None.

    raw holds the members as given, stacks their Hermitian parts.
    """
    scale = 1.0 + max(float(np.abs(s).max()) for s in raw)
    if all(_offdiag_max(s) <= 1e-13 * scale for s in raw):
        return [np.eye(s.shape[-1], dtype=np.complex128) for s in raw]
    steps = np.arange(1, raw[0].shape[0] + 1)
    for seed_coef in (1.2345678901, 2.7182818284):
        coef = np.cos(seed_coef * steps)[:, None, None]
        # sequential over members from 0, like sum() over a list
        basis = [
            np.linalg.eigh(_herm(np.add.reduce(coef * s, axis=0, initial=0)))[1]
            for s in raw
        ]
        resid = max(
            _offdiag_max(v.conj().T @ x_b @ v) for v, x_b in zip(basis, stacks)
        )
        if resid <= tol * scale:
            return basis
    return None


# ---------------------------------------------------------------------------
# dominant element

def dominant_element(
    family,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
    initial: Element | None = None,
    *,
    algebra: Algebra | None = None,
) -> DominantReport:
    """Smallest-norm positive element dominating every family member.

    family is a sequence of Elements or, when algebra is given, the per-block
    stacks (n, d_b, d_b) of n members (as AverageFamily.block_stacks()
    returns them); both inputs give the same report. Exact for p = inf,
    single elements, and families with a joint eigenbasis; otherwise
    projected descent (see module docstring). The reported norm belongs to a
    verified feasible dominant, the lower bound to a verified dual
    certificate.
    """
    if algebra is None:
        alg, raw = _stack_elements(family)
    else:
        alg, raw = algebra, [np.asarray(s, dtype=np.complex128) for s in family]
    _check_stacks(alg, raw)
    wts = alg.trace_weights
    stacks = [_herm(s) for s in raw]
    n_members = stacks[0].shape[0]

    def finish(a_el: Element, norm, lower, iters, converged, method):
        margin = float(np.min(_margins_full([b for b in a_el.blocks], stacks)))
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
            a_el, p, norm, lower, int(iters), margin, bool(converged), method,
        )

    if p == np.inf:
        top = max(float(np.linalg.eigvalsh(s)[:, -1].max()) for s in stacks)
        t = max(top, 0.0)
        a = alg.scalar(t)
        return finish(a, t, t, 0, True, "infinity_exact")

    p = float(p)
    if p < 1.0 or not np.isfinite(p):
        raise ValueError(f"norm order must satisfy p >= 1 or p = inf, got {p}")

    if n_members == 1:
        x = alg.element([s[0] for s in raw])
        if is_positive(x, 1e-10):
            a = x
        else:
            a = alg.element([_pos_clamp(s[0]) for s in stacks], True)
        norm = lp_norm(a, p)
        return finish(a, norm, norm, 0, True, "single_exact")

    basis = _joint_eigenbasis(raw, stacks)
    if basis is not None:
        a_blocks, norm_p = [], 0.0
        for w, v, x_b in zip(wts, basis, stacks):
            diag = np.real(np.einsum("ia,kij,ja->ka", np.conj(v), x_b, v))
            m = np.maximum(diag.max(axis=0), 0.0)
            a_blocks.append((v * m) @ v.conj().T)
            norm_p += w * float(np.sum(m**p))
        norm = norm_p ** (1.0 / p)
        a = alg.element(a_blocks, True)
        return finish(a, norm, norm, 0, True, "commuting_exact")

    # general route, with an active working set for large families
    if n_members <= ACTIVE_SET_THRESHOLD:
        init_blocks = (
            [_herm(b) for b in initial.blocks] if initial is not None else None
        )
        a_blocks, iters, converged = _solve_descent(
            stacks, wts, p, tol, max_iter, init_blocks
        )
    else:
        scores = None
        for x_b in stacks:
            top = np.linalg.eigvalsh(x_b)[:, -1]
            scores = top if scores is None else np.maximum(scores, top)
        working = list(np.argsort(-scores)[:16])
        a_blocks = (
            [_herm(b) for b in initial.blocks] if initial is not None else None
        )
        iters = 0
        converged = True
        budget_left = max_iter
        scale = 1.0 + max(float(np.abs(s).max()) for s in stacks)
        for _ in range(64):
            sub = [s[working] for s in stacks]
            a_blocks, used, conv = _solve_descent(
                sub, wts, p, tol, max(budget_left, 200), a_blocks
            )
            iters += used
            budget_left = max(max_iter - iters, 0)
            converged = conv
            margins = _margins_full(a_blocks, stacks)
            order = np.argsort(margins)
            new = [
                int(i) for i in order
                if margins[i] < -10 * FEAS_TOL * scale and int(i) not in working
            ][:8]
            if not new:
                break
            working.extend(new)
        worst = np.argsort(_margins_full(a_blocks, stacks))[:16]
        touchup = [s[worst] for s in stacks]
        a_blocks = _dykstra(a_blocks, touchup, scale)

    a_blocks = [_pos_clamp(_herm(b)) for b in a_blocks]
    a = alg.element(a_blocks, True)
    norm = lp_norm(a, p)
    lower = _dual_lower_bound(a_blocks, stacks, wts, p)
    return finish(a, norm, lower, iters, converged, "projected_descent")


def sup_plus_norm(
    family: Sequence[Element],
    p: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> float:
    """Dominant norm of the family.

    Positive families are passed through as-is. General families are split
    member-by-member into four positives and the dominant is taken over the
    combined positive family: an upper-bound convention, reported as such
    wherever this value surfaces.
    """
    return _sup_plus(family, p, tol, max_iter)[0]


def _sup_plus(
    family: Sequence[Element], p: float, tol: float, max_iter: int
) -> tuple[float, int]:
    """(sup_plus_norm, iterations of the dominant solve behind it)."""
    fam = list(family)
    if not fam:
        raise StructuralError("sup_plus_norm needs a nonempty family")
    if all(is_positive(x, 1e-8) for x in fam):
        rep = dominant_element(fam, p, tol, max_iter)
        return rep.norm, rep.iterations
    scale = max(x.max_abs() for x in fam)
    parts = []
    for x in fam:
        for part in decompose_four_positives(x):
            if part.max_abs() > 1e-14 * (1.0 + scale):
                parts.append(part)
    if not parts:
        return 0.0, 0
    rep = dominant_element(parts, p, tol, max_iter)
    return rep.norm, rep.iterations


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

    Ratios are against ||x||_p. Consecutive cutoffs reuse the previous
    dominant as a warm start; the report flags whether the ratio ladder is
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
    truncated = False
    applications = 0
    warm: Element | None = None
    for c in cuts:
        if volume((c,) * d) > budget:
            truncated = True
            break
        fam = ergodic_average_family(maps, x, Box.full((c,) * d), budget)
        applications += fam.applications
        rep = dominant_element(
            fam.block_stacks(), float(p), tol, max_iter, initial=warm,
            algebra=fam.algebra,
        )
        warm = rep.dominant
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
        applications,
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
    box: Box | None
    iterations: int  # of both dominant solves


def interpolation_check(
    family: Sequence[Element],
    p: float,
    q: float,
    box: Box | None = None,
    slack: float = 1e-6,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> InterpolationReport:
    """Check the dominant-norm interpolation bound between levels q < p.

    Verifies sup-norm_p <= (sup_k ||x_k||_inf)^(1-q/p) * (sup-norm_q)^(q/p)
    up to relative slack covering optimization tolerance. The box is carried
    as provenance of where the family was sampled.
    """
    p, q = float(p), float(q)
    if not (1.0 <= q < p) or not np.isfinite(p):
        raise ValueError(f"interpolation needs 1 <= q < p < inf, got q={q}, p={p}")
    fam = list(family)
    if not fam:
        raise StructuralError("interpolation check needs a nonempty family")
    lhs, iters_p = _sup_plus(fam, p, tol, max_iter)
    ess = max(lp_norm(x, np.inf) for x in fam)
    dom_q, iters_q = _sup_plus(fam, q, tol, max_iter)
    theta = q / p
    rhs = ess ** (1.0 - theta) * dom_q**theta
    passed = lhs <= rhs * (1.0 + slack) + 1e-15
    return InterpolationReport(
        p, q, lhs, rhs, ess, dom_q, slack, passed, box, iters_p + iters_q
    )
