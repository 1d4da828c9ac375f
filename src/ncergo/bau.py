"""Certificates of bilaterally almost uniform smallness for tail residuals.

Given a family of residuals r_n indexed by a tail box, a certificate is a
projection e with small trace deficit tau(1 - e) <= epsilon such that every
compressed residual satisfies ||e r_n e||_inf <= lambda. The construction
is: dominate +-r_n by a single positive a, cut the spectrum of a at the
Chebyshev level lambda = ||a||_p / epsilon^(1/p), and let e be the spectral
projection of a below lambda; complex r_n take the meet of their Hermitian
parts' cuts. Each returned certificate is re-measured once, on the residuals
it certifies, so it is sound by inspection, not by construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .algebra import (
    Algebra,
    Box,
    Projection,
    lp_norm,
    spectral_projection,
    stack_abs,
    stack_abs_max,
    stack_hermitian_deviation,
    stack_hermitian_part,
    stack_imaginary_part,
    stack_max,
    stack_sum,
)
from .averages import AverageFamily
from .errors import IntegrityError, StructuralError
from .maximal import DominantReport, PreparedFamily, dominant_element, prepare_signed

SOUNDNESS_SLACK = 1e-10


@dataclass(frozen=True)
class BauCertificate:
    e: Projection
    epsilon: float
    lam: float
    p: float
    onset: int
    tail_sup: float
    dominant_norm: float
    trace_complement: float
    tail_size: int
    flags: tuple[str, ...] = ()
    iterations: int = 0  # of the dominant solves behind the certificate
    converged: bool = True  # False when one of those solves hit its iteration cap

    @property
    def sound(self) -> bool:
        return (
            self.trace_complement <= self.epsilon + 1e-14
            and self.tail_sup <= self.lam + SOUNDNESS_SLACK
        )


def _reach(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Per block, bounds reach[b][k] >= ||e r_kb e||_2 for every projection e.

    ||e r e||_2 <= ||r||_2, which is at most ||r||_F and at most
    sqrt(||r||_1 ||r||_inf) (largest column and row abs sums), both taken of
    r / t, t the largest |entry| of r, so that no square overflows; the
    smaller, times t, is padded by 1e-12 relative for rounding, which also
    covers the order of the column-pass sums, plus d 2^-537 for the
    products that underflow below 2^-1022.
    """
    reach = []
    for r_b in stacks:
        mag = stack_abs(r_b)
        top = stack_max(stack_max(mag))
        mag /= np.where(top > 0.0, top, 1.0)  # an all-zero r stays 0
        fro = np.sqrt(stack_sum(stack_sum(mag * mag)))
        cols, rows = stack_max(stack_sum(mag)), stack_max(stack_sum(mag, axis=1))
        tiny = r_b.shape[-1] * 2.0**-537
        reach.append(top * np.minimum(fro, np.sqrt(cols * rows)) * (1.0 + 1e-12) + tiny)
    return reach


def _compressed_sup(e: Projection, stacks: list[np.ndarray], reach=None) -> float:
    """max over the family of ||e r e||_inf, computed blockwise in batch.

    reach (by default _reach(stacks)) bounds each member's value, so a
    member whose reach stays below the running max cannot raise it and is
    not measured. Per block, the member with the largest reach is measured
    first, then every member that could still reach the max; the max
    carries across blocks. Batched svd works one matrix at a time, so the
    result is the one an exhaustive sweep gives.
    """
    if reach is None:
        reach = _reach(stacks)
    worst = 0.0
    for e_b, r_b, reach_b in zip(e.element.blocks, stacks, reach):
        if r_b.size == 0:
            continue

        def top(idx) -> float:
            comp = e_b[None] @ r_b[idx] @ e_b[None]
            return float(np.linalg.svd(comp, compute_uv=False)[:, 0].max())

        first = int(np.argmax(reach_b))
        if reach_b[first] < worst:
            continue
        worst = max(worst, top([first]))
        cand = np.flatnonzero(reach_b >= worst)
        cand = cand[cand != first]
        if cand.size:
            worst = max(worst, top(cand))
    return worst


def _budget(p: float, epsilon: float, alg: Algebra) -> tuple[float, float]:
    """p and epsilon as floats, once 1 < p < inf and 0 < epsilon < tau(1) hold."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"certification needs 1 < p < inf, got {p}")
    epsilon, total = float(epsilon), alg.total_trace()
    if not 0.0 < epsilon < total:
        raise ValueError(f"epsilon must lie in (0, {total}), got {epsilon}")
    return p, epsilon


class _Cut(NamedTuple):
    """e = chi_(-inf, lam)(a) for a dominant a; norm = ||a||_p, lam = norm / epsilon^(1/p)."""
    e: Projection
    lam: float
    norm: float
    report: DominantReport
    flags: tuple[str, ...]


def _cut(part: PreparedFamily, idx: np.ndarray, alg: Algebra, p: float, epsilon: float,
         tol: float, max_iter: int) -> _Cut:
    """The cut of the dominant of the residuals idx of a signed family; nothing is measured."""
    flags: list[str] = []
    rep = dominant_element(part.take(idx), p, tol, max_iter, algebra=alg)
    a = rep.dominant
    if not rep.converged:
        flags.append("bound not tight: dominant solve hit the iteration cap")
    # a re-measured margin within its rounding allowance is no shortfall:
    # the dual route has already lifted its dominant by the exact margins
    lift = -rep.feasibility_margin
    if lift > rep.margin_pad:
        a = a + alg.scalar(lift)
        flags.append(f"dominant lifted by {lift:.3g} to restore exact feasibility")
    norm = lp_norm(a, p)
    lam = norm / epsilon ** (1.0 / p)
    return _Cut(spectral_projection(a, (-np.inf, lam)), lam, norm, rep, tuple(flags))


def _certificate(cuts: tuple[_Cut, ...], flags: tuple[str, ...], stacks, reach,
                 idx: np.ndarray, p: float, epsilon: float, onset: int) -> BauCertificate:
    """The certificate of the residuals idx of stacks (reach their _reach) by the cuts."""
    # e: the cuts' meet (range intersection); of two, the eigenvalue-2 eigenspace of e_r + e_i
    e = cuts[0].e if len(cuts) == 1 else spectral_projection(
        cuts[0].e.element + cuts[1].e.element, (2.0 - 1e-10, np.inf))
    # tau(1 - e) = sum_b w_b (d_b - rank e_b), exact from the ranks of e
    trace_complement = float(sum(
        w * (d - round(float(np.trace(b).real)))
        for w, d, b in zip(e.algebra.trace_weights, e.algebra.block_dims, e.element.blocks)
    ))
    cert = BauCertificate(
        e, epsilon, sum(c.lam for c in cuts), p, onset,
        _compressed_sup(e, [s[idx] for s in stacks], [c[idx] for c in reach]),
        sum(c.norm for c in cuts), trace_complement, len(idx), flags,
        sum(c.report.iterations for c in cuts), all(c.report.converged for c in cuts),
    )
    if not cert.sound:
        raise IntegrityError(
            f"certificate failed re-verification: tau(1-e)={cert.trace_complement:.6g} "
            f"vs epsilon={cert.epsilon:.6g}, tail_sup={cert.tail_sup:.6g} vs "
            f"lambda={cert.lam:.6g}"
        )
    return cert


def certify_bau(
    residuals: AverageFamily,
    p: float,
    epsilon: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> BauCertificate:
    """Projection certificate of uniform tail smallness for Hermitian residuals.

    epsilon is the trace budget for 1 - e. The uniform bound lam follows
    from the Chebyshev bound tau(chi_(lam,inf)(a)) <= (||a||_p / lam)^p = epsilon
    for the dominant a of the +-residual family; tail_sup is measured
    exhaustively on the tested box. The residuals are checked for
    Hermiticity once, member by member, and StructuralError sends complex
    ones to certify_bau_complex.
    """
    stacks = residuals.block_stacks()
    dev, mag = stack_hermitian_deviation(stacks)
    scale = 1.0 + float(mag.max(initial=0.0))
    if np.any(dev > 1e-8 * scale * (1.0 + mag)):
        raise StructuralError(
            "residuals must be Hermitian; split complex residuals first "
            "(certify_bau_complex does this)"
        )
    part = prepare_signed(stacks, algebra=residuals.algebra)
    p, epsilon = _budget(p, epsilon, residuals.algebra)
    idx = np.arange(residuals.box.size)
    cut = _cut(part, idx, residuals.algebra, p, epsilon, tol, max_iter)
    return _certificate((cut,), cut.flags, part.stacks, _reach(part.stacks), idx, p, epsilon,
                        min(residuals.box.lower))


def _members(box: Box, sub: Box) -> np.ndarray:
    """Flat indices, in box's C order, of sub's members in sub's C order.

    The order AverageFamily.restrict(sub) keeps.
    """
    sel = tuple(slice(l - bl, u - bl + 1)
                for l, u, bl in zip(sub.lower, sub.upper, box.lower))
    return np.arange(box.size).reshape(box.shape)[sel].ravel()


def _certify_tails(
    residuals: AverageFamily, p: float, epsilon: float, boxes: list[Box],
    tol: float, max_iter: int,
) -> Iterator[BauCertificate]:
    """certify_bau_complex of residuals.restrict(box) for each box, in turn.

    The Hermitian parts (s + s*) / 2 and (s - s*) / 2i of the residual stacks s
    are each prepared once as a signed family; a tail's cuts take its members
    by index, and only its certificate is measured, on the s themselves.
    """
    if not boxes:
        return
    alg = residuals.algebra
    stacks = residuals.block_stacks()
    parts = [prepare_signed([half(s) for s in stacks], algebra=alg)
             for half in (stack_hermitian_part, stack_imaginary_part)]
    p, epsilon = _budget(p, epsilon, alg)
    reach = _reach(stacks)
    mag = stack_abs_max(stacks)
    for box in boxes:
        idx = _members(residuals.box, box)
        scale = 1.0 + float(mag[idx].max(initial=0.0))
        if float(parts[1].size[idx].max(initial=0.0)) <= 1e-14 * scale:
            cuts = (_cut(parts[0], idx, alg, p, epsilon, tol, max_iter),)
            flags = cuts[0].flags + ("imaginary part negligible; certified the real part",)
        else:
            cuts = tuple(_cut(part, idx, alg, p, epsilon / 2.0, tol, max_iter)
                         for part in parts)
            flags = (
                "complex residuals split into Hermitian parts; e is the meet of the "
                "part projections",
            ) + cuts[0].flags + cuts[1].flags
        yield _certificate(cuts, flags, stacks, reach, idx, p, epsilon, min(box.lower))


def certify_bau_complex(
    residuals: AverageFamily,
    p: float,
    epsilon: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> BauCertificate:
    """Certificate for complex residuals via their Hermitian parts.

    Each part gets half the trace budget; the final projection is the meet
    e_R ^ e_I and the uniform bound is lambda_R + lambda_I. tail_sup is
    re-measured on the original complex residuals.
    """
    return next(_certify_tails(residuals, p, epsilon, [residuals.box], tol, max_iter))


def tail_box(family: AverageFamily, onset: int) -> Box:
    """Sub-box of the family's box where every coordinate is >= onset."""
    lo = tuple(max(l, int(onset)) for l in family.box.lower)
    if any(l > u for l, u in zip(lo, family.box.upper)):
        raise ValueError(f"onset {onset} empties the box {family.box}")
    return Box(lo, family.box.upper)


def onset_ladder(
    residuals: AverageFamily,
    p: float,
    epsilon: float,
    onsets,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> tuple[BauCertificate, ...]:
    """Certificates for a ladder of tail onsets (decay evidence for tail_sup).

    Every onset is certified as certify_bau_complex certifies
    residuals.restrict(tail_box(residuals, onset)), bit for bit. The
    residuals are split and prepared once for the whole ladder, and each
    tail takes its members by index, since the tails are nested sub-boxes.
    Onsets beyond the family's box are skipped, and onsets that give one tail
    box are certified once. Shrinking the tail can only shrink the dominant,
    so lam is nonincreasing along the ladder up to solver tolerance.
    """
    top = min(residuals.box.upper)
    boxes = [tail_box(residuals, m) for m in sorted({int(v) for v in onsets}) if m <= top]
    boxes = list(dict.fromkeys(boxes))
    return tuple(_certify_tails(residuals, p, epsilon, boxes, tol, max_iter))
