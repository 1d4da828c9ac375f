"""Certificates of bilaterally almost uniform smallness for tail residuals.

Given a family of residuals r_n indexed by a tail box, a certificate is a
projection e with small trace deficit tau(1 - e) <= epsilon such that every
compressed residual satisfies ||e r_n e||_inf <= lambda. The construction
is: dominate +-r_n by a single positive a, cut the spectrum of a at the
Chebyshev level lambda = ||a||_p / epsilon^(1/p), and let e be the spectral
projection of a below lambda. Everything reported is re-measured on the
actual inputs, so a returned certificate is sound by inspection, not by
construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    stack_max,
    stack_sum,
)
from .averages import AverageFamily
from .errors import IntegrityError, StructuralError
from .maximal import PreparedFamily, _row_radii, dominant_element

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
    sqrt(||r||_1 ||r||_inf) (largest column and row abs sums); the smaller
    is padded by 1e-12 relative for rounding, which also covers the order
    of the column-pass sums, plus d 2^-537 for the squares and products
    that underflow below 2^-1022.
    """
    reach = []
    for r_b in stacks:
        mag = stack_abs(r_b)
        fro = np.sqrt(stack_sum(stack_sum(mag * mag)))
        cols, rows = stack_max(stack_sum(mag)), stack_max(stack_sum(mag, axis=1))
        tiny = r_b.shape[-1] * 2.0**-537
        reach.append(np.minimum(fro, np.sqrt(cols * rows)) * (1.0 + 1e-12) + tiny)
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


def _trace_complement(e: Projection) -> float:
    """tau(1 - e) = sum_b w_b (d_b - rank e_b), exact from the ranks of e."""
    alg = e.algebra
    return float(sum(
        w * (d - round(float(np.trace(b).real)))
        for w, d, b in zip(alg.trace_weights, alg.block_dims, e.element.blocks)
    ))


class _PreparedPart:
    """A Hermitian residual family over its whole box, prepared once.

    r holds the Hermitian parts of the stacks as given, plus and minus the
    Gershgorin bounds of +r_k and -r_k, size each r_k's largest |entry| and
    reach the _reach bounds of r. Every field is per member, in the box's C
    order, so at a tail's indices it holds bit for bit what preparing the
    tail's own family would. The stacks are not checked for Hermiticity:
    certify_bau gates its input, and hermitian_split's parts are exact.
    """

    def __init__(self, stacks: list[np.ndarray]):
        self.r = [stack_hermitian_part(s) for s in stacks]
        radii = [_row_radii(x) for x in self.r]  # -r_k has diagonal -x_kii, same radii
        self.plus = np.stack([stack_max(off + diag) for diag, off in radii], axis=1)
        self.minus = np.stack([stack_max(off - diag) for diag, off in radii], axis=1)
        self.size = stack_abs_max(self.r)
        self.reach = _reach(self.r)

    def plus_minus(self, idx: np.ndarray) -> PreparedFamily:
        """The members r_k, -r_k interleaved (r_1, -r_1, r_2, ...) for k in idx.

        r_k is exactly Hermitian, so the Hermitian part of -r_k is -r_k
        with the -0.0 that negation leaves on the imaginary diagonal
        cleared; the stacks are that, bit for bit.
        """
        stacks = []
        for r_b in self.r:
            g = r_b[idx]
            pm = np.stack((g, -g), axis=1).reshape((-1,) + g.shape[1:])
            diag = np.arange(g.shape[-1])
            pm.imag[:, diag, diag] = 0.0
            stacks.append(pm)
        bound = np.stack((self.plus[idx], self.minus[idx]), axis=1)
        return PreparedFamily(tuple(stacks), bound.reshape(-1, len(stacks)),
                              np.repeat(self.size[idx], 2))


def _verified(cert: BauCertificate) -> BauCertificate:
    """cert, once its re-measured fields are checked against its budget."""
    if not cert.sound:
        raise IntegrityError(
            f"certificate failed re-verification: tau(1-e)={cert.trace_complement:.6g} "
            f"vs epsilon={cert.epsilon:.6g}, tail_sup={cert.tail_sup:.6g} vs "
            f"lambda={cert.lam:.6g}"
        )
    return cert


def _certify_part(
    part: _PreparedPart, idx: np.ndarray, alg: Algebra, onset: int, p: float,
    epsilon: float, tol: float, max_iter: int,
) -> BauCertificate:
    """The certificate of the members idx of a prepared family."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"certification needs 1 < p < inf, got {p}")
    epsilon, total = float(epsilon), alg.total_trace()
    if not 0.0 < epsilon < total:
        raise ValueError(f"epsilon must lie in (0, {total}), got {epsilon}")
    flags: list[str] = []

    rep = dominant_element(part.plus_minus(idx), p, tol, max_iter, algebra=alg)
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

    e = spectral_projection(a, (-np.inf, lam))
    tail_sup = _compressed_sup(e, [r_b[idx] for r_b in part.r],
                               [c[idx] for c in part.reach])
    return _verified(BauCertificate(
        e, epsilon, lam, p, onset, tail_sup, norm, _trace_complement(e),
        len(idx), tuple(flags), rep.iterations, rep.converged,
    ))


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
    return _certify_part(
        _PreparedPart(stacks), np.arange(residuals.box.size), residuals.algebra,
        min(residuals.box.lower), p, epsilon, tol, max_iter,
    )


def _meet(e_r: Projection, e_i: Projection) -> Projection:
    """Range intersection via the eigenvalue-2 eigenspace of e_r + e_i."""
    s = e_r.element + e_i.element
    return spectral_projection(s, (2.0 - 1e-10, np.inf))


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
) -> tuple[BauCertificate, ...]:
    """certify_bau_complex of residuals.restrict(box) for each box.

    The residuals are split into Hermitian parts and each part is prepared
    once (_PreparedPart); every tail takes its members by index.
    """
    if not boxes:
        return ()
    alg = residuals.algebra
    re_part, im_part = (_PreparedPart(f.block_stacks())
                        for f in residuals.hermitian_split())
    stacks = residuals.block_stacks()
    reach = _reach(stacks)
    mag = stack_abs_max(stacks)
    certs = []
    for box in boxes:
        idx = _members(residuals.box, box)
        onset = min(box.lower)
        scale = 1.0 + float(mag[idx].max(initial=0.0))
        if float(im_part.size[idx].max(initial=0.0)) <= 1e-14 * scale:
            parts = (_certify_part(re_part, idx, alg, onset, p, epsilon, tol, max_iter),)
            e = parts[0].e
            flags = parts[0].flags + ("imaginary part negligible; certified the real part",)
        else:
            half = float(epsilon) / 2.0
            parts = tuple(_certify_part(part, idx, alg, onset, p, half, tol, max_iter)
                          for part in (re_part, im_part))
            e = _meet(parts[0].e, parts[1].e)
            flags = (
                "complex residuals split into Hermitian parts; e is the meet of the "
                "part projections",
            ) + parts[0].flags + parts[1].flags
        certs.append(_verified(BauCertificate(
            e, float(epsilon), sum(c.lam for c in parts), float(p), onset,
            _compressed_sup(e, [s[idx] for s in stacks], [c[idx] for c in reach]),
            sum(c.dominant_norm for c in parts), _trace_complement(e), len(idx),
            flags, sum(c.iterations for c in parts), all(c.converged for c in parts),
        )))
    return tuple(certs)


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
    return _certify_tails(residuals, p, epsilon, [residuals.box], tol, max_iter)[0]


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
    Onsets beyond the family's box are skipped. Shrinking the tail can only
    shrink the dominant, so lam is nonincreasing along the ladder up to
    solver tolerance.
    """
    top = min(residuals.box.upper)
    boxes = [tail_box(residuals, m) for m in sorted({int(v) for v in onsets}) if m <= top]
    return _certify_tails(residuals, p, epsilon, boxes, tol, max_iter)
