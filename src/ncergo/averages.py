"""Weighted multiparameter averages of iterated contractions.

The object computed everywhere below is

    A_N(x) = (1/|N|) * sum_{k=1..N} a(k) * T_d^{k_d} ... T_1^{k_1} (x)

with |N| = N_1 ... N_d and the first listed map acting first. Three
evaluation routes are provided and cross-checked by the test suite:

  direct      explicit lexicographic summation at a single N,
  grid        prefix sums over a whole box of N at once (compensated
              accumulation, O(box) map applications): GridStream yields
              the box's averages a chunk of the last axis at a time, and
              weighted_average_grid gathers them into an AverageFamily;
              a consumer that reduces each A_N on its own reads the
              stream and never holds the box,
  factorized  per-axis one-parameter averages, valid for trig polynomial
              weights only, O(sum N_i) map applications per term.

Every route applies a map block by block; the dense transfer matrix is
never formed. The direct and factorized routes and the limit apply the
complex per-block transfer matrices to vec coordinates. The grid walks in
real coordinates instead: a positive map preserves adjoints, so it maps
each self-adjoint part of x = h1 + i h2 on its own, through one real matrix
per block (`LinearOperator.real_blocks`), at a quarter of a complex
product's flops. Each walked step is then expanded back into vec rows. The
per-point routes thus cross-check the grid along another arithmetic path.
All routes are sequential and deterministic: identical inputs produce
bitwise identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from ._numeric import CHUNK_BYTES, DEFAULT_BUDGET, kahan_cumsum
from .algebra import Algebra, Box, Element, validate_multi_index, volume
from .contraction import LinearOperator, cesaro_limit_projection, self_adjoint_index
from .errors import BudgetError, StructuralError
from .weights import TrigPolynomial, Weight, eval_weight_box, require_trig


def _check_inputs(a: Weight, maps: Sequence[LinearOperator], x: Element):
    if len(maps) == 0:
        raise StructuralError("at least one map is required")
    if a.dimension != len(maps):
        raise StructuralError(
            f"weight dimension {a.dimension} != number of maps {len(maps)}"
        )
    for t in maps:
        if t.algebra != x.algebra:
            raise StructuralError("map algebra does not match the element's algebra")


class AverageFamily:
    """Averages A_N for every N in a box, stored as vectorized rows.

    The box shape is part of the record: values exist exactly at the tested
    indices and nothing is claimed beyond them.
    """

    def __init__(self, algebra: Algebra, box: Box, data: np.ndarray,
                 provenance: str, applications: int = 0):
        expected = box.shape + (algebra.basis_size,)
        if data.shape != expected:
            raise StructuralError(f"family data shape {data.shape} != {expected}")
        self.algebra = algebra
        self.box = box
        self._data = np.ascontiguousarray(data, dtype=np.complex128)
        self._data.setflags(write=False)
        self.provenance = provenance
        self.applications = int(applications)

    def value(self, n: Sequence[int]) -> Element:
        nt = validate_multi_index(n)
        if not self.box.contains(nt):
            raise KeyError(f"index {nt} outside family box {self.box}")
        off = tuple(c - l for c, l in zip(nt, self.box.lower))
        return self.algebra.unvec(self._data[off])

    __getitem__ = value

    def items(self) -> Iterator[tuple[tuple[int, ...], Element]]:
        for idx in self.box.indices():
            yield idx, self.value(idx)

    def raw(self) -> np.ndarray:
        return self._data

    def block_stacks(self) -> list[np.ndarray]:
        """Read-only views (n, d_b, d_b), one per block, members in items() order."""
        return self.algebra.block_stacks(
            self._data.reshape(-1, self.algebra.basis_size))

    def restrict(self, box: Box) -> "AverageFamily":
        if not (self.box.contains(box.lower) and self.box.contains(box.upper)):
            raise StructuralError(f"box {box} is not contained in {self.box}")
        sel = tuple(
            slice(l - bl, u - bl + 1)
            for l, u, bl in zip(box.lower, box.upper, self.box.lower)
        )
        return AverageFamily(
            self.algebra, box, self._data[sel], self.provenance, self.applications
        )

    def minus_constant(self, el: Element) -> "AverageFamily":
        if el.algebra != self.algebra:
            raise StructuralError("constant lives in a different algebra")
        return AverageFamily(
            self.algebra,
            self.box,
            self._data - self.algebra.vec(el),
            self.provenance + "-shifted",
            self.applications,
        )

    def hermitian_split(self) -> tuple["AverageFamily", "AverageFamily"]:
        """Families of Hermitian real and imaginary parts."""
        re = np.empty_like(self._data)
        im = np.empty_like(self._data)
        for seg, d in zip(self.algebra._slices, self.algebra.block_dims):
            blk = self._data[..., seg].reshape(self.box.shape + (d, d))
            adj = np.conj(np.swapaxes(blk, -1, -2))
            re[..., seg] = ((blk + adj) / 2).reshape(self.box.shape + (d * d,))
            im[..., seg] = ((blk - adj) / 2j).reshape(self.box.shape + (d * d,))
        return (
            AverageFamily(self.algebra, self.box, re, self.provenance + "-re",
                          self.applications),
            AverageFamily(self.algebra, self.box, im, self.provenance + "-im",
                          self.applications),
        )


def _iterate_powers(maps: Sequence[LinearOperator], x0: np.ndarray,
                    upper: tuple[int, ...], visit) -> int:
    """Walk T^k x over the box [1, upper] with one map application per node.

    visit(flat_offset, vec) is called for every complete index, in
    lexicographic order; the flat offset enumerates the box in C order.
    Returns the number of map applications performed.
    """
    d = len(upper)
    strides = [0] * d
    strides[d - 1] = 1
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * upper[i + 1]
    count = 0

    def rec(axis: int, base: np.ndarray, off: int):
        nonlocal count
        m = maps[axis]
        v = base
        for t in range(upper[axis]):
            v = m.apply_vec(v)
            count += 1
            pos = off + t * strides[axis]
            if axis == d - 1:
                visit(pos, v)
            else:
                rec(axis + 1, v, pos)

    rec(0, x0, 0)
    return count


class _SelfAdjointCoordinates:
    """Real coordinates of an algebra's self-adjoint elements, and the
    expansion of walked coordinate rows back into vec rows.

    A row holds each block's d_b^2 coordinates [Re h_ii | Re h_ij | Im h_ij]
    (i < j, see `self_adjoint_index`) at that block's vec offsets, then one
    slot that stays 0. An element x = h1 + i h2 is one part, h1, when h2 is
    exactly 0 (x == x* entry for entry), and otherwise the two parts h1 and
    h2. Expanding is one gather per part into the float64 view of the vec
    row, times a sign that is -1 on the imaginary part of each lower-triangle
    entry; the imaginary diagonal is read from the zero slot. With two parts
    the gathers add as E(h1) + i E(h2).
    """

    def __init__(self, algebra: Algebra):
        dim = algebra.basis_size
        self.width = dim + 1
        pieces = []
        for s, d in zip(algebra._slices, algebra.block_dims):
            diag, up, low = self_adjoint_index(d)
            coord = s.start + np.arange(d * d)
            pieces.append((s.start + diag, s.start + up, s.start + low,
                           coord[:d], coord[d:d + len(up)], coord[d + len(up):]))
        (self.diag, self.up, self.low, self.re_diag, self.re_up,
         self.im_up) = (np.concatenate(p) for p in zip(*pieces))
        # gather of part 1, E(h1): both entries of a pair read the same
        # coordinates, the lower one's imaginary part negated
        gather = np.empty((2, 2 * dim), dtype=np.intp)
        sign = np.ones((2, 2 * dim))
        gather[0, 2 * self.diag], gather[0, 2 * self.diag + 1] = self.re_diag, dim
        for pos in (self.up, self.low):
            gather[0, 2 * pos], gather[0, 2 * pos + 1] = self.re_up, self.im_up
        sign[0, 2 * self.low + 1] = -1.0
        # part 2 enters as i E(h2): real <- -Im E(h2), imaginary <- Re E(h2)
        gather[1, 0::2], sign[1, 0::2] = gather[0, 1::2], -sign[0, 1::2]
        gather[1, 1::2], sign[1, 1::2] = gather[0, 0::2], sign[0, 0::2]
        self.gather, self.sign = gather, sign

    def start(self, v: np.ndarray, upper: tuple[int, ...]) -> np.ndarray:
        """Coordinate rows (parts,) + upper + (width,) of a walk from the vec
        row v: v's parts at the first point, zeros everywhere else."""
        up, low = v[self.up], v[self.low]
        parts = np.zeros((2, self.width))
        parts[0, self.re_diag] = v[self.diag].real
        parts[0, self.re_up] = (up.real + low.real) / 2
        parts[0, self.im_up] = (up.imag - low.imag) / 2
        parts[1, self.re_diag] = v[self.diag].imag
        parts[1, self.re_up] = (up.imag + low.imag) / 2
        parts[1, self.im_up] = (low.real - up.real) / 2
        if not parts[1].any():
            parts = parts[:1]
        grid = np.zeros((len(parts),) + tuple(upper) + (self.width,))
        grid.reshape(len(parts), -1, self.width)[:, 0] = parts
        return grid

    def expand(self, rows: np.ndarray, out: np.ndarray) -> None:
        """out[i] = E(rows[0, i]) + i E(rows[1, i]) for coordinate rows
        (parts, n, width) and contiguous vec rows out (n, dim)."""
        flat = out.view(np.float64)
        np.take(rows[0], self.gather[0], axis=1, out=flat, mode="clip")
        flat *= self.sign[0]
        if len(rows) == 2:
            second = np.take(rows[1], self.gather[1], axis=1, mode="clip")
            second *= self.sign[1]
            flat += second


def _real_step(t: LinearOperator, rows: np.ndarray, out: np.ndarray) -> None:
    """out[i] = T(rows[i]) for 2-D stacks of coordinate rows: one
    (rows, d_b^2) x (d_b^2, d_b^2) real product per block."""
    for s, r in zip(t.algebra._slices, t.real_blocks):
        np.matmul(rows[:, s], r.T, out=out[:, s])


def _walk_real(maps: Sequence[LinearOperator], grid: np.ndarray) -> int:
    """Walk coordinate rows over the box [1, upper] in place: the walk kernel
    of _walk_slabs and of GridStream.chunks.

    grid is shaped (parts,) + upper + (width,), with every part's
    coordinates of x at the first point and the zero slot 0 throughout.
    Each axis j then advances the whole filled slab of axes before it, all
    parts as one stack of rows, one _real_step per step, writing step s
    into grid[:, ..., s, 0, ...] (step 0 overwrites the slab it starts
    from). Until axis j is walked, the slab holds power 0 of that axis and
    of every later one. Counts one map application per point advanced,
    which is the per-point walk's count.
    """
    upper = grid.shape[1:-1]
    count = 0
    for j in range(len(upper)):
        lead = volume(upper[:j])
        view = grid.reshape(len(grid) * lead, upper[j], -1, grid.shape[-1])
        for s in range(upper[j]):
            _real_step(maps[j], view[:, max(s - 1, 0), 0], view[:, s, 0])
        count += lead * upper[j]
    return count


def _walk_slabs(maps: Sequence[LinearOperator], x0: np.ndarray,
                grid: np.ndarray) -> int:
    """Fill grid[k - 1] = T^k x over the box [1, grid.shape[:-1]] (at least
    one axis), the whole grid at once.

    x's real coordinates, one part or two (see _SelfAdjointCoordinates),
    are walked by _walk_real over every axis and then expanded into the
    grid; GridStream.chunks walks and expands the same rows a step at a
    time. Returns the count of map applications.
    """
    coords = _SelfAdjointCoordinates(maps[0].algebra)
    real = coords.start(x0, grid.shape[:-1])
    count = _walk_real(maps, real)
    coords.expand(real.reshape(len(real), -1, coords.width),
                  grid.reshape(-1, grid.shape[-1]))
    return count


def weighted_average_direct(
    a: Weight,
    maps: Sequence[LinearOperator],
    x: Element,
    n: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> Element:
    """A_N(x) by explicit summation in lexicographic order."""
    _check_inputs(a, maps, x)
    nt = validate_multi_index(n)
    if len(nt) != len(maps):
        raise StructuralError("index dimension does not match the number of maps")
    if volume(nt) > budget:
        raise BudgetError(
            f"|N| = {volume(nt)} exceeds the budget {budget}; "
            "use the grid or factorized evaluator"
        )
    alg = x.algebra
    w = eval_weight_box(a, nt).reshape(-1)
    acc = np.zeros(alg.basis_size, dtype=np.complex128)

    def visit(pos: int, v: np.ndarray):
        nonlocal acc
        acc = acc + w[pos] * v

    _iterate_powers(maps, alg.vec(x), nt, visit)
    return alg.unvec(acc / volume(nt))


class GridStream:
    """All A_N for N in a box, produced a chunk of the last axis at a time.

    The constructor checks the inputs and the budget, and that every map
    preserves adjoints (it has real blocks, see
    `LinearOperator.real_blocks`); `chunks` walks. It needs O(points of
    [1, box.upper]) map applications in total, which it leaves in
    `applications`. The walk runs in real coordinates: x's self-adjoint
    part, and its skew part when x != x*, as one stack of coordinate rows
    (see _SelfAdjointCoordinates). Axes 1..d-1 are walked into a lead slab
    of such rows (one real product per block and step of each axis, see
    _walk_real); the last axis is then walked on from it, a step at a time
    with the same products, each step expanded straight into its row of a
    complex chunk of slabs of about CHUNK_BYTES. Each chunk is weighted,
    summed along axes 1..d-1 in place, summed along the last axis with the
    (total, compensation) pair carried from the chunk before, and divided
    by |N|. Every entry sees the same operations in the same order as
    _walk_slabs over the whole grid followed by one compensated cumulative
    sum per axis, so the averages are bitwise those; only a chunk, not the
    grid over [1, box.upper], is held.
    """

    def __init__(self, a: Weight, maps: Sequence[LinearOperator], x: Element,
                 box: Box, budget: int = DEFAULT_BUDGET):
        _check_inputs(a, maps, x)
        if box.dim != len(maps):
            raise StructuralError("box dimension does not match the number of maps")
        if volume(box.upper) > budget:
            raise BudgetError(
                f"grid over [1, {box.upper}] has {volume(box.upper)} points, "
                f"budget is {budget}; use the factorized evaluator or raise the budget"
            )
        for i, t in enumerate(maps, 1):
            try:
                t.real_blocks
            except StructuralError as err:
                raise StructuralError(f"map {i} of {len(maps)}, {t!r}: {err}") from None
        self.weight, self.maps, self.x, self.box = a, maps, x, box
        self.algebra = x.algebra
        self.applications = 0

    def chunks(self, out: np.ndarray | None = None
               ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, block) for consecutive last-axis offsets [lo, hi)
        in the box, block[t] being the averages at last-axis offset lo + t,
        shaped (hi - lo,) + box.shape[:-1] + (dim,).

        Each block is divided straight into out[lo:hi] when `out` (shaped
        (box.shape[-1],) + box.shape[:-1] + (dim,)) is given, and otherwise
        in place, in the stream's chunk buffer, which the next chunk
        overwrites.
        """
        box, upper = self.box, self.box.upper
        dim = self.algebra.basis_size
        coords = _SelfAdjointCoordinates(self.algebra)
        lead = upper[:-1]
        slab = coords.start(self.algebra.vec(self.x), lead)
        apps = _walk_real(self.maps[:-1], slab)
        last, t_last = upper[-1], self.maps[-1]
        self.applications = apps + volume(lead) * last
        # the last axis comes first in chunks, weights and volumes: chunk[t] is a slab
        w = np.moveaxis(eval_weight_box(self.weight, upper), -1, 0)
        vols = np.moveaxis(reduce(
            np.multiply.outer,
            [np.arange(1, u + 1, dtype=np.float64) for u in upper],
        ).reshape(upper), -1, 0)
        sel = (slice(None),) + tuple(
            slice(l - 1, u) for l, u in zip(box.lower[:-1], lead)
        )
        first = box.lower[-1] - 1
        # chunks of at least two slabs, and no one-slab tail: numpy rounds an
        # in-place complex multiply over one element differently from its bulk
        # loop, so a chunk may hold a single element only when the grid does
        points = volume(lead)
        size = min(last, max(2, CHUNK_BYTES // (points * dim * 16)))
        ends = list(range(size, last, size)) + [last]
        if len(ends) > 1 and ends[-1] - ends[-2] == 1:
            del ends[-2]
        # the last axis is walked on (parts * points, width) rows, the shape
        # _walk_real gives it: a product of another shape may round differently
        rows = slab.reshape(-1, coords.width)
        spare = np.zeros_like(rows)
        chunk = np.empty((min(size + 1, last), points, dim), dtype=np.complex128)
        carry: list = []
        for s0, s1 in zip([0] + ends[:-1], ends):
            c = chunk[:s1 - s0]
            for t in range(len(c)):
                _real_step(t_last, rows, spare)
                rows, spare = spare, rows
                coords.expand(rows.reshape(len(slab), points, -1), c[t])
            c = c.reshape((len(c),) + lead + (dim,))
            c *= w[s0:s1, ..., None]
            for axis in range(1, len(upper)):
                kahan_cumsum(c, axis, out=c)
            kahan_cumsum(c, 0, out=c, carry=carry)
            lo = max(first, s0)
            if lo < s1:
                c = c[lo - s0:][sel]
                block = c if out is None else out[lo - first:s1 - first]
                np.divide(c, vols[lo:s1][sel][..., None], out=block)
                yield lo - first, s1 - first, block


def weighted_average_grid(
    a: Weight,
    maps: Sequence[LinearOperator],
    x: Element,
    box: Box,
    budget: int = DEFAULT_BUDGET,
) -> AverageFamily:
    """All A_N for N in the box: the GridStream's chunks divided straight
    into the family, so only a chunk is held besides it."""
    stream = GridStream(a, maps, x, box, budget)
    data = np.empty(box.shape + (x.algebra.basis_size,), dtype=np.complex128)
    for _ in stream.chunks(np.moveaxis(data, -2, 0)):
        pass
    return AverageFamily(x.algebra, box, data, "grid", stream.applications)


def weighted_average_factorized(
    a: Weight,
    maps: Sequence[LinearOperator],
    x: Element,
    n: Sequence[int],
) -> Element:
    """A_N(x) as a sum over terms of composed one-parameter averages.

    For a term with generator phases theta_i the multi average factorizes
    into per-axis averages of the phase-twisted maps, applied axis 1 first;
    this costs O(sum N_i) applications per term instead of O(|N|).
    """
    poly = require_trig(a)
    _check_inputs(poly, maps, x)
    nt = validate_multi_index(n)
    if len(nt) != len(maps):
        raise StructuralError("index dimension does not match the number of maps")
    alg = x.algebra
    acc = np.zeros(alg.basis_size, dtype=np.complex128)
    for term in poly.terms:
        v = alg.vec(x)
        for axis, (t, steps) in enumerate(zip(maps, nt)):
            lam = np.exp(1j * term.phases[axis])
            z = v
            s = np.zeros_like(v)
            for _ in range(steps):
                z = lam * t.apply_vec(z)
                s = s + z
            v = s / steps
        acc += term.coefficient * v
    return alg.unvec(acc)


@dataclass(frozen=True)
class LimitResult:
    value: Element
    notes: tuple[str, ...]


def limit_oracle(
    a: Weight, maps: Sequence[LinearOperator], x: Element
) -> LimitResult:
    """Large-box limit of A_N for trig polynomial weights.

    Each term contributes the composition of the phase-matched eigenvalue-1
    spectral projections of its twisted maps; conditioning warnings from
    those projections are propagated.
    """
    poly = require_trig(a)
    _check_inputs(poly, maps, x)
    alg = x.algebra
    acc = np.zeros(alg.basis_size, dtype=np.complex128)
    notes: list[str] = []
    for term in poly.terms:
        v = alg.vec(x)
        for axis, t in enumerate(maps):
            q = cesaro_limit_projection(t, np.exp(1j * term.phases[axis]))
            notes.extend(q.notes)
            v = q.apply_vec(v)
        acc += term.coefficient * v
    return LimitResult(alg.unvec(acc), tuple(notes))


def ergodic_average_family(
    maps: Sequence[LinearOperator], x: Element, box: Box,
    budget: int = DEFAULT_BUDGET,
) -> AverageFamily:
    """Unweighted averages M_N(T)x over the box."""
    return weighted_average_grid(
        TrigPolynomial.constant(box.dim), maps, x, box, budget
    )
