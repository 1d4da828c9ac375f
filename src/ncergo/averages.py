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

Every route applies a map block by block, through its per-block transfer
matrices; the dense transfer matrix is never formed. All routes are
sequential and deterministic: identical inputs produce bitwise identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from ._numeric import CHUNK_BYTES, DEFAULT_BUDGET, kahan_cumsum
from .algebra import Algebra, Box, Element, validate_multi_index, volume
from .contraction import LinearOperator, cesaro_limit_projection
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


def _walk_slabs(maps: Sequence[LinearOperator], x0: np.ndarray,
                grid: np.ndarray) -> int:
    """Fill grid[k - 1] = T^k x over the box [1, grid.shape[:-1]], slab by slab.

    x is written at the first point; each axis j then advances the whole
    filled slab of axes before it, one matrix product per block and step
    (`LinearOperator.apply_rows`), writing step s into grid[..., s, 0, ...]
    (step 0 overwrites the slab it starts from). Until axis j is walked,
    the slab holds power 0 of that axis and of every later one. A grid with
    no box axes (shape (dim,)) receives x. Counts one map application per
    row advanced, which is the per-point walk's count.
    """
    upper, dim = grid.shape[:-1], grid.shape[-1]
    grid.reshape(-1, dim)[0] = x0
    count = 0
    for j in range(len(upper)):
        lead = volume(upper[:j])
        view = grid.reshape(lead, upper[j], -1, dim)
        for s in range(upper[j]):
            maps[j].apply_rows(view[:, max(s - 1, 0), 0], view[:, s, 0])
        count += lead * upper[j]
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

    The constructor checks the inputs and the budget; `chunks` walks. It
    needs O(points of [1, box.upper]) map applications in total, which it
    leaves in `applications`. Axes 1..d-1 are walked into a lead slab (one
    matrix product per block and step of each axis, see _walk_slabs); the
    last axis is then walked on from it, in the same per-block products, in
    chunks of slabs of about CHUNK_BYTES. Each chunk is weighted, summed
    along axes 1..d-1 in place, summed along the last axis with the
    (total, compensation) pair carried from the chunk before, and divided
    by |N|. Every entry sees the same operations in the same order as a
    whole-grid walk followed by one compensated cumulative sum per axis, so
    the averages are bitwise those; only a chunk, not the grid over
    [1, box.upper], is held.
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
        slab = np.empty(upper[:-1] + (dim,), dtype=np.complex128)
        apps = _walk_slabs(self.maps[:-1], self.algebra.vec(self.x), slab)
        last, t_last = upper[-1], self.maps[-1]
        self.applications = apps + volume(upper[:-1]) * last
        # the last axis comes first in chunks, weights and volumes: chunk[t] is a slab
        w = np.moveaxis(eval_weight_box(self.weight, upper), -1, 0)
        vols = np.moveaxis(reduce(
            np.multiply.outer,
            [np.arange(1, u + 1, dtype=np.float64) for u in upper],
        ).reshape(upper), -1, 0)
        sel = (slice(None),) + tuple(
            slice(l - 1, u) for l, u in zip(box.lower[:-1], upper[:-1])
        )
        first = box.lower[-1] - 1
        # chunks of at least two slabs, and no one-slab tail: numpy rounds an
        # in-place complex multiply over one element differently from its bulk
        # loop, so a chunk may hold a single element only when the grid does
        size = min(last, max(2, CHUNK_BYTES // slab.nbytes))
        ends = list(range(size, last, size)) + [last]
        if len(ends) > 1 and ends[-1] - ends[-2] == 1:
            del ends[-2]
        # slabs are walked as 2-D (points, d_b^2) products, as in _walk_slabs: a
        # stacked matmul would take another BLAS route and round differently
        rows = slab.reshape(-1, dim)
        chunk = np.empty((min(size + 1, last),) + rows.shape, dtype=np.complex128)
        carry: list = []
        for s0, s1 in zip([0] + ends[:-1], ends):
            c = chunk[:s1 - s0]
            prev = rows
            for t in range(len(c)):
                t_last.apply_rows(prev, c[t])
                prev = c[t]
            rows[...] = prev
            c = c.reshape((len(c),) + slab.shape)
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
