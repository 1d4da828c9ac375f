"""Weight sequences on the positive lattice: trig polynomials and
almost-periodic-style weights given as a trig polynomial skeleton plus a
closed-form perturbation.

Indices are multi-indices k >= (1, ..., 1). Unimodular generators are stored
as phases, so a term evaluates to c * exp(i * sum_i theta_i k_i). A weight of
the perturbed kind declares its sup bound and which trig approximant serves
each accuracy level; the discrepancy checker measures

    D(N) = (1/|N|) * sum_{k <= N} |a(k) - P_eps(k)|

over a ladder of boxes and reports finite-box evidence only: no limit claim
is ever made by this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import _rng
from ._numeric import DEFAULT_BUDGET, kahan_cumsum
from .algebra import Box, validate_multi_index, volume
from .errors import BudgetError, ConfigError, IntegrityError, UnsupportedError


# ---------------------------------------------------------------------------
# trig polynomials

@dataclass(frozen=True)
class TrigTerm:
    coefficient: complex
    phases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "phases", tuple(float(t) for t in self.phases))
        if len(self.phases) == 0:
            raise ValueError("term needs at least one phase")


@dataclass(frozen=True)
class TrigPolynomial:
    dimension: int
    terms: tuple[TrigTerm, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        terms = tuple(
            t if isinstance(t, TrigTerm) else TrigTerm(*t) for t in self.terms
        )
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if len(t.phases) != self.dimension:
                raise ValueError(
                    f"term has {len(t.phases)} phases, expected {self.dimension}"
                )

    @classmethod
    def constant(cls, dimension: int, value: complex = 1.0) -> "TrigPolynomial":
        return cls(dimension, (TrigTerm(value, (0.0,) * dimension),))

    def eval(self, k: Sequence[int]) -> complex:
        kt = validate_multi_index(k)
        if len(kt) != self.dimension:
            raise ValueError(f"index dimension {len(kt)} != {self.dimension}")
        out = 0j
        for t in self.terms:
            out += t.coefficient * np.exp(
                1j * math.fsum(p * c for p, c in zip(t.phases, kt))
            )
        return complex(out)

    def eval_box(self, upper: Sequence[int]) -> np.ndarray:
        """Values on [1, upper]; entry [i_1-1, ..., i_d-1] is a(i)."""
        up = validate_multi_index(upper)
        if len(up) != self.dimension:
            raise ValueError(f"box dimension {len(up)} != {self.dimension}")
        out = np.zeros(up, dtype=np.complex128)
        for t in self.terms:
            axes = [
                np.exp(1j * p * np.arange(1, n + 1)) for p, n in zip(t.phases, up)
            ]
            out += t.coefficient * reduce(np.multiply.outer, axes)
        return out

    def coefficient_bound(self) -> float:
        """sum |c_j|, a sup bound for the values."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    def scaled(self, factor: complex) -> "TrigPolynomial":
        return TrigPolynomial(
            self.dimension,
            tuple(TrigTerm(factor * t.coefficient, t.phases) for t in self.terms),
        )


# ---------------------------------------------------------------------------
# perturbation rules

class PerturbationRule:
    """Closed-form real perturbation eta(k); subclasses are immutable."""

    def eval(self, k: Sequence[int]) -> float:
        raise NotImplementedError

    def eval_box(self, upper: Sequence[int]) -> np.ndarray:
        raise NotImplementedError

    def sup_bound(self) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "PerturbationRule":
        raise NotImplementedError


def _min_coordinate_grid(upper: tuple[int, ...]) -> np.ndarray:
    axes = [np.arange(1, n + 1) for n in upper]
    return reduce(np.minimum.outer, axes).astype(np.float64)


@dataclass(frozen=True)
class InverseMinDecay(PerturbationRule):
    """eta(k) = amplitude / min(k)^exponent, exponent > 0."""

    amplitude: float
    exponent: float = 1.0

    def __post_init__(self):
        if float(self.exponent) <= 0:
            raise ValueError("exponent must be positive")

    def eval(self, k: Sequence[int]) -> float:
        return float(self.amplitude) / float(min(k)) ** float(self.exponent)

    def eval_box(self, upper: Sequence[int]) -> np.ndarray:
        m = _min_coordinate_grid(tuple(upper))
        return float(self.amplitude) / m ** float(self.exponent)

    def sup_bound(self) -> float:
        return abs(float(self.amplitude))

    def scaled(self, factor: float) -> "InverseMinDecay":
        return InverseMinDecay(float(self.amplitude) * factor, self.exponent)


class PeriodicZeroMean(PerturbationRule):
    """Lattice-periodic table with exactly zero mean over one period."""

    def __init__(self, table: np.ndarray):
        t = np.array(table, dtype=np.float64, copy=True)
        if t.ndim < 1 or t.size == 0:
            raise ValueError("period table must be a nonempty array")
        t -= t.mean()
        t.setflags(write=False)
        self.table = t

    def eval(self, k: Sequence[int]) -> float:
        idx = tuple((c - 1) % p for c, p in zip(k, self.table.shape))
        return float(self.table[idx])

    def eval_box(self, upper: Sequence[int]) -> np.ndarray:
        up = tuple(upper)
        grids = np.ix_(*[(np.arange(1, n + 1) - 1) % p
                         for n, p in zip(up, self.table.shape)])
        return self.table[grids]

    def sup_bound(self) -> float:
        return float(np.abs(self.table).max())

    def scaled(self, factor: float) -> "PeriodicZeroMean":
        return PeriodicZeroMean(self.table * factor)


@dataclass(frozen=True)
class SeededNoise(PerturbationRule):
    """Bounded stateless noise with amplitude schedule c / min(k)^exponent.

    The value at k depends only on (seed, k), so any evaluation order or box
    partition yields identical results.
    """

    seed: int
    amplitude: float
    exponent: float = 0.0

    def __post_init__(self):
        if float(self.exponent) < 0:
            raise ValueError("exponent must be >= 0")

    def eval(self, k: Sequence[int]) -> float:
        u = float(_rng.unit_noise(self.seed, np.asarray([k], dtype=np.uint64))[0])
        return float(self.amplitude) * u / float(min(k)) ** float(self.exponent)

    def eval_box(self, upper: Sequence[int]) -> np.ndarray:
        up = tuple(upper)
        mesh = np.stack(
            np.meshgrid(*[np.arange(1, n + 1) for n in up], indexing="ij"), axis=-1
        )
        u = _rng.unit_noise(self.seed, mesh.astype(np.uint64))
        # same association as eval() so both paths agree bit for bit
        return float(self.amplitude) * u / _min_coordinate_grid(up) ** float(self.exponent)

    def sup_bound(self) -> float:
        return abs(float(self.amplitude))

    def scaled(self, factor: float) -> "SeededNoise":
        return SeededNoise(self.seed, float(self.amplitude) * factor, self.exponent)


# ---------------------------------------------------------------------------
# perturbed weights

@dataclass(frozen=True)
class BesicovitchWeight:
    """Trig skeleton plus perturbation, with declared sup bound.

    approximants maps an accuracy level to the trig polynomial standing in
    for the weight at that level; when empty, the skeleton serves every
    level.
    """

    base: TrigPolynomial
    perturbation: PerturbationRule | None
    bound: float
    approximants: tuple[tuple[float, TrigPolynomial], ...] = ()

    def __post_init__(self):
        if float(self.bound) < 0:
            raise ValueError("declared bound must be >= 0")
        for _, poly in self.approximants:
            if poly.dimension != self.base.dimension:
                raise ConfigError("approximant dimension mismatch")

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def eval(self, k: Sequence[int]) -> complex:
        v = self.base.eval(k)
        if self.perturbation is not None:
            v += self.perturbation.eval(k)
        return complex(v)

    def eval_box(self, upper: Sequence[int]) -> np.ndarray:
        out = self.base.eval_box(upper)
        if self.perturbation is not None:
            out = out + self.perturbation.eval_box(upper)
        return out

    def approximant_for(self, eps: float) -> TrigPolynomial:
        if not self.approximants:
            return self.base
        for level, poly in self.approximants:
            if abs(level - eps) <= 1e-12 * max(1.0, abs(eps)):
                return poly
        raise ConfigError(f"no approximant declared for accuracy level {eps}")

    def scaled(self, factor: float) -> "BesicovitchWeight":
        return BesicovitchWeight(
            self.base.scaled(factor),
            None if self.perturbation is None else self.perturbation.scaled(factor),
            abs(factor) * float(self.bound),
            tuple((lv, p.scaled(factor)) for lv, p in self.approximants),
        )


Weight = TrigPolynomial | BesicovitchWeight


def weight_dimension(a: Weight) -> int:
    return a.dimension


def declared_bound(a: Weight) -> float:
    if isinstance(a, TrigPolynomial):
        return a.coefficient_bound()
    return float(a.bound)


def eval_weight_box(a: Weight, upper: Sequence[int]) -> np.ndarray:
    return np.asarray(a.eval_box(upper), dtype=np.complex128)


def normalized(a: Weight) -> Weight:
    """Rescale so the declared sup bound becomes 1."""
    b = declared_bound(a)
    if b <= 0:
        raise ValueError("cannot normalize a weight with nonpositive bound")
    return a.scaled(1.0 / b)


# ---------------------------------------------------------------------------
# discrepancy ladder

@dataclass(frozen=True)
class DiscrepancyRow:
    upper: tuple[int, ...]
    min_coordinate: int
    discrepancy: float


@dataclass(frozen=True)
class BesicovitchReport:
    epsilon: float
    cutoff: tuple[int, ...]
    onset: int
    rows: tuple[DiscrepancyRow, ...]
    onset_observed: int | None
    passed: bool
    finite_box_evidence: bool = True


def default_ladder(cutoff: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Diagonal rungs at powers of two, truncated to the cutoff box."""
    top = max(cutoff)
    rungs, j = [], 1
    while j < top:
        rungs.append(j)
        j *= 2
    rungs.append(top)
    boxes = []
    for j in rungs:
        box = tuple(min(j, c) for c in cutoff)
        if box not in boxes:
            boxes.append(box)
    return boxes


def verify_besicovitch(
    a: Weight,
    eps: float,
    cutoff: Sequence[int],
    onset: int = 1,
    ladder: Sequence[Sequence[int]] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BesicovitchReport:
    """Mean absolute deviation from the declared approximant over a ladder.

    passed means D(N) < eps at every tested rung with min(N) >= onset;
    onset_observed is the smallest tested min(N) from which every later rung
    passes. Evidence is for the tested boxes only.
    """
    if eps <= 0:
        raise ValueError("accuracy level must be positive")
    cut = validate_multi_index(cutoff)
    if len(cut) != weight_dimension(a):
        raise ConfigError("cutoff dimension does not match the weight")
    if volume(cut) > budget:
        raise BudgetError(
            f"cutoff box has {volume(cut)} points, budget is {budget}"
        )
    if isinstance(a, TrigPolynomial):
        approx = a
    else:
        approx = a.approximant_for(eps)
    dev = np.abs(eval_weight_box(a, cut) - approx.eval_box(cut))
    for axis in range(dev.ndim):
        dev = kahan_cumsum(dev, axis)
    vols = reduce(np.multiply.outer,
                  [np.arange(1, n + 1, dtype=np.float64) for n in cut])
    mean_dev = dev / vols

    boxes = (
        [tuple(validate_multi_index(b)) for b in ladder]
        if ladder is not None
        else default_ladder(cut)
    )
    rows = []
    for b in boxes:
        if len(b) != len(cut) or any(c > n for c, n in zip(b, cut)):
            raise ConfigError(f"ladder box {b} outside cutoff {cut}")
        idx = tuple(c - 1 for c in b)
        rows.append(DiscrepancyRow(b, min(b), float(mean_dev[idx])))
    rows.sort(key=lambda r: (r.min_coordinate, r.upper))

    passed = all(r.discrepancy < eps for r in rows if r.min_coordinate >= onset)
    onset_observed = None
    for i in range(len(rows) - 1, -1, -1):
        if rows[i].discrepancy < eps:
            onset_observed = rows[i].min_coordinate
        else:
            break
    return BesicovitchReport(
        float(eps), cut, int(onset), tuple(rows), onset_observed, passed
    )


def sup_bound(a: Weight, sample_box: Box, tol: float = 1e-12) -> float:
    """Exhaustive max |a(k)| over the box; errors if the declared bound lies.

    The witness index of any violation is named in the error.
    """
    values = eval_weight_box(a, sample_box.upper)
    sel = tuple(slice(l - 1, u) for l, u in zip(sample_box.lower, sample_box.upper))
    window = np.abs(values[sel])
    flat = int(np.argmax(window))
    local = np.unravel_index(flat, window.shape)
    witness = tuple(int(c + l) for c, l in zip(local, sample_box.lower))
    observed = float(window[local])
    declared = declared_bound(a)
    if observed > declared + tol:
        raise IntegrityError(
            f"declared bound {declared} violated: |a({witness})| = {observed}"
        )
    return observed


def require_trig(a: Weight) -> TrigPolynomial:
    if not isinstance(a, TrigPolynomial):
        raise UnsupportedError(
            "operation requires a trig polynomial weight; pass an approximant"
        )
    return a
