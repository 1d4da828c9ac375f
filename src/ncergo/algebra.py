"""Finite direct sums of complex matrix blocks with weighted traces.

An algebra here is M_{d_1} + ... + M_{d_B} with a trace
tau(x) = sum_b w_b tr(x_b), w_b > 0. Elements are immutable tuples of dense
blocks. All norms, moduli and spectral objects are computed blockwise from
eigenvalue or singular-value decompositions, except the p = 2 norm, which is
read off the entries; nothing in this module mutates shared state, so values
can be used freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Number
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._numeric import CHUNK_BYTES
from .errors import NumericError, StructuralError

HERM_HINT_RTOL = 1e-12
PROJ_TOL = 1e-10


def format_float(v: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# multi-indices and boxes

def volume(k: Sequence[int]) -> int:
    out = 1
    for c in k:
        out *= int(c)
    return out


def validate_multi_index(k: Sequence[int]) -> tuple[int, ...]:
    kt = tuple(int(c) for c in k)
    if len(kt) == 0:
        raise ValueError("multi-index must have dimension >= 1")
    if any(c < 1 for c in kt):
        raise ValueError(f"multi-index components must be >= 1, got {kt}")
    return kt


@dataclass(frozen=True)
class Box:
    """Axis-aligned lattice box [lower_1, upper_1] x ... x [lower_d, upper_d]."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        lo = validate_multi_index(self.lower)
        up = validate_multi_index(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if len(lo) != len(up):
            raise ValueError("box corners must share a dimension")
        if any(l > u for l, u in zip(lo, up)):
            raise ValueError(f"empty box: lower {lo} exceeds upper {up}")

    @classmethod
    def full(cls, upper: Sequence[int]) -> "Box":
        up = validate_multi_index(upper)
        return cls((1,) * len(up), up)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l + 1 for l, u in zip(self.lower, self.upper))

    @property
    def size(self) -> int:
        return volume(self.shape)

    def contains(self, k: Sequence[int]) -> bool:
        return len(k) == self.dim and all(
            l <= c <= u for c, l, u in zip(k, self.lower, self.upper)
        )

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Lexicographic iteration (last coordinate fastest)."""
        return itertools.product(
            *(range(l, u + 1) for l, u in zip(self.lower, self.upper))
        )


# ---------------------------------------------------------------------------
# algebra and elements

class Algebra:
    """Block dimensions plus strictly positive trace weights."""

    __slots__ = ("block_dims", "trace_weights", "_slices")

    def __init__(self, block_dims: Sequence[int], trace_weights: Sequence[float] | None = None):
        dims = tuple(int(d) for d in block_dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError(f"block dimensions must be >= 1, got {dims}")
        if trace_weights is None:
            weights = (1.0,) * len(dims)
        else:
            weights = tuple(float(w) for w in trace_weights)
        if len(weights) != len(dims):
            raise ValueError("one trace weight per block required")
        if any(not np.isfinite(w) or w <= 0 for w in weights):
            raise ValueError(f"trace weights must be positive and finite, got {weights}")
        self.block_dims = dims
        self.trace_weights = weights
        slices, off = [], 0
        for d in dims:
            slices.append(slice(off, off + d * d))
            off += d * d
        self._slices = tuple(slices)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def basis_size(self) -> int:
        """Length of the vectorized representation, sum of squared dims."""
        return sum(d * d for d in self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def total_trace(self) -> float:
        """tau(1)."""
        return float(sum(w * d for w, d in zip(self.trace_weights, self.block_dims)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.block_dims == other.block_dims
            and self.trace_weights == other.trace_weights
        )

    def __hash__(self) -> int:
        return hash((self.block_dims, self.trace_weights))

    def __repr__(self) -> str:
        return f"Algebra(block_dims={self.block_dims}, trace_weights={self.trace_weights})"

    def element(self, blocks: Iterable[np.ndarray], hermitian_hint: bool | None = None) -> "Element":
        return Element(self, blocks, hermitian_hint)

    def zero(self) -> "Element":
        return Element(
            self, [np.zeros((d, d), dtype=np.complex128) for d in self.block_dims], True
        )

    def identity(self) -> "Element":
        return Element(
            self, [np.eye(d, dtype=np.complex128) for d in self.block_dims], True
        )

    def scalar(self, value: complex) -> "Element":
        return Element(
            self,
            [value * np.eye(d, dtype=np.complex128) for d in self.block_dims],
            bool(np.imag(value) == 0),
        )

    def basis_element(self, block: int, row: int, col: int) -> "Element":
        blocks = [np.zeros((d, d), dtype=np.complex128) for d in self.block_dims]
        blocks[block][row, col] = 1.0
        return Element(self, blocks)

    def random_element(
        self, rng: np.random.Generator, kind: str = "general", scale: float = 1.0
    ) -> "Element":
        """Seeded dense element; kind in {general, hermitian, positive}."""
        blocks = []
        for d in self.block_dims:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if kind == "general":
                b = g / np.sqrt(2 * d)
            elif kind == "hermitian":
                b = (g + g.conj().T) / (2 * np.sqrt(d))
            elif kind == "positive":
                b = (g @ g.conj().T) / (2 * d)
            else:
                raise ValueError(f"unknown random element kind {kind!r}")
            blocks.append(scale * b)
        hint = True if kind in ("hermitian", "positive") else None
        return Element(self, blocks, hint)

    def vec(self, x: "Element") -> np.ndarray:
        """Concatenated row-major vectorization of the blocks."""
        return np.concatenate([b.reshape(-1) for b in x.blocks])

    def unvec(self, v: np.ndarray, hermitian_hint: bool | None = None) -> "Element":
        v = np.asarray(v, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.basis_size:
            raise StructuralError(
                f"vector length {v.shape[0]} does not match basis size {self.basis_size}"
            )
        blocks = [v[s].reshape(d, d) for s, d in zip(self._slices, self.block_dims)]
        return Element(self, blocks, hermitian_hint)

    def block_stacks(self, rows: np.ndarray) -> list[np.ndarray]:
        """Views (n, d_b, d_b), one per block, of vectorized members (n, basis_size)."""
        return [rows[:, s].reshape(-1, d, d)
                for s, d in zip(self._slices, self.block_dims)]


class Element:
    """Immutable member of an Algebra: one dense complex block per summand."""

    __slots__ = ("algebra", "blocks", "hermitian_hint")

    def __init__(
        self,
        algebra: Algebra,
        blocks: Iterable[np.ndarray],
        hermitian_hint: bool | None = None,
    ):
        mats = []
        blocks = list(blocks)
        if len(blocks) != algebra.num_blocks:
            raise StructuralError(
                f"expected {algebra.num_blocks} blocks, got {len(blocks)}"
            )
        for b, d in zip(blocks, algebra.block_dims):
            m = np.array(b, dtype=np.complex128, copy=True, order="C")
            if m.shape != (d, d):
                raise StructuralError(f"block shape {m.shape} does not match dim {d}")
            if not np.all(np.isfinite(m.view(np.float64))):
                raise NumericError("non-finite entries in element block")
            m.setflags(write=False)
            mats.append(m)
        self.algebra = algebra
        self.blocks = tuple(mats)
        if hermitian_hint:
            dev = self._hermitian_deviation()
            bound = HERM_HINT_RTOL * (1.0 + self.max_abs())
            if dev > bound:
                raise StructuralError(
                    f"hermitian_hint set but max |x - x*| entry is {dev:.3e} > {bound:.3e}"
                )
        self.hermitian_hint = hermitian_hint

    # -- structure ---------------------------------------------------------

    def _hermitian_deviation(self) -> float:
        return max(
            float(np.abs(b - b.conj().T).max()) if b.size else 0.0 for b in self.blocks
        )

    def max_abs(self) -> float:
        return max(float(np.abs(b).max()) if b.size else 0.0 for b in self.blocks)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return self._hermitian_deviation() <= tol * (1.0 + self.max_abs())

    def adjoint(self) -> "Element":
        return Element(
            self.algebra, [b.conj().T for b in self.blocks], self.hermitian_hint
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_same_algebra(self, other: "Element"):
        if self.algebra != other.algebra:
            raise StructuralError("elements live in different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        hint = True if (self.hermitian_hint and other.hermitian_hint) else None
        return Element(
            self.algebra,
            [a + b for a, b in zip(self.blocks, other.blocks)],
            hint,
        )

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        hint = True if (self.hermitian_hint and other.hermitian_hint) else None
        return Element(
            self.algebra,
            [a - b for a, b in zip(self.blocks, other.blocks)],
            hint,
        )

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-b for b in self.blocks], self.hermitian_hint)

    def __mul__(self, scalar) -> "Element":
        if not isinstance(scalar, Number):
            return NotImplemented
        hint = self.hermitian_hint if float(np.imag(complex(scalar))) == 0.0 else None
        return Element(self.algebra, [scalar * b for b in self.blocks], hint)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Element":
        return self * (1.0 / scalar)

    def __matmul__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        return Element(
            self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
        )

    def __repr__(self) -> str:
        return f"Element(dims={self.algebra.block_dims}, max_abs={self.max_abs():.4g})"


# ---------------------------------------------------------------------------
# stack reductions
#
# numpy reduces a short axis one output element at a time, so a reduction
# over the (d, d) axes of an (n, d, d) stack of small blocks runs about 10x
# slower than the same work done as elementwise passes along the members.
# These kernels make the passes: stack_abs lays a stack's moduli out member
# axis last, and stack_max and stack_sum reduce one of its matrix axes with
# O(d) elementwise calls over contiguous (d, n) or (n,) slices. Max and min
# are exact, so a max kernel over one axis equals numpy's reduction over that
# axis bit for bit, signs of zero included. stack_sum adds in index order,
# which can differ from numpy's order in the last bit, so its sums feed padded
# screening bounds only, never a reported number.

def fold(ufunc, arrays: Iterable[np.ndarray]) -> np.ndarray:
    """ufunc applied left to right over equal-shape arrays, into a new array."""
    it = iter(arrays)
    out = np.array(next(it))
    for a in it:
        ufunc(out, a, out=out)
    return out


def stack_abs(s: np.ndarray) -> np.ndarray:
    """|x_kij| of an (n, d, d) stack as a C-contiguous (d, d, n) array."""
    d = s.shape[-1]
    return np.abs(s.transpose(1, 2, 0), out=np.empty((d, d, len(s))))


def stack_max(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """a.max(axis) bit for bit, one elementwise pass per slice along axis."""
    return fold(np.maximum, a.swapaxes(0, axis))


def stack_sum(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """a.sum(axis) up to rounding: the slices along axis added in index order."""
    return fold(np.add, a.swapaxes(0, axis))


def member_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=0) of an (n, k) array bit for bit, one 1-D pass per column."""
    return np.array([c.max() for c in a.T])


def stack_abs_max(stacks: Iterable[np.ndarray]) -> np.ndarray:
    """Per-member largest |entry| over (n, d_b, d_b) stacks, all blocks.

    Member k's value equals np.abs(x).max() over its entries, bit for bit.
    """
    return fold(np.maximum, (stack_max(stack_max(stack_abs(s))) for s in stacks))


def stack_hermitian_deviation(
    stacks: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-member (max |x - x*| entry, max |x| entry) over (n, d_b, d_b) stacks.

    Member k's pair equals Element._hermitian_deviation() and max_abs() of
    the element whose blocks are stacks[b][k].
    """
    dev = stack_abs_max(s - np.conj(np.swapaxes(s, -1, -2)) for s in stacks)
    return dev, stack_abs_max(stacks)


def stack_hermitian_part(s: np.ndarray) -> np.ndarray:
    """(x + x*) / 2 for every matrix x in a (..., d, d) stack."""
    return (s + np.conj(np.swapaxes(s, -1, -2))) / 2


def stack_eig_map(s: np.ndarray, f) -> np.ndarray:
    """f applied to the eigenvalues of every Hermitian matrix in s (..., d, d).

    One batched eigh, which reads each matrix's lower triangle only.
    """
    lam, v = np.linalg.eigh(s)
    return (v * f(lam)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def stack_positive_part(s: np.ndarray) -> np.ndarray:
    """Positive part of every Hermitian matrix in s (..., d, d).

    Callers holding general matrices take stack_hermitian_part first.
    """
    return stack_eig_map(s, lambda lam: np.maximum(lam, 0.0))


def stack_is_positive(stacks: Sequence[np.ndarray], tol: float = 1e-10) -> np.ndarray:
    """Per-member positivity over (n, d_b, d_b) stacks.

    Member k passes when it is Hermitian within tol (relative, as
    Element.is_hermitian) and every block's Hermitian part has smallest
    eigenvalue >= -tol. Only members that pass the Hermitian test are
    decomposed.
    """
    dev, mag = stack_hermitian_deviation(stacks)
    ok = dev <= tol * (1.0 + mag)
    for s in stacks:
        idx = np.flatnonzero(ok)
        if idx.size:
            ok[idx] = np.linalg.eigvalsh(stack_hermitian_part(s[idx]))[:, 0] >= -tol
    return ok


def stack_trace(alg: Algebra, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Per-member weighted trace over (n, d_b, d_b) stacks.

    Member k's value equals trace() of the element whose blocks are
    stacks[b][k], bit for bit: blocks are added in block order from 0.
    """
    total = 0
    for w, s in zip(alg.trace_weights, stacks):
        total = total + w * np.trace(s, axis1=1, axis2=2)
    return total


def stack_lp_norm(alg: Algebra, stacks: Sequence[np.ndarray], p: float) -> np.ndarray:
    """Per-member weighted Schatten-type norm over (n, d_b, d_b) stacks.

    One batched singular-value solve per block; p = inf gives the operator
    norm. p = 2 needs no solve: it is the Frobenius form
    (sum_b w_b sum_ij (Re x_ij^2 + Im x_ij^2))^(1/2), summed a chunk of
    members at a time. Blocks are added in block order from 0. The final
    root is a Python float power per member, since numpy's vectorized power
    can differ from libm pow in the last bit.
    """
    if p != np.inf:
        p = float(p)
        if not np.isfinite(p) or p < 1:
            raise ValueError(f"norm order must satisfy p >= 1 or p = inf, got {p}")
    if p == 2.0:
        powers = []
        for s in stacks:
            # member chunks keep the Re^2 / Im^2 temporaries near CHUNK_BYTES
            rows = max(1, CHUNK_BYTES // (s.itemsize * s.shape[1] * s.shape[2]))
            sums = np.empty(len(s))
            for i in range(0, len(s), rows):
                c = s[i:i + rows]
                np.sum(c.real**2 + c.imag**2, axis=(1, 2), out=sums[i:i + rows])
            powers.append(sums)
    else:
        svals = [np.linalg.svd(s, compute_uv=False) for s in stacks]
        if p == np.inf:
            return np.maximum.reduce([s[:, 0] for s in svals])
        powers = [np.sum(s**p, axis=-1) for s in svals]
    total = 0
    for w, s in zip(alg.trace_weights, powers):
        total = total + w * s
    return np.array([t ** (1.0 / p) for t in total.tolist()], dtype=np.float64)


@dataclass(frozen=True)
class Projection:
    """Element verified to be an orthogonal projection."""

    element: Element

    def __post_init__(self):
        e = self.element
        dev_idem = max(
            float(np.abs(b @ b - b).max()) for b in e.blocks
        )
        if not e.is_hermitian(PROJ_TOL):
            raise StructuralError("projection candidate is not Hermitian")
        if dev_idem > PROJ_TOL:
            raise StructuralError(
                f"projection candidate fails e*e = e by {dev_idem:.3e}"
            )
        for b in e.blocks:
            eig = np.linalg.eigvalsh((b + b.conj().T) / 2)
            if np.any(np.minimum(np.abs(eig), np.abs(eig - 1.0)) > 1e-8):
                raise StructuralError("projection eigenvalues not within 1e-8 of {0,1}")

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra


# ---------------------------------------------------------------------------
# trace, norms, spectral operations

def _member_stacks(x: Element) -> list[np.ndarray]:
    return [b[None] for b in x.blocks]


def trace(x: Element) -> complex:
    """Weighted trace; real up to rounding when x is Hermitian."""
    return complex(stack_trace(x.algebra, _member_stacks(x))[0])


def modulus(x: Element) -> Element:
    """(x* x)^(1/2), computed from singular values blockwise."""
    out = []
    for b in x.blocks:
        u, s, vh = np.linalg.svd(b)
        out.append(vh.conj().T @ (s[:, None] * vh))
    return Element(x.algebra, out, True)


def lp_norm(x: Element, p: float) -> float:
    """Weighted Schatten-type norm; p = inf gives the operator norm."""
    return float(stack_lp_norm(x.algebra, _member_stacks(x), p)[0])


def positive_part(x: Element) -> Element:
    """Positive part of the Hermitian part of x."""
    return Element(
        x.algebra,
        [stack_positive_part(stack_hermitian_part(s))[0] for s in _member_stacks(x)],
        True,
    )


def is_positive(x: Element, tol: float = 1e-10) -> bool:
    return bool(stack_is_positive(_member_stacks(x), tol)[0])


def spectral_projection(x: Element, interval: tuple[float, float]) -> Projection:
    """Projection onto eigenspaces with eigenvalue in the closed interval, as
    decided on the computed eigenvalues; bau re-measures what e does."""
    lo, hi = float(interval[0]), float(interval[1])
    if np.isnan(lo) or np.isnan(hi) or lo > hi:
        raise ValueError(f"invalid closed interval [{lo}, {hi}]")
    if not x.is_hermitian(1e-10):
        raise StructuralError("spectral projection requires a Hermitian element")
    blocks = []
    for b in x.blocks:
        eig, vecs = np.linalg.eigh((b + b.conj().T) / 2)
        vs = vecs[:, (eig >= lo) & (eig <= hi)]
        blocks.append(vs @ vs.conj().T)
    return Projection(Element(x.algebra, blocks, True))


# ---------------------------------------------------------------------------
# text format

def element_to_text(x: Element) -> str:
    """Header line with dims and weights, then one row-major block per line."""
    alg = x.algebra
    header = "blocks: %s; weights: %s" % (
        ",".join(str(d) for d in alg.block_dims),
        ",".join(format_float(w) for w in alg.trace_weights),
    )
    lines = [header]
    for b in x.blocks:
        flat = b.reshape(-1)
        lines.append(
            " ".join(
                "%s,%s" % (format_float(v.real), format_float(v.imag)) for v in flat
            )
        )
    return "\n".join(lines) + "\n"


def element_from_text(text: str) -> Element:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise StructuralError("empty element text")
    header = lines[0]
    try:
        blocks_part, weights_part = header.split(";")
        dims = [int(t) for t in blocks_part.split(":", 1)[1].split(",")]
        weights = [float(t) for t in weights_part.split(":", 1)[1].split(",")]
    except (ValueError, IndexError) as exc:
        raise StructuralError(f"malformed element header {header!r}") from exc
    alg = Algebra(dims, weights)
    tokens = " ".join(lines[1:]).split()
    expected = alg.basis_size
    if len(tokens) != expected:
        raise StructuralError(f"expected {expected} entries, got {len(tokens)}")
    values = []
    for tok in tokens:
        try:
            re_s, im_s = tok.split(",")
            values.append(complex(float(re_s), float(im_s)))
        except ValueError as exc:
            raise StructuralError(f"malformed entry {tok!r}") from exc
    return alg.unvec(np.array(values, dtype=np.complex128))
