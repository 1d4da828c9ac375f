"""Linear maps on a block algebra and the absolute-contraction checks.

A map T qualifies as an absolute contraction when it is positive, does not
expand the operator norm, and does not increase the weighted trace on
positive elements. For the kinds constructed here those properties hold by
construction and are re-verified numerically:

  - operator-norm contraction via 1 - T(1) >= 0 (positive maps attain their
    norm at the identity),
  - trace domination via 1 - T'(1) >= 0 where T' is the adjoint for the
    pairing tau(T(x) y) = tau(x T'(y)),
  - complete positivity via the smallest eigenvalue of the Choi matrix of
    the map extended to the enveloping matrix algebra (strictly stronger
    than positivity, and what the constructed kinds actually satisfy).

Every map here preserves the blocks of the algebra, so it is held as one
d_b^2 x d_b^2 transfer matrix per block; the dense transfer matrix over all
blocks is assembled only on request, as an oracle. Its Choi matrix then
vanishes on every pair of distinct blocks, and only the per-block Choi
matrices need a spectrum. Raw transfer-matrix maps can be loaded and
verified too; one that couples blocks is rejected, and one that is not
Hermiticity-preserving fails structurally rather than by margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, Element, Projection
from .errors import StructuralError, UnsupportedError

UNITARY_TOL = 1e-10
KIND_TOL = 1e-10
# eigenvalues of phase*T within CLUSTER_TOL of 1 count towards the kernel of
# phase*T - 1; those within WARN_TOL of 1 but outside it are flagged
CLUSTER_TOL = 1e-10
WARN_TOL = 1e-8


class LinearOperator:
    """Linear map on one algebra, held as one transfer matrix per block.

    Block b's matrix (d_b^2, d_b^2) acts on block b's `Algebra.vec`
    coordinates (column k is the image of the k-th basis element of that
    block). The matrices are copied and made read-only; each copy keeps the
    memory order it was given in, since BLAS rounds a product by a C-ordered
    and an F-ordered matrix differently.
    """

    def __init__(self, algebra: Algebra, blocks: Sequence[np.ndarray],
                 notes: tuple[str, ...] = ()):
        if len(blocks) != algebra.num_blocks:
            raise StructuralError(
                f"{len(blocks)} transfer blocks for {algebra.num_blocks} algebra blocks"
            )
        mats = []
        for m, d in zip(blocks, algebra.block_dims):
            m = np.array(m, dtype=np.complex128, copy=True)
            if m.shape != (d * d, d * d):
                raise StructuralError(
                    f"transfer block shape {m.shape} does not match block dim {d}"
                )
            m.setflags(write=False)
            mats.append(m)
        self.algebra = algebra
        self.notes = tuple(notes)
        self.transfer_blocks = tuple(mats)

    @classmethod
    def from_matrix(cls, algebra: Algebra, matrix: np.ndarray) -> "LinearOperator":
        """Split a dense transfer matrix into its diagonal blocks.

        Raises StructuralError when the matrix couples blocks, that is when
        an entry off the block diagonal is nonzero.
        """
        m = np.asarray(matrix, dtype=np.complex128)
        dim = algebra.basis_size
        if m.shape != (dim, dim):
            raise StructuralError(
                f"transfer matrix shape {m.shape} does not match basis size {dim}"
            )
        owner = np.repeat(np.arange(algebra.num_blocks),
                          [d * d for d in algebra.block_dims])
        coupling = int(np.count_nonzero(m[owner[:, None] != owner[None, :]]))
        if coupling:
            raise StructuralError(
                f"transfer matrix couples blocks: {coupling} nonzero entries "
                "off the block diagonal"
            )
        return cls(algebra, [m[s, s] for s in algebra._slices])

    def transfer_matrix(self) -> np.ndarray:
        """Dense transfer matrix over all blocks, assembled on each call.

        For tests and oracles: nothing in the package multiplies by it.
        """
        dim = self.algebra.basis_size
        m = np.zeros((dim, dim), dtype=np.complex128)
        for s, blk in zip(self.algebra._slices, self.transfer_blocks):
            m[s, s] = blk
        return m

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        """T on one vector of vec coordinates, block by block."""
        out = np.empty(v.shape, dtype=np.complex128)
        for s, m in zip(self.algebra._slices, self.transfer_blocks):
            np.matmul(m, v[s], out=out[s])
        return out

    def apply_rows(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[i] = T(rows[i]) for 2-D stacks of vec-coordinate rows.

        One (points, d_b^2) x (d_b^2, d_b^2) product per block; out may be
        rows itself.
        """
        for s, m in zip(self.algebra._slices, self.transfer_blocks):
            np.matmul(rows[:, s], m.T, out=out[:, s])
        return out

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise StructuralError("element algebra does not match the map's algebra")
        return self.algebra.unvec(self.apply_vec(self.algebra.vec(x)))


def operator_from_function(algebra: Algebra,
                           fn: Callable[[Element], Element]) -> LinearOperator:
    """Materialize a raw map from a python callable (positivity unverified).

    Raises StructuralError when the map couples blocks.
    """
    cols = [
        algebra.vec(fn(algebra.basis_element(b, i, j)))
        for b, d in enumerate(algebra.block_dims)
        for i in range(d)
        for j in range(d)
    ]
    return LinearOperator.from_matrix(algebra, np.column_stack(cols))


class AbsoluteContraction(LinearOperator):
    """Per-block transfer matrices of a constructed contraction; `kind` is a label."""

    def __init__(self, algebra: Algebra, kind: str, blocks: Sequence[np.ndarray]):
        super().__init__(algebra, blocks)
        self.kind = kind

    def __repr__(self) -> str:
        return f"AbsoluteContraction(kind={self.kind!r}, dims={self.algebra.block_dims})"


# ---------------------------------------------------------------------------
# kind constructors

def _as_element(algebra: Algebra, obj) -> Element:
    if not isinstance(obj, Element):
        raise StructuralError(f"cannot interpret {type(obj).__name__} as an element")
    if obj.algebra != algebra:
        raise StructuralError("operand algebra does not match the target algebra")
    return obj


def _conjugation_blocks(algebra: Algebra, pairs) -> list[np.ndarray]:
    """Per-block transfer matrices of x -> sum_j A_j x B_j, given (A_j, B_j)
    block lists.

    Each block's columns come from one batched product over that block's
    stacked basis, added term by term from zero; this equals conjugating the
    basis elements one at a time bit for bit (a Kronecker product does not).
    """
    out = []
    for b, d in enumerate(algebra.block_dims):
        basis = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)
        acc = np.zeros_like(basis)
        for left, right in pairs:
            acc = acc + left[b] @ basis @ right[b]
        out.append(np.ascontiguousarray(acc.reshape(d * d, d * d).T))
    return out


def scaled_unitary(algebra: Algebra, unitary, scale: float = 1.0) -> AbsoluteContraction:
    """x -> scale * U* x U with U unitary and 0 < scale <= 1."""
    u = _as_element(algebra, unitary)
    s = float(scale)
    if not (0.0 < s <= 1.0):
        raise StructuralError(f"scale must lie in (0, 1], got {s}")
    for b in u.blocks:
        dev = float(np.abs(b.conj().T @ b - np.eye(b.shape[0])).max())
        if dev > UNITARY_TOL:
            raise StructuralError(f"unitarity violated by {dev:.3e}")
    adj = [b.conj().T for b in u.blocks]
    blocks = [s * m for m in _conjugation_blocks(algebra, [(adj, u.blocks)])]
    return AbsoluteContraction(algebra, "scaled_unitary", blocks)


def pinching(projections: Sequence[Projection | Element]) -> AbsoluteContraction:
    """x -> sum_i P_i x P_i with orthogonal projections, sum P_i <= 1."""
    if not projections:
        raise StructuralError("pinching needs at least one projection")
    projs = [p if isinstance(p, Projection) else Projection(p) for p in projections]
    algebra = projs[0].algebra
    if any(p.algebra != algebra for p in projs):
        raise StructuralError("pinching projections live in different algebras")
    total = algebra.zero()
    for p in projs:
        total = total + p.element
    gap = algebra.identity() - total
    low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in gap.blocks)
    if low < -KIND_TOL:
        raise StructuralError(f"projection sum exceeds the identity by {-low:.3e}")
    blocks = _conjugation_blocks(
        algebra, [(p.element.blocks, p.element.blocks) for p in projs]
    )
    return AbsoluteContraction(algebra, "pinching", blocks)


def schur_multiplier(algebra: Algebra, coefficients: np.ndarray) -> AbsoluteContraction:
    """Entrywise multiplier x -> H o x; single-block algebras only."""
    if algebra.num_blocks != 1:
        raise UnsupportedError("Schur multipliers are supported on single-block algebras only")
    h = np.array(coefficients, dtype=np.complex128, copy=True)
    d = algebra.block_dims[0]
    if h.shape != (d, d):
        raise StructuralError(f"coefficient shape {h.shape} does not match dim {d}")
    if float(np.abs(h - h.conj().T).max()) > KIND_TOL:
        raise StructuralError("coefficient matrix must be Hermitian")
    eig = np.linalg.eigvalsh((h + h.conj().T) / 2)
    if float(eig[0]) < -KIND_TOL:
        raise StructuralError(f"coefficient matrix not PSD: min eigenvalue {eig[0]:.3e}")
    diag_excess = float(np.max(np.real(np.diag(h)))) - 1.0
    if diag_excess > KIND_TOL:
        raise StructuralError(f"diagonal entries exceed 1 by {diag_excess:.3e}")
    return AbsoluteContraction(algebra, "schur_multiplier", [np.diag(h.reshape(-1))])


def kraus(algebra: Algebra, operators: Sequence) -> AbsoluteContraction:
    """x -> sum_j K_j* x K_j; requires sum K*K <= 1 and sum KK* <= 1.

    The first inequality makes the map subunital, the second makes
    tau(T(x)) <= tau(x) on positives; both are checked and the failing one
    is named in the rejection.
    """
    if not operators:
        raise StructuralError("kraus needs at least one operator")
    ops = [_as_element(algebra, k) for k in operators]
    for label, grams in (
        ("subunital", [k.adjoint() @ k for k in ops]),
        ("trace", [k @ k.adjoint() for k in ops]),
    ):
        total = algebra.zero()
        for g in grams:
            total = total + g
        top = max(
            float(np.linalg.eigvalsh((b + b.conj().T) / 2)[-1]) for b in total.blocks
        )
        if top > 1.0 + KIND_TOL:
            sums = "sum_j K_j* K_j" if label == "subunital" else "sum_j K_j K_j*"
            raise StructuralError(
                f"{sums} has max eigenvalue {top:.6g} > 1: fails the {label} condition"
            )
    pairs = [([b.conj().T for b in k.blocks], k.blocks) for k in ops]
    return AbsoluteContraction(algebra, "kraus", _conjugation_blocks(algebra, pairs))


def convex_combination(terms: Sequence[tuple[float, AbsoluteContraction]]) -> AbsoluteContraction:
    """sum_i lambda_i T_i with lambda_i >= 0 and sum lambda_i <= 1."""
    if not terms:
        raise StructuralError("convex combination needs at least one term")
    weights = [float(w) for w, _ in terms]
    if any(w < 0 for w in weights) or sum(weights) > 1.0 + 1e-12:
        raise StructuralError(f"weights must be nonnegative with sum <= 1, got {weights}")
    algebra = terms[0][1].algebra
    if any(t.algebra != algebra for _, t in terms):
        raise StructuralError("combined maps live in different algebras")
    blocks = []
    for b in range(algebra.num_blocks):
        m = np.zeros_like(terms[0][1].transfer_blocks[b])
        for w, (_, t) in zip(weights, terms):
            m = m + w * t.transfer_blocks[b]
        blocks.append(m)
    return AbsoluteContraction(algebra, "convex_combination", blocks)


def composition(maps: Sequence[AbsoluteContraction]) -> AbsoluteContraction:
    """Composite map; maps are applied in the listed order."""
    if not maps:
        raise StructuralError("composition needs at least one map")
    algebra = maps[0].algebra
    if any(m.algebra != algebra for m in maps):
        raise StructuralError("composed maps live in different algebras")
    blocks = []
    for b in range(algebra.num_blocks):
        m = maps[0].transfer_blocks[b]
        for t in maps[1:]:
            m = t.transfer_blocks[b] @ m
        blocks.append(m)
    return AbsoluteContraction(algebra, "composition", blocks)


def identity_map(algebra: Algebra) -> AbsoluteContraction:
    return scaled_unitary(algebra, algebra.identity(), 1.0)


def substochastic(algebra: Algebra, matrix) -> AbsoluteContraction:
    """Markov-type map: the diagonal of T(x) is S applied to the diagonal of x.

    Realized as the Kraus family {sqrt(S_ij) e_ji} on a single block, so the
    subunital condition asks for row sums <= 1 and the trace condition for
    column sums <= 1 (doubly substochastic S).
    """
    if algebra.num_blocks != 1:
        raise UnsupportedError("substochastic maps are single-block only")
    n = algebra.block_dims[0]
    s = np.asarray(matrix, dtype=np.float64)
    if s.shape != (n, n) or not np.all(np.isfinite(s)) or np.any(s < 0):
        raise StructuralError(f"need a nonnegative finite {n}x{n} matrix")
    ops = []
    for i in range(n):
        for j in range(n):
            if s[i, j] == 0.0:
                continue
            k = np.zeros((n, n), dtype=np.complex128)
            k[j, i] = np.sqrt(s[i, j])
            ops.append(algebra.element([k]))
    if not ops:
        ops.append(algebra.zero())
    return kraus(algebra, ops)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerificationReport:
    subunital_margin: float
    trace_margin: float
    choi_min_eig: float
    passed: bool


def _adjoint_permutation(d: int) -> np.ndarray:
    """Index permutation with vec(x*) = conj(vec(x))[perm] on one d x d block."""
    return np.arange(d * d).reshape(d, d).T.reshape(-1)


def is_hermiticity_preserving(op: LinearOperator, tol: float = 1e-10) -> bool:
    blocks = op.transfer_blocks
    scale = 1.0 + max(float(np.abs(m).max()) for m in blocks)
    dev = max(
        float(np.abs(np.conj(m[np.ix_(perm, perm)]) - m).max())
        for m, perm in zip(blocks, map(_adjoint_permutation, op.algebra.block_dims))
    )
    return dev <= tol * scale


def trace_adjoint_matrix(op: LinearOperator) -> list[np.ndarray]:
    """Per-block transfer matrices of the adjoint for the weighted trace pairing."""
    return [
        (m.conj().T * wt) / wt
        for m, wt in zip(op.transfer_blocks, op.algebra.trace_weights)
    ]


def _choi_block(m: np.ndarray, d: int) -> np.ndarray:
    """The Choi matrix of one block's transfer matrix, rows and columns (i, r):
    entry ((i, r), (j, c)) is the (r, c) coordinate of T(e_ij)."""
    return m.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_matrix(op: LinearOperator) -> np.ndarray:
    """Choi matrix of the map extended to the full matrix algebra.

    The extension first compresses to the block diagonal (itself completely
    positive), so positivity of this matrix is equivalent to complete
    positivity of the map on the block algebra. As an (n, n, n, n) array,
    entry (i, r, j, c) can be nonzero only when i, j, r, c all lie in one
    block: a map that preserves the blocks has a zero Choi matrix on every
    pair (B, B') of distinct blocks. A dense oracle; verification takes the
    per-block matrices instead.
    """
    alg = op.algebra
    n = alg.total_dim
    choi = np.zeros((n, n, n, n), dtype=np.complex128)
    off = 0
    for m, d in zip(op.transfer_blocks, alg.block_dims):
        span = slice(off, off + d)
        choi[span, span, span, span] = _choi_block(m, d).reshape(d, d, d, d)
        off += d
    return choi.reshape(n * n, n * n)


def verify_absolute_contraction(op: LinearOperator, tol: float = 1e-10) -> VerificationReport:
    """Check the three defining conditions and report signed margins.

    Raises StructuralError for maps that are not even Hermiticity
    preserving; margin failures are reported through `passed`, not raised.
    `choi_min_eig` is the smallest eigenvalue of the Choi matrix, taken
    over its diagonal blocks (one d_B d_B' submatrix per block pair),
    whose spectra make up its spectrum. A pair of distinct
    blocks has a zero submatrix, which contributes 0.0 without an
    eigensolve; on a single-block algebra the one block is the whole matrix.
    """
    if not is_hermiticity_preserving(op):
        raise StructuralError(
            "map is not Hermiticity-preserving; margins are undefined"
        )
    alg = op.algebra
    one = alg.identity()

    def min_eig(x: Element) -> float:
        return min(
            float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in x.blocks
        )

    def choi_min_of(b_in: int, b_out: int, m: np.ndarray, d: int) -> float:
        if b_in != b_out:
            return 0.0
        blk = _choi_block(m, d)
        return float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0])

    sub = min_eig(one - op.apply(one))
    tr = min_eig(one - LinearOperator(alg, trace_adjoint_matrix(op)).apply(one))
    choi_min = min(
        choi_min_of(b_in, b_out, m, d)
        for b_in, (m, d) in enumerate(zip(op.transfer_blocks, alg.block_dims))
        for b_out in range(alg.num_blocks)
    )
    passed = sub >= -tol and tr >= -tol and choi_min >= -tol
    return VerificationReport(sub, tr, choi_min, passed)


# ---------------------------------------------------------------------------
# iteration helpers

def apply_power(maps: Sequence[LinearOperator], k: Sequence[int], x: Element) -> Element:
    """T_d^{k_d} ... T_1^{k_1} x: the first listed map acts first."""
    if len(maps) != len(k):
        raise StructuralError(f"{len(maps)} maps but multi-index of length {len(k)}")
    kt = tuple(int(c) for c in k)
    if any(c < 1 for c in kt):
        raise ValueError(f"power multi-index must be >= 1 componentwise, got {kt}")
    y = x
    for t, c in zip(maps, kt):
        for _ in range(c):
            y = t.apply(y)
    return y


def cesaro_limit_projection(op: LinearOperator, phase: complex = 1.0) -> LinearOperator:
    """Mean ergodic projection of phase*T: onto ker(phase T - 1) along its range.

    Equals the limit of the one-parameter averages (1/N) sum_k (phase T)^k
    when phase*T is power bounded (von Neumann's mean ergodic theorem); zero
    when 1 is not an eigenvalue. It is taken block by block. On each block
    the kernel dimension k is the number of eigenvalues within CLUSTER_TOL
    of 1 (the map's kernel dimension is their sum). The right and left
    kernels V and W are the singular vectors of phase*T - 1 for its k
    smallest singular values, and the projection is V (W* V)^-1 W* (taken as
    a pseudo-inverse, which is the inverse whenever 1 is semisimple). Notes
    flag, without changing k: eigenvalues within WARN_TOL of 1 but outside
    CLUSTER_TOL, a count of singular values within CLUSTER_TOL other than k,
    and a W* V with a singular value within CLUSTER_TOL of 0 (eigenvalue 1
    not semisimple).
    """
    lam = complex(phase)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError(f"phase must be unimodular, got |phase| = {abs(lam)}")
    notes: list[str] = []
    blocks = [_block_projection(lam * m, notes) for m in op.transfer_blocks]
    return LinearOperator(op.algebra, blocks, tuple(notes))


def _block_projection(a: np.ndarray, notes: list[str]) -> np.ndarray:
    """The mean ergodic projection of one block's phase*T, as described in
    cesaro_limit_projection; appends that block's notes."""
    dim = a.shape[0]
    eigs = np.linalg.eigvals(a)
    dist = np.abs(eigs - 1.0)
    for v in eigs[(dist > CLUSTER_TOL) & (dist <= WARN_TOL)]:
        notes.append(
            "ill-conditioned separation: eigenvalue %r within %g of 1 but outside %g"
            % (complex(v), WARN_TOL, CLUSTER_TOL)
        )
    k = int(np.count_nonzero(dist <= CLUSTER_TOL))
    u, s, vh = np.linalg.svd(a - np.eye(dim))
    rank_k = int(np.count_nonzero(s <= CLUSTER_TOL))
    if rank_k != k:
        notes.append(
            f"rank disagreement: {k} eigenvalues within {CLUSTER_TOL:g} of 1 "
            f"but {rank_k} singular values of phase*T - 1 within it; kept {k}"
        )
    if k == 0:
        return np.zeros((dim, dim))
    if k == dim:
        return np.eye(dim)
    v, w = vh[dim - k:].conj().T, u[:, dim - k:]
    gram = w.conj().T @ v  # singular values: cosines between the two kernels
    cos_min = float(np.linalg.svd(gram, compute_uv=False)[-1])
    if cos_min <= CLUSTER_TOL:
        notes.append(
            f"eigenvalue 1 is not semisimple: W*V has singular value "
            f"{cos_min!r}; the averages have no limit"
        )
    return v @ np.linalg.pinv(gram) @ w.conj().T
