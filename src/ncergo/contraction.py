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

Raw transfer-matrix maps can be loaded and verified too; a raw map that is
not Hermiticity-preserving fails structurally rather than by margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, Element, Projection, element_from_text
from .errors import StructuralError, UnsupportedError

UNITARY_TOL = 1e-10
KIND_TOL = 1e-10
# eigenvalues of phase*T within CLUSTER_TOL of 1 count towards the kernel of
# phase*T - 1; those within WARN_TOL of 1 but outside it are flagged
CLUSTER_TOL = 1e-10
WARN_TOL = 1e-8


class LinearOperator:
    """Linear map on one algebra, held as its transfer matrix.

    The matrix acts on `Algebra.vec` coordinates (column k is the image of
    the k-th basis element); it is copied and made read-only here.
    """

    def __init__(self, algebra: Algebra, matrix: np.ndarray, notes: tuple[str, ...] = ()):
        m = np.array(matrix, dtype=np.complex128, copy=True)
        dim = algebra.basis_size
        if m.shape != (dim, dim):
            raise StructuralError(
                f"transfer matrix shape {m.shape} does not match basis size {dim}"
            )
        m.setflags(write=False)
        self.algebra = algebra
        self.notes = tuple(notes)
        self._transfer = m

    def transfer_matrix(self) -> np.ndarray:
        return self._transfer

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise StructuralError("element algebra does not match the map's algebra")
        return self.algebra.unvec(self._transfer @ self.algebra.vec(x))


def operator_from_function(algebra: Algebra, fn: Callable[[Element], Element],
                           notes: tuple[str, ...] = ()) -> LinearOperator:
    """Materialize a raw map from a python callable (positivity unverified)."""
    cols = [
        algebra.vec(fn(algebra.basis_element(b, i, j)))
        for b, d in enumerate(algebra.block_dims)
        for i in range(d)
        for j in range(d)
    ]
    return LinearOperator(algebra, np.column_stack(cols),
                          notes + ("positivity unverified",))


class AbsoluteContraction(LinearOperator):
    """Transfer matrix of a constructed contraction; `kind` is a label."""

    def __init__(self, algebra: Algebra, kind: str, matrix: np.ndarray,
                 notes: tuple[str, ...] = ()):
        super().__init__(algebra, matrix, notes)
        self.kind = kind

    def __repr__(self) -> str:
        return f"AbsoluteContraction(kind={self.kind!r}, dims={self.algebra.block_dims})"


# ---------------------------------------------------------------------------
# kind constructors

def _as_element(algebra: Algebra, obj) -> Element:
    if isinstance(obj, Element):
        el = obj
    elif isinstance(obj, str):
        el = element_from_text(obj)
    else:
        raise StructuralError(f"cannot interpret {type(obj).__name__} as an element")
    if el.algebra != algebra:
        raise StructuralError("operand algebra does not match the target algebra")
    return el


def _conjugation_matrix(algebra: Algebra, pairs) -> np.ndarray:
    """Transfer matrix of x -> sum_j A_j x B_j, given (A_j, B_j) block lists.

    Each block's columns come from one batched product over that block's
    stacked basis, added term by term from zero; this equals conjugating the
    basis elements one at a time bit for bit (a Kronecker product does not).
    """
    m = np.zeros((algebra.basis_size,) * 2, dtype=np.complex128)
    off = 0
    for b, d in enumerate(algebra.block_dims):
        basis = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)
        acc = np.zeros_like(basis)
        for left, right in pairs:
            acc = acc + left[b] @ basis @ right[b]
        m[off:off + d * d, off:off + d * d] = acc.reshape(d * d, d * d).T
        off += d * d
    return m


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
    m = s * _conjugation_matrix(algebra, [(adj, u.blocks)])
    return AbsoluteContraction(algebra, "scaled_unitary", m)


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
    m = _conjugation_matrix(algebra, [(p.element.blocks, p.element.blocks) for p in projs])
    return AbsoluteContraction(algebra, "pinching", m)


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
    return AbsoluteContraction(algebra, "schur_multiplier", np.diag(h.reshape(-1)))


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
    return AbsoluteContraction(algebra, "kraus", _conjugation_matrix(algebra, pairs))


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
    m = np.zeros((algebra.basis_size,) * 2, dtype=np.complex128)
    for w, (_, t) in zip(weights, terms):
        m = m + w * t.transfer_matrix()
    return AbsoluteContraction(algebra, "convex_combination", m)


def composition(maps: Sequence[AbsoluteContraction]) -> AbsoluteContraction:
    """Composite map; maps are applied in the listed order."""
    if not maps:
        raise StructuralError("composition needs at least one map")
    algebra = maps[0].algebra
    if any(m.algebra != algebra for m in maps):
        raise StructuralError("composed maps live in different algebras")
    m = maps[0].transfer_matrix()
    for t in maps[1:]:
        m = t.transfer_matrix() @ m
    return AbsoluteContraction(algebra, "composition", m)


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


_KIND_BUILDERS = {
    "scaled_unitary": lambda alg, spec: scaled_unitary(
        alg, spec["unitary"], spec.get("scale", 1.0)
    ),
    "pinching": lambda alg, spec: pinching(
        [Projection(_as_element(alg, p)) for p in spec["projections"]]
    ),
    "schur_multiplier": lambda alg, spec: schur_multiplier(
        alg, _as_element(alg, spec["coefficients"]).blocks[0]
    ),
    "kraus": lambda alg, spec: kraus(alg, spec["operators"]),
    "substochastic": lambda alg, spec: substochastic(alg, spec["matrix"]),
    "identity": lambda alg, spec: identity_map(alg),
    "convex_combination": lambda alg, spec: convex_combination(
        [(w, construct_contraction(alg, sub)) for w, sub in spec["terms"]]
    ),
    "composition": lambda alg, spec: composition(
        [construct_contraction(alg, sub) for sub in spec["maps"]]
    ),
}


def construct_contraction(algebra: Algebra, spec: dict) -> AbsoluteContraction:
    """Build a contraction from a tagged parameter record.

    Elements referenced by the record may be Element instances or strings in
    the element text format.
    """
    try:
        kind = spec["kind"]
    except (TypeError, KeyError) as exc:
        raise StructuralError("contraction spec needs a 'kind' tag") from exc
    builder = _KIND_BUILDERS.get(kind)
    if builder is None:
        raise UnsupportedError(f"unknown contraction kind {kind!r}")
    return builder(algebra, spec)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerificationReport:
    subunital_margin: float
    trace_margin: float
    choi_min_eig: float
    passed: bool
    notes: tuple[str, ...] = ()


def _adjoint_permutation(algebra: Algebra) -> np.ndarray:
    """Index permutation with vec(x*) = conj(vec(x))[perm]."""
    perm = np.empty(algebra.basis_size, dtype=np.intp)
    off = 0
    for d in algebra.block_dims:
        for i in range(d):
            for j in range(d):
                perm[off + i * d + j] = off + j * d + i
        off += d * d
    return perm


def is_hermiticity_preserving(op: LinearOperator, tol: float = 1e-10) -> bool:
    m = op.transfer_matrix()
    perm = _adjoint_permutation(op.algebra)
    conj_m = np.conj(m[np.ix_(perm, perm)])
    scale = 1.0 + float(np.abs(m).max())
    return float(np.abs(conj_m - m).max()) <= tol * scale


def trace_adjoint_matrix(op: LinearOperator) -> np.ndarray:
    """Transfer matrix of the adjoint for the weighted trace pairing."""
    alg = op.algebra
    w = np.concatenate(
        [np.full(d * d, wt) for d, wt in zip(alg.block_dims, alg.trace_weights)]
    )
    m = op.transfer_matrix()
    return (m.conj().T * w[None, :]) / w[:, None]


def choi_matrix(op: LinearOperator) -> np.ndarray:
    """Choi matrix of the map extended to the full matrix algebra.

    The extension first compresses to the block diagonal (itself completely
    positive), so positivity of this matrix is equivalent to complete
    positivity of the map on the block algebra. As an (n, n, n, n) array,
    entry (i, r, j, c) can be nonzero only when i, j lie in one block B and
    r, c in one block B'; every other entry is an exact zero, so the matrix
    is block diagonal over the block pairs (B, B').
    """
    alg = op.algebra
    n = alg.total_dim
    # global (row, col) in the n x n picture of each vec coordinate
    rows, cols = np.concatenate([
        off + np.indices((d, d)).reshape(2, -1)
        for off, d in zip(np.cumsum((0,) + alg.block_dims[:-1]), alg.block_dims)
    ], axis=1)
    # entry (i n + r, j n + c) is the (r, c) coordinate of T(e_ij)
    choi = np.zeros((n, n, n, n), dtype=np.complex128)
    choi[rows[None, :], rows[:, None], cols[None, :], cols[:, None]] = op.transfer_matrix()
    return choi.reshape(n * n, n * n)


def choi_blocks(op: LinearOperator) -> list[np.ndarray]:
    """The diagonal blocks of `choi_matrix`, one per block pair (B, B').

    The pair's submatrix has rows and columns (i, r) with i in B and r in
    B', in the full matrix's order; B' runs fastest. Its size is d_B d_B'.
    """
    alg = op.algebra
    n = alg.total_dim
    choi = choi_matrix(op).reshape(n, n, n, n)
    cuts = np.cumsum((0,) + alg.block_dims)
    spans = [(slice(lo, hi), hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return [
        choi[b_in, b_out, b_in, b_out].reshape(d_in * d_out, d_in * d_out)
        for b_in, d_in in spans
        for b_out, d_out in spans
    ]


def verify_absolute_contraction(op: LinearOperator, tol: float = 1e-10) -> VerificationReport:
    """Check the three defining conditions and report signed margins.

    Raises StructuralError for maps that are not even Hermiticity
    preserving; margin failures are reported through `passed`, not raised.
    `choi_min_eig` is the smallest eigenvalue of the Choi matrix, taken
    over its diagonal blocks (`choi_blocks`, one d_B d_B' submatrix per
    block pair), whose spectra make up its spectrum. On a single-block
    algebra the one block is the whole matrix.
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

    sub = min_eig(one - op.apply(one))
    tr = min_eig(one - LinearOperator(alg, trace_adjoint_matrix(op)).apply(one))
    choi_min = min(
        float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0])
        for blk in choi_blocks(op)
    )
    notes = tuple(op.notes)
    passed = sub >= -tol and tr >= -tol and choi_min >= -tol
    return VerificationReport(sub, tr, choi_min, passed, notes)


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
    when 1 is not an eigenvalue. The kernel dimension k is the number of
    eigenvalues within CLUSTER_TOL of 1. The right and left kernels V and W
    are the singular vectors of phase*T - 1 for its k smallest singular
    values, and the projection is V (W* V)^-1 W* (taken as a pseudo-inverse,
    which is the inverse whenever 1 is semisimple). Notes flag, without
    changing k: eigenvalues within WARN_TOL of 1 but outside CLUSTER_TOL, a
    count of singular values within CLUSTER_TOL other than k, and a W* V with
    a singular value within CLUSTER_TOL of 0 (eigenvalue 1 not semisimple).
    """
    lam = complex(phase)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError(f"phase must be unimodular, got |phase| = {abs(lam)}")
    a = lam * op.transfer_matrix()
    dim = a.shape[0]
    notes = []
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
        return LinearOperator(op.algebra, np.zeros((dim, dim)), tuple(notes))
    if k == dim:
        return LinearOperator(op.algebra, np.eye(dim), tuple(notes))
    v, w = vh[dim - k:].conj().T, u[:, dim - k:]
    gram = w.conj().T @ v  # singular values: cosines between the two kernels
    cos_min = float(np.linalg.svd(gram, compute_uv=False)[-1])
    if cos_min <= CLUSTER_TOL:
        notes.append(
            f"eigenvalue 1 is not semisimple: W*V has singular value "
            f"{cos_min!r}; the averages have no limit"
        )
    proj = v @ np.linalg.pinv(gram) @ w.conj().T
    return LinearOperator(op.algebra, proj, tuple(notes))
