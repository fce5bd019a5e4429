"""Dense complex linear algebra with an explicit tolerance policy.

Operator subspaces are stored as trace-orthonormal bases, projections as
orthonormal range bases.  A single :class:`ToleranceConfig` decides when a
norm counts as zero and where the numerical-rank cutoff sits, so every rank
and every "is this product nonzero?" decision is reproducible.  Every
numerical rank is counted by one rule, :meth:`ToleranceConfig.rank`: the
singular values above the cutoff anchored at the largest of them (or at a
larger reference value carried over from earlier slices).  A rank that
keeps every direction may instead be proved by :func:`full_rank_certified`,
one Cholesky factorization of a Gram matrix, which never claims full rank
where that rule would not.

Vectorization is column-stacking throughout: ``vec(AXB) = (B^T (x) A) vec(X)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "vec",
    "unvec",
    "hs_inner",
    "OperatorSubspace",
    "subspace_from_spanning",
    "identity_span",
    "full_algebra",
    "full_rank_certified",
    "subspace_product",
    "SubspacePowers",
    "Projection",
    "image_range_projection",
    "commutant",
    "proj_join",
    "proj_product_nonzero",
    "range_containment_residual",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: absolute zero threshold and relative rank cutoff factor."""

    zero_atol: float = 1e-9
    rank_rtol: float = 100.0

    def __post_init__(self) -> None:
        if not (self.zero_atol > 0 and self.rank_rtol > 0):
            raise ValueError("zero_atol and rank_rtol must be positive")

    def rank_cutoff(self, sigma1: float, shape: tuple[int, int]) -> float:
        """Singular values at or below this do not count toward the rank."""
        return sigma1 * max(shape) * _EPS * self.rank_rtol

    def rank(self, s: np.ndarray, shape: tuple[int, int],
             sigma_ref: float = 0.0) -> int:
        """Numerical rank of a matrix of the given shape from its descending
        singular values s: those above the cutoff anchored at
        max(sigma_ref, s[0]); 0 when s is empty."""
        if s.size == 0:
            return 0
        cutoff = self.rank_cutoff(max(sigma_ref, float(s[0])), shape)
        return int(np.count_nonzero(s > cutoff))


DEFAULT_TOL = ToleranceConfig()


def as_complex_matrix(obj, square: bool = False) -> np.ndarray:
    """Coerce to a finite complex 2-D array, copying only if needed."""
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def vec(mats: np.ndarray) -> np.ndarray:
    """Column-stack the trailing two axes: vec(M)[i + rows*j] = M[i, j]."""
    mats = np.asarray(mats)
    *lead, rows, cols = mats.shape
    return np.swapaxes(mats, -1, -2).reshape(*lead, rows * cols)


def unvec(rows: np.ndarray, n_rows: int, n_cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` on the trailing axis."""
    rows = np.asarray(rows)
    if n_cols is None:
        n_cols = rows.shape[-1] // n_rows
    out = rows.reshape(*rows.shape[:-1], n_cols, n_rows)
    return np.swapaxes(out, -1, -2)


def hs_inner(a, b) -> complex:
    """Trace inner product tr(b* a)."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(b, a))


class OperatorSubspace:
    """Subspace of n x n matrices stored as a trace-orthonormal basis.

    ``basis`` has shape (dim, n, n); ``basis_vecs`` caches the column-stacked
    rows.  Instances are immutable after construction.
    """

    __slots__ = ("n", "basis", "basis_vecs")

    def __init__(self, n: int, basis: np.ndarray):
        self.n = int(n)
        self.basis = np.asarray(basis, dtype=np.complex128).reshape(-1, n, n)
        self.basis_vecs = vec(self.basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def membership_residual(self, mat) -> float:
        """Distance from mat to the subspace (Frobenius norm of the rejection)."""
        v = vec(as_complex_matrix(mat, square=True))
        if self.dim == 0:
            return float(np.linalg.norm(v))
        coeff = self.basis_vecs.conj() @ v
        return float(np.linalg.norm(v - coeff @ self.basis_vecs))

    def contains(self, mat, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        return self.membership_residual(mat) <= tol.zero_atol

    def __repr__(self) -> str:
        return f"OperatorSubspace(n={self.n}, dim={self.dim})"


def subspace_from_spanning(mats, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """Orthonormalize a spanning set of n x n matrices.

    Dimension is decided by the SVD rank cutoff of the stacked vectorizations.
    """
    mats = [as_complex_matrix(m, square=True) for m in mats]
    if not mats:
        raise ValueError("spanning set must be nonempty")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"shape mismatch in spanning set: {m.shape} != {(n, n)}")
    empty = np.zeros((0, n * n), dtype=np.complex128)
    rows, _ = _extend_rows(empty, vec(np.stack(mats)), tol, 0.0)
    return OperatorSubspace(n, unvec(rows, n, n))


def identity_span(n: int) -> OperatorSubspace:
    """The one-dimensional subspace spanned by the identity."""
    basis = np.eye(n, dtype=np.complex128)[None] / np.sqrt(n)
    return OperatorSubspace(n, basis)


def full_algebra(n: int) -> OperatorSubspace:
    """All of M_n in the standard basis: basis[i + n*j] = E_ij, so basis_vecs = I."""
    basis = unvec(np.eye(n * n, dtype=np.complex128), n, n)
    return OperatorSubspace(n, basis)


# Complex entries in one product slice (left factors x v.dim x n^2); a
# product with more entries is formed and orthonormalized slice by slice.
_SLICE_LIMIT = 8_000_000


def _product_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """vec(A B) for A in left, B in right, as rows ordered A-major.

    One matmul per right factor writes (A B)^T = B^T A^T, whose row-major
    layout is vec(A B), straight into the preallocated result.
    """
    a, b, n = left.shape[0], right.shape[0], left.shape[-1]
    out = np.empty((a, b, n, n), dtype=np.complex128)
    left_t = left.swapaxes(-1, -2)
    for k in range(b):
        np.matmul(right[k].T, left_t, out=out[:, k])
    return out.reshape(a * b, n * n)


def full_rank_certified(a: np.ndarray, tol: ToleranceConfig,
                        kept: np.ndarray | None = None,
                        sigma_ref: float = 0.0) -> bool:
    """Certify, with no SVD, that the rank rule keeps min(a.shape) directions
    of a.  True is a proof; False decides nothing, and the caller falls back
    to the SVD route.

    G is a's Gram matrix on its smaller side (a* a or a a*), so lambda_min(G)
    is the smallest squared singular value of a.  :meth:`ToleranceConfig.rank`
    anchors its cutoff at the largest singular value, never above the
    Frobenius norm used here, so a successful Cholesky factorization of
    G - tau I, with tau the squared cutoff plus the rounding of the Gram
    product and of the factorization, means the SVD route keeps every
    direction too.

    With kept (orthonormal rows as wide as a) the claim is subspace_product's:
    a's rows and kept together span every row vector.  G then adds kept* kept,
    and for a unit x orthogonal to kept, x* G x = ||a x||^2 bounds every
    singular value of a's residual against kept, which :func:`_extend_rows`
    ranks with the cutoff anchored at max(sigma_ref, ||residual||_2).
    """
    rows, cols = a.shape
    if kept is not None or rows >= cols:
        gram = a.conj().T @ a
        if kept is not None and kept.shape[0]:
            gram += kept.conj().T @ kept
        inner = rows if kept is None else rows + kept.shape[0]
    else:
        gram = a @ a.conj().T
        inner = cols
    size = gram.shape[0]
    anchor = max(sigma_ref, float(np.linalg.norm(a)))
    cutoff = tol.rank_cutoff(anchor, a.shape)
    # the backward errors of the Gram product and of Cholesky are each at
    # most about (count) * u * tr(G) (Higham, Accuracy and Stability of
    # Numerical Algorithms); 2 eps = 4 u leaves room for complex arithmetic
    rounding = 2 * (inner + size) * _EPS * float(np.trace(gram).real)
    gram[np.diag_indices(size)] -= cutoff * cutoff + rounding
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _extend_rows(current: np.ndarray, new_rows: np.ndarray,
                 tol: ToleranceConfig, sigma_ref: float) -> tuple[np.ndarray, float]:
    """Grow an orthonormal row basis by the directions of new_rows.

    Projects out the current span twice (classical re-orthogonalization) and
    keeps residual singular values above the cutoff anchored at sigma_ref.
    """
    if new_rows.shape[0] == 0:
        return current, sigma_ref
    resid = new_rows
    for _ in range(2):
        if current.shape[0]:
            resid = resid - (resid @ current.conj().T) @ current
    _, s, vh = np.linalg.svd(resid, full_matrices=False)
    keep = vh[: tol.rank(s, new_rows.shape, sigma_ref)]
    sigma_ref = float(np.max(s, initial=sigma_ref))
    if keep.shape[0] == 0:
        return current, sigma_ref
    return np.vstack([current, keep]), sigma_ref


def subspace_product(u: OperatorSubspace, v: OperatorSubspace,
                     tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """Orthonormalized span of all pairwise products {AB : A in u, B in v}.

    The products are formed one slice of left factors at a time.  The first
    slice whose rows, with the kept ones, number at least n^2 is offered to a
    full-span certificate (:func:`full_rank_certified`): if their Gram matrix
    stays positive definite after the rank cutoff is subtracted, the product
    is all of M_n and comes back as :func:`full_algebra`, with no SVD.  The
    certificate's cutoff is never below the one the SVD route would apply,
    so it can only claim a full span where that route finds one too.  When
    it fails, that slice and every later one go through the SVD route
    (:func:`_extend_rows`) exactly as without it; the certificate is not
    retried, since each try forms an n^2 x n^2 Gram matrix over all the
    rows, which a product that stops short of M_n (block Kraus sets, a
    loose rank_rtol) would pay on every slice.

    Only the basis of a full product differs between the routes, never its
    span or dimension, so every basis-invariant reading agrees.
    """
    if u.n != v.n:
        raise ValueError(f"ambient mismatch: {u.n} != {v.n}")
    n = u.n
    if u.dim == 0 or v.dim == 0:
        return OperatorSubspace(n, np.zeros((0, n, n), dtype=np.complex128))
    # Full space absorbs products once the other factor contains the identity.
    eye = np.eye(n)
    if u.dim == n * n and v.contains(eye, tol):
        return u
    if v.dim == n * n and u.contains(eye, tol):
        return v
    # Accumulate new directions per left-factor slice, re-orthogonalizing
    # against what is already kept; small products fit in one slice.
    rows = np.zeros((0, n * n), dtype=np.complex128)
    sigma_ref = 0.0
    offer = True  # the certificate's one try, see the docstring
    chunk = max(1, _SLICE_LIMIT // (v.dim * n * n))
    for start in range(0, u.dim, chunk):
        block = _product_rows(u.basis[start:start + chunk], v.basis)
        if offer and rows.shape[0] + block.shape[0] >= n * n:
            if full_rank_certified(block, tol, kept=rows, sigma_ref=sigma_ref):
                return full_algebra(n)
            offer = False
        rows, sigma_ref = _extend_rows(rows, block, tol, sigma_ref)
        if rows.shape[0] == n * n:
            break
    return OperatorSubspace(n, unvec(rows, n, n))


class SubspacePowers:
    """Write-once cache of the powers of an operator subspace.

    powers[0] = span{I}; powers[m+1] = powers[m] * v.  Stabilization is
    detected by dimension equality, which certifies span equality only when
    the generator contains the identity (powers are then nested); a warning
    is emitted otherwise.
    """

    def __init__(self, v: OperatorSubspace, tol: ToleranceConfig = DEFAULT_TOL):
        self._has_identity = v.contains(np.eye(v.n), tol)
        if not self._has_identity:
            warnings.warn("powers of a subspace without the identity: "
                          "dimension-based stabilization is heuristic",
                          stacklevel=2)
        self.v = v
        self.tol = tol
        self._powers: list[OperatorSubspace] = [identity_span(v.n)]
        self._m_stab: int | None = None

    @property
    def dims(self) -> list[int]:
        return [p.dim for p in self._powers]

    def _grow_once(self) -> None:
        last = self._powers[-1]
        m = len(self._powers) - 1
        n2 = self.v.n * self.v.n
        if last.dim == n2 and self._has_identity:
            # Cannot grow further; next power equals this one.
            self._m_stab = m
            return
        nxt = subspace_product(last, self.v, self.tol)
        self._powers.append(nxt)
        if nxt.dim == last.dim and self._m_stab is None:
            self._m_stab = m

    def power(self, m: int) -> OperatorSubspace:
        if m < 0:
            raise ValueError("power index must be nonnegative")
        while len(self._powers) <= m:
            if self._m_stab is not None:
                return self._powers[self._m_stab]
            self._grow_once()
        return self._powers[m]

    @property
    def m_stab(self) -> int:
        while self._m_stab is None:
            self._grow_once()
        return self._m_stab

    def first(self, test: Callable[[OperatorSubspace], bool],
              start: int = 0) -> int | None:
        """Least m >= start whose power passes test, or None once the powers
        stabilize without passing; grows no power beyond the one returned."""
        m = start
        while not test(self.power(m)):
            if self._m_stab is not None and m >= self._m_stab:
                return None
            m += 1
        return m


class Projection:
    """Hermitian idempotent stored by an orthonormal basis of its range."""

    __slots__ = ("n", "range_basis")

    def __init__(self, n: int, range_basis: np.ndarray):
        self.n = int(n)
        rb = np.asarray(range_basis, dtype=np.complex128)
        self.range_basis = rb.reshape(n, -1)

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    def matrix(self) -> np.ndarray:
        return self.range_basis @ self.range_basis.conj().T

    def complement(self) -> "Projection":
        if self.rank == 0:
            return Projection.identity(self.n)
        if self.rank == self.n:
            return Projection.zero(self.n)
        u, _, _ = np.linalg.svd(self.range_basis, full_matrices=True)
        return Projection(self.n, u[:, self.rank:])

    @classmethod
    def zero(cls, n: int) -> "Projection":
        return cls(n, np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> "Projection":
        return cls(n, np.eye(n, dtype=np.complex128))

    @classmethod
    def from_range_vectors(cls, cols, n: int | None = None,
                           tol: ToleranceConfig = DEFAULT_TOL) -> "Projection":
        """Projection onto the column span of cols (need not be orthonormal)."""
        cols = np.asarray(cols, dtype=np.complex128)
        if cols.ndim != 2:
            raise ValueError("expected an (n, k) array of column vectors")
        if n is None:
            n = cols.shape[0]
        if cols.shape[1] == 0:
            return cls.zero(n)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        return cls(n, u[:, : tol.rank(s, cols.shape)])

    @classmethod
    def from_matrix(cls, mat, tol: ToleranceConfig = DEFAULT_TOL) -> "Projection":
        m = as_complex_matrix(mat, square=True)
        if np.linalg.norm(m - m.conj().T) > tol.zero_atol:
            raise ValueError("matrix is not Hermitian within tolerance")
        if np.linalg.norm(m @ m - m) > tol.zero_atol:
            raise ValueError("matrix is not idempotent within tolerance")
        w, vecs = np.linalg.eigh(m)
        return cls(m.shape[0], vecs[:, w > 0.5])

    @classmethod
    def onto_subset(cls, n: int, indices) -> "Projection":
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= n):
            raise ValueError(f"subset indices out of range for dimension {n}")
        rb = np.zeros((n, len(idx)), dtype=np.complex128)
        for c, i in enumerate(idx):
            rb[i, c] = 1.0
        return cls(n, rb)

    def column_residuals(self) -> float:
        """Deviation of the stored columns from orthonormality."""
        g = self.range_basis.conj().T @ self.range_basis
        return float(np.linalg.norm(g - np.eye(self.rank)))

    def __repr__(self) -> str:
        return f"Projection(n={self.n}, rank={self.rank})"


def image_range_projection(v: OperatorSubspace, p: Projection,
                           tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Projection onto span{A w : A in basis(v), w in range(p)}.

    An image of at least n columns that :func:`full_rank_certified` proves
    to span C^n comes back as the identity, in the standard basis, with no
    SVD; any other image is ranked by :meth:`Projection.from_range_vectors`.
    """
    if v.n != p.n:
        raise ValueError(f"ambient mismatch: {v.n} != {p.n}")
    if v.dim == 0 or p.rank == 0:
        return Projection.zero(p.n)
    if v.dim == p.n * p.n:  # all of M_n maps any nonzero vector onto C^n
        return Projection.identity(p.n)
    img = np.moveaxis(v.basis @ p.range_basis, 0, 1).reshape(p.n, -1)
    if img.shape[1] >= p.n and full_rank_certified(img, tol):
        return Projection.identity(p.n)
    return Projection.from_range_vectors(img, n=p.n, tol=tol)


def commutant(mats, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """Orthonormal basis of {X : X A_i = A_i X for all i}.

    Solved as the null space of the stacked maps X -> X A - A X, using
    vec(XA) - vec(AX) = (A^T (x) I - I (x) A) vec(X).  The stack has at least
    as many rows as columns, so an economy SVD returns every right singular
    vector and never builds the (k n^2) x (k n^2) left factor.
    """
    mats = [as_complex_matrix(m, square=True) for m in mats]
    if not mats:
        raise ValueError("commutant of an empty set is ill-posed here")
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=np.complex128)
    blocks = [np.kron(a.T, eye) - np.kron(eye, a) for a in mats]
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    null_rows = vh[tol.rank(s, stacked.shape):].conj()
    return OperatorSubspace(n, unvec(null_rows, n, n))


def proj_join(ps, n: int | None = None,
              tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Smallest projection dominating all of ps; the empty join is 0."""
    ps = list(ps)
    if not ps:
        if n is None:
            raise ValueError("join of an empty family needs the ambient dimension")
        return Projection.zero(n)
    n = ps[0].n
    for p in ps:
        if p.n != n:
            raise ValueError("ambient mismatch in join")
    cols = np.hstack([p.range_basis for p in ps])
    return Projection.from_range_vectors(cols, n=n, tol=tol)


def proj_product_nonzero(p: Projection, q: Projection,
                         tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ||P Q||_F exceeds the zero threshold."""
    if p.n != q.n:
        raise ValueError("ambient mismatch")
    if p.rank == 0 or q.rank == 0:
        return False
    cross = p.range_basis.conj().T @ q.range_basis
    return float(np.linalg.norm(cross)) > tol.zero_atol


def range_containment_residual(a: Projection, b: Projection) -> float:
    """||(I - B) A||_F; zero iff range(a) is contained in range(b)."""
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    if a.rank == 0:
        return 0.0
    rej = a.range_basis - b.range_basis @ (b.range_basis.conj().T @ a.range_basis)
    return float(np.linalg.norm(rej))
