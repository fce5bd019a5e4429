"""Dense complex linear algebra with an explicit tolerance policy.

Operator subspaces are stored as trace-orthonormal bases, projections as
orthonormal range bases.  A single :class:`ToleranceConfig` decides when a
norm counts as zero and where the numerical-rank cutoff sits, so every rank
and every "is this product nonzero?" decision is reproducible.

Vectorization is column-stacking throughout: ``vec(AXB) = (B^T (x) A) vec(X)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "vec",
    "unvec",
    "hs_inner",
    "hs_norm",
    "OperatorSubspace",
    "subspace_from_spanning",
    "identity_span",
    "subspace_product",
    "subspace_power",
    "SubspacePowers",
    "Projection",
    "image_range_projection",
    "commutant",
    "proj_join",
    "proj_meet",
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
    return np.swapaxes(mats, -1, -2).reshape(*mats.shape[:-2], -1)


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


def hs_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def _orthonormal_rows(rows: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space, rank by SVD cutoff."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0:
        return vh[:0]
    cutoff = tol.rank_cutoff(float(s[0]), rows.shape)
    dim = int(np.count_nonzero(s > cutoff))
    return vh[:dim]


class OperatorSubspace:
    """Subspace of n x n matrices stored as a trace-orthonormal basis.

    ``basis`` has shape (dim, n, n); ``basis_vecs`` caches the column-stacked
    rows.  Instances are immutable after construction.
    """

    __slots__ = ("n", "basis", "basis_vecs", "self_adjoint", "contains_identity")

    def __init__(self, n: int, basis: np.ndarray, self_adjoint: bool,
                 contains_identity: bool):
        self.n = int(n)
        self.basis = np.asarray(basis, dtype=np.complex128).reshape(-1, n, n)
        self.basis_vecs = vec(self.basis)
        self.self_adjoint = bool(self_adjoint)
        self.contains_identity = bool(contains_identity)

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
        return (f"OperatorSubspace(n={self.n}, dim={self.dim}, "
                f"self_adjoint={self.self_adjoint}, "
                f"contains_identity={self.contains_identity})")


def _build_subspace(basis_rows: np.ndarray, n: int,
                    tol: ToleranceConfig) -> OperatorSubspace:
    """Wrap orthonormal vec-rows into a subspace, computing the two flags."""
    basis = unvec(basis_rows, n, n)
    if basis_rows.shape[0] == 0:
        return OperatorSubspace(n, basis, True, False)
    adj_rows = vec(basis.conj().swapaxes(-1, -2))
    coeff = adj_rows @ basis_rows.conj().T
    resid = adj_rows - coeff @ basis_rows
    self_adjoint = bool(np.all(np.linalg.norm(resid, axis=1) <= tol.zero_atol))
    iv = vec(np.eye(n, dtype=np.complex128))
    ic = basis_rows.conj() @ iv
    contains_identity = bool(np.linalg.norm(iv - ic @ basis_rows) <= tol.zero_atol)
    return OperatorSubspace(n, basis, self_adjoint, contains_identity)


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
    rows = vec(np.stack(mats))
    return _build_subspace(_orthonormal_rows(rows, tol), n, tol)


def identity_span(n: int) -> OperatorSubspace:
    """The one-dimensional subspace spanned by the identity."""
    basis = np.eye(n, dtype=np.complex128)[None] / np.sqrt(n)
    return OperatorSubspace(n, basis, True, True)


_SINGLE_SVD_LIMIT = 8_000_000  # complex entries per product slice, one SVD each


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
    if s.size == 0:
        return current, sigma_ref
    sigma_ref = max(sigma_ref, float(s[0]))
    cutoff = tol.rank_cutoff(sigma_ref, new_rows.shape)
    keep = vh[: int(np.count_nonzero(s > cutoff))]
    if keep.shape[0] == 0:
        return current, sigma_ref
    return np.vstack([current, keep]), sigma_ref


def subspace_product(u: OperatorSubspace, v: OperatorSubspace,
                     tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """Orthonormalized span of all pairwise products {AB : A in u, B in v}."""
    if u.n != v.n:
        raise ValueError(f"ambient mismatch: {u.n} != {v.n}")
    n = u.n
    if u.dim == 0 or v.dim == 0:
        return _build_subspace(np.zeros((0, n * n), dtype=np.complex128), n, tol)
    # Full space absorbs products once the other factor contains the identity.
    if u.dim == n * n and v.contains_identity:
        return u
    if v.dim == n * n and u.contains_identity:
        return v
    # Accumulate new directions per left-factor slice, re-orthogonalizing
    # against what is already kept; small products fit in one slice.
    rows = np.zeros((0, n * n), dtype=np.complex128)
    sigma_ref = 0.0
    chunk = max(1, _SINGLE_SVD_LIMIT // (v.dim * n * n))
    for start in range(0, u.dim, chunk):
        block = np.einsum("aij,bjk->abik",
                          u.basis[start:start + chunk], v.basis).reshape(-1, n, n)
        rows, sigma_ref = _extend_rows(rows, vec(block), tol, sigma_ref)
        if rows.shape[0] == n * n:
            break
    return _build_subspace(rows, n, tol)


class SubspacePowers:
    """Write-once cache of the powers of an operator subspace.

    powers[0] = span{I}; powers[m+1] = powers[m] * v.  Stabilization is
    detected by dimension equality, which certifies span equality only when
    the generator contains the identity (powers are then nested); a warning
    is emitted otherwise.
    """

    def __init__(self, v: OperatorSubspace, tol: ToleranceConfig = DEFAULT_TOL):
        if not v.contains_identity:
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
        if last.dim == n2 and self.v.contains_identity:
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

    @property
    def known_m_stab(self) -> int | None:
        """Stabilization index if already discovered; never forces growth."""
        return self._m_stab

    def stabilized(self) -> OperatorSubspace:
        return self.power(self.m_stab)


def subspace_power(v: OperatorSubspace, m: int,
                   tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """m-th power of a subspace (v^0 = span{I}); see SubspacePowers for caching."""
    return SubspacePowers(v, tol).power(m)


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
        if s.size == 0 or s[0] == 0.0:
            return cls.zero(n)
        cutoff = tol.rank_cutoff(float(s[0]), cols.shape)
        return cls(n, u[:, : int(np.count_nonzero(s > cutoff))])

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
    """Projection onto span{A w : A in basis(v), w in range(p)}."""
    if v.n != p.n:
        raise ValueError(f"ambient mismatch: {v.n} != {p.n}")
    if v.dim == 0 or p.rank == 0:
        return Projection.zero(p.n)
    img = np.moveaxis(v.basis @ p.range_basis, 0, 1).reshape(p.n, -1)
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
    cutoff = tol.rank_cutoff(float(s[0]), stacked.shape) if s.size else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    null_rows = vh[rank:].conj()
    return _build_subspace(null_rows, n, tol)


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


def proj_meet(ps, n: int | None = None,
              tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Largest projection dominated by all of ps; the empty meet is I."""
    ps = list(ps)
    if not ps:
        if n is None:
            raise ValueError("meet of an empty family needs the ambient dimension")
        return Projection.identity(n)
    return proj_join([p.complement() for p in ps], tol=tol).complement()


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
