import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcoarse import matcore
from qcoarse.matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    Projection,
    SubspacePowers,
    ToleranceConfig,
    commutant,
    full_algebra,
    hs_inner,
    identity_span,
    image_range_projection,
    proj_join,
    proj_product_nonzero,
    range_containment_residual,
    subspace_from_spanning,
    subspace_product,
    unvec,
    vec,
)

from oracles import proj_meet

I2 = np.eye(2, dtype=complex)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(zero_atol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rtol=-1.0)


def test_vec_unvec_roundtrip(rng):
    m = random_matrix(rng, 3)
    v = vec(m)
    # column stacking: first block is the first column
    assert np.allclose(v[:3], m[:, 0])
    assert np.allclose(unvec(v, 3), m)


def test_vec_of_an_empty_stack():
    # an empty V1 (a rank cutoff that drops every product) is a (0, n, n) stack
    assert vec(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 9)
    assert unvec(vec(np.zeros((0, 3, 3))), 3).shape == (0, 3, 3)


def test_vec_intertwines_left_right_multiplication(rng):
    # vec(AXB) = (B^T kron A) vec(X), the convention used for superoperators
    a, x, b = (random_matrix(rng, 3) for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.allclose(lhs, rhs)


def test_hs_inner_examples():
    assert hs_inner(I2, I2) == pytest.approx(2)
    assert hs_inner(E11, E22) == pytest.approx(0)
    assert hs_inner(E12, E12) == pytest.approx(1)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(I2, np.eye(3))


@given(st.integers(0, 10_000))
def test_hs_inner_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_spanning_scalar_multiples():
    s = subspace_from_spanning([I2, 2 * I2])
    assert s.dim == 1
    assert s.contains(I2) and all(s.contains(b.conj().T) for b in s.basis)


def test_spanning_independent_units():
    s = subspace_from_spanning([E11, E12])
    assert s.dim == 2
    assert not all(s.contains(b.conj().T) for b in s.basis)
    assert not s.contains(I2)


def test_spanning_near_dependent_pair(rng):
    # second direction sits far below the rank cutoff
    a = random_matrix(rng, 4)
    b = random_matrix(rng, 4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    s = subspace_from_spanning([a, a + 1e-16 * b])
    assert s.dim == 1


def test_spanning_empty_and_mismatched():
    with pytest.raises(ValueError):
        subspace_from_spanning([])
    with pytest.raises(ValueError):
        subspace_from_spanning([I2, np.eye(3)])


@given(st.integers(0, 10_000))
def test_spanning_idempotent(seed):
    rng = np.random.default_rng(seed)
    mats = [random_matrix(rng, 3) for _ in range(rng.integers(1, 6))]
    s1 = subspace_from_spanning(mats)
    s2 = subspace_from_spanning(list(s1.basis))
    assert s1.dim == s2.dim
    for m in mats:
        assert s2.membership_residual(m) <= DEFAULT_TOL.zero_atol


def test_product_identity_preserves():
    v = subspace_from_spanning([E11, E12, 2j * E21])
    prod = subspace_product(identity_span(2), v)
    assert prod.dim == v.dim
    for m in v.basis:
        assert prod.membership_residual(m) <= 1e-9


def test_product_matrix_units():
    u = subspace_from_spanning([E12])
    v = subspace_from_spanning([E21])
    prod = subspace_product(u, v)
    assert prod.dim == 1
    assert prod.membership_residual(E11) <= 1e-9


def test_product_diagonals_closed():
    diag = subspace_from_spanning([E11, E22])
    prod = subspace_product(diag, diag)
    assert prod.dim == 2
    assert prod.membership_residual(E11) <= 1e-9
    assert prod.membership_residual(E22) <= 1e-9


@given(st.integers(0, 10_000))
def test_product_associative_dimensions(seed):
    rng = np.random.default_rng(seed)
    u, v, w = (
        subspace_from_spanning([random_matrix(rng, 3) for _ in range(rng.integers(1, 4))])
        for _ in range(3)
    )
    left = subspace_product(subspace_product(u, v), w)
    right = subspace_product(u, subspace_product(v, w))
    assert left.dim == right.dim


def test_power_zeroth_is_identity_span():
    v = subspace_from_spanning([I2, PAULI_X])
    p0 = SubspacePowers(v).power(0)
    assert p0.dim == 1
    assert p0.contains(I2)


def test_power_pauli_x_stabilizes_at_one():
    v = subspace_from_spanning([I2, PAULI_X])
    powers = SubspacePowers(v)
    assert powers.power(2).dim == 2
    assert powers.m_stab == 1


def test_power_non_selfadjoint_span():
    v = subspace_from_spanning([I2, E12])
    powers = SubspacePowers(v)
    assert [powers.power(m).dim for m in (1, 2, 3)] == [2, 2, 2]
    assert powers.m_stab == 1


def test_power_without_identity_warns():
    v = subspace_from_spanning([E12])
    with pytest.warns(UserWarning):
        SubspacePowers(v)


def test_power_dims_nondecreasing_and_capped(rng):
    n = 3
    mats = [np.eye(n, dtype=complex)] + [random_matrix(rng, n) for _ in range(2)]
    v = subspace_from_spanning(mats + [m.conj().T for m in mats])
    powers = SubspacePowers(v)
    dims = [powers.power(m).dim for m in range(powers.m_stab + 2)]
    assert dims == sorted(dims)
    assert dims[-1] == dims[-2] <= n * n


def test_rank_rule():
    tol = DEFAULT_TOL
    shape = (20, 16)
    cut = tol.rank_cutoff(1.0, shape)
    assert tol.rank(np.array([1.0, cut]), shape) == 1  # at the cutoff: dropped
    assert tol.rank(np.array([1.0, np.nextafter(cut, 1.0)]), shape) == 2
    s = np.array([1.0, 2 * cut])
    assert tol.rank(s, shape) == 2
    assert tol.rank(s, shape, sigma_ref=3.0) == 1  # the anchor moves the cutoff
    assert tol.rank(s, shape, sigma_ref=0.5) == 2  # below s[0]: no effect
    assert tol.rank(np.zeros(0), shape) == 0
    assert tol.rank(np.zeros(4), shape) == 0


def test_first_power_walk(rng):
    n = 6
    powers = SubspacePowers(operator_system([haar(rng, n) / 2 for _ in range(4)],
                                            DEFAULT_TOL))
    m_star = powers.first(lambda v: v.dim == n * n)
    assert m_star == 2 and len(powers.dims) == m_star + 1  # grew no further
    assert powers.first(lambda v: v.dim > 1) == 1
    assert powers.first(lambda v: v.dim > 1, start=2) == 2
    assert powers.first(lambda v: True, start=5) == 5

    # 4 (+) 4 blocks: e0 and e7 lie in different blocks, so no power links them
    blocks = []
    for _ in range(3):
        k = np.zeros((8, 8), dtype=complex)
        k[:4, :4], k[4:, 4:] = haar(rng, 4), haar(rng, 4)
        blocks.append(k / np.sqrt(3))
    block_powers = SubspacePowers(operator_system(blocks, DEFAULT_TOL))
    e0, e7 = np.eye(8)[:, [0]], np.eye(8)[:, [7]]
    assert block_powers.first(lambda v: np.linalg.norm(e0.T @ v.basis @ e7) > 1e-9,
                              start=1) is None
    assert block_powers.first(lambda v: np.linalg.norm(e0.T @ v.basis @ e0) > 1e-9) == 0
    assert block_powers.dims[-1] == 32


def test_product_rows_match_einsum(rng):
    n = 5
    u = np.stack([random_matrix(rng, n) for _ in range(4)])
    v = np.stack([random_matrix(rng, n) for _ in range(3)])
    want = vec(np.einsum("aij,bjk->abik", u, v).reshape(-1, n, n))
    assert np.max(np.abs(matcore._product_rows(u, v) - want)) <= 1e-14


def test_full_algebra_is_the_standard_basis():
    full = full_algebra(3)
    assert full.dim == 9 and full.contains(np.eye(3))
    assert all(full.contains(b.conj().T) for b in full.basis)
    assert np.array_equal(full.basis_vecs, np.eye(9))
    assert full.basis[1 + 3 * 2][1, 2] == 1  # basis[i + n*j] = E_ij
    image = image_range_projection(full, Projection.onto_subset(3, [1]))
    assert np.array_equal(image.matrix(), np.eye(3))


def svd_only_powers(v1, tol):
    """dims and m_stab of the powers of v1 with no full-span certificate.

    Each power is the row space of all its products, ranked by one SVD with
    the cutoff anchored at the top singular value.  For n <= 16 every product
    fits in one slice of subspace_product, where its SVD route does the same.
    """
    n = v1.n
    basis = np.eye(n, dtype=complex)[None] / np.sqrt(n)
    dims = [1]
    while dims[-1] < n * n:
        rows = vec(np.einsum("aij,bjk->abik", basis, v1.basis).reshape(-1, n, n))
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        dim = int(np.count_nonzero(s > tol.rank_cutoff(float(s[0]), rows.shape)))
        dims.append(dim)
        if dim == dims[-2]:
            return dims, len(dims) - 2
        basis = unvec(vh[:dim], n, n)
    return dims, len(dims) - 1


def operator_system(kraus, tol):
    return subspace_from_spanning([kj.conj().T @ ki for kj in kraus for ki in kraus], tol)


def certificate_cases():
    rng = np.random.default_rng(7)
    for n in range(4, 17):
        yield f"haar{n}", [haar(rng, n) / np.sqrt(3) for _ in range(3)]
    n = 16
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    yield "clock-shift16", [np.eye(n) / np.sqrt(3), clock / np.sqrt(3), shift / np.sqrt(3)]
    blocks = []
    for _ in range(3):
        k = np.zeros((8, 8), dtype=complex)
        k[:4, :4], k[4:, 4:] = haar(rng, 4), haar(rng, 4)
        blocks.append(k / np.sqrt(3))
    yield "block4+4", blocks


@pytest.mark.parametrize("rank_rtol", [1.0, 100.0, 1e6, 1e10, 1e12])
def test_full_span_certificate_matches_svd_oracle(rank_rtol):
    tol = ToleranceConfig(rank_rtol=rank_rtol)
    for name, kraus in certificate_cases():
        v1 = operator_system(kraus, tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            powers = SubspacePowers(v1, tol)
        m_stab = powers.m_stab
        assert (powers.dims, m_stab) == svd_only_powers(v1, tol), name
        if rank_rtol == 100.0:
            if name == "block4+4":
                assert powers.dims[-1] == 32
            else:
                # full at the default tolerance, and certified, not SVD-ranked
                full = np.eye(v1.n * v1.n)
                assert np.array_equal(powers.power(m_stab).basis_vecs, full), name


@pytest.mark.parametrize("factor, dim", [(1.5, 16), (0.5, 15), (None, 16)])
def test_certificate_falls_through_near_the_cutoff(rng, factor, dim):
    # a 20 x 16 matrix with singular values 1 ... 0.5, and the smallest one
    # moved just above or just below the SVD route's rank cutoff; the
    # certificate may claim full rank only where that cutoff keeps all 16,
    # and in every orientation it is offered
    k, m = 20, 16
    s = np.linspace(1.0, 0.5, m)
    if factor is not None:
        s[-1] = factor * DEFAULT_TOL.rank_cutoff(1.0, (k, m))
    tall = (haar(rng, k)[:, :m] * s) @ haar(rng, m)
    certified = factor is None
    assert DEFAULT_TOL.rank(np.linalg.svd(tall, compute_uv=False), tall.shape) == dim

    # tall, as the diameter proxy's stack of dim V_k corner compressions of
    # a rank-4 P (here 20 x 4^2)
    assert matcore.full_rank_certified(tall, DEFAULT_TOL) == certified

    # rows of products spanning M_4, with no rows kept yet; u's elements
    # times I/sqrt(n) are exactly these rows
    n = 4
    empty = np.zeros((0, n * n), dtype=complex)
    assert matcore.full_rank_certified(tall, DEFAULT_TOL, kept=empty) == certified
    u = OperatorSubspace(n, unvec(tall, n, n) * np.sqrt(n))
    prod = subspace_product(u, identity_span(n))
    assert prod.dim == dim
    assert np.array_equal(prod.basis_vecs, np.eye(n * n)) == certified

    # wide, as a walk step's image in C^16: element j maps e_0 to column j
    wide = tall.T
    assert matcore.full_rank_certified(wide, DEFAULT_TOL) == certified
    basis = np.zeros((k, m, m), dtype=complex)
    basis[:, :, 0] = tall
    image = image_range_projection(OperatorSubspace(m, basis),
                                   Projection.onto_subset(m, [0]))
    assert image.rank == dim
    assert np.array_equal(image.range_basis, np.eye(m)) == certified


def test_complement_of_a_full_projection_is_zero(rng, monkeypatch):
    p = Projection(4, haar(rng, 4))
    monkeypatch.setattr(np.linalg, "svd", None)  # answered with no SVD
    for full in (p, Projection.identity(4)):
        comp = full.complement()
        assert comp.rank == 0 and comp.range_basis.shape == (4, 0)


def test_projection_basics():
    p = Projection.onto_subset(3, [0, 2])
    assert p.rank == 2
    m = p.matrix()
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, m)
    assert p.column_residuals() <= 1e-12
    assert p.complement().rank == 1


def test_projection_from_matrix_rejects_nonprojection():
    with pytest.raises(ValueError):
        Projection.from_matrix(np.array([[0.5, 0], [0, 0.2]]))
    with pytest.raises(ValueError):
        Projection.from_matrix(E12)


def test_projection_from_matrix_roundtrip(rng):
    q, _ = np.linalg.qr(random_matrix(rng, 4))
    p = Projection(4, q[:, :2])
    p2 = Projection.from_matrix(p.matrix())
    assert p2.rank == 2
    assert np.allclose(p2.matrix(), p.matrix())


def test_image_range_projection_identity_span():
    p = Projection.onto_subset(2, [0])
    out = image_range_projection(identity_span(2), p)
    assert out.rank == 1
    assert range_containment_residual(out, p) <= 1e-9


def test_image_range_projection_full_space():
    full = subspace_from_spanning([E11, E12, E21, E22])
    p = Projection.onto_subset(2, [1])
    assert image_range_projection(full, p).rank == 2


def test_image_range_projection_pauli_orbit():
    v = subspace_from_spanning([I2, PAULI_X])
    p = Projection.onto_subset(2, [0])
    assert image_range_projection(v, p).rank == 2


@given(st.integers(0, 10_000))
def test_image_range_projection_dominates(seed):
    # p <= image projection whenever the subspace contains the identity
    rng = np.random.default_rng(seed)
    n = 4
    v = subspace_from_spanning([np.eye(n, dtype=complex), random_matrix(rng, n)])
    q, _ = np.linalg.qr(random_matrix(rng, n))
    p = Projection(n, q[:, : int(rng.integers(1, n))])
    out = image_range_projection(v, p)
    assert range_containment_residual(p, out) <= 1e-9


def test_commutant_of_identity_is_everything():
    assert commutant([I2]).dim == 4


def test_commutant_of_diagonal_units():
    c = commutant([E11, E22])
    assert c.dim == 2
    assert c.membership_residual(E11) <= 1e-9
    assert c.membership_residual(E22) <= 1e-9


def test_commutant_clock_shift_irreducible():
    n = 4
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    c = commutant([clock, shift])
    assert c.dim == 1
    assert c.contains(np.eye(n))


def full_svd_commutant_rows(mats):
    """Null rows of the Kronecker stack from a full SVD, the route the
    economy SVD in ``commutant`` replaced."""
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=complex)
    stacked = np.vstack([np.kron(a.T, eye) - np.kron(eye, a) for a in mats])
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.count_nonzero(s > DEFAULT_TOL.rank_cutoff(float(s[0]), stacked.shape)))
    return vh[rank:].conj()


def haar(rng, n):
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_commutant_matches_full_svd_oracle(rng):
    blocks = []
    for _ in range(3):
        k = np.zeros((8, 8), dtype=complex)
        k[:4, :4], k[4:, 4:] = haar(rng, 4), haar(rng, 4)
        blocks.append(k)
    n = 4
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    for mats, dim in ((blocks, 2), ([clock, shift], 1)):
        got = commutant(mats)
        want = full_svd_commutant_rows(mats)
        assert got.dim == want.shape[0] == dim
        p_got = got.basis_vecs.T @ got.basis_vecs.conj()
        p_want = want.T @ want.conj()
        assert np.linalg.norm(p_got - p_want) <= 1e-10


def test_commutant_empty_rejected():
    with pytest.raises(ValueError):
        commutant([])


@given(st.integers(0, 10_000))
def test_commutant_scalar_iff_full(seed):
    rng = np.random.default_rng(seed)
    n = 3
    scalars = [complex(rng.standard_normal()) * np.eye(n) for _ in range(2)]
    assert commutant(scalars).dim == n * n
    generic = [random_matrix(rng, n), random_matrix(rng, n)]
    assert commutant(generic).dim >= 1


def test_proj_join_meet_examples():
    e0 = Projection.onto_subset(2, [0])
    e1 = Projection.onto_subset(2, [1])
    assert proj_join([e0, e1]).rank == 2
    p = Projection(2, np.array([[1.0], [1.0]]) / np.sqrt(2))
    assert proj_meet([p, p.complement()]).rank == 0
    assert proj_product_nonzero(e0, p)
    assert not proj_product_nonzero(e0, e1)


def test_proj_join_meet_empty():
    assert proj_join([], n=3).rank == 0
    assert proj_meet([], n=3).rank == 3
    with pytest.raises(ValueError):
        proj_join([])


def test_join_is_range_of_concatenation(rng):
    ps = []
    for _ in range(3):
        q, _ = np.linalg.qr(random_matrix(rng, 5))
        ps.append(Projection(5, q[:, : int(rng.integers(1, 3))]))
    j = proj_join(ps)
    for p in ps:
        assert range_containment_residual(p, j) <= 1e-9
