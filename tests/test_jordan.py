"""Octonion and Albert-algebra arithmetic plus the orbit embedding data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equiaffine.jordan import (
    EmbeddingData,
    _entries,
    _from_entries,
    _mat_mul,
    apolarity_residual,
    bracket_operator,
    e6_embedding_data,
    gaussf_residual,
    hypersphere_residual,
    jordan_cross,
    jordan_det,
    jordan_inner,
    jordan_mul,
    jordan_table,
    mult_operator,
    oct_conj,
    oct_inner,
    oct_mul,
    oct_norm,
    oct_table,
    oct_unit,
    random_skew_offdiag,
    random_traceless_coords,
    traceless_basis,
)

octonions = arrays(np.float64, 8, elements=st.floats(min_value=-3, max_value=3))

# coordinates: E[i] = E_{i+1}, x @ F[i] = F_{i+1}(x), I3 = E1 + E2 + E3
E, F = np.eye(27)[:3], np.eye(27)[3:].reshape(3, 8, 27)
I3 = E.sum(axis=0)


def test_octonion_unit_law_and_squares():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    one = oct_unit(0)
    assert np.allclose(oct_mul(one, x), x)
    assert np.allclose(oct_mul(x, one), x)
    for k in range(1, 8):
        sq = oct_mul(oct_unit(k), oct_unit(k))
        assert np.allclose(sq, -one)


def test_octonion_non_associativity_witness():
    # (e1 e2) e4 = -e1 (e2 e4) with the doubling convention used here
    e1, e2, e4 = oct_unit(1), oct_unit(2), oct_unit(4)
    lhs = oct_mul(oct_mul(e1, e2), e4)
    rhs = oct_mul(e1, oct_mul(e2, e4))
    assert np.allclose(lhs, oct_unit(7))
    assert np.allclose(rhs, -oct_unit(7))
    assert not np.allclose(lhs, rhs)


def test_conjugation_and_norm():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    assert oct_conj(x)[0] == x[0]
    assert np.allclose(oct_conj(x)[1:], -x[1:])
    # x conj(x) = |x|^2
    assert np.allclose(oct_mul(x, oct_conj(x)), oct_norm(x) ** 2 * oct_unit(0), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(octonions, octonions)
def test_norm_multiplicative(a, b):
    assert oct_norm(oct_mul(a, b)) == pytest.approx(oct_norm(a) * oct_norm(b), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(octonions, octonions)
def test_alternative_law(a, b):
    lhs = oct_mul(a, oct_mul(a, b))
    rhs = oct_mul(oct_mul(a, a), b)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_table_is_frozen_and_consistent():
    t = oct_table()
    assert t.shape == (8, 8, 8)
    assert not t.flags.writeable
    # every product of basis units is another signed basis unit
    nz = np.count_nonzero(t, axis=2)
    assert np.all(nz == 1)


def test_jordan_matrix_construction_and_coords():
    # coordinates -> entries -> coordinates, one member and a stack; the entries are Hermitian
    rng = np.random.default_rng(2)
    X = random_traceless_coords(rng)
    assert X[:3].sum() == pytest.approx(0.0, abs=1e-14)
    Y = rng.standard_normal((4, 27))
    for Z in (X, Y, X + Y, 2.5 * X - Y):
        entries = _entries(Z)
        assert entries.shape == Z.shape[:-1] + (3, 3, 8)
        assert np.array_equal(_from_entries(entries), Z)
        assert np.array_equal(oct_conj(entries).swapaxes(-3, -2), entries)


def test_jordan_mul_commutative_and_jordan_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = random_traceless_coords(rng)
        Y = random_traceless_coords(rng)
        assert np.abs(jordan_mul(X, Y) - jordan_mul(Y, X)).max() < 1e-13
        X2 = jordan_mul(X, X)
        lhs = jordan_mul(X2, jordan_mul(X, Y))
        rhs = jordan_mul(X, jordan_mul(X2, Y))
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() / scale < 1e-12


def test_inner_product_positive_definite():
    basis = np.eye(27)
    gram = jordan_inner(basis[:, None], basis)
    assert np.allclose(gram, gram.T)
    assert np.linalg.eigvalsh(gram)[0] > 0
    # diagonal units have norm 1, off-diagonal basis vectors norm^2 = 2
    assert np.allclose(np.diag(gram)[:3], 1.0)
    assert np.allclose(np.diag(gram)[3:], 2.0)


def test_determinant_values():
    assert jordan_det(I3) == 1.0
    assert jordan_inner(I3, I3) == pytest.approx(3.0)
    assert jordan_det(E[0] + E[1]) == pytest.approx(0.0, abs=1e-15)
    assert jordan_det(2.0 * I3) == pytest.approx(8.0)
    assert jordan_inner(I3, E[0]) == pytest.approx(1.0)


def test_det_diagonal_real_case_matches_numpy():
    # five samples, each drawing xi then x, as one stack
    xi, x = np.moveaxis(np.random.default_rng(4).standard_normal((5, 2, 3)), 1, 0)
    X = xi @ E + x @ F[:, 0]  # real parts only: a real symmetric matrix
    M = np.moveaxis(np.array([[xi[:, 0], x[:, 2], x[:, 1]], [x[:, 2], xi[:, 1], x[:, 0]], [x[:, 1], x[:, 0], xi[:, 2]]]), -1, 0)
    assert jordan_det(X) == pytest.approx(np.linalg.det(M), rel=1e-10, abs=1e-10)


def test_cayley_hamilton_cubic():
    # X^3 - tr(X) X^2 + s(X) X - det(X) I = 0 with s = (tr^2 - tr(X o X)) / 2
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = random_traceless_coords(rng) + rng.standard_normal() * I3
        X2 = jordan_mul(X, X)
        X3 = jordan_mul(X2, X)
        t = X[:3].sum()
        s = 0.5 * (t * t - X2[:3].sum())
        resid = X3 - t * X2 + s * X - jordan_det(X) * I3
        assert np.abs(resid).max() < 1e-12 * max(1.0, np.abs(X3).max())


def test_diag_offdiag_product_relations():
    rng = np.random.default_rng(6)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        assert np.abs(jordan_mul(E[i], E[i]) - E[i]).max() < 1e-15
        assert np.abs(jordan_mul(E[i], E[j])).max() < 1e-15
        for _ in range(50):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            Fi_x, Fi_y, Fj_y = x @ F[i], y @ F[i], y @ F[j]
            assert np.abs(jordan_mul(E[i], Fi_x)).max() < 1e-13
            assert np.abs(jordan_mul(E[j], Fi_x) - 0.5 * Fi_x).max() < 1e-13
            want = float(np.dot(x, y)) * (E[j] + E[k])
            assert np.abs(jordan_mul(Fi_x, Fi_y) - want).max() < 1e-12
            want = 0.5 * oct_conj(oct_mul(x, y)) @ F[k]
            assert np.abs(jordan_mul(Fi_x, Fj_y) - want).max() < 1e-12


def test_mult_operator_identity_and_linearity():
    assert np.allclose(mult_operator(I3), np.eye(27))
    rng = np.random.default_rng(7)
    X, Y = random_traceless_coords(rng), random_traceless_coords(rng)
    assert np.allclose(
        mult_operator(X + 2.0 * Y), mult_operator(X) + 2.0 * mult_operator(Y), atol=1e-12
    )


def test_mult_operator_e1_spectrum():
    # eigenvalues 1 (on E1), 1/2 (F2 and F3 blocks), 0 (E2, E3, F1)
    op = mult_operator(E[0])
    eig = np.sort(np.linalg.eigvalsh(0.5 * (op + op.T)))
    assert np.allclose(eig[:10], 0.0, atol=1e-13)
    assert np.allclose(eig[10:26], 0.5, atol=1e-13)
    assert eig[26] == pytest.approx(1.0, abs=1e-13)


def test_mult_operator_traceless_for_traceless_argument():
    rng = np.random.default_rng(8)
    for _ in range(30):
        T = random_traceless_coords(rng)
        assert abs(np.trace(mult_operator(T))) < 1e-12


def test_bracket_operator_properties():
    rng = np.random.default_rng(9)
    for _ in range(5):
        A = random_skew_offdiag(rng)
        op = bracket_operator(A)
        assert abs(np.trace(op)) < 1e-12
        # fixes the identity (infinitesimally): [A, I3] = 0
        assert np.max(np.abs(op @ I3)) < 1e-13
        # derivation of the Jordan product on random pairs
        for _ in range(5):
            X, Y = random_traceless_coords(rng), random_traceless_coords(rng)
            lhs = op @ jordan_mul(X, Y)
            rhs = jordan_mul(op @ X, Y) + jordan_mul(X, op @ Y)
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() / scale < 1e-12


def test_bracket_operator_rejects_non_skew():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        bracket_operator(rng.standard_normal((3, 3, 8)))


def test_traceless_basis_spans():
    mats = traceless_basis()
    assert mats.shape == (26, 27)
    assert np.linalg.matrix_rank(mats) == 26
    assert mats[:, :3].sum(axis=-1) == pytest.approx(np.zeros(26), abs=1e-15)


def test_embedding_data_reference_values():
    data = e6_embedding_data(-1.0 / 3.0)
    assert data.C == pytest.approx(np.sqrt(3.0))
    assert np.allclose(data.x_o, np.sqrt(3.0) * I3)
    assert jordan_det(data.x_o) == pytest.approx(3.0 * np.sqrt(3.0))
    assert data.dim == 26
    assert data.on_basis.shape == (26, 27)
    with pytest.raises(ValueError):
        e6_embedding_data(0.5)


@pytest.mark.parametrize("L1", [-1.0 / 3.0, -0.2, -1.5])
def test_embedding_invariants(L1):
    data = e6_embedding_data(L1)
    # metric positive definite and orthonormal by construction
    eig = np.linalg.eigvalsh(data.g_o)
    assert eig[0] > 0
    assert np.allclose(data.g_o, np.eye(26), atol=1e-10)
    # cubic form totally symmetric and apolar
    assert np.max(np.abs(data.A_o - data.A_o.transpose(1, 0, 2))) < 1e-12
    assert np.max(np.abs(data.A_o - data.A_o.transpose(0, 2, 1))) < 1e-12
    assert apolarity_residual(data) < 1e-10
    assert hypersphere_residual(data) < 1e-10


def test_gaussf_decomposition_and_transversality():
    rng = np.random.default_rng(11)
    data = e6_embedding_data(-0.4)
    for _ in range(20):
        X, Y = random_traceless_coords(rng), random_traceless_coords(rng)
        assert gaussf_residual(data, X, Y) < 1e-12
        assert abs(jordan_inner(X, I3)) < 1e-13


def hermitian_coords(m):
    """Coordinates of (..., 3, 3, 8) entries, after checking that every member
    is octonion Hermitian to 1e-12 of max(1, its largest entry)."""
    axes = (-3, -2, -1)
    skew = np.abs(oct_conj(m).swapaxes(-3, -2) - m).max(axis=axes)
    assert np.all(skew <= 1e-12 * np.maximum(1.0, np.abs(m).max(axis=axes)))
    return _from_entries(m)


def mat_mul_product(x, y):
    """Coordinates of (XY + YX) / 2 from plain octonion matrix products of
    the entries, without the table."""
    X, Y = _entries(x), _entries(y)
    return hermitian_coords(0.5 * (_mat_mul(X, Y) + _mat_mul(Y, X)))


def random_hermitian(rng):
    return rng.standard_normal(27)


def test_jordan_table_read_only_and_symmetric():
    P = jordan_table()
    assert P.shape == (27, 27, 27)
    assert not P.flags.writeable
    assert np.array_equal(P, P.transpose(1, 0, 2))


def test_jordan_table_matches_mat_mul_product():
    rng = np.random.default_rng(12)
    for _ in range(20):
        X, Y = random_hermitian(rng), random_hermitian(rng)
        want = mat_mul_product(X, Y)
        assert np.abs(jordan_mul(X, Y) - want).max() / np.abs(want).max() < 1e-13


def test_operators_match_per_basis_columns():
    rng = np.random.default_rng(13)
    basis = np.eye(27)
    T = random_hermitian(rng)
    cols = [mat_mul_product(T, e) for e in basis]
    assert np.max(np.abs(mult_operator(T) - np.array(cols).T)) < 1e-13
    A = random_skew_offdiag(rng)
    cols = [hermitian_coords(_mat_mul(A, e) - _mat_mul(e, A)) for e in _entries(basis)]
    assert np.max(np.abs(bracket_operator(A) - np.array(cols).T)) < 1e-13


def test_cubic_form_matches_triple_loop_formula():
    # A_o[i, j, k] = tr((T_i o T_j) o T_k) / 3 over the g_o-orthonormal basis
    data = e6_embedding_data(-0.7)
    on = data.on_basis
    rng = np.random.default_rng(14)
    nonzero = np.argwhere(np.abs(data.A_o) > 1e-3)  # about 3% of the entries
    triples = np.vstack([rng.choice(nonzero, 40), rng.integers(0, data.dim, size=(40, 3))])
    for i, j, k in triples:
        want = mat_mul_product(mat_mul_product(on[i], on[j]), on[k])[:3].sum() / 3.0
        assert abs(data.A_o[i, j, k] - want) < 1e-14


def test_oct_mul_stack_matches_row_loop():
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal((2, 40, 8))
    want = np.array([oct_mul(x, y) for x, y in zip(a, b)])
    assert np.max(np.abs(oct_mul(a, b) - want)) < 1e-14 * np.abs(want).max()
    # leading axes broadcast: one octonion against a stack
    want = np.array([oct_mul(a[0], y) for y in b])
    assert np.max(np.abs(oct_mul(a[0], b) - want)) < 1e-14 * np.abs(want).max()
    assert np.allclose(oct_norm(a), [oct_norm(x) for x in a], rtol=1e-15)
    assert np.allclose(oct_inner(a, b), [np.dot(x, y) for x, y in zip(a, b)], rtol=1e-14)


def test_jordan_mul_stack_matches_mat_mul_reference():
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal((2, 6, 5, 27))
    got = jordan_mul(x, y)
    assert got.shape == (6, 5, 27)
    for idx in np.ndindex(6, 5):
        want = mat_mul_product(x[idx], y[idx])
        assert np.max(np.abs(got[idx] - want)) < 1e-13 * np.abs(want).max()
    inner = jordan_inner(x, y)
    assert inner.shape == (6, 5)
    want = jordan_inner(x[2, 3], y[2, 3])
    assert inner[2, 3] == pytest.approx(want, rel=1e-13)


def test_operators_on_stacks_match_per_member_calls():
    rng = np.random.default_rng(17)
    T = random_traceless_coords(rng, (4, 3))
    ops = mult_operator(T)
    assert ops.shape == (4, 3, 27, 27)
    for idx in np.ndindex(4, 3):
        want = mult_operator(T[idx])
        assert np.max(np.abs(ops[idx] - want)) < 1e-14 * np.abs(want).max()
    A = random_skew_offdiag(rng, (5,))
    ops = bracket_operator(A)
    assert ops.shape == (5, 27, 27)
    for member, op in zip(A, ops):
        assert np.max(np.abs(op - bracket_operator(member))) < 1e-14 * np.abs(op).max()


def test_stacked_draws_follow_the_per_sample_stream():
    # a member draws xi (then centred), x1, x2, x3; a skew member its (0, 1), (0, 2), (1, 2) entries
    raw = np.random.default_rng(18).standard_normal((2, 27))
    rng = np.random.default_rng(18)
    T = random_traceless_coords(rng)
    assert np.array_equal(T, np.concatenate([raw[0, :3] - raw[0, :3].mean(), raw[0, 3:]]))
    A = random_skew_offdiag(rng)
    assert np.array_equal(A[[0, 0, 1], [1, 2, 2]], raw[1, :24].reshape(3, 8))
    one, many = np.random.default_rng(18), np.random.default_rng(18)
    singles = np.array([random_traceless_coords(one) for _ in range(4)])
    assert np.array_equal(random_traceless_coords(many, (4,)), singles)
    singles = np.array([random_skew_offdiag(one) for _ in range(3)])
    assert np.array_equal(random_skew_offdiag(many, (3,)), singles)


def test_bracket_operator_validates_every_member():
    rng = np.random.default_rng(19)
    # a huge skew member would hide a small non-skew one in a stack-wide tolerance
    big = 1e15 * random_skew_offdiag(rng)
    with pytest.raises(ValueError, match="not octonion skew-Hermitian"):
        bracket_operator(np.array([big, rng.standard_normal((3, 3, 8))]))
    # within the skew tolerance, but the image of this member is not Hermitian
    tiny = np.zeros((3, 3, 8))
    tiny[0, 0, 0], tiny[1, 1, 0] = 0.4e-12, -0.4e-12
    with pytest.raises(ValueError, match="image is not octonion Hermitian"):
        bracket_operator(np.array([random_skew_offdiag(rng), tiny]))


def test_det_and_cross_on_stacks_match_per_member_calls():
    rng = np.random.default_rng(20)
    x, y = rng.standard_normal((2, 4, 3, 27))
    cross, det = jordan_cross(x, y), jordan_det(x)
    assert cross.shape == (4, 3, 27) and det.shape == (4, 3)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(cross[idx], jordan_cross(x[idx], y[idx]))
        assert det[idx] == jordan_det(x[idx])
    # one element against a stack
    assert np.array_equal(jordan_cross(x[1, 2], y[0]), np.array([jordan_cross(x[1, 2], b) for b in y[0]]))
    # the cross product is symmetric
    assert np.abs(cross - jordan_cross(y, x)).max() < 1e-13 * np.abs(cross).max()
