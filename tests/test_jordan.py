"""Octonion and Albert-algebra arithmetic plus the orbit embedding data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equiaffine.jordan import (
    EmbeddingData,
    JordanMatrix,
    _mat_mul,
    apolarity_residual,
    basis_27,
    bracket_operator,
    e6_embedding_data,
    gaussf_residual,
    hypersphere_residual,
    jordan_cross,
    jordan_det,
    jordan_inner,
    jordan_mul,
    jordan_ops,
    jordan_product,
    jordan_table,
    mult_operator,
    oct_conj,
    oct_inner,
    oct_mul,
    oct_norm,
    oct_table,
    oct_unit,
    random_skew_offdiag,
    random_traceless,
    random_traceless_coords,
    traceless_basis,
)

octonions = arrays(np.float64, 8, elements=st.floats(min_value=-3, max_value=3))


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
    rng = np.random.default_rng(2)
    X = random_traceless(rng)
    assert X.trace() == pytest.approx(0.0, abs=1e-14)
    again = JordanMatrix.from_coords(X.coords())
    assert np.allclose(again.entries, X.entries)
    with pytest.raises(ValueError):
        JordanMatrix(rng.standard_normal((3, 3, 8)))  # not Hermitian
    with pytest.raises(ValueError):
        JordanMatrix(np.zeros((3, 3, 7)))
    # from_coords and the arithmetic skip the check: their results must pass it
    Y = JordanMatrix.from_coords(rng.standard_normal(27))
    for Z in (Y, X + Y, X - Y, 2.5 * X, X * -0.5, -Y):
        assert np.array_equal(JordanMatrix(Z.entries).coords(), Z.coords())


def test_jordan_product_commutative_and_jordan_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = random_traceless(rng)
        Y = random_traceless(rng)
        assert (jordan_product(X, Y) - jordan_product(Y, X)).max_abs() < 1e-13
        X2 = jordan_product(X, X)
        lhs = jordan_product(X2, jordan_product(X, Y))
        rhs = jordan_product(X, jordan_product(X2, Y))
        scale = max(1.0, lhs.max_abs())
        assert (lhs - rhs).max_abs() / scale < 1e-12


def test_inner_product_positive_definite():
    gram = np.array([[jordan_inner(a, b) for b in basis_27()] for a in basis_27()])
    assert np.allclose(gram, gram.T)
    assert np.linalg.eigvalsh(gram)[0] > 0
    # diagonal units have norm 1, off-diagonal basis vectors norm^2 = 2
    assert np.allclose(np.diag(gram)[:3], 1.0)
    assert np.allclose(np.diag(gram)[3:], 2.0)


def test_determinant_values():
    I3 = JordanMatrix.identity()
    assert jordan_det(I3) == 1.0
    assert jordan_inner(I3, I3) == pytest.approx(3.0)
    E1, E2 = JordanMatrix.diag_unit(1), JordanMatrix.diag_unit(2)
    assert jordan_det(E1 + E2) == pytest.approx(0.0, abs=1e-15)
    assert jordan_det(2.0 * I3) == pytest.approx(8.0)
    ops = jordan_ops(I3, E1)
    assert ops["inner"] == pytest.approx(1.0)
    assert ops["det_X"] == pytest.approx(1.0)


def test_det_diagonal_real_case_matches_numpy():
    rng = np.random.default_rng(4)
    for _ in range(5):
        xi = rng.standard_normal(3)
        x = rng.standard_normal(3)  # real parts only: a real symmetric matrix
        X = JordanMatrix.from_parts(xi, x[0] * oct_unit(0), x[1] * oct_unit(0), x[2] * oct_unit(0))
        M = np.array(
            [[xi[0], x[2], x[1]], [x[2], xi[1], x[0]], [x[1], x[0], xi[2]]]
        )
        assert jordan_det(X) == pytest.approx(np.linalg.det(M), rel=1e-10, abs=1e-10)


def test_cayley_hamilton_cubic():
    # X^3 - tr(X) X^2 + s(X) X - det(X) I = 0 with s = (tr^2 - tr(X o X)) / 2
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = random_traceless(rng) + rng.standard_normal() * JordanMatrix.identity()
        X2 = jordan_product(X, X)
        X3 = jordan_product(X2, X)
        t = X.trace()
        s = 0.5 * (t * t - X2.trace())
        resid = X3 - t * X2 + s * X - jordan_det(X) * JordanMatrix.identity()
        assert resid.max_abs() < 1e-12 * max(1.0, X3.max_abs())


def test_diag_offdiag_product_relations():
    rng = np.random.default_rng(6)
    E = [JordanMatrix.diag_unit(i) for i in (1, 2, 3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        assert (jordan_product(E[i], E[i]) - E[i]).max_abs() < 1e-15
        assert jordan_product(E[i], E[j]).max_abs() < 1e-15
        for _ in range(50):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            Fi_x = JordanMatrix.off_diag(i + 1, x)
            Fi_y = JordanMatrix.off_diag(i + 1, y)
            Fj_y = JordanMatrix.off_diag(j + 1, y)
            assert jordan_product(E[i], Fi_x).max_abs() < 1e-13
            assert (jordan_product(E[j], Fi_x) - 0.5 * Fi_x).max_abs() < 1e-13
            want = float(np.dot(x, y)) * (E[j] + E[k])
            assert (jordan_product(Fi_x, Fi_y) - want).max_abs() < 1e-12
            want = 0.5 * JordanMatrix.off_diag(k + 1, oct_conj(oct_mul(x, y)))
            assert (jordan_product(Fi_x, Fj_y) - want).max_abs() < 1e-12


def test_mult_operator_identity_and_linearity():
    assert np.allclose(mult_operator(JordanMatrix.identity()), np.eye(27))
    rng = np.random.default_rng(7)
    X, Y = random_traceless(rng), random_traceless(rng)
    assert np.allclose(
        mult_operator(X + 2.0 * Y), mult_operator(X) + 2.0 * mult_operator(Y), atol=1e-12
    )


def test_mult_operator_e1_spectrum():
    # eigenvalues 1 (on E1), 1/2 (F2 and F3 blocks), 0 (E2, E3, F1)
    op = mult_operator(JordanMatrix.diag_unit(1))
    eig = np.sort(np.linalg.eigvalsh(0.5 * (op + op.T)))
    assert np.allclose(eig[:10], 0.0, atol=1e-13)
    assert np.allclose(eig[10:26], 0.5, atol=1e-13)
    assert eig[26] == pytest.approx(1.0, abs=1e-13)


def test_mult_operator_traceless_for_traceless_argument():
    rng = np.random.default_rng(8)
    for _ in range(30):
        T = random_traceless(rng)
        assert abs(np.trace(mult_operator(T))) < 1e-12


def test_bracket_operator_properties():
    rng = np.random.default_rng(9)
    basis = basis_27()
    for _ in range(5):
        A = random_skew_offdiag(rng)
        op = bracket_operator(A)
        assert abs(np.trace(op)) < 1e-12
        # fixes the identity (infinitesimally): [A, I3] = 0
        assert np.max(np.abs(op @ JordanMatrix.identity().coords())) < 1e-13
        # derivation of the Jordan product on random pairs
        for _ in range(5):
            X, Y = random_traceless(rng), random_traceless(rng)
            dX = JordanMatrix.from_coords(op @ X.coords())
            dY = JordanMatrix.from_coords(op @ Y.coords())
            lhs = JordanMatrix.from_coords(op @ jordan_product(X, Y).coords())
            rhs = jordan_product(dX, Y) + jordan_product(X, dY)
            scale = max(1.0, lhs.max_abs())
            assert (lhs - rhs).max_abs() / scale < 1e-12


def test_bracket_operator_rejects_non_skew():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        bracket_operator(rng.standard_normal((3, 3, 8)))


def test_traceless_basis_spans():
    mats = np.array([b.coords() for b in traceless_basis()])
    assert mats.shape == (26, 27)
    assert np.linalg.matrix_rank(mats) == 26
    for b in traceless_basis():
        assert b.trace() == pytest.approx(0.0, abs=1e-15)


def test_embedding_data_reference_values():
    data = e6_embedding_data(-1.0 / 3.0)
    assert data.C == pytest.approx(np.sqrt(3.0))
    assert np.allclose(data.x_o.entries, np.sqrt(3.0) * JordanMatrix.identity().entries)
    assert jordan_det(data.x_o) == pytest.approx(3.0 * np.sqrt(3.0))
    assert data.dim == 26
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
        X, Y = random_traceless(rng), random_traceless(rng)
        assert gaussf_residual(data, X, Y) < 1e-12
        assert abs(jordan_inner(X, JordanMatrix.identity())) < 1e-13


def mat_mul_product(X, Y):
    """(XY + YX) / 2 from plain octonion matrix products, without the table."""
    return JordanMatrix(0.5 * (_mat_mul(X.entries, Y.entries) + _mat_mul(Y.entries, X.entries)))


def random_hermitian(rng):
    return JordanMatrix.from_coords(rng.standard_normal(27))


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
        assert (jordan_product(X, Y) - want).max_abs() / want.max_abs() < 1e-13


def test_operators_match_per_basis_columns():
    rng = np.random.default_rng(13)
    basis = basis_27()
    T = random_hermitian(rng)
    cols = [mat_mul_product(T, e).coords() for e in basis]
    assert np.max(np.abs(mult_operator(T) - np.array(cols).T)) < 1e-13
    A = random_skew_offdiag(rng)
    cols = [JordanMatrix(_mat_mul(A, e.entries) - _mat_mul(e.entries, A)).coords() for e in basis]
    assert np.max(np.abs(bracket_operator(A) - np.array(cols).T)) < 1e-13


def test_cubic_form_matches_triple_loop_formula():
    # A_o[i, j, k] = tr((T_i o T_j) o T_k) / 3 over the g_o-orthonormal basis
    data = e6_embedding_data(-0.7)
    on = data.on_basis
    rng = np.random.default_rng(14)
    nonzero = np.argwhere(np.abs(data.A_o) > 1e-3)  # about 3% of the entries
    triples = np.vstack([rng.choice(nonzero, 40), rng.integers(0, data.dim, size=(40, 3))])
    for i, j, k in triples:
        want = mat_mul_product(mat_mul_product(on[i], on[j]), on[k]).trace() / 3.0
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
        want = mat_mul_product(JordanMatrix.from_coords(x[idx]), JordanMatrix.from_coords(y[idx])).coords()
        assert np.max(np.abs(got[idx] - want)) < 1e-13 * np.abs(want).max()
    inner = jordan_inner(x, y)
    assert inner.shape == (6, 5)
    want = jordan_inner(JordanMatrix.from_coords(x[2, 3]), JordanMatrix.from_coords(y[2, 3]))
    assert inner[2, 3] == pytest.approx(want, rel=1e-13)


def test_operators_on_stacks_match_per_member_calls():
    rng = np.random.default_rng(17)
    T = random_traceless_coords(rng, (4, 3))
    ops = mult_operator(T)
    assert ops.shape == (4, 3, 27, 27)
    for idx in np.ndindex(4, 3):
        want = mult_operator(JordanMatrix.from_coords(T[idx]))
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
    T = random_traceless(rng).coords()
    assert np.array_equal(T, np.concatenate([raw[0, :3] - raw[0, :3].mean(), raw[0, 3:]]))
    A = random_skew_offdiag(rng)
    assert np.array_equal(A[[0, 0, 1], [1, 2, 2]], raw[1, :24].reshape(3, 8))
    one, many = np.random.default_rng(18), np.random.default_rng(18)
    singles = np.array([random_traceless(one).coords() for _ in range(4)])
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
