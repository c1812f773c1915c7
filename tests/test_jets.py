"""Jet arithmetic against analytic derivatives and ring axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiaffine import jets
from equiaffine.jets import (
    Jet,
    JetDomainError,
    _index_map,
    _product_table,
    jet_det,
    jet_einsum,
    jet_embed,
    jet_lu,
    jet_matmul,
    jet_size,
    jet_variables,
    monomials,
)


def jet_grid(mat) -> np.ndarray:
    """The jet array of a nested list of Jets."""
    return np.array([[c.coeffs for c in row] for row in mat])


def test_monomials_graded_prefix():
    lower = monomials(3, 2)
    upper = monomials(3, 4)
    assert upper[: len(lower)] == lower
    assert all(sum(a) <= 4 for a in upper)
    # degree-k slab sizes: C(k + n - 1, n - 1)
    assert sum(1 for a in upper if sum(a) == 3) == 10


def test_variable_and_constant_coefficients():
    j = Jet.variable(1, 2.5, 3, 4)
    assert j.value == 2.5
    assert j.coefficient((0, 1, 0)) == 1.0
    assert j.coefficient((1, 0, 0)) == 0.0
    c = Jet.constant(7.0, 3, 4)
    assert c.value == 7.0
    assert c.gradient().tolist() == [0.0, 0.0, 0.0]


def test_polynomial_derivatives_exact():
    # f(u, v) = u^2 v + 3 v; jet coefficients store d^a f / a!
    u = Jet.variable(0, 1.5, 2, 4)
    v = Jet.variable(1, -2.0, 2, 4)
    f = u * u * v + v * 3.0
    assert f.value == pytest.approx(1.5**2 * -2.0 + 3 * -2.0)
    assert f.coefficient((1, 0)) == pytest.approx(2 * 1.5 * -2.0)  # f_u
    assert f.coefficient((0, 1)) == pytest.approx(1.5**2 + 3)  # f_v
    assert f.coefficient((2, 0)) == pytest.approx(-2.0)  # f_uu / 2
    assert f.coefficient((2, 1)) == pytest.approx(1.0)  # f_uuv / 2
    assert f.coefficient((0, 2)) == 0.0


def test_exp_log_sqrt_sin_cos_values():
    x = Jet.variable(0, 0.3, 1, 4)
    for func, ref in (
        (jets.exp, np.exp),
        (jets.log, np.log),
        (jets.sqrt, np.sqrt),
        (jets.sin, np.sin),
        (jets.cos, np.cos),
    ):
        j = func(x * 2.0 + 0.5)
        t = 2 * 0.3 + 0.5
        assert j.value == pytest.approx(ref(t), abs=1e-14)
        # first derivative via a central difference oracle on the composite
        h = 1e-5
        fd = (ref(2 * (0.3 + h) + 0.5) - ref(2 * (0.3 - h) + 0.5)) / (2 * h)
        assert j.gradient()[0] == pytest.approx(fd, rel=1e-8)


def test_exp_fourth_derivative():
    x = Jet.variable(0, 0.2, 1, 4)
    j = jets.exp(x)
    # d^4 exp / 4! at 0.2
    assert j.coefficient((4,)) == pytest.approx(np.exp(0.2) / 24.0)


def test_division_and_recip():
    x = Jet.variable(0, 0.7, 1, 4)
    one = Jet.constant(1.0, 1, 4)
    r = one / (x + 1.0)
    t = 1.7
    assert r.value == pytest.approx(1 / t)
    assert r.gradient()[0] == pytest.approx(-1 / t**2)
    assert r.coefficient((2,)) == pytest.approx(1 / t**3)  # f''/2 = (2/t^3)/2


def test_power_rational():
    x = Jet.variable(0, 2.0, 1, 4)
    p = jets.power(x, -1.5)
    assert p.value == pytest.approx(2.0**-1.5)
    assert p.gradient()[0] == pytest.approx(-1.5 * 2.0**-2.5)


def test_power_integer_at_zero():
    x = Jet.variable(0, 0.0, 1, 4)
    p = jets.power(x, 3)
    assert p.value == 0.0
    assert p.coefficient((3,)) == pytest.approx(1.0)
    assert p.coefficient((2,)) == 0.0


def test_domain_errors():
    x = Jet.variable(0, -1.0, 1, 4)
    with pytest.raises(JetDomainError):
        jets.log(x)
    with pytest.raises(JetDomainError):
        jets.sqrt(x)
    with pytest.raises(JetDomainError):
        jets.recip(Jet.constant(0.0, 1, 2))


def test_partial_lowers_order():
    u = Jet.variable(0, 1.0, 2, 4)
    v = Jet.variable(1, 2.0, 2, 4)
    f = jets.exp(u * v)
    fu = f.partial(0)
    assert fu.order == 3
    assert fu.value == pytest.approx(2.0 * np.exp(2.0))
    # mixed second derivative d^2 f / du dv = e^{uv} (1 + uv)
    assert fu.gradient()[1] == pytest.approx(np.exp(2.0) * (1 + 2.0))


def test_embed_shifts_variables():
    u = Jet.variable(0, 0.4, 1, 3)
    f = jets.sin(u)
    g = Jet(3, 3, jet_embed(f.coeffs, 1, 3, 1))
    assert g.num_vars == 3
    assert g.value == f.value
    assert g.gradient().tolist() == pytest.approx([0.0, np.cos(0.4), 0.0])


@pytest.mark.parametrize("sub_vars, num_vars", [(s, n) for n in range(1, 6) for s in range(1, min(n, 3) + 1)])
def test_jet_embed_matches_monomial_loop(sub_vars, num_vars):
    rng = np.random.default_rng(10 * sub_vars + num_vars)
    for order in range(5):
        a = rng.standard_normal((2, jet_size(sub_vars, order)))
        idx = _index_map(num_vars, order)
        for offset in range(num_vars - sub_vars + 1):
            expect = np.zeros((2, jet_size(num_vars, order)))
            for m, c in zip(monomials(sub_vars, order), a.T):
                big = [0] * num_vars
                big[offset : offset + sub_vars] = m
                expect[:, idx[tuple(big)]] = c
            assert np.array_equal(jet_embed(a, sub_vars, num_vars, offset), expect)
        with pytest.raises(ValueError):
            jet_embed(a, sub_vars, num_vars, num_vars - sub_vars + 1)


def test_jet_variables_are_coordinate_jets():
    point = [0.3, -1.2, 2.0]
    for order in range(5):
        expect = [Jet.variable(v, point[v], 3, order).coeffs for v in range(3)]
        assert np.array_equal(jet_variables(point, order), expect)


def test_truncate_is_prefix_slice():
    u = Jet.variable(0, 0.4, 2, 4)
    f = jets.exp(u)
    t = f.truncate(2)
    assert t.order == 2
    assert t.value == f.value
    assert t.gradient().tolist() == f.gradient().tolist()


def test_jet_solve_and_inverse_roundtrip():
    rng = np.random.default_rng(3)
    n = 3
    mat = [
        [
            Jet.constant(rng.standard_normal(), 2, 2)
            + Jet.variable(0, 0.0, 2, 2) * rng.standard_normal()
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    for i in range(n):
        mat[i][i] = mat[i][i] + 5.0
    eye = np.zeros((n, n, len(mat[0][0].coeffs)))
    eye[..., 0] = np.eye(n)
    X = jet_lu(jet_grid(mat), 2, eye)[1]
    inv = [[Jet(2, 2, c) for c in row] for row in X]
    prod_val = np.array(
        [[sum(mat[i][k] * inv[k][j] for k in range(n)).value for j in range(n)] for i in range(n)]
    )
    assert np.allclose(prod_val, np.eye(n), atol=1e-12)


def test_jet_det_matches_numpy_and_derivative():
    rng = np.random.default_rng(5)
    n = 4
    base = rng.standard_normal((n, n))
    direction = rng.standard_normal((n, n))
    mat = [
        [Jet.constant(base[i, j], 1, 2) + Jet.variable(0, 0.0, 1, 2) * direction[i, j] for j in range(n)]
        for i in range(n)
    ]
    d = Jet(1, 2, jet_det(jet_grid(mat), 1))
    assert d.value == pytest.approx(np.linalg.det(base), rel=1e-12)
    # d/dt det(base + t direction) = det(base) tr(base^{-1} direction)
    expect = np.linalg.det(base) * np.trace(np.linalg.solve(base, direction))
    assert d.gradient()[0] == pytest.approx(expect, rel=1e-10)


def test_jet_det_singular_value_part():
    # value part singular but the jet determinant still carries derivatives
    t = Jet.variable(0, 0.0, 1, 2)
    one = Jet.constant(1.0, 1, 2)
    zero = Jet.constant(0.0, 1, 2)
    d = Jet(1, 2, jet_det(jet_grid([[t, one], [one, zero]]), 1))
    assert d.value == pytest.approx(-1.0)
    d2 = Jet(1, 2, jet_det(jet_grid([[t, zero], [zero, t]]), 1))
    assert d2.value == 0.0
    assert d2.coefficient((2,)) == pytest.approx(1.0)


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_product_table_matches_all_pairs_reference(num_vars, order):
    mono = monomials(num_vars, order)
    idx = _index_map(num_vars, order)
    expect = {
        (i, j, idx[tuple(x + y for x, y in zip(a, b))])
        for i, a in enumerate(mono)
        for j, b in enumerate(mono)
        if sum(a) + sum(b) <= order
    }
    ii, jj, kk, starts = _product_table(num_vars, order)
    assert len(ii) == len(expect)
    assert set(zip(ii.tolist(), jj.tolist(), kk.tolist())) == expect
    assert np.all(np.diff(kk) >= 0) and kk[starts].tolist() == list(range(len(mono)))


def random_jet_matrix(rng, n, num_vars, order, shift):
    """(n, n, M) random jet array, value parts shifted by ``shift`` on the diagonal."""
    coeffs = rng.standard_normal((n, n, len(monomials(num_vars, order))))
    coeffs[..., 0] += shift * np.eye(n)
    return coeffs


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_jet_lu_against_numpy_and_jet_det(n, num_vars, order, seed):
    rng = np.random.default_rng(seed)
    A = random_jet_matrix(rng, n, num_vars, order, shift=3.0)
    B = rng.standard_normal((n, 2, A.shape[-1]))
    det, X = jet_lu(A, num_vars, B)
    ref = jet_det(A, num_vars)
    assert np.allclose(det, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
    assert det[0] == pytest.approx(np.linalg.det(A[..., 0]), rel=1e-12)
    assert np.allclose(X[..., 0], np.linalg.solve(A[..., 0], B[..., 0]), rtol=1e-10, atol=1e-12)
    # A X = B holds as jets, derivatives included
    assert np.allclose(jet_einsum("ik,kj->ij", A, X, num_vars), B, atol=1e-9)
    assert np.allclose(jet_matmul(A, X, num_vars), B, atol=1e-9)
    assert jet_lu(A, num_vars)[1] is None


def test_jet_lu_derivative_of_determinant():
    # d/dt det(base + t direction) = det(base) tr(base^{-1} direction)
    rng = np.random.default_rng(7)
    n = 4
    base = rng.standard_normal((n, n)) + 3 * np.eye(n)
    direction = rng.standard_normal((n, n))
    A = np.zeros((n, n, 3))
    A[..., 0], A[..., 1] = base, direction
    det, _ = jet_lu(A, 1)
    assert det[1] == pytest.approx(np.linalg.det(base) * np.trace(np.linalg.solve(base, direction)), rel=1e-10)


def test_jet_lu_zero_pivot_raises():
    # first column has a vanishing value part: jet_det copes, LU cannot
    t = Jet.variable(0, 0.0, 1, 2)
    one = Jet.constant(1.0, 1, 2)
    A = jet_grid([[t, one], [t * 2.0, one]])
    assert Jet(1, 2, jet_det(A, 1)).coefficient((1,)) == pytest.approx(-1.0)
    with pytest.raises(np.linalg.LinAlgError):
        jet_lu(A, 1)
    with pytest.raises(np.linalg.LinAlgError):
        jet_lu(A, 1, jet_grid([[one], [one]]))


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(small, small, small)
def test_ring_axioms(a, b, c):
    x = Jet.variable(0, a, 2, 3)
    y = Jet.variable(1, b, 2, 3)
    z = Jet.constant(c, 2, 3) + x * y
    lhs = (x + y) * z
    rhs = x * z + y * z
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
    comm = x * y - y * x
    assert np.max(np.abs(comm.coeffs)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0))
def test_exp_log_inverse(a):
    x = Jet.variable(0, a, 1, 4)
    back = jets.exp(jets.log(x))
    assert np.allclose(back.coeffs, x.coeffs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(small)
def test_sin_cos_pythagorean(a):
    x = Jet.variable(0, a, 1, 4)
    s, c = jets.sin(x), jets.cos(x)
    unit = s * s + c * c
    expect = Jet.constant(1.0, 1, 4)
    assert np.allclose(unit.coeffs, expect.coeffs, atol=1e-12)
