"""Jet-array arithmetic against analytic derivatives and ring axioms."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiaffine
from equiaffine import jets, parse_chart
from equiaffine.jets import (
    JetDomainError,
    jet_embed,
    jet_gradient,
    jet_hessian,
    jet_lu,
    jet_matmul,
    jet_mul,
    jet_index,
    jet_size,
    jet_variables,
)
from jet_reference import (
    det_term_scale,
    jet_det,
    lu_det,
    lu_series,
    monomials,
    power_coefficients,
    ref_matmul,
    ref_mul,
    ref_series,
)


def constant(value, num_vars, order) -> np.ndarray:
    """The constant jet ``value``."""
    c = np.zeros(jet_size(num_vars, order))
    c[0] = value
    return c


def index_map(num_vars, order) -> dict:
    """Position of each exponent tuple in ``monomials``."""
    return {m: i for i, m in enumerate(monomials(num_vars, order))}


def coefficient(a, num_vars, alpha) -> float:
    """The coefficient of u^alpha in the jet ``a``."""
    return float(a[index_map(num_vars, jet_index(num_vars, len(a)).order)[alpha]])


def test_monomials_graded_prefix():
    lower = monomials(3, 2)
    upper = monomials(3, 4)
    assert upper[: len(lower)] == lower
    assert all(sum(a) <= 4 for a in upper)
    # degree-k slab sizes: C(k + n - 1, n - 1)
    assert sum(1 for a in upper if sum(a) == 3) == 10
    # every exponent tuple once, by degree, each degree lexicographically descending
    for num_vars in range(1, 5):
        mono = monomials(num_vars, 5)
        assert len(set(mono)) == len(mono) == math.comb(num_vars + 5, 5)
        assert mono == sorted(mono, key=lambda m: (sum(m), [-e for e in m]))


def test_variable_and_constant_coefficients():
    j = jet_variables([0.0, 2.5, 0.0], 4)[1]
    assert j[0] == 2.5
    assert coefficient(j, 3, (0, 1, 0)) == 1.0
    assert coefficient(j, 3, (1, 0, 0)) == 0.0
    c = constant(7.0, 3, 4)
    assert c[0] == 7.0
    assert jet_gradient(c, 3)[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_polynomial_derivatives_exact():
    # f(u, v) = u^2 v + 3 v; jet coefficients store d^a f / a!
    u, v = jet_variables([1.5, -2.0], 4)
    f = jet_mul(jet_mul(u, u, 2), v, 2) + v * 3.0
    assert f[0] == pytest.approx(1.5**2 * -2.0 + 3 * -2.0)
    assert coefficient(f, 2, (1, 0)) == pytest.approx(2 * 1.5 * -2.0)  # f_u
    assert coefficient(f, 2, (0, 1)) == pytest.approx(1.5**2 + 3)  # f_v
    assert coefficient(f, 2, (2, 0)) == pytest.approx(-2.0)  # f_uu / 2
    assert coefficient(f, 2, (2, 1)) == pytest.approx(1.0)  # f_uuv / 2
    assert coefficient(f, 2, (0, 2)) == 0.0


def test_exp_log_sqrt_sin_cos_values():
    x = jet_variables([0.3], 4)[0]
    for func, ref in (
        (jets.exp, np.exp),
        (jets.log, np.log),
        (jets.sqrt, np.sqrt),
        (jets.sin, np.sin),
        (jets.cos, np.cos),
    ):
        j = func(x * 2.0 + constant(0.5, 1, 4), 1)
        t = 2 * 0.3 + 0.5
        assert j[0] == pytest.approx(ref(t), abs=1e-14)
        # first derivative via a central difference oracle on the composite
        h = 1e-5
        fd = (ref(2 * (0.3 + h) + 0.5) - ref(2 * (0.3 - h) + 0.5)) / (2 * h)
        assert jet_gradient(j, 1)[0, 0] == pytest.approx(fd, rel=1e-8)


def test_exp_fourth_derivative():
    x = jet_variables([0.2], 4)[0]
    j = jets.exp(x, 1)
    # d^4 exp / 4! at 0.2
    assert coefficient(j, 1, (4,)) == pytest.approx(np.exp(0.2) / 24.0)


def test_division_and_recip():
    # the chart language's a / b is a * recip(b)
    x = jet_variables([0.7], 4)[0]
    one = constant(1.0, 1, 4)
    r = jet_mul(one, jets.recip(x + one, 1), 1)
    t = 1.7
    assert r[0] == pytest.approx(1 / t)
    assert jet_gradient(r, 1)[0, 0] == pytest.approx(-1 / t**2)
    assert coefficient(r, 1, (2,)) == pytest.approx(1 / t**3)  # f''/2 = (2/t^3)/2


def test_power_rational():
    x = jet_variables([2.0], 4)[0]
    p = jets.power(x, -1.5, 1)
    assert p[0] == pytest.approx(2.0**-1.5)
    assert jet_gradient(p, 1)[0, 0] == pytest.approx(-1.5 * 2.0**-2.5)


def test_power_integer_at_zero():
    x = jet_variables([0.0], 4)[0]
    p = jets.power(x, 3, 1)
    assert p[0] == 0.0
    assert coefficient(p, 1, (3,)) == pytest.approx(1.0)
    assert coefficient(p, 1, (2,)) == 0.0


def test_integer_power_products(monkeypatch):
    """x^k takes floor(log2 k) + popcount(k) - 1 jet products and equals the
    left-to-right product x * x * ... * x bitwise (small-integer
    coefficients, so every product is exact in any order)."""
    rng = np.random.default_rng(3)
    x = rng.integers(-2, 3, jet_size(2, 4)).astype(float)
    count = Counter()

    def counted(a, b, num_vars, bounds=None):
        count["mul"] += 1
        return jet_mul(a, b, num_vars, bounds)

    monkeypatch.setattr(jets, "jet_mul", counted)
    for k in range(9):
        count.clear()
        got = jets.power(x, k, 2)
        assert count["mul"] == (k.bit_length() - 1 + bin(k).count("1") - 1 if k else 0)
        want = constant(1.0, 2, 4)
        for _ in range(k):
            want = jet_mul(want, x, 2)
        assert got.tobytes() == want.tobytes()


def test_negative_integer_power_of_a_negative_base():
    """x^(-2) at a negative value part is 1 / (x x), bitwise; a zero value
    part still raises."""
    chart = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = (u1 - 2)^(-2) + u2^2;")
    reference = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = 1/((u1 - 2)*(u1 - 2)) + u2^2;")
    point = np.array([0.1, 0.2])
    assert chart.component_jets(point, 4).tobytes() == reference.component_jets(point, 4).tobytes()
    x = jet_variables([0.0], 4)[0]
    for p in (-1, -2, Fraction(-3)):
        with pytest.raises(JetDomainError):
            jets.power(x, p, 1)


def test_domain_errors():
    x = jet_variables([-1.0], 4)[0]
    with pytest.raises(JetDomainError):
        jets.log(x, 1)
    with pytest.raises(JetDomainError):
        jets.sqrt(x, 1)
    with pytest.raises(JetDomainError):
        jets.recip(constant(0.0, 1, 2), 1)
    # Taylor coefficients beyond float range, e.g. a power of 1 / value that overflows
    out_of_range = "Taylor coefficients out of float range"
    with pytest.raises(JetDomainError, match=f"^log of value part 1e-200: {out_of_range}$"):
        jets.log(constant(1e-200, 1, 4), 1)
    with pytest.raises(JetDomainError, match=f"^reciprocal of value part 1e-320: {out_of_range}$"):
        jets.recip(constant(1e-320, 1, 4), 1)
    with pytest.raises(JetDomainError, match=f"^power 1/2 of value part 1e-300: {out_of_range}$"):
        jets.sqrt(constant(1e-300, 1, 4), 1)
    with pytest.raises(JetDomainError, match=f"^exp of value part 1000.0: {out_of_range}$"):
        jets.exp(constant(1000.0, 1, 4), 1)


def test_series_at_large_value_parts_stay_finite():
    # the coefficients are powers of 1 / value, which underflow towards 0 at a
    # large value part instead of overflowing as 1 / value**k would
    for value in (1e200, -1e200, 1e300):
        x = jet_variables([value], 4)[0]
        r = jets.recip(x, 1)
        assert np.all(np.isfinite(r)) and r[0] == 1.0 / value
        assert r[1] == -(1.0 / value) ** 2
    lg = jets.log(jet_variables([1e200], 4)[0], 1)
    assert np.all(np.isfinite(lg)) and lg[0] == pytest.approx(200 * np.log(10)) and lg[1] == 1e-200


def test_elementary_functions_of_order_0_jets_are_their_values():
    # an order-0 jet is its value part, so the series has no Horner step
    x = jet_variables([0.3, 1.7], 0)
    for name, func in jets.ELEMENTARY.items():
        got = func(x, 2)
        assert got.shape == (2, 1), name
        assert got[:, 0] == pytest.approx([getattr(math, name)(v) for v in (0.3, 1.7)], rel=1e-15), name
    assert jets.recip(x, 2)[:, 0].tolist() == [1.0 / 0.3, 1.0 / 1.7]


def test_partial_lowers_order():
    u, v = jet_variables([1.0, 2.0], 4)
    f = jets.exp(jet_mul(u, v, 2), 2)
    fu = jet_gradient(f, 2)[0]
    assert jet_index(2, len(fu)).order == 3
    assert fu[0] == pytest.approx(2.0 * np.exp(2.0))
    # mixed second derivative d^2 f / du dv = e^{uv} (1 + uv)
    assert jet_gradient(fu, 2)[1, 0] == pytest.approx(np.exp(2.0) * (1 + 2.0))


def test_embed_shifts_variables():
    u = jet_variables([0.4], 3)[0]
    f = jets.sin(u, 1)
    g = jet_embed(f, 1, 3, 1)
    assert jet_index(3, len(g)).order == 3
    assert g[0] == f[0]
    assert jet_gradient(g, 3)[:, 0].tolist() == pytest.approx([0.0, np.cos(0.4), 0.0])


@pytest.mark.parametrize("sub_vars, num_vars", [(s, n) for n in range(1, 6) for s in range(1, min(n, 3) + 1)])
def test_jet_embed_matches_monomial_loop(sub_vars, num_vars):
    rng = np.random.default_rng(10 * sub_vars + num_vars)
    for order in range(5):
        a = rng.standard_normal((2, jet_size(sub_vars, order)))
        idx = index_map(num_vars, order)
        for offset in range(num_vars - sub_vars + 1):
            expect = np.zeros((2, jet_size(num_vars, order)))
            for m, c in zip(monomials(sub_vars, order), a.T):
                big = [0] * num_vars
                big[offset : offset + sub_vars] = m
                expect[:, idx[tuple(big)]] = c
            assert np.array_equal(jet_embed(a, sub_vars, num_vars, offset), expect)
        for offset in (-1, num_vars - sub_vars + 1):
            with pytest.raises(ValueError):
                jet_embed(a, sub_vars, num_vars, offset)


def test_jet_variables_are_coordinate_jets():
    point = [0.3, -1.2, 2.0]
    for order in range(5):
        idx = index_map(3, order)
        expect = np.zeros((3, jet_size(3, order)))
        expect[:, 0] = point
        if order >= 1:
            for v, unit in enumerate(np.eye(3, dtype=int)):
                expect[v, idx[tuple(unit)]] = 1.0
        assert np.array_equal(jet_variables(point, order), expect)


def test_truncate_is_prefix_slice():
    u = jet_variables([0.4, 0.0], 4)[0]
    f = jets.exp(u, 2)
    t = f[: jet_size(2, 2)]
    assert jet_index(2, len(t)).order == 2
    assert t[0] == f[0]
    assert jet_gradient(t, 2)[:, 0].tolist() == jet_gradient(f, 2)[:, 0].tolist()


def test_jet_solve_and_inverse_roundtrip():
    rng = np.random.default_rng(3)
    n = 3
    t = jet_variables([0.0, 0.0], 2)[0]
    mat = np.array(
        [[constant(rng.standard_normal(), 2, 2) + t * rng.standard_normal() for _ in range(n)] for _ in range(n)]
    )
    for i in range(n):
        mat[i, i, 0] += 5.0
    X = jet_lu(mat, np.linalg.inv(mat[..., 0]), 2, np.eye(n))[1]
    prod_val = ref_matmul(mat, X, 2)[..., 0]
    assert np.allclose(prod_val, np.eye(n), atol=1e-12)


def test_jet_det_matches_numpy_and_derivative():
    rng = np.random.default_rng(5)
    n = 4
    base = rng.standard_normal((n, n))
    direction = rng.standard_normal((n, n))
    t = jet_variables([0.0], 2)[0]
    mat = np.array([[constant(base[i, j], 1, 2) + t * direction[i, j] for j in range(n)] for i in range(n)])
    d = jet_det(mat, 1)
    assert d[0] == pytest.approx(np.linalg.det(base), rel=1e-12)
    # d/dt det(base + t direction) = det(base) tr(base^{-1} direction)
    expect = np.linalg.det(base) * np.trace(np.linalg.solve(base, direction))
    assert jet_gradient(d, 1)[0, 0] == pytest.approx(expect, rel=1e-10)


def test_jet_det_singular_value_part():
    # value part singular but the jet determinant still carries derivatives
    t = jet_variables([0.0], 2)[0]
    one = constant(1.0, 1, 2)
    zero = constant(0.0, 1, 2)
    d = jet_det(np.array([[t, one], [one, zero]]), 1)
    assert d[0] == pytest.approx(-1.0)
    d2 = jet_det(np.array([[t, zero], [zero, t]]), 1)
    assert d2[0] == 0.0
    assert coefficient(d2, 1, (2,)) == pytest.approx(1.0)


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_product_table_matches_all_pairs_reference(num_vars, order):
    mono = monomials(num_vars, order)
    idx = index_map(num_vars, order)
    expect = {
        (i, j, idx[tuple(x + y for x, y in zip(a, b))])
        for i, a in enumerate(mono)
        for j, b in enumerate(mono)
        if sum(a) + sum(b) <= order
    }
    ii, jj, kk, starts = jet_index(num_vars, len(mono)).products()
    assert len(ii) == len(expect)
    assert set(zip(ii.tolist(), jj.tolist(), kk.tolist())) == expect
    assert np.all(np.diff(kk) >= 0) and kk[starts].tolist() == list(range(len(mono)))


@pytest.mark.parametrize("num_vars", range(1, 6))
def test_successors_and_hessian_sources_match_brute_force(num_vars):
    """``successors[v, b]`` is the position of monomial b + e_v, and the
    hessian source [p, b] that of b + e_i + e_j for the p-th pair i >= j,
    at orders 0 to 5."""
    eye = [tuple(e) for e in np.eye(num_vars, dtype=int).tolist()]
    for order in range(6):
        index, idx = jet_index(num_vars, jet_size(num_vars, order)), index_map(num_vars, order)
        mono = monomials(num_vars, order)
        lower = mono[: jet_size(num_vars, order - 1)]
        expect = [[idx[tuple(np.add(b, e))] for b in lower] for e in eye]
        assert index.successors.shape == (num_vars, len(lower))
        assert index.successors.tolist() == expect
        if order >= 2:
            lower = mono[: jet_size(num_vars, order - 2)]
            pairs = zip(*np.tril_indices(num_vars))
            expect = [[idx[tuple(np.add(b, eye[i]) + eye[j])] for b in lower] for i, j in pairs]
            assert index.hessian[0].tolist() == expect


def test_product_table_build_stays_small():
    """The full product table in 20 variables at order 5 (1.2 million
    triples) raises a fresh process's peak memory by less than 200 MB."""
    code = (
        "import resource; from equiaffine.jets import jet_index, jet_size; "
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "jet_index(20, jet_size(20, 5)).products(); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(equiaffine.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200 * 1024  # ru_maxrss counts KiB on Linux


def random_jet_matrix(rng, n, num_vars, order, shift):
    """(n, n, M) random jet array, value parts shifted by ``shift`` on the diagonal."""
    coeffs = rng.standard_normal((n, n, len(monomials(num_vars, order))))
    coeffs[..., 0] += shift * np.eye(n)
    return coeffs


def solve(A, num_vars, B):
    """A^{-1} B for a jet-valued right-hand side B: ``jet_lu``'s inverse of
    A, from numpy's inverse of the value part, times B."""
    inverse = jet_lu(A, np.linalg.inv(A[..., 0]), num_vars, np.eye(A.shape[-2]), log_det=False)[1]
    return jet_matmul(inverse, B, num_vars)


def assert_solves(A, X, B, num_vars):
    """A X = B as jets, derivatives included, up to rounding relative to the
    size of the terms summed: each coefficient of A X sums at most
    ``n * M`` products of size ``max|A| max|X|``."""
    atol = 1e-13 * np.abs(A).max() * np.abs(X).max() * A.shape[0] * A.shape[-1]
    assert np.allclose(ref_matmul(A, X, num_vars), B, rtol=0.0, atol=atol)
    assert np.allclose(jet_matmul(A, X, num_vars), B, rtol=0.0, atol=atol)


def assert_det_matches(A, det, ref, num_vars):
    """det = ref as jets up to rounding relative to the size of the terms
    the two determinants sum, coefficient by coefficient."""
    atol = 100 * np.finfo(float).eps * A.shape[0] * A.shape[-1] * det_term_scale(A, num_vars)
    assert np.all(np.abs(det - ref) <= atol)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_jet_lu_against_numpy_and_jet_det(n, num_vars, order, seed):
    rng = np.random.default_rng(seed)
    A = random_jet_matrix(rng, n, num_vars, order, shift=3.0)
    B = rng.standard_normal((n, 2, A.shape[-1]))
    inv0 = np.linalg.inv(A[..., 0])
    log_det, inverse = jet_lu(A, inv0, num_vars, np.eye(n))
    X = jet_matmul(inverse, B, num_vars)
    assert log_det[0] == 0.0
    det, ref = lu_det(A, num_vars, log_det), jet_det(A, num_vars)
    assert_det_matches(A, det, ref, num_vars)
    assert det[0] == pytest.approx(np.linalg.det(A[..., 0]), rel=1e-12)
    assert np.allclose(X[..., 0], np.linalg.solve(A[..., 0], B[..., 0]), rtol=1e-10, atol=1e-12)
    assert_solves(A, X, B, num_vars)
    assert jet_lu(A, inv0, num_vars)[1] is None
    # a caller that only solves skips the log-determinant, not a bit of the inverse
    skipped, inverse_only = jet_lu(A, inv0, num_vars, np.eye(n), log_det=False)
    assert skipped is None and inverse_only.tobytes() == inverse.tobytes()


@pytest.mark.parametrize("seed", [1110, 2614])
def test_jet_lu_residual_is_relative_on_ill_conditioned_draws(seed):
    # (n, num_vars, order) = (4, 2, 4) and (3, 3, 4), then A and B from the
    # same stream: value parts conditioned in the thousands, so the jet
    # solution is large and A X = B misses B by 1e-4 to 1e-3 from rounding
    rng = np.random.default_rng(seed)
    n, num_vars, order = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 5))
    A = random_jet_matrix(rng, n, num_vars, order, shift=3.0)
    B = rng.standard_normal((n, 2, A.shape[-1]))
    X = solve(A, num_vars, B)
    assert_solves(A, X, B, num_vars)
    assert_solves(A, lu_series(A, num_vars, B)[1], B, num_vars)  # the reference, to the same tolerance
    # a solution off by 1e-8 of its size is not a solution
    X_off = X + 1e-8 * np.abs(X).max() * rng.standard_normal(X.shape)
    with pytest.raises(AssertionError):
        assert_solves(A, X_off, B, num_vars)


@pytest.mark.parametrize(
    "n, num_vars, order, seed", [(3, 2, 4, 1019290596), (3, 3, 4, 2079752404), (4, 2, 1, 2441620756)]
)
def test_jet_lu_determinant_is_relative_on_ill_conditioned_draws(n, num_vars, order, seed):
    # value parts conditioned about 1e3, 8e3 and 2.4e4: on the first two the
    # order-4 coefficients of jet_lu's series cancel and miss the expansion by
    # up to 2e-8, far beyond eps times the permanent of |A|; on the last the
    # series term alone is too small
    rng = np.random.default_rng(seed)
    A = random_jet_matrix(rng, n, num_vars, order, shift=3.0)
    det, ref = lu_det(A, num_vars), jet_det(A, num_vars)
    assert_det_matches(A, det, ref, num_vars)
    assert_det_matches(A, lu_det(A, num_vars, lu_series(A, num_vars)[0]), ref, num_vars)  # the reference too
    # a determinant off by 1e-8 of its size is not the determinant
    det_off = det + 1e-8 * np.abs(ref).max() * rng.standard_normal(det.shape)
    with pytest.raises(AssertionError):
        assert_det_matches(A, det_off, ref, num_vars)


def test_jet_lu_derivative_of_determinant():
    # d/dt det(base + t direction) = det(base) tr(base^{-1} direction)
    rng = np.random.default_rng(7)
    n = 4
    base = rng.standard_normal((n, n)) + 3 * np.eye(n)
    direction = rng.standard_normal((n, n))
    A = np.zeros((n, n, 3))
    A[..., 0], A[..., 1] = base, direction
    det = lu_det(A, 1)
    assert det[1] == pytest.approx(np.linalg.det(base) * np.trace(np.linalg.solve(base, direction)), rel=1e-10)


def test_jet_lu_zero_pivot_raises():
    # first column has a vanishing value part: jet_det copes, while the value
    # part has no inverse to pass to jet_lu and the reference LU raises
    t = jet_variables([0.0], 2)[0]
    one = constant(1.0, 1, 2)
    A = np.array([[t, one], [t * 2.0, one]])
    assert coefficient(jet_det(A, 1), 1, (1,)) == pytest.approx(-1.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(A[..., 0])
    with pytest.raises(np.linalg.LinAlgError):
        lu_series(A, 1)
    with pytest.raises(np.linalg.LinAlgError):
        lu_series(A, 1, np.array([[one], [one]]))


def test_jet_lu_pivots_past_zero_corner():
    # nonsingular value part whose (0, 0) entry vanishes: an LU needs pivoting,
    # the series from the value part's inverse does not
    rng = np.random.default_rng(11)
    A = random_jet_matrix(rng, 3, 2, 3, shift=0.0)
    A[..., 0] = [[0.0, 1.0, 2.0], [1.0, 0.5, 3.0], [2.0, -1.0, 1.0]]
    B = rng.standard_normal((3, 2, A.shape[-1]))
    log_det = jet_lu(A, np.linalg.inv(A[..., 0]), 2)[0]
    X = solve(A, 2, B)
    det, ref = lu_det(A, 2, log_det), jet_det(A, 2)
    assert np.allclose(det, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    assert np.allclose(jet_matmul(A, X, 2), B, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_jet_lu_order_4_up_to_n_7(n, num_vars, seed):
    rng = np.random.default_rng(seed)
    A = random_jet_matrix(rng, n, num_vars, 4, shift=3.0 * n)  # well conditioned at every n
    B = rng.standard_normal((n, 3, A.shape[-1]))
    log_det = jet_lu(A, np.linalg.inv(A[..., 0]), num_vars)[0]
    X = solve(A, num_vars, B)
    det, ref = lu_det(A, num_vars, log_det), jet_det(A, num_vars)
    assert np.allclose(det, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
    assert np.allclose(jet_matmul(A, X, num_vars), B, atol=1e-8 * np.abs(B).max())


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.integers(1, 4), st.sampled_from([1, 4]), st.integers(0, 2**32 - 1))
def test_jet_lu_matches_the_solve_reference(n, num_vars, order, points, seed):
    """The series from the value part's inverse equal the solve-based
    reference (``lu_series``) to rounding, on stacks of ``points`` matrices:
    the log-determinant, and the inverse and the solution for a constant
    right-hand side, each coefficient within 1e-12 of the largest."""
    rng = np.random.default_rng(seed)
    A = np.array([random_jet_matrix(rng, n, num_vars, order, shift=3.0 * n) for _ in range(points)])
    B = rng.standard_normal((points, n, 2))
    inv0 = np.linalg.inv(A[..., 0])
    eye = np.zeros(A.shape)
    eye[..., 0] = np.eye(n)
    rhs = np.zeros(B.shape + A.shape[-1:])
    rhs[..., 0] = B
    for got, ref in [(jet_lu(A, inv0, num_vars)[0], lu_series(A, num_vars)[0]),
                     (jet_lu(A, inv0, num_vars, np.eye(n))[1], lu_series(A, num_vars, eye)[1]),
                     (jet_lu(A, inv0, num_vars, B)[1], lu_series(A, num_vars, rhs)[1])]:
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 9, 14])
def test_jet_lu_stack_rows_equal_single_matrices_bitwise(n):
    """Each row of a stacked ``jet_lu`` (log-determinant and solution) equals
    that row's matrix alone, bit for bit, for stacks of 1, 3 and 6 at the
    pipeline's shapes: the (n+1)-matrix M at order 2 with its conormal
    column and at order 1 with the rest, and the n-matrices G' (order 2) and
    g (order 1)."""
    rng = np.random.default_rng(n)
    cases = [(n + 1, 2, np.eye(n + 1)[:, n:]), (n + 1, 1, np.eye(n + 1)[:, :n]), (n, 2, None), (n, 1, np.eye(n))]
    for size, order, B in cases:
        for points in (1, 3, 6):
            A = np.array([random_jet_matrix(rng, size, n, order, shift=3.0 * size) for _ in range(points)])
            inv0 = np.linalg.inv(A[..., 0])
            stacked = jet_lu(A, inv0, n, B)
            for k in range(points):
                alone = jet_lu(A[k], inv0[k], n, B)
                for got, want in zip(stacked, alone):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got[k].tobytes() == want.tobytes(), (size, order, points, k)


def _contraction_operands(rng, shape, points, size):
    """The operands of a contraction in ``shape`` of ``test_jet_matmul_matches_reference``."""
    if shape == "column":  # G'_ij = y . x_ij: the pairs (i, j) against one (..., k, 1) column
        return rng.standard_normal((points, 6, 4, size)), rng.standard_normal((points, 4, 1, size))
    if shape == "pairs-left":  # Gamma^k_ij x_k: a transposed reshaped view [ij, k] on the left
        gamma = rng.standard_normal((points, 3, 3, 3, size))
        return gamma.reshape(points, 3, 9, size).swapaxes(1, 2), rng.standard_normal((points, 3, 4, size))
    return rng.standard_normal((points, 2, 3, size)), rng.standard_normal((points, 3, 5, size))


@pytest.mark.parametrize("points", [1, 4])
@pytest.mark.parametrize("shape", ["matrix", "column", "pairs-left"])
def test_jet_matmul_matches_reference(shape, points):
    """``jet_matmul`` on the operand shapes the pipeline contracts, with a
    leading point axis, against ``ref_matmul`` point by point, up to
    rounding relative to the size of the terms summed."""
    rng = np.random.default_rng(3)
    num_vars, size = 2, jet_size(2, 3)
    a, b = _contraction_operands(rng, shape, points, size)
    got = jet_matmul(a, b, num_vars)
    assert got.shape == (points, a.shape[1], b.shape[2], size)
    eps = np.finfo(float).eps
    for k in range(points):
        terms = ref_matmul(np.abs(a[k]), np.abs(b[k]), num_vars)
        assert np.all(np.abs(got[k] - ref_matmul(a[k], b[k], num_vars)) <= 4 * eps * a.shape[2] * size * terms)


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(small, small, small)
def test_ring_axioms(a, b, c):
    x, y = jet_variables([a, b], 3)
    z = constant(c, 2, 3) + jet_mul(x, y, 2)
    lhs = jet_mul(x + y, z, 2)
    rhs = jet_mul(x, z, 2) + jet_mul(y, z, 2)
    assert np.allclose(lhs, rhs, atol=1e-12)
    comm = jet_mul(x, y, 2) - jet_mul(y, x, 2)
    assert np.max(np.abs(comm)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0))
def test_exp_log_inverse(a):
    x = jet_variables([a], 4)[0]
    back = jets.exp(jets.log(x, 1), 1)
    assert np.allclose(back, x, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(small)
def test_sin_cos_pythagorean(a):
    x = jet_variables([a], 4)[0]
    s, c = jets.sin(x, 1), jets.cos(x, 1)
    unit = jet_mul(s, s, 1) + jet_mul(c, c, 1)
    expect = constant(1.0, 1, 4)
    assert np.allclose(unit, expect, atol=1e-12)


def bounded_jets(rng, shape, num_vars, order, bound):
    """Random jets whose coefficients above degree ``bound`` are exactly zero."""
    a = rng.standard_normal(shape + (jet_size(num_vars, order),))
    a[..., jet_size(num_vars, min(bound, order)) :] = 0.0
    return a


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_bounded_products_equal_full_products(num_vars, order, seed):
    """For every pair of degree bounds, with bounds above the order among
    them, a product of jets that meet their bounds equals the full product
    up to the grouping of its sums, and is exactly zero above da + db."""
    rng = np.random.default_rng(seed)
    size = jet_size(num_vars, order)
    for da in range(order + 2):
        for db in range(order + 2):
            a = bounded_jets(rng, (2, 3), num_vars, order, da)
            b = bounded_jets(rng, (3, 2), num_vars, order, db).swapaxes(0, 1)
            top = jet_size(num_vars, min(order, da + db))
            atol = 4 * np.finfo(float).eps * 3 * size * np.abs(a).max() * np.abs(b).max()
            full, got = jet_mul(a, b, num_vars), jet_mul(a, b, num_vars, (da, db))
            assert got.shape == full.shape
            assert np.allclose(got, full, rtol=0.0, atol=atol)
            assert not got[..., top:].any() and not full[..., top:].any()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_bounded_power_and_exp_equal_full_ones(num_vars, order, bound, seed):
    """``power`` and ``exp`` of jets that meet a degree bound equal the
    unbounded calls up to rounding; an integer power k >= 0 is exactly zero
    above k * bound, and the exp of a constant is a constant."""
    rng = np.random.default_rng(seed)
    x = bounded_jets(rng, (3,), num_vars, order, bound) * 0.5
    x[..., 0] = 1.0 + np.abs(x[..., 0])  # in every exponent's domain
    for p in (0, 1, 2, 3, 5, 6, -1, -2, Fraction(1, 2), Fraction(-3, 2)):
        full, got = jets.power(x, p, num_vars), jets.power(x, p, num_vars, bound)
        assert np.allclose(got, full, rtol=1e-13, atol=1e-13 * np.abs(full).max())
        if isinstance(p, int) and p >= 0:
            assert not got[..., jet_size(num_vars, min(order, p * bound)) :].any()
    full, got = jets.exp(x, num_vars), jets.exp(x, num_vars, bound)
    assert np.allclose(got, full, rtol=1e-13, atol=1e-13 * np.abs(full).max())
    if bound == 0:
        assert not got[..., 1:].any()


@pytest.mark.parametrize("n", range(1, 7))
def test_derivative_gathers_equal_chained_gradients_bitwise(n):
    # the pipeline's gathers: the second partials over the pairs i >= j in
    # one (jet_hessian), the first partials at order 2 from the order-3
    # truncation, and degree-1 coefficients as slices; against jet_gradient
    # taken once or twice
    rng = np.random.default_rng(n)
    rows, cols = np.tril_indices(n)
    for order in range(2, 6):
        a = rng.standard_normal((2, 3, jet_size(n, order))) * 10.0 ** rng.uniform(-8, 8, (2, 3, 1))
        twice = jet_gradient(jet_gradient(a, n), n)  # [i, j] = d_j d_i
        assert jet_hessian(a, n).tobytes() == twice[..., rows, cols, :].tobytes()
        assert jet_hessian(a, n).tobytes() == twice.swapaxes(-3, -2)[..., rows, cols, :].tobytes()
        lower = jet_size(n, order - 1)
        assert jet_gradient(a[..., :lower], n).tobytes() == jet_gradient(a, n)[..., : jet_size(n, order - 2)].tobytes()
        assert a[..., 1 : n + 1].tobytes() == np.ascontiguousarray(jet_gradient(a, n)[..., 0]).tobytes()
    with pytest.raises(ValueError):
        jet_hessian(np.zeros(jet_size(n, 1)), n)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_order_5_runs_without_a_cap(num_vars):
    """Jets of order 5 against the reference arithmetic of ``jet_reference``,
    each up to rounding relative to the size of the terms summed: products,
    matrix products, ``jet_lu``'s solve and log-determinant, and exp, log,
    sqrt and power."""
    order, n = 5, 3
    rng = np.random.default_rng(50 + num_vars)
    size = jet_size(num_vars, order)
    assert jet_index(num_vars, size).order == order
    eps = np.finfo(float).eps

    a, b = rng.standard_normal((2, n, size))
    got = jet_mul(a, b, num_vars)
    for k in range(n):
        terms = ref_mul(np.abs(a[k]), np.abs(b[k]), num_vars)
        assert np.all(np.abs(got[k] - ref_mul(a[k], b[k], num_vars)) <= 4 * eps * size * terms)

    A = random_jet_matrix(rng, n, num_vars, order, shift=3.0)
    B = rng.standard_normal((n, 2, size))
    terms = ref_matmul(np.abs(A), np.abs(B), num_vars)
    assert np.all(np.abs(jet_matmul(A, B, num_vars) - ref_matmul(A, B, num_vars)) <= 4 * eps * n * size * terms)

    log_det = jet_lu(A, np.linalg.inv(A[..., 0]), num_vars)[0]
    X = solve(A, num_vars, B)
    residual = ref_matmul(A, X, num_vars) - B
    assert np.all(np.abs(residual) <= 100 * eps * n * size * ref_matmul(np.abs(A), np.abs(X), num_vars))
    assert_det_matches(A, lu_det(A, num_vars, log_det), jet_det(A, num_vars), num_vars)

    x = rng.standard_normal(size) * 0.3
    x[0] = 1.5
    x0, dx = x[0], np.abs(x)
    cases = [
        (jets.exp(x, num_vars), [math.exp(x0) / math.factorial(k) for k in range(order + 1)]),
        (jets.log(x, num_vars), [math.log(x0)] + [(-1) ** (k + 1) / (k * x0**k) for k in range(1, order + 1)]),
        (jets.sqrt(x, num_vars), power_coefficients(x0, Fraction(1, 2), order)),
    ]
    cases += [(jets.power(x, p, num_vars), power_coefficients(x0, p, order)) for p in (3, -2, Fraction(-3, 2))]
    for got, coeffs in cases:
        terms = ref_series(dx, np.abs(coeffs), num_vars)
        assert np.all(np.abs(got - ref_series(x, coeffs, num_vars)) <= 100 * eps * size * terms)


def test_index_cache_stays_bounded():
    """Building more (n, order) indices than the cache holds keeps it at its
    bound, and an evicted index, built again, gives bitwise-equal tables."""
    def tables(index):
        return [index.monomials, *index.products(), *index.products((2, 1)), *index.gradient, *index.hessian,
                index.embedding(5, 1)]

    first = jet_index(3, jet_size(3, 4))
    before = [table.copy() for table in tables(first)]
    for order in range(jets.INDEX_CACHE + 1):
        jet_index(1, jet_size(1, order))
        assert jet_index.cache_info().currsize <= jets.INDEX_CACHE
    assert jet_index.cache_info().currsize == jets.INDEX_CACHE
    again = jet_index(3, jet_size(3, 4))
    assert again is not first
    after = tables(again)
    assert [t.dtype for t in after] == [t.dtype for t in before]
    assert all(np.array_equal(x, y) for x, y in zip(after, before))
