"""Invariant pipeline: independent finite-difference oracle, model
surfaces with known invariants, and the structural identities."""

import numpy as np
import pytest

from equiaffine import blaschke_at, parse_chart
from equiaffine.blaschke import (
    ConvexityError,
    _chart_derivatives,
    _determinant_form,
    check_apolarity,
    check_codazzi,
    check_gauss,
    check_gauss_alt,
    check_hypersphere,
    check_ricci,
    check_trace_identity,
    nabla_A_norm,
)
from equiaffine.calabi import CompositionSpec, compose_chart
from equiaffine.catalog import TransformedChart, flat_factor, hyperboloid, random_unimodular, sl_so
from equiaffine.jets import jet_det, jet_gradient

GENERIC = (
    "dim 2; x1 = u1; x2 = u2; "
    "x3 = 0.5*(u1^2 + u2^2) + 0.1*u1^3 - 0.05*u1*u2^2 + 0.02*u2^4 + 0.03*u1*u2;"
)


def chart_values(chart, point):
    return chart.component_jets(np.asarray(point, float), 1)[:, 0]


def fd_blaschke_metric(chart, point, h=1e-4):
    """Berwald-Blaschke metric from value-level finite differences only:
    first/second chart derivatives by Richardson-extrapolated central
    differences, then G_ij = det(x_1..x_n, x_ij), g = |det G|^{-1/(n+2)} G."""
    point = np.asarray(point, float)
    n = chart.dim

    def d1(i, hh):
        e = np.zeros(n)
        e[i] = hh
        return (chart_values(chart, point + e) - chart_values(chart, point - e)) / (2 * hh)

    def d2(i, j, hh):
        ei, ej = np.zeros(n), np.zeros(n)
        ei[i], ej[j] = hh, hh
        if i == j:
            return (
                chart_values(chart, point + ei)
                - 2 * chart_values(chart, point)
                + chart_values(chart, point - ei)
            ) / hh**2
        return (
            chart_values(chart, point + ei + ej)
            - chart_values(chart, point + ei - ej)
            - chart_values(chart, point - ei + ej)
            + chart_values(chart, point - ei - ej)
        ) / (4 * hh**2)

    def richardson(f):
        return (4 * f(h / 2) - f(h)) / 3

    tangents = [richardson(lambda hh, i=i: d1(i, hh)) for i in range(n)]
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            hess = richardson(lambda hh, i=i, j=j: d2(i, j, hh))
            G[i, j] = G[j, i] = np.linalg.det(np.column_stack(tangents + [hess]))
    det = np.linalg.det(G)
    if det < 0 and np.linalg.eigvalsh(G)[-1] < 0:
        G = -G
        det = np.linalg.det(G)
    return abs(det) ** (-1.0 / (n + 2)) * G


def test_metric_against_finite_difference_oracle():
    chart = parse_chart(GENERIC)
    for point in ([0.1, -0.2], [0.0, 0.0], [0.25, 0.3]):
        inv = blaschke_at(chart, point)
        oracle = fd_blaschke_metric(chart, point)
        assert np.max(np.abs(inv.g - oracle)) < 1e-6


def test_affine_normal_against_finite_differences():
    """xi = (1/n) g^{ij} (x_ij - Gamma^k_ij x_k) recomputed from FD metric
    Christoffels and FD chart derivatives."""
    chart = parse_chart(GENERIC)
    point = np.array([0.12, -0.07])
    n = 2
    inv = blaschke_at(chart, point)
    h = 1e-4

    def gmet(p):
        return fd_blaschke_metric(chart, p)

    g0 = gmet(point)
    ginv = np.linalg.inv(g0)
    dg = np.zeros((n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dg[l] = (gmet(point + e) - gmet(point - e)) / (2 * h)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j]) for l in range(n)
                )
    d1 = jet_gradient(chart.component_jets(point, 4), n)  # [a, i] = d_i x^a
    x1 = d1[..., 0].T
    x2 = jet_gradient(d1, n)[..., 0].transpose(1, 2, 0)  # [i, j, a] = d_j d_i x^a
    xi = np.einsum("ij,ija->a", ginv, x2 - np.einsum("kij,ka->ija", gamma, x1)) / n
    assert np.max(np.abs(xi - inv.xi)) < 1e-5


def test_unit_sphere_invariants():
    chart = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 - u1^2 - u2^2);")
    for point in ([0.0, 0.0], [0.2, -0.1]):
        inv = blaschke_at(chart, point)
        assert inv.L1 == pytest.approx(1.0, abs=1e-12)
        assert inv.chi == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(inv.A)) < 1e-12
        assert abs(inv.J) < 1e-12
        # center at the origin: xi = -x
        assert np.max(np.abs(inv.xi + inv.position)) < 1e-12
        assert np.max(np.abs(inv.B - inv.g)) < 1e-12


def test_paraboloid_improper_sphere():
    chart = parse_chart("dim 3; x1 = u1; x2 = u2; x3 = u3; x4 = 0.5*(u1^2 + u2^2 + u3^2);")
    inv = blaschke_at(chart, [0.3, -0.2, 0.1])
    assert inv.L1 == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(inv.A)) < 1e-12
    assert np.max(np.abs(inv.B)) < 1e-12
    # constant affine normal (0, ..., 0, 1)
    expect = np.zeros(4)
    expect[3] = 1.0
    assert np.max(np.abs(inv.xi - expect)) < 1e-12


def test_hyperboloid_hyperbolic_sphere():
    chart = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2);")
    inv = blaschke_at(chart, [0.4, 0.1])
    assert inv.L1 == pytest.approx(-1.0, abs=1e-12)
    assert inv.chi == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(inv.xi - inv.position)) < 1e-12
    shape, center = check_hypersphere(inv, 1e-10)
    assert shape.passed and center.passed


def test_orientation_insensitive():
    # flipping the graph upside down must not change scalar invariants
    up = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2);")
    down = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = -(sqrt(1 + u1^2 + u2^2));")
    a = blaschke_at(up, [0.2, 0.1])
    b = blaschke_at(down, [0.2, 0.1])
    assert a.L1 == pytest.approx(b.L1, abs=1e-12)
    assert np.max(np.abs(a.g - b.g)) < 1e-12


def test_convexity_error_on_saddle():
    chart = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = u1^2 - u2^2;")
    with pytest.raises(ConvexityError):
        blaschke_at(chart, [0.0, 0.0])


@pytest.mark.parametrize("n", [2, 3])
def test_degenerate_form_raises_convexity_error(n):
    # plane (G = 0) and parabolic cylinder (rank-1 G)
    us = [f"u{i + 1}" for i in range(n)]
    coords = "".join(f"x{i + 1} = {u}; " for i, u in enumerate(us))
    for last in ("0.5 + 0*u1", "u1^2"):
        with pytest.raises(ConvexityError):
            blaschke_at(parse_chart(f"dim {n}; {coords}x{n + 1} = {last};"), np.full(n, 0.1))


def test_dependent_tangents_raise_convexity_error():
    x1 = np.zeros((2, 3, 10))
    x1[0, 0, 0] = x1[1, 0, 0] = 1.0  # x_1 = x_2 at value level
    with pytest.raises(ConvexityError):
        _determinant_form(x1, np.zeros((2, 2, 3, 6)), [0.0, 0.0])


def _conormal_cases():
    rng = np.random.default_rng(11)
    spec = CompositionSpec(r=1, factors=(flat_factor(2, 1.0),), constants=(1.0, 1.0))
    cases = [(hyperboloid(n), np.full(n, 0.2) * (-1) ** np.arange(n)) for n in range(1, 5)]
    cases.append((sl_so(3), np.array([0.06, 0.2, 0.14, -0.14, -0.1])))
    cases.append((compose_chart(spec), np.array([0.1, -0.2, 0.15])))
    cases.append((TransformedChart(parse_chart(GENERIC), random_unimodular(3, rng)), np.array([0.15, -0.1])))
    return cases


@pytest.mark.parametrize("chart, point", _conormal_cases())
def test_conormal_form_matches_determinants(chart, point):
    """G_ij = nu . x_ij equals det(x_1, ..., x_n, x_ij) from the division-free
    jet_det, coefficient by coefficient."""
    n = chart.dim
    _, x1, hess = _chart_derivatives(chart, point)
    G = _determinant_form(x1, hess, point)
    m2 = hess.shape[-1]

    def det_jet(i, j):
        columns = np.concatenate([x1[..., :m2], hess[i, j][None]])  # [column, a]
        return jet_det(columns.transpose(1, 0, 2), n)

    ref = np.array([[det_jet(i, j) for j in range(n)] for i in range(n)])
    assert np.allclose(G, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_hyperboloid_dimension_8():
    inv = blaschke_at(hyperboloid(8), np.linspace(-0.3, 0.3, 8))
    assert inv.L1 == pytest.approx(-1.0, abs=1e-10)
    assert inv.J == pytest.approx(0.0, abs=1e-10)
    assert inv.chi == pytest.approx(-1.0, abs=1e-10)
    assert np.max(np.abs(inv.B - inv.L1 * inv.g)) < 1e-10


def test_structural_identities_generic_surface():
    chart = parse_chart(GENERIC)
    for point in ([0.15, -0.1], [0.05, 0.2]):
        inv = blaschke_at(chart, point)
        assert check_apolarity(inv).passed
        assert check_gauss(chart, point, inv=inv).passed
        assert check_ricci(inv).passed
        assert check_codazzi(inv).passed
        assert check_trace_identity(inv).passed
        assert check_gauss_alt(inv).passed


def test_structural_identities_dim3():
    chart = parse_chart(
        "dim 3; x1 = u1; x2 = u2; x3 = u3; "
        "x4 = 0.5*(u1^2 + u2^2 + u3^2) + 0.05*u1*u2*u3 + 0.02*u1^3;"
    )
    point = [0.1, 0.15, -0.05]
    inv = blaschke_at(chart, point)
    assert check_apolarity(inv).passed
    assert check_gauss(chart, point, inv=inv).passed
    assert check_ricci(inv).passed
    assert check_codazzi(inv).passed
    assert check_trace_identity(inv).passed
    assert check_gauss_alt(inv).passed


def test_nabla_a_norm_zero_on_quadric_positive_generic():
    quadric = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2);")
    norm, side = nabla_A_norm(quadric, [0.1, 0.2])
    assert norm < 1e-10 and side.passed
    generic = parse_chart(GENERIC)
    norm, side = nabla_A_norm(generic, [0.15, -0.1])
    assert norm > 1e-3 and side.passed


def test_pick_invariant_relation_on_flat_sphere():
    # for the flat hypersphere family chi = 0, so J = chi - L1 = -L1
    from equiaffine.catalog import flat_hypersphere

    chart = flat_hypersphere(3, 2.0)
    inv = blaschke_at(chart, [0.1, -0.2, 0.05])
    assert inv.chi == pytest.approx(0.0, abs=1e-10)
    assert inv.J == pytest.approx(-inv.L1, abs=1e-10)


def test_curvature_scalar_consistency():
    # chi is the full double trace of the curvature tensor
    chart = parse_chart(GENERIC)
    inv = blaschke_at(chart, [0.1, 0.1])
    n = inv.dim
    chi = np.einsum("il,jk,ijkl->", inv.g_inv, inv.g_inv, inv.curvature.riemann) / (n * (n - 1))
    assert inv.chi == pytest.approx(chi, abs=1e-14)
