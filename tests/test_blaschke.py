"""Invariant pipeline: independent finite-difference oracle, model
surfaces with known invariants, and the structural identities."""

from dataclasses import fields

import numpy as np
import pytest

from equiaffine import BlaschkeInvariants, blaschke_at, parse_chart
from equiaffine.blaschke import (
    L1_ZERO_TOL,
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
from equiaffine.calabi import CompositionSpec, HypersphereFactor, compose_chart
from equiaffine.catalog import (
    ENTRIES,
    TransformedChart,
    flat_factor,
    get_chart,
    hyperboloid,
    random_unimodular,
    sl_so,
)
from equiaffine.cli import DEFAULT_TOL, POINT_CHECKS
from equiaffine.jets import jet_gradient
from equiaffine.tensors import CurvatureData
from jet_reference import jet_det

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


def test_hyperboloid_dimension_14():
    # the paper's 14-dimensional size through the generic pipeline
    inv = blaschke_at(hyperboloid(14), np.linspace(-0.3, 0.3, 14))
    assert inv.L1 == pytest.approx(-1.0, abs=1e-10)
    assert inv.J == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(inv.B - inv.L1 * inv.g)) < 1e-10


def test_structural_identities_generic_surface():
    chart = parse_chart(GENERIC)
    for point in ([0.15, -0.1], [0.05, 0.2]):
        inv = blaschke_at(chart, point)
        assert check_apolarity(inv).passed
        assert check_gauss(inv).passed
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
    assert check_gauss(inv).passed
    assert check_ricci(inv).passed
    assert check_codazzi(inv).passed
    assert check_trace_identity(inv).passed
    assert check_gauss_alt(inv).passed


def test_nabla_a_norm_zero_on_quadric_positive_generic():
    quadric = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2);")
    inv = blaschke_at(quadric, [0.1, 0.2])
    assert nabla_A_norm(inv) < 1e-10 and check_codazzi(inv).passed
    generic = parse_chart(GENERIC)
    inv = blaschke_at(generic, [0.15, -0.1])
    assert nabla_A_norm(inv) > 1e-3 and check_codazzi(inv).passed


def test_pick_invariant_relation_on_flat_sphere():
    # for the flat hypersphere family chi = 0, so J = chi - L1 = -L1
    from equiaffine.catalog import flat_hypersphere

    chart = flat_hypersphere(3, 2.0)
    inv = blaschke_at(chart, [0.1, -0.2, 0.05])
    assert inv.chi == pytest.approx(0.0, abs=1e-10)
    assert inv.J == pytest.approx(-inv.L1, abs=1e-10)


@pytest.mark.parametrize("n0", [1, 2])
def test_frame_test_is_column_scaled(n0):
    # C0 = 1e8 stretches the frame's columns apart: the raw singular-value
    # ratio is 7e-14, under the 1e-12 gate, yet the frame is far from singular
    from equiaffine.catalog import flat_hypersphere

    chart = flat_hypersphere(n0, 1e8)
    L1 = chart.spec_closed_form.L1
    for point in chart.sample_points(4, 1):
        assert blaschke_at(chart, point).L1 == pytest.approx(L1, rel=1e-12)


def test_curvature_scalar_consistency():
    # chi is the full double trace of the curvature tensor
    chart = parse_chart(GENERIC)
    inv = blaschke_at(chart, [0.1, 0.1])
    n = inv.dim
    chi = np.einsum("il,jk,ijkl->", inv.g_inv, inv.g_inv, inv.curvature.riemann) / (n * (n - 1))
    assert inv.chi == pytest.approx(chi, abs=1e-14)


def _stack_cases():
    spec = CompositionSpec(r=0, factors=(flat_factor(1, 1.0), HypersphereFactor(hyperboloid(2), -1.0, 2)),
                           constants=(1.0, 1.5))
    charts = {
        "flat_hypersphere": get_chart("flat_hypersphere", {"n0": 2}),
        "unit_sphere": get_chart("unit_sphere", {"n": 3}),
        "elliptic_paraboloid": get_chart("elliptic_paraboloid", {"n": 2}),
        "hyperboloid": get_chart("hyperboloid", {"n": 3}),
        "hyperboloid-n9": get_chart("hyperboloid", {"n": 9}),
        "sl_so": get_chart("sl_so", {"m": 3}),
        "graph": get_chart("graph", {"text": GENERIC}),
        "composition": compose_chart(spec),
        "transformed": TransformedChart(hyperboloid(2), random_unimodular(3, np.random.default_rng(4))),
    }
    return [pytest.param(chart, id=name) for name, chart in charts.items()]


def test_stack_cases_cover_the_catalog():
    assert {case.id for case in _stack_cases()} >= set(ENTRIES)


_FIELDS = tuple(f.name for f in fields(BlaschkeInvariants) if f.name not in ("curvature", "_nabla_A", "_sphere"))
_CURVATURE_FIELDS = tuple(f.name for f in fields(CurvatureData))


def _take(invs, index):
    """Rows of stacked invariants: the point ``index`` (an int: the one-point
    form) or the points of a slice (a stack), by indexing every field."""
    curvature = CurvatureData(*(getattr(invs.curvature, name)[index] for name in _CURVATURE_FIELDS))
    return BlaschkeInvariants(**{name: getattr(invs, name)[index] for name in _FIELDS}, curvature=curvature)


def _stack(rows):
    """One-point invariants as one stack, a leading point axis on every field."""
    curvature = CurvatureData(*(np.array([getattr(row.curvature, name) for row in rows])
                                for name in _CURVATURE_FIELDS))
    return BlaschkeInvariants(**{name: np.array([getattr(row, name) for row in rows]) for name in _FIELDS},
                              curvature=curvature)


@pytest.mark.parametrize("chart", _stack_cases())
def test_stack_rows_equal_single_points_bitwise(chart):
    points = chart.sample_points(6, 13)
    stacked = blaschke_at(chart, points)
    assert isinstance(stacked, BlaschkeInvariants) and stacked.point.shape == points.shape
    for k, point in enumerate(points):
        row = _take(stacked, k)
        alone = blaschke_at(chart, point)
        assert isinstance(alone, BlaschkeInvariants)
        for name in ("g", "A", "B", "xi", "nabla_A"):
            a, b = getattr(row, name), getattr(alone, name)
            a, b = (a(), b()) if callable(a) else (a, b)
            assert a.tobytes() == b.tobytes(), name
        for name in ("L1", "J", "chi"):
            assert np.float64(getattr(row, name)).tobytes() == np.float64(getattr(alone, name)).tobytes(), name


def test_stack_gate_names_the_first_failing_point():
    chart = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = u1^2 + u1 * u2^2;")  # a saddle where u1 < u2^2
    points = np.array([[0.3, 0.1], [-0.2, 0.1], [-0.4, 0.2]])
    with pytest.raises(ConvexityError) as err:
        blaschke_at(chart, points)
    with pytest.raises(ConvexityError) as alone:
        blaschke_at(chart, points[1])
    assert str(err.value) == str(alone.value)
    assert "at [-0.2  0.1]" in str(err.value)


def test_empty_stack_gives_no_invariants():
    with pytest.raises(ValueError, match="empty stack"):
        blaschke_at(hyperboloid(2), np.zeros((0, 2)))


def _bits(reports):
    return [(rep.check_name, float(rep.residual).hex(), rep.tolerance) for rep in reports]


def assert_stacked_checks_match_points(stacked):
    """Every POINT_CHECKS entry on the stacked invariants gives each row the
    bits of the entry on that row's point alone (the stack of P = 1), and
    every check function on the stack the bits of its one-point call."""
    size = len(stacked.point)
    invs = [_take(stacked, k) for k in range(size)]
    assert stacked.L1.shape == stacked.J.shape == stacked.chi.shape == (size,)
    for name, entry in POINT_CHECKS.items():
        rows = entry(stacked, DEFAULT_TOL)
        assert len(rows) == size
        for k, row in enumerate(rows):
            assert _bits(row) == _bits(entry(_take(stacked, slice(k, k + 1)), DEFAULT_TOL)[0]), (name, k)
    one_report = (check_apolarity, check_gauss, check_ricci, check_codazzi, check_trace_identity, check_gauss_alt)
    for check in one_report:
        assert _bits(check(stacked)) == _bits([check(inv) for inv in invs]), check.__name__
    assert [_bits(pair) for pair in check_hypersphere(stacked)] == [_bits(check_hypersphere(inv)) for inv in invs]
    assert [x.hex() for x in nabla_A_norm(stacked)] == [nabla_A_norm(inv).hex() for inv in invs]


def _check_stack_cases():
    cases = [pytest.param(case.values[0], size, id=f"{case.id}-P{size}")
             for case in _stack_cases() for size in (1, 2, 5)]
    # einsums on gradient-derived arrays (nabla A) may change their summation
    # order with the stack size from n = 8 up
    return cases + [pytest.param(get_chart("hyperboloid", {"n": 9}), 6, id="hyperboloid-n9-P6")]


@pytest.mark.parametrize("chart, size", _check_stack_cases())
def test_stacked_checks_equal_one_point_checks_bitwise(chart, size):
    assert_stacked_checks_match_points(blaschke_at(chart, chart.sample_points(size, 13)))


def test_mixed_stack_takes_each_rows_branch():
    # hyperbolic, elliptic (L1 > 0) and improper (L1 = 0) rows in turn
    charts = [get_chart(name, {"n": 2}) for name in ("hyperboloid", "unit_sphere", "elliptic_paraboloid")]
    by_chart = [blaschke_at(chart, chart.sample_points(2, 5)) for chart in charts]
    invs = [_take(bundle, k) for k in range(2) for bundle in by_chart]
    stacked = _stack(invs)
    assert_stacked_checks_match_points(stacked)

    dual = [[rep.check_name for rep in reps] for reps in POINT_CHECKS["dual"](stacked, DEFAULT_TOL)]
    assert dual == [["gauss_swap", "minimality"], ["dual_requires_hyperbolic"], ["dual_requires_hyperbolic"]] * 2
    improper = [abs(inv.L1) <= L1_ZERO_TOL for inv in invs]
    assert improper == [False, False, True] * 2
    centers = [center.residual for _, center in check_hypersphere(stacked)]
    assert [c for c, flat in zip(centers, improper) if flat] == [0.0, 0.0]
    # without the L1 = 0 convention the center residual would be |xi| there
    assert all(np.max(np.abs(inv.xi)) > 0.1 for inv, flat in zip(invs, improper) if flat)
