"""Invariant pipeline: independent finite-difference oracle, model
surfaces with known invariants, and the structural identities."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiaffine import BlaschkeInvariants, blaschke_at, catalog, jets, parse_chart
from equiaffine.blaschke import (
    TERMS,
    ConvexityError,
    _chart_derivatives,
    _determinant_form,
    check_apolarity,
    check_codazzi,
    check_dual,
    check_gauss,
    check_gauss_alt,
    check_hypersphere,
    check_ricci,
    check_trace_identity,
    is_improper,
    nabla_A_norm,
)
from equiaffine.calabi import CompositionSpec, HypersphereFactor, compose_chart
from equiaffine.catalog import (
    ENTRIES,
    flat_factor,
    flat_hypersphere,
    get_chart,
    hyperboloid,
    sl_so,
)
from equiaffine.cli import CHECKS, DEFAULT_TOL, main, point_reports
from equiaffine.dsl import ImmersionError
from equiaffine.jets import jet_gradient
from equiaffine.tensors import CurvatureData
import jet_reference
from helpers import TransformedChart, random_unimodular, scaled_hyperboloid_text
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
    assert max(check_hypersphere(inv).values()) <= 1e-10


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


def test_dependent_tangents_raise_immersion_error(tmp_path, capsys):
    # every coordinate a function of u1 + u2, so x_1 = x_2: the immersion gate
    # stops the point before any jet linear algebra, and the CLI exits 3 with one line
    text = "dim 2; x1 = u1 + u2; x2 = 2*(u1 + u2); x3 = (u1 + u2)^2;"
    with pytest.raises(ImmersionError):
        blaschke_at(parse_chart(text), [0.1, 0.2])
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"chart": {"dsl": text}, "points": [[0.1, 0.2]]}))
    assert main(["check", "--scene", str(path)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("chart error: point 0: Jacobian rank-deficient")


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
    """det M * G'_ij, with G' = y . x_ij and det M rebuilt from its
    log-determinant series, equals det(x_1, ..., x_n, x_ij) from the
    division-free jet_det, coefficient by coefficient; and by Cramer's rule
    det M * Gamma'^k_ij equals det M with its column k replaced by x_ij."""
    n = chart.dim
    _, x1, hess, m_inv_t0, _ = _chart_derivatives(chart, point)
    G_normalized, gamma_w, log_m = _determinant_form(x1, hess, m_inv_t0)
    normal = m_inv_t0[:, n]
    m1, m2 = n + 1, hess.shape[-1]
    det_m = np.linalg.det(np.concatenate([x1[..., 0], normal[None]])) * jets.exp(log_m, n)  # rows x_k, w
    G = jets.jet_mul(det_m, G_normalized, n)
    gamma = jets.jet_mul(det_m[:m1], gamma_w, n)
    columns = np.zeros((n + 1, n + 1, m2))  # [column, a]: x_1, ..., x_n, w
    columns[:n] = x1[..., :m2]
    columns[n, :, 0] = normal

    def det_jet(column, x_ij, size):
        replaced = columns[..., :size].copy()
        replaced[column] = x_ij[..., :size]
        return jet_det(replaced.transpose(1, 0, 2), n)

    ref_G, ref_gamma = np.zeros(G.shape), np.zeros(gamma.shape)
    for p, (i, j) in enumerate(zip(*np.tril_indices(n))):
        ref_G[i, j] = ref_G[j, i] = det_jet(n, hess[p], m2)
        for k in range(n):
            ref_gamma[k, i, j] = ref_gamma[k, j, i] = det_jet(k, hess[p], m1)
    assert np.allclose(G, ref_G, rtol=1e-12, atol=1e-12 * np.abs(ref_G).max())
    assert np.allclose(gamma, ref_gamma, rtol=1e-12, atol=1e-12 * np.abs(ref_gamma).max())


def _frame_cases():
    spec = CompositionSpec(r=1, factors=(HypersphereFactor(hyperboloid(2), -1.0),), constants=(1.0, 1.0))
    cubic_3 = "dim 3; x1 = u1; x2 = u2; x3 = u3; x4 = 0.5*(u1^2 + u2^2 + u3^2) + 0.05*u1*u2*u3 + 0.02*u1^3;"
    cases = {
        "cubic-n2": (parse_chart(GENERIC), 3),
        "cubic-n3": (parse_chart(cubic_3), 3),
        "composition": (compose_chart(spec), 3),
        "flat_hypersphere-C0-1e8": (catalog.flat_hypersphere(2, 1e8), 3),
        "sl_so-m4": (sl_so(4), 2),
        "hyperboloid-n9-P6": (hyperboloid(9), 6),
    }
    return [pytest.param(chart, size, id=name) for name, (chart, size) in cases.items()]


@pytest.mark.parametrize("chart, size", _frame_cases())
def test_change_of_transversal_matches_the_frame_solve(chart, size):
    """xi, B, A and L1 from the change of transversal equal, to 1e-12 of the
    largest entry, those of the metric Laplacian xi and the solve of the
    affine Gauss formula in the frame {x_k, xi} (``jet_reference``); and the
    frame solve on the closed-form normal gives h = g and tau = 0."""
    n = chart.dim
    points = chart.sample_points(size, 3)
    invs = blaschke_at(chart, points)
    rows, cols = np.tril_indices(n)
    for k, point in enumerate(points):
        _, x1, pairs, m_inv_t0, _ = _chart_derivatives(chart, point)
        G, _, log_m = _determinant_form(x1, pairs, m_inv_t0)
        normal = m_inv_t0[:, n]
        hess = np.empty((n, n) + pairs.shape[1:])
        hess[rows, cols] = hess[cols, rows] = pairs
        eps, ell, g = jet_reference.blaschke_metric(x1, normal, G, log_m, n)
        xi, g_inv, gamma_hat = jet_reference.laplacian_normal(x1, hess, g, n)
        gamma, h, B_up, tau = jet_reference.frame_solve(x1, hess, xi, n)
        g0 = g[..., 0]
        lowered = np.einsum("kl,lij->ijk", g0, (gamma - gamma_hat)[..., 0])
        # A is the difference of two connections: sized by their terms, as it is 0 on quadrics
        a_size = np.abs(g0).max() * max(np.abs(gamma[..., 0]).max(), np.abs(gamma_hat[..., 0]).max())
        expected = {"xi": (xi[:, 0], np.abs(xi[:, 0]).max()), "B": (g0 @ B_up, np.abs(g0 @ B_up).max()),
                    "A": (lowered, a_size), "L1": (np.trace(B_up) / n, np.abs(B_up).max())}
        for name, (ref, size) in expected.items():
            error = np.abs(getattr(invs, name)[k] - ref).max()
            assert error <= 1e-12 * size, (name, error, size)

        closed = jet_reference.closed_form_normal(x1, normal, eps, ell, g_inv, n)
        assert np.abs(closed[:, 0] - invs.xi[k]).max() <= 1e-12 * np.abs(invs.xi[k]).max()
        _, h, _, tau = jet_reference.frame_solve(x1, hess, closed, n)
        assert np.abs(h - g0).max() <= 1e-12 * np.abs(g0).max()
        # tau_i xi is a term of d_i xi
        assert np.abs(tau).max() <= 1e-12 * np.abs(closed[:, 1:]).max() / np.abs(closed[:, 0]).max()


@pytest.mark.parametrize("n, scale", [(12, "1e30"), (3, "1e120"), (2, "1e-12"), (2, "1e-30")])
def test_scaled_hyperboloid_has_the_homothety_mean_curvature(n, scale):
    # det M grows like scale^n: 1e360 here, past float range, while its
    # logarithm, which is all the pipeline forms, stays small; below unit
    # scale the tangents stay perfectly conditioned, so the immersion test passes
    chart = parse_chart(scaled_hyperboloid_text(n, scale))
    with np.errstate(over="raise", invalid="raise"):
        invs = blaschke_at(chart, chart.sample_points(3, 1))
    expected = -math.exp(-2 * (n + 1) / (n + 2) * math.log(float(scale)))
    assert np.allclose(invs.L1, expected, rtol=1e-12, atol=0.0)


HOMOTHETY_CHARTS = {"hyperboloid(3)": lambda: hyperboloid(3), "sl_so(3)": lambda: sl_so(3),
                    "flat_hypersphere(2)": lambda: catalog.flat_hypersphere(2),
                    "unit_sphere(2)": lambda: catalog.unit_sphere(2)}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(HOMOTHETY_CHARTS)), exponent=st.floats(-30.0, 30.0), seed=st.integers(0, 9))
@example(name="unit_sphere(2)", exponent=-30.0, seed=0)
@example(name="sl_so(3)", exponent=30.0, seed=0)
def test_homothety_scales_the_invariants(name, exponent, seed):
    # x -> lambda x scales L1, J and chi by lambda^(-2(n+1)/(n+2)).  Each is
    # compared with the largest of them at lambda = 1, since J is 0 on the
    # quadrics and chi is 0 on the flat sphere
    chart = HOMOTHETY_CHARTS[name]()
    point = chart.sample_points(1, seed)[0]
    lam, n = 10.0**exponent, chart.dim
    base = blaschke_at(chart, point)
    scaled = blaschke_at(TransformedChart(chart, lam * np.eye(n + 1)), point)
    factor = lam ** (-2 * (n + 1) / (n + 2))
    size = max(abs(base.L1), abs(base.J), abs(base.chi))
    for invariant in ("L1", "J", "chi"):
        error = abs(getattr(scaled, invariant) / factor - getattr(base, invariant))
        assert error <= 1e-12 * size, (invariant, error, size)


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


STRUCTURAL_CHECKS = (check_apolarity, check_gauss, check_ricci, check_codazzi, check_trace_identity, check_gauss_alt)


def assert_structural_identities(inv):
    """Every structural check's residual is within its default tolerance."""
    for check in STRUCTURAL_CHECKS:
        ((name, residual),) = check(inv).items()
        assert residual <= DEFAULT_TOL[name], (name, residual)


def test_structural_identities_generic_surface():
    chart = parse_chart(GENERIC)
    for point in ([0.15, -0.1], [0.05, 0.2]):
        assert_structural_identities(blaschke_at(chart, point))


def test_structural_identities_dim3():
    chart = parse_chart(
        "dim 3; x1 = u1; x2 = u2; x3 = u3; "
        "x4 = 0.5*(u1^2 + u2^2 + u3^2) + 0.05*u1*u2*u3 + 0.02*u1^3;"
    )
    assert_structural_identities(blaschke_at(chart, [0.1, 0.15, -0.05]))


def test_nabla_a_norm_zero_on_quadric_positive_generic():
    quadric = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2);")
    inv = blaschke_at(quadric, [0.1, 0.2])
    assert nabla_A_norm(inv)["parallel"] < 1e-10 and check_codazzi(inv)["codazzi"] <= DEFAULT_TOL["codazzi"]
    generic = parse_chart(GENERIC)
    inv = blaschke_at(generic, [0.15, -0.1])
    assert nabla_A_norm(inv)["parallel"] > 1e-3 and check_codazzi(inv)["codazzi"] <= DEFAULT_TOL["codazzi"]


def test_pick_invariant_relation_on_flat_sphere():
    # for the flat hypersphere family chi = 0, so J = chi - L1 = -L1
    from equiaffine.catalog import flat_hypersphere

    chart = flat_hypersphere(3, 2.0)
    inv = blaschke_at(chart, [0.1, -0.2, 0.05])
    assert inv.chi == pytest.approx(0.0, abs=1e-10)
    assert inv.J == pytest.approx(-inv.L1, abs=1e-10)


@pytest.mark.parametrize("n0", [1, 2])
def test_frame_test_is_column_scaled(n0):
    # C0 = 1e8 stretches the frame {x_k, xi}'s columns apart: its raw
    # singular-value ratio is 7e-14, yet the frame is far from singular, and
    # the affine normal comes from M = [x_k | w], with no frame to test
    from equiaffine.catalog import flat_hypersphere

    chart = flat_hypersphere(n0, 1e8)
    L1 = chart.spec.closed_form.L1
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
    spec = CompositionSpec(r=0, factors=(flat_factor(1, 1.0), HypersphereFactor(hyperboloid(2), -1.0)),
                           constants=(1.0, 1.5))
    charts = {
        "flat_hypersphere": get_chart("flat_hypersphere", {"n0": 2}),
        "unit_sphere": get_chart("unit_sphere", {"n": 3}),
        "elliptic_paraboloid": get_chart("elliptic_paraboloid", {"n": 2}),
        "hyperboloid": get_chart("hyperboloid", {"n": 3}),
        "hyperboloid-n9": get_chart("hyperboloid", {"n": 9}),
        "sl_so": get_chart("sl_so", {"m": 3}),
        "herm3": get_chart("herm3", {"d": 2}),
        "graph": get_chart("graph", {"text": GENERIC}),
        "composition": compose_chart(spec),
        "transformed": TransformedChart(hyperboloid(2), random_unimodular(3, np.random.default_rng(4))),
    }
    return [pytest.param(chart, id=name) for name, chart in charts.items()]


def test_stack_cases_cover_the_catalog():
    assert {case.id for case in _stack_cases()} >= set(ENTRIES)


_FIELDS = tuple(f.name for f in fields(BlaschkeInvariants) if f.init and f.name != "curvature")
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


def _row_stack_cases():
    # the pipeline's contractions work on arrays derived from jet_gradient, whose
    # memory layout changes with the stack size: at n = 14 the pair contraction
    # of G' is a 105 x 15 matrix product per coefficient pair
    return [pytest.param(case.values[0], 6, id=case.id) for case in _stack_cases()] + [
        pytest.param(get_chart("hyperboloid", {"n": 14}), 3, id="hyperboloid-n14-P3")]


@pytest.mark.parametrize("chart, size", _row_stack_cases())
def test_stack_rows_equal_single_points_bitwise(chart, size):
    points = chart.sample_points(size, 13)
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


@pytest.mark.parametrize("chart, eigh", [(hyperboloid(2), 0), (sl_so(3), 1)], ids=["hyperboloid", "sl_so"])
def test_one_factorization_per_matrix(monkeypatch, chart, eigh):
    """One stacked blaschke_at factorizes each matrix once, 2 LAPACK calls:
    the tangent Jacobian by SVD, which also gives the inverse of M0 = [x_k |
    w]^T's value part, and G' by eigh, which also gives the inverses of
    G'0 and g0.  ``jet_lu`` reads those inverses and solves nothing, and the
    log-determinants' value parts come from the same two factorizations, so
    nothing calls solve, det or inv.  The sl_so chart adds one eigh, of the
    stack of u0·X, for its maps exp(u0·X)."""
    calls = dict.fromkeys(("svd", "eigvalsh", "eigh", "solve", "det", "inv"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    blaschke_at(chart, chart.sample_points(4, 5))
    assert calls == {"svd": 1, "eigvalsh": 0, "eigh": 1 + eigh, "solve": 0, "det": 0, "inv": 0}


@pytest.mark.parametrize(
    "build, cold, warm",
    [
        # the orbit chart's base jets are a recursion of matrix-vector products
        (lambda: sl_so(3), [], []),
        # the squares u_i^2 are (1, 1)-bounded; sqrt's Horner steps (2, 2), (4, 2), (6, 2),
        # its first step (0, 2) a scaling
        (lambda: hyperboloid(20), [441] * 20 + [53361, 94556, 94556], [441] * 20 + [53361, 94556, 94556]),
    ],
    ids=["sl_so", "hyperboloid-20"],
)
def test_chart_products_form_only_the_bounded_pairs(monkeypatch, build, cold, warm):
    """Chart evaluation forms only the coefficient pairs its degree bounds
    leave: none for sl_so(3), on a chart built anew (its base jets built
    cold) or after that; 251,293 for one hyperboloid(20) point.  Products
    forming all pairs would make 23 * 135,751 = 3,122,273."""
    counts = []

    def counted(index, bounds=None, _products=jets.JetIndex.products):
        table = _products(index, bounds)
        counts.append(len(table[0]))
        return table

    monkeypatch.setattr(jets.JetIndex, "products", counted)
    catalog.sl_so.cache_clear()
    chart = build()
    for formed in (cold, warm):
        counts.clear()
        chart.component_jets(chart.sample_points(1, 0)[0], 4)
        assert counts == formed


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


def assert_stacked_checks_match_points(stacked, spec=None):
    """Every check function on the stacked invariants gives each point the
    bits of its call on that point's invariants alone, and the CLI's report
    rows of every check (``point_reports``, with the composition ``spec``
    of the chart, if any) give each row the bits of that row's point alone
    (the stack of P = 1)."""
    size = len(stacked.point)
    invs = [_take(stacked, k) for k in range(size)]
    assert stacked.L1.shape == stacked.J.shape == stacked.chi.shape == (size,)
    for check in STRUCTURAL_CHECKS + (check_hypersphere, nabla_A_norm):
        residuals = check(stacked)
        alone = [check(inv) for inv in invs]
        assert list(residuals) == list(alone[0]), check.__name__
        for name, residual in residuals.items():
            assert residual.shape == (size,), (check.__name__, name)
            assert [r.hex() for r in residual.tolist()] == [float(one[name]).hex() for one in alone], name
    rows = point_reports(stacked, spec, list(CHECKS), DEFAULT_TOL)
    assert len(rows) == size
    for k, row in enumerate(rows):
        alone = point_reports(_take(stacked, slice(k, k + 1)), spec, list(CHECKS), DEFAULT_TOL)[0]
        assert _bits(row) == _bits(alone), k


def _check_stack_cases():
    cases = [pytest.param(case.values[0], size, id=f"{case.id}-P{size}")
             for case in _stack_cases() for size in (1, 2, 5)]
    # einsums on gradient-derived arrays (nabla A) may change their summation
    # order with the stack size from n = 8 up
    return cases + [pytest.param(get_chart("hyperboloid", {"n": 9}), 6, id="hyperboloid-n9-P6")]


@pytest.mark.parametrize("chart, size", _check_stack_cases())
def test_stacked_checks_equal_one_point_checks_bitwise(chart, size):
    assert_stacked_checks_match_points(blaschke_at(chart, chart.sample_points(size, 13)), getattr(chart, "spec", None))


def test_mixed_stack_takes_each_rows_branch():
    # hyperbolic, elliptic (L1 > 0) and improper (L1 = 0) rows in turn
    charts = [get_chart(name, {"n": 2}) for name in ("hyperboloid", "unit_sphere", "elliptic_paraboloid")]
    by_chart = [blaschke_at(chart, chart.sample_points(2, 5)) for chart in charts]
    invs = [_take(bundle, k) for k in range(2) for bundle in by_chart]
    stacked = _stack(invs)
    assert_stacked_checks_match_points(stacked)

    # every row reports gauss_swap, the improper ones against the L1_scale floor
    dual = point_reports(stacked, None, ["dual"], DEFAULT_TOL)
    assert [[rep.check_name for rep in reps] for reps in dual] == [["gauss_swap"]] * 6
    assert [rep.residual.hex() for reps in dual for rep in reps] == [
        float(check_dual(inv)["gauss_swap"]).hex() for inv in invs]
    assert all(rep.passed for reps in dual for rep in reps)
    improper = [bool(is_improper(inv)) for inv in invs]
    assert improper == [False, False, True] * 2
    centers = check_hypersphere(stacked)["hypersphere_center"].tolist()
    assert [c for c, flat in zip(centers, improper) if flat] == [0.0, 0.0]
    # without the L1 = 0 convention the center residual would be |xi| there
    assert all(np.max(np.abs(inv.xi)) > 0.1 for inv, flat in zip(invs, improper) if flat)


@pytest.mark.parametrize("points", [1, 3], ids=["one-point", "stack"])
def test_check_terms_are_built_once_and_read_only(points):
    chart = hyperboloid(3)
    inv = blaschke_at(chart, chart.sample_points(3, 2)[0] if points == 1 else chart.sample_points(3, 2))
    for name in TERMS:
        value = inv.term(name)
        assert inv.term(name) is value, name
        for array in value if isinstance(value, tuple) else (value,):
            assert np.ndim(array) == 0 or not array.flags.writeable, name  # one point's residuals are scalars


def _shared_term_stacks():
    """Stacks of hyperbolic, elliptic and improper affine spheres at n = 3,
    the paraboloid's with its vertex first."""
    cases = []
    for name in ("hyperboloid", "unit_sphere", "elliptic_paraboloid"):
        chart = get_chart(name, {"n": 3})
        points = chart.sample_points(4, 9)
        if name == "elliptic_paraboloid":
            points[0] = 0.0
        cases.append(pytest.param(chart, points, id=name))
    return cases


@pytest.mark.parametrize("chart, points", _shared_term_stacks())
def test_minimality_and_apolarity_read_the_apolarity_term(chart, points):
    inv = blaschke_at(chart, points)
    direct = np.abs(np.einsum("...ij,...ijk->...k", inv.g_inv, inv.A)).max(axis=-1)
    assert check_apolarity(inv)["apolarity"].tobytes() == direct.tobytes()
    # the minimality of sigma = A is that apolarity; the dual check reports only its swap
    assert list(check_dual(inv)) == ["gauss_swap"]


@pytest.mark.parametrize("chart, points", _shared_term_stacks())
def test_gauss_swap_holds_at_every_sign_of_l1(chart, points):
    # L1 < 0, L1 > 0 and L1 = 0, the paraboloid's vertex (R, A and L1 all 0) included
    inv = blaschke_at(chart, points)
    assert np.all(check_dual(inv)["gauss_swap"] <= 1e-15)


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("size", [1, 3])
def test_second_commutator_term_is_the_first_with_k_and_l_swapped(n, size):
    chart = flat_hypersphere(n)
    inv = blaschke_at(chart, chart.sample_points(size, 3))
    _, comm_2 = inv.term("A_comm")
    want = np.einsum("...mil,...jkm->...ijkl", inv.term("A_up"), inv.A)
    assert np.abs(want).max() > 0.1  # a cubic form that is not rounding noise
    assert comm_2.shape == want.shape and comm_2.tobytes() == want.tobytes()
