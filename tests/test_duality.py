"""The duality with minimal Lagrangian data: ``blaschke.check_dual`` holds
the pipeline's curvature, measured from the metric jets, against the
Lagrangian Gauss equation of the dual data (g, sigma = A, c = -L1), at
every sign of L1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiaffine.blaschke import blaschke_at, check_apolarity, check_dual, is_improper
from equiaffine.calabi import CompositionSpec, HypersphereFactor, compose_chart
from equiaffine.catalog import flat_hypersphere, get_chart, hyperboloid, sl_so
from equiaffine.cli import DEFAULT_TOL
from equiaffine.dsl import parse_chart
from helpers import TransformedChart, scaled_hyperboloid_text

GENERIC = (
    "dim 2; x1 = u1; x2 = u2; "
    "x3 = 0.5*(u1^2 + u2^2) + 0.1*u1^3 - 0.05*u1*u2^2 + 0.02*u2^4 + 0.03*u1*u2;"
)


def graph3(x4: str):
    """The graph x4 = f(u1, u2, u3), a hypersurface of dimension 3."""
    return parse_chart(f"dim 3; x1 = u1; x2 = u2; x3 = u3; x4 = {x4};")


def _sphere_cases():
    composition = CompositionSpec(r=1, factors=(HypersphereFactor(hyperboloid(2), -1.0),), constants=(1.0, 1.0))
    charts = {"sl_so-m3": sl_so(3), "sl_so-m6": sl_so(6), "composition-r1": compose_chart(composition)}
    charts.update({f"hyperboloid-n{n}": hyperboloid(n) for n in range(2, 15)})
    charts.update({f"flat_hypersphere-C0-{c0:g}": flat_hypersphere(2, c0) for c0 in (1e-6, 1.0, 1e8)})
    charts.update({f"hyperboloid-n3-scale-{scale}": parse_chart(scaled_hyperboloid_text(3, scale))
                   for scale in ("1e7", "1e-12", "1e-30", "1e30")})
    return [pytest.param(chart, id=name) for name, chart in charts.items()]


@pytest.mark.parametrize("chart", _sphere_cases())
def test_dual_gauss_swap_holds_on_hyperbolic_spheres(chart):
    # relative to the compared terms, so at any scale (absolute, the
    # scale-1e7 case reads about 6e-5 against terms of about 1e11)
    inv = blaschke_at(chart, chart.sample_points(2, 3))
    assert np.all(inv.L1 < 0)
    swap = check_dual(inv)["gauss_swap"]
    assert np.all(swap <= 1e-14), swap


# graphs x4 = f(u1, u2, u3) that are no affine spheres (B is not L1 g), and
# the sign of L1 at their sample points: near the hyperboloid, the unit
# sphere (L1 = 1) and the paraboloid (L1 = 0)
OFF_SPHERE_GRAPHS = {
    "sqrt(1 + u1^2 + u2^2 + u3^2) + 0.1*u1^3": -1.0,
    "sqrt(1 + u1^2 + u2^2 + u3^2) + 0.01*u1^3": -1.0,
    "exp(u1) + exp(u2) + exp(u3)": -1.0,
    "sqrt(1 - u1^2 - u2^2 - u3^2) + 0.1*u1^3": 1.0,
    "0.5*(u1^2 + u2^2 + u3^2) + 0.1*u1^3": -1.0,
    "0.5*(u1^2 + u2^2 + u3^2) + 0.001*u1^3": -1.0,
}


@pytest.mark.parametrize("x4", list(OFF_SPHERE_GRAPHS))
def test_dual_gauss_swap_fails_off_the_spheres(x4):
    # at n = 3, see the next test for n = 2; no point is improper, so none
    # is measured against the L1_scale floor
    chart = graph3(x4)
    inv = blaschke_at(chart, chart.sample_points(3, 1))
    assert np.all(np.sign(inv.L1) == OFF_SPHERE_GRAPHS[x4]) and not np.any(is_improper(inv))
    assert np.all(check_dual(inv)["gauss_swap"] >= 1e-3)


@pytest.mark.parametrize("name", ["unit_sphere", "hyperboloid", "elliptic_paraboloid"])
def test_translating_a_chart_changes_neither_improper_nor_the_swap(name):
    # g, xi, the tangents and L1 do not see where the chart sits, and the
    # L1 = 0 decision reads only them
    chart = get_chart(name, {"n": 3})
    points = chart.sample_points(3, 2)
    points[0] = 0.0  # the paraboloid's vertex, the spheres' pole
    inv = blaschke_at(chart, points)
    for shift in ([1e6, -1e6, 1e6, 1e6], [0.0, 0.0, 0.0, -1.0], [3.0, -2.0, 5.0, 7.0]):
        moved = blaschke_at(TransformedChart(chart, np.eye(4), shift), points)
        assert is_improper(moved).tolist() == is_improper(inv).tolist() == [name == "elliptic_paraboloid"] * 3
        assert np.abs(check_dual(moved)["gauss_swap"] - check_dual(inv)["gauss_swap"]).max() <= 1e-15


def test_dual_gauss_swap_holds_on_any_surface():
    # at n = 2 the curvature has one component, and the Gauss equation's B
    # enters it through its trace alone, which is n L1: the swap cannot tell
    # a surface that is no affine sphere
    chart = parse_chart(GENERIC)
    inv = blaschke_at(chart, chart.sample_points(3, 1))
    assert np.all(np.abs(inv.B - inv.L1[:, None, None] * inv.g).max(axis=(1, 2)) > 0.1)
    assert np.all(check_dual(inv)["gauss_swap"] <= 1e-14)


def test_gauss_swap_on_random_instances():
    # random hyperbolic spheres of the catalog at random points
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        chart = hyperboloid(n) if rng.random() < 0.5 else flat_hypersphere(n, 10.0 ** rng.uniform(-3, 3))
        swap = check_dual(blaschke_at(chart, chart.sample_points(1, int(rng.integers(10**6)))[0]))["gauss_swap"]
        assert swap <= DEFAULT_TOL["dual"]
        worst = max(worst, swap)
    assert worst <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_gauss_swap_property(n, seed):
    chart = hyperboloid(n)
    assert check_dual(blaschke_at(chart, chart.sample_points(1, seed)[0]))["gauss_swap"] <= 1e-14


def test_stacked_data_gives_one_report_per_point():
    # on a sphere and off one: each row has the bits of its point alone
    for chart in (sl_so(3), graph3("exp(u1) + exp(u2) + exp(u3)")):
        points = chart.sample_points(4, 3)
        stacked = check_dual(blaschke_at(chart, points))
        alone = [check_dual(blaschke_at(chart, point)) for point in points]
        for name, residual in stacked.items():
            assert residual.shape == (4,)
            assert [r.hex() for r in residual.tolist()] == [float(one[name]).hex() for one in alone], name


def test_trace_free_contraction_identical_on_both_sides():
    # minimality of sigma = A is the apolarity of A: the apolarity check
    # reports it for both sides, and the dual check only the curvature swap
    for chart in (sl_so(3), hyperboloid(4), graph3("exp(u1) + exp(u2) + exp(u3)")):
        inv = blaschke_at(chart, chart.sample_points(3, 4))
        assert list(check_dual(inv)) == ["gauss_swap"]
        assert np.all(check_apolarity(inv)["apolarity"] <= DEFAULT_TOL["apolarity"])


def test_dual_curvature_sign_flip_explicit():
    # the Lagrangian curvature of (g, sigma = A, c = -L1) written out as an
    # operator, R~(d_i, d_j) d_k = c (g_jk d_i - g_ik d_j) + [sigma_i, sigma_j] d_k,
    # and lowered, R~_ijkl = g_ml R~^m_ijk, is minus the pipeline's R_ijkl
    chart = sl_so(3)
    inv = blaschke_at(chart, chart.sample_points(1, 8)[0])
    c, sigma = -inv.L1, inv.A
    sigma_up = np.einsum("mp,ikp->mik", inv.g_inv, sigma)
    comm = np.einsum("mil,ljk->mijk", sigma_up, sigma_up) - np.einsum("mjl,lik->mijk", sigma_up, sigma_up)
    eye = np.eye(inv.dim)
    wedge = np.einsum("jk,mi->mijk", inv.g, eye) - np.einsum("ik,mj->mijk", inv.g, eye)
    r_lag = np.einsum("ml,mijk->ijkl", inv.g, c * wedge + comm)
    riemann = inv.curvature.riemann
    assert np.max(np.abs(r_lag + riemann)) <= 1e-14 * np.max(np.abs(riemann))
    assert check_dual(inv)["gauss_swap"] <= 1e-14


def test_first_bianchi_identity_of_the_pipeline_curvature():
    # R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0 for the curvature the swap compares,
    # on a sphere and off one
    for chart in (sl_so(3), graph3("exp(u1) + exp(u2) + exp(u3)")):
        riemann = blaschke_at(chart, chart.sample_points(3, 21)).curvature.riemann
        cyclic = riemann + riemann.transpose(0, 2, 3, 1, 4) + riemann.transpose(0, 3, 1, 2, 4)
        assert np.all(np.abs(cyclic).max(axis=(1, 2, 3, 4)) <= 1e-14 * np.abs(riemann).max(axis=(1, 2, 3, 4)))
