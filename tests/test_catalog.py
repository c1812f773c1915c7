"""Catalog charts: expected invariants, equivariance, unimodular maps."""

import numpy as np
import pytest

from equiaffine.blaschke import blaschke_at, check_hypersphere, nabla_A_norm
from equiaffine.calabi import ComposedChart, CompositionSpec, compose_chart
from equiaffine.catalog import (
    ENTRIES,
    MatrixExpChart,
    TransformedChart,
    elliptic_paraboloid,
    flat_factor,
    flat_hypersphere,
    get_chart,
    hyperboloid,
    random_unimodular,
    sl_so,
    sl_so_point,
    unit_sphere,
)
from equiaffine.dsl import DslChart, eval_chart_jet
from equiaffine.jets import jet_size

SAMPLE_PARAMS = {
    "flat_hypersphere": {"n0": 2},
    "unit_sphere": {"n": 2},
    "elliptic_paraboloid": {"n": 2},
    "hyperboloid": {"n": 2},
    "sl_so": {"m": 3},
    "graph": {"text": "dim 1; x1 = u1; x2 = exp(u1);"},
}


def test_get_chart_dispatch_and_errors():
    chart = get_chart("unit_sphere", {"n": 2})
    assert chart.dim == 2
    with pytest.raises(KeyError):
        get_chart("nope")
    with pytest.raises(ValueError):
        get_chart("flat_hypersphere", {"n0": 0})
    with pytest.raises(ValueError):
        get_chart("sl_so", {"m": 2})
    with pytest.raises(ValueError):
        get_chart("flat_hypersphere", {"n0": 2, "C0": -1.0})


def test_every_entry_passes_immersion_check():
    assert set(SAMPLE_PARAMS) == set(ENTRIES)
    for name, params in SAMPLE_PARAMS.items():
        chart = get_chart(name, params)
        for point in chart.sample_points(3, 1):
            eval_chart_jet(chart, point, 2)


@pytest.mark.parametrize("name", sorted(set(ENTRIES) - {"graph"}))
def test_entry_expected_invariants_hold(name):
    """Every key of ``CatalogEntry.expected`` holds at sample points."""
    expected = ENTRIES[name].expected
    known = {"L1", "J", "is_sphere", "is_parallel", "L1_negative", "J_equals_minus_L1"}
    assert expected and set(expected) <= known
    chart = get_chart(name, SAMPLE_PARAMS[name])
    for point in chart.sample_points(3, 17):
        inv = blaschke_at(chart, point)
        if "L1" in expected:
            assert inv.L1 == pytest.approx(expected["L1"], abs=1e-10)
        if "J" in expected:
            assert inv.J == pytest.approx(expected["J"], abs=1e-10)
        if expected.get("is_sphere"):
            assert all(rep.passed for rep in check_hypersphere(inv, 1e-10))
        if expected.get("is_parallel"):
            assert nabla_A_norm(chart, point, inv=inv)[0] < 1e-10
        if expected.get("L1_negative"):
            assert inv.L1 < 0
        if expected.get("J_equals_minus_L1"):
            assert inv.J == pytest.approx(-inv.L1, abs=1e-10)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_chart_contract_float_jet_array(order):
    """Every chart family returns a float (n+1, jet_size(n, order)) jet array."""
    spec = CompositionSpec(r=1, factors=(flat_factor(1, 1.5),), constants=(1.0, 2.0))
    moved = TransformedChart(unit_sphere(2), random_unimodular(3, np.random.default_rng(3)), b=[1.0, 2.0, 3.0])
    charts = [hyperboloid(2), sl_so(3), compose_chart(spec), moved]
    assert [type(c) for c in charts] == [DslChart, MatrixExpChart, ComposedChart, TransformedChart]
    for chart in charts:
        comp = chart.component_jets(chart.sample_points(1, 5)[0], order)
        assert isinstance(comp, np.ndarray) and comp.dtype == np.float64
        assert comp.shape == (chart.dim + 1, jet_size(chart.dim, order))


def test_flat_hypersphere_base_point_and_level():
    chart = flat_hypersphere(2, 1.0)
    pos = chart.component_jets(np.zeros(2), 1)[:, 0]
    assert np.allclose(pos, 1.0)
    # the coordinate product is the level constant everywhere
    chart2 = flat_hypersphere(2, 2.5)
    for point in chart2.sample_points(4, 8):
        vals = chart2.component_jets(point, 1)[:, 0]
        assert np.prod(vals) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize(
    "builder, params, L1",
    [
        (unit_sphere, {"n": 2}, 1.0),
        (unit_sphere, {"n": 3}, 1.0),
        (elliptic_paraboloid, {"n": 2}, 0.0),
        (elliptic_paraboloid, {"n": 3}, 0.0),
        (hyperboloid, {"n": 2}, -1.0),
        (hyperboloid, {"n": 3}, -1.0),
    ],
)
def test_quadrics_expected_invariants(builder, params, L1):
    chart = builder(**params)
    for point in chart.sample_points(3, 13):
        inv = blaschke_at(chart, point)
        assert inv.L1 == pytest.approx(L1, abs=1e-10)
        assert np.max(np.abs(inv.A)) < 1e-10
        assert abs(inv.J) < 1e-12
        shape, center = check_hypersphere(inv, 1e-10)
        assert shape.passed and center.passed


def test_sl_so3_hypersphere_and_parallel():
    chart = sl_so(3)
    assert chart.dim == 5
    L1s = []
    for point in chart.sample_points(3, 19):
        inv = blaschke_at(chart, point)
        assert inv.L1 < 0
        L1s.append(inv.L1)
        shape, center = check_hypersphere(inv, 1e-8)
        assert shape.passed and center.passed
        norm, side = nabla_A_norm(chart, point, inv=inv)
        assert norm < 1e-10 and side.passed
    # homogeneous: the same mean curvature at every point
    assert np.ptp(L1s) < 1e-10


def test_sl_so3_base_point_is_identity_matrix():
    chart = sl_so(3)
    vals = chart.component_jets(np.zeros(5), 1)[:, 0]
    # upper-triangular coordinates of I3: (1, 0, 0, 1, 0, 1)
    assert np.allclose(vals, [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], atol=1e-14)


def test_sl_so3_rotation_equivariance():
    chart = sl_so(3)
    rng = np.random.default_rng(23)
    u = rng.uniform(-0.2, 0.2, chart.dim)
    worst = 0.0
    for _ in range(3):
        M = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(M)
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        u2 = sl_so_point(chart, u, Q)
        a, b = blaschke_at(chart, u), blaschke_at(chart, u2)
        worst = max(worst, abs(a.L1 - b.L1), abs(a.J - b.J), abs(a.chi - b.chi))
        ga, gb = np.linalg.eigvalsh(a.g), np.linalg.eigvalsh(b.g)
        worst = max(worst, float(np.max(np.abs(ga - gb))))
        sa = np.sort(np.linalg.eigvals(a.g_inv @ a.B).real)
        sb = np.sort(np.linalg.eigvals(b.g_inv @ b.B).real)
        worst = max(worst, float(np.max(np.abs(sa - sb))))
    assert worst < 1e-7


def test_unimodular_invariance_of_invariants():
    rng = np.random.default_rng(29)
    charts = [hyperboloid(2), flat_hypersphere(2, 1.0), unit_sphere(2)]
    for chart in charts:
        point = chart.sample_points(1, 3)[0]
        M = random_unimodular(chart.ambient_dim, rng)
        assert np.linalg.det(M) == pytest.approx(1.0, rel=1e-10)
        moved = TransformedChart(chart, M, b=rng.standard_normal(chart.ambient_dim))
        a, b = blaschke_at(chart, point), blaschke_at(moved, point)
        assert abs(a.L1 - b.L1) < 1e-8
        assert abs(a.J - b.J) < 1e-8
        assert abs(a.chi - b.chi) < 1e-8
        sa = np.sort(np.linalg.eigvals(a.g_inv @ a.B).real)
        sb = np.sort(np.linalg.eigvals(b.g_inv @ b.B).real)
        assert np.max(np.abs(sa - sb)) < 1e-8
        # the metric itself is also unchanged (not only eigen-invariants)
        assert np.max(np.abs(a.g - b.g)) < 1e-8


def test_matrix_exp_chart_against_scipy_style_series():
    chart = MatrixExpChart(3)
    rng = np.random.default_rng(31)
    u = rng.uniform(-0.3, 0.3, 5)
    S = sum(float(v) * b for v, b in zip(u, chart.basis))
    w, V = np.linalg.eigh(S)
    expS = (V * np.exp(w)) @ V.T
    vals = chart.component_jets(u, 1)[:, 0]
    expect = np.array([expS[i, j] for i in range(3) for j in range(i, 3)])
    assert np.max(np.abs(vals - expect)) < 1e-12
    assert np.linalg.det(expS) == pytest.approx(1.0, rel=1e-12)
