"""Calabi compositions: closed forms against the pipeline oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from equiaffine import jets
from equiaffine.blaschke import blaschke_at
from equiaffine.calabi import (
    CompositionSpec,
    HypersphereFactor,
    centroaffine_form,
    closed_form,
    compose_chart,
    composition_constant,
    composition_residuals,
    expected_invariants,
    mean_curvature_residuals,
)
from equiaffine.catalog import flat_factor, flat_hypersphere, graph, herm3, hyperboloid, sl_so, unit_sphere
from equiaffine.cli import DEFAULT_TOL
from helpers import block_sparsity_residual


def assert_composition_passes(spec, points):
    """The pipeline on the composed chart at a point stack meets the closed
    forms within the composition check's default tolerance."""
    residuals = composition_residuals(spec, blaschke_at(compose_chart(spec), points))
    for name, residual in residuals.items():
        assert np.all(residual <= DEFAULT_TOL["composition"]), (name, residual)


def pure_point_spec(n0, C0):
    return CompositionSpec(r=n0 + 1, factors=(), constants=(1.0,) * n0 + (float(C0),))


def test_index_bookkeeping():
    spec = CompositionSpec(r=2, factors=(flat_factor(1), flat_factor(3)), constants=(1.0,) * 4)
    assert spec.K == 4 and spec.dim == 1 + 3 + 3
    assert spec.n_a.tolist() == [0, 0, 1, 3]
    assert spec.f_a.tolist() == [1, 2, 4, 8]
    assert spec.slices == (slice(3, 4), slice(4, 7))
    # row a: -1/(n_a + 1) at t^{a-1}, 1/f_b at t^b for b >= a
    want = [[1, 1 / 2, 1 / 4], [-1, 1 / 2, 1 / 4], [0, -1 / 2, 1 / 4], [0, 0, -1 / 4]]
    assert spec.exponents.tolist() == want
    for array in (spec.n_a, spec.f_a, spec.exponents):
        assert not array.flags.writeable
    assert spec.exponents is spec.exponents and spec.slices is spec.slices  # built once per spec


def test_exponent_rows_unimodular():
    # each t-translation rescales the K exponential factors with total
    # weighted exponent zero, so the composed chart is invariant in shape
    spec = CompositionSpec(r=1, factors=(flat_factor(2), flat_factor(1)), constants=(1.0,) * 3)
    np.testing.assert_allclose((spec.n_a + 1) @ spec.exponents, 0.0, rtol=0, atol=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        CompositionSpec(r=1, factors=(), constants=(1.0,))  # single factor
    with pytest.raises(ValueError):
        CompositionSpec(r=2, factors=(), constants=(1.0, -1.0))
    with pytest.raises(ValueError):
        CompositionSpec(r=2, factors=(), constants=(1.0,))
    with pytest.raises(ValueError):
        HypersphereFactor(chart=hyperboloid(2), L1=1.0)


@pytest.mark.parametrize("n0", [1, 2, 3])
@pytest.mark.parametrize("C0", [0.5, 1.0, 2.0])
def test_pure_point_mean_curvature_closed_form(n0, C0):
    spec = pure_point_spec(n0, C0)
    cf = closed_form(spec)
    # L1 = -(n0+1)^{-(n0+1)/(n0+2)} C0^{-2/(n0+2)}
    expect = -((n0 + 1.0) ** (-(n0 + 1.0) / (n0 + 2.0))) * C0 ** (-2.0 / (n0 + 2.0))
    assert cf.L1 == pytest.approx(expect, rel=1e-14)
    inv = blaschke_at(compose_chart(spec), np.zeros(n0))
    assert inv.L1 == pytest.approx(cf.L1, abs=1e-10)


def test_flat_hypersphere_reference_values():
    spec = pure_point_spec(2, 1.0)
    cf = closed_form(spec)
    c = 3.0**-0.25
    assert cf.L1 == pytest.approx(-(3.0**-0.75), abs=1e-15)
    assert cf.g_t_block[0, 0] == pytest.approx(2 * c, abs=1e-15)
    assert cf.g_t_block[1, 1] == pytest.approx(1.5 * c, abs=1e-15)
    assert cf.A_ttt[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
    assert cf.A_ttt[0, 0, 1] == pytest.approx(c, abs=1e-15)
    assert cf.A_ttt[1, 1, 1] == pytest.approx(-0.75 * c, abs=1e-15)


def test_composition_constant_matches_pipeline_scale():
    spec = CompositionSpec(r=1, factors=(flat_factor(2, 1.5),), constants=(0.8, 1.3))
    cf = closed_form(spec)
    assert composition_constant(spec) == pytest.approx(cf.C)
    inv = blaschke_at(compose_chart(spec), np.zeros(spec.dim))
    assert inv.L1 == pytest.approx(-1.0 / ((spec.dim + 1) * cf.C), abs=1e-12)


@pytest.mark.parametrize(
    "r, dims",
    [(1, (1,)), (0, (1, 2)), (2, (2,)), (1, (1, 1))],
)
def test_verify_composition_specs(r, dims):
    factors = tuple(flat_factor(d, 1.0 + 0.25 * k) for k, d in enumerate(dims))
    constants = tuple(0.75 + 0.25 * a for a in range(r + len(dims)))
    spec = CompositionSpec(r=r, factors=factors, constants=constants)
    chart = compose_chart(spec)
    assert_composition_passes(spec, chart.sample_points(3, 17))


def test_closed_form_full_assembly_matches_pipeline():
    spec = CompositionSpec(r=1, factors=(flat_factor(1, 1.0), flat_factor(2, 2.0)), constants=(1.0, 1.2, 0.9))
    chart = compose_chart(spec)
    point = chart.sample_points(1, 23)[0]
    inv = blaschke_at(chart, point)
    g_exp, a_exp = expected_invariants(spec, point)
    assert np.max(np.abs(inv.g - g_exp)) < 1e-10
    assert np.max(np.abs(inv.A - a_exp)) < 1e-10


def test_block_sparsity_of_cubic_form():
    spec = CompositionSpec(r=0, factors=(flat_factor(1, 1.0), flat_factor(2, 1.0)), constants=(1.0, 1.0))
    chart = compose_chart(spec)
    inv = blaschke_at(chart, chart.sample_points(1, 5)[0])
    assert block_sparsity_residual(spec, inv) < 1e-10


def test_block_sparsity_residual_is_the_largest_mixed_component():
    # r = 1, factors of dimension 1 and 2: coordinate labels 0, 0 (t-block), 1, 2, 2
    spec = CompositionSpec(r=1, factors=(flat_factor(1, 1.0), flat_factor(2, 1.0)), constants=(1.0, 1.0, 1.0))
    labels = [0, 0, 1, 2, 2]
    A = np.random.default_rng(3).standard_normal((5, 5, 5))
    mixed = [t for t in np.ndindex(A.shape) if len({labels[i] for i in t} - {0}) > 1]
    assert block_sparsity_residual(spec, SimpleNamespace(A=A)) == max(abs(A[t]) for t in mixed)
    A[tuple(np.transpose(mixed))] = 0.0
    assert block_sparsity_residual(spec, SimpleNamespace(A=A)) == 0.0


def test_mean_curvature_relations():
    spec = CompositionSpec(r=0, factors=(flat_factor(1, 1.0), flat_factor(2, 1.0)), constants=(1.0, 1.0))
    spec2 = CompositionSpec(r=1, factors=(flat_factor(2, 0.5),), constants=(1.5, 1.0))
    for s in (spec, spec2):
        # the domain midpoint: t = 0 and each factor at the midpoint of its own domain
        chart = compose_chart(s)
        lo, hi = chart.domain_hint
        inv = blaschke_at(chart, 0.5 * (lo + hi))
        for name, residual in mean_curvature_residuals(s, inv).items():
            assert residual <= DEFAULT_TOL["mean_curvature"], (name, residual)


def test_stacked_mean_curvature_rows_equal_one_point_calls_bitwise():
    # n = 2 + 5 + (K - 1) = 9, with a diag relation per factor and a cross relation
    spec = CompositionSpec(r=1, factors=(HypersphereFactor(hyperboloid(2), -1.0),
                                         HypersphereFactor(sl_so(3), -0.52487003541948)),
                           constants=(1.0, 1.0, 1.0))
    chart = compose_chart(spec)
    points = chart.sample_points(6, 3)
    stacked = mean_curvature_residuals(spec, blaschke_at(chart, points))
    assert list(stacked) == ["mean_curvature_diag[1]", "mean_curvature_cross[1,2]", "mean_curvature_diag[2]"]
    for k, point in enumerate(points):
        alone = mean_curvature_residuals(spec, blaschke_at(chart, point))
        assert list(alone) == list(stacked)
        for name, residual in stacked.items():
            assert residual.shape == (6,), name
            assert residual[k].tobytes() == np.asarray(alone[name]).tobytes(), (k, name)
            assert residual[k] <= DEFAULT_TOL["mean_curvature"], (k, name)


def test_mean_curvature_of_a_composition_without_sphere_factors_is_empty():
    chart = flat_hypersphere(2, 1.5)  # s = 0: three point factors
    assert mean_curvature_residuals(chart.spec, blaschke_at(chart, chart.sample_points(3, 1))) == {}


# the proper affine spheres centred at 0 of the catalog, hyperbolic and
# elliptic, and a composition whose factor block has a nonzero A; the DSL
# charts give generic points, the orbit charts (sl_so, herm3) points of one
# orbit in local coordinates
AFFINE_SPHERES = {
    "hyperboloid(2)": lambda: hyperboloid(2),
    "hyperboloid(5)": lambda: hyperboloid(5),
    "hyperboloid(14)": lambda: hyperboloid(14),
    "unit_sphere(3)": lambda: unit_sphere(3),
    "sl_so(3)": lambda: sl_so(3),
    "sl_so(4)": lambda: sl_so(4),
    "herm3(1)": lambda: herm3(1),
    "herm3(2)": lambda: herm3(2),
    "flat_hypersphere(2, C0=1.5)": lambda: flat_hypersphere(2, 1.5),
    "flat_hypersphere(4)": lambda: flat_hypersphere(4),
    "composition(sl_so(3))": lambda: compose_chart(
        CompositionSpec(r=1, factors=(HypersphereFactor(sl_so(3), -0.5248700354194822),), constants=(1.0, 1.0))),
}


def centroaffine_differences(chart, points) -> tuple[float, float]:
    """The largest differences of ``centroaffine_form``'s h and L1 A from the
    pipeline's L1 g and L1 A at a point stack, relative to max|L1 g|."""
    invs = blaschke_at(chart, points)
    h, l1_a = centroaffine_form(chart, points)
    L1 = invs.L1[:, None, None]
    scale = np.abs(L1 * invs.g).max()
    return np.abs(h - L1 * invs.g).max() / scale, np.abs(l1_a - L1[..., None] * invs.A).max() / scale


@pytest.mark.parametrize("name", list(AFFINE_SPHERES))
def test_centroaffine_form_equals_the_pipeline_on_affine_spheres(name):
    # an oracle with no determinant, exp or normalization: on xi = -L1 x the
    # Gauss formula gives L1 g and L1 A from one solve of [x_1 ... x_m | x]
    chart = AFFINE_SPHERES[name]()
    assert max(centroaffine_differences(chart, chart.sample_points(3, 5))) <= 1e-13


def test_centroaffine_form_differs_off_an_affine_sphere():
    chart = graph("dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2) + 0.1*u1^3;")
    assert min(centroaffine_differences(chart, chart.sample_points(3, 5))) > 1e-3


@pytest.mark.parametrize("chart", [hyperboloid(9), sl_so(3)], ids=["hyperboloid(9)", "sl_so(3)"])
def test_stacked_centroaffine_form_rows_equal_one_point_calls_bitwise(chart):
    points = chart.sample_points(6, 13)
    stacked = centroaffine_form(chart, points)
    for k, point in enumerate(points):
        for got, alone in zip(stacked, centroaffine_form(chart, point)):
            assert got[k].tobytes() == alone.tobytes()


def test_composed_chart_is_hypersphere_everywhere():
    from equiaffine.blaschke import check_hypersphere

    spec = CompositionSpec(r=1, factors=(flat_factor(1, 2.0),), constants=(2.0, 0.5))
    chart = compose_chart(spec)
    for point in chart.sample_points(3, 31):
        inv = blaschke_at(chart, point)
        assert max(check_hypersphere(inv).values()) <= 1e-10


def test_nested_composition_factor():
    # a composition whose sphere factor is itself a composed chart
    inner = CompositionSpec(r=1, factors=(flat_factor(1, 1.0),), constants=(1.0, 1.0))
    inner_chart = compose_chart(inner)
    inner_L1 = closed_form(inner).L1
    outer = CompositionSpec(
        r=1,
        factors=(HypersphereFactor(chart=inner_chart, L1=inner_L1),),
        constants=(1.0, 1.0),
    )
    assert outer.factors[0].dim == inner.dim
    assert_composition_passes(outer, compose_chart(outer).sample_points(2, 3))


@pytest.mark.parametrize(
    "spec",
    [
        CompositionSpec(r=1, factors=(HypersphereFactor(hyperboloid(2), -1.0),), constants=(1.0, 1.0)),
        CompositionSpec(r=3, factors=(), constants=(1.0, 2.0, 0.5)),
        CompositionSpec(r=4, factors=(), constants=(1.5, 1.0, 0.7, 3.0)),
        CompositionSpec(r=2, factors=(flat_factor(1, 1.0), flat_factor(2, 1.3)), constants=(1.0, 2.0, 0.5, 3.0)),
    ],
    ids=["K2", "K3", "K4", "K4-factors"],
)
def test_closed_form_weights_match_the_exponential_of_the_linear_jet(spec):
    # the jets of e_a = c_a exp(row_a . t), the orbit exp(t·X) c of the
    # constants under X_lam = diag(exponents[:, lam]), against the Horner series
    # of exp on the linear jet row_a . t
    chart = compose_chart(spec)
    T = spec.K - 1
    points = chart.sample_points(5, 3)[:, :T]
    for order in range(5):
        base = chart.weights.base_jets(order)
        assert chart.weights.base_jets(order) is base and not base.flags.writeable  # built once per order
        got = chart.weights.component_jets(points, order)
        t = jets.jet_variables(points, order)
        for a in range(spec.K):
            want = jets.exp(spec.exponents[a] @ t, T) * spec.constants[a]
            np.testing.assert_allclose(got[:, a], want, rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "spec",
    [
        CompositionSpec(r=1, factors=(HypersphereFactor(hyperboloid(2), -1.0),), constants=(1.0, 1.0)),
        CompositionSpec(r=1, factors=(flat_factor(2, 1.0), flat_factor(2, 0.7)), constants=(1.0, 2.0, 0.5)),
        CompositionSpec(r=0, factors=(flat_factor(1), flat_factor(2), flat_factor(1, 3.0)), constants=(1.0, 0.5, 2.0)),
        CompositionSpec(r=4, factors=(), constants=(1.5, 1.0, 0.7, 3.0)),
    ],
    ids=["K2", "K3-factors", "K3-spheres", "K4-points"],
)
def test_closed_form_factor_rows_equal_the_exponent_rows_bitwise(spec):
    # two formulas written apart: the closed form's A_{i~ j~ lam} coefficients
    # and the composed chart's exponent rows of the sphere factors
    got = closed_form(spec).A_factor_t
    want = spec.exponents[spec.r :]
    assert got.shape == want.shape == (spec.s, spec.K - 1)
    assert got.tobytes() == want.tobytes()


def test_closed_form_is_built_once_per_spec():
    spec = CompositionSpec(r=1, factors=(flat_factor(2, 1.0),), constants=(1.0, 1.0))
    cf = spec.closed_form
    assert spec.closed_form is cf
    for array in (cf.g_t_block, cf.A_ttt, cf.A_factor_t):
        assert not array.flags.writeable
    assert closed_form(spec).L1 == cf.L1
