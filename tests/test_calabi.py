"""Calabi compositions: closed forms against the pipeline oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from equiaffine.blaschke import blaschke_at
from equiaffine.calabi import (
    CompositionIndex,
    CompositionSpec,
    HypersphereFactor,
    block_sparsity_residual,
    closed_form,
    compose_chart,
    composition_constant,
    expected_invariants,
    mean_curvature_relations,
    verify_composition,
)
from equiaffine.catalog import flat_factor, hyperboloid


def pure_point_spec(n0, C0):
    return CompositionSpec(r=n0 + 1, factors=(), constants=(1.0,) * n0 + (float(C0),))


def test_index_bookkeeping():
    idx = CompositionIndex(2, [1, 3])
    assert idx.K == 4 and idx.n == 1 + 3 + 3
    assert [idx.weight(a) for a in (1, 2, 3, 4)] == [1, 2, 4, 8]
    assert idx.t_coord(3) == 2
    assert idx.factor_coord(1, 1) == 3
    assert idx.factor_coord(2, 1) == 4
    assert idx.factor_slice(2) == slice(4, 7)
    with pytest.raises(IndexError):
        idx.factor_coord(1, 2)


def test_exponent_rows_unimodular():
    # each t-translation rescales the K exponential factors with total
    # weighted exponent zero, so the composed chart is invariant in shape
    idx = CompositionIndex(1, [2, 1])
    for lam in range(idx.K - 1):
        total = sum((idx.factor_dim(a) + 1) * idx.exponent_row(a)[lam] for a in range(1, idx.K + 1))
        assert total == pytest.approx(0.0, abs=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        CompositionSpec(r=1, factors=(), constants=(1.0,))  # single factor
    with pytest.raises(ValueError):
        CompositionSpec(r=2, factors=(), constants=(1.0, -1.0))
    with pytest.raises(ValueError):
        CompositionSpec(r=2, factors=(), constants=(1.0,))
    with pytest.raises(ValueError):
        HypersphereFactor(chart=hyperboloid(2), L1=1.0, dim=2)


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
    pts = chart.sample_points(3, 17)
    reports = verify_composition(spec, pts, 1e-6)
    for rep in reports:
        assert rep.passed, rep


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
    for rep in mean_curvature_relations(spec):
        assert rep.passed, rep
    spec2 = CompositionSpec(r=1, factors=(flat_factor(2, 0.5),), constants=(1.5, 1.0))
    for rep in mean_curvature_relations(spec2):
        assert rep.passed, rep


def test_composed_chart_is_hypersphere_everywhere():
    from equiaffine.blaschke import check_hypersphere

    spec = CompositionSpec(r=1, factors=(flat_factor(1, 2.0),), constants=(2.0, 0.5))
    chart = compose_chart(spec)
    for point in chart.sample_points(3, 31):
        inv = blaschke_at(chart, point)
        shape, center = check_hypersphere(inv, 1e-10)
        assert shape.passed and center.passed


def test_nested_composition_factor():
    # a composition whose sphere factor is itself a composed chart
    inner = CompositionSpec(r=1, factors=(flat_factor(1, 1.0),), constants=(1.0, 1.0))
    inner_chart = compose_chart(inner)
    inner_L1 = closed_form(inner).L1
    outer = CompositionSpec(
        r=1,
        factors=(HypersphereFactor(chart=inner_chart, L1=inner_L1, dim=inner.dim),),
        constants=(1.0, 1.0),
    )
    reports = verify_composition(outer, compose_chart(outer).sample_points(2, 3), 1e-6)
    for rep in reports:
        assert rep.passed, rep
