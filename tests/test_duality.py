"""Hypersphere / minimal-Lagrangian duality at the tensor level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiaffine.blaschke import blaschke_at, check_gauss
from equiaffine.catalog import flat_hypersphere, hyperboloid
from equiaffine.cli import DEFAULT_TOL
from equiaffine.duality import (
    DualityError,
    HyperspherePointData,
    LagrangianPointData,
    check_gauss_swap,
    check_trace_free,
    curvature_operator,
    dualize,
)
from helpers import random_hypersphere_data


def test_dualize_forward_and_back():
    rng = np.random.default_rng(0)
    data = random_hypersphere_data(3, rng)
    dual = dualize(data)
    assert isinstance(dual, LagrangianPointData)
    assert dual.c == pytest.approx(-data.L1)
    assert np.array_equal(dual.g, data.g)
    assert np.array_equal(dual.sigma, data.A)
    # dualize(dualize(x)) == x componentwise
    back = dualize(dualize(data))
    resid = max(np.max(np.abs(back.g - data.g)), np.max(np.abs(back.A - data.A)), abs(back.L1 - data.L1))
    assert resid <= 1e-15


def test_validation():
    g = np.eye(2)
    A = np.zeros((2, 2, 2))
    with pytest.raises(DualityError):
        HyperspherePointData(g=g, A=A, L1=0.5)
    with pytest.raises(DualityError):
        LagrangianPointData(g=g, sigma=A, c=-1.0)
    with pytest.raises(DualityError):
        HyperspherePointData(g=-g, A=A, L1=-1.0)
    with pytest.raises(TypeError):
        dualize(42)


def test_stacked_data_gives_one_report_per_point():
    rng = np.random.default_rng(3)
    points = [random_hypersphere_data(3, rng) for _ in range(4)]
    stacked = HyperspherePointData(g=np.array([d.g for d in points]), A=np.array([d.A for d in points]),
                                   L1=np.array([d.L1 for d in points]))
    assert stacked.dim == 3
    for check in (check_gauss_swap, check_trace_free, lambda data: check_trace_free(dualize(data))):
        residuals = check(stacked)
        assert residuals.shape == (4,)
        assert [r.hex() for r in residuals.tolist()] == [float(check(d)).hex() for d in points]
    # every point is validated, and the constants must match the point axis
    with pytest.raises(DualityError):
        HyperspherePointData(g=stacked.g, A=stacked.A, L1=np.array([-1.0, -1.0, 0.5, -1.0]))
    with pytest.raises(DualityError):
        HyperspherePointData(g=stacked.g, A=stacked.A, L1=-1.0)
    with pytest.raises(DualityError):
        LagrangianPointData(g=stacked.g * np.array([1.0, 1.0, 1.0, -1.0])[:, None, None], sigma=stacked.A,
                            c=np.ones(4))


def test_gauss_swap_on_random_instances():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        data = random_hypersphere_data(n, rng)
        residual = check_gauss_swap(data)
        worst = max(worst, residual)
        assert residual <= DEFAULT_TOL["dual"]
    assert worst < 1e-12


def test_trace_free_contraction_identical_on_both_sides():
    rng = np.random.default_rng(4)
    data = random_hypersphere_data(4, rng)
    dual = dualize(data)
    # the apolarity and minimality contractions are the same numbers
    g_inv = np.linalg.inv(data.g)
    hyp = np.einsum("ij,ijk->k", g_inv, data.A)
    lag = np.einsum("ij,ijk->k", np.linalg.inv(dual.g), dual.sigma)
    assert np.array_equal(hyp, lag)
    assert check_trace_free(data) == check_trace_free(dual) <= DEFAULT_TOL["apolarity"]


def test_curvature_operator_against_pipeline():
    """For actual hyperspheres the operator form built from (g, A, L1)
    must reproduce the pipeline's Riemann tensor."""
    for chart, point in ((hyperboloid(2), [0.2, -0.1]), (flat_hypersphere(2, 1.0), [0.1, 0.3])):
        inv = blaschke_at(chart, point)
        assert check_gauss(inv)["gauss"] <= DEFAULT_TOL["gauss"]
        data = HyperspherePointData(g=inv.g, A=inv.A, L1=inv.L1)
        rup = curvature_operator(data)
        riem = np.einsum("ml,mijk->ijkl", data.g, rup)
        assert np.max(np.abs(riem - inv.curvature.riemann)) < 1e-10
        rup_pipeline = np.einsum("ml,ijkl->mijk", np.linalg.inv(data.g), inv.curvature.riemann)
        assert np.max(np.abs(rup_pipeline - rup)) < 1e-10


def test_dual_curvature_sign_flip_explicit():
    rng = np.random.default_rng(8)
    data = random_hypersphere_data(3, rng)
    dual = dualize(data)
    r_hyp = curvature_operator(data)
    # Lagrangian side: R~ = c (g wedge id) + [sigma, sigma], written out directly
    g_inv = np.linalg.inv(dual.g)
    A_up = np.einsum("mp,ikp->mik", g_inv, dual.sigma)
    comm = np.einsum("mil,ljk->mijk", A_up, A_up) - np.einsum("mjl,lik->mijk", A_up, A_up)
    eye = np.eye(dual.dim)
    wedge = np.einsum("jk,mi->mijk", dual.g, eye) - np.einsum("ik,mj->mijk", dual.g, eye)
    r_lag = dual.c * wedge + comm
    assert np.max(np.abs(r_lag + r_hyp)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_gauss_swap_property(n, seed):
    data = random_hypersphere_data(n, np.random.default_rng(seed))
    assert check_gauss_swap(data) <= DEFAULT_TOL["dual"]
    assert check_trace_free(data) <= 1e-10


def test_first_bianchi_for_operator_curvature():
    # R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0 for the Gauss-form curvature
    rng = np.random.default_rng(21)
    data = random_hypersphere_data(4, rng)
    r = curvature_operator(data)
    cyc = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
    assert np.max(np.abs(cyc)) < 1e-12
