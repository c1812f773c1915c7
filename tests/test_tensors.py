"""Curvature machinery against finite-difference oracles and model spaces."""

import numpy as np
import pytest

from equiaffine import jets
from equiaffine.jets import Jet, jet_size
from equiaffine.tensors import (
    CurvatureData,
    MetricError,
    MetricField,
    christoffel,
    christoffel_jets,
    cov_deriv_sym3,
    riemann,
)


def jet_grid(comps) -> np.ndarray:
    """The jet array of an object array of Jets."""
    return np.array([[c.coeffs for c in row] for row in comps])


def metric_values(point):
    """Analytic test metric: SPD with genuinely curved cross terms."""
    u, v = point
    return np.array(
        [
            [1.0 + u * u + 0.2 * np.sin(v), 0.3 * u * v],
            [0.3 * u * v, 2.0 + v * v + 0.1 * u],
        ]
    )


def metric_field(point, order=3):
    u = Jet.variable(0, point[0], 2, order)
    v = Jet.variable(1, point[1], 2, order)
    comps = np.empty((2, 2), dtype=object)
    comps[0, 0] = u * u + jets.sin(v) * 0.2 + 1.0
    comps[0, 1] = comps[1, 0] = u * v * 0.3
    comps[1, 1] = v * v + u * 0.1 + 2.0
    return MetricField(2, jet_grid(comps))


def fd_christoffel(point, h=1e-5):
    """Central-difference Levi-Civita oracle from metric values only."""
    n = 2
    g0 = metric_values(point)
    ginv = np.linalg.inv(g0)
    dg = np.zeros((n, n, n))  # dg[l, i, j] = d_l g_ij
    for l in range(n):
        step = np.zeros(n)
        step[l] = h
        dg[l] = (metric_values(point + step) - metric_values(point - step)) / (2 * h)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j]) for l in range(n)
                )
    return gamma


def test_christoffel_matches_finite_differences():
    point = np.array([0.3, -0.4])
    got = christoffel(metric_field(point))
    oracle = fd_christoffel(point)
    assert np.max(np.abs(got - oracle)) < 1e-9


def test_riemann_matches_finite_differences_of_christoffel():
    point = np.array([0.25, 0.15])
    h = 1e-4
    n = 2
    # oracle: Richardson-extrapolated differences of analytic Christoffels
    def dgamma(l):
        step = np.zeros(n)
        step[l] = h
        d1 = (fd_christoffel(point + step) - fd_christoffel(point - step)) / (2 * h)
        step[l] = h / 2
        d2 = (fd_christoffel(point + step) - fd_christoffel(point - step)) / h
        return (4 * d2 - d1) / 3

    gamma = fd_christoffel(point)
    dg = np.array([dgamma(l) for l in range(n)])  # [l, k, i, j]
    rup = (
        np.einsum("imjk->mijk", dg)
        - np.einsum("jmik->mijk", dg)
        + np.einsum("mil,ljk->mijk", gamma, gamma)
        - np.einsum("mjl,lik->mijk", gamma, gamma)
    )
    gval = metric_values(point)
    oracle = np.einsum("ml,mijk->ijkl", gval, rup)
    got = riemann(metric_field(point))
    assert np.max(np.abs(got.riemann - oracle)) < 1e-6


def sphere_metric(point, n, order=2):
    """Round-sphere metric in graph coordinates: g = I + uu^t/(1-|u|^2)."""
    u = [Jet.variable(i, point[i], n, order) for i in range(n)]
    s = u[0] * u[0]
    for i in range(1, n):
        s = s + u[i] * u[i]
    w = jets.recip(-s + 1.0)
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = u[i] * u[j] * w + (1.0 if i == j else 0.0)
    return MetricField(n, jet_grid(comps))


@pytest.mark.parametrize("n", [2, 3])
def test_unit_sphere_curvature(n):
    point = np.full(n, 0.21)
    g = sphere_metric(point, n)
    curv = riemann(g)
    gval = g.values()
    expect = np.einsum("il,jk->ijkl", gval, gval) - np.einsum("ik,jl->ijkl", gval, gval)
    assert np.max(np.abs(curv.riemann - expect)) < 1e-12
    assert curv.chi == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(curv.ricci - (n - 1) * gval)) < 1e-12


def test_flat_metric_curvature_zero():
    n = 2
    point = [0.4, -0.7]
    u = [Jet.variable(i, point[i], n, 2) for i in range(n)]
    # flat metric in curvilinear form: pullback of identity under a
    # polynomial diffeomorphism phi = (u + v^2/2, v - u^2/2)
    j00 = Jet.constant(1.0, n, 2)
    j01 = u[1]
    j10 = -u[0]
    j11 = Jet.constant(1.0, n, 2)
    comps = np.empty((n, n), dtype=object)
    comps[0, 0] = j00 * j00 + j10 * j10
    comps[0, 1] = comps[1, 0] = j00 * j01 + j10 * j11
    comps[1, 1] = j01 * j01 + j11 * j11
    curv = riemann(MetricField(n, jet_grid(comps)))
    assert np.max(np.abs(curv.riemann)) < 1e-12
    assert curv.chi == pytest.approx(0.0, abs=1e-12)


def test_metric_validation():
    comps = np.empty((2, 2), dtype=object)
    comps[0, 0] = Jet.constant(1.0, 2, 2)
    comps[0, 1] = Jet.constant(2.0, 2, 2)
    comps[1, 0] = Jet.constant(2.0, 2, 2)
    comps[1, 1] = Jet.constant(1.0, 2, 2)  # eigenvalues 3, -1
    with pytest.raises(MetricError):
        MetricField(2, jet_grid(comps))
    comps[1, 0] = Jet.constant(2.1, 2, 2)
    with pytest.raises(MetricError):
        MetricField(2, jet_grid(comps))


def test_cov_deriv_scalar_times_metric():
    """For T = f * g (g parallel), T_ijk,l reduces to partial derivatives of f
    times g plus Christoffel corrections; cross-check by finite differences."""
    point = np.array([0.1, 0.2])
    g = metric_field(point, order=3)
    gamma = christoffel(g)
    n = 2
    u = [Jet.variable(i, point[i], n, 1) for i in range(n)]
    f = u[0] * u[1] + 1.0

    a_jets = np.empty((n, n, n), dtype=object)
    g1 = [[Jet(n, 1, g.coeffs[i, j, : jet_size(n, 1)]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a_jets[i, j, k] = f * g1[i][j] * (1.0 if k == 0 else 2.0)
    na = cov_deriv_sym3(np.array([jet_grid(plane) for plane in a_jets]), gamma)

    # finite-difference oracle on tensor components, then corrections
    h = 1e-6
    avals = np.array([[[a_jets[i, j, k].value for k in range(n)] for j in range(n)] for i in range(n)])

    def tensor_at(p):
        gv = metric_values(p)
        fv = p[0] * p[1] + 1.0
        return np.array([[[fv * gv[i, j] * (1.0 if k == 0 else 2.0) for k in range(n)] for j in range(n)] for i in range(n)])

    for l in range(n):
        step = np.zeros(n)
        step[l] = h
        d = (tensor_at(point + step) - tensor_at(point - step)) / (2 * h)
        corr = (
            np.einsum("mi,mjk->ijk", gamma[:, l, :], avals)
            + np.einsum("mj,imk->ijk", gamma[:, l, :], avals)
            + np.einsum("mk,ijm->ijk", gamma[:, l, :], avals)
        )
        assert np.max(np.abs(na[:, :, :, l] - (d - corr))) < 1e-8
