"""Curvature machinery against finite-difference oracles and model spaces."""

import numpy as np
import pytest

from equiaffine import jets
from equiaffine.jets import jet_index, jet_lu, jet_mul, jet_size, jet_variables
from equiaffine.tensors import (
    CurvatureData,
    MetricError,
    check_spd_eigenvalues,
    christoffel_jets,
    cov_deriv_sym3,
    riemann,
)


def constant(value, num_vars, order) -> np.ndarray:
    """The constant jet ``value``."""
    c = np.zeros(jet_size(num_vars, order))
    c[0] = value
    return c


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
    u, v = jet_variables(point, order)
    comps = np.empty((2, 2, jet_size(2, order)))
    comps[0, 0] = jet_mul(u, u, 2) + jets.sin(v, 2) * 0.2 + constant(1.0, 2, order)
    comps[0, 1] = comps[1, 0] = jet_mul(u, v, 2) * 0.3
    comps[1, 1] = jet_mul(v, v, 2) + u * 0.1 + constant(2.0, 2, order)
    return comps


def inverse_jets(g):
    """g^{ij} of the (n, n, M) metric jets g as jets one order below, formed
    as blaschke_at forms them, from the inverse of their values."""
    n = g.shape[-2]
    lo = g[..., : jet_size(n, jet_index(n, g.shape[-1]).order - 1)]
    return jet_lu(lo, np.linalg.inv(lo[..., 0]), n, np.eye(n), log_det=False)[1]


def curvature(g):
    """``riemann`` of metric jets g, given their Christoffel jets and the
    inverse of their values."""
    return riemann(g[..., 0], christoffel_jets(g, inverse_jets(g)), np.linalg.inv(g[..., 0]))


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
    g = metric_field(point)
    got = christoffel_jets(g, inverse_jets(g))[..., 0]
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
    got = curvature(metric_field(point))
    assert np.max(np.abs(got.riemann - oracle)) < 1e-6
    # g^{-1} from the metric's jet inverse, as blaschke_at passes it, gives the same curvature
    g = metric_field(point)
    g_inv = inverse_jets(g)
    given = riemann(g[..., 0], christoffel_jets(g, g_inv), g_inv[..., 0])
    assert np.asarray(given.riemann).tobytes() == np.asarray(got.riemann).tobytes()
    for name in ("ricci", "chi"):
        assert np.allclose(getattr(given, name), getattr(got, name), rtol=1e-13, atol=1e-13)


def sphere_metric(point, n, order=2):
    """Round-sphere metric in graph coordinates: g = I + uu^t/(1-|u|^2)."""
    u = jet_variables(point, order)
    s = jet_mul(u[0], u[0], n)
    for i in range(1, n):
        s = s + jet_mul(u[i], u[i], n)
    w = jets.recip(-s + constant(1.0, n, order), n)
    comps = np.empty((n, n, jet_size(n, order)))
    for i in range(n):
        for j in range(n):
            comps[i, j] = jet_mul(jet_mul(u[i], u[j], n), w, n) + constant(1.0 if i == j else 0.0, n, order)
    return comps


@pytest.mark.parametrize("n", [2, 3])
def test_unit_sphere_curvature(n):
    point = np.full(n, 0.21)
    g = sphere_metric(point, n)
    curv = curvature(g)
    gval = g[..., 0]
    expect = np.einsum("il,jk->ijkl", gval, gval) - np.einsum("ik,jl->ijkl", gval, gval)
    assert np.max(np.abs(curv.riemann - expect)) < 1e-12
    assert curv.chi == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(curv.ricci - (n - 1) * gval)) < 1e-12


def test_flat_metric_curvature_zero():
    n = 2
    point = [0.4, -0.7]
    u = jet_variables(point, 2)
    # flat metric in curvilinear form: pullback of identity under a
    # polynomial diffeomorphism phi = (u + v^2/2, v - u^2/2)
    j00 = constant(1.0, n, 2)
    j01 = u[1]
    j10 = -u[0]
    j11 = constant(1.0, n, 2)
    comps = np.empty((n, n, jet_size(n, 2)))
    comps[0, 0] = jet_mul(j00, j00, n) + jet_mul(j10, j10, n)
    comps[0, 1] = comps[1, 0] = jet_mul(j00, j01, n) + jet_mul(j10, j11, n)
    comps[1, 1] = jet_mul(j01, j01, n) + jet_mul(j11, j11, n)
    curv = curvature(comps)
    assert np.max(np.abs(curv.riemann)) < 1e-12
    assert curv.chi == pytest.approx(0.0, abs=1e-12)


def test_metric_validation():
    vals = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(MetricError):
        check_spd_eigenvalues(np.linalg.eigvalsh(vals))


def test_cov_deriv_scalar_times_metric():
    """For T = f * g (g parallel), T_ijk,l reduces to partial derivatives of f
    times g plus Christoffel corrections; cross-check by finite differences."""
    point = np.array([0.1, 0.2])
    g = metric_field(point, order=3)
    gamma = christoffel_jets(g, inverse_jets(g))[..., 0]
    n = 2
    u = jet_variables(point, 1)
    f = jet_mul(u[0], u[1], n) + constant(1.0, n, 1)

    a_jets = np.empty((n, n, n, jet_size(n, 1)))
    g1 = g[..., : jet_size(n, 1)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a_jets[i, j, k] = jet_mul(f, g1[i, j], n) * (1.0 if k == 0 else 2.0)
    na = cov_deriv_sym3(a_jets, gamma)

    # finite-difference oracle on tensor components, then corrections
    h = 1e-6
    avals = a_jets[..., 0]

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
