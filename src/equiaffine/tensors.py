"""Intrinsic Riemannian tensor calculus on jet-valued metric fields.

A metric field is an (n, n, M) symmetric jet array (see ``jets``)
expanded around one point.  The routines take plain arrays (the metric's
jets or values and those of its inverse, which the caller forms) and
return the Christoffel symbols as jets and the curvature and covariant
derivatives as plain numeric arrays at that point.  Every routine also
takes a stack of such fields, one per point of a point stack, as leading
axes, and computes each stack entry exactly as it would compute that
entry alone.

Curvature conventions: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, with fully covariant components
R_ijkl = g(R(d_i, d_j) d_k, d_l), Ricci R_ij = g^{kl} R_kijl, and the
normalized scalar curvature chi = sum g^{il} g^{jk} R_ijkl / (n(n-1)).
With these signs the unit round sphere has chi = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import jet_gradient, jet_matmul

SPD_RTOL = 1e-10


class MetricError(ValueError):
    """Raised for metrics that are not symmetric positive definite."""


def check_spd_eigenvalues(eig: np.ndarray) -> None:
    """Fail loudly if a symmetric value matrix (or any matrix of an
    (..., n, n) stack, naming the first) is not (numerically) SPD, given
    its ascending eigenvalues (..., n)."""
    bad = (eig[..., 0] <= SPD_RTOL * np.maximum(eig[..., -1], 0.0)) | (eig[..., -1] <= 0.0)
    if bad.any():
        eig = eig.reshape(-1, eig.shape[-1])[np.argmax(bad)]
        raise MetricError(f"metric value part is not positive definite (eigenvalues {eig})")


@dataclass(frozen=True)
class CurvatureData:
    christoffel: np.ndarray  # Gamma^k_ij, shape (n, n, n) indexed [k, i, j]
    riemann: np.ndarray  # R_ijkl, shape (n, n, n, n)
    ricci: np.ndarray  # R_ij
    chi: float  # an array of one value per point for a stack


def christoffel_jets(g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2
    of the (..., n, n, M) metric jets g, given the jets g_inv of its inverse
    one order below, as an (..., n, n, n, M') jet array indexed [k, i, j] of
    g_inv's order; ``[..., 0]`` holds their values."""
    n = g.shape[-2]
    d = _last_index_first(jet_gradient(g, n))  # d[l, i, j] = d_l g_ij
    # bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij; contiguous, so that
    # the contraction below sums in one order whatever the stack size
    bracket = np.ascontiguousarray(_last_index_first(d) + d.swapaxes(-4, -2) - d)
    pairs = jet_matmul(g_inv, bracket.reshape(bracket.shape[:-3] + (n * n, -1)), n)  # [k, ij]
    return 0.5 * pairs.reshape(bracket.shape)


def _last_index_first(a: np.ndarray) -> np.ndarray:
    """A jet array indexed [..., i, j, l, :] as one indexed [..., l, i, j, :] (a view)."""
    return a.swapaxes(-2, -3).swapaxes(-3, -4)


def riemann(g: np.ndarray, gamma_jets: np.ndarray, g_inv: np.ndarray) -> CurvatureData:
    """Full curvature data of a metric with (..., n, n) values g and inverse
    g_inv, given its ``christoffel_jets`` (of order >= 1, so from metric jets
    of order >= 2); for a stack of metrics every field of the result, chi
    too, is stacked."""
    n = g.shape[-1]
    gamma = gamma_jets[..., 0]
    dgamma = gamma_jets[..., 1 : n + 1]  # degree-1 coefficients: [k, i, j, l] = d_l Gamma^k_ij
    # Rup[m, i, j, k]: R(d_i, d_j) d_k = Rup[m, i, j, k] d_m
    rup = (
        dgamma.swapaxes(-1, -2).swapaxes(-2, -3)  # [m, i, j, k] = d_i Gamma^m_jk
        - dgamma.swapaxes(-2, -1)  # d_j Gamma^m_ik
        + np.einsum("...mil,...ljk->...mijk", gamma, gamma)
        - np.einsum("...mjl,...lik->...mijk", gamma, gamma)
    )
    riem = np.einsum("...ml,...mijk->...ijkl", g, rup)
    ricci = np.einsum("...kl,...kijl->...ij", g_inv, riem)
    if n > 1:
        chi = np.einsum("...il,...jk,...ijkl->...", g_inv, g_inv, riem) / (n * (n - 1))
    else:
        chi = np.zeros(g.shape[:-2])
    return CurvatureData(christoffel=gamma, riemann=riem, ricci=ricci, chi=chi)


def cov_deriv_sym3(a: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative A_ijk,l of a symmetric 3-tensor field.

    ``a`` is an (..., n, n, n, M) jet array of order >= 1 in the n chart
    variables and ``gamma`` the (..., n, n, n) Christoffel values of the
    same metric; the result is the (..., n, n, n, n) value array
    A_ijk,l = d_l A_ijk - Gamma^m_li A_mjk - Gamma^m_lj A_imk - Gamma^m_lk A_ijm.
    """
    n = a.shape[-2]
    if gamma.shape[-3:] != (n, n, n):
        raise ValueError("tensor and Christoffel dimensions do not match")
    avals = a[..., 0]
    # laid out [..., l, k, i, j] in memory whatever the stack size (the layout
    # of the gradient of one point's A jets from blaschke_at), so contractions
    # of the result sum in one order for a point alone and in a stack
    lead = a.ndim - 4
    out = np.empty(a.shape[:lead] + (n,) * 4).transpose(*range(lead), lead + 2, lead + 3, lead + 1, lead)
    out[...] = a[..., 1 : n + 1]  # the degree-1 coefficients: d_l A_ijk
    out -= np.einsum("...mli,...mjk->...ijkl", gamma, avals)
    out -= np.einsum("...mlj,...imk->...ijkl", gamma, avals)
    out -= np.einsum("...mlk,...ijm->...ijkl", gamma, avals)
    return out
