"""Intrinsic Riemannian tensor calculus on jet-valued metric fields.

Everything here is pointwise: a metric field is an n x n symmetric array
of jets expanded around one point, and the outputs (Christoffel symbols,
curvature, covariant derivatives) are plain numeric arrays at that point.

Curvature conventions: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, with fully covariant components
R_ijkl = g(R(d_i, d_j) d_k, d_l), Ricci R_ij = g^{kl} R_kijl, and the
normalized scalar curvature chi = sum g^{il} g^{jk} R_ijkl / (n(n-1)).
With these signs the unit round sphere has chi = +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jets import jet_coeffs, jet_einsum, jet_gradient, jet_lu, jet_order, jet_size

SPD_RTOL = 1e-10


class MetricError(ValueError):
    """Raised for metrics that are not symmetric positive definite."""


@dataclass(frozen=True)
class MetricField:
    """Symmetric positive definite metric given as jets around a point,
    in the ``dim`` chart variables."""

    dim: int
    components: np.ndarray  # (n, n) array of Jets, or their (n, n, M) jet array
    coeffs: np.ndarray = field(init=False, repr=False)  # (n, n, M) jet array

    def __post_init__(self):
        comp = np.asarray(self.components)
        coeffs = jet_coeffs(comp)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 3 or coeffs.shape[:2] != (self.dim, self.dim):
            raise MetricError("metric component array must be n x n")
        vals = self.values()
        if not np.allclose(vals, vals.T, atol=1e-12 * (1 + np.abs(vals).max())):
            raise MetricError("metric value part is not symmetric")
        check_spd(vals)

    def values(self) -> np.ndarray:
        return self.coeffs[..., 0]

    @property
    def order(self) -> int:
        return jet_order(self.dim, self.coeffs.shape[-1])

    @cached_property
    def inverse(self) -> np.ndarray:
        """g^{ij} as an (n, n, M') jet array, one order below the metric."""
        if self.order < 1:
            raise ValueError("the jet inverse needs metric jets of order >= 1")
        lo = self.coeffs[..., : jet_size(self.dim, self.order - 1)]
        eye = np.zeros(lo.shape)
        eye[..., 0] = np.eye(self.dim)
        return jet_lu(lo, self.dim, eye)[1]


def check_spd(values: np.ndarray) -> None:
    """Fail loudly if the value matrix is not (numerically) SPD."""
    eig = np.linalg.eigvalsh(values)
    if eig[0] <= SPD_RTOL * max(eig[-1], 0.0) or eig[-1] <= 0.0:
        raise MetricError(f"metric value part is not positive definite (eigenvalues {eig})")


@dataclass(frozen=True)
class CurvatureData:
    christoffel: np.ndarray  # Gamma^k_ij, shape (n, n, n) indexed [k, i, j]
    riemann: np.ndarray  # R_ijkl, shape (n, n, n, n)
    ricci: np.ndarray  # R_ij
    chi: float


def christoffel_jets(g: MetricField) -> np.ndarray:
    """Levi-Civita symbols Gamma^k_ij as an (n, n, n, M') jet array indexed
    [k, i, j], one order below the metric."""
    if g.order < 1:
        raise ValueError("christoffel needs metric jets of order >= 1")
    d = jet_gradient(g.coeffs, g.dim).transpose(2, 0, 1, 3)  # d[l, i, j] = d_l g_ij
    # bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = d.transpose(2, 0, 1, 3) + d.transpose(2, 1, 0, 3) - d
    return 0.5 * jet_einsum("kl,lij->kij", g.inverse, bracket, g.dim)


def christoffel(g: MetricField) -> np.ndarray:
    """Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2, value parts."""
    return christoffel_jets(g)[..., 0]


def riemann(g: MetricField, gamma_jets: np.ndarray | None = None) -> CurvatureData:
    """Full curvature data of a metric field (needs jet order >= 2).

    ``gamma_jets`` takes the metric's ``christoffel_jets`` when the caller
    already has them."""
    if g.order < 2:
        raise ValueError("riemann needs metric jets of order >= 2")
    n = g.dim
    if gamma_jets is None:
        gamma_jets = christoffel_jets(g)
    gamma = gamma_jets[..., 0]
    dgamma = jet_gradient(gamma_jets, n)[..., 0].transpose(3, 0, 1, 2)  # [l, k, i, j] = d_l Gamma^k_ij
    # Rup[m, i, j, k]: R(d_i, d_j) d_k = Rup[m, i, j, k] d_m
    rup = (
        np.einsum("imjk->mijk", dgamma)
        - np.einsum("jmik->mijk", dgamma)
        + np.einsum("mil,ljk->mijk", gamma, gamma)
        - np.einsum("mjl,lik->mijk", gamma, gamma)
    )
    gval = g.values()
    ginv = np.linalg.inv(gval)
    riem = np.einsum("ml,mijk->ijkl", gval, rup)
    ricci = np.einsum("kl,kijl->ij", ginv, riem)
    chi = float(np.einsum("il,jk,ijkl->", ginv, ginv, riem)) / (n * (n - 1)) if n > 1 else 0.0
    return CurvatureData(christoffel=gamma, riemann=riem, ricci=ricci, chi=chi)


def cov_deriv_sym3(a_jets: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative A_ijk,l of a symmetric 3-tensor field.

    ``a_jets`` is an (n, n, n) array of jets of order >= 1 in the n chart
    variables (Jets or their jet array) and ``gamma`` the Christoffel
    values of the same metric; the result is the (n, n, n, n) value array
    A_ijk,l = d_l A_ijk - Gamma^m_li A_mjk - Gamma^m_lj A_imk - Gamma^m_lk A_ijm.
    """
    a = jet_coeffs(a_jets)
    n = a.shape[0]
    if gamma.shape != (n, n, n):
        raise ValueError("tensor and Christoffel dimensions do not match")
    avals = a[..., 0]
    out = jet_gradient(a, n)[..., 0]
    out -= np.einsum("mli,mjk->ijkl", gamma, avals)
    out -= np.einsum("mlj,imk->ijkl", gamma, avals)
    out -= np.einsum("mlk,ijm->ijkl", gamma, avals)
    return out
