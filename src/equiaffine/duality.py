"""Pointwise duality between hyperbolic affine hyperspheres and minimal
Lagrangian data.

A hypersphere point carries (g, A, L1) with L1 < 0; the dual minimal
Lagrangian point keeps the metric, reuses the cubic form as the second
fundamental form, and flips the sign of the curvature operator.  Both
sides are validated through their Gauss-type equations

    R(X,Y)Z  =  c (g(Y,Z) X - g(X,Z) Y) - [A_X, A_Y] Z      (c = L1)
    R~(X,Y)Z = -c (g(Y,Z) X - g(X,Z) Y) + [A_X, A_Y] Z

and trace-freeness of A, which on the Lagrangian side is the minimality
condition and on the hypersphere side is apolarity.

The checks return residuals: of shape () for one point's data, and (P,),
one per point, for data that hold a stack of P points (g of shape
(P, n, n), L1 or c a (P,) vector), validated once for the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import max_per_point


class DualityError(ValueError):
    """Raised for data that cannot sit on either side of the duality."""


def _check_definite(g: np.ndarray) -> None:
    if (np.linalg.eigvalsh(g)[..., 0] <= 0).any():
        raise DualityError("metric must be positive definite")


class _PointData:
    """What both sides' point data share: validation, the metric g and its inverse."""

    def _validate(self, cubic: str, constant, sign_error: str) -> None:
        """Make g and the cubic tensor float arrays; check that they and
        ``constant`` agree in shape, ``constant`` > 0 and g is definite."""
        g = np.asarray(self.g, float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, cubic, np.asarray(getattr(self, cubic), float))
        n, lead = g.shape[-1], g.shape[:-2]
        if g.shape[-2:] != (n, n) or getattr(self, cubic).shape != lead + (n, n, n) or np.shape(constant) != lead:
            raise DualityError("shape mismatch between metric and cubic data")
        if (np.asarray(constant) <= 0).any():
            raise DualityError(sign_error)
        _check_definite(g)

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def g_inv(self) -> np.ndarray:
        """The inverse metric, formed on first use unless given to ``_trusted``."""
        return np.linalg.inv(self.g)


@dataclass(frozen=True)
class LagrangianPointData(_PointData):
    """Pointwise minimal-Lagrangian data: metric, second fundamental form
    (fully lowered, totally symmetric), and the sectional constant c > 0."""

    g: np.ndarray
    sigma: np.ndarray
    c: float

    def __post_init__(self):
        self._validate("sigma", self.c, "the ambient sectional constant c must be positive")


@dataclass(frozen=True)
class HyperspherePointData(_PointData):
    """Pointwise hyperbolic affine hypersphere data (L1 < 0)."""

    g: np.ndarray
    A: np.ndarray
    L1: float

    def __post_init__(self):
        self._validate("A", -np.asarray(self.L1), "hypersphere data must be hyperbolic (L1 < 0)")


def _trusted(cls, **values):
    """An instance of a frozen dataclass, valid by construction, built without
    re-running the checks of ``__post_init__``; ``g_inv`` may be given too."""
    data = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(data, name, value)
    return data


def dualize(data):
    """Map hypersphere data to Lagrangian data or back.

    The metric is kept, the cubic tensor is reused verbatim, and the
    curvature constant flips sign: c = -L1 going forward, L1 = -c going
    back.  Applying dualize twice is the identity.  The input was validated
    when it was built, and the result keeps its metric, g_inv, shapes and
    the sign of its constant, so the result is not validated again.
    """
    if isinstance(data, HyperspherePointData):
        return _trusted(LagrangianPointData, g=data.g, sigma=data.A, c=-data.L1, g_inv=data.g_inv)
    if isinstance(data, LagrangianPointData):
        return _trusted(HyperspherePointData, g=data.g, A=data.sigma, L1=-data.c, g_inv=data.g_inv)
    raise TypeError("dualize expects hypersphere or Lagrangian point data")


def curvature_operator(data: HyperspherePointData) -> np.ndarray:
    """R(d_i, d_j) d_k as Rup[m, i, j, k] for the hypersphere-side Gauss
    equation of (g, A, L1): R = L1 (g wedge id) - [A, A] (leading point
    axes broadcast, L1 one value per point)."""
    g, c = data.g, data.L1
    n = g.shape[-1]
    A_up = np.einsum("...mp,...ikp->...mik", data.g_inv, data.A)  # shape operator A^m_ik of d_i
    # [A_X, A_Y] Z with X = d_i, Y = d_j, Z = d_k
    comm = np.einsum("...mil,...ljk->...mijk", A_up, A_up) - np.einsum("...mjl,...lik->...mijk", A_up, A_up)
    eye = np.eye(n)
    wedge = np.einsum("...jk,mi->...mijk", g, eye) - np.einsum("...ik,mj->...mijk", g, eye)
    return np.asarray(c)[..., None, None, None, None] * wedge - comm


def check_gauss_swap(data: HyperspherePointData) -> np.ndarray:
    """Verify that dualizing flips the curvature operator exactly.

    The hypersphere Gauss equation determines R from (g, A, L1); the dual
    Lagrangian Gauss equation determines R~ from (g, sigma, c).  The swap
    identity is R~ = -R, which holds algebraically; this check evaluates
    both sides numerically and returns the residual.
    """
    dual = dualize(data)
    r_hyp = curvature_operator(data)
    r_lag = -curvature_operator(dualize(dual))  # (g, sigma, -c): the Lagrangian side's operator
    return max_per_point(data, r_lag - (-r_hyp))


def check_trace_free(data) -> np.ndarray:
    """Trace-freeness g^{ij} T_ijk = 0: apolarity on the hypersphere side,
    minimality on the Lagrangian side.  The contraction is literally the
    same, which is the point of the check."""
    cubic = data.A if isinstance(data, HyperspherePointData) else data.sigma
    trace = np.einsum("...ij,...ijk->...k", data.g_inv, cubic)
    return max_per_point(data, trace)
