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

Point data may also hold a stack of P points (g of shape (P, n, n), L1 or c
a (P,) vector), validated once for the stack; the checks then return one
report per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeInvariants, CheckReport, max_per_point, point_reports


class DualityError(ValueError):
    """Raised for data that cannot sit on either side of the duality."""


def _check_shapes(g: np.ndarray, cubic: np.ndarray, constant) -> None:
    """One point's (or a stack's) metric, cubic tensor and constant agree in
    dimension and in point axes."""
    n = g.shape[-1]
    lead = g.shape[:-2]
    if g.shape[-2:] != (n, n) or cubic.shape != lead + (n, n, n) or np.shape(constant) != lead:
        raise DualityError("shape mismatch between metric and cubic data")


def _check_definite(g: np.ndarray) -> None:
    if (np.linalg.eigvalsh(g)[..., 0] <= 0).any():
        raise DualityError("metric must be positive definite")


@dataclass(frozen=True)
class LagrangianPointData:
    """Pointwise minimal-Lagrangian data: metric, second fundamental form
    (fully lowered, totally symmetric), and the sectional constant c > 0."""

    g: np.ndarray
    sigma: np.ndarray
    c: float

    def __post_init__(self):
        g = np.asarray(self.g, float)
        sigma = np.asarray(self.sigma, float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "sigma", sigma)
        _check_shapes(g, sigma, self.c)
        if (np.asarray(self.c) <= 0).any():
            raise DualityError("the ambient sectional constant c must be positive")
        _check_definite(g)

    @property
    def dim(self) -> int:
        return self.g.shape[-1]


@dataclass(frozen=True)
class HyperspherePointData:
    """Pointwise hyperbolic affine hypersphere data (L1 < 0)."""

    g: np.ndarray
    A: np.ndarray
    L1: float

    def __post_init__(self):
        g = np.asarray(self.g, float)
        A = np.asarray(self.A, float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A", A)
        _check_shapes(g, A, self.L1)
        if (np.asarray(self.L1) >= 0).any():
            raise DualityError("hypersphere data must be hyperbolic (L1 < 0)")
        _check_definite(g)

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    @classmethod
    def from_invariants(cls, inv: BlaschkeInvariants) -> "HyperspherePointData":
        return cls(g=inv.g, A=inv.A, L1=inv.L1)


def _trusted(cls, **values):
    """Point data valid by construction, built without re-running the
    checks of ``__post_init__``."""
    data = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(data, name, value)
    return data


def dualize(data):
    """Map hypersphere data to Lagrangian data or back.

    The metric is kept, the cubic tensor is reused verbatim, and the
    curvature constant flips sign: c = -L1 going forward, L1 = -c going
    back.  Applying dualize twice is the identity.  The input was validated
    when it was built, and the result keeps its metric, shapes and the
    sign of its constant, so the result is not validated again.
    """
    if isinstance(data, HyperspherePointData):
        return _trusted(LagrangianPointData, g=data.g, sigma=data.A, c=-data.L1)
    if isinstance(data, LagrangianPointData):
        return _trusted(HyperspherePointData, g=data.g, A=data.sigma, L1=-data.c)
    raise TypeError("dualize expects hypersphere or Lagrangian point data")


def curvature_operator(g: np.ndarray, A: np.ndarray, c) -> np.ndarray:
    """R(d_i, d_j) d_k as Rup[m, i, j, k] for the hypersphere-side Gauss
    equation with constant c: R = c (g wedge id) - [A, A] (leading point
    axes broadcast, c one value per point)."""
    g_inv = np.linalg.inv(g)
    n = g.shape[-1]
    A_up = np.einsum("...mp,...ikp->...mik", g_inv, A)  # shape operator A^m_ik of d_i
    # [A_X, A_Y] Z with X = d_i, Y = d_j, Z = d_k
    comm = np.einsum("...mil,...ljk->...mijk", A_up, A_up) - np.einsum("...mjl,...lik->...mijk", A_up, A_up)
    eye = np.eye(n)
    wedge = np.einsum("...jk,mi->...mijk", g, eye) - np.einsum("...ik,mj->...mijk", g, eye)
    return np.asarray(c)[..., None, None, None, None] * wedge - comm


def gauss_residual_hypersphere(data: HyperspherePointData, riemann_up: np.ndarray) -> float:
    """max |R - (L1 (g wedge id) - [A, A])| against a supplied curvature."""
    expected = curvature_operator(data.g, data.A, data.L1)
    return float(np.max(np.abs(riemann_up - expected)))


def check_gauss_swap(data: HyperspherePointData, tolerance: float = 1e-12) -> CheckReport | list[CheckReport]:
    """Verify that dualizing flips the curvature operator exactly.

    The hypersphere Gauss equation determines R from (g, A, L1); the dual
    Lagrangian Gauss equation determines R~ from (g, sigma, c).  The swap
    identity is R~ = -R, which holds algebraically; this check evaluates
    both sides numerically and reports the residual (one per point for a
    stack).
    """
    dual = dualize(data)
    r_hyp = curvature_operator(data.g, data.A, data.L1)
    r_lag = -curvature_operator(dual.g, dual.sigma, -dual.c)
    return point_reports("gauss_swap", max_per_point(data, r_lag - (-r_hyp)), tolerance)


def check_trace_free(data, tolerance: float = 1e-8) -> CheckReport | list[CheckReport]:
    """Trace-freeness g^{ij} T_ijk = 0: apolarity on the hypersphere side,
    minimality on the Lagrangian side.  The contraction is literally the
    same, which is the point of the check."""
    cubic = data.A if isinstance(data, HyperspherePointData) else data.sigma
    trace = np.einsum("...ij,...ijk->...k", np.linalg.inv(data.g), cubic)
    name = "apolarity" if isinstance(data, HyperspherePointData) else "minimality"
    return point_reports(name, max_per_point(data, trace), tolerance)


def check_involution(data: HyperspherePointData, tolerance: float = 1e-15) -> CheckReport:
    """dualize(dualize(x)) == x componentwise."""
    back = dualize(dualize(data))
    resid = max(
        float(np.max(np.abs(back.g - data.g))),
        float(np.max(np.abs(back.A - data.A))),
        abs(back.L1 - data.L1),
    )
    return CheckReport("duality_involution", resid, tolerance)


def random_hypersphere_data(n: int, rng: np.random.Generator) -> HyperspherePointData:
    """Random pointwise data (SPD g, symmetric apolar A, L1 < 0) for
    property tests of the purely algebraic identities."""
    m = rng.standard_normal((n, n))
    g = m @ m.T + n * np.eye(n)
    raw = rng.standard_normal((n, n, n))
    A = np.zeros_like(raw)
    import itertools

    for perm in itertools.permutations(range(3)):
        A += raw.transpose(perm)
    A /= 6.0
    # project out the trace so apolarity holds
    g_inv = np.linalg.inv(g)
    tr = np.einsum("ij,ijk->k", g_inv, A)
    corr = np.einsum("ij,k->ijk", g, tr) + np.einsum("ik,j->ijk", g, tr) + np.einsum("jk,i->ijk", g, tr)
    A -= corr / (n + 2)
    L1 = -float(rng.uniform(0.2, 3.0))
    return HyperspherePointData(g=g, A=A, L1=L1)
