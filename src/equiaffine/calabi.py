"""Multi-factor Calabi compositions of hyperbolic affine hyperspheres.

A composition takes r point factors and s hyperbolic affine hyperspheres
x_alpha (all with affine center at the origin) plus K = r + s positive
constants, and produces a new hyperbolic affine hypersphere of dimension
n = sum(n_alpha) + K - 1.  This module builds the composed chart, the
closed-form metric / cubic-form components, and the residuals of the full
Blaschke pipeline against both.

Index bookkeeping (the error-prone part) is centralized in
CompositionIndex: coordinates are ordered (t^1..t^{K-1}, factor-1 point,
..., factor-s point), factor a = r + alpha carries weight
f_a = sum_{beta <= alpha} n_beta + a, and the paper-style tilde index of
the i-th coordinate of factor alpha is i + (K-1) + sum_{beta<alpha} n_beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .blaschke import BlaschkeInvariants, blaschke_at, max_per_point
from .dsl import MAX_DIM, ChartDef
from .jets import jet_embed, jet_mul


@dataclass(frozen=True)
class HypersphereFactor:
    """One hyperbolic affine hypersphere factor with its mean curvature."""

    chart: ChartDef
    L1: float  # affine mean curvature of the factor, < 0

    def __post_init__(self):
        if self.L1 >= 0:
            raise ValueError("factor affine mean curvature must be negative")
        if not math.isfinite(self.L1):
            raise ValueError("factor affine mean curvature must be finite")

    @property
    def dim(self) -> int:
        return self.chart.dim


class CompositionIndex:
    """Coordinate and weight bookkeeping for a Calabi composition."""

    def __init__(self, r: int, dims: list[int]):
        self.r = r
        self.s = len(dims)
        self.K = r + self.s
        self.dims = list(dims)
        self.n = sum(dims) + self.K - 1

    def factor_dim(self, a: int) -> int:
        """n_a for a 1-based factor label (0 for point factors)."""
        return 0 if a <= self.r else self.dims[a - self.r - 1]

    def weight(self, a: int) -> int:
        """f_a = a for points, sum_{beta<=alpha} n_beta + a for spheres."""
        if a <= self.r:
            return a
        alpha = a - self.r
        return sum(self.dims[:alpha]) + a

    def t_coord(self, lam: int) -> int:
        """0-based coordinate of t^lam, lam in 1..K-1."""
        if not 1 <= lam <= self.K - 1:
            raise IndexError(f"t index {lam} out of range")
        return lam - 1

    def factor_coord(self, alpha: int, i: int) -> int:
        """0-based coordinate of the i-th variable (1-based) of factor alpha."""
        if not 1 <= alpha <= self.s:
            raise IndexError(f"factor {alpha} out of range")
        if not 1 <= i <= self.dims[alpha - 1]:
            raise IndexError(f"coordinate {i} out of range for factor {alpha}")
        return (self.K - 1) + sum(self.dims[: alpha - 1]) + (i - 1)

    def factor_slice(self, alpha: int) -> slice:
        start = self.factor_coord(alpha, 1)
        return slice(start, start + self.dims[alpha - 1])

    def t_slice(self) -> slice:
        return slice(0, self.K - 1)

    def exponent_row(self, a: int) -> np.ndarray:
        """Coefficients of log e_a as a linear function of (t^1..t^{K-1})."""
        row = np.zeros(self.K - 1)
        if a >= 2:
            row[a - 2] = -1.0 / (self.factor_dim(a) + 1)
        for b in range(a, self.K):
            row[b - 1] = 1.0 / self.weight(b)
        return row


@dataclass(frozen=True)
class CompositionSpec:
    r: int
    factors: tuple[HypersphereFactor, ...]
    constants: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "constants", tuple(float(c) for c in self.constants))
        if self.r < 0:
            raise ValueError("point-factor count must be nonnegative")
        if self.r + self.s < 2:
            raise ValueError("a composition needs at least two factors")
        if len(self.constants) != self.r + self.s:
            raise ValueError(f"expected {self.r + self.s} constants")
        if any(c <= 0 for c in self.constants):
            raise ValueError("composition constants must be positive")
        if not all(map(math.isfinite, self.constants)):
            raise ValueError("composition constants must be finite")
        if self.dim > MAX_DIM:
            raise ValueError(f"composition dimension {self.dim} is above MAX_DIM = {MAX_DIM}")

    @property
    def s(self) -> int:
        return len(self.factors)

    @property
    def index(self) -> CompositionIndex:
        return CompositionIndex(self.r, [f.dim for f in self.factors])

    @property
    def dim(self) -> int:
        return self.index.n

    @cached_property
    def closed_form(self) -> ClosedFormInvariants:
        """``closed_form(self)``, built on first use and kept, so a spec's
        closed forms are computed once."""
        return closed_form(self)


_FACTORIALS = np.array([math.factorial(k) for k in range(jets.MAX_ORDER + 1)], float)


class ComposedChart(ChartDef):
    """The Calabi composition chart in (t, p_1, ..., p_s) coordinates.

    Its weights e_a = c_a exp(row_a . t) have linear exponents, so their
    jets at t0 are in closed form: the coefficient of the monomial
    u^alpha is c_a exp(row_a . t0) row_a^alpha / alpha!."""

    def __init__(self, spec: CompositionSpec):
        self.spec = spec
        idx = spec.index
        lo = [-0.3] * (idx.K - 1)
        hi = [0.3] * (idx.K - 1)
        for f in spec.factors:
            lo.extend(f.chart.domain_hint[0])
            hi.extend(f.chart.domain_hint[1])
        super().__init__(idx.n, domain_hint=(np.array(lo), np.array(hi)))
        self.index_map = idx
        self.rows = np.array([idx.exponent_row(a) for a in range(1, idx.K + 1)])  # (K, K-1)
        self._weight_coeffs = {}  # order -> (K, M) read-only array, see weight_coeffs

    def weight_coeffs(self, order: int) -> np.ndarray:
        """c_a row_a^alpha / alpha! for every weight a (rows) and monomial
        alpha of the jet order (columns), zero where alpha involves a factor
        coordinate; built once per order, read-only."""
        if order not in self._weight_coeffs:
            t = self.index_map.K - 1  # the t coordinates come first
            mono = np.array(jets.monomials(self.dim, order)).reshape(-1, self.dim)
            terms = (self.rows[:, None, :] ** mono[:, :t] / _FACTORIALS[mono[:, :t]]).prod(axis=-1)
            coeffs = np.where(mono[:, t:].any(axis=1), 0.0, np.array(self.spec.constants)[:, None] * terms)
            coeffs.flags.writeable = False
            self._weight_coeffs[order] = coeffs
        return self._weight_coeffs[order]

    def component_jets(self, point, order):
        spec, idx = self.spec, self.index_map
        n = idx.n
        point = np.asarray(point, float)
        # exp(row_a . t0) as order-0 jets: a value out of float range raises exp's error
        scale = jets.exp((point[..., : idx.K - 1] @ self.rows.T)[..., None], n)
        weights = scale * self.weight_coeffs(order)  # (..., K, M): the jets of e_a
        comps = [weights[..., : spec.r, :]]
        for alpha, factor in enumerate(spec.factors, start=1):
            sl = idx.factor_slice(alpha)
            sub = factor.chart.jets_at(point[..., sl], order)
            e_a = weights[..., spec.r + alpha - 1, None, :]
            comps.append(jet_mul(e_a, jet_embed(sub, factor.dim, n, sl.start), n))
        return np.concatenate(comps, axis=-2)


def compose_chart(spec: CompositionSpec) -> ComposedChart:
    return ComposedChart(spec)


# -- closed-form invariants ------------------------------------------------


@dataclass(frozen=True)
class ClosedFormInvariants:
    C: float
    L1: float
    g_t_block: np.ndarray  # (K-1, K-1) flat metric on the t-coordinates
    factor_conformal: tuple[float, ...]  # (n_alpha+1)(-L1_alpha) C per factor
    A_ttt: np.ndarray  # (K-1, K-1, K-1) totally symmetric t-block of A
    A_factor_t: np.ndarray  # (s, K-1): A_{i~ j~ lam} = coef[alpha, lam] * g_{i~ j~}


def composition_constant(spec: CompositionSpec) -> float:
    """The constant C controlling the composed mean curvature L1 = -1/((n+1)C);
    ``ArithmeticError``, naming the constants and factor L1, if out of float range."""
    prod = 1.0
    try:
        for a in range(1, spec.r + 1):
            prod *= spec.constants[a - 1] ** 2
        for alpha, f in enumerate(spec.factors, start=1):
            c = spec.constants[spec.r + alpha - 1]
            prod *= c ** (2 * (f.dim + 1)) / ((f.dim + 1) ** (f.dim + 1) * (-f.L1) ** (f.dim + 2))
    except (OverflowError, ZeroDivisionError):
        prod = math.nan
    n = spec.index.n
    C = (prod / (n + 1)) ** (1.0 / (n + 2))
    if not 0.0 < C < math.inf:
        factors = f" and factor L1 {[f.L1 for f in spec.factors]}" if spec.factors else ""
        raise ArithmeticError(f"composition constant out of float range for constants {list(spec.constants)}{factors}")
    return C


def closed_form(spec: CompositionSpec) -> ClosedFormInvariants:
    """Closed-form metric and cubic-form components of the composition.

    The t-block uses the uniform expressions g_ll = f_{l+1} C /
    ((n_{l+1}+1) f_l) and A_lll = g_ll (1/f_l - 1/(n_{l+1}+1)),
    A_llm = g_ll / f_m for l < m, which reduce to the published case
    table and keep the whole family internally consistent (the pipeline
    cross-check of composition_residuals enforces this).
    """
    idx = spec.index
    C = composition_constant(spec)
    L1 = -1.0 / ((idx.n + 1) * C)
    K = idx.K

    g_t = np.zeros((K - 1, K - 1))
    for lam in range(1, K):
        g_t[lam - 1, lam - 1] = idx.weight(lam + 1) * C / ((idx.factor_dim(lam + 1) + 1) * idx.weight(lam))

    A_ttt = np.zeros((K - 1, K - 1, K - 1))
    for lam in range(1, K):
        gll = g_t[lam - 1, lam - 1]
        A_ttt[lam - 1, lam - 1, lam - 1] = gll * (1.0 / idx.weight(lam) - 1.0 / (idx.factor_dim(lam + 1) + 1))
        for mu in range(lam + 1, K):
            val = gll / idx.weight(mu)
            for perm in ((lam - 1, lam - 1, mu - 1), (lam - 1, mu - 1, lam - 1), (mu - 1, lam - 1, lam - 1)):
                A_ttt[perm] = val

    conformal = tuple((f.dim + 1) * (-f.L1) * C for f in spec.factors)

    A_ft = np.zeros((spec.s, K - 1))
    for alpha in range(1, spec.s + 1):
        a_tilde = spec.r + alpha
        if a_tilde - 1 >= 1:
            A_ft[alpha - 1, a_tilde - 2] = -1.0 / (idx.factor_dim(a_tilde) + 1)
        for beta in range(alpha, spec.s + 1):
            b_tilde = spec.r + beta
            if b_tilde <= K - 1:
                A_ft[alpha - 1, b_tilde - 1] = 1.0 / idx.weight(b_tilde)

    for array in (g_t, A_ttt, A_ft):
        array.flags.writeable = False
    return ClosedFormInvariants(
        C=C,
        L1=L1,
        g_t_block=g_t,
        factor_conformal=conformal,
        A_ttt=A_ttt,
        A_factor_t=A_ft,
    )


def expected_invariants(spec: CompositionSpec, points) -> tuple[np.ndarray, np.ndarray]:
    """Assemble full closed-form (g, A) arrays at a sample point, using the
    factor pipelines for the factor metrics and cubic forms.  A (P, n)
    point stack gives (P, n, n) and (P, n, n, n) arrays from one stacked
    pipeline call per factor."""
    idx = spec.index
    cf = spec.closed_form
    n = idx.n
    points = np.asarray(points, float)
    stack = np.atleast_2d(points)

    g = np.zeros((len(stack), n, n))
    A = np.zeros((len(stack), n, n, n))
    tsl = idx.t_slice()
    g[:, tsl, tsl] = cf.g_t_block
    A[:, tsl, tsl, tsl] = cf.A_ttt

    for alpha in range(1, spec.s + 1):
        factor = spec.factors[alpha - 1]
        sl = idx.factor_slice(alpha)
        finvs = blaschke_at(factor.chart, stack[:, sl])
        rho = cf.factor_conformal[alpha - 1]
        g[:, sl, sl] = rho * finvs.g
        A[:, sl, sl, sl] = rho * finvs.A
        for lam in range(1, idx.K):
            coef = cf.A_factor_t[alpha - 1, lam - 1]
            if coef == 0.0:
                continue
            block = coef * g[:, sl, sl]
            t = idx.t_coord(lam)
            A[:, sl, sl, t] = block
            A[:, sl, t, sl] = block
            A[:, t, sl, sl] = block
    return (g, A) if points.ndim == 2 else (g[0], A[0])


def composition_residuals(spec: CompositionSpec, invs: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """The residuals composition_g, _A, _L1 and _sphere, one per point, of
    the Blaschke invariants invs of the composed chart at a stack of P
    points (``blaschke_at`` on a (P, n) stack) against the closed forms (g,
    A, L1 and the hypersphere property), with one stacked factor pipeline
    call per factor."""
    g_exp, a_exp = expected_invariants(spec, invs.point)
    resid_b, resid_c = invs.term("hypersphere")
    return {
        "composition_g": max_per_point(invs, invs.g - g_exp),
        "composition_A": max_per_point(invs, invs.A - a_exp),
        "composition_L1": np.abs(invs.L1 - spec.closed_form.L1),
        "composition_sphere": np.maximum(resid_b, resid_c),
    }


def mean_curvature_residuals(spec: CompositionSpec, g: np.ndarray, A: np.ndarray) -> dict[str, float]:
    """The residuals of the factor mean-curvature identities g(H_a,H_a) =
    (n-n_a)/(n_a+1) * (-L1) and g(H_a,H_b) = L1 for a != b, by report name,
    from the Blaschke metric g (n, n) and cubic form A (n, n, n) of the
    composed chart at any one point."""
    idx = spec.index
    cf = spec.closed_form
    tsl = idx.t_slice()
    g_t = g[tsl, tsl]
    g_t_inv = np.linalg.inv(g_t)

    H = np.zeros((spec.s, idx.K - 1))
    for alpha in range(1, spec.s + 1):
        sl = idx.factor_slice(alpha)
        g_a = g[sl, sl]
        g_a_inv = np.linalg.inv(g_a)
        # sigma^lam_{i~ j~} = g^{lam mu} A_{i~ j~ mu} (g is block diagonal)
        sigma0 = np.einsum("lm,ijm->ijl", g_t_inv, A[sl, sl, tsl])
        H[alpha - 1] = np.einsum("ij,ijl->l", g_a_inv, sigma0) / spec.factors[alpha - 1].dim

    residuals = {}
    gram = H @ g_t @ H.T
    for a in range(spec.s):
        expected = (idx.n - spec.factors[a].dim) / (spec.factors[a].dim + 1) * (-cf.L1)
        residuals[f"mean_curvature_diag[{a + 1}]"] = float(abs(gram[a, a] - expected))
        for b in range(a + 1, spec.s):
            residuals[f"mean_curvature_cross[{a + 1},{b + 1}]"] = float(abs(gram[a, b] - cf.L1))
    return residuals
