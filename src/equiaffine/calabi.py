"""Multi-factor Calabi compositions of hyperbolic affine hyperspheres.

A composition takes r point factors and s hyperbolic affine hyperspheres
x_alpha (all with affine center at the origin) plus K = r + s positive
constants, and produces a new hyperbolic affine hypersphere of dimension
n = sum(n_alpha) + K - 1.  This module builds the composed chart, the
closed-form metric / cubic-form components, and the residuals of the
Blaschke pipeline on the composed chart against them.  The reference
runs no pipeline: its factor blocks are each factor's ``centroaffine_form``
(L1 g and L1 A of an affine sphere centred at 0, from the Gauss formula
with transversal x), scaled by the closed form's constant, so a defect of
the pipeline's normalization does not cancel between the two sides.

Index bookkeeping is a few read-only arrays cached on ``CompositionSpec``,
0-based over the K factors a, the point factors first: coordinates are
ordered (t^1..t^{K-1}, factor-1 point, ..., factor-s point), ``slices``
holds each sphere factor's coordinates, ``n_a`` the factor dimensions (0
for a point), ``f_a`` the weights sum_{b <= a} n_b + a (a 1-based) and
``exponents`` the coefficients of each log e_a in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

import numpy as np

from . import blaschke
from .blaschke import BlaschkeInvariants, relative
from .dsl import MAX_DIM, ChartDef, OrbitChart
from .jets import jet_embed, jet_hessian, jet_mul, jet_size


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
        if self.K < 2:
            raise ValueError("a composition needs at least two factors")
        if len(self.constants) != self.K:
            raise ValueError(f"expected {self.K} constants")
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
    def K(self) -> int:
        return self.r + self.s

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors) + self.K - 1

    @cached_property
    def n_a(self) -> np.ndarray:
        """(K,) factor dimensions, 0 for a point factor."""
        return _read_only(np.array([0] * self.r + [f.dim for f in self.factors]))

    @cached_property
    def f_a(self) -> np.ndarray:
        """(K,) weights f_a = sum_{b <= a} (n_b + 1): a for the a-th point (1-based)."""
        return _read_only(np.cumsum(self.n_a + 1))

    @cached_property
    def exponents(self) -> np.ndarray:
        """(K, K-1): row a holds the coefficients of log e_a in (t^1..t^{K-1}),
        -1/(n_a + 1) at t^{a-1} and 1/f_b at every t^b with b >= a (0-based)."""
        rows = (np.arange(self.K - 1) >= np.arange(self.K)[:, None]) / self.f_a[:-1]
        np.fill_diagonal(rows[1:], -1.0 / (self.n_a[1:] + 1))
        return _read_only(rows)

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """Each sphere factor's coordinates, after the K - 1 t-coordinates."""
        bounds = list(accumulate((f.dim for f in self.factors), initial=self.K - 1))
        return tuple(map(slice, bounds, bounds[1:]))

    @cached_property
    def closed_form(self) -> ClosedFormInvariants:
        """``closed_form(self)``, built on first use and kept, so a spec's
        closed forms are computed once."""
        return closed_form(self)


class ComposedChart(ChartDef):
    """The Calabi composition chart in (t, p_1, ..., p_s) coordinates.

    Its weights e_a = c_a exp(row_a . t), rows the spec's ``exponents``, are
    the orbit exp(t·X) c of the constants under the commuting generators
    X_lam = diag(exponents[:, lam]), self-adjoint in q = 1: the flat
    hypersphere prod_a e_a^(n_a+1) = const in R^K, whose exact jets the
    ``OrbitChart`` ``weights`` gives."""

    def __init__(self, spec: CompositionSpec):
        self.spec = spec
        K = spec.K
        lo = np.concatenate([np.full(K - 1, -0.3)] + [f.chart.domain_hint[0] for f in spec.factors])
        hi = np.concatenate([np.full(K - 1, 0.3)] + [f.chart.domain_hint[1] for f in spec.factors])
        super().__init__(spec.dim, domain_hint=(lo, hi))
        X = np.zeros((K - 1, K, K))
        X[:, np.arange(K), np.arange(K)] = spec.exponents.T
        self.weights = OrbitChart(X, spec.constants, np.ones(K))

    def component_jets(self, point, order):
        spec, n = self.spec, self.dim
        point = np.asarray(point, float)
        weights = jet_embed(self.weights.component_jets(point[..., : spec.K - 1], order), spec.K - 1, n, 0)
        comps = [weights[..., : spec.r, :]]
        for a, factor, sl in zip(range(spec.r, spec.K), spec.factors, spec.slices):
            sub = factor.chart.jets_at(point[..., sl], order)
            comps.append(jet_mul(weights[..., a, None, :], jet_embed(sub, factor.dim, n, sl.start), n))
        return np.concatenate(comps, axis=-2)


def compose_chart(spec: CompositionSpec) -> ComposedChart:
    return ComposedChart(spec)


# -- closed-form invariants ------------------------------------------------


@dataclass(frozen=True)
class ClosedFormInvariants:
    C: float
    L1: float
    g_t_block: np.ndarray  # (K-1, K-1) flat metric on the t-coordinates
    A_ttt: np.ndarray  # (K-1, K-1, K-1) totally symmetric t-block of A
    A_factor_t: np.ndarray  # (s, K-1): A_{i~ j~ lam} = coef[alpha, lam] * g_{i~ j~}


def composition_constant(spec: CompositionSpec) -> float:
    """The constant C controlling the composed mean curvature L1 = -1/((n+1)C);
    ``ArithmeticError``, naming the constants and factor L1, if out of float range."""
    prod = 1.0
    try:
        for c in spec.constants[: spec.r]:
            prod *= c**2
        for c, f in zip(spec.constants[spec.r :], spec.factors):
            prod *= c ** (2 * (f.dim + 1)) / ((f.dim + 1) ** (f.dim + 1) * (-f.L1) ** (f.dim + 2))
    except (OverflowError, ZeroDivisionError):
        prod = math.nan
    n = spec.dim
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
    cross-check of composition_residuals enforces this).  As the reference
    of those checks it reads no array of the composed chart: A_factor_t
    has its own formula, though it equals the chart's exponent rows.

    Sphere factor alpha's block of g is rho_alpha g_alpha with rho_alpha =
    (n_alpha+1)(-L1_alpha) C, and its block of A is rho_alpha A_alpha.
    Written over the factor's L1-free forms h = L1_alpha g_alpha and
    L1_alpha A_alpha (``centroaffine_form``), the factor's own L1 cancels:
    rho_alpha h / L1_alpha = -(n_alpha+1) C h, so ``expected_invariants``
    scales both by -(n_alpha+1) C, and the declared L1_alpha enters the
    reference through C alone.
    """
    n, f = spec.n_a, spec.f_a
    C = composition_constant(spec)
    L1 = -1.0 / ((spec.dim + 1) * C)
    T = spec.K - 1

    g_ll = f[1:] * C / ((n[1:] + 1) * f[:-1])
    g_t = np.diag(g_ll)

    A_ttt = np.zeros((T, T, T))
    for lam in range(T):
        A_ttt[lam, lam, lam] = g_ll[lam] * (1.0 / f[lam] - 1.0 / (n[lam + 1] + 1))
        mu = slice(lam + 1, T)
        A_ttt[lam, lam, mu] = A_ttt[lam, mu, lam] = A_ttt[mu, lam, lam] = g_ll[lam] / f[mu]

    # sphere factor alpha is factor a = r + alpha: A_{i~ j~ lam} = coef g_{i~ j~}
    A_ft = np.zeros((spec.s, T))
    for alpha, a in enumerate(range(spec.r, spec.K)):
        if a >= 1:
            A_ft[alpha, a - 1] = -1.0 / (n[a] + 1)
        A_ft[alpha, a:] = 1.0 / f[a:T]

    return ClosedFormInvariants(
        C=C,
        L1=L1,
        g_t_block=_read_only(g_t),
        A_ttt=_read_only(A_ttt),
        A_factor_t=_read_only(A_ft),
    )


def _centroaffine_solve(chart: ChartDef, points):
    """The Gauss formula x_ij = Gamma^k_ij x_k - h_ij x of transversal x, read
    from the chart's derivative values (see ``centroaffine_form``): N0^T =
    [x_1; ...; x_m; x] (m+1, m+1), h (m, m), Gamma (m, m, m) [k, i, j] and
    nu . x_ijk (m, m, m) [i, j, k], nu the conormal, the row x of N0^{-1};
    each from N0^{-1} x_ij and N0^{-1} x_ijk over the pairs i >= j of
    ``blaschke._lower``, mirrored, with a leading point axis for a (P, m)
    point stack."""
    m = chart.dim
    x = chart.jets_at(points, blaschke.ORDER)
    # the second partials of order 1, [a, p, coefficient]: x_ij (value part), x_ijk (degree 1)
    d2 = jet_hessian(x[..., : jet_size(m, 3)], m)
    nt0 = np.concatenate([x[..., 1 : m + 1].swapaxes(-1, -2), x[..., None, :, 0]], axis=-2)
    n_inv = np.linalg.inv(nt0).swapaxes(-1, -2)  # N0^{-1}, its row x the conormal nu
    # N0^{-1} x_ij and N0^{-1} x_ijk in one product, [k, p, coefficient], on a
    # layout fixed whatever the stack size, so each row sums in its point's order
    sol = np.matmul(n_inv, np.ascontiguousarray(d2).reshape(d2.shape[:-2] + (-1,))).reshape(d2.shape)
    # mirrored, so exactly symmetric in i, j; a gather's layout changes with
    # the stack size, so the einsum operands h and Gamma are made contiguous
    pairs = _pairs(m)
    h = np.ascontiguousarray(-sol[..., m, pairs, 0])
    gamma = np.ascontiguousarray(sol[..., :m, pairs, 0])  # [k, i, j]
    nu_x3 = sol[..., m, pairs, 1:]  # [i, j, k]
    return nt0, h, gamma, nu_x3


@cache
def _pairs(m: int) -> np.ndarray:
    """(m, m) positions of the pairs (i, j) and (j, i), i >= j, among the
    pairs of ``blaschke._lower(m)`` (``jet_hessian``'s order), built once
    per dimension."""
    rows, cols = blaschke._lower(m)
    pairs = np.empty((m, m), dtype=np.intp)
    pairs[rows, cols] = pairs[cols, rows] = np.arange(len(rows))
    return pairs


def centroaffine_form(chart: ChartDef, points) -> tuple[np.ndarray, np.ndarray]:
    """The forms (h, L1 A) = (L1 g, L1 A) of an affine sphere centred at the
    origin, at a point or a (P, m) point stack, as (m, m) and (m, m, m)
    arrays (with a leading point axis for a stack), from the chart's
    derivative values x_i, x_ij, x_ijk at the point: one inverse and no jet
    arithmetic, metric normalization or determinant.

    On such a sphere the affine normal is xi = -L1 x (Nomizu and Sasaki,
    Affine Differential Geometry, 1994, Ch. II), so the Gauss formula
    x_ij = Gamma^k_ij x_k + g_ij xi reads

        x_ij = Gamma^k_ij x_k - h_ij x,    h = L1 g,

    and c = N0^{-1} x_ij with N0 = [x_1 ... x_m | x] gives the induced
    connection Gamma^k_ij = c^k_ij and h_ij = -c^x_ij.  The row x of
    N0^{-1} is the centroaffine conormal nu: nu . x_k = 0, nu . x = 1, so
    h_ij = -nu . x_ij.  Differentiating the two identities gives
    d_k nu . x_l = -nu . x_kl = h_kl and d_k nu . x = -nu . x_k = 0, hence
    d_k nu . x_ij = h_kl Gamma^l_ij and

        d_k h_ij = -nu . x_ijk - h_kl Gamma^l_ij.

    The cubic form is C = nabla h, totally symmetric by Codazzi (the
    transversal x has tau = 0), and the Levi-Civita connection of h, a
    constant multiple of g, is that of g; so L1 A_ijk = h_kl (Gamma -
    hat-Gamma)^l_ij = -C_ijk / 2, which the covariant derivative
    C_ijk = d_k h_ij - h_lj Gamma^l_ki - h_il Gamma^l_kj turns into

        L1 A_ijk = (nu . x_ijk + h_kl Gamma^l_ij + h_il Gamma^l_jk
                    + h_jl Gamma^l_ki) / 2,

    the three h Gamma terms one array T_ijk = h_kl Gamma^l_ij read at
    (i, j, k), (i, k, j) and (k, j, i), since T is symmetric in i, j.  Off
    an affine sphere centred at 0 the two forms are the centroaffine
    metric and cubic form, not L1 g and L1 A.

    x_ij and x_ijk are the value part and degree-1 block of one order-1
    ``jet_hessian`` of the chart jets read at ``blaschke.ORDER``, the order
    of ``jets_at``'s one kept entry, so a factor stack that the composed
    chart just evaluated is not evaluated again.  A point where x is
    tangent (N0 singular) raises ``LinAlgError``."""
    _, h, gamma, nu_x3 = _centroaffine_solve(chart, points)
    t = np.einsum("...kl,...lij->...ijk", h, gamma)  # h_kl Gamma^l_ij
    return h, 0.5 * (nu_x3 + t + t.swapaxes(-2, -1) + t.swapaxes(-3, -1))


def centroaffine_L1(chart: ChartDef, points) -> np.ndarray:
    """The affine mean curvature L1* of an affine sphere centred at the
    origin, at a point or a (P, m) point stack (a scalar or a (P,) vector),
    from the same reading of the chart as ``centroaffine_form`` and
    Blaschke's volume condition det[x_1 ... x_m, xi]^2 = det g.

    With xi = -L1 x and g = h / L1 the condition reads L1^2 det N0^2 =
    |det h| / |L1|^m, N0 = [x_1 ... x_m | x], so

        |L1*|^(m+2) = |det h| / det N0^2,

    taken in logarithms (no determinant is formed, so none overflows), and
    g positive definite gives L1* the sign of h's definiteness.  A point
    where h is indefinite raises ``blaschke.ConvexityError``.  Off an
    affine sphere centred at 0 this is no mean curvature."""
    nt0, h, _, _ = _centroaffine_solve(chart, points)
    eig = np.linalg.eigvalsh(h)
    positive = eig[..., 0] > 0
    k = blaschke._first(np.atleast_1d(~positive & ~(eig[..., -1] < 0)))
    if k is not None:
        raise blaschke.ConvexityError(f"centroaffine form is indefinite at {np.atleast_2d(points)[k]} "
                                      f"(eigenvalues {np.atleast_2d(eig)[k]})")
    log_l1 = (np.log(np.abs(eig)).sum(axis=-1) - 2.0 * np.linalg.slogdet(nt0)[1]) / (chart.dim + 2)
    return np.where(positive, 1.0, -1.0) * np.exp(log_l1)


def expected_invariants(spec: CompositionSpec, points) -> tuple[np.ndarray, np.ndarray]:
    """Assemble full closed-form (g, A) arrays at a sample point.  Factor
    alpha's blocks are rho_alpha g_alpha = rho_alpha h / L1_alpha =
    -(n_alpha+1) C h and likewise -(n_alpha+1) C (L1_alpha A_alpha) (see
    ``closed_form``), from its ``centroaffine_form`` (h, L1_alpha A_alpha),
    whose chart jets the composed chart's evaluation left in the factor's
    ``jets_at`` entry; no pipeline runs here.  A (P, n) point stack gives
    (P, n, n) and (P, n, n, n) arrays from one stacked call per factor."""
    cf = spec.closed_form
    n, T = spec.dim, spec.K - 1
    points = np.asarray(points, float)
    stack = np.atleast_2d(points)

    g = np.zeros((len(stack), n, n))
    A = np.zeros((len(stack), n, n, n))
    g[:, :T, :T] = cf.g_t_block
    A[:, :T, :T, :T] = cf.A_ttt

    for factor, sl, coefs in zip(spec.factors, spec.slices, cf.A_factor_t):
        h, l1_a = centroaffine_form(factor.chart, stack[:, sl])
        scale = -(factor.dim + 1) * cf.C
        g[:, sl, sl] = scale * h
        A[:, sl, sl, sl] = scale * l1_a
        for t in np.flatnonzero(coefs):
            block = coefs[t] * g[:, sl, sl]
            A[:, sl, sl, t] = A[:, sl, t, sl] = A[:, t, sl, sl] = block
    return (g, A) if points.ndim == 2 else (g[0], A[0])


def composition_residuals(spec: CompositionSpec, invs: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """The residuals composition_g, _A and _L1, one per point, of the
    Blaschke invariants invs of the composed chart at a stack of P points
    (``blaschke_at`` on a (P, n) stack) against the closed forms (g, A and
    L1), each relative to the larger of its two sides
    (``blaschke.relative``), with one stacked ``centroaffine_form`` call per
    factor and no second pipeline run.  The hypersphere property is the ``hypersphere`` check's."""
    g_exp, a_exp = expected_invariants(spec, invs.point)
    return {
        "composition_g": relative(invs, invs.g - g_exp, invs.g, g_exp),
        "composition_A": relative(invs, invs.A - a_exp, invs.A, a_exp),
        "composition_L1": relative(invs, invs.L1 - spec.closed_form.L1, invs.L1, spec.closed_form.L1),
    }


def mean_curvature_residuals(spec: CompositionSpec, invs: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """The residuals of the factor mean-curvature identities g(H_a,H_a) =
    (n-n_a)/(n_a+1) * (-L1) and g(H_a,H_b) = L1 for a != b, one per point,
    by report name, each relative to the larger of its two sides
    (``blaschke.relative``), from the Blaschke metric g and cubic form A of
    the invariants invs of the composed chart (``blaschke_at`` on one point
    or a (P, n) stack); none without sphere factors."""
    cf = spec.closed_form
    T = spec.K - 1
    g, A = invs.g, invs.A
    g_t = g[..., :T, :T]
    g_t_inv = np.linalg.inv(g_t)

    H = np.zeros((*g.shape[:-2], spec.s, T))
    for alpha, (factor, sl) in enumerate(zip(spec.factors, spec.slices)):
        g_a_inv = np.linalg.inv(g[..., sl, sl])
        # sigma^lam_{i~ j~} = g^{lam mu} A_{i~ j~ mu} (g is block diagonal)
        sigma0 = np.einsum("...lm,...ijm->...ijl", g_t_inv, A[..., sl, sl, :T])
        H[..., alpha, :] = np.einsum("...ij,...ijl->...l", g_a_inv, sigma0) / factor.dim

    residuals = {}
    gram = H @ g_t @ H.swapaxes(-2, -1)
    for a in range(spec.s):
        expected = (spec.dim - spec.factors[a].dim) / (spec.factors[a].dim + 1) * (-cf.L1)
        diag = gram[..., a, a]
        residuals[f"mean_curvature_diag[{a + 1}]"] = relative(invs, diag - expected, diag, expected)
        for b in range(a + 1, spec.s):
            cross = gram[..., a, b]
            residuals[f"mean_curvature_cross[{a + 1},{b + 1}]"] = relative(invs, cross - cf.L1, cross, cf.L1)
    return residuals
