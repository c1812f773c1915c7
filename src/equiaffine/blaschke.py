"""The equiaffine invariant pipeline.

From a chart and a point this computes the Berwald-Blaschke metric g, the
Fubini-Pick cubic form A, the affine second fundamental form B, the
affine normal xi, the affine mean curvature L1, the Pick invariant J and
the normalized scalar curvature chi, and evaluates the residuals of the
structural identities tying them together (apolarity, the affine Gauss
and Codazzi equations, the hypersphere conditions).

After chart evaluation all jet work runs on jet arrays (see ``jets``),
at polynomial cost in n.  The determinant form G_ij = det(x_1, ...,
x_n, x_ij) comes from the conormal nu = det(M) M^{-T} e_{n+1} of
M = [x_1 ... x_n | w], w a constant unit normal: nu holds the cofactors
of the last column, so G_ij = nu . x_ij exactly.  Then
g_ij = |det G|^{-1/(n+2)} G_ij.  The affine normal is the metric
Laplacian xi = (1/n) Delta_g x, the induced connection comes from
solving the affine Gauss formula in the frame {x_k, xi}, and the
recovered transversal coefficient h_ij is checked against g_ij as an
internal consistency gate.

The conormal, det G, g^{-1} and the frame solve all use ``jet_lu``,
which pivots on value parts.  That is sound here: M is nonsingular for
an immersion, G is definite (otherwise ConvexityError is raised first)
and the frame is nonsingular (otherwise FrameError).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensors
from .dsl import ChartDef, eval_chart_jet
from .jets import Jet, jet_einsum, jet_gradient, jet_lu, jet_mul, jet_size
from .jets import power as jet_power
from .tensors import MetricField, cov_deriv_sym3, riemann

H_EQUALS_G_TOL = 1e-9
TAU_TOL = 1e-9


class ConvexityError(ValueError):
    """The second-order determinant form is indefinite at the point."""


class FrameError(ValueError):
    """Tangents plus affine normal fail to span the ambient space."""


class ConsistencyError(RuntimeError):
    """Internal cross-check (h = g or tau = 0) failed beyond tolerance."""


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.check_name}: residual={self.residual:.3e} tol={self.tolerance:.1e} {status}"


@dataclass
class BlaschkeInvariants:
    """Pointwise bundle of equiaffine invariants in chart coordinates."""

    point: np.ndarray
    g: np.ndarray  # (n, n) SPD
    g_inv: np.ndarray
    A: np.ndarray  # (n, n, n) totally symmetric, indices down
    B: np.ndarray  # (n, n) symmetric, indices down
    xi: np.ndarray  # (n+1,) affine normal
    L1: float
    J: float
    chi: float
    frame: np.ndarray  # (n+1, n+1) columns x_1..x_n, xi
    position: np.ndarray  # (n+1,) ambient position of the point
    curvature: tensors.CurvatureData = field(repr=False, default=None)
    # internals kept for the structural checks
    _A_jets: np.ndarray = field(repr=False, default=None)  # (n, n, n, M1) order-1 jet array
    _gamma_hat: np.ndarray = field(repr=False, default=None)  # Levi-Civita values
    _nabla_A: np.ndarray = field(repr=False, default=None)  # A_ijk,l values

    @property
    def dim(self) -> int:
        return len(self.point)

    def nabla_A(self) -> np.ndarray:
        if self._nabla_A is None:
            self._nabla_A = cov_deriv_sym3(self._A_jets, self._gamma_hat)
        return self._nabla_A


def blaschke_at(chart: ChartDef, point) -> BlaschkeInvariants:
    """Compute all Blaschke data of a chart at a point (from order-4 jets)."""
    point = np.asarray(point, float)
    n = chart.dim
    m1 = jet_size(n, 1)
    x, x1, hess = _chart_derivatives(chart, point)
    G = _determinant_form(x1, hess, point)
    gvals = G[..., 0]
    eig = np.linalg.eigvalsh(gvals)
    if eig[0] > 0:
        Gp = G
    elif eig[-1] < 0:
        Gp = -G
    else:
        raise ConvexityError(f"chart is not locally strongly convex at {point} (form eigenvalues {eig})")

    # Berwald-Blaschke metric g = |det G|^{-1/(n+2)} * (eps G)
    try:
        det_g, _ = jet_lu(Gp, n)
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"second-order form is degenerate at {point}") from exc
    scale = jet_power(Jet(n, 2, det_g), -1.0 / (n + 2)).coeffs
    metric = MetricField(n, jet_mul(scale, Gp, n))
    gval = metric.values()
    ginv = np.linalg.inv(gval)
    g1 = metric.coeffs[..., :m1]

    # Levi-Civita of g: order-1 jets and their values
    gamma_hat_jets = tensors.christoffel_jets(metric)
    gamma_hat = gamma_hat_jets[..., 0]

    # xi = (1/n) g^{ij} (x_ij - Gamma^k_ij x_k), as order-1 jets
    x1 = x1[..., :m1]
    hess = hess[..., :m1]
    lap = hess - jet_einsum("kij,ka->ija", gamma_hat_jets, x1, n)
    xi = jet_einsum("ij,ija->a", metric.inverse, lap, n) * (1.0 / n)

    # frame {x_1, ..., x_n, xi}: solve x_ij = Gamma^k_ij x_k + h_ij xi
    frame = np.concatenate([x1, xi[None]]).transpose(1, 0, 2)  # [a, column]
    frame_val = frame[..., 0]
    sv = np.linalg.svd(frame_val, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise FrameError(f"frame {{x_k, xi}} is singular at {point}")
    lower = np.tril_indices(n)
    _, sol = jet_lu(frame, n, hess[lower].transpose(1, 0, 2))  # [coefficient, pair]
    gamma_ind = np.empty((n, n, n, m1))  # induced connection [k, i, j]
    gamma_ind[:, lower[0], lower[1]] = gamma_ind[:, lower[1], lower[0]] = sol[:n]
    h_val = np.empty((n, n))
    h_val[lower] = h_val[lower[::-1]] = sol[n, :, 0]
    h_resid = float(np.max(np.abs(h_val - gval)))
    if h_resid > H_EQUALS_G_TOL * max(1.0, np.max(np.abs(gval))):
        raise ConsistencyError(
            f"transversal coefficient h differs from g by {h_resid:.3e} at {point}"
        )

    # Fubini-Pick form: A^k_ij = Gamma^k_ij - hat-Gamma^k_ij, lowered with g
    a_jets = jet_einsum("kl,lij->ijk", g1, gamma_ind - gamma_hat_jets, n)
    A = _symmetrize3(a_jets[..., 0])

    # shape operator: xi_i = -B^k_i x_k + tau_i xi
    coeff = np.linalg.solve(frame_val, jet_gradient(xi, n)[..., 0])  # (n+1, n): columns per direction i
    B_up = -coeff[:n, :]  # B^k_i
    tau = coeff[n, :]
    if np.max(np.abs(tau)) > TAU_TOL * max(1.0, np.max(np.abs(B_up))):
        raise ConsistencyError(f"equiaffine normalization failed: tau = {tau}")
    Bv = np.einsum("jk,ki->ij", gval, B_up)
    Bv = 0.5 * (Bv + Bv.T)
    L1 = float(np.trace(B_up)) / n

    J = _g_norm2(A, ginv) / (n * (n - 1)) if n > 1 else 0.0
    curv = riemann(metric, gamma_hat_jets)

    return BlaschkeInvariants(
        point=point,
        g=gval,
        g_inv=ginv,
        A=A,
        B=Bv,
        xi=xi[:, 0],
        L1=L1,
        J=J,
        chi=curv.chi,
        frame=frame_val,
        position=x[:, 0],
        curvature=curv,
        _A_jets=a_jets,
        _gamma_hat=gamma_hat,
    )


def _g_norm2(t: np.ndarray, g_inv: np.ndarray) -> float:
    """Squared g-norm t_{ij..} t_{pq..} g^{ip} g^{jq} ... of a covariant tensor,
    raising one index at a time (polynomial cost in n)."""
    up = t
    for axis in range(t.ndim):
        up = np.moveaxis(np.tensordot(g_inv, up, axes=(1, axis)), 0, axis)
    return float(np.sum(t * up))


def _chart_derivatives(chart: ChartDef, point: np.ndarray):
    """Chart jets x (n+1, M4), first derivatives x1[k, a] = d_k x^a (order 3)
    and second derivatives hess[i, j, a] = d_i d_j x^a (order 2)."""
    n = chart.dim
    x = eval_chart_jet(chart, point, 4)
    x1 = jet_gradient(x, n).transpose(1, 0, 2)
    # x_ij = d_j d_i x for j <= i, mirrored
    lower = np.tril_indices(n)
    hess = np.empty((n, n, n + 1, jet_size(n, 2)))
    hess[lower] = hess[lower[::-1]] = jet_gradient(x1, n)[lower[0], :, lower[1]]
    return x, x1, hess


def _determinant_form(x1: np.ndarray, hess: np.ndarray, point) -> np.ndarray:
    """G_ij = det(x_1, ..., x_n, x_ij) as an (n, n, M2) jet array, as
    nu . x_ij with the conormal nu of the module docstring."""
    n = x1.shape[0]
    m2 = hess.shape[-1]
    mt = np.zeros((n + 1, n + 1, m2))
    mt[:n] = x1[..., :m2]
    mt[n, :, 0] = np.linalg.svd(x1[..., 0])[2][-1]
    e_last = np.zeros((n + 1, 1, m2))
    e_last[n, 0, 0] = 1.0
    try:
        det_m, y = jet_lu(mt, n, e_last)
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"tangents are linearly dependent at {point}") from exc
    nu = jet_mul(det_m, y[:, 0], n)
    return jet_einsum("a,ija->ij", nu, hess, n)


def _symmetrize3(t: np.ndarray) -> np.ndarray:
    return (
        t
        + t.transpose(0, 2, 1)
        + t.transpose(1, 0, 2)
        + t.transpose(1, 2, 0)
        + t.transpose(2, 0, 1)
        + t.transpose(2, 1, 0)
    ) / 6.0


# -- structural checks ----------------------------------------------------


def check_apolarity(inv: BlaschkeInvariants, tolerance: float = 1e-8) -> CheckReport:
    """Residual of the apolarity condition g^{ij} A_ijk = 0."""
    trace = np.einsum("ij,ijk->k", inv.g_inv, inv.A)
    return CheckReport("apolarity", float(np.max(np.abs(trace))), tolerance)


def gauss_rhs(g: np.ndarray, g_inv: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Right-hand side of the affine Gauss equation for R_ijkl."""
    A_up = np.einsum("mp,ikp->mik", g_inv, A)  # A^m_ik
    comm = np.einsum("mik,jlm->ijkl", A_up, A) - np.einsum("mil,jkm->ijkl", A_up, A)
    wedge = 0.5 * (
        np.einsum("il,jk->ijkl", g, B)
        + np.einsum("jk,il->ijkl", g, B)
        - np.einsum("ik,jl->ijkl", g, B)
        - np.einsum("jl,ik->ijkl", g, B)
    )
    return comm + wedge


def check_gauss(chart: ChartDef, point, tolerance: float = 1e-6, inv=None) -> CheckReport:
    """Affine Gauss equation: curvature of g against A- and B-terms."""
    inv = inv or blaschke_at(chart, point)
    rhs = gauss_rhs(inv.g, inv.g_inv, inv.A, inv.B)
    resid = float(np.max(np.abs(inv.curvature.riemann - rhs)))
    return CheckReport("gauss", resid, tolerance)


def check_ricci(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport:
    """Contracted Gauss identity for the Ricci tensor."""
    n = inv.dim
    A_up = np.einsum("mp,ilp->mil", inv.g_inv, inv.A)
    rhs = (
        np.einsum("kil,ljk->ij", A_up, A_up)
        + 0.5 * n * inv.L1 * inv.g
        + 0.5 * (n - 2) * inv.B
    )
    resid = float(np.max(np.abs(inv.curvature.ricci - rhs)))
    return CheckReport("ricci", resid, tolerance)


def codazzi_rhs(g: np.ndarray, B: np.ndarray) -> np.ndarray:
    # symmetric in (i, j) like the left-hand side, antisymmetric in (k, l)
    return 0.5 * (
        np.einsum("ik,jl->ijkl", g, B)
        + np.einsum("jk,il->ijkl", g, B)
        - np.einsum("il,jk->ijkl", g, B)
        - np.einsum("jl,ik->ijkl", g, B)
    )


def check_codazzi(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport:
    """Codazzi equation for the cubic form: antisymmetrized nabla A."""
    na = inv.nabla_A()
    lhs = na - na.transpose(0, 1, 3, 2)  # A_ijk,l - A_ijl,k
    resid = float(np.max(np.abs(lhs - codazzi_rhs(inv.g, inv.B))))
    return CheckReport("codazzi", resid, tolerance)


def check_trace_identity(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport:
    """Contracted Codazzi identity: div A = (n/2)(L1 g - B)."""
    n = inv.dim
    na = inv.nabla_A()
    div = np.einsum("lm,ijml->ij", inv.g_inv, na)
    rhs = 0.5 * n * (inv.L1 * inv.g - inv.B)
    resid = float(np.max(np.abs(div - rhs)))
    return CheckReport("trace_identity", resid, tolerance)


def check_gauss_alt(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport:
    """Alternative Gauss form expressed through chi, J and nabla A."""
    n = inv.dim
    g, ginv, A = inv.g, inv.g_inv, inv.A
    na = inv.nabla_A()
    div = np.einsum("mp,jlpm->jl", ginv, na)  # A^m_{jl,m}
    A_up = np.einsum("mp,ikp->mik", ginv, A)
    rhs = (
        na - na.transpose(0, 1, 3, 2)
        + (inv.chi - inv.J) * (np.einsum("il,jk->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g))
        + (2.0 / n) * (np.einsum("ik,jl->ijkl", g, div) - np.einsum("il,jk->ijkl", g, div))
        + np.einsum("mik,jlm->ijkl", A_up, A)
        - np.einsum("mil,jkm->ijkl", A_up, A)
    )
    resid = float(np.max(np.abs(inv.curvature.riemann - rhs)))
    return CheckReport("gauss_alt", resid, tolerance)


def check_hypersphere(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> tuple[CheckReport, CheckReport]:
    """Affine hypersphere tests: B = L1 g, and xi = -L1 x for proper spheres
    centered at the origin.  Returns (shape-operator report, center report);
    the center residual is 0 by convention when L1 = 0."""
    resid_b = float(np.max(np.abs(inv.B - inv.L1 * inv.g)))
    if abs(inv.L1) > 1e-12:
        resid_c = float(np.max(np.abs(inv.xi + inv.L1 * inv.position)))
    else:
        resid_c = 0.0
    return (
        CheckReport("hypersphere_shape", resid_b, tolerance),
        CheckReport("hypersphere_center", resid_c, tolerance),
    )


def nabla_A_norm(chart: ChartDef, point, inv=None) -> tuple[float, CheckReport]:
    """The g-norm of nabla A (parallelism test) plus the Codazzi side report."""
    inv = inv or blaschke_at(chart, point)
    na = inv.nabla_A()
    norm2 = _g_norm2(na, inv.g_inv)
    side = check_codazzi(inv)
    return float(np.sqrt(max(norm2, 0.0))), side
