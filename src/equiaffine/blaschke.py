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

The conormal, det G, g^{-1} and the frame solve all use ``jet_lu``: one
solve with the value part plus a nilpotent series, which needs a
nonsingular value part.  That holds here: M is nonsingular for an
immersion, G is definite (otherwise ConvexityError is raised first) and
the frame is nonsingular (otherwise FrameError).

Every step also runs on a stack of points: ``blaschke_at`` on a (P, n)
point stack carries a leading point axis through every jet array, so a
stack costs one pass of numpy calls instead of P, and each row is
computed exactly as its point alone (the same operations in the same
order, so bitwise equal).  It returns one BlaschkeInvariants whose fields
are those stacked arrays, and the checks run on it as they run on one
point's invariants: one call per check for all P points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensors
from .dsl import ChartDef, eval_chart_jet
from .jets import jet_einsum, jet_gradient, jet_lu, jet_mul, jet_size
from .jets import power as jet_power
from .tensors import MetricField, cov_deriv_sym3, riemann

H_EQUALS_G_TOL = 1e-9
TAU_TOL = 1e-9
L1_ZERO_TOL = 1e-12  # |L1| at or below this counts as L1 = 0 (improper affine sphere)


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


@dataclass
class BlaschkeInvariants:
    """Equiaffine invariants in chart coordinates, as ``blaschke_at``
    returns them: of one point, or of a stack of P points with a leading
    point axis on every field (shapes below are per point; L1, J and chi
    are numpy scalars for one point and (P,) vectors for a stack)."""

    point: np.ndarray  # (n,)
    g: np.ndarray  # (n, n) SPD
    g_inv: np.ndarray
    A: np.ndarray  # (n, n, n) totally symmetric, indices down
    B: np.ndarray  # (n, n) symmetric, indices down
    xi: np.ndarray  # (n+1,) affine normal
    L1: np.ndarray
    J: np.ndarray
    chi: np.ndarray
    frame: np.ndarray  # (n+1, n+1) columns x_1..x_n, xi
    position: np.ndarray  # (n+1,) ambient position of the point
    curvature: tensors.CurvatureData = field(repr=False, default=None)
    # internals kept for the structural checks
    _A_jets: np.ndarray = field(repr=False, default=None)  # (n, n, n, M1) order-1 jet array
    _gamma_hat: np.ndarray = field(repr=False, default=None)  # Levi-Civita values
    _nabla_A: np.ndarray = field(repr=False, default=None)  # A_ijk,l values
    _sphere: tuple = field(repr=False, default=None)  # hypersphere_residuals()

    @property
    def dim(self) -> int:
        return self.point.shape[-1]

    def nabla_A(self) -> np.ndarray:
        if self._nabla_A is None:
            self._nabla_A = cov_deriv_sym3(self._A_jets, self._gamma_hat)
        return self._nabla_A

    def hypersphere_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """(max|B - L1 g|, max|xi + L1 x|) per point, computed once per bundle."""
        if self._sphere is None:
            self._sphere = _hypersphere_residuals(self)
        return self._sphere


def blaschke_at(chart: ChartDef, points) -> BlaschkeInvariants:
    """Compute all Blaschke data of a chart at a point (from order-4 jets).

    An (n,) point gives the invariants of that point; a (P, n) point stack
    gives them with a leading point axis on every field, from one pass of
    stacked jet arrays, each row bitwise equal to the result for its point
    alone.  A gate that fails names the first failing point of the stack;
    an empty stack raises ValueError."""
    points = np.asarray(points, float)
    stack = points[None] if points.ndim == 1 else points
    if len(stack) == 0:
        raise ValueError(f"blaschke_at needs at least one point, got an empty stack of shape {stack.shape}")
    n = chart.dim
    m1 = jet_size(n, 1)
    x, x1, hess = _chart_derivatives(chart, stack)
    G = _determinant_form(x1, hess, stack)
    eig = np.linalg.eigvalsh(G[..., 0])
    definite = eig[:, 0] > 0
    k = _first(~definite & ~(eig[:, -1] < 0))
    if k is not None:
        raise ConvexityError(f"chart is not locally strongly convex at {stack[k]} (form eigenvalues {eig[k]})")
    Gp = np.where(definite[:, None, None, None], G, -G)

    # Berwald-Blaschke metric g = |det G|^{-1/(n+2)} * (eps G)
    try:
        det_g, _ = jet_lu(Gp, n)
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"second-order form is degenerate at {stack[_first_singular(Gp[..., 0])]}") from exc
    scale = jet_power(det_g, -1.0 / (n + 2), n)
    metric = MetricField(n, jet_mul(scale[:, None, None], Gp, n))
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
    frame = np.concatenate([x1, xi[:, None]], axis=1).swapaxes(1, 2)  # [a, column]
    frame_val = frame[..., 0]
    # singular values of the column-scaled frame: a chart scaled along one
    # axis (x^{n+1} = C0 / ...) stretches columns, not the frame's rank
    norms = np.linalg.norm(frame_val, axis=1)
    sv = np.linalg.svd(frame_val / np.where(norms > 0, norms, 1.0)[:, None], compute_uv=False)
    k = _first(sv[:, -1] <= 1e-12 * sv[:, 0])
    if k is not None:
        raise FrameError(f"frame {{x_k, xi}} is singular at {stack[k]}")
    rows, cols = _lower(n)
    _, sol = jet_lu(frame, n, hess[:, rows, cols].swapaxes(1, 2), det=False)  # [coefficient, pair]
    gamma_ind = np.empty((len(stack), n, n, n, m1))  # induced connection [k, i, j]
    gamma_ind[:, :, rows, cols] = gamma_ind[:, :, cols, rows] = sol[:, :n]
    h_val = np.empty((len(stack), n, n))
    h_val[:, rows, cols] = h_val[:, cols, rows] = sol[:, n, :, 0]
    h_resid = np.max(np.abs(h_val - gval), axis=(1, 2))
    k = _first(h_resid > H_EQUALS_G_TOL * np.maximum(1.0, np.max(np.abs(gval), axis=(1, 2))))
    if k is not None:
        raise ConsistencyError(
            f"transversal coefficient h differs from g by {h_resid[k]:.3e} at {stack[k]}"
        )

    # Fubini-Pick form: A^k_ij = Gamma^k_ij - hat-Gamma^k_ij, lowered with g
    a_jets = jet_einsum("kl,lij->ijk", g1, gamma_ind - gamma_hat_jets, n)
    A = _symmetrize3(a_jets[..., 0])

    # shape operator: xi_i = -B^k_i x_k + tau_i xi
    coeff = np.linalg.solve(frame_val, jet_gradient(xi, n)[..., 0])  # (P, n+1, n): columns per direction i
    B_up = -coeff[:, :n, :]  # B^k_i
    tau = coeff[:, n, :]
    k = _first(np.max(np.abs(tau), axis=1) > TAU_TOL * np.maximum(1.0, np.max(np.abs(B_up), axis=(1, 2))))
    if k is not None:
        raise ConsistencyError(f"equiaffine normalization failed: tau = {tau[k]}")
    Bv = np.einsum("...jk,...ki->...ij", gval, B_up)
    Bv = 0.5 * (Bv + Bv.swapaxes(1, 2))
    L1 = np.trace(B_up, axis1=1, axis2=2) / n

    J = _g_norm2(A, ginv) / (n * (n - 1)) if n > 1 else np.zeros(len(stack))
    curv = riemann(metric, gamma_hat_jets, ginv)

    row = 0 if points.ndim == 1 else ...  # one point: drop the point axis
    return BlaschkeInvariants(
        point=points,
        g=gval[row],
        g_inv=ginv[row],
        A=A[row],
        B=Bv[row],
        xi=xi[row, :, 0],
        L1=L1[row],
        J=J[row],
        chi=curv.chi[row],
        frame=frame_val[row],
        position=x[row, :, 0],
        curvature=tensors.CurvatureData(curv.christoffel[row], curv.riemann[row], curv.ricci[row], curv.chi[row]),
        _A_jets=a_jets[row],
        _gamma_hat=gamma_hat[row],
    )


def _first(mask: np.ndarray):
    """Index of the first True entry of a boolean vector, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def _first_singular(values: np.ndarray) -> int:
    """Index of the first matrix of a stack that LAPACK's LU cannot solve
    with, when a stacked solve raised ``LinAlgError``."""
    for k, value in enumerate(values):
        try:
            np.linalg.inv(value)
        except np.linalg.LinAlgError:
            return k
    raise np.linalg.LinAlgError("no singular matrix in the stack")


@functools.cache
def _lower(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the lower triangle, diagonal included
    (``np.tril_indices(n)``, built once per dimension)."""
    return np.tril_indices(n)


def _g_norm2(t: np.ndarray, g_inv: np.ndarray):
    """Squared g-norm t_{ij..} t_{pq..} g^{ip} g^{jq} ... of a covariant
    tensor, per matrix of a (..., n, n) stack g_inv (polynomial cost in n).

    Each step raises the leading index with one matrix product over all
    the others and rotates it to the back, so after the last step the
    indices are back in order; the last one raised stays leading in
    memory, which fixes the order of the final sum."""
    n = g_inv.shape[-1]
    lead = g_inv.ndim - 2
    up = t.reshape(g_inv.shape[:-2] + (n, -1))
    for _ in range(t.ndim - lead - 1):
        up = np.matmul(g_inv, up).swapaxes(-1, -2).reshape(up.shape)
    up = np.matmul(g_inv, up).reshape(t.shape).transpose(*range(lead), *range(lead + 1, t.ndim), lead)
    return np.sum(t * up, axis=tuple(range(lead, t.ndim)))


def _chart_derivatives(chart: ChartDef, points: np.ndarray):
    """Chart jets x (n+1, M4), first derivatives x1[k, a] = d_k x^a (order 3)
    and second derivatives hess[i, j, a] = d_i d_j x^a (order 2), each with
    a leading point axis for a (P, n) point stack."""
    n = chart.dim
    x = eval_chart_jet(chart, points, 4)
    x1 = jet_gradient(x, n).swapaxes(-3, -2)
    # x_ij = d_j d_i x for j <= i, mirrored
    rows, cols = _lower(n)
    hess = np.empty(x1.shape[:-3] + (n, n, n + 1, jet_size(n, 2)))
    second = jet_gradient(x1, n).swapaxes(-3, -2)  # [i, j, a] = d_j d_i x^a
    hess[..., rows, cols, :, :] = hess[..., cols, rows, :, :] = second[..., rows, cols, :, :]
    return x, x1, hess


def _determinant_form(x1: np.ndarray, hess: np.ndarray, points) -> np.ndarray:
    """G_ij = det(x_1, ..., x_n, x_ij) as an (n, n, M2) jet array (leading
    point axes as in x1), as nu . x_ij with the conormal nu of the module
    docstring."""
    n = x1.shape[-3]
    lead = x1.shape[:-3]
    m2 = hess.shape[-1]
    mt = np.zeros(lead + (n + 1, n + 1, m2))
    mt[..., :n, :, :] = x1[..., :m2]
    mt[..., n, :, 0] = np.linalg.svd(x1[..., 0])[2][..., -1, :]
    e_last = np.zeros(lead + (n + 1, 1, m2))
    e_last[..., n, 0, 0] = 1.0
    try:
        det_m, y = jet_lu(mt, n, e_last)
    except np.linalg.LinAlgError as exc:
        k = _first_singular(mt[..., 0].reshape(-1, n + 1, n + 1))
        raise ConvexityError(f"tangents are linearly dependent at {np.reshape(points, (-1, n))[k]}") from exc
    nu = jet_mul(det_m[..., None, :], y[..., 0, :], n)
    rows, cols = _lower(n)  # G is symmetric: contract the pairs i >= j only
    G = np.empty(lead + (n, n, m2))
    G[..., rows, cols, :] = G[..., cols, rows, :] = jet_einsum("a,pa->p", nu, hess[..., rows, cols, :, :], n)
    return G


def _symmetrize3(t: np.ndarray) -> np.ndarray:
    """Symmetric part of an (..., n, n, n) tensor stack."""
    return (
        t
        + t.swapaxes(-2, -1)  # transpose(0, 2, 1) of the tensor axes
        + t.swapaxes(-3, -2)  # (1, 0, 2)
        + t.swapaxes(-3, -2).swapaxes(-2, -1)  # (1, 2, 0)
        + t.swapaxes(-1, -2).swapaxes(-2, -3)  # (2, 0, 1)
        + t.swapaxes(-3, -1)  # (2, 1, 0)
    ) / 6.0


# -- structural checks ----------------------------------------------------
#
# Each check takes the invariants of one point or of a point stack from
# ``blaschke_at``, and returns one report (or value) for one point and a
# list of one per point for a stack.  The contractions are ``...`` einsums
# over the leading point axis, so a stack row gets the bits its point gets
# alone.


def _per_point(x, k: int):
    """A per-point scalar (a float, or a (P,) vector for a stack) shaped to
    broadcast against per-point tensors of k axes."""
    return np.asarray(x)[(...,) + (None,) * k]


def max_per_point(data, x: np.ndarray) -> np.ndarray:
    """Largest |x| at each point of ``data``, any point record whose metric
    ``g`` has shape (..., n, n): over every axis of x but the point axis of
    a stack (shape () for one point, (P,) for a stack)."""
    return np.abs(x).max(axis=tuple(range(data.g.ndim - 2, x.ndim)))


def point_reports(name: str, residual: np.ndarray, tolerance: float) -> CheckReport | list[CheckReport]:
    """One report for a one-point residual of shape (), a list of one per
    point for a (P,) vector of residuals."""
    if residual.ndim == 0:
        return CheckReport(name, float(residual), tolerance)
    return [CheckReport(name, r, tolerance) for r in residual.tolist()]


def check_apolarity(inv: BlaschkeInvariants, tolerance: float = 1e-8) -> CheckReport | list[CheckReport]:
    """Residual of the apolarity condition g^{ij} A_ijk = 0."""
    trace = np.einsum("...ij,...ijk->...k", inv.g_inv, inv.A)
    return point_reports("apolarity", max_per_point(inv, trace), tolerance)


def gauss_rhs(g: np.ndarray, g_inv: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Right-hand side of the affine Gauss equation for R_ijkl (leading
    point axes broadcast)."""
    A_up = np.einsum("...mp,...ikp->...mik", g_inv, A)  # A^m_ik
    comm = np.einsum("...mik,...jlm->...ijkl", A_up, A) - np.einsum("...mil,...jkm->...ijkl", A_up, A)
    wedge = 0.5 * (
        np.einsum("...il,...jk->...ijkl", g, B)
        + np.einsum("...jk,...il->...ijkl", g, B)
        - np.einsum("...ik,...jl->...ijkl", g, B)
        - np.einsum("...jl,...ik->...ijkl", g, B)
    )
    return comm + wedge


def check_gauss(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport | list[CheckReport]:
    """Affine Gauss equation: curvature of g against A- and B-terms."""
    rhs = gauss_rhs(inv.g, inv.g_inv, inv.A, inv.B)
    return point_reports("gauss", max_per_point(inv, inv.curvature.riemann - rhs), tolerance)


def check_ricci(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport | list[CheckReport]:
    """Contracted Gauss identity for the Ricci tensor."""
    n = inv.dim
    A_up = np.einsum("...mp,...ilp->...mil", inv.g_inv, inv.A)
    rhs = (
        np.einsum("...kil,...ljk->...ij", A_up, A_up)
        + 0.5 * n * _per_point(inv.L1, 2) * inv.g
        + 0.5 * (n - 2) * inv.B
    )
    return point_reports("ricci", max_per_point(inv, inv.curvature.ricci - rhs), tolerance)


def codazzi_rhs(g: np.ndarray, B: np.ndarray) -> np.ndarray:
    # symmetric in (i, j) like the left-hand side, antisymmetric in (k, l)
    return 0.5 * (
        np.einsum("...ik,...jl->...ijkl", g, B)
        + np.einsum("...jk,...il->...ijkl", g, B)
        - np.einsum("...il,...jk->...ijkl", g, B)
        - np.einsum("...jl,...ik->...ijkl", g, B)
    )


def check_codazzi(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport | list[CheckReport]:
    """Codazzi equation for the cubic form: antisymmetrized nabla A."""
    na = inv.nabla_A()
    lhs = na - na.swapaxes(-2, -1)  # A_ijk,l - A_ijl,k
    return point_reports("codazzi", max_per_point(inv, lhs - codazzi_rhs(inv.g, inv.B)), tolerance)


def check_trace_identity(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport | list[CheckReport]:
    """Contracted Codazzi identity: div A = (n/2)(L1 g - B)."""
    n = inv.dim
    div = np.einsum("...lm,...ijml->...ij", inv.g_inv, inv.nabla_A())
    rhs = 0.5 * n * (_per_point(inv.L1, 2) * inv.g - inv.B)
    return point_reports("trace_identity", max_per_point(inv, div - rhs), tolerance)


def check_gauss_alt(inv: BlaschkeInvariants, tolerance: float = 1e-6) -> CheckReport | list[CheckReport]:
    """Alternative Gauss form expressed through chi, J and nabla A."""
    n = inv.dim
    g, ginv, A = inv.g, inv.g_inv, inv.A
    na = inv.nabla_A()
    div = np.einsum("...mp,...jlpm->...jl", ginv, na)  # A^m_{jl,m}
    A_up = np.einsum("...mp,...ikp->...mik", ginv, A)
    rhs = (
        na - na.swapaxes(-2, -1)
        + _per_point(inv.chi - inv.J, 4)
        * (np.einsum("...il,...jk->...ijkl", g, g) - np.einsum("...ik,...jl->...ijkl", g, g))
        + (2.0 / n) * (np.einsum("...ik,...jl->...ijkl", g, div) - np.einsum("...il,...jk->...ijkl", g, div))
        + np.einsum("...mik,...jlm->...ijkl", A_up, A)
        - np.einsum("...mil,...jkm->...ijkl", A_up, A)
    )
    return point_reports("gauss_alt", max_per_point(inv, inv.curvature.riemann - rhs), tolerance)


def _hypersphere_residuals(inv: BlaschkeInvariants) -> tuple[np.ndarray, np.ndarray]:
    """(max|B - L1 g|, max|xi + L1 x|) at each point; the center residual is
    0 by convention when L1 = 0 (``L1_ZERO_TOL``)."""
    resid_b = max_per_point(inv, inv.B - _per_point(inv.L1, 2) * inv.g)
    resid_c = max_per_point(inv, inv.xi + _per_point(inv.L1, 1) * inv.position)
    return resid_b, np.where(np.abs(inv.L1) > L1_ZERO_TOL, resid_c, 0.0)


def check_hypersphere(inv: BlaschkeInvariants, tolerance: float = 1e-6):
    """Affine hypersphere tests: B = L1 g, and xi = -L1 x for proper spheres
    centered at the origin.  Returns (shape-operator report, center report),
    one such pair per point for a stack, from the bundle's cached
    ``hypersphere_residuals()``."""
    resid_b, resid_c = inv.hypersphere_residuals()
    shape = point_reports("hypersphere_shape", resid_b, tolerance)
    center = point_reports("hypersphere_center", resid_c, tolerance)
    return (shape, center) if isinstance(shape, CheckReport) else list(zip(shape, center))


def nabla_A_norm(inv: BlaschkeInvariants) -> float | list[float]:
    """The g-norm of nabla A (parallelism test), one per point for a stack."""
    norm = np.sqrt(np.maximum(_g_norm2(inv.nabla_A(), inv.g_inv), 0.0))
    return norm.tolist()
