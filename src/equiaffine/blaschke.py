"""The equiaffine invariant pipeline.

From a chart and a point this computes the Berwald-Blaschke metric g, the
Fubini-Pick cubic form A, the affine second fundamental form B, the
affine normal xi, the affine mean curvature L1, the Pick invariant J and
the normalized scalar curvature chi, and evaluates the residuals of the
structural identities tying them together (apolarity, the affine Gauss
and Codazzi equations, the hypersphere conditions, the duality with
minimal Lagrangian data).

After chart evaluation all jet work runs on jet arrays (see ``jets``),
at polynomial cost in n.  It starts from the affine Gauss formula for
the constant unit normal w of M = [x_1 ... x_n | w],

    x_ij = Gamma'^k_ij x_k + G'_ij w,    (Gamma'_ij, G'_ij) = M^{-1} x_ij,

with both coefficients read off the jets of M^{-T}: its last column y =
M^{-T} e_{n+1} is the conormal divided by det M, so G'_ij = y . x_ij =
det(x_1, ..., x_n, x_ij) / det M, and its column k gives Gamma'^k_ij.  The pipeline works on log-determinants: with eps = +-1
making eps G' positive definite,

    g = |det G|^{-1/(n+2)} eps G = exp(ell) eps G',
    ell = (2 log|det M| - log det(eps G')) / (n+2),

one ``exp`` of a jet whose value part is a sum of logarithms, so no
determinant is formed and none overflows (det M grows like the n-th
power of the chart's scale).  The affine normal follows from the change
of transversal (Nomizu and Sasaki, Affine Differential Geometry, 1994,
Ch. II): for xi = phi w + Z^k x_k the Gauss formula becomes x_ij =
(Gamma'^k_ij - h_ij Z^k) x_k + h_ij xi with h = G' / phi, and the
xi-component of d_i xi is tau_i = d_i log|phi| + h_ik Z^k.  The Blaschke
conditions h = g and tau = 0 fix phi = eps exp(-ell) and Z^k = g^{kl}
d_l ell, so that

    xi = eps exp(-ell) w + Z^k x_k,
    Gamma^k_ij = Gamma'^k_ij - g_ij Z^k,
    B^k_i = -(d_i Z^k + Gamma'^k_il Z^l)    (d_i xi = -B^k_i x_k),

and det(x_1, ..., x_n, xi) = phi det M = +-sqrt(det g), the equiaffine
volume condition, by the choice of ell.  h = g and tau = 0 hold by
construction, so nothing checks them.

All jet linear algebra is four ``jet_lu`` calls in ``blaschke_at``, each
formed only to the order it is read at: through ``_determinant_form``,
the column y of M^{-T} at order 2 with log det M, and its other n
columns at order 1 (all that Gamma' needs); then log det G', and the
order-1 jets of g^{-1}.  Each is a nilpotent series from the inverse of
its value part, which the caller passes, so none calls LAPACK.  Those
inverses exist here: M's singular values are the tangents' and 1 (w is a
unit vector orthogonal to them), which the immersion check bounds, G' is
definite (otherwise ConvexityError is raised first) and g is positive
definite (otherwise MetricError).

Every contraction of jet arrays is one ``jets.jet_matmul``, a batched
matrix product over the coefficient pairs, on views that make the index
pairs (i, j) one matrix axis: G' (order 2) and Gamma' (order 1) from x_ij
over the n(n+1)/2 pairs i >= j only, mirrored, so both are exactly
symmetric; Z^k = g^{kl} d_l ell; g_kl (Gamma - hat-Gamma)^l_ij for A;
and g^{kl}[dg]_lij in ``tensors.christoffel_jets``.

Each value matrix is factorized once per stack, two LAPACK calls in
all, plus the chart's own (one ``eigh`` for ``sl_so``).  One SVD T = U S
V^T of the tangent values (``dsl.eval_immersion``) gives the immersion
check, log|det M0| = sum log sigma_i and M0^{-T} = [V S^{-1} U^T | w],
refined once so that each entry is accurate at its own coordinate's
scale; one ``eigh`` G'0 = Q diag(lambda) Q^T gives the convexity check,
log det(eps G'0), g's SPD check and (eps G'0)^{-1} = eps Q diag(1/lambda)
Q^T, refined once as M0^{-T} is, which divided by g's positive scale s0 =
exp(ell0) is g0^{-1}.

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
from .dsl import ChartDef, eval_immersion
from .jets import exp as jet_exp
from .jets import jet_gradient, jet_hessian, jet_lu, jet_matmul, jet_mul, jet_size
from .tensors import cov_deriv_sym3, riemann

ORDER = 4  # the jet order of the chart evaluation that the pipeline starts from
L1_ZERO_TOL = 1e-12  # |L1| at or below this times |xi| / |x| counts as L1 = 0 (see is_improper)
TINY = np.finfo(float).tiny  # the floor of a relative residual's denominator


class ConvexityError(ValueError):
    """The second-order determinant form is indefinite at the point."""


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
    position: np.ndarray  # (n+1,) ambient position of the point
    curvature: tensors.CurvatureData = field(repr=False, default=None)
    # internals kept for the structural checks
    _A_jets: np.ndarray = field(repr=False, default=None)  # (n, n, n, M1) order-1 jet array
    _terms: dict = field(repr=False, init=False, compare=False, default_factory=dict)  # see term()

    @property
    def dim(self) -> int:
        return self.point.shape[-1]

    def term(self, name: str):
        """The check term ``name`` of ``TERMS``, built on first use and then
        shared, read-only, by every check on this bundle."""
        if name not in self._terms:
            value = TERMS[name](self)
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            self._terms[name] = value
        return self._terms[name]

    def nabla_A(self) -> np.ndarray:
        """A_ijk,l values (the ``nabla_A`` term)."""
        return self.term("nabla_A")


def blaschke_at(chart: ChartDef, points) -> BlaschkeInvariants:
    """Compute all Blaschke data of a chart at a point (from chart jets of order ``ORDER``).

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
    x, x1, hess, m_inv_t0, sv = _chart_derivatives(chart, stack)  # x1, hess (pairs i >= j) of order 2
    G, gamma_w, log_m = _determinant_form(x1, hess, m_inv_t0)  # G' = G / det M; Gamma' of order 1
    eig, vec = np.linalg.eigh(G[..., 0])
    definite = eig[:, 0] > 0
    k = _first(~definite & ~(eig[:, -1] < 0))
    if k is not None:
        raise ConvexityError(f"chart is not locally strongly convex at {stack[k]} (form eigenvalues {eig[k]})")
    eps = np.where(definite, 1.0, -1.0)
    Gp = eps[:, None, None, None] * G
    eig_p = np.where(definite[:, None], eig, -eig[:, ::-1])  # eigenvalues of eps G', ascending
    gp_inv0 = eps[:, None, None] * np.matmul(vec / eig[:, None, :], vec.swapaxes(-1, -2))  # (eps G'0)^{-1}
    gp_inv0 = gp_inv0 + np.matmul(gp_inv0, np.eye(n) - np.matmul(Gp[..., 0], gp_inv0))  # refined once

    # Berwald-Blaschke metric g = exp(ell) eps G' of the module docstring,
    # the log-determinants' value parts from the SVD and eigh above
    # (positive past the gates).  g's value eigenvalues are s0 * eig(eps G'),
    # s0 > 0, so the SPD gate needs no second eigen-decomposition
    log_gp, _ = jet_lu(Gp, gp_inv0, n)
    log_m[:, 0] = np.log(sv).sum(axis=-1)
    log_gp[:, 0] = np.log(eig_p).sum(axis=-1)
    ell = (2.0 * log_m - log_gp) / (n + 2)
    scale = jet_exp(ell, n)
    g = jet_mul(scale[:, None, None], Gp, n)
    tensors.check_spd_eigenvalues(scale[:, :1] * eig_p)
    gval = g[..., 0]
    g1 = g[..., :m1]

    # g^{ij} as order-1 jets, from g0^{-1} = (eps G'0)^{-1} / s0, and Levi-Civita of g: order-1 jets
    _, ginv_jets = jet_lu(g1, gp_inv0 / scale[:, :1, None], n, np.eye(n), log_det=False)
    ginv = np.ascontiguousarray(ginv_jets[..., 0])  # a fixed layout, as for the checks' einsums
    gamma_hat_jets = tensors.christoffel_jets(g, ginv_jets)

    # the affine normal xi = eps exp(-ell) w + Z^k x_k, Z^k = g^{kl} d_l ell
    # as order-1 jets [k], and the induced connection Gamma = Gamma' - g Z
    Z = jet_matmul(ginv_jets, jet_gradient(ell, n)[..., None, :], n)[..., 0, :]
    w = m_inv_t0[..., n]
    xi = (eps * np.exp(-ell[:, 0]))[:, None] * w + np.einsum("...k,...ka->...a", Z[..., 0], x1[..., 0])
    gamma_ind = gamma_w - jet_mul(Z[:, :, None, None], g1[:, None], n)  # [k, i, j]

    # Fubini-Pick form: A^k_ij = Gamma^k_ij - hat-Gamma^k_ij, lowered with g
    diff = (gamma_ind - gamma_hat_jets).reshape(-1, n, n * n, m1)  # [l, ij]
    a_jets = jet_matmul(diff.swapaxes(1, 2), g1.swapaxes(1, 2), n).reshape(gamma_ind.shape)  # [i, j, k]
    A = _symmetrize3(a_jets[..., 0])

    # shape operator: d_i xi = -B^k_i x_k, B^k_i = -(d_i Z^k + Gamma'^k_il Z^l)
    B_up = -(Z[..., 1 : n + 1] + np.einsum("...kil,...l->...ki", gamma_w[..., 0], Z[..., 0]))
    Bv = np.einsum("...jk,...ki->...ij", gval, B_up)
    Bv = 0.5 * (Bv + Bv.swapaxes(1, 2))
    L1 = np.trace(B_up, axis1=1, axis2=2) / n

    J = _g_norm2(A, ginv) / (n * (n - 1)) if n > 1 else np.zeros(len(stack))
    curv = riemann(gval, gamma_hat_jets, ginv)

    row = 0 if points.ndim == 1 else ...  # one point: drop the point axis
    return BlaschkeInvariants(
        point=points,
        g=gval[row],
        g_inv=ginv[row],
        A=A[row],
        B=Bv[row],
        xi=xi[row],
        L1=L1[row],
        J=J[row],
        chi=curv.chi[row],
        position=x[row, :, 0],
        curvature=tensors.CurvatureData(curv.christoffel[row], curv.riemann[row], curv.ricci[row], curv.chi[row]),
        _A_jets=a_jets[row],
    )


def _first(mask: np.ndarray):
    """Index of the first True entry of a boolean vector, or None."""
    return int(np.argmax(mask)) if mask.any() else None


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
    """Chart jets x (n+1, M) of order ``ORDER``, first derivatives x1[k, a] =
    d_k x^a and second derivatives hess[p, a] = d_i d_j x^a over the pairs
    i >= j (``jet_hessian``), both of order 2 and each one gather from x,
    the value part M0^{-T} (n+1, n+1) of the module docstring, whose last
    column is the unit normal w, and the tangents' singular values (n,)
    (``eval_immersion``), each with a leading point axis for a (P, n) point
    stack."""
    n = chart.dim
    x, m_inv_t0, sv = eval_immersion(chart, points, ORDER)
    x1 = jet_gradient(x[..., : jet_size(n, ORDER - 1)], n).swapaxes(-3, -2)
    hess = jet_hessian(x, n).swapaxes(-3, -2)  # [a, p] to [p, a]
    return x, x1, hess, m_inv_t0, sv


def _determinant_form(x1: np.ndarray, hess: np.ndarray, m_inv_t0: np.ndarray):
    """The Gauss formula x_ij = Gamma'^k_ij x_k + G'_ij w for the constant
    normal w, from M^{-T} of the module docstring, given its value part
    ``m_inv_t0`` (last column w): the normalized determinant form G'_ij =
    det(x_1, ..., x_n, x_ij) / det M = y . x_ij as an (n, n, M2) jet array,
    y the conormal column of M^{-T} at order 2, the connection Gamma' as an
    (n, n, n, M1) jet array indexed [k, i, j] from its other columns at
    order 1, each formed for i >= j and mirrored (leading point axes as in
    x1), and the series log(det M / det M0), an (M2,) jet with value part
    0, from the first of the two ``jet_lu`` calls."""
    n = x1.shape[-3]
    lead = x1.shape[:-3]
    m1, m2 = jet_size(n, 1), hess.shape[-1]
    mt = np.zeros(lead + (n + 1, n + 1, m2))
    mt[..., :n, :, :] = x1[..., :m2]
    mt[..., n, :, 0] = m_inv_t0[..., n]
    eye = np.eye(n + 1)
    log_m, y = jet_lu(mt, m_inv_t0, n, eye[:, n:])
    _, m_inv_t = jet_lu(mt[..., :m1], m_inv_t0, n, eye[:, :n], log_det=False)
    # over the distinct pairs i >= j only, mirrored: G' and Gamma' are exactly symmetric
    rows, cols = _lower(n)
    G = np.empty(lead + (n, n, m2))
    G[..., rows, cols, :] = G[..., cols, rows, :] = jet_matmul(hess, y, n)[..., 0, :]
    gamma = np.empty(lead + (n, n, n, m1))
    gamma[..., rows, cols, :] = gamma[..., cols, rows, :] = jet_matmul(hess[..., :m1], m_inv_t, n).swapaxes(-3, -2)
    return G, gamma, log_m


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
# ``blaschke_at`` and returns {report name: residual}, each residual of
# shape () for one point and (P,) for a stack (``max_per_point``).  The
# contractions are ``...`` einsums over the leading point axis, so a stack
# row gets the bits its point gets alone.


def _per_point(x, k: int):
    """A per-point scalar (a float, or a (P,) vector for a stack) shaped to
    broadcast against per-point tensors of k axes."""
    return np.asarray(x)[(...,) + (None,) * k]


def max_per_point(data, x: np.ndarray) -> np.ndarray:
    """Largest |x| at each point of ``data``, any point record whose metric
    ``g`` has shape (..., n, n): over every axis of x but the point axis of
    a stack (shape () for one point, (P,) for a stack)."""
    return np.abs(x).max(axis=tuple(range(data.g.ndim - 2, x.ndim)))


# -- check terms ------------------------------------------------------------
#
# The tensors that several checks build from one bundle, built on first use
# by ``BlaschkeInvariants.term`` and then shared.  The index placements of
# an outer product a_pq b_rs are transposed views of one product, each
# bitwise the einsum of that placement (a product, no sum).


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_pq b_rs of two (..., n, n) stacks as one (..., n, n, n, n) array."""
    return a[..., :, :, None, None] * b[..., None, None, :, :]


def _placed(t: np.ndarray, placement: str) -> np.ndarray:
    """The view of an outer product t = a_pq b_rs (``_outer``) indexed
    [i, j, k, l] for ``placement``, e.g. "il,jk" for a_il b_jk."""
    return t.transpose(_placement_axes(placement, t.ndim - 4))


@functools.cache
def _placement_axes(placement: str, lead: int) -> tuple[int, ...]:
    """The axes of ``_placed``'s transpose for ``lead`` leading axes."""
    labels = placement.replace(",", "")
    return (*range(lead), *(lead + labels.index(c) for c in "ijkl"))


def _A_comm(inv: BlaschkeInvariants) -> tuple[np.ndarray, np.ndarray]:
    """The two terms A^m_ik A_jlm and A^m_il A_jkm of [A, A]_ijkl, the second
    the first with k and l swapped (a view)."""
    comm = np.einsum("...mik,...jlm->...ijkl", inv.term("A_up"), inv.A)
    return comm, comm.swapaxes(-2, -1)


# name -> term(inv); each entry looks its functions up at call time
TERMS = {
    "nabla_A": lambda inv: cov_deriv_sym3(inv._A_jets, inv.curvature.christoffel),  # A_ijk,l
    "curl_nabla_A": lambda inv: inv.nabla_A() - inv.nabla_A().swapaxes(-2, -1),  # A_ijk,l - A_ijl,k
    "div_nabla_A": lambda inv: np.einsum("...lm,...ijml->...ij", inv.g_inv, inv.nabla_A()),  # A^m_ij,m
    "A_up": lambda inv: np.einsum("...mp,...ikp->...mik", inv.g_inv, inv.A),  # A^m_ik
    "A_comm": _A_comm,
    "AA": lambda inv: np.subtract(*inv.term("A_comm")),  # [A, A]_ijkl
    "apolarity": lambda inv: max_per_point(inv, np.einsum("...ij,...ijk->...k", inv.g_inv, inv.A)),  # max|g^ij A_ijk|
    "improper": lambda inv: is_improper(inv),
    "g_B": lambda inv: _outer(inv.g, inv.B),  # g_pq B_rs
    "g_g": lambda inv: _outer(inv.g, inv.g),  # g_pq g_rs
    # g_il g_jk - g_ik g_jl
    "gg_wedge": lambda inv: _placed(inv.term("g_g"), "il,jk") - _placed(inv.term("g_g"), "ik,jl"),
    "hypersphere": lambda inv: _hypersphere_residuals(inv),
}


def check_apolarity(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Residual of the apolarity condition g^{ij} A_ijk = 0 (the bundle's
    ``apolarity`` term)."""
    return {"apolarity": inv.term("apolarity")}


def check_gauss(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Affine Gauss equation: R_ijkl = [A, A]_ijkl + (g_il B_jk + g_jk B_il
    - g_ik B_jl - g_jl B_ik) / 2."""
    gB = inv.term("g_B")
    wedge = 0.5 * (_placed(gB, "il,jk") + _placed(gB, "jk,il") - _placed(gB, "ik,jl") - _placed(gB, "jl,ik"))
    rhs = inv.term("AA") + wedge
    return {"gauss": max_per_point(inv, inv.curvature.riemann - rhs)}


def check_dual(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """The duality with minimal Lagrangian data (g, sigma = A, c = -L1).

    ``gauss_swap`` holds the pipeline's curvature R, measured from the
    metric jets, against the Lagrangian Gauss equation of the dual data,
    R~_ijkl = c (g_il g_jk - g_ik g_jl) - [sigma, sigma]_ijkl, which is -R
    on a hyperbolic affine hypersphere (B = L1 g in ``check_gauss``):
    max|R - [A, A] - L1 (g_il g_jk - g_ik g_jl)|, divided by the largest of
    max|R|, of the two terms of [A, A] and of |L1| max|g g|, so it reads
    the same at any scale (0 where all of them are 0).  By the Gauss
    equation the difference is the Kulkarni-Nomizu product of g with
    B - L1 g, which from n = 3 up vanishes only where B = L1 g; at n = 2
    it vanishes on any surface.  ``minimality``, the trace-freeness of
    sigma, is the apolarity of A: the bundle's ``apolarity`` term."""
    comm_1, comm_2 = inv.term("A_comm")
    gg = inv.term("g_g")
    riem = inv.curvature.riemann
    swap = riem - inv.term("AA") - _per_point(inv.L1, 4) * inv.term("gg_wedge")
    scale = np.maximum(np.maximum(max_per_point(inv, riem), max_per_point(inv, comm_1)),
                       np.maximum(max_per_point(inv, comm_2), np.abs(inv.L1) * max_per_point(inv, gg)))
    return {"gauss_swap": max_per_point(inv, swap) / np.maximum(scale, TINY),
            "minimality": inv.term("apolarity")}


def check_ricci(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Contracted Gauss identity for the Ricci tensor."""
    n = inv.dim
    A_up = inv.term("A_up")
    rhs = (
        np.einsum("...kil,...ljk->...ij", A_up, A_up)
        + 0.5 * n * _per_point(inv.L1, 2) * inv.g
        + 0.5 * (n - 2) * inv.B
    )
    return {"ricci": max_per_point(inv, inv.curvature.ricci - rhs)}


def check_codazzi(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Codazzi equation for the cubic form: A_ijk,l - A_ijl,k = (g_ik B_jl
    + g_jk B_il - g_il B_jk - g_jl B_ik) / 2, symmetric in (i, j) like the
    left-hand side, antisymmetric in (k, l)."""
    gB = inv.term("g_B")
    rhs = 0.5 * (_placed(gB, "ik,jl") + _placed(gB, "jk,il") - _placed(gB, "il,jk") - _placed(gB, "jl,ik"))
    return {"codazzi": max_per_point(inv, inv.term("curl_nabla_A") - rhs)}


def check_trace_identity(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Contracted Codazzi identity: div A = (n/2)(L1 g - B)."""
    n = inv.dim
    rhs = 0.5 * n * (_per_point(inv.L1, 2) * inv.g - inv.B)
    return {"trace_identity": max_per_point(inv, inv.term("div_nabla_A") - rhs)}


def check_gauss_alt(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Alternative Gauss form expressed through chi, J and nabla A."""
    n = inv.dim
    g_div = _outer(inv.g, inv.term("div_nabla_A"))
    comm_1, comm_2 = inv.term("A_comm")
    rhs = (
        inv.term("curl_nabla_A")
        + _per_point(inv.chi - inv.J, 4) * inv.term("gg_wedge")
        + (2.0 / n) * (_placed(g_div, "ik,jl") - _placed(g_div, "il,jk"))
        + comm_1
        - comm_2
    )
    return {"gauss_alt": max_per_point(inv, inv.curvature.riemann - rhs)}


def is_improper(inv: BlaschkeInvariants) -> np.ndarray:
    """Whether L1 = 0 within rounding at each point (shape () for one point,
    (P,) for a stack): |L1| max|x| <= ``L1_ZERO_TOL`` max|xi|.  The ratio
    |L1| max|x| / max|xi| is 1 on a proper affine sphere centred at the
    origin (xi = -L1 x), rounding noise on an improper one, and a homothety
    x -> lambda x leaves it unchanged (L1 and |xi| / |x| both scale by
    lambda^(-2(n+1)/(n+2))), so the decision holds at any scale."""
    return np.abs(inv.L1) * np.abs(inv.position).max(axis=-1) <= L1_ZERO_TOL * np.abs(inv.xi).max(axis=-1)


def _hypersphere_residuals(inv: BlaschkeInvariants) -> tuple[np.ndarray, np.ndarray]:
    """(max|B - L1 g|, the center residual) at each point.  The center
    residual max|xi + L1 x| / max(max|xi|, |L1| max|x|), the denominator
    floored at the smallest normal float, is relative to the size of its
    two terms, so it reads the same at any scale; it is 0 by convention
    when L1 = 0 (the bundle's ``improper`` term)."""
    resid_b = max_per_point(inv, inv.B - _per_point(inv.L1, 2) * inv.g)
    scale = np.maximum(np.abs(inv.xi).max(axis=-1), np.abs(inv.L1) * np.abs(inv.position).max(axis=-1))
    resid_c = max_per_point(inv, inv.xi + _per_point(inv.L1, 1) * inv.position) / np.maximum(scale, TINY)
    return resid_b, np.where(inv.term("improper"), 0.0, resid_c)


def check_hypersphere(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """Affine hypersphere tests: B = L1 g (``hypersphere_shape``), and
    xi = -L1 x for proper spheres centered at the origin
    (``hypersphere_center``, relative to the larger of the two terms), from
    the bundle's ``hypersphere`` term."""
    resid_b, resid_c = inv.term("hypersphere")
    return {"hypersphere_shape": resid_b, "hypersphere_center": resid_c}


def nabla_A_norm(inv: BlaschkeInvariants) -> dict[str, np.ndarray]:
    """The g-norm of nabla A (``parallel``: parallelism test)."""
    return {"parallel": np.sqrt(np.maximum(_g_norm2(inv.nabla_A(), inv.g_inv), 0.0))}
