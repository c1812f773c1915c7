"""Reference jet linear algebra for the tests: a division-free determinant
and a solve-based series (``lu_series``: one LAPACK solve with the value
part, jet-valued right-hand sides) to check ``jets.jet_lu`` against, the
determinant rebuilt from ``jet_lu``'s log-determinant series, the size of
the terms both sum, and a term-by-term matrix exponential to check the
``sl_so`` chart against, and the enumeration of a jet index as exponent
tuples.  Also a second route to the Blaschke data of one point, to check
``blaschke_at``'s change of transversal against: the affine normal as the
metric Laplacian and the affine Gauss formula solved in the frame
{x_k, xi}, all jet linear algebra by ``lu_series``."""

import math

import numpy as np

from equiaffine.jets import exp, jet_gradient, jet_index, jet_lu, jet_matmul, jet_mul, jet_size
from equiaffine.tensors import christoffel_jets


def monomials(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """The exponent tuples of jets of ``order`` in ``num_vars`` variables, in
    the order of their coefficients (``jet_index``'s enumeration)."""
    return [tuple(m) for m in jet_index(num_vars, jet_size(num_vars, order)).monomials.tolist()]


def jet_det(A: np.ndarray, num_vars: int, signed: bool = True) -> np.ndarray:
    """Determinant of an (n, n, M) jet matrix, as an (M,) jet.

    Division-free: the determinant of a jet matrix is well defined even
    when every value part vanishes, where ``jet_lu`` raises.  Uses the
    subset dynamic program over columns (Laplace expansion shared across
    row subsets), which is O(2^n n) jet operations and exact.  With
    ``signed=False`` the permutation signs are dropped, so on |A| it sums
    the sizes of the terms the expansion adds (the permanent of |A|).
    """
    n, size = A.shape[0], A.shape[-1]
    one = np.zeros(size)
    one[0] = 1.0
    # partial[S] = det of the top-|S| rows restricted to column set S
    partial = {0: one}
    for row in range(n):
        nxt: dict[int, np.ndarray] = {}
        for subset, sub_det in partial.items():
            terms = jet_mul(sub_det, A[row], num_vars)  # one per column
            for col in range(n):
                bit = 1 << col
                if subset & bit:
                    continue
                # permutation sign: parity of used columns above this one
                term = -terms[col] if signed and (subset >> (col + 1)).bit_count() & 1 else terms[col]
                key = subset | bit
                nxt[key] = term if key not in nxt else nxt[key] + term
        partial = nxt
    return partial[(1 << n) - 1]


def lu_series(A: np.ndarray, num_vars: int, B: np.ndarray | None = None, log_det: bool = True):
    """``jets.jet_lu``'s (L, X) by one LU solve with the value part A0 on
    [N | B], for a jet-valued (..., n, k, M) right-hand side B: the Horner
    sum X = sum_k (-Y)^k A0^{-1} B with Y = A0^{-1} N, each step a
    ``jet_matmul``, and L = sum_k (-1)^(k+1) tr(Y^k) / k by the powers
    Y^k.  A singular value part raises ``np.linalg.LinAlgError``."""
    n, size = A.shape[-2], A.shape[-1]
    stack = A.shape[:-3]
    order = jet_index(num_vars, size).order
    split = n * (size - 1)  # columns of N in the one right-hand side [N | B]
    rhs = A[..., 1:].reshape(stack + (n, split))
    if B is not None:
        rhs = np.concatenate([rhs, B.reshape(stack + (n, -1))], axis=-1)
    sol = np.linalg.solve(A[..., 0], rhs)
    Y = np.zeros(A.shape)
    Y[..., 1:] = sol[..., :split].reshape(stack + (n, n, size - 1))

    L = None
    if log_det:
        L = np.zeros(stack + (size,))
        power = Y
        for k in range(1, order + 1):
            L += (-1) ** (k + 1) / k * np.trace(power, axis1=-3, axis2=-2)
            if k < order:
                power = jet_matmul(power, Y, num_vars)
    if B is None:
        return L, None

    Z = sol[..., split:].reshape(B.shape)
    X = Z
    for _ in range(order):
        X = Z - jet_matmul(Y, X, num_vars)
    return L, X


def lu_det(A: np.ndarray, num_vars: int, log_det: np.ndarray | None = None) -> np.ndarray:
    """det A = det A0 * exp(L) of a jet matrix A with value part A0, from
    the series L = ``jet_lu``'s with the inverse of A0 from numpy, or
    ``log_det`` if given."""
    if log_det is None:
        log_det = jet_lu(A, np.linalg.inv(A[..., 0]), num_vars)[0]
    return np.linalg.det(A[..., 0])[..., None] * exp(log_det, num_vars)


def det_term_scale(A: np.ndarray, num_vars: int) -> np.ndarray:
    """Coefficientwise size of the terms two determinants of A sum: the
    subset expansion's, the permanent of |A|, plus ``jet_lu``'s,
    |det A0| exp(sum_k tr(|Y|^k) / k) with |Y| = |A0^{-1} N| entrywise
    (value part A0, nilpotent part N).  Rounding separates the two by a
    small multiple of eps n M times this, also where A0 is ill conditioned
    and the high-order coefficients of jet_lu's series cancel."""
    n, size = A.shape[0], A.shape[-1]
    A0 = A[..., 0]
    Y = np.zeros(A.shape)
    Y[..., 1:] = np.abs(np.linalg.solve(A0, A[..., 1:].reshape(n, -1))).reshape(n, n, size - 1)
    order = jet_index(num_vars, size).order
    log_sum, power = np.zeros(size), Y
    for k in range(1, order + 1):
        log_sum += np.trace(power) / k
        power = jet_matmul(power, Y, num_vars)
    series = np.zeros(size)  # exp(log_sum) by Horner; log_sum has no value part
    for k in range(order, -1, -1):
        series = jet_mul(series, log_sum, num_vars)
        series[0] += 1.0 / math.factorial(k)
    return jet_det(np.abs(A), num_vars, signed=False) + abs(np.linalg.det(A0)) * series


def jet_matrix_exp(S: np.ndarray, num_vars: int) -> np.ndarray:
    """exp of an (m, m, M) jet matrix by scaling and squaring plus the series.

    Scales the value part to inf-norm <= 0.5, sums the degree-17 Taylor
    series one term at a time (one jet product per term), then squares.
    """
    m = S.shape[0]
    norm = np.abs(S[..., 0]).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.5))))
    A = S * 0.5**squarings
    out = np.zeros_like(S)
    out[..., 0] = np.eye(m)
    term = out.copy()
    for k in range(1, 18):
        term = jet_matmul(term, A, num_vars) * (1.0 / k)
        out = out + term
    for _ in range(squarings):
        out = jet_matmul(out, out, num_vars)
    return out


def ref_mul(a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """The truncated Cauchy product of two (M,) jets, pair by pair over
    exponent tuples, without a product table."""
    mono = monomials(num_vars, jet_index(num_vars, len(a)).order)
    position = {m: i for i, m in enumerate(mono)}
    out = np.zeros(len(a))
    for i, mi in enumerate(mono):
        for j, mj in enumerate(mono):
            k = position.get(tuple(x + y for x, y in zip(mi, mj)))  # None above the order
            if k is not None:
                out[k] += a[i] * b[j]
    return out


def ref_matmul(A: np.ndarray, B: np.ndarray, num_vars: int) -> np.ndarray:
    """Matrix product of (m, k, M) and (k, p, M) jet arrays by ``ref_mul``."""
    out = np.zeros((A.shape[0], B.shape[1], A.shape[-1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            for k in range(A.shape[1]):
                out[i, j] += ref_mul(A[i, k], B[k, j], num_vars)
    return out


def ref_series(x: np.ndarray, coeffs, num_vars: int) -> np.ndarray:
    """sum_k coeffs[k] (x - x0)^k of an (M,) jet x with value part x0, the
    powers by ``ref_mul``."""
    dx = x.copy()
    dx[0] = 0.0
    out, term = np.zeros(len(x)), np.zeros(len(x))
    term[0] = 1.0
    for c in coeffs:
        out += c * term
        term = ref_mul(term, dx, num_vars)
    return out


def power_coefficients(x0: float, p, order: int) -> list[float]:
    """Taylor coefficients C(p, k) x0^(p - k), k = 0..order, of y -> y^p at x0."""
    coeffs, binom = [], 1.0
    for k in range(order + 1):
        coeffs.append(binom * x0 ** (float(p) - k))
        binom *= (float(p) - k) / (k + 1)
    return coeffs


# -- the Blaschke data of one point by the frame solve ----------------------
#
# Arguments are one point's jet arrays from ``blaschke._chart_derivatives``
# and ``blaschke._determinant_form``: tangents x1[k, a], the full symmetric
# second derivatives hess[i, j, a] (both of order >= 1), the constant unit
# normal w, G' and log(det M / det M0) of order 2.  Results are order-1 jets.


def blaschke_metric(x1: np.ndarray, normal: np.ndarray, G: np.ndarray, log_m: np.ndarray, num_vars: int):
    """(eps, ell, g): eps = +-1 making eps G' positive definite, the log
    scale ell = (2 log|det M| - log det(eps G')) / (n+2) and the order-2
    metric jets g = exp(ell) eps G', the value parts from slogdet."""
    n = num_vars
    eps = 1.0 if np.linalg.eigvalsh(G[..., 0])[0] > 0 else -1.0
    log_gp = lu_series(eps * G, n)[0]
    log_gp[0] = np.linalg.slogdet(eps * G[..., 0])[1]
    log_m = log_m.copy()
    log_m[0] = np.linalg.slogdet(np.concatenate([x1[..., 0], normal[None]]))[1]
    ell = (2.0 * log_m - log_gp) / (n + 2)
    return eps, ell, jet_mul(exp(ell, n)[None, None], eps * G, n)


def laplacian_normal(x1: np.ndarray, hess: np.ndarray, g: np.ndarray, num_vars: int):
    """(xi, g_inv, hat-Gamma): the affine normal as the metric Laplacian
    xi = (1/n) g^{ij} (x_ij - hat-Gamma^k_ij x_k), the inverse metric and the
    Levi-Civita symbols [k, i, j] of the order-2 metric jets g."""
    n = num_vars
    m1 = jet_size(n, 1)
    eye = np.zeros((n, n, m1))
    eye[..., 0] = np.eye(n)
    _, g_inv = lu_series(g[..., :m1], n, eye, log_det=False)
    gamma_hat = christoffel_jets(g, g_inv)
    gamma_x = jet_matmul(gamma_hat.reshape(n, n * n, m1).swapaxes(0, 1), x1[..., :m1], n)  # [ij, a]
    lap = hess[..., :m1].reshape(n * n, n + 1, m1) - gamma_x
    xi = jet_matmul(g_inv.reshape(1, n * n, m1), lap, n)[0] * (1.0 / n)
    return xi, g_inv, gamma_hat


def closed_form_normal(x1: np.ndarray, normal: np.ndarray, eps: float, ell: np.ndarray, g_inv: np.ndarray,
                       num_vars: int) -> np.ndarray:
    """The affine normal from the change of transversal, xi = eps exp(-ell) w
    + Z^k x_k with Z^k = g^{kl} d_l ell, as (n+1, M1) jets."""
    n = num_vars
    m1 = jet_size(n, 1)
    Z = jet_matmul(g_inv, jet_gradient(ell, n)[:, None], n)[:, 0]
    return jet_matmul(Z[None], x1[..., :m1], n)[0] + eps * normal[:, None] * exp(-ell[:m1], n)


def frame_solve(x1: np.ndarray, hess: np.ndarray, xi: np.ndarray, num_vars: int):
    """(Gamma, h, B^k_i, tau): the affine Gauss formula x_ij = Gamma^k_ij x_k
    + h_ij xi and the Weingarten formula d_i xi = -B^k_i x_k + tau_i xi solved
    in the frame {x_1, ..., x_n, xi} of the (n+1, M1) normal jets xi, with
    Gamma [k, i, j] as order-1 jets and the values of h [i, j], B [k, i] and
    tau [i]."""
    n = num_vars
    m1 = jet_size(n, 1)
    frame = np.concatenate([x1[..., :m1], xi[None]]).swapaxes(0, 1)  # [a, column]
    rhs = np.zeros((n + 1, n * n + n, m1))
    rhs[:, : n * n] = hess[..., :m1].reshape(n * n, n + 1, m1).swapaxes(0, 1)
    rhs[:, n * n :, 0] = xi[:, 1 : n + 1]  # the degree-1 coefficients: [a, i] = d_i xi^a
    _, sol = lu_series(frame, n, rhs, log_det=False)
    coeff = sol[:, n * n :, 0]
    return sol[:n, : n * n].reshape(n, n, n, m1), sol[n, : n * n, 0].reshape(n, n), -coeff[:n], coeff[n]
