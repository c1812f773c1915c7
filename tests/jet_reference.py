"""Reference jet linear algebra for the tests: a division-free determinant
to check ``jets.jet_lu`` against, the determinant rebuilt from
``jet_lu``'s log-determinant series, the size of the terms both sum, and
a term-by-term matrix exponential to check the ``sl_so`` chart against,
and the enumeration of a jet index as exponent tuples."""

import math

import numpy as np

from equiaffine.jets import exp, jet_index, jet_lu, jet_matmul, jet_mul, jet_size


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


def lu_det(A: np.ndarray, num_vars: int, log_det: np.ndarray | None = None) -> np.ndarray:
    """det A = det A0 * exp(L) of a jet matrix A with value part A0, from
    the series L = ``jet_lu(A, num_vars)[0]``, or ``log_det`` if given."""
    if log_det is None:
        log_det = jet_lu(A, num_vars)[0]
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
