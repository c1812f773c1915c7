"""Reference jet linear algebra for the tests: a division-free determinant
to check ``jets.jet_lu`` against, the determinant rebuilt from
``jet_lu``'s log-determinant series, the size of the terms both sum, and
a term-by-term matrix exponential to check the ``sl_so`` chart against."""

import math

import numpy as np

from equiaffine.jets import exp, jet_lu, jet_matmul, jet_mul, jet_order


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
    order = jet_order(num_vars, size)
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
