"""Truncated multivariate Taylor-jet arithmetic on coefficient arrays.

A jet stores the Taylor expansion of a scalar function around a point,
truncated at a fixed total degree.  The coefficient attached to a
multi-index ``alpha`` is the Taylor-normalized derivative
``d^alpha f / alpha!``, so the zero multi-index carries the plain value
and degree-1 coefficients carry the gradient.  Arithmetic is exact
truncation: products are Cauchy products with all terms of total degree
above ``order`` dropped.

There is one representation: a jet array, a float ndarray whose last axis
holds the coefficients of one jet per entry; the other axes are tensor
indices, and a single jet is an (M,) vector.  Sums and scalar multiples
are plain array arithmetic; products are batched over the whole array
(one gather of coefficient pairs and one segmented sum per call), and the
elementary functions compose their Taylor series with every jet of an
(..., M) array.  Every routine here also accepts leading stack axes in
front of the tensor axes (one jet array per point of a point stack), and
treats each stack entry exactly as it would treat that entry alone.

Multi-indices are enumerated in graded lexicographic order, which makes
monomials of degree <= k a prefix of the enumeration; truncating a jet
to a lower order is then just a slice of its last axis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_ORDER = 4


class JetDomainError(ArithmeticError):
    """Raised when an elementary function is applied outside its domain."""


@lru_cache(maxsize=None)
def monomials(num_vars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= order, graded-lex sorted."""
    result = []
    for deg in range(order + 1):
        level = []

        def build(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for k in range(remaining, -1, -1):
                build(prefix + (k,), remaining - k, slots - 1)

        build((), deg, num_vars)
        result.extend(level)
    return tuple(result)


def _rank(exps: np.ndarray, num_vars: int) -> np.ndarray:
    """Position in ``monomials`` of each exponent row of ``exps``.

    Within a degree block the enumeration is lexicographically descending,
    so the monomials before ``e`` in its block are those whose first
    differing exponent t is larger; with r the degree left after e_0..e_{t-1}
    they number C(r - e_t + m, m + 1), m = num_vars - t - 2 (hockey stick).
    """
    r = exps.sum(axis=-1)
    rank = _comb(r + num_vars - 1, num_vars)  # monomials of lower degree
    for t in range(num_vars - 1):
        m = num_vars - t - 2
        rank = rank + _comb(r - exps[..., t] + m, m + 1)
        r = r - exps[..., t]
    return rank


def _comb(top: np.ndarray, k: int) -> np.ndarray:
    """Elementwise C(top, k) for small non-negative integer ``top``."""
    table = np.array([math.comb(t, k) for t in range(int(top.max(initial=0)) + 1)])
    return table[top]


@lru_cache(maxsize=None)
def _product_table(num_vars: int, order: int):
    """Index triples (i, j, k) with monomial_i * monomial_j = monomial_k,
    sorted by k, and the start of each k's run (for ``np.add.reduceat``).

    Built block by block over pairs of degrees da + db <= order, so the
    work is the number of triples, not the square of the monomial count.
    """
    mono = np.array(monomials(num_vars, order), dtype=np.int64).reshape(-1, num_vars)
    # degree d occupies [C(d-1+n, n), C(d+n, n)) in the graded enumeration
    block = [
        np.arange(math.comb(d - 1 + num_vars, num_vars), math.comb(d + num_vars, num_vars))
        for d in range(order + 1)
    ]
    pairs = [
        np.meshgrid(block[da], block[db], indexing="ij")
        for da in range(order + 1)
        for db in range(order + 1 - da)
    ]
    ii = np.concatenate([i.ravel() for i, _ in pairs])
    jj = np.concatenate([j.ravel() for _, j in pairs])
    kk = _rank(mono[ii] + mono[jj], num_vars)
    perm = np.lexsort((jj, ii, kk))
    ii, jj, kk = ii[perm], jj[perm], kk[perm]
    return ii, jj, kk, np.searchsorted(kk, np.arange(len(mono)))


@lru_cache(maxsize=None)
def _gradient_table(num_vars: int, order: int):
    """Source indices and factors of d/du_v on Taylor coefficients, for
    every variable v, as (num_vars, M') arrays.

    Maps the order-`order` coefficient array to an order-`order-1` one:
    coeff'[beta] = (beta_v + 1) * coeff[beta + e_v].
    """
    mono_lo = np.array(monomials(num_vars, order - 1), dtype=np.int64).reshape(-1, num_vars)
    src = _rank(mono_lo[None, :, :] + np.eye(num_vars, dtype=np.int64)[:, None, :], num_vars)
    return src, (mono_lo.T + 1).astype(float)


# -- jet arrays ------------------------------------------------------------


def jet_size(num_vars: int, order: int) -> int:
    """Number of Taylor coefficients of a jet; a jet array truncates to a
    lower order by slicing its last axis to this length."""
    return len(monomials(num_vars, order))


@lru_cache(maxsize=None)
def jet_order(num_vars: int, size: int) -> int:
    """Truncation order of jets in ``num_vars`` variables with ``size`` coefficients."""
    for order in range(MAX_ORDER + 1):
        if len(monomials(num_vars, order)) == size:
            return order
    raise ValueError(f"{size} coefficients match no jet order in {num_vars} variables")


def jet_variables(point, order: int) -> np.ndarray:
    """The coordinate functions u_1..u_n expanded around ``point``, as an
    (n, M) jet array: value parts ``point``, and a unit degree-1 block,
    since the degree-1 monomials come in variable order.  A (..., n) point
    stack gives an (..., n, M) array."""
    point = np.asarray(point, float)
    n = point.shape[-1]
    out = np.zeros(point.shape + (jet_size(n, order),))
    out[..., 0] = point
    if order >= 1:
        out[..., 1 : n + 1] = np.eye(n)
    return out


@lru_cache(maxsize=None)
def _embed_index(sub_vars: int, num_vars: int, offset: int, order: int) -> np.ndarray:
    mono = np.array(monomials(sub_vars, order), dtype=np.int64).reshape(-1, sub_vars)
    big = np.zeros((len(mono), num_vars), dtype=np.int64)
    big[:, offset : offset + sub_vars] = mono
    return _rank(big, num_vars)


def jet_embed(a: np.ndarray, sub_vars: int, num_vars: int, offset: int) -> np.ndarray:
    """Re-read a jet array in ``sub_vars`` variables as one in ``num_vars``
    variables, variable i becoming variable ``offset + i``."""
    if offset + sub_vars > num_vars:
        raise ValueError("embedded variables exceed target dimension")
    order = jet_order(sub_vars, a.shape[-1])
    out = np.zeros(a.shape[:-1] + (jet_size(num_vars, order),))
    out[..., _embed_index(sub_vars, num_vars, offset, order)] = a
    return out


def jet_mul(a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """Entrywise jet product of two jet arrays of one order, broadcasting."""
    ii, jj, _, starts = _product_table(num_vars, jet_order(num_vars, a.shape[-1]))
    return np.add.reduceat(a[..., ii] * b[..., jj], starts, axis=-1)


def jet_einsum(subscripts: str, a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """Bilinear contraction of two jet arrays: ``np.einsum`` over the tensor
    axes (explicit ``->`` form, no ellipsis; leading stack axes broadcast),
    the jet product on the coefficient axis, e.g.
    ``jet_einsum("ik,kj->ij", A, B, n)``."""
    ins, out = subscripts.split("->")
    sa, sb = ins.split(",")
    ii, jj, _, starts = _product_table(num_vars, jet_order(num_vars, a.shape[-1]))
    prod = np.einsum(f"...{sa}Z,...{sb}Z->...{out}Z", a[..., ii], b[..., jj])
    return np.add.reduceat(prod, starts, axis=-1)


def jet_matmul(a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """Matrix product of (..., m, k, M) and (..., k, p, M) jet arrays.

    Same result as ``jet_einsum("ik,kj->ij", ...)``, but as one batched
    ``np.matmul`` over the coefficient pairs, with the matrix axes taken
    in place (``axes=``), which is several times faster than
    ``np.einsum`` on this pattern."""
    ii, jj, _, starts = _product_table(num_vars, jet_order(num_vars, a.shape[-1]))
    prod = np.matmul(a[..., ii], b[..., jj], axes=[(-3, -2)] * 3)
    return np.add.reduceat(prod, starts, axis=-1)


def jet_gradient(a: np.ndarray, num_vars: int) -> np.ndarray:
    """All first partials of a jet array, one order lower:
    shape (..., M) -> (..., num_vars, M'), entry [..., v, :] = d/du_v."""
    order = jet_order(num_vars, a.shape[-1])
    if order < 1:
        raise ValueError("cannot differentiate order-0 jets")
    src, fac = _gradient_table(num_vars, order)
    return a[..., src] * fac


# -- elementary functions ----------------------------------------------
#
# Each takes an (..., M) jet array and the number of variables, and composes
# the function's Taylor series at each jet's value part with the rest.  The
# series coefficients are Python floats computed per jet, in array order, so
# a domain error names the first offending value part.


def _compose(x: np.ndarray, num_vars: int, series) -> np.ndarray:
    """sum_k c_k (x - x0)^k for every jet of ``x``, with [c_0..c_order] =
    ``series(x0, order)`` at the jet's value part x0, truncated at its order
    (Horner)."""
    order = jet_order(num_vars, x.shape[-1])
    values = x[..., 0]
    terms = np.array([series(v, order) for v in values.ravel().tolist()]).T  # [degree, jet]
    terms = terms.reshape((order + 1,) + values.shape)
    dx = x.copy()
    dx[..., 0] = 0.0
    out = np.zeros(x.shape)
    out[..., 0] = terms[order]
    for k in range(order - 1, -1, -1):
        out = jet_mul(out, dx, num_vars)
        constant = out[..., 0]
        constant += terms[k]
    return out


def _exp_series(value, order):
    ev = math.exp(value)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _log_series(value, order):
    if value <= 0.0:
        raise JetDomainError(f"log of non-positive value part {value}")
    return [math.log(value)] + [(-1.0) ** (k + 1) / (k * value**k) for k in range(1, order + 1)]


def _recip_series(value, order):
    if value == 0.0:
        raise JetDomainError("reciprocal of a jet with zero value part")
    return [(-1.0) ** k / value ** (k + 1) for k in range(order + 1)]


def _sin_series(value, order):
    s, c = math.sin(value), math.cos(value)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_series(value, order):
    s, c = math.sin(value), math.cos(value)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def exp(x: np.ndarray, num_vars: int) -> np.ndarray:
    return _compose(x, num_vars, _exp_series)


def log(x: np.ndarray, num_vars: int) -> np.ndarray:
    return _compose(x, num_vars, _log_series)


def recip(x: np.ndarray, num_vars: int) -> np.ndarray:
    return _compose(x, num_vars, _recip_series)


def power(x: np.ndarray, p, num_vars: int) -> np.ndarray:
    """x**p for a rational (or float) constant exponent p.

    Non-negative integer exponents are evaluated by repeated squaring and
    stay valid at zero value parts; everything else requires a positive
    value part.
    """
    pf = float(p)
    if isinstance(p, (int, Fraction)) and pf == int(pf) and pf >= 0:
        k = int(pf)
        result = np.zeros(x.shape)
        result[..., 0] = 1.0
        base = x
        while k:
            if k & 1:
                result = jet_mul(result, base, num_vars)
            base = jet_mul(base, base, num_vars)
            k >>= 1
        return result

    def series(value, order):
        if value <= 0.0:
            raise JetDomainError(f"power {p} of non-positive value part {value}")
        terms, coeff = [], 1.0
        for k in range(order + 1):
            terms.append(coeff * value ** (pf - k))
            coeff *= (pf - k) / (k + 1)
        return terms

    return _compose(x, num_vars, series)


def sqrt(x: np.ndarray, num_vars: int) -> np.ndarray:
    return power(x, Fraction(1, 2), num_vars)


def sin(x: np.ndarray, num_vars: int) -> np.ndarray:
    return _compose(x, num_vars, _sin_series)


def cos(x: np.ndarray, num_vars: int) -> np.ndarray:
    return _compose(x, num_vars, _cos_series)


# the functions of one jet argument that the chart language names
ELEMENTARY = {"exp": exp, "log": log, "sqrt": sqrt, "sin": sin, "cos": cos}


# -- linear algebra over jets ------------------------------------------


def jet_lu(A: np.ndarray, num_vars: int, B: np.ndarray | None = None, det: bool = True):
    """Determinant of a square jet matrix and, when ``B`` is given, the
    solution X of A X = B.

    ``A`` is an (..., n, n, M) jet array and ``B`` an (..., n, k, M) one;
    returns ``(det, X)`` with det of shape (..., M), or None when ``det`` is
    false (a caller that only solves skips the determinant's series), and X
    of shape (..., n, k, M), or None.
    Write A = A0 + N with A0 the value part and N nilpotent (every entry
    has zero value part, so N^(order+1) = 0 under truncation), and
    Y = A0^{-1} N.  Then, exactly at the jet order,

        A^{-1} B = sum_{k <= order} (-Y)^k A0^{-1} B,
        det A = det A0 * exp(sum_{k=1}^{order} (-1)^(k+1) tr(Y^k) / k).

    One ``np.linalg.solve`` on the value parts (LAPACK pivots) gives Y and
    A0^{-1} B; the sum is ``order`` Horner steps.  A singular value part
    (in any stack entry) raises ``np.linalg.LinAlgError``.

    The determinant is accurate relative to the size of its own series,
    |det A0| exp(sum_k tr(|Y|^k) / k), not relative to the size of the
    determinant's terms: for an ill-conditioned value part A0 the series
    terms cancel, and the high-order coefficients lose relative accuracy.
    """
    n, size = A.shape[-2], A.shape[-1]
    stack = A.shape[:-3]
    order = jet_order(num_vars, size)
    split = n * (size - 1)  # columns of N in the one right-hand side [N | B]
    rhs = A[..., 1:].reshape(stack + (n, split))
    if B is not None:
        rhs = np.concatenate([rhs, B.reshape(stack + (n, -1))], axis=-1)
    sol = np.linalg.solve(A[..., 0], rhs)
    Y = np.zeros(A.shape)
    Y[..., 1:] = sol[..., :split].reshape(stack + (n, n, size - 1))

    if det:
        log_det = np.zeros(stack + (size,))  # tr log(I + Y)
        power = Y
        for k in range(1, order + 1):
            log_det += (-1) ** (k + 1) / k * np.trace(power, axis1=-3, axis2=-2)
            if k < order:
                power = jet_matmul(power, Y, num_vars)
        det = np.linalg.det(A[..., 0])[..., None] * exp(log_det, num_vars)
    else:
        det = None
    if B is None:
        return det, None

    Z = sol[..., split:].reshape(B.shape)
    X = Z
    for _ in range(order):
        X = Z - jet_matmul(Y, X, num_vars)
    return det, X
