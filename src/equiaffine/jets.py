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
(one gather of coefficient pairs and one segmented sum per call), every
contraction of tensor axes is one ``jet_matmul`` (a batched matrix
product over the same pairs), and the elementary functions compose their
Taylor series with every jet of an (..., M) array.  Every routine here
also accepts leading stack axes in front of the tensor axes (one jet
array per point of a point stack), and treats each stack entry exactly
as it would treat that entry alone.

Multi-indices are enumerated in graded lexicographic order, which makes
monomials of degree <= k a prefix of the enumeration; truncating a jet
to a lower order is then just a slice of its last axis.  Jets may have
any order, which their coefficient count fixes.  Adding e_v keeps the
lexicographic order, so it maps each degree block one-to-one and in order
onto the next block's monomials with a nonzero v-th exponent: the
enumeration and the position of every monomial plus e_v (its successors)
follow from that, and every other table from the successors.  One
``JetIndex`` per number of variables and order holds them; ``jet_index``,
the module's one cache, keeps ``INDEX_CACHE`` of them.

Degree bounds.  A product may be told an upper degree bound per operand:
bound d promises that every coefficient of degree > d is exactly zero
(a constant has bound 0, a linear function bound 1; None, or any
d >= order, promises nothing).  The product then forms only the
coefficient pairs with deg i <= da and deg j <= db, so its coefficients
above degree min(order, da + db) are exactly zero, and it equals the
full product up to the grouping of its sums.  ``jet_mul``, ``power`` and
the elementary functions take such bounds; a caller passes them only
where the structure of a chart guarantees them (a DSL expression tree),
never read off the data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

# the jet indices kept at once: orders 0..5 in up to 26 variables (dsl.MAX_DIM)
INDEX_CACHE = 6 * 26


class JetDomainError(ArithmeticError):
    """Raised when an elementary function is applied outside its domain."""


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


class JetIndex:
    """The monomials of jets in ``num_vars`` variables with ``size``
    coefficients, as (size, num_vars) exponent rows (``monomials``: degree
    blocks, each lexicographically descending), their ``successors``, and
    the read-only tables read off them on first use: ``products``,
    ``gradient``, ``hessian`` and ``embedding``.

    Adding e_v keeps the lexicographic order, so it maps the degree-d
    block one-to-one and in order onto the degree-(d+1) monomials whose
    v-th exponent is nonzero.  Block d+1 is therefore, for v = 0, 1, ...,
    the rows of block d with no nonzero exponent before v (a suffix) plus
    e_v; ``successors[v, b]``, the position of monomial b + e_v for every b
    of degree < order, is the v-th row of block d+1's nonzero pattern; and
    every monomial k > 0 is its parent ``_parent[k]`` plus e_v, v its first
    variable ``_first[k]`` (num_vars for the constant)."""

    def __init__(self, num_vars: int, size: int):
        n = num_vars
        blocks, first, parent = [np.zeros((1, n), np.int64)], [np.array([n])], [np.zeros(1, np.int64)]
        successors, count = [np.zeros((n, 0), np.int64)], 1
        while count < size:  # block d+1 from block d, up to the order that ``size`` fixes
            prev, lo = blocks[-1], count - len(blocks[-1])
            cut = np.searchsorted(first[-1], np.arange(n))  # prev[cut[v]:]: no nonzero exponent before v
            blocks.append(np.concatenate([prev[c:] + e for c, e in zip(cut, np.eye(n, dtype=np.int64))]))
            first.append(np.repeat(np.arange(n), len(prev) - cut))
            parent.append(np.concatenate([np.arange(lo + c, count) for c in cut]))
            successors.append(count + np.nonzero(blocks[-1].T)[1].reshape(n, len(prev)))
            count += len(blocks[-1])
        if count != size:
            raise ValueError(f"{size} coefficients match no jet order in {num_vars} variables")
        self.num_vars, self.size, self.order = num_vars, size, len(blocks) - 1
        self.monomials, self.successors = _read_only(np.concatenate(blocks), np.concatenate(successors, axis=1))
        self._first, self._parent = np.concatenate(first), np.concatenate(parent)
        self._products, self._embeddings = {}, {}

    def products(self, bounds=None):
        """Index triples (i, j, k) with monomial_i * monomial_j = monomial_k,
        sorted by k, and the start of each k's run (for ``np.add.reduceat``).
        With degree bounds (da, db), clamped to the order here, the full
        table's triples with deg i <= da and deg j <= db, in its order, whose
        runs cover the monomials of degree <= min(order, da + db)."""
        table = self._products.get(bounds)  # keyed by None and by clamped bounds
        if table is None:
            n, order = self.num_vars, self.order
            key = tuple(order if d is None else min(d, order) for d in bounds or (None, None))
            if key not in self._products:
                ii, jj, kk, _ = self._products[key] = self._full_products
                if key != (order, order):
                    keep = (ii < jet_size(n, key[0])) & (jj < jet_size(n, key[1]))
                    ii, jj, kk = ii[keep], jj[keep], kk[keep]
                    top = np.arange(jet_size(n, min(order, sum(key))))
                    self._products[key] = _read_only(ii, jj, kk, np.searchsorted(kk, top))
            table = self._products[None if bounds is None else key] = self._products[key]
        return table

    @cached_property
    def _full_products(self):
        """The full product table, built one degree of j at a time: for j =
        p + e_v (its parent and first variable), i + j = (i + p) + e_v, so
        pos(i + j) = successors[v, pos(i + p)], and the work is the number
        of triples."""
        n, order = self.num_vars, self.order
        sums = np.arange(self.size)[:, None]  # sums[i, j] = pos(i + j), j in block d, deg i <= order - d
        ii, jj, kk = [], [], []
        for d in range(order + 1):
            lo, hi = jet_size(n, d - 1), jet_size(n, d)
            if d:
                parent = self._parent[lo:hi] - jet_size(n, d - 2)
                sums = self.successors[self._first[lo:hi], sums[: jet_size(n, order - d), parent]]
            ii.append(np.repeat(np.arange(len(sums)), hi - lo))
            jj.append(np.tile(np.arange(lo, hi), len(sums)))
            kk.append(sums.ravel())
        ii, jj, kk = map(np.concatenate, (ii, jj, kk))
        perm = np.lexsort((jj, ii, kk))
        ii, jj, kk = ii[perm], jj[perm], kk[perm]
        return _read_only(ii, jj, kk, np.searchsorted(kk, np.arange(self.size)))

    @cached_property
    def gradient(self):
        """Source indices and factors of d/du_v on Taylor coefficients, for
        every variable v, as (num_vars, M') arrays.

        Maps the order-`order` coefficient array to an order-`order-1` one:
        coeff'[beta] = (beta_v + 1) * coeff[beta + e_v]."""
        mono_lo = self.monomials[: self.successors.shape[1]]
        return self.successors, _read_only((mono_lo.T + 1).astype(float))

    @cached_property
    def hessian(self):
        """Source indices and factors of d/du_i d/du_j on Taylor coefficients,
        for the distinct pairs i >= j in ``np.tril_indices`` order, as
        (num_vars (num_vars + 1) / 2, M'') arrays.

        Maps the order-`order` coefficient array to an order-`order-2` one:
        coeff''[beta] = (beta_i + 1)(beta_j + 1 + delta_ij) coeff[beta + e_i + e_j],
        the factors of ``gradient`` taken twice, in one product.  Up to
        order 5 at most one of the two is not a power of 2, so a coefficient
        is rounded once either way and equals the two chained gathers'
        bitwise (for normal floats)."""
        n = self.num_vars
        rows, cols = np.tril_indices(n)
        mono_lo = self.monomials[: jet_size(n, self.order - 2)]
        src = self.successors[rows[:, None], self.successors[cols, : len(mono_lo)]]
        fac = (mono_lo.T[rows] + 1) * (mono_lo.T[cols] + 1 + (rows == cols)[:, None])
        return _read_only(src, fac.astype(float))

    def embedding(self, num_vars: int, offset: int) -> np.ndarray:
        """Positions of these monomials among the monomials of the same order
        in ``num_vars`` variables, variable i becoming ``offset + i``: the
        parents walked through the target index's successors."""
        key = (num_vars, offset)
        if key not in self._embeddings:
            successors = jet_index(num_vars, jet_size(num_vars, self.order)).successors
            pos = np.zeros(self.size, dtype=np.int64)
            for d in range(1, self.order + 1):
                lo, hi = jet_size(self.num_vars, d - 1), jet_size(self.num_vars, d)
                pos[lo:hi] = successors[offset + self._first[lo:hi], pos[self._parent[lo:hi]]]
            self._embeddings[key] = _read_only(pos)
        return self._embeddings[key]


@lru_cache(maxsize=INDEX_CACHE)
def jet_index(num_vars: int, size: int) -> JetIndex:
    """The ``JetIndex`` of jets in ``num_vars`` variables with ``size`` coefficients."""
    return JetIndex(num_vars, size)


# -- jet arrays ------------------------------------------------------------


def jet_size(num_vars: int, order: int) -> int:
    """Number of Taylor coefficients of a jet, C(num_vars + order, num_vars);
    a jet array truncates to a lower order by slicing its last axis to this length."""
    return math.comb(num_vars + order, num_vars)


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


def jet_embed(a: np.ndarray, sub_vars: int, num_vars: int, offset: int) -> np.ndarray:
    """Re-read a jet array in ``sub_vars`` variables as one in ``num_vars``
    variables, variable i becoming variable ``offset + i``."""
    if offset < 0 or offset + sub_vars > num_vars:
        raise ValueError("embedded variables outside the target dimension")
    sub = jet_index(sub_vars, a.shape[-1])
    out = np.zeros(a.shape[:-1] + (jet_size(num_vars, sub.order),))
    out[..., sub.embedding(num_vars, offset)] = a
    return out


def jet_mul(a: np.ndarray, b: np.ndarray, num_vars: int, bounds=None) -> np.ndarray:
    """Entrywise jet product of two jet arrays of one order, broadcasting;
    ``bounds`` = (da, db) are the operands' degree bounds, if known."""
    ii, jj, _, starts = jet_index(num_vars, a.shape[-1]).products(bounds)
    prod = a[..., ii] * b[..., jj]
    if len(starts) == a.shape[-1]:
        return np.add.reduceat(prod, starts, axis=-1)
    out = np.zeros(prod.shape[:-1] + a.shape[-1:])  # above the bounded product's degree: exactly zero
    np.add.reduceat(prod, starts, axis=-1, out=out[..., : len(starts)])
    return out


def jet_matmul(a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """Matrix product of (..., m, k, M) and (..., k, p, M) jet arrays, the
    one kernel that contracts jet arrays: one batched ``np.matmul`` over the
    coefficient pairs, with the matrix axes taken in place (``axes=``), and
    one segmented sum.  Other contractions are this one on reshaped or
    transposed views of their operands."""
    ii, jj, _, starts = jet_index(num_vars, a.shape[-1]).products()
    prod = np.matmul(a[..., ii], b[..., jj], axes=[(-3, -2)] * 3)
    return np.add.reduceat(prod, starts, axis=-1)


def jet_gradient(a: np.ndarray, num_vars: int) -> np.ndarray:
    """All first partials of a jet array, one order lower:
    shape (..., M) -> (..., num_vars, M'), entry [..., v, :] = d/du_v."""
    index = jet_index(num_vars, a.shape[-1])
    if index.order < 1:
        raise ValueError("cannot differentiate order-0 jets")
    src, fac = index.gradient
    return a[..., src] * fac


def jet_hessian(a: np.ndarray, num_vars: int) -> np.ndarray:
    """The second partials of a jet array over the distinct pairs i >= j,
    two orders lower, from one gather: shape (..., M) -> (..., num_vars
    (num_vars + 1) / 2, M''), entry [..., p, :] = d/du_i d/du_j for the
    p-th pair (i, j) of ``np.tril_indices(num_vars)``, equal to
    ``jet_gradient`` taken twice."""
    index = jet_index(num_vars, a.shape[-1])
    if index.order < 2:
        raise ValueError("second partials need jets of order >= 2")
    src, fac = index.hessian
    return a[..., src] * fac


# -- elementary functions ----------------------------------------------
#
# Each takes an (..., M) jet array, the number of variables and optionally
# the array's degree bound, and composes the function's Taylor series at
# each jet's value part with the rest.  The series coefficients are Python
# floats computed per jet, in array order, so a domain error names the
# first offending value part, and so does a value part whose coefficients
# leave float range.


def _compose(x: np.ndarray, num_vars: int, series, name: str, bound=None) -> np.ndarray:
    """sum_k c_k (x - x0)^k for every jet of ``x``, with [c_0..c_order] =
    ``series(x0, order)`` at the jet's value part x0, truncated at its order
    (Horner; the partial sum after t steps has degree bound t * bound).
    ``name`` names the function in errors."""
    order = jet_index(num_vars, x.shape[-1]).order
    bound = order if bound is None else bound
    values = x[..., 0]
    terms = np.array([_coefficients(series, name, v, order) for v in values.ravel().tolist()]).T  # [degree, jet]
    terms = terms.reshape((order + 1,) + values.shape)
    dx = x.copy()
    dx[..., 0] = 0.0
    out = np.zeros(x.shape)
    out[..., 0] = terms[order]
    for k in range(order - 1, -1, -1):
        # the first step's ``out`` is a constant, so its product with dx is a
        # scaling: the one term per coefficient that a bound-0 product sums
        out = out[..., :1] * dx if k == order - 1 else jet_mul(out, dx, num_vars, ((order - 1 - k) * bound, bound))
        constant = out[..., 0]
        constant += terms[k]
    return out


def _coefficients(series, name: str, value: float, order: int) -> list:
    """``series(value, order)``, or ``JetDomainError`` naming the function and
    the value part when a coefficient overflows (float ``**`` raises, ``*``
    and ``/`` give inf)."""
    try:
        terms = series(value, order)
    except OverflowError:
        terms = [math.inf]
    if not all(map(math.isfinite, terms)):
        raise JetDomainError(f"{name} of value part {value}: Taylor coefficients out of float range")
    return terms


def _exp_series(value, order):
    ev = math.exp(value)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _log_series(value, order):
    if value <= 0.0:
        raise JetDomainError(f"log of non-positive value part {value}")
    r = 1.0 / value  # powers of 1/value, not 1/value**k, which overflows at a large value part
    return [math.log(value)] + [(-1.0) ** (k + 1) / k * r**k for k in range(1, order + 1)]


def _recip_series(value, order):
    if value == 0.0:
        raise JetDomainError("reciprocal of a jet with zero value part")
    r = 1.0 / value
    return [(-1.0) ** k * r ** (k + 1) for k in range(order + 1)]


def _sin_series(value, order):
    s, c = math.sin(value), math.cos(value)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_series(value, order):
    s, c = math.sin(value), math.cos(value)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def exp(x: np.ndarray, num_vars: int, bound=None) -> np.ndarray:
    return _compose(x, num_vars, _exp_series, "exp", bound)


def log(x: np.ndarray, num_vars: int, bound=None) -> np.ndarray:
    return _compose(x, num_vars, _log_series, "log", bound)


def recip(x: np.ndarray, num_vars: int, bound=None) -> np.ndarray:
    return _compose(x, num_vars, _recip_series, "reciprocal", bound)


def power(x: np.ndarray, p, num_vars: int, bound=None) -> np.ndarray:
    """x**p for a rational (or float) constant exponent p, with the degree
    bound of ``x``, if known.

    A non-negative integer exponent k takes floor(log2 k) + popcount(k) - 1
    jet products (repeated squaring) and is valid at every value part; a
    negative integer exponent is the reciprocal of the positive power, valid
    at every nonzero value part.  Every other exponent requires a positive
    value part.
    """
    pf = float(p)
    bound = jet_index(num_vars, x.shape[-1]).order if bound is None else bound
    if isinstance(p, (int, Fraction)) and pf == int(pf):
        if pf < 0:
            return recip(power(x, -int(pf), num_vars, bound), num_vars, -int(pf) * bound)
        k, base, result = int(pf), x, None
        step, done = 1, 0  # base = x^step, result = x^done
        while k:  # step = 2^i at bit i, a factor of the result where the bit is set
            if k & 1:
                result = base if result is None else jet_mul(result, base, num_vars, (done * bound, step * bound))
                done += step
            k >>= 1
            if k:
                base = jet_mul(base, base, num_vars, (step * bound, step * bound))
                step *= 2
        if result is None:  # x^0
            result = np.zeros(x.shape)
            result[..., 0] = 1.0
        return result

    def series(value, order):
        if value <= 0.0:
            raise JetDomainError(f"power {p} of non-positive value part {value}")
        terms, coeff = [], 1.0
        for k in range(order + 1):
            terms.append(coeff * value ** (pf - k))
            coeff *= (pf - k) / (k + 1)
        return terms

    return _compose(x, num_vars, series, f"power {p}", bound)


def sqrt(x: np.ndarray, num_vars: int, bound=None) -> np.ndarray:
    return power(x, Fraction(1, 2), num_vars, bound)


def sin(x: np.ndarray, num_vars: int, bound=None) -> np.ndarray:
    return _compose(x, num_vars, _sin_series, "sin", bound)


def cos(x: np.ndarray, num_vars: int, bound=None) -> np.ndarray:
    return _compose(x, num_vars, _cos_series, "cos", bound)


# the functions of one jet argument that the chart language names
ELEMENTARY = {"exp": exp, "log": log, "sqrt": sqrt, "sin": sin, "cos": cos}


# -- linear algebra over jets ------------------------------------------


def jet_lu(A: np.ndarray, inv0: np.ndarray, num_vars: int, B: np.ndarray | None = None, log_det: bool = True):
    """Log-determinant series of a square jet matrix and, when ``B`` is
    given, the jets of A^{-1} B, from the inverse of A's value part.

    ``A`` is an (..., n, n, M) jet array, ``inv0`` the (..., n, n) inverse
    of its value part A0, which the caller supplies from a factorization it
    already holds, and ``B`` a constant (..., n, k) right-hand side; returns
    ``(L, X)`` with L = log(det A / det A0) of shape (..., M), a jet with
    value part 0, or None when ``log_det`` is false (a caller that only
    solves skips its series), and X of shape (..., n, k, M), or None.
    Write A = A0 + N with N nilpotent (every entry has zero value part, so
    N^(order+1) = 0 under truncation), and Y = A0^{-1} N.  Then, exactly at
    the jet order,

        A^{-1} B = sum_{k <= order} (-Y)^k A0^{-1} B,
        L = tr log(I + Y) = sum_{k=1}^{order} (-1)^(k+1) tr(Y^k) / k.

    No LAPACK call: Y is one matrix product with ``inv0``.  The solution is
    a Horner sum whose first step, Y times the constant A0^{-1} B, is one
    value product per coefficient, so an order-1 inverse takes no
    ``jet_matmul``.  tr(Y^k) is the entrywise jet product of Y^ceil(k/2)
    with the transpose of Y^floor(k/2), summed (one ``jet_matmul`` of the
    two flattened), so the series forms matrix powers up to ceil(order/2)
    only, and none at order 2.  The caller adds the value part log|det A0|
    from its factorization, so the determinant itself, which leaves float
    range long before its logarithm does, is never formed: det A = det A0 *
    exp(L).

    The series is accurate relative to the size of its own terms,
    sum_k tr(|Y|^k) / k, not relative to the size of the determinant's
    terms: for an ill-conditioned value part A0 the terms cancel, and the
    high-order coefficients lose relative accuracy.
    """
    n, size = A.shape[-2], A.shape[-1]
    stack = A.shape[:-3]
    order = jet_index(num_vars, size).order
    Y = np.matmul(inv0, A.reshape(stack + (n, -1))).reshape(A.shape)
    Y[..., 0] = 0.0  # A0^{-1} N: N is A without its value part

    L = None
    if log_det:
        powers = [None, Y]  # powers[j] = Y^j
        for _ in range(2, (order + 1) // 2 + 1):
            powers.append(jet_matmul(powers[-1], Y, num_vars))
        L = np.trace(Y, axis1=-3, axis2=-2)
        for k in range(2, order + 1):  # tr(Y^a Y^b) = vec(Y^a) . vec((Y^b)^T)
            row = powers[(k + 1) // 2].reshape(stack + (1, n * n, size))
            column = powers[k // 2].swapaxes(-3, -2).reshape(stack + (n * n, 1, size))
            L += (-1) ** (k + 1) / k * jet_matmul(row, column, num_vars)[..., 0, 0, :]
    if B is None:
        return L, None

    Z = np.matmul(inv0, B)
    X = np.zeros(Z.shape + (size,))
    X[..., 0] = Z
    X[..., 1:] = -np.matmul(Y[..., 1:], Z[..., None], axes=[(-3, -2)] * 3)  # Y times a constant: per coefficient
    for _ in range(order - 1):
        X = -jet_matmul(Y, X, num_vars)
        X[..., 0] = Z  # Y X has value part 0
    return L, X
