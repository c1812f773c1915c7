"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor expansion of a scalar function around a point,
truncated at a fixed total degree.  The coefficient attached to a
multi-index ``alpha`` is the Taylor-normalized derivative
``d^alpha f / alpha!``, so the zero multi-index carries the plain value
and degree-1 coefficients carry the gradient.  Arithmetic is exact
truncation: products are Cauchy products with all terms of total degree
above ``order`` dropped.

Multi-indices are enumerated in graded lexicographic order, which makes
monomials of degree <= k a prefix of the enumeration; truncating a jet
to a lower order is then just an array slice.
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


@lru_cache(maxsize=None)
def _index_map(num_vars: int, order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(num_vars, order))}


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


class Jet:
    """Truncated Taylor expansion of a scalar function of ``num_vars`` variables."""

    __slots__ = ("num_vars", "order", "coeffs")

    def __init__(self, num_vars: int, order: int, coeffs: np.ndarray):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.num_vars = num_vars
        self.order = order
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (len(monomials(num_vars, order)),):
            raise ValueError("coefficient vector has the wrong length")

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, value: float, num_vars: int, order: int) -> "Jet":
        c = np.zeros(len(monomials(num_vars, order)))
        c[0] = value
        return cls(num_vars, order, c)

    @classmethod
    def variable(cls, var: int, value: float, num_vars: int, order: int) -> "Jet":
        """The coordinate function u_var expanded around ``value``."""
        if not 0 <= var < num_vars:
            raise ValueError("variable index out of range")
        c = np.zeros(len(monomials(num_vars, order)))
        c[0] = value
        if order >= 1:
            c[1 + var] = 1.0  # degree-1 monomials come in variable order
        return cls(num_vars, order, c)

    # -- accessors ---------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def gradient(self) -> np.ndarray:
        """Degree-1 coefficients as a vector (the plain gradient)."""
        if self.order < 1:
            return np.zeros(self.num_vars)
        return self.coeffs[1 : self.num_vars + 1].copy()

    def coefficient(self, alpha: tuple[int, ...]) -> float:
        return float(self.coeffs[_index_map(self.num_vars, self.order)[alpha]])

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet to a higher order")
        if order == self.order:
            return self
        return Jet(self.num_vars, order, self.coeffs[: len(monomials(self.num_vars, order))].copy())

    def partial(self, var: int) -> "Jet":
        """Partial derivative; the result is one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _gradient_table(self.num_vars, self.order)
        return Jet(self.num_vars, self.order - 1, self.coeffs[src[var]] * fac[var])

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.num_vars != self.num_vars:
                raise ValueError("jets live in different variable spaces")
            if other.order != self.order:
                o = min(self.order, other.order)
                return self.truncate(o), other.truncate(o)
            return self, other
        return self, Jet.constant(float(other), self.num_vars, self.order)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Jet(a.num_vars, a.order, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce(other)
        return Jet(a.num_vars, a.order, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        a, b = self._coerce(other)
        return Jet(a.num_vars, a.order, b.coeffs - a.coeffs)

    def __neg__(self):
        return Jet(self.num_vars, self.order, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.num_vars, self.order, self.coeffs * float(other))
        a, b = self._coerce(other)
        return Jet(a.num_vars, a.order, jet_mul(a.coeffs, b.coeffs, a.num_vars))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.num_vars, self.order, self.coeffs / float(other))
        return self * recip(other)

    def __rtruediv__(self, other):
        return recip(self) * float(other)

    def __repr__(self):
        return f"Jet(n={self.num_vars}, order={self.order}, value={self.value:.6g})"


# -- composition with univariate series -------------------------------


def _compose_series(series: list[float], x: Jet) -> Jet:
    """Evaluate sum_k series[k] * (x - x.value)^k, truncated at x.order."""
    return Jet(x.num_vars, x.order, _series_coeffs(series, x.coeffs, x.num_vars))


def _series_coeffs(series: list[float], coeffs: np.ndarray, num_vars: int) -> np.ndarray:
    """``_compose_series`` on one jet's coefficient vector (Horner)."""
    dx = coeffs.copy()
    dx[0] = 0.0
    out = np.zeros_like(dx)
    out[0] = series[-1]
    for c in reversed(series[:-1]):
        out = jet_mul(out, dx, num_vars)
        out[0] += c
    return out


def _recip_series(value: float, order: int) -> list[float]:
    return [(-1.0) ** k / value ** (k + 1) for k in range(order + 1)]


def exp(x: Jet) -> Jet:
    ev = math.exp(x.value)
    series = [ev / math.factorial(k) for k in range(x.order + 1)]
    return _compose_series(series, x)


def log(x: Jet) -> Jet:
    if x.value <= 0.0:
        raise JetDomainError(f"log of non-positive value part {x.value}")
    series = [math.log(x.value)]
    for k in range(1, x.order + 1):
        series.append((-1.0) ** (k + 1) / (k * x.value**k))
    return _compose_series(series, x)


def recip(x: Jet) -> Jet:
    if x.value == 0.0:
        raise JetDomainError("reciprocal of a jet with zero value part")
    return _compose_series(_recip_series(x.value, x.order), x)


def power(x: Jet, p) -> Jet:
    """x**p for a rational (or float) constant exponent p.

    Non-negative integer exponents are evaluated by repeated squaring and
    stay valid at zero value parts; everything else requires a positive
    value part.
    """
    pf = float(p)
    if isinstance(p, (int, Fraction)) and pf == int(pf) and pf >= 0:
        k = int(pf)
        result = Jet.constant(1.0, x.num_vars, x.order)
        base = x
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result
    if x.value <= 0.0:
        raise JetDomainError(f"power {p} of non-positive value part {x.value}")
    series = []
    coeff = 1.0
    for k in range(x.order + 1):
        series.append(coeff * x.value ** (pf - k))
        coeff *= (pf - k) / (k + 1)
    return _compose_series(series, x)


def sqrt(x: Jet) -> Jet:
    return power(x, Fraction(1, 2))


def sin(x: Jet) -> Jet:
    s, c = math.sin(x.value), math.cos(x.value)
    cycle = [s, c, -s, -c]
    series = [cycle[k % 4] / math.factorial(k) for k in range(x.order + 1)]
    return _compose_series(series, x)


def cos(x: Jet) -> Jet:
    s, c = math.sin(x.value), math.cos(x.value)
    cycle = [c, -s, -c, s]
    series = [cycle[k % 4] / math.factorial(k) for k in range(x.order + 1)]
    return _compose_series(series, x)


def neg(x: Jet) -> Jet:
    return -x


_ELEMENTARY = {
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "sin": sin,
    "cos": cos,
    "neg": neg,
    "recip": recip,
}


def jet_eval(func: str, x: Jet, exponent=None) -> Jet:
    """Apply an elementary function to a jet.

    ``func`` is one of exp, log, sqrt, sin, cos, neg, recip, pow; for
    ``pow`` the rational ``exponent`` must be supplied.
    """
    if func == "pow":
        if exponent is None:
            raise ValueError("pow requires an exponent")
        return power(x, exponent)
    try:
        return _ELEMENTARY[func](x)
    except KeyError:
        raise ValueError(f"unknown elementary function {func!r}") from None


# -- jet arrays ------------------------------------------------------------
#
# A jet array is a float ndarray whose last axis holds the Taylor
# coefficients of one jet per entry, in ``monomials`` order; the other axes
# are tensor indices.  Products are batched over the whole array: one
# gather of coefficient pairs and one segmented sum per call.


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
    since the degree-1 monomials come in variable order."""
    point = np.asarray(point, float)
    n = len(point)
    out = np.zeros((n, jet_size(n, order)))
    out[:, 0] = point
    if order >= 1:
        out[:, 1 : n + 1] = np.eye(n)
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
    axes (explicit ``->`` form, no ellipsis), the jet product on the
    coefficient axis, e.g. ``jet_einsum("ik,kj->ij", A, B, n)``."""
    ins, out = subscripts.split("->")
    sa, sb = ins.split(",")
    ii, jj, _, starts = _product_table(num_vars, jet_order(num_vars, a.shape[-1]))
    prod = np.einsum(f"{sa}Z,{sb}Z->{out}Z", a[..., ii], b[..., jj])
    return np.add.reduceat(prod, starts, axis=-1)


def jet_matmul(a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """Matrix product of (..., m, k, M) and (..., k, p, M) jet arrays.

    Same result as ``jet_einsum("ik,kj->ij", ...)``, but as one batched
    ``np.matmul`` per coefficient pair, which is several times faster than
    ``np.einsum`` on this pattern."""
    ii, jj, _, starts = _product_table(num_vars, jet_order(num_vars, a.shape[-1]))
    prod = np.moveaxis(a[..., ii], -1, 0) @ np.moveaxis(b[..., jj], -1, 0)
    return np.add.reduceat(np.moveaxis(prod, 0, -1), starts, axis=-1)


def jet_gradient(a: np.ndarray, num_vars: int) -> np.ndarray:
    """All first partials of a jet array, one order lower:
    shape (..., M) -> (..., num_vars, M'), entry [..., v, :] = d/du_v."""
    order = jet_order(num_vars, a.shape[-1])
    if order < 1:
        raise ValueError("cannot differentiate order-0 jets")
    src, fac = _gradient_table(num_vars, order)
    return a[..., src] * fac


# -- linear algebra over jets ------------------------------------------


def jet_lu(A: np.ndarray, num_vars: int, B: np.ndarray | None = None):
    """Determinant of a square jet matrix and, when ``B`` is given, the
    solution X of A X = B.

    ``A`` is an (n, n, M) jet array and ``B`` an (n, k, M) one; returns
    ``(det, X)`` with det of shape (M,) and X of shape (n, k, M), or None.
    Gauss-Jordan elimination with partial pivoting on value parts: each
    column costs one pivot reciprocal and two batched products.  Unlike
    ``jet_det`` this needs every pivot's value part to be nonzero; a zero
    pivot raises ``np.linalg.LinAlgError``.
    """
    n, size = A.shape[0], A.shape[-1]
    order = jet_order(num_vars, size)
    aug = A.copy() if B is None else np.concatenate([A, B], axis=1)
    det = np.zeros(size)
    det[0] = 1.0
    rows = np.arange(n)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col, 0])))
        if aug[piv, col, 0] == 0.0:
            raise np.linalg.LinAlgError("singular jet matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
            det = -det
        pivot = aug[col, col].copy()
        det = jet_mul(det, pivot, num_vars)
        inv = _series_coeffs(_recip_series(pivot[0], order), pivot, num_vars)
        row = jet_mul(aug[col, col + 1 :], inv, num_vars)
        aug[col, col + 1 :] = row
        # below the pivot only for a determinant; every other row to solve
        others = rows[col + 1 :] if B is None else rows[rows != col]
        aug[others, col + 1 :] -= jet_mul(aug[others, col, None], row, num_vars)
    return det, (None if B is None else aug[:, n:])


def jet_det(A: np.ndarray, num_vars: int) -> np.ndarray:
    """Determinant of an (n, n, M) jet matrix, as an (M,) jet.

    Division-free: elimination would need invertible (nonzero-value)
    pivots, but the determinant of a jet matrix is well defined even
    when every value part vanishes.  Uses the subset dynamic program
    over columns (Laplace expansion shared across row subsets), which
    is O(2^n n) jet operations and exact.  ``jet_lu`` is the
    polynomial-cost routine for matrices with a nonsingular value part.
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
                term = -terms[col] if (subset >> (col + 1)).bit_count() & 1 else terms[col]
                key = subset | bit
                nxt[key] = term if key not in nxt else nxt[key] + term
        partial = nxt
    return partial[(1 << n) - 1]
