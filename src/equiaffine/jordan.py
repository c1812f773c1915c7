"""Octonion and exceptional Jordan-algebra arithmetic.

Octonions are built by Cayley-Dickson doubling from the reals with the
convention (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)), basis ordered
(1, e1, ..., e7).  The Albert algebra is the 27-dimensional space of 3x3
octonion Hermitian matrices with the symmetrized product X o Y =
(XY + YX)/2, trace inner product, Freudenthal cross product and cubic
determinant.  The coordinate basis is frozen as (E1, E2, E3,
F1(e0..e7), F2(e0..e7), F3(e0..e7)) with

    F1(x) = [[0,0,0],[0,0,x],[0,conj(x),0]]   (and cyclic for F2, F3),

so a matrix with diagonal (xi1, xi2, xi3) and octonion entries x1, x2,
x3 has coordinates (xi1, xi2, xi3, x1, x2, x3).  Note the F-basis
vectors have trace-form norm squared 2, not 1.

An element of the Albert algebra is its (..., 27) coordinate array; the
(3, 3, 8) entry layout appears only where the octonion matrix product
needs it (_mat_mul and bracket_operator).  The kernels broadcast over
leading axes: oct_mul takes (..., 8) stacks, jordan_mul, jordan_inner,
jordan_cross, jordan_det and mult_operator (..., 27) coordinate stacks,
_mat_mul and bracket_operator (..., 3, 3, 8) entry stacks.  Each
contracts the whole stack with its structure tensor in one flat matmul
and then makes one batched product with the other operand, so a check
over many samples is one call, not a Python loop.

The equivariant-orbit data built from this algebra (base point C * I3,
induced metric g_o, cubic form A_o on the traceless part) is packaged by
e6_embedding_data together with its internal consistency residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

OCT_DIM = 8
JORDAN_DIM = 27

_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)


@lru_cache(maxsize=1)
def oct_table() -> np.ndarray:
    """Structure tensor M with e_i e_j = sum_k M[i, j, k] e_k."""
    t = np.ones((1, 1, 1))
    while t.shape[0] < OCT_DIM:
        n = t.shape[0]
        conj = -np.eye(n)
        conj[0, 0] = 1.0
        new = np.zeros((2 * n, 2 * n, 2 * n))
        new[:n, :n, :n] = t
        new[:n, n:, n:] = np.einsum("jik->ijk", t)
        new[n:, :n, n:] = np.einsum("jl,ilk->ijk", conj, t)
        new[n:, n:, :n] = -np.einsum("jl,lik->ijk", conj, t)
        t = new
    t.setflags(write=False)
    return t


def oct_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Octonion product; broadcasts over leading axes: b times the
    left-multiplication tables of a, built for the whole stack at once."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return (b[..., None, :] @ _left_tables(a))[..., 0, :]


def _left_tables(a: np.ndarray) -> np.ndarray:
    """(..., 8, 8) tables L_a[j, k] = sum_i a_i M[i, j, k] of an (..., 8) stack."""
    flat = a.reshape(-1, OCT_DIM) @ oct_table().reshape(OCT_DIM, -1)
    return flat.reshape(a.shape[:-1] + (OCT_DIM, OCT_DIM))


def oct_conj(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, float) * _CONJ_SIGNS


def oct_inner(a: np.ndarray, b: np.ndarray):
    """(x, y) = sum of coefficient products; (x, x) = |x|^2.  Broadcasts."""
    return np.sum(np.asarray(a, float) * np.asarray(b, float), axis=-1)


def oct_norm(a: np.ndarray):
    """|x| over the last axis; broadcasts."""
    return np.linalg.norm(np.asarray(a, float), axis=-1)


def oct_unit(k: int) -> np.ndarray:
    e = np.zeros(OCT_DIM)
    e[k] = 1.0
    return e


# entries[_ROW[c], _COL[c], _OCT[c]] is coordinate c; the mirrored entry
# entries[_COL[c], _ROW[c], _OCT[c]] holds _CONJ_SIGNS[_OCT[c]] times it
_ROW = np.array([0, 1, 2] + [1] * 8 + [2] * 8 + [0] * 8)
_COL = np.array([0, 1, 2] + [2] * 8 + [0] * 8 + [1] * 8)
_OCT = np.array([0, 0, 0] + list(range(OCT_DIM)) * 3)
_I3 = np.repeat([1.0, 0.0], [3, JORDAN_DIM - 3])  # coordinates of the identity


def _negligible(diff: np.ndarray, ref: np.ndarray, ndim: int) -> bool:
    """max|diff| <= 1e-12 max(1, max|ref|) over the last ``ndim`` axes, for
    every member of the stack."""
    axes = tuple(range(-ndim, 0))

    def largest(x):  # max|x| as max(max x, -min x): no |x| temporary
        return np.maximum(x.max(axis=axes), -x.min(axis=axes))

    return not np.any(largest(diff) > 1e-12 * np.maximum(1.0, largest(ref)))


def _entries(coords: np.ndarray) -> np.ndarray:
    """(..., 3, 3, 8) Hermitian entries of (..., 27) coordinates."""
    m = np.zeros(coords.shape[:-1] + (3, 3, OCT_DIM))
    m[..., _COL, _ROW, _OCT] = coords * _CONJ_SIGNS[_OCT]
    m[..., _ROW, _COL, _OCT] = coords
    return m


def _from_entries(entries: np.ndarray) -> np.ndarray:
    """(..., 27) coordinates of (..., 3, 3, 8) Hermitian entries."""
    return entries[..., _ROW, _COL, _OCT]


def _mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain (non-Hermitian) product of 3x3 octonion matrices; broadcasts
    over leading axes.  The entries of a are contracted with the octonion
    table first, L[p, q, j, k] = sum_i a[p, q, i] M[i, j, k], then L with b
    over (q, j) as one matmul per member: no 6-axis temporary."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    left = _left_tables(a)  # p, q, j, k
    lhs = np.moveaxis(left, -1, -3).reshape(left.shape[:-4] + (3, OCT_DIM, 3 * OCT_DIM))  # p, k, (q, j)
    rhs = b.swapaxes(-1, -2).reshape(b.shape[:-3] + (3 * OCT_DIM, 3))  # (q, j), r
    return (lhs @ rhs[..., None, :, :]).swapaxes(-1, -2)


@lru_cache(maxsize=1)
def _basis_entries() -> np.ndarray:
    """(27, 3, 3, 8) entries of the frozen coordinate basis E1, E2, E3, F_i(e_k)."""
    stack = _entries(np.eye(JORDAN_DIM))
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=1)
def jordan_table() -> np.ndarray:
    """Structure tensor P with coords(X o Y)[c] = sum_ab P[a, b, c] x_a y_b."""
    B = _basis_entries()
    prods = np.einsum("apqi,bqrj,ijk->abprk", B, B, oct_table(), optimize=True)
    prods = 0.5 * (prods + prods.swapaxes(0, 1))
    table = np.ascontiguousarray(_from_entries(prods))
    table.setflags(write=False)
    return table


def jordan_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """coords(X o Y) of (..., 27) coordinate stacks; broadcasts over leading axes.

    One flat matmul gives the tables L_x[b, c] = coords(X o e_b)[c] of the
    whole stack, then y L_x: the one Jordan-product kernel."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    flat = x.reshape(-1, JORDAN_DIM) @ jordan_table().reshape(JORDAN_DIM, -1)
    return (y[..., None, :] @ flat.reshape(x.shape[:-1] + (JORDAN_DIM, JORDAN_DIM)))[..., 0, :]


def _trace(x: np.ndarray) -> np.ndarray:
    """tr X = xi1 + xi2 + xi3 of (..., 27) coordinate stacks."""
    return x[..., :3].sum(axis=-1)


def jordan_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """tr(X o Y) of (..., 27) coordinate stacks; broadcasts."""
    return _trace(jordan_mul(x, y))


def jordan_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Freudenthal cross product X x Y = (2 X o Y - tr(Y) X - tr(X) Y +
    (tr X tr Y - tr(X o Y)) I3) / 2 of (..., 27) coordinate stacks; broadcasts."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    prod = jordan_mul(x, y)
    tx, ty = _trace(x)[..., None], _trace(y)[..., None]
    scal = tx * ty - _trace(prod)[..., None]
    return 0.5 * (2.0 * prod - ty * x - tx * y + scal * _I3)


def jordan_det(x: np.ndarray) -> np.ndarray:
    """Cubic determinant (X x X, X) / 3 of (..., 27) coordinate stacks."""
    return jordan_inner(jordan_cross(x, x), x) / 3.0


def mult_operator(t: np.ndarray) -> np.ndarray:
    """27x27 matrix of X -> T o X in the frozen basis, column b = T o e_b;
    a (..., 27) coordinate stack gives a (..., 27, 27) stack."""
    return jordan_mul(np.asarray(t, float)[..., None, :], np.eye(JORDAN_DIM)).swapaxes(-1, -2)


def bracket_operator(A: np.ndarray) -> np.ndarray:
    """27x27 matrix of X -> [A, X] = AX - XA for skew A (conj(A)^t = -A);
    a (..., 3, 3, 8) stack gives a (..., 27, 27) stack.

    With zero diagonal these are the compact generators that fix I3.  Every
    member must be skew, and the Hermiticity of every member's image is
    validated entrywise.
    """
    A = np.asarray(A, float)
    if A.shape[-3:] != (3, 3, OCT_DIM):
        raise ValueError("expected a (..., 3, 3, 8) stack of octonion matrices")
    if not _negligible(A + oct_conj(A).swapaxes(-3, -2), A, 3):
        raise ValueError("matrix is not octonion skew-Hermitian")
    B, A = _basis_entries(), A[..., None, :, :, :]
    imgs = _mat_mul(A, B)
    imgs -= _mat_mul(B, A)  # (..., 27, 3, 3, 8), in place: one such array, not three
    herm = oct_conj(imgs).swapaxes(-3, -2)
    herm -= imgs  # conj(imgs)^t - imgs, in the conjugate's buffer
    if not _negligible(herm, imgs, 4):
        raise ValueError("bracket image is not octonion Hermitian")
    return _from_entries(imgs).swapaxes(-1, -2)


def random_skew_offdiag(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Random (*shape, 3, 3, 8) elements with conj(A)^t = -A and zero diagonal;
    each member draws its (0, 1), (0, 2), (1, 2) entries in that order."""
    x = rng.standard_normal(tuple(shape) + (3, OCT_DIM))
    rows, cols = [0, 0, 1], [1, 2, 2]
    a = np.zeros(x.shape[:-2] + (3, 3, OCT_DIM))
    a[..., rows, cols, :] = x
    a[..., cols, rows, :] = -oct_conj(x)
    return a


def traceless_basis() -> np.ndarray:
    """(26, 27) coordinates of a (non-orthogonal) basis of the traceless
    part: E1 - E2, E2 - E3, then the F_i(e_k)."""
    basis = np.eye(JORDAN_DIM)[1:]
    basis[:2, :3] = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]
    return basis


def random_traceless_coords(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """(*shape, 27) coordinates of random traceless matrices; each member
    draws xi, x1, x2, x3 in that order and then centres xi."""
    c = rng.standard_normal(tuple(shape) + (JORDAN_DIM,))
    c[..., :3] -= c[..., :3].mean(axis=-1, keepdims=True)
    return c


@dataclass(frozen=True)
class EmbeddingData:
    """Base-point data of the determinant-preserving orbit of C * I3."""

    L1: float
    C: float
    x_o: np.ndarray  # (27,) coordinates of the base point C * I3
    on_basis: np.ndarray  # (26, 27) basis change Q: row i is T_i of a g_o-orthonormal traceless basis
    g_o: np.ndarray  # (26, 26) in on_basis coordinates (the identity, kept for checks)
    A_o: np.ndarray  # (26, 26, 26) in on_basis coordinates

    @property
    def dim(self) -> int:
        return len(self.on_basis)


def e6_embedding_data(L1: float) -> EmbeddingData:
    """Metric and cubic form of the 26-dimensional orbit x = C * L(I3).

    C = sqrt(3) (-3 L1)^(-(n+2)/2) with n = 26; g_o(X, Y) =
    -(1/(3 L1)) tr(X o Y) on traceless matrices; A_o(X, Y, Z) =
    g_o(-L1 (X o Y - tr(X o Y) I3 / 3), Z) = (X o Y, Z) / 3.
    """
    if L1 >= 0:
        raise ValueError("the orbit construction needs L1 < 0")
    n = JORDAN_DIM - 1
    C = np.sqrt(3.0) * (-3.0 * L1) ** (-(n + 2) / 2.0)
    x_o = C * _I3

    # tr(X o Y) = sum_c w_c x_c y_c: the F-basis vectors have norm squared 2
    w = np.repeat([1.0, 2.0], [3, JORDAN_DIM - 3])
    g_w = w / (-3.0 * L1)
    # Gram-Schmidt in g_o, in basis order: Q = L^-1 V for the Gram matrix L L^t
    V = traceless_basis()
    Q = np.linalg.solve(np.linalg.cholesky((V * g_w) @ V.T), V)
    gram = (Q * g_w) @ Q.T
    A_o = np.einsum("ia,jb,abc,kc->ijk", Q, Q, jordan_table(), Q * w, optimize=True) / 3.0
    return EmbeddingData(L1=L1, C=C, x_o=x_o, on_basis=Q, g_o=gram, A_o=A_o)


def gaussf_residual(data: EmbeddingData, X, Y):
    """Residual of the second-derivative decomposition C(X o Y) =
    C(X o Y - tr(X o Y) I3 / 3) + C (X, Y) I3 / 3 for traceless X, Y, one
    per member of (..., 27) coordinate stacks.  The largest entry of a
    matrix is its largest coordinate, so the residual is taken on those."""
    C = data.C
    prod = jordan_mul(X, Y)
    t = _trace(prod)[..., None]
    lhs = C * prod
    tangential = C * (prod - (t / 3.0) * _I3)
    transversal = (C * t / 3.0) * _I3
    return np.abs(lhs - tangential - transversal).max(axis=-1)


def hypersphere_residual(data: EmbeddingData) -> float:
    """max |xi + L1 x_o| where xi is the g_o-trace of the transversal
    second-derivative parts, (1/n) sum_i C (T_i, T_i) I3 / 3 over the
    g_o-orthonormal basis."""
    xi = np.sum(data.C * jordan_inner(data.on_basis, data.on_basis) / 3.0) / data.dim * _I3
    return float(np.max(np.abs(xi + data.L1 * data.x_o)))


def apolarity_residual(data: EmbeddingData) -> float:
    """g_o-trace of A_o in the first two slots (must vanish)."""
    g_inv = np.linalg.inv(data.g_o)
    return float(np.max(np.abs(np.einsum("ij,ijk->k", g_inv, data.A_o))))
