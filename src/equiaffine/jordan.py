"""Octonion and Hermitian-matrix Jordan-algebra arithmetic.

Octonions are built by Cayley-Dickson doubling from the reals with the
convention (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)), basis ordered
(1, e1, ..., e7).  Jordan algebras of Hermitian matrices, X o Y =
(XY + YX)/2, are read off a coordinate layout (see _entries) by
hermitian_table and trace_orthonormal_basis: catalog.sl_so reads Sym(m, R)
in upper-triangular coordinates.  The Albert algebra is the 27-dimensional
space of 3x3 octonion Hermitian matrices with trace inner product,
Freudenthal cross product and cubic determinant.  Its layout is frozen as
(E1, E2, E3, F1(e0..e7), F2(e0..e7), F3(e0..e7)) with

    F1(x) = [[0,0,0],[0,0,x],[0,conj(x),0]]   (and cyclic for F2, F3),

so a matrix with diagonal (xi1, xi2, xi3) and octonion entries x1, x2,
x3 has coordinates (xi1, xi2, xi3, x1, x2, x3).  Note the F-basis
vectors have trace-form norm squared 2, not 1.

An element of the Albert algebra is its (..., 27) coordinate array.
Products go through one cached, read-only structure tensor, jordan_table
(27^3, the Albert layout's hermitian_table), contracted with a whole stack
in one flat matmul for jordan_mul, jordan_inner, jordan_cross, jordan_det
and mult_operator.  The (3, 3, 8) entry layout appears only in the table
build.  oct_mul takes (..., 8) stacks, the others (..., 27) stacks: a check
over many samples is one call.  catalog.herm3 reads the Albert layout over
the first d octonion units as the orbit chart of Herm(3, K).
"""

from __future__ import annotations

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
    left-multiplication tables L_a[j, k] = sum_i a_i M[i, j, k] of the whole
    stack, built with one flat matmul."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    flat = a.reshape(-1, OCT_DIM) @ oct_table().reshape(OCT_DIM, -1)
    return (b[..., None, :] @ flat.reshape(a.shape[:-1] + (OCT_DIM, OCT_DIM)))[..., 0, :]


def oct_conj(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, float) * _CONJ_SIGNS


def oct_inner(a: np.ndarray, b: np.ndarray):
    """(x, y) = sum of coefficient products; (x, x) = |x|^2.  Broadcasts."""
    return np.sum(np.asarray(a, float) * np.asarray(b, float), axis=-1)


def oct_norm(a: np.ndarray):
    """|x| over the last axis; broadcasts."""
    return np.linalg.norm(np.asarray(a, float), axis=-1)


# the Albert layout: entries[_ROW[c], _COL[c], _OCT[c]] is coordinate c
_ROW = np.array([0, 1, 2] + [1] * 8 + [2] * 8 + [0] * 8)
_COL = np.array([0, 1, 2] + [2] * 8 + [0] * 8 + [1] * 8)
_OCT = np.array([0, 0, 0] + list(range(OCT_DIM)) * 3)
_ALBERT = (_ROW, _COL, _OCT)
_I3 = np.repeat([1.0, 0.0], [3, JORDAN_DIM - 3])  # coordinates of the identity


def _entries(coords: np.ndarray, rows, cols, units) -> np.ndarray:
    """(..., m, m, d) Hermitian entries of (..., N) coordinates in the layout (rows,
    cols, units): coordinate c is the real part along octonion unit units[c] of
    entry (rows[c], cols[c]), and the mirrored entry holds its conjugate."""
    out = np.zeros(coords.shape[:-1] + (rows.max() + 1,) * 2 + (units.max() + 1,))
    out[..., cols, rows, units] = coords * _CONJ_SIGNS[units]
    out[..., rows, cols, units] = coords
    return out


def _from_entries(entries: np.ndarray, rows, cols, units) -> np.ndarray:
    """(..., N) coordinates in the layout (rows, cols, units) of Hermitian entries."""
    return entries[..., rows, cols, units]


def hermitian_table(rows, cols, units) -> np.ndarray:
    """Read-only structure tensor P of the Hermitian matrices with coordinate
    layout (rows, cols, units): coords(X o Y)[c] = sum_ab P[a, b, c] x_a y_b,
    from the entry products over the first d = max(units) + 1 octonion units."""
    B = _entries(np.eye(len(rows)), rows, cols, units)
    d = B.shape[-1]
    prods = np.einsum("apqi,bqrj,ijk->abprk", B, B, oct_table()[:d, :d, :d], optimize=True)
    prods = 0.5 * (prods + prods.swapaxes(0, 1))
    table = np.ascontiguousarray(_from_entries(prods, rows, cols, units))
    table.setflags(write=False)
    return table


def trace_orthonormal_basis(rows, cols) -> np.ndarray:
    """(N - 1, N) coordinates of a traceless basis, orthonormal in the trace
    form tr(X o Y) = sum_c w_c x_c y_c (w_c = 1 on the diagonal, 2 off it):
    first diag(1, ..., 1, -k, 0, ...) / sqrt(k (k + 1)) for k = 1..m-1, then
    each off-diagonal coordinate over sqrt 2, in layout order."""
    diagonal = rows == cols
    m, N = np.count_nonzero(diagonal), len(rows)
    v = np.tril(np.ones((m - 1, m))) - np.eye(m - 1, m, 1) * np.arange(1.0, m)[:, None]
    basis = np.zeros((N - 1, N))
    basis[: m - 1, diagonal] = (v / np.linalg.norm(v, axis=1, keepdims=True))[:, rows[diagonal]]
    basis[m - 1 :, ~diagonal] = np.eye(N - m) / np.sqrt(2.0)
    return basis


@lru_cache(maxsize=1)
def jordan_table() -> np.ndarray:
    """The Albert algebra's structure tensor, hermitian_table of its layout."""
    return hermitian_table(*_ALBERT)


def _mul_tables(x: np.ndarray) -> np.ndarray:
    """(..., 27, 27) tables L_x[b, c] = coords(X o e_b)[c] of a (..., 27)
    coordinate stack, from one flat matmul with the structure tensor."""
    flat = x.reshape(-1, JORDAN_DIM) @ jordan_table().reshape(JORDAN_DIM, -1)
    return flat.reshape(x.shape[:-1] + (JORDAN_DIM, JORDAN_DIM))


def jordan_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """coords(X o Y) of (..., 27) coordinate stacks; broadcasts over leading
    axes: y times the tables L_x of the whole stack, the one Jordan-product kernel."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return (y[..., None, :] @ _mul_tables(x))[..., 0, :]


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
    return _mul_tables(np.asarray(t, float)).swapaxes(-1, -2)


def random_traceless_coords(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """(*shape, 27) coordinates of random traceless matrices; each member
    draws xi, x1, x2, x3 in that order and then centres xi."""
    c = rng.standard_normal(tuple(shape) + (JORDAN_DIM,))
    c[..., :3] -= c[..., :3].mean(axis=-1, keepdims=True)
    return c
