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

The kernels broadcast over leading axes: oct_mul takes (..., 8) stacks,
jordan_mul, jordan_inner and mult_operator (..., 27) coordinate stacks
(or a JordanMatrix), _mat_mul and bracket_operator (..., 3, 3, 8) entry
stacks.  Each contracts the whole stack with its structure tensor in one
flat matmul and then makes one batched product with the other operand,
so a check over many samples is one call, not a Python loop.

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


class JordanMatrix:
    """3x3 octonion Hermitian matrix stored as a (3, 3, 8) real array."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, float)
        if entries.shape != (3, 3, OCT_DIM):
            raise ValueError("JordanMatrix needs a (3, 3, 8) array")
        if not _negligible(entries - oct_conj(entries).transpose(1, 0, 2), entries, 3):
            raise ValueError("entries are not octonion Hermitian")
        self.entries = entries

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "JordanMatrix":
        """Wrap float entries that are Hermitian by construction, unchecked."""
        m = cls.__new__(cls)
        m.entries = entries
        return m

    @classmethod
    def from_parts(cls, xi, x1, x2, x3) -> "JordanMatrix":
        """Diagonal reals (xi1, xi2, xi3) and octonions per the layout
        [[xi1, x3, conj(x2)], [conj(x3), xi2, x1], [x2, conj(x1), xi3]]."""
        return cls.from_coords(np.concatenate([xi, x1, x2, x3]))

    @classmethod
    def from_coords(cls, coords: np.ndarray) -> "JordanMatrix":
        coords = np.asarray(coords, float)
        if coords.shape != (JORDAN_DIM,):
            raise ValueError("expected 27 coordinates")
        return cls._trusted(_entries(coords))

    def coords(self) -> np.ndarray:
        """Coordinates in the frozen (E_i, F_i(e_k)) basis."""
        return self.entries[_ROW, _COL, _OCT]

    @classmethod
    def identity(cls) -> "JordanMatrix":
        return cls.from_parts(np.ones(3), np.zeros(8), np.zeros(8), np.zeros(8))

    @classmethod
    def diag_unit(cls, i: int) -> "JordanMatrix":
        return cls.from_coords(np.eye(JORDAN_DIM)[i - 1])

    @classmethod
    def off_diag(cls, i: int, x) -> "JordanMatrix":
        """F_i(x) for i in {1, 2, 3}."""
        parts = [np.zeros(8), np.zeros(8), np.zeros(8)]
        parts[i - 1] = np.asarray(x, float)
        return cls.from_parts(np.zeros(3), *parts)

    def __add__(self, other):
        return JordanMatrix._trusted(self.entries + other.entries)

    def __sub__(self, other):
        return JordanMatrix._trusted(self.entries - other.entries)

    def __mul__(self, scalar):
        return JordanMatrix._trusted(self.entries * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return JordanMatrix._trusted(-self.entries)

    def trace(self) -> float:
        return float(self.entries[0, 0, 0] + self.entries[1, 1, 0] + self.entries[2, 2, 0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))


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


def basis_27() -> list[JordanMatrix]:
    """The frozen coordinate basis E1, E2, E3, F_i(e_k)."""
    return [JordanMatrix.from_coords(e) for e in np.eye(JORDAN_DIM)]


@lru_cache(maxsize=1)
def _basis_entries() -> np.ndarray:
    """(27, 3, 3, 8) stack of the entries of basis_27()."""
    stack = _entries(np.eye(JORDAN_DIM))
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=1)
def jordan_table() -> np.ndarray:
    """Structure tensor P with coords(X o Y)[c] = sum_ab P[a, b, c] x_a y_b."""
    B = _basis_entries()
    prods = np.einsum("apqi,bqrj,ijk->abprk", B, B, oct_table(), optimize=True)
    prods = 0.5 * (prods + prods.swapaxes(0, 1))
    table = np.ascontiguousarray(prods[:, :, _ROW, _COL, _OCT])
    table.setflags(write=False)
    return table


def _coords(X) -> np.ndarray:
    """Coordinates of a JordanMatrix, or a (..., 27) coordinate stack as floats."""
    return X.coords() if isinstance(X, JordanMatrix) else np.asarray(X, float)


def jordan_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """coords(X o Y) of (..., 27) coordinate stacks; broadcasts over leading axes.

    One flat matmul gives the tables L_x[b, c] = coords(X o e_b)[c] of the
    whole stack, then y L_x: the one Jordan-product kernel."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    flat = x.reshape(-1, JORDAN_DIM) @ jordan_table().reshape(JORDAN_DIM, -1)
    return (y[..., None, :] @ flat.reshape(x.shape[:-1] + (JORDAN_DIM, JORDAN_DIM)))[..., 0, :]


def jordan_product(X: JordanMatrix, Y: JordanMatrix) -> JordanMatrix:
    return JordanMatrix.from_coords(jordan_mul(X.coords(), Y.coords()))


def jordan_inner(X, Y):
    """tr(X o Y) of JordanMatrix arguments or (..., 27) coordinate stacks."""
    return jordan_mul(_coords(X), _coords(Y))[..., :3].sum(axis=-1)


def jordan_cross(X: JordanMatrix, Y: JordanMatrix) -> JordanMatrix:
    """Freudenthal cross product X x Y."""
    prod = jordan_product(X, Y)
    tx, ty = X.trace(), Y.trace()
    scal = tx * ty - prod.trace()
    m = 2.0 * prod.entries - ty * X.entries - tx * Y.entries + scal * JordanMatrix.identity().entries
    return JordanMatrix(0.5 * m)


def jordan_det(X: JordanMatrix) -> float:
    return jordan_inner(jordan_cross(X, X), X) / 3.0


def jordan_ops(X: JordanMatrix, Y: JordanMatrix) -> dict:
    """Product, inner product, cross product and det(X) in one call."""
    return {
        "product": jordan_product(X, Y),
        "inner": jordan_inner(X, Y),
        "cross": jordan_cross(X, Y),
        "det_X": jordan_det(X),
    }


def mult_operator(T) -> np.ndarray:
    """27x27 matrix of X -> T o X in the frozen basis, column b = T o e_b;
    a (..., 27) coordinate stack gives a (..., 27, 27) stack."""
    return jordan_mul(_coords(T)[..., None, :], np.eye(JORDAN_DIM)).swapaxes(-1, -2)


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
    return imgs[..., _ROW, _COL, _OCT].swapaxes(-1, -2)


def random_skew_offdiag(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Random (*shape, 3, 3, 8) elements with conj(A)^t = -A and zero diagonal;
    each member draws its (0, 1), (0, 2), (1, 2) entries in that order."""
    x = rng.standard_normal(tuple(shape) + (3, OCT_DIM))
    rows, cols = [0, 0, 1], [1, 2, 2]
    a = np.zeros(x.shape[:-2] + (3, 3, OCT_DIM))
    a[..., rows, cols, :] = x
    a[..., cols, rows, :] = -oct_conj(x)
    return a


def traceless_basis() -> list[JordanMatrix]:
    """A (non-orthogonal) basis of the 26-dimensional traceless part."""
    E1, E2, E3 = (JordanMatrix.diag_unit(i) for i in (1, 2, 3))
    return [E1 - E2, E2 - E3] + basis_27()[3:]


def random_traceless_coords(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """(*shape, 27) coordinates of random traceless matrices; each member
    draws xi, x1, x2, x3 in that order and then centres xi."""
    c = rng.standard_normal(tuple(shape) + (JORDAN_DIM,))
    c[..., :3] -= c[..., :3].mean(axis=-1, keepdims=True)
    return c


def random_traceless(rng: np.random.Generator) -> JordanMatrix:
    return JordanMatrix.from_coords(random_traceless_coords(rng))


@dataclass(frozen=True)
class EmbeddingData:
    """Base-point data of the determinant-preserving orbit of C * I3."""

    L1: float
    C: float
    x_o: JordanMatrix
    on_basis: tuple[JordanMatrix, ...]  # g_o-orthonormal basis of the traceless part
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
    x_o = C * JordanMatrix.identity()

    # tr(X o Y) = sum_c w_c x_c y_c: the F-basis vectors have norm squared 2
    w = np.repeat([1.0, 2.0], [3, JORDAN_DIM - 3])
    g_w = w / (-3.0 * L1)
    # Gram-Schmidt in g_o, in basis order: Q = L^-1 V for the Gram matrix L L^t
    V = np.array([b.coords() for b in traceless_basis()])
    Q = np.linalg.solve(np.linalg.cholesky((V * g_w) @ V.T), V)
    gram = (Q * g_w) @ Q.T
    A_o = np.einsum("ia,jb,abc,kc->ijk", Q, Q, jordan_table(), Q * w, optimize=True) / 3.0
    on = [JordanMatrix.from_coords(q) for q in Q]

    return EmbeddingData(L1=L1, C=C, x_o=x_o, on_basis=tuple(on), g_o=gram, A_o=A_o)


def gaussf_residual(data: EmbeddingData, X, Y):
    """Residual of the second-derivative decomposition C(X o Y) =
    C(X o Y - tr(X o Y) I3 / 3) + C (X, Y) I3 / 3 for traceless X, Y, one
    per member of (..., 27) coordinate stacks.  The largest entry of a
    matrix is its largest coordinate, so the residual is taken on those."""
    C = data.C
    prod = jordan_mul(_coords(X), _coords(Y))
    t = prod[..., :3].sum(axis=-1, keepdims=True)
    lhs = C * prod
    tangential = C * (prod - (t / 3.0) * _I3)
    transversal = (C * jordan_inner(X, Y)[..., None] / 3.0) * _I3
    return np.abs(lhs - tangential - transversal).max(axis=-1)


def hypersphere_residual(data: EmbeddingData) -> float:
    """max |xi + L1 x_o| where xi is the g_o-trace of the transversal
    second-derivative parts, (1/n) sum_i C (T_i, T_i) I3 / 3 over the
    g_o-orthonormal basis."""
    on = np.array([t.coords() for t in data.on_basis])
    xi = np.sum(data.C * jordan_inner(on, on) / 3.0) / data.dim * _I3
    return float(np.max(np.abs(xi + data.L1 * data.x_o.coords())))


def transversality_residual(data: EmbeddingData, T):
    """(T, I3) = tr T must vanish for tangent directions T; one per member."""
    return np.abs(jordan_inner(T, _I3))


def apolarity_residual(data: EmbeddingData) -> float:
    """g_o-trace of A_o in the first two slots (must vanish)."""
    g_inv = np.linalg.inv(data.g_o)
    return float(np.max(np.abs(np.einsum("ij,ijk->k", g_inv, data.A_o))))
