"""Test-only charts, generators and verifiers: the closed-form matrix basis of
sl_so(m)'s trace-free symmetric matrices, the rotated point of the sl_so chart
for its equivariance checks, the sl_so surface in its own coordinates as
the generic-point reference, a chart moved by an ambient affine map and a
random unimodular matrix for the invariance checks, the block sparsity of
a composition's cubic form, and the chart text of a scaled hyperboloid."""

import numpy as np

from equiaffine.calabi import CompositionSpec
from equiaffine.catalog import sl_so
from equiaffine.dsl import ChartDef
from equiaffine.jets import jet_variables
from jet_reference import jet_matrix_exp


def _symmetric_basis(m: int) -> np.ndarray:
    """Frobenius-orthonormal basis of trace-free symmetric m x m matrices, as
    a (d, m, m) array."""
    basis = []
    for d in range(1, m):
        v = np.zeros(m)
        v[:d] = 1.0
        v[d] = -d
        basis.append(np.diag(v / np.linalg.norm(v)))
    for i in range(m):
        for j in range(i + 1, m):
            mat = np.zeros((m, m))
            mat[i, j] = mat[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(mat)
    return np.array(basis)


def sl_so_point(m: int, u, Q: np.ndarray) -> np.ndarray:
    """Coordinates u' of sl_so(m) with exp(S(u')) = Q exp(S(u)) Q^t for
    orthogonal Q.

    Conjugation by Q preserves the hypersurface, so invariants at u and
    u' must agree; used for the rotation-equivariance checks.
    """
    basis = _symmetric_basis(m)
    S = sum(float(ui) * b for ui, b in zip(np.asarray(u, float), basis))
    w, V = np.linalg.eigh(Q @ S @ Q.T)
    Sp = (V * w) @ V.T
    return np.array([np.sum(Sp * b) for b in basis])


class SeriesExpChart(ChartDef):
    """sl_so(m) as u -> exp(S(u)) in the coordinates u themselves: the jets
    at u0 are the term-by-term series of exp(S(u0 + v)), with scaling and
    squaring (``jet_reference.jet_matrix_exp``), one point at a time.  The
    generic-point reference for ``catalog.sl_so``, whose orbit chart moves
    its base jets from the identity to u0 by the linear map exp(u0·X)."""

    def __init__(self, m: int):
        chart = sl_so(m)
        super().__init__(chart.dim, domain_hint=chart.domain_hint)
        self.m, self.basis = m, _symmetric_basis(m)

    def component_jets(self, point, order):
        point = np.asarray(point, float)
        S = np.einsum("vij,...vc->...ijc", self.basis, jet_variables(point, order))
        rows, cols = np.triu_indices(self.m)
        out = np.empty(point.shape[:-1] + (len(rows), S.shape[-1]))
        for k in np.ndindex(point.shape[:-1]):
            out[k] = jet_matrix_exp(S[k], self.dim)[rows, cols]
        return out


class TransformedChart(ChartDef):
    """A chart post-composed with the ambient affine map x -> M x + b."""

    def __init__(self, base: ChartDef, M: np.ndarray, b=None):
        M = np.asarray(M, float)
        if M.shape != (base.ambient_dim, base.ambient_dim):
            raise ValueError("transform matrix must match the ambient dimension")
        super().__init__(base.dim, domain_hint=base.domain_hint)
        self.base = base
        self.M = M
        self.b = np.zeros(base.ambient_dim) if b is None else np.asarray(b, float)

    def component_jets(self, point, order):
        out = np.matmul(self.M, self.base.component_jets(point, order))
        out[..., 0] += self.b
        return out


def random_unimodular(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random well-conditioned matrix with det = 1."""
    M = rng.standard_normal((n, n)) * 0.5 + np.eye(n)
    d = np.linalg.det(M)
    if abs(d) < 1e-6:
        return random_unimodular(n, rng)
    M /= abs(d) ** (1.0 / n)
    if np.linalg.det(M) < 0:
        M[0] = -M[0]
    return M


def block_sparsity_residual(spec: CompositionSpec, inv) -> float:
    """Largest cubic-form component ``inv.A`` of a composed chart outside the
    allowed factor triples.

    Allowed triples (with 0 the t-block): (0,0,0), (a,a,0) and permutations,
    and (a,a,a); everything mixing two different factors must vanish.
    """
    labels = np.zeros(spec.dim, dtype=int)
    for alpha, sl in enumerate(spec.slices, start=1):
        labels[sl] = alpha
    a, b, c = labels[:, None, None], labels[None, :, None], labels[None, None, :]

    def differ(x, y):  # two different nonzero labels
        return (x != 0) & (y != 0) & (x != y)

    mixed = differ(a, b) | differ(a, c) | differ(b, c)
    return float(np.abs(inv.A[mixed]).max(initial=0.0))


def scaled_hyperboloid_text(n: int, scale: str) -> str:
    """Chart text of the hyperboloid x_{n+1} = sqrt(1 + |u|^2) scaled by the
    decimal literal ``scale``: an affine sphere with L1 = -scale^(-2(n+1)/(n+2))."""
    us = [f"u{i + 1}" for i in range(n)]
    coords = "".join(f"x{i + 1} = {scale}*{u}; " for i, u in enumerate(us))
    return f"dim {n}; {coords}x{n + 1} = {scale}*sqrt(1 + {' + '.join(u + '^2' for u in us)});"
