"""Built-in chart constructors with documented expected invariants.

Entries: the flat hyperbolic hypersphere x^1 ... x^{n+1} = const (realized
in composition coordinates), the centered quadrics (unit sphere,
elliptic paraboloid, hyperboloid), the unimodular symmetric-matrix
orbit sl_so(m) = {P = exp(S), S trace-free symmetric}, and arbitrary
graph immersions from chart source text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calabi import CompositionSpec, HypersphereFactor, closed_form, compose_chart
from .dsl import MAX_DIM, ChartDef, DslChart, parse_chart
from .jets import jet_matmul, jet_variables


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    params: dict  # name -> short description of the expected value
    builder: object = field(repr=False)
    expected: dict = field(default_factory=dict)


def _check_dim(dim: int) -> None:
    """Refuse a chart above MAX_DIM before anything is built for it."""
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} is above MAX_DIM = {MAX_DIM}")


def flat_hypersphere(n0: int, C0: float = 1.0) -> ChartDef:
    """The flat hyperbolic affine hypersphere x^1 ... x^{n0+1} = C0 > 0,
    parametrized in composition coordinates (n0 + 1 point factors)."""
    if n0 < 1:
        raise ValueError("flat_hypersphere needs n0 >= 1")
    _check_dim(n0)
    if C0 <= 0:
        raise ValueError("flat_hypersphere needs C0 > 0")
    constants = (1.0,) * n0 + (float(C0),)
    spec = CompositionSpec(r=n0 + 1, factors=(), constants=constants)
    chart = compose_chart(spec)
    chart.spec_closed_form = closed_form(spec)
    return chart


def flat_factor(n0: int, C0: float = 1.0) -> HypersphereFactor:
    """A flat hypersphere packaged as a composition factor."""
    chart = flat_hypersphere(n0, C0)
    return HypersphereFactor(chart=chart, L1=chart.spec_closed_form.L1, dim=n0)


def _quadric_text(n: int, kind: str) -> str:
    _check_dim(n)
    us = [f"u{i + 1}" for i in range(n)]
    sq = " + ".join(f"{u}^2" for u in us)
    lines = [f"dim {n};"]
    lines += [f"x{i + 1} = {us[i]};" for i in range(n)]
    if kind == "sphere":
        lines.append(f"x{n + 1} = sqrt(1 - ({sq}));")
    elif kind == "paraboloid":
        lines.append(f"x{n + 1} = 0.5 * ({sq});")
    else:
        lines.append(f"x{n + 1} = sqrt(1 + ({sq}));")
    return "\n".join(lines) + "\n"


def unit_sphere(n: int) -> DslChart:
    """Upper hemisphere of the unit sphere as a graph over the equator."""
    if n < 1:
        raise ValueError("unit_sphere needs n >= 1")
    text = _quadric_text(n, "sphere")
    hint = (-0.35 * np.ones(n) / np.sqrt(n), 0.35 * np.ones(n) / np.sqrt(n))
    return parse_chart(text, domain_hint=hint)


def elliptic_paraboloid(n: int) -> DslChart:
    if n < 1:
        raise ValueError("elliptic_paraboloid needs n >= 1")
    return parse_chart(_quadric_text(n, "paraboloid"))


def hyperboloid(n: int) -> DslChart:
    """Upper sheet of x_{n+1}^2 - sum x_i^2 = 1, a hyperbolic hypersphere."""
    if n < 1:
        raise ValueError("hyperboloid needs n >= 1")
    return parse_chart(_quadric_text(n, "hyperboloid"))


def _symmetric_basis(m: int) -> np.ndarray:
    """Frobenius-orthonormal basis of trace-free symmetric m x m matrices, as (d, m, m)."""
    basis = []
    for d in range(1, m):
        v = np.zeros(m)
        v[:d] = 1.0
        v[d] = -d
        mat = np.diag(v / np.linalg.norm(v))
        basis.append(mat)
    for i in range(m):
        for j in range(i + 1, m):
            mat = np.zeros((m, m))
            mat[i, j] = mat[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(mat)
    return np.array(basis)


class MatrixExpChart(ChartDef):
    """u -> upper-triangular coordinates of exp(S(u)) with S trace-free
    symmetric; the image sits on the unimodular hypersurface det = 1."""

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("sl_so needs m >= 3")
        dim = m * (m + 1) // 2 - 1
        _check_dim(dim)
        self.m = m
        self.basis = _symmetric_basis(m)
        hint = (-0.25 * np.ones(dim), 0.25 * np.ones(dim))
        super().__init__(dim, domain_hint=hint)

    def component_jets(self, point, order):
        var = jet_variables(point, order)
        E = _jet_matrix_exp(np.einsum("vij,...vc->...ijc", self.basis, var), self.dim)
        rows, cols = np.triu_indices(self.m)
        return E[..., rows, cols, :]


# 1/k! for k = 0..19; row j holds the coefficients of the block B_j
_EXP_COEFFS = np.array([1.0 / math.factorial(k) for k in range(20)]).reshape(4, 5)


def _jet_matrix_exp(S: np.ndarray, num_vars: int) -> np.ndarray:
    """exp of an (..., m, m, M) jet matrix: scaling and squaring around the
    degree-19 Taylor polynomial, evaluated Paterson-Stockmeyer style as
    sum_j B_j (A^5)^j with B_j = sum_{i<5} A^i / (5j+i)!: 7 jet products
    (A^2..A^5, then 3 Horner steps), not one per degree.  Each matrix of a
    stack is scaled and squared by its own count.  ``S`` must be linear in
    the variables (degree bound 1), so A^k has degree bound k."""
    m = S.shape[-2]
    stack = S.reshape((-1,) + S.shape[-3:])
    norms = np.abs(stack[..., 0]).sum(axis=-1).max(axis=-1)
    squarings = np.array([max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.5)))) for norm in norms])
    A = stack * (0.5**squarings)[:, None, None, None]
    powers = [np.zeros_like(stack), A]
    powers[0][..., 0] = np.eye(m)
    for k in range(1, 5):
        powers.append(jet_matmul(powers[-1], A, num_vars, (k, 1)))
    A5 = powers.pop()
    blocks = np.tensordot(_EXP_COEFFS, np.array(powers), 1)
    out = blocks[3]
    for B in blocks[2::-1]:
        out = jet_matmul(out, A5, num_vars) + B
    for level in range(squarings.max()):
        rows = squarings > level
        out[rows] = jet_matmul(out[rows], out[rows], num_vars)
    return out.reshape(S.shape)


def sl_so(m: int) -> MatrixExpChart:
    return MatrixExpChart(m)


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


ENTRIES = {
    "flat_hypersphere": CatalogEntry(
        name="flat_hypersphere",
        summary="flat hyperbolic hypersphere x^1...x^{n0+1} = C0 in composition coordinates",
        params={"n0": "dimension (>= 1)", "C0": "level constant (> 0, default 1)"},
        builder=flat_hypersphere,
        expected={"is_sphere": True, "J_equals_minus_L1": True},
    ),
    "unit_sphere": CatalogEntry(
        name="unit_sphere",
        summary="unit sphere graph chart (elliptic affine sphere)",
        params={"n": "dimension (>= 1)"},
        builder=unit_sphere,
        expected={"L1": 1.0, "J": 0.0, "is_sphere": True, "is_parallel": True},
    ),
    "elliptic_paraboloid": CatalogEntry(
        name="elliptic_paraboloid",
        summary="elliptic paraboloid (improper affine sphere, L1 = 0)",
        params={"n": "dimension (>= 1)"},
        builder=elliptic_paraboloid,
        expected={"L1": 0.0, "J": 0.0, "is_sphere": True, "is_parallel": True},
    ),
    "hyperboloid": CatalogEntry(
        name="hyperboloid",
        summary="two-sheeted hyperboloid upper sheet (hyperbolic affine sphere)",
        params={"n": "dimension (>= 1)"},
        builder=hyperboloid,
        expected={"L1": -1.0, "J": 0.0, "is_sphere": True, "is_parallel": True},
    ),
    "sl_so": CatalogEntry(
        name="sl_so",
        summary="unimodular symmetric-matrix orbit exp(trace-free symmetric), det = 1",
        params={"m": "matrix size (>= 3)"},
        builder=sl_so,
        expected={"is_sphere": True, "is_parallel": True, "L1_negative": True},
    ),
    "graph": CatalogEntry(
        name="graph",
        summary="arbitrary immersion from chart source text",
        params={"text": "chart source (dim/param/component declarations)"},
        builder=lambda text: parse_chart(text),
        expected={},
    ),
}


def get_chart(name: str, params: dict | None = None) -> ChartDef:
    """Build a catalog chart by name; raises KeyError for unknown names
    and ValueError for invalid parameters."""
    try:
        entry = ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog chart {name!r}; see catalog.ENTRIES") from None
    return entry.builder(**(params or {}))
