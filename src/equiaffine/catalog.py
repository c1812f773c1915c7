"""Built-in chart constructors with documented expected invariants.

Entries: the flat hyperbolic hypersphere x^1 ... x^{n+1} = const (realized
in composition coordinates), the centered quadrics (unit sphere,
elliptic paraboloid, hyperboloid), the unimodular symmetric-matrix
orbit sl_so(m) = {P = exp(S), S trace-free symmetric}, and arbitrary
graph immersions from chart source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calabi import CompositionSpec, HypersphereFactor, closed_form, compose_chart
from .dsl import ChartDef, DslChart, parse_chart
from .jets import jet_matmul, jet_variables


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    params: dict  # name -> short description of the expected value
    builder: object = field(repr=False)
    expected: dict = field(default_factory=dict)


def flat_hypersphere(n0: int, C0: float = 1.0) -> ChartDef:
    """The flat hyperbolic affine hypersphere x^1 ... x^{n0+1} = C0 > 0,
    parametrized in composition coordinates (n0 + 1 point factors)."""
    if n0 < 1:
        raise ValueError("flat_hypersphere needs n0 >= 1")
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
    hint = (-0.35 * np.ones(n) / np.sqrt(n), 0.35 * np.ones(n) / np.sqrt(n))
    return parse_chart(_quadric_text(n, "sphere"), domain_hint=hint)


def elliptic_paraboloid(n: int) -> DslChart:
    if n < 1:
        raise ValueError("elliptic_paraboloid needs n >= 1")
    return parse_chart(_quadric_text(n, "paraboloid"))


def hyperboloid(n: int) -> DslChart:
    """Upper sheet of x_{n+1}^2 - sum x_i^2 = 1, a hyperbolic hypersphere."""
    if n < 1:
        raise ValueError("hyperboloid needs n >= 1")
    return parse_chart(_quadric_text(n, "hyperboloid"))


def _symmetric_basis(m: int) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of trace-free symmetric m x m matrices."""
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
    return basis


class MatrixExpChart(ChartDef):
    """u -> upper-triangular coordinates of exp(S(u)) with S trace-free
    symmetric; the image sits on the unimodular hypersurface det = 1."""

    def __init__(self, m: int, scale: float = 0.25):
        if m < 3:
            raise ValueError("sl_so needs m >= 3")
        self.m = m
        self.basis = _symmetric_basis(m)
        dim = m * (m + 1) // 2 - 1
        hint = (-scale * np.ones(dim), scale * np.ones(dim))
        super().__init__(dim, domain_hint=hint)

    def component_jets(self, point, order):
        var = jet_variables(point, order)
        E = _jet_matrix_exp(np.einsum("vij,vc->ijc", np.array(self.basis), var), self.dim)
        return E[np.triu_indices(self.m)]


def _jet_matrix_exp(S: np.ndarray, num_vars: int) -> np.ndarray:
    """exp of an (m, m, M) jet matrix by scaling-and-squaring plus the series."""
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


def sl_so(m: int) -> MatrixExpChart:
    return MatrixExpChart(m)


def sl_so_point(chart: MatrixExpChart, u, Q: np.ndarray) -> np.ndarray:
    """Coordinates u' with exp(S(u')) = Q exp(S(u)) Q^t for orthogonal Q.

    Conjugation by Q preserves the hypersurface, so invariants at u and
    u' must agree; used for the rotation-equivariance checks.
    """
    S = sum(float(ui) * b for ui, b in zip(np.asarray(u, float), chart.basis))
    w, V = np.linalg.eigh(Q @ S @ Q.T)
    Sp = (V * w) @ V.T
    return np.array([np.sum(Sp * b) for b in chart.basis])


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
        out = np.tensordot(self.M, self.base.component_jets(point, order), 1)
        out[:, 0] += self.b
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
