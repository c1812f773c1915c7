"""Built-in chart constructors with documented expected invariants.

Entries: the flat hyperbolic hypersphere x^1 ... x^{n+1} = const (realized
in composition coordinates), the centered quadrics (unit sphere,
elliptic paraboloid, hyperboloid), the unimodular symmetric-matrix
orbit sl_so(m) = {P = exp(S), S trace-free symmetric}, the unimodular 3x3
Hermitian orbits herm3(d) over R, C, H and O, and arbitrary graph
immersions from chart source text.  ``OrbitChart`` (defined in ``dsl``) is
the one chart class of an orbit u -> exp(u·X) x0; sl_so(m) and herm3(d) are
built by one Hermitian orbit builder, their generators read off a Jordan
algebra of Hermitian matrices in ``jordan`` (Sym(m, R), or the Albert
algebra's layout restricted to d octonion units).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .calabi import CompositionSpec, HypersphereFactor, compose_chart
from .dsl import MAX_DIM, ChartDef, DslChart, OrbitChart, parse_chart, parse_source
from .jordan import _ALBERT, _OCT, hermitian_table, trace_orthonormal_basis


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
    spec.closed_form  # built now, so that constants out of float range fail as parameter errors
    return compose_chart(spec)


def flat_factor(n0: int, C0: float = 1.0) -> HypersphereFactor:
    """A flat hypersphere packaged as a composition factor."""
    chart = flat_hypersphere(n0, C0)
    return HypersphereFactor(chart=chart, L1=chart.spec.closed_form.L1)


@lru_cache(maxsize=3 * MAX_DIM)
def _parse_quadric(text: str) -> tuple[int, tuple]:
    """The dimension and the (immutable) component expression trees of a
    quadric's ``_quadric_text``, shared by every chart built from that text.
    Keyed by the text, which parses only when built from an int
    n <= MAX_DIM, so a parameter of another type (a bool, 2.0) never shares
    an entry: one per quadric kind and dimension."""
    return parse_source(text)


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
    return DslChart(*_parse_quadric(text), domain_hint=hint)


def elliptic_paraboloid(n: int) -> DslChart:
    if n < 1:
        raise ValueError("elliptic_paraboloid needs n >= 1")
    return DslChart(*_parse_quadric(_quadric_text(n, "paraboloid")))


def hyperboloid(n: int) -> DslChart:
    """Upper sheet of x_{n+1}^2 - sum x_i^2 = 1, a hyperbolic hypersphere."""
    if n < 1:
        raise ValueError("hyperboloid needs n >= 1")
    return DslChart(*_parse_quadric(_quadric_text(n, "hyperboloid")))


def _hermitian_orbit(rows, cols, units) -> OrbitChart:
    """u -> exp(L(B(u))) I, the orbit of the identity under the Jordan
    multiplications L(B) Y = B o Y of the Hermitian matrices with coordinate
    layout (rows, cols, units): generators from the layout's hermitian_table and
    its trace_orthonormal_basis B_v, q the trace form (1 on the diagonal, 2 off)."""
    dim = len(rows) - 1
    table = hermitian_table(rows, cols, units)
    X = np.einsum("va,abc->vcb", trace_orthonormal_basis(rows, cols), table)  # X_v y = B_v o y
    diagonal = rows == cols
    hint = (-0.25 * np.ones(dim), 0.25 * np.ones(dim))
    return OrbitChart(X, diagonal.astype(float), np.where(diagonal, 1.0, 2.0), hint)


@lru_cache(maxsize=MAX_DIM, typed=True)
def sl_so(m: int) -> OrbitChart:
    """u -> exp(S(u)) = exp(L(S(u))) I, the Hermitian orbit of Sym(m, R) in
    upper-triangular coordinates, built once per m."""
    if operator.index(m) < 3:  # m = 3.0 raises TypeError
        raise ValueError("sl_so needs m >= 3")
    _check_dim(m * (m + 1) // 2 - 1)
    rows, cols = np.triu_indices(m)
    return _hermitian_orbit(rows, cols, np.zeros_like(rows))


@lru_cache(maxsize=4, typed=True)
def herm3(d: int) -> OrbitChart:
    """The Hermitian orbit of Herm(3, K) for K = R, C, H, O (d = 1, 2, 4, 8),
    in the Albert layout's coordinates over the first d octonion units: the
    unimodular level set det = 1, of dimension n = 3d + 2, built once per d."""
    if operator.index(d) not in (1, 2, 4, 8):
        raise ValueError("herm3 needs d in (1, 2, 4, 8)")
    return _hermitian_orbit(*(a[_OCT < d] for a in _ALBERT))


def graph(text: str) -> ChartDef:
    return parse_chart(text)


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
    "herm3": CatalogEntry(
        name="herm3",
        summary="unimodular 3x3 Hermitian orbit over R, C, H or O, det = 1, n = 3d + 2",
        params={"d": "division algebra dimension (1, 2, 4 or 8)"},
        builder=herm3,
        expected={"is_sphere": True, "is_parallel": True, "L1_negative": True},
    ),
    "graph": CatalogEntry(
        name="graph",
        summary="arbitrary immersion from chart source text",
        params={"text": "chart source (dim/param/component declarations)"},
        builder=graph,
        expected={},
    ),
}


def entry(name: str) -> CatalogEntry:
    """The catalog entry of a name; raises KeyError for unknown names."""
    try:
        return ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog chart {name!r}; see catalog.ENTRIES") from None


def get_chart(name: str, params: dict | None = None) -> ChartDef:
    """Build a catalog chart by name; raises KeyError for unknown names
    and ValueError for invalid parameters."""
    return entry(name).builder(**(params or {}))
