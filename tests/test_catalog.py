"""Catalog charts: expected invariants, equivariance, unimodular maps."""

import contextlib
import io

import numpy as np
import pytest

from equiaffine.blaschke import blaschke_at, check_codazzi, check_hypersphere, nabla_A_norm
from equiaffine import catalog
from equiaffine.cli import CHECKS, DEFAULT_TOL, main, point_reports
from equiaffine.calabi import ComposedChart, CompositionSpec, compose_chart
from equiaffine.catalog import (
    ENTRIES,
    OrbitChart,
    elliptic_paraboloid,
    flat_factor,
    flat_hypersphere,
    get_chart,
    herm3,
    hyperboloid,
    sl_so,
    unit_sphere,
)
from equiaffine.dsl import DslChart, OrbitChart, eval_immersion
from equiaffine.jets import jet_matmul, jet_size, jet_variables
from equiaffine.jordan import trace_orthonormal_basis
import jet_reference
from helpers import SeriesExpChart, TransformedChart, _symmetric_basis, random_unimodular, sl_so_point
from jet_reference import jet_matrix_exp, lu_det

SAMPLE_PARAMS = {
    "flat_hypersphere": {"n0": 2},
    "unit_sphere": {"n": 2},
    "elliptic_paraboloid": {"n": 2},
    "hyperboloid": {"n": 2},
    "sl_so": {"m": 3},
    "herm3": {"d": 2},
    "graph": {"text": "dim 1; x1 = u1; x2 = exp(u1);"},
}


def test_get_chart_dispatch_and_errors():
    chart = get_chart("unit_sphere", {"n": 2})
    assert chart.dim == 2
    with pytest.raises(KeyError):
        get_chart("nope")
    with pytest.raises(ValueError):
        get_chart("flat_hypersphere", {"n0": 0})
    with pytest.raises(ValueError):
        get_chart("sl_so", {"m": 2})
    with pytest.raises(ValueError):
        get_chart("herm3", {"d": 3})
    with pytest.raises(ValueError):
        get_chart("flat_hypersphere", {"n0": 2, "C0": -1.0})


def test_every_entry_passes_immersion_check():
    assert set(SAMPLE_PARAMS) == set(ENTRIES)
    for name, params in SAMPLE_PARAMS.items():
        chart = get_chart(name, params)
        for point in chart.sample_points(3, 1):
            eval_immersion(chart, point, 2)


@pytest.mark.parametrize("name", sorted(set(ENTRIES) - {"graph"}))
def test_entry_expected_invariants_hold(name):
    """Every key of ``CatalogEntry.expected`` holds at sample points."""
    expected = ENTRIES[name].expected
    known = {"L1", "J", "is_sphere", "is_parallel", "L1_negative", "J_equals_minus_L1"}
    assert expected and set(expected) <= known
    chart = get_chart(name, SAMPLE_PARAMS[name])
    for point in chart.sample_points(3, 17):
        inv = blaschke_at(chart, point)
        if "L1" in expected:
            assert inv.L1 == pytest.approx(expected["L1"], abs=1e-10)
        if "J" in expected:
            assert inv.J == pytest.approx(expected["J"], abs=1e-10)
        if expected.get("is_sphere"):
            assert max(check_hypersphere(inv).values()) <= 1e-10
        if expected.get("is_parallel"):
            assert nabla_A_norm(inv)["parallel"] < 1e-10
        if expected.get("L1_negative"):
            assert inv.L1 < 0
        if expected.get("J_equals_minus_L1"):
            assert inv.J == pytest.approx(-inv.L1, abs=1e-10)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_chart_contract_float_jet_array(order):
    """Every chart family returns a float (n+1, jet_size(n, order)) jet array."""
    spec = CompositionSpec(r=1, factors=(flat_factor(1, 1.5),), constants=(1.0, 2.0))
    moved = TransformedChart(unit_sphere(2), random_unimodular(3, np.random.default_rng(3)), b=[1.0, 2.0, 3.0])
    charts = [hyperboloid(2), sl_so(3), compose_chart(spec), moved]
    assert [type(c) for c in charts] == [DslChart, OrbitChart, ComposedChart, TransformedChart]
    for chart in charts:
        comp = chart.component_jets(chart.sample_points(1, 5)[0], order)
        assert isinstance(comp, np.ndarray) and comp.dtype == np.float64
        assert comp.shape == (chart.dim + 1, jet_size(chart.dim, order))


def test_flat_hypersphere_base_point_and_level():
    chart = flat_hypersphere(2, 1.0)
    pos = chart.component_jets(np.zeros(2), 1)[:, 0]
    assert np.allclose(pos, 1.0)
    # the coordinate product is the level constant everywhere
    chart2 = flat_hypersphere(2, 2.5)
    for point in chart2.sample_points(4, 8):
        vals = chart2.component_jets(point, 1)[:, 0]
        assert np.prod(vals) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize("n0, C0", [(2, 1.0), (3, 2.5), (5, 0.3)])
def test_flat_hypersphere_L1_matches_its_formula(n0, C0):
    """x^1 ... x^N = C0 with N = n0 + 1 coordinates has the composition
    constant C = (C0^2 / N)^(1/(N+1)) and L1 = -1/(N C), so

        L1 = -N^-1 N^(1/(N+1)) C0^(-2/(N+1)) = -N^(-N/(N+1)) C0^(-2/(N+1)),

    here computed without calabi."""
    N = n0 + 1
    expect = -(N ** (-N / (N + 1))) * C0 ** (-2 / (N + 1))
    L1 = flat_hypersphere(n0, C0).spec.closed_form.L1
    assert abs(L1 - expect) <= 1e-15 * abs(expect)


@pytest.mark.parametrize(
    "builder, params, L1",
    [
        (unit_sphere, {"n": 2}, 1.0),
        (unit_sphere, {"n": 3}, 1.0),
        (elliptic_paraboloid, {"n": 2}, 0.0),
        (elliptic_paraboloid, {"n": 3}, 0.0),
        (hyperboloid, {"n": 2}, -1.0),
        (hyperboloid, {"n": 3}, -1.0),
    ],
)
def test_quadrics_expected_invariants(builder, params, L1):
    chart = builder(**params)
    for point in chart.sample_points(3, 13):
        inv = blaschke_at(chart, point)
        assert inv.L1 == pytest.approx(L1, abs=1e-10)
        assert np.max(np.abs(inv.A)) < 1e-10
        assert abs(inv.J) < 1e-12
        assert max(check_hypersphere(inv).values()) <= 1e-10


def test_sl_so3_hypersphere_and_parallel():
    chart = sl_so(3)
    assert chart.dim == 5
    L1s = []
    for point in chart.sample_points(3, 19):
        inv = blaschke_at(chart, point)
        assert inv.L1 < 0
        L1s.append(inv.L1)
        assert max(check_hypersphere(inv).values()) <= 1e-8
        assert nabla_A_norm(inv)["parallel"] < 1e-10 and check_codazzi(inv)["codazzi"] <= DEFAULT_TOL["codazzi"]
    # homogeneous: the same mean curvature at every point
    assert np.ptp(L1s) < 1e-10


def test_sl_so3_base_point_is_identity_matrix():
    chart = sl_so(3)
    vals = chart.component_jets(np.zeros(5), 1)[:, 0]
    # upper-triangular coordinates of I3: (1, 0, 0, 1, 0, 1)
    assert np.allclose(vals, [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], atol=1e-14)


def test_sl_so3_rotation_equivariance():
    chart = sl_so(3)
    rng = np.random.default_rng(23)
    u = rng.uniform(-0.2, 0.2, chart.dim)
    worst = 0.0
    for _ in range(3):
        M = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(M)
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        u2 = sl_so_point(3, u, Q)
        a, b = blaschke_at(chart, u), blaschke_at(chart, u2)
        worst = max(worst, abs(a.L1 - b.L1), abs(a.J - b.J), abs(a.chi - b.chi))
        ga, gb = np.linalg.eigvalsh(a.g), np.linalg.eigvalsh(b.g)
        worst = max(worst, float(np.max(np.abs(ga - gb))))
        sa = np.sort(np.linalg.eigvals(a.g_inv @ a.B).real)
        sb = np.sort(np.linalg.eigvals(b.g_inv @ b.B).real)
        worst = max(worst, float(np.max(np.abs(sa - sb))))
    assert worst < 1e-7


def test_unimodular_invariance_of_invariants():
    rng = np.random.default_rng(29)
    charts = [hyperboloid(2), flat_hypersphere(2, 1.0), unit_sphere(2)]
    for chart in charts:
        point = chart.sample_points(1, 3)[0]
        M = random_unimodular(chart.ambient_dim, rng)
        assert np.linalg.det(M) == pytest.approx(1.0, rel=1e-10)
        moved = TransformedChart(chart, M, b=rng.standard_normal(chart.ambient_dim))
        a, b = blaschke_at(chart, point), blaschke_at(moved, point)
        assert abs(a.L1 - b.L1) < 1e-8
        assert abs(a.J - b.J) < 1e-8
        assert abs(a.chi - b.chi) < 1e-8
        sa = np.sort(np.linalg.eigvals(a.g_inv @ a.B).real)
        sb = np.sort(np.linalg.eigvals(b.g_inv @ b.B).real)
        assert np.max(np.abs(sa - sb)) < 1e-8
        # the metric itself is also unchanged (not only eigen-invariants)
        assert np.max(np.abs(a.g - b.g)) < 1e-8


def test_matrix_exp_chart_against_scipy_style_series():
    chart = sl_so(3)
    rng = np.random.default_rng(31)
    u = rng.uniform(-0.3, 0.3, 5)
    S = sum(float(v) * b for v, b in zip(u, _symmetric_basis(3)))
    w, V = np.linalg.eigh(S)
    expS = (V * np.exp(w)) @ V.T
    vals = chart.component_jets(u, 1)[:, 0]
    expect = np.array([expS[i, j] for i in range(3) for j in range(i, 3)])
    assert np.max(np.abs(vals - expect)) < 1e-12
    assert np.linalg.det(expS) == pytest.approx(1.0, rel=1e-12)


def _full_matrix(m, jets):
    """The symmetric (..., m, m, M) jet matrix of upper-triangular chart components."""
    rows, cols = np.triu_indices(m)
    X = np.empty(jets.shape[:-2] + (m, m, jets.shape[-1]))
    X[..., rows, cols, :] = X[..., cols, rows, :] = jets
    return X


def _negate_odd(jets, d):
    """The order-4 jets of f(-v) from those of f(v): odd degrees change sign."""
    out = jets.copy()
    for k in (1, 3):
        out[..., jet_size(d, k - 1) : jet_size(d, k)] *= -1
    return out


@pytest.mark.parametrize("m", [3, 4, 5])
def test_base_jets_match_series_reference_and_exact_identities(m):
    chart = sl_so(m)
    base = chart.base_jets(4)
    d = chart.dim
    # the series of exp(v·X) x0 (at m = 5 its 15 x 15 products gather
    # 65 MB operands), and of E(v) = exp(S(v)), whose upper triangle it is
    if m < 5:
        vX = np.einsum("vab,vc->abc", chart.X, jet_variables(np.zeros(d), 4))
        assert np.abs(base - np.einsum("abc,b->ac", jet_matrix_exp(vX, d), chart.x0)).max() <= 1e-15
    E = _full_matrix(m, base)
    S = np.einsum("vij,vc->ijc", _symmetric_basis(m), jet_variables(np.zeros(d), 4))
    assert np.abs(E - jet_matrix_exp(S, d)).max() <= 1e-15
    # tr S = 0 as a jet, so det exp(S) = exp(tr S) = 1 to every order
    det = lu_det(E, d)
    assert det[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(det[1:]).max() <= 1e-14
    product = jet_matmul(E, _negate_odd(E, d), d)
    product[..., 0] -= np.eye(m)
    assert np.abs(product).max() <= 1e-14


# (m, value-part inf-norm of S(u0), squarings the series reference takes there)
EXP_POINTS = [(m, norm, s) for m in (3, 4) for norm, s in ((0.3, 0), (0.8, 1), (1.6, 2), (3.2, 3))]


def _exp_point(m, norm):
    """A point u0 of sl_so(m) with |S(u0)|_inf = norm."""
    u = np.random.default_rng(5).uniform(-1.0, 1.0, m * (m + 1) // 2 - 1)
    return u * norm / np.abs(np.einsum("vij,v->ij", _symmetric_basis(m), u)).sum(axis=1).max()


@pytest.mark.parametrize("m, norm, squarings", EXP_POINTS)
def test_jet_matrix_exp_matches_series_reference(m, norm, squarings, monkeypatch):
    """At u0, the local chart v -> exp(u0·X) E(v) and the series exp(S(u0 + v)) are
    two parametrizations of one surface near one point: the same point,
    L1, J, chi, spectrum of g^-1 B and |nabla A|, and every check passes."""
    point = _exp_point(m, norm)[None]
    chart, ref = sl_so(m), SeriesExpChart(m)
    calls = []

    def counting_matmul(*args):
        calls.append(1)
        return jet_matmul(*args)

    monkeypatch.setattr(jet_reference, "jet_matmul", counting_matmul)
    a, b = blaschke_at(chart, point), blaschke_at(ref, point)
    assert len(calls) == 17 + squarings  # the reference scales and squares
    values, expect = chart.component_jets(point, 0), ref.component_jets(point, 0)
    assert np.abs(values - expect).max() <= 1e-14 * np.abs(expect).max()
    for name in ("L1", "J", "chi"):
        assert abs(getattr(a, name)[0] - getattr(b, name)[0]) <= 1e-14, name
    sa, sb = (np.sort(np.linalg.eigvals(inv.g_inv[0] @ inv.B[0]).real) for inv in (a, b))
    assert np.abs(sa - sb).max() <= 1e-14
    assert max(nabla_A_norm(a)["parallel"][0], nabla_A_norm(b)["parallel"][0]) <= 1e-13
    for invs in (a, b):
        for rep in point_reports(invs, None, list(CHECKS), DEFAULT_TOL)[0]:
            assert rep.passed, rep


@pytest.mark.parametrize("m, norm, squarings", EXP_POINTS)
def test_jet_matrix_exp_exact_identities(m, norm, squarings):
    """The chart's matrix P(v) = exp(u0·X) E(v) at u0, that is a E(v) a with
    a = exp(S(u0)/2), keeps E's exact identities: det P = 1 to every order,
    and P(v) P(0)^-1 P(-v) P(0)^-1 = I."""
    d = m * (m + 1) // 2 - 1
    P = _full_matrix(m, sl_so(m).component_jets(_exp_point(m, norm), 4))
    det = lu_det(P, d)
    assert det[0] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(det[1:]).max() <= 1e-13
    inverse = np.zeros_like(P)
    inverse[..., 0] = np.linalg.inv(P[..., 0])
    product = jet_matmul(jet_matmul(P, inverse, d), jet_matmul(_negate_odd(P, d), inverse, d), d)
    product[..., 0] -= np.eye(m)
    assert np.abs(product).max() <= 1e-13


def test_sl_so_metric_and_forms_are_those_of_the_base_point():
    """Every point is a unimodular image of the base jets, so g, A and B in
    the local coordinates v are their values at u = 0."""
    chart = sl_so(3)
    base = blaschke_at(chart, np.zeros(chart.dim))
    invs = blaschke_at(chart, chart.sample_points(5, 11))
    for name in ("g", "A", "B"):
        value = getattr(base, name)
        assert np.abs(getattr(invs, name) - value).max() <= 1e-12 * np.abs(value).max(), name
    assert np.abs(invs.L1 - -0.52487003541948).max() <= 1e-13


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_sl_so_generators_equal_the_matrix_construction_bitwise(m):
    """The Sym(m, R) table's multiplications by its trace-orthonormal basis
    are, bit for bit, the closed-form basis B_v and the matrix products
    L(B_v) P = (B_v P + P B_v)/2 on the unit matrix P of each coordinate."""
    rows, cols = np.triu_indices(m)
    basis = _symmetric_basis(m)
    assert np.array_equal(trace_orthonormal_basis(rows, cols), basis[:, rows, cols])
    unit = np.zeros((len(rows), m, m))
    unit[:, rows, cols] = unit[:, cols, rows] = np.eye(len(rows))
    BP = np.einsum("vij,bjk->vbik", basis, unit)
    X = (0.5 * (BP + np.swapaxes(BP, -1, -2)))[..., rows, cols].swapaxes(-1, -2)
    assert np.array_equal(sl_so(m).X, X)


def _triple_defect(X):
    """Relative least-squares defect of the brackets [[X_i, X_j], X_k] in
    span{X_l}: 0 exactly when the X_i span a Lie triple system."""
    d, N = X.shape[:2]
    span = X.reshape(d, -1).T
    C = X[:, None] @ X[None] - X[None] @ X[:, None]  # [X_i, X_j]
    worst = 0.0
    for k in range(d):
        T = (C @ X[k] - X[k] @ C).reshape(-1, N * N).T
        coef = np.linalg.lstsq(span, T, rcond=None)[0]
        worst = max(worst, np.linalg.norm(span @ coef - T) / np.linalg.norm(T))
    return worst


def assert_lie_triple_system(chart):
    """The translated jets show the orbit only if [[X_i, X_j], X_k] lies in
    span{X_l} and the brackets [X_i, X_j] annihilate x0 (see OrbitChart); the
    X_i are self-adjoint in q."""
    X, q = chart.X, chart.root_q**2
    assert np.abs(q[:, None] * X - np.swapaxes(q[:, None] * X, -1, -2)).max() <= 1e-15
    assert _triple_defect(X) <= 1e-13
    brackets = X[:, None] @ X[None] - X[None] @ X[:, None]
    assert np.abs(brackets @ chart.x0).max() <= 1e-14


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_sl_so_generators_span_a_lie_triple_system(m):
    assert_lie_triple_system(sl_so(m))


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_herm3_generators_span_a_lie_triple_system(d):
    assert_lie_triple_system(herm3(d))


def test_triple_defect_shows_random_generators():
    """Two random traceless symmetric generators at n = 2 span no Lie
    triple system: the defect is of order 1."""
    raw = np.random.default_rng(7).standard_normal((2, 3, 3))
    X = raw + np.swapaxes(raw, -1, -2)
    X -= np.trace(X, axis1=-2, axis2=-1)[:, None, None] * np.eye(3) / 3
    assert _triple_defect(X) > 0.1


def test_real_albert_orbit_matches_sl_so3():
    """herm3(1), Herm(3, R) in the Albert layout's real coordinates (E1, E2,
    E3, F1, F2, F3), is sl_so(3) with its off-diagonal coordinates in another
    order: the same matrices, L1, J and chi at the same points.  A wrong
    ``jordan_table`` entry or a wrong generator of either chart moves them."""
    chart, herm = sl_so(3), herm3(1)
    points = chart.sample_points(4, 37) * 4
    moved = points[:, [0, 1, 4, 3, 2]]  # sl_so's entries (0, 1), (0, 2), (1, 2) are herm3's F3, F2, F1
    # sl_so's entries (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2) are herm3's coordinates 0, 5, 4, 1, 3, 2
    entries = herm.component_jets(moved, 0)[:, [0, 5, 4, 1, 3, 2]]
    assert np.abs(chart.component_jets(points, 0) - entries).max() <= 1e-14
    a, b = blaschke_at(chart, points), blaschke_at(herm, moved)
    for name in ("L1", "J", "chi"):
        assert np.abs(getattr(a, name) - getattr(b, name)).max() <= 1e-13, name


@pytest.mark.parametrize("d, ratio", [(1, -7 / 16), (2, -5 / 14), (4, -4 / 13)])
def test_herm3_J_over_L1_is_the_rank_3_value(d, ratio):
    """J / L1 = -(N + 1) / (4 (N - 2)) on Herm(3, K), N = 3d + 3 the
    dimension of the algebra, at every sample point."""
    inv = blaschke_at(herm3(d), herm3(d).sample_points(3, 5))
    assert np.abs(inv.J / inv.L1 - ratio).max() <= 1e-13


def test_herm3_octonions_match_the_albert_level_set():
    """herm3(8), the paper's 26-dimensional example, at one point: J / L1 =
    -7/25, and L1 is the value measured on the Albert level set N(x) = 1, a
    different chart."""
    chart = herm3(8)
    inv = blaschke_at(chart, chart.sample_points(1, 1)[0])
    assert inv.J / inv.L1 == pytest.approx(-7 / 25, abs=1e-13)
    assert inv.L1 == pytest.approx(-0.627978103138473, rel=1e-14)


def test_cached_charts_and_bases_are_read_only_and_shared():
    # sl_so: one chart per m, typed, so m = 3.0 fails as before; its base jets
    # are built once per order, read-only
    chart = sl_so(3)
    assert sl_so(3) is chart and chart.base_jets(4) is chart.base_jets(4)
    assert not chart.base_jets(4).flags.writeable
    with pytest.raises(TypeError):
        sl_so(3.0)
    # quadrics: one parse per text, shared by new chart objects
    a, b = hyperboloid(2), hyperboloid(2)
    assert a is not b and a.components is not b.components
    assert all(x is y for x, y in zip(a.components, b.components))
    assert isinstance(catalog._parse_quadric(catalog._quadric_text(2, "hyperboloid"))[1], tuple)
    for bad in (2.0, True):
        with pytest.raises((TypeError, ValueError)):
            hyperboloid(bad)
    # a chart keeps its last evaluation, read-only
    point = a.sample_points(2, 1)
    jets = a.jets_at(point, 4)
    assert a.jets_at(point.copy(), 4) is jets and not jets.flags.writeable
    assert a.jets_at(point, 3) is not jets
    assert np.array_equal(jets, b.component_jets(point, 4))


def test_chart_arrays_are_read_only():
    # one chart may serve many scenes, so nothing it exposes can be written
    composition = catalog.flat_hypersphere(2)
    charts = [hyperboloid(2), catalog.unit_sphere(2), sl_so(3), composition, composition.weights,
              catalog.graph("dim 1; x1 = u1; x2 = exp(u1);")]
    for chart in charts:
        arrays = list(chart.domain_hint)
        if isinstance(chart, OrbitChart):
            arrays += [chart.X, chart.x0, chart.root_q]
        assert not any(array.flags.writeable for array in arrays), type(chart).__name__
    # the arrays a chart is built from stay the caller's, writeable
    X, x0 = np.zeros((1, 2, 2)), np.ones(2)
    OrbitChart(X, x0, np.ones(2), (-np.ones(1), np.ones(1)))
    assert X.flags.writeable and x0.flags.writeable


def test_repeated_catalog_charts_give_equal_reports():
    # the second chart of each kind is built from the cached parse or basis
    def report(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    for chart in ("hyperboloid(n=2)", "unit_sphere(n=3)", "elliptic_paraboloid(n=2)", "sl_so(m=3)",
                  "flat_hypersphere(n0=2)"):
        argv = ["check", "--chart", chart, "--points", "3", "--seed", "5"]
        assert report(argv) == report(argv)
