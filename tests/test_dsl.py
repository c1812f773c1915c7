"""Chart expression language: parsing, evaluation, errors, round-trips."""

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from equiaffine.dsl import (
    FUNCS,
    MAX_DEPTH,
    Bin,
    ChartParseError,
    DslChart,
    ImmersionError,
    Num,
    Pow,
    Unary,
    Var,
    _children,
    degree_bounds,
    eval_expr,
    eval_immersion,
    parse_chart,
    parse_source,
)
from equiaffine import jets
from equiaffine.jets import JetDomainError, jet_mul, jet_size, jet_variables
from jet_reference import monomials

SPHERE = "dim 2;\nx1 = u1;\nx2 = u2;\nx3 = sqrt(1 - u1^2 - u2^2);\n"


def test_parse_and_eval_sphere():
    chart = parse_chart(SPHERE)
    assert chart.dim == 2
    comp = chart.component_jets(np.array([0.1, 0.2]), 2)
    assert comp[0, 0] == pytest.approx(0.1)
    assert comp[2, 0] == pytest.approx(np.sqrt(1 - 0.01 - 0.04))
    # dz/du1 = -u1 / sqrt(1 - |u|^2), the first degree-1 coefficient
    assert comp[2, 1] == pytest.approx(-0.1 / np.sqrt(0.95))


def test_params_and_comments():
    text = """
    # a scaled exponential chart
    dim 1;
    param C0 = 2.5;   # scale
    x1 = exp(u1);
    x2 = C0 * exp(-u1);
    """
    chart = parse_chart(text)
    comp = chart.component_jets(np.array([0.3]), 1)
    assert comp[1, 0] == pytest.approx(2.5 * np.exp(-0.3))


def test_negative_param_and_fraction_exponent():
    text = "dim 1; param a = -1.5; x1 = u1; x2 = a * (1 + u1^2)^(-3/2);"
    chart = parse_chart(text)
    comp = chart.component_jets(np.array([0.5]), 2)
    assert comp[1, 0] == pytest.approx(-1.5 * 1.25**-1.5)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x1 = u1;", "dim must be declared"),
        ("dim 2; x1 = u1;", "missing components"),
        ("dim 1; x1 = u2; x2 = u1;", "exceeds dim"),
        ("dim 1; x1 = u1; x2 = q;", "unknown identifier"),
        ("dim 1; x1 = u1; x2 = (u1;", "expected"),
        ("dim 1; x1 = u1 @ 2; x2 = u1;", "unexpected character"),
        ("dim 1; x5 = u1; x1 = u1; x2 = u1;", "out of range"),
        ("dim 1e400; x1 = u1; x2 = u1;", "number 1e400 is out of range"),
        ("dim 2.5; x1 = u1; x2 = u2; x3 = u1;", "dim must be a positive integer"),
        ("dim 1; param a = 1e999; x1 = u1; x2 = a;", "number 1e999 is out of range"),
        ("dim 1; x1 = u1; x2 = 2e308 * u1;", "number 2e308 is out of range"),
        ("dim 1; x1 = u1; x2 = 1.2.3 * u1;", "malformed number '1.2.3'"),
        ("dim 1; x1 = u1; x2 = u1^(1/0);", "zero denominator in exponent"),
        ("dim 1; x1 = u1; x2 = u1^(1e300/1e-300);", "exponent is out of range"),
        ("dim 1; x1 = u1; x2 = " + "(" * 2000 + "u1" + ")" * 2000 + ";", "nests deeper than MAX_DEPTH = 200"),
        ("dim 1; x1 = u1; x2 = u1" + " + u1" * 3000 + ";", "nests deeper than MAX_DEPTH = 200"),
        ("dim 1; param a = 1; param a = 2; x1 = u1; x2 = a;", "duplicate param 'a' (line 1, column 27)"),
        ("dim 1; x1 = u1; x2 = u1; x2 = 2 * u1;", "duplicate component x2 (line 1, column 26)"),
        ("dim 1; param u1 = 2; x1 = u1; x2 = u1;", "param 'u1' names a variable (line 1, column 14)"),
        ("dim 1; param exp = 2; x1 = u1; x2 = exp(u1);", "param 'exp' names a function (line 1, column 14)"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ChartParseError) as err:
        parse_chart(text)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ChartParseError) as err:
        parse_chart("dim 1;\nx1 = u1;\nx2 = ?;")
    assert err.value.line == 3


def test_immersion_rank_check():
    # both components constant in u1 at the critical point
    chart = parse_chart("dim 1; x1 = u1^2; x2 = u1^4;")
    with pytest.raises(ImmersionError):
        eval_immersion(chart, np.array([0.0]), 2)
    comp = eval_immersion(chart, np.array([0.5]), 2)[0]
    assert comp[0, 0] == pytest.approx(0.25)


def test_order_and_point_validation():
    chart = parse_chart(SPHERE)
    with pytest.raises(ValueError):
        eval_immersion(chart, np.array([0.1, 0.2]), 0)
    assert eval_immersion(chart, np.array([0.1, 0.2]), 5)[0].shape == (3, jet_size(2, 5))  # no order cap
    with pytest.raises(ValueError):
        eval_immersion(chart, np.array([0.1]), 2)


def test_round_trip_through_text():
    chart = parse_chart("dim 2; param b = 0.25; x1 = u1; x2 = u2; x3 = b*exp(u1*u2) - sin(u2)/3;")
    again = parse_chart(chart.to_text())
    pt = np.array([0.2, -0.3])
    a = chart.component_jets(pt, 3)
    b = again.component_jets(pt, 3)
    assert np.allclose(a, b, atol=0)


def test_unary_minus_negates_a_power():
    # -u1^2 is -(u1^2), as in Python and sympy; (-u1)^2 keeps its value
    point = np.array([0.3, -0.7])
    neg = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = -u1^2 - u2^2;")
    sub = parse_chart("dim 2; x1 = u1; x2 = u2; x3 = 0 - u1^2 - u2^2;")
    assert np.array_equal(neg.component_jets(point, 4), sub.component_jets(point, 4))
    assert neg.components[2].left == Unary("neg", Pow(Var(0), Fraction(2)))
    square = parse_chart("dim 1; x1 = u1; x2 = (-u1)^2;")
    assert square.component_jets(np.array([0.5]), 2)[1].tolist() == [0.25, 1.0, 1.0]
    for chart in (neg, square):
        again = parse_chart(chart.to_text())
        assert again.components == chart.components
    # a chained exponent stays an error after a minus, as without one
    for text in ("u1^2^3", "-u1^2^3"):
        with pytest.raises(ChartParseError, match="expected ';', found '\\^'"):
            parse_chart(f"dim 1; x1 = u1; x2 = {text};")


def test_max_depth_counts_each_unary_minus():
    parse_chart("dim 1; x1 = u1; x2 = " + "-" * (MAX_DEPTH - 2) + "u1^2;")  # negations, power, variable
    for text in ("-" * (MAX_DEPTH - 1) + "u1^2", "-" * (MAX_DEPTH + 1) + "u1"):
        with pytest.raises(ChartParseError, match=f"nests deeper than MAX_DEPTH = {MAX_DEPTH}"):
            parse_chart(f"dim 1; x1 = u1; x2 = {text};")


def test_sample_points_reproducible_and_in_domain():
    chart = DslChart(*parse_source(SPHERE), domain_hint=([-0.2, -0.1], [0.3, 0.4]))
    p1 = chart.sample_points(4, 9)
    p2 = chart.sample_points(4, 9)
    assert np.array_equal(p1, p2)
    assert np.all(p1 >= [-0.2, -0.1]) and np.all(p1 <= [0.3, 0.4])


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-0.6, max_value=0.6),
    st.floats(min_value=-0.6, max_value=0.6),
)
def test_sphere_components_on_sphere(u, v):
    if u * u + v * v > 0.9:
        return
    chart = parse_chart(SPHERE)
    comp = chart.component_jets(np.array([u, v]), 1)
    vals = comp[:, 0]
    assert np.dot(vals, vals) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "dim, expr, point",
    [
        (2, "C0*sin(u1)*cos(u2) + log(2 + u1^2) + sqrt(3 + u2)^(-3/2) + u1^3/(2 - u2) - exp(u1*u2)", [0.3, -0.2]),
        (1, "C0*cos(u1)^2/sin(1 + u1) + log(2 + u1^2)^(-5/3) - sqrt(exp(u1) + 3)/(u1 - 4)", [0.45]),
    ],
    ids=["n2", "n1"],
)
def test_jets_match_symbolic_derivatives(dim, expr, point):
    # an oracle independent of the jet code: sympy differentiates the same
    # source text, and each coefficient must be d^alpha f / alpha!
    sympy = pytest.importorskip("sympy")
    assert all(f"{name}(" in expr for name in FUNCS) and "/" in expr and "^(-" in expr and "C0" in expr
    coords = "".join(f"x{i + 1} = u{i + 1}; " for i in range(dim))
    chart = parse_chart(f"dim {dim}; param C0 = 1.5; {coords}x{dim + 1} = {expr};")
    got = chart.component_jets(np.array(point), 4)[dim]

    u = sympy.symbols(f"u1:{dim + 1}")
    f = sympy.sympify(expr.replace("^", "**"), locals={"C0": sympy.Rational(3, 2), **{s.name: s for s in u}})
    at = {s: sympy.Float(p, 30) for s, p in zip(u, point)}
    want = []
    for alpha in monomials(dim, 4):
        d = f
        for s, k in zip(u, alpha):
            d = sympy.diff(d, s, k)
        want.append(float(d.evalf(30, subs=at)) / np.prod([math.factorial(k) for k in alpha]))
    want = np.array(want)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize(
    "expr, bound",
    [
        ("u1^2*u2", 3),
        ("0.5*(u1^2+u2^2)", 2),
        ("u1/2", 1),
        ("u1/u2", 4),
        ("sqrt(4)", 0),
        ("u1^(-1)", 4),
        ("4^(-1) * u2", 1),
        ("-u1 + C0", 1),
        ("u1 - u1", 1),
        ("u1^3*u2^2", 4),
        ("(u1 + 1)^0", 0),
        ("u1^(1/2)", 4),
        ("exp(u1)", 4),
        ("sin(C0)*u1^2/cos(1)", 2),
        ("u1*u1*u1*u1*u1", 4),
    ],
)
def test_degree_bounds_table(expr, bound):
    """The bounds as an order-4 product clamps them (None: unbounded)."""
    chart = parse_chart(f"dim 2; param C0 = 2; x1 = u1; x2 = u2; x3 = {expr};")
    root = chart.components[2]
    for got in (degree_bounds([root])[id(root)], chart.bounds[id(root)]):
        assert (4 if got is None else min(got, 4)) == bound


@pytest.mark.parametrize(
    "expr, bound",
    [("u1^3*u2^2", 5), ("u1*u1*u1*u1*u1", 5), ("(u1^3)^2", 6), ("(u1*u2)^4 / 3", 8), ("sqrt(4)", 0),
     ("exp(u1)", None), ("u1/u2", None), ("u1^(-1)", None), ("u1^(1/2)", None), ("exp(u1)^0", 0)],
)
def test_degree_bounds_are_unclamped(expr, bound):
    """Bounds hold at every jet order: past any order, or None for a node
    that is no polynomial."""
    root = parse_chart(f"dim 2; x1 = u1; x2 = u2; x3 = {expr};").components[2]
    assert degree_bounds([root])[id(root)] == bound


def _ast(leaf_values):
    """Random expression trees over u1, u2 and the constants ``leaf_values``."""
    leaves = st.one_of(st.builds(Num, leaf_values), st.builds(Var, st.integers(0, 1)))
    exponents = st.sampled_from([Fraction(k) for k in (0, 1, 2, 3, -1, -2)] + [Fraction(1, 2), Fraction(-3, 2)])

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(("neg",) + FUNCS), children),
            st.builds(Bin, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, exponents),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _nodes(expr):
    """Every node of an expression tree, the root first."""
    todo, out = [expr], []
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(_children(node))
    return out


@settings(max_examples=60, deadline=None)
@given(_ast(st.floats(min_value=-2.0, max_value=2.0)), st.floats(0.1, 0.9), st.floats(-0.9, -0.1))
def test_degree_bounds_are_sound(expr, u1, u2):
    """On random expression trees, the unbounded evaluation of every node
    is exactly zero above the node's bound, and the bounded evaluation of
    the tree equals the unbounded one up to rounding."""
    order = 4
    bounds = degree_bounds([expr])
    unbounded = defaultdict(lambda: None)
    var_jets = jet_variables([u1, u2], order)
    try:
        with np.errstate(all="raise"):
            for node in _nodes(expr):
                full = eval_expr(node, var_jets, {}, unbounded)
                assert bounds[id(node)] is None or not full[jet_size(2, bounds[id(node)]) :].any(), node
            want = eval_expr(expr, var_jets, {}, unbounded)
            got = eval_expr(expr, var_jets, {}, bounds)
    except (JetDomainError, FloatingPointError):
        assume(False)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _ast_of_depth(dim: int, depth: int, polynomial: bool = False):
    """Expression trees over u1..u{dim} of at most ``depth`` levels: sums,
    differences, products, quotients by constants and by expressions,
    integer powers (nested ones past order 5 too), rational powers and the
    five functions, or with ``polynomial`` only sums, differences, products
    and integer powers k >= 0 of the variables, so that products of
    polynomials of degree 2 and more are common."""
    leaves = st.builds(Var, st.integers(0, dim - 1))
    if not polynomial:
        leaves = st.one_of(st.builds(Num, st.floats(-2.0, 2.0)), leaves)
    if depth == 1:
        return leaves
    poly = _ast_of_depth(dim, depth - 1, polynomial=True)
    branches = [leaves] * (depth <= 3) + [st.builds(Bin, st.sampled_from("+-*"), poly, poly),
                st.builds(Pow, poly, st.sampled_from([Fraction(k) for k in (0, 2, 3, 6)]))]
    if not polynomial:
        child = _ast_of_depth(dim, depth - 1)
        exponents = st.sampled_from([Fraction(k) for k in (1, 2, 4, -1, -2)] + [Fraction(1, 2), Fraction(-3, 2)])
        constants = st.builds(Num, st.floats(0.25, 4.0) | st.floats(-4.0, -0.25))
        branches += [
            st.builds(Unary, st.sampled_from(("neg",) + FUNCS), child),
            st.builds(Bin, st.sampled_from("+-*/"), child, child),
            st.builds(Bin, st.just("*"), child, child),
            st.builds(Bin, st.just("/"), child, constants),
            st.builds(Pow, child, exponents),
        ]
    return st.one_of(branches)


def _series_sizes(func, x: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """sum_k |c_k| D^k with c_k the Taylor coefficients of ``func`` at the
    value part of x and D the sizes of x's other terms."""
    order = jets.jet_index(n, len(x)).order
    coeffs = np.abs(func(jet_variables([x[0]], order)[0], 1))
    d = sizes.copy()
    d[0] = 0.0
    out = np.zeros(len(x))
    for c in coeffs[::-1]:
        out = jet_mul(out, d, n)
        out[0] += c
    return out


def _with_term_sizes(expr, var_jets: np.ndarray):
    """(jet, sizes): the unbounded evaluation of an AST and, coefficient by
    coefficient, the sum of the absolute values of the terms it adds up."""
    n = var_jets.shape[-2]
    if isinstance(expr, (Num, Var)):
        value = eval_expr(expr, var_jets, {}, {})
        return value, np.abs(value)
    if isinstance(expr, Unary):
        x, sx = _with_term_sizes(expr.arg, var_jets)
        if expr.op == "neg":
            return -x, sx
        func = jets.ELEMENTARY[expr.op]
        return func(x, n), _series_sizes(func, x, sx, n)
    if isinstance(expr, Bin):
        (a, sa), (b, sb) = _with_term_sizes(expr.left, var_jets), _with_term_sizes(expr.right, var_jets)
        if expr.op in "+-":
            return (a + b if expr.op == "+" else a - b), sa + sb
        if expr.op == "*":
            return jet_mul(a, b, n), jet_mul(sa, sb, n)
        return jet_mul(a, jets.recip(b, n), n), jet_mul(sa, _series_sizes(jets.recip, b, sb, n), n)
    x, sx = _with_term_sizes(expr.base, var_jets)
    k = expr.exponent
    if k.denominator == 1 and k >= 0:
        return jets.power(x, k, n), jets.power(sx, k, n)
    if k.denominator == 1:
        y, sy = jets.power(x, -k, n), jets.power(sx, -k, n)
        return jets.recip(y, n), _series_sizes(jets.recip, y, sy, n)
    func = lambda y, m: jets.power(y, k, m)  # noqa: E731
    return func(x, n), _series_sizes(func, x, sx, n)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    _ast_of_depth(dim, 6), st.lists(st.floats(0.1, 0.9), min_size=dim, max_size=dim))))
@example((Bin("*", Pow(Pow(Var(0), Fraction(3)), Fraction(2)), Bin("+", Var(0), Num(1.0))), [0.5]))
@example((Bin("/", Pow(Bin("*", Var(0), Var(1)), Fraction(4)), Num(3.0)), [0.5, 0.3]))
@example((Bin("*", Bin("*", Bin("+", Pow(Var(0), Fraction(2)), Var(1)), Bin("-", Pow(Var(1), Fraction(2)), Var(2))), Var(0)),
          [0.5, 0.3, 0.7]))
@example((Bin("*", Bin("/", Var(0), Bin("+", Var(1), Num(2.0))), Var(0)), [0.5, 0.3]))
@example((Bin("*", Unary("sin", Var(0)), Var(1)), [0.5, 0.3]))
def test_degree_bounds_never_change_a_coefficient(case):
    """A chart's degree bounds leave every coefficient of its evaluation as
    the unbounded evaluation gives it, at orders 1 to 5, up to rounding
    relative to the sum of the absolute values of the terms; points where
    a function is outside its domain or a value leaves float range are
    skipped."""
    expr, point = case
    dim = len(point)
    chart = DslChart(dim, [Var(i) for i in range(dim)] + [expr])
    unbounded = defaultdict(lambda: None)
    try:
        with np.errstate(all="raise"):
            for order in range(1, 6):
                var_jets = jet_variables(point, order)
                got = chart.component_jets(np.array(point), order)[dim]
                want = eval_expr(expr, var_jets, {}, unbounded)
                _, sizes = _with_term_sizes(expr, var_jets)
                assert np.all(np.abs(got - want) <= 1e-12 * sizes), order
    except (JetDomainError, FloatingPointError):
        assume(False)
