"""Chart expression language: parsing, evaluation, errors, round-trips."""

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from equiaffine.jets import JetDomainError, jet_size, jet_variables, monomials

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
        eval_immersion(chart, np.array([0.1, 0.2]), 5)
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
    chart = parse_chart(f"dim 2; param C0 = 2; x1 = u1; x2 = u2; x3 = {expr};")
    root = chart.components[2]
    assert degree_bounds([root], 4)[id(root)] == bound
    assert chart.bounds[id(root)] == bound


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
    bounds = degree_bounds([expr], order)
    unbounded = defaultdict(lambda: order)
    var_jets = jet_variables([u1, u2], order)
    try:
        with np.errstate(all="raise"):
            for node in _nodes(expr):
                full = eval_expr(node, var_jets, {}, unbounded)
                assert not full[jet_size(2, bounds[id(node)]) :].any(), node
            want = eval_expr(expr, var_jets, {}, unbounded)
            got = eval_expr(expr, var_jets, {}, bounds)
    except (JetDomainError, FloatingPointError):
        assume(False)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
