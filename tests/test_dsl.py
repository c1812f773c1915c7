"""Chart expression language: parsing, evaluation, errors, round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiaffine.dsl import (
    ChartParseError,
    DslChart,
    ImmersionError,
    eval_chart_jet,
    parse_chart,
)

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
        eval_chart_jet(chart, np.array([0.0]), 2)
    comp = eval_chart_jet(chart, np.array([0.5]), 2)
    assert comp[0, 0] == pytest.approx(0.25)


def test_order_and_point_validation():
    chart = parse_chart(SPHERE)
    with pytest.raises(ValueError):
        eval_chart_jet(chart, np.array([0.1, 0.2]), 5)
    with pytest.raises(ValueError):
        eval_chart_jet(chart, np.array([0.1]), 2)


def test_round_trip_through_text():
    chart = parse_chart("dim 2; param b = 0.25; x1 = u1; x2 = u2; x3 = b*exp(u1*u2) - sin(u2)/3;")
    again = parse_chart(chart.to_text())
    pt = np.array([0.2, -0.3])
    a = chart.component_jets(pt, 3)
    b = again.component_jets(pt, 3)
    assert np.allclose(a, b, atol=0)


def test_sample_points_reproducible_and_in_domain():
    chart = parse_chart(SPHERE, domain_hint=([-0.2, -0.1], [0.3, 0.4]))
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
