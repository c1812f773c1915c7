"""Accuracy ledger: the pipeline's rounding on charts with exact invariants.

Each case runs ``blaschke_at`` at seeded sample points of a chart whose
invariants are known in closed form and measures the error in units of
machine epsilon, its mean and its max over the points.  The hyperboloid
x_{n+1}^2 - |x|^2 = 1 has L1 = -1 exactly; ``flat_hypersphere`` has
constant g, A and L1 in its composition coordinates, given by
``calabi.closed_form``, and so has the t-block of g and A of any Calabi
composition.  Errors are relative to the largest entry of the closed form.
The orbit charts ``sl_so`` and ``herm3`` have no closed form here; their
L1 is held against the volume condition's L1* of
``calabi.centroaffine_L1``, which shares none of the pipeline's
normalization, relative to |L1*|.

The bounds are the measured figures (seed 7, numpy 2 on x86-64) with
headroom: 1.4 times the measured mean and 1.5 times the measured max,
rounded up.  A change that moves rounding past them fails here, so the
ledger moves with a reason in the change log.  The hyperboloid's mean
bounds are below the figures of (eps G'0)^{-1} taken from ``eigh`` without
its one refinement step (1.79, 2.39 and 1.98 eps at n = 2, 7 and 14).
"""

import numpy as np
import pytest

from equiaffine import blaschke_at
from equiaffine.calabi import CompositionSpec, HypersphereFactor, centroaffine_L1, compose_chart
from equiaffine.catalog import flat_hypersphere, herm3, hyperboloid, sl_so

EPS = np.finfo(float).eps
SEED = 7


def errors(chart, points, error) -> np.ndarray:
    """``error(invariants)`` at each point, in units of eps."""
    return np.array([error(blaschke_at(chart, point)) for point in chart.sample_points(points, SEED)]) / EPS


def relative(value, exact) -> float:
    return float(np.max(np.abs(np.asarray(value) - exact)) / np.max(np.abs(exact)))


# (n, points, mean bound, max bound), errors |L1 + 1| / eps; measured
# mean and max: n = 2: 1.04, 6.0; n = 7: 1.03, 4.5; n = 14: 0.73, 4.0
HYPERBOLOID = [(2, 400, 1.5, 9.0), (7, 100, 1.5, 7.0), (14, 20, 1.1, 6.0)]


@pytest.mark.parametrize("n, points, mean_bound, max_bound", HYPERBOLOID, ids=[f"n{n}" for n, *_ in HYPERBOLOID])
def test_hyperboloid_mean_curvature(n, points, mean_bound, max_bound):
    err = errors(hyperboloid(n), points, lambda inv: abs(inv.L1 + 1.0))
    assert err.mean() <= mean_bound and err.max() <= max_bound, (err.mean(), err.max())


# (n0, invariant, mean bound, max bound), relative errors / eps over 100
# points; measured mean and max:
#   n0 = 2: L1 0.88, 2.8; g 0.54, 1.3; A 0.99, 2.3
#   n0 = 5: L1 1.32, 4.1; g 1.36, 3.9; A 1.92, 4.5
FLAT = [
    (2, "L1", 1.3, 4.5), (2, "g", 0.8, 2.0), (2, "A", 1.4, 3.5),
    (5, "L1", 1.9, 6.5), (5, "g", 2.0, 6.0), (5, "A", 2.7, 7.0),
]


@pytest.mark.parametrize("n0, name, mean_bound, max_bound", FLAT, ids=[f"n0{n0}-{name}" for n0, name, *_ in FLAT])
def test_flat_hypersphere_against_its_closed_form(n0, name, mean_bound, max_bound):
    chart = flat_hypersphere(n0)
    exact = {"L1": chart.spec.closed_form.L1, "g": chart.spec.closed_form.g_t_block,
             "A": chart.spec.closed_form.A_ttt}[name]
    err = errors(chart, 100, lambda inv: relative(getattr(inv, name), exact))
    assert err.mean() <= mean_bound and err.max() <= max_bound, (err.mean(), err.max())


# (invariant, mean bound, max bound) of the r = 1 composition with one
# hyperboloid(2) factor (L1 = -1) and constants (1, 1), the chart of the
# golden composition scene, n = 3: L1, and the t-blocks of g and A (the
# first coordinate), relative errors / eps over 100 points; measured mean
# and max: L1 1.00, 3.1; g 0.72, 2.9; A 1.10, 3.6
COMPOSITION = [("L1", 1.4, 5.0), ("g", 1.1, 4.5), ("A", 1.6, 5.5)]


@pytest.mark.parametrize("name, mean_bound, max_bound", COMPOSITION, ids=[name for name, *_ in COMPOSITION])
def test_composition_t_block_against_its_closed_form(name, mean_bound, max_bound):
    spec = CompositionSpec(r=1, factors=(HypersphereFactor(hyperboloid(2), -1.0),), constants=(1.0, 1.0))
    closed, t = spec.closed_form, spec.K - 1
    exact, block = {"L1": (closed.L1, ()), "g": (closed.g_t_block, (slice(t),) * 2),
                    "A": (closed.A_ttt, (slice(t),) * 3)}[name]
    err = errors(compose_chart(spec), 100, lambda inv: relative(getattr(inv, name)[block], exact))
    assert err.mean() <= mean_bound and err.max() <= max_bound, (err.mean(), err.max())


# (chart, mean bound, max bound), errors |L1 - L1*| / |L1*| / eps over 100
# points, L1* from the volume condition |L1*|^(m+2) = |det h| / det N0^2;
# measured mean and max: sl_so(3) (n = 5) 1.49, 4.8; herm3(2) (n = 8) 1.59, 5.3
VOLUME = [("sl_so(3)", 2.1, 7.5), ("herm3(2)", 2.3, 8.0)]
ORBIT_CHARTS = {"sl_so(3)": lambda: sl_so(3), "herm3(2)": lambda: herm3(2)}


@pytest.mark.parametrize("name, mean_bound, max_bound", VOLUME, ids=[name for name, *_ in VOLUME])
def test_orbit_mean_curvature_against_the_volume_condition(name, mean_bound, max_bound):
    chart = ORBIT_CHARTS[name]()
    err = errors(chart, 100, lambda inv: relative(inv.L1, centroaffine_L1(chart, inv.point)))
    assert err.mean() <= mean_bound and err.max() <= max_bound, (err.mean(), err.max())
