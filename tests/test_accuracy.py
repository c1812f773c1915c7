"""Accuracy ledger: the pipeline's rounding on charts with exact invariants.

Each case runs ``blaschke_at`` at seeded sample points of a chart whose
invariants are known in closed form and measures the error in units of
machine epsilon, its mean and its max over the points.  The hyperboloid
x_{n+1}^2 - |x|^2 = 1 has L1 = -1 exactly; ``flat_hypersphere`` has
constant g, A and L1 in its composition coordinates, given by
``calabi.closed_form``.  Errors are relative to the largest entry of the
closed form.

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
from equiaffine.catalog import flat_hypersphere, hyperboloid

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
