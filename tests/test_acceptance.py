"""End-to-end acceptance checks.

Each test covers one numbered acceptance item at its stated tolerance and
runtime budget and emits one summary line (run with ``pytest -s`` to see
the lines for passing items too).
"""

import io
import time

import numpy as np
import pytest

from equiaffine.blaschke import (
    blaschke_at,
    check_apolarity,
    check_codazzi,
    check_dual,
    check_gauss,
    check_hypersphere,
    nabla_A_norm,
)
from equiaffine.calabi import (
    CompositionSpec,
    closed_form,
    composition_residuals,
    compose_chart,
    mean_curvature_residuals,
)
from equiaffine.catalog import (
    elliptic_paraboloid,
    flat_factor,
    flat_hypersphere,
    hyperboloid,
    sl_so,
    unit_sphere,
)
from equiaffine.cli import jordan_selftest
from helpers import (
    TransformedChart,
    block_sparsity_residual,
    random_unimodular,
    sl_so_point,
)


def report(num, name, passed, detail=""):
    line = f"criterion {num} ({name}): {'pass' if passed else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def test_criterion_1_flat_hypersphere_reference_values():
    t0 = time.time()
    chart = flat_hypersphere(2, 1.0)
    inv = blaschke_at(chart, np.zeros(2))
    c = 3.0**-0.25
    errs = {
        "L1": abs(inv.L1 - (-(3.0**-0.75))),
        "J": abs(inv.J - 3.0**-0.75),
        "g11": abs(inv.g[0, 0] - 2 * c),
        "A111": abs(inv.A[0, 0, 0]),
        "A112": abs(inv.A[0, 0, 1] - c),
    }
    elapsed = time.time() - t0
    ok = max(errs.values()) < 1e-8 and elapsed < 1.0
    report(1, "flat hypersphere values", ok, f"max_err={max(errs.values()):.2e}, {elapsed:.2f}s")


def test_criterion_2_mean_curvature_closed_form_family():
    worst = 0.0
    for n0 in (1, 2, 3):
        for C0 in (0.5, 1.0, 2.0):
            spec = CompositionSpec(r=n0 + 1, factors=(), constants=(1.0,) * n0 + (C0,))
            cf = closed_form(spec)
            explicit = -((n0 + 1.0) ** (-(n0 + 1.0) / (n0 + 2.0))) * C0 ** (-2.0 / (n0 + 2.0))
            assert cf.L1 == explicit or abs(cf.L1 - explicit) < 1e-15
            inv = blaschke_at(compose_chart(spec), np.zeros(n0))
            worst = max(worst, abs(inv.L1 - cf.L1))
    report(2, "closed-form mean curvature", worst < 1e-6, f"max_err={worst:.2e}")


def test_criterion_3_composition_oracle_equivalence():
    t0 = time.time()
    specs = {
        "(1,1)": CompositionSpec(r=1, factors=(flat_factor(2, 1.0),), constants=(1.0, 1.0)),
        "(0,2)": CompositionSpec(
            r=0, factors=(flat_factor(1, 1.0), flat_factor(2, 1.0)), constants=(1.0, 1.0)
        ),
        "(2,1)": CompositionSpec(r=2, factors=(flat_factor(2, 1.0),), constants=(1.0, 1.0, 1.0)),
    }
    worst = sparsity = 0.0
    for spec in specs.values():
        chart = compose_chart(spec)
        points = chart.sample_points(5, 101)
        for residual in composition_residuals(spec, blaschke_at(chart, points)).values():
            worst = max(worst, float(np.max(residual)))
        inv = blaschke_at(chart, points[0])
        sparsity = max(sparsity, block_sparsity_residual(spec, inv))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and sparsity < 1e-8 and elapsed < 30.0
    report(3, "composition oracle", ok, f"resid={worst:.2e}, sparsity={sparsity:.2e}, {elapsed:.1f}s")


def test_criterion_4_mean_curvature_relations():
    spec = CompositionSpec(r=0, factors=(flat_factor(1, 1.0), flat_factor(2, 1.0)), constants=(1.0, 1.0))
    chart = compose_chart(spec)
    lo, hi = chart.domain_hint
    inv = blaschke_at(chart, 0.5 * (lo + hi))  # t = 0, each factor at its domain midpoint
    residuals = mean_curvature_residuals(spec, inv)
    worst = max(residuals.values())
    assert any("cross" in name for name in residuals)
    report(4, "factor mean-curvature relations", worst < 1e-6, f"max_err={worst:.2e}")


def test_criterion_5_quadrics():
    worst_a = worst_j = worst_sphere = worst_l1 = 0.0
    for chart, L1 in ((unit_sphere(2), 1.0), (elliptic_paraboloid(2), 0.0), (hyperboloid(2), None)):
        for point in chart.sample_points(3, 7):
            inv = blaschke_at(chart, point)
            worst_a = max(worst_a, float(np.max(np.abs(inv.A))))
            worst_j = max(worst_j, abs(inv.J))
            worst_sphere = max(worst_sphere, *check_hypersphere(inv).values())
            if L1 is not None:
                worst_l1 = max(worst_l1, abs(inv.L1 - L1))
    ok = worst_a < 1e-8 and worst_j < 1e-10 and worst_sphere < 1e-8 and worst_l1 < 1e-8
    report(5, "quadrics", ok, f"A={worst_a:.2e}, J={worst_j:.2e}, sphere={worst_sphere:.2e}")


def test_criterion_6_sl3_symmetric_space():
    t0 = time.time()
    chart = sl_so(3)
    worst = 0.0
    for point in chart.sample_points(5, 41):
        inv = blaschke_at(chart, point)
        worst = max(
            worst,
            *check_hypersphere(inv).values(),
            nabla_A_norm(inv)["parallel"],
            check_apolarity(inv)["apolarity"],
            check_gauss(inv)["gauss"],
            check_codazzi(inv)["codazzi"],
        )
    # rotation equivariance of the eigen-invariants
    rng = np.random.default_rng(43)
    u = rng.uniform(-0.2, 0.2, chart.dim)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    a, b = blaschke_at(chart, u), blaschke_at(chart, sl_so_point(3, u, Q))
    equiv = max(
        abs(a.L1 - b.L1),
        abs(a.J - b.J),
        abs(a.chi - b.chi),
        float(np.max(np.abs(np.linalg.eigvalsh(a.g) - np.linalg.eigvalsh(b.g)))),
        float(
            np.max(
                np.abs(
                    np.sort(np.linalg.eigvals(a.g_inv @ a.B).real)
                    - np.sort(np.linalg.eigvals(b.g_inv @ b.B).real)
                )
            )
        ),
    )
    elapsed = time.time() - t0
    ok = worst < 1e-6 and equiv < 1e-7 and elapsed < 60.0
    report(6, "sl(3)/so(3) orbit", ok, f"resid={worst:.2e}, equiv={equiv:.2e}, {elapsed:.1f}s")


def test_criterion_7_duality_swap():
    # the pipeline's curvature on hyperbolic spheres against the Lagrangian
    # Gauss equation of the dual data; minimality is apolarity
    spec = CompositionSpec(r=1, factors=(flat_factor(1, 1.0), flat_factor(2, 1.0)), constants=(1.0, 2.0, 0.5))
    charts = [hyperboloid(n) for n in range(2, 7)] + [sl_so(3), flat_hypersphere(3, 1.0), compose_chart(spec)]
    worst = 0.0
    for chart in charts:
        inv = blaschke_at(chart, chart.sample_points(4, 53))
        dual = check_dual(inv)
        worst = max(worst, dual["gauss_swap"].max())
        assert np.array_equal(dual["minimality"], check_apolarity(inv)["apolarity"])
        assert dual["minimality"].max() <= 1e-10
    report(7, "duality gauss swap", worst < 1e-12, f"max_resid={worst:.2e}")


def test_criterion_8_jordan_suite():
    t0 = time.time()
    out = io.StringIO()
    code = jordan_selftest(out)
    elapsed = time.time() - t0
    ok = code == 0 and elapsed < 5.0
    report(8, "jordan algebra suite", ok, f"exit={code}, {elapsed:.1f}s")


def test_criterion_9_unimodular_invariance():
    rng = np.random.default_rng(61)
    worst = 0.0
    for chart in (hyperboloid(2), flat_hypersphere(2, 1.0), unit_sphere(2)):
        point = chart.sample_points(1, 2)[0]
        M = random_unimodular(chart.ambient_dim, rng)
        moved = TransformedChart(chart, M, b=rng.standard_normal(chart.ambient_dim))
        a, b = blaschke_at(chart, point), blaschke_at(moved, point)
        sa = np.sort(np.linalg.eigvals(a.g_inv @ a.B).real)
        sb = np.sort(np.linalg.eigvals(b.g_inv @ b.B).real)
        worst = max(worst, abs(a.L1 - b.L1), abs(a.J - b.J), float(np.max(np.abs(sa - sb))))
    report(9, "unimodular invariance", worst < 1e-8, f"max_err={worst:.2e}")
