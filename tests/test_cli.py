"""CLI: scenes, determinism, subcommands and exit codes."""

import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import equiaffine
from equiaffine import blaschke, calabi, catalog, cli, duality, jordan
from equiaffine.blaschke import blaschke_at
from equiaffine.cli import (
    DEFAULT_TOL,
    MAX_RANDOM_POINTS,
    SceneError,
    build_composition,
    build_parser,
    catalog_list,
    check_line,
    fmt,
    jordan_selftest,
    main,
    parse_chart_flag,
    resolve_chart,
    resolve_points,
    run_scene,
)
from equiaffine.dsl import MAX_DEPTH, MAX_DIM
from equiaffine.jets import jet_size


def run(scene):
    out = io.StringIO()
    code = run_scene(scene, out)
    return code, out.getvalue()


FLAT_SCENE = {
    "chart": {"catalog": "flat_hypersphere", "params": {"n0": 2, "C0": 1}},
    "points": {"random": 3, "seed": 42},
    "checks": "all",
}


def test_flat_scene_passes_and_reports_L1():
    code, report = run(dict(FLAT_SCENE))
    assert code == 0
    assert report.startswith("schema: 1\n")
    assert report.count("L1: -0.4386913376508") == 3
    assert "status: pass" in report
    assert "FAIL" not in report


def test_reports_are_byte_identical():
    _, r1 = run(dict(FLAT_SCENE))
    _, r2 = run(dict(FLAT_SCENE))
    assert r1 == r2


def test_non_sphere_graph_fails_hypersphere_check():
    scene = {
        "chart": {"dsl": "dim 2; x1 = u1; x2 = u2; x3 = u1^4 + u2^2;"},
        "points": [[1.0, 1.0]],
        "checks": ["hypersphere"],
    }
    code, report = run(scene)
    assert code == 1
    assert "hypersphere_shape" in report and "FAIL" in report
    assert "status: FAIL" in report


def test_explicit_points_and_tolerance_override():
    scene = {
        "chart": {"catalog": "hyperboloid", "params": {"n": 2}},
        "points": [[0.1, 0.2], [0.0, 0.3]],
        "checks": ["hypersphere", "apolarity"],
        "tolerances": {"hypersphere": 1e-12},
    }
    code, report = run(scene)
    assert code == 0
    assert "tol=1e-12" in report


def test_composition_scene():
    scene = {
        "chart": {"composition": {"r": 1, "factors": [{"flat": {"n0": 1}}], "constants": [1, 1]}},
        "points": {"random": 2, "seed": 7},
        "checks": ["composition", "mean_curvature", "hypersphere"],
    }
    code, report = run(scene)
    assert code == 0
    assert "composition_g[0]" in report
    assert "mean_curvature_diag[1]" in report


# r=1 plus hyperboloid(n=2), n=3, at 4 points, all checks
HYPERBOLOID_COMPOSITION = {
    "chart": {
        "composition": {
            "r": 1,
            "constants": [1.0, 1.0],
            "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}}, "L1": -1.0}],
        }
    },
    "points": [[0.1, 0.2, -0.3], [-0.2, 0.0, 0.4], [0.25, -0.45, 0.1], [0.0, 0.3, 0.3]],
    "checks": "all",
}


def test_composition_scene_runs_pipeline_once_per_point(monkeypatch):
    calls = []

    def counted(chart, points):
        calls.append((isinstance(chart, calabi.ComposedChart), np.shape(points)))
        return blaschke_at(chart, points)

    monkeypatch.setattr(cli, "blaschke_at", counted)
    monkeypatch.setattr(calabi, "blaschke_at", counted)
    code, _ = run(HYPERBOLOID_COMPOSITION)
    assert code == 0
    # one stack of the 4 composed points (point 0 also serves the
    # mean-curvature relations), one stack of their 4 factor points
    assert calls == [(True, (4, 3)), (False, (4, 2))]


def test_composition_scene_runs_each_check_once_per_stack(monkeypatch):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    checks = ("check_apolarity", "check_gauss", "check_ricci", "check_codazzi", "check_trace_identity",
              "check_gauss_alt", "check_hypersphere", "nabla_A_norm")
    for name in checks + ("cov_deriv_sym3", "_hypersphere_residuals"):
        count(blaschke, name)
    for name in ("check_gauss_swap", "check_trace_free"):
        count(duality, name)
    code, _ = run(HYPERBOLOID_COMPOSITION)
    assert code == 0
    # the 4 points are one stack: one call of each check, one nabla A and one
    # computation of the hypersphere residuals (which composition_reports reuses)
    assert calls == {**dict.fromkeys(checks, 1), "cov_deriv_sym3": 1, "_hypersphere_residuals": 1,
                     "check_gauss_swap": 1, "check_trace_free": 1}


def test_scene_report_is_the_same_in_any_stack_size(monkeypatch):
    scenes = [
        {**HYPERBOLOID_COMPOSITION, "points": {"random": 7, "seed": 4}},
        # the dual check's stacked branch, at n = 5
        {"chart": {"catalog": "sl_so", "params": {"m": 3}}, "points": {"random": 7, "seed": 4},
         "checks": ["dual", "apolarity"]},
    ]
    sizes = []

    def counted(chart, points):
        sizes.append(len(points))
        return blaschke_at(chart, points)

    for scene in scenes:
        _, whole = run(scene)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "blaschke_at", counted)
            dim = resolve_chart(scene["chart"])[0].dim
            patch.setattr(cli, "STACK_COEFFS", 2 * jet_size(dim, 4))  # two points per stack
            assert run(scene) == (0, whole)
        assert sizes == [2, 2, 2, 1]
        sizes.clear()


@pytest.mark.parametrize("size", [1, 3])
def test_first_failing_point_names_the_error(tmp_path, capsys, monkeypatch, size):
    # point 1 fails convexity (x2'' = 0 there) before point 2 reaches log's
    # domain error, although chart evaluation of a whole stack meets the
    # domain error first
    monkeypatch.setattr(cli, "STACK_COEFFS", size * jet_size(1, 4))
    chart = {"dsl": "dim 1; x1 = u1; x2 = u1^3 + 0 * log(u1 + 1);"}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[0.5], [0.0], [-2.0]])])
    assert (code, line) == (3, "chart error: point 1: chart is not locally strongly convex at [0.] "
                               "(form eigenvalues [0.])")


def test_composition_lines_match_verify_composition():
    _, report = run(HYPERBOLOID_COMPOSITION)
    spec = build_composition(HYPERBOLOID_COMPOSITION["chart"]["composition"])
    want = calabi.verify_composition(spec, HYPERBOLOID_COMPOSITION["points"], DEFAULT_TOL["composition"])
    got = [line for line in report.splitlines() if line.startswith("check composition_")]
    assert got == [check_line(rep) for rep in want]
    assert len(got) == 16


def test_nested_composition_scene_passes(monkeypatch):
    # the sphere factor is itself a composed chart
    inner = calabi.CompositionSpec(r=1, factors=(catalog.flat_factor(1, 1.0),), constants=(1.0, 1.0))
    entry = catalog.CatalogEntry(name="inner", summary="", params={}, builder=lambda: calabi.compose_chart(inner))
    monkeypatch.setitem(catalog.ENTRIES, "inner", entry)
    factor = {"catalog": {"name": "inner"}, "L1": calabi.closed_form(inner).L1}
    scene = {
        "chart": {"composition": {"r": 1, "constants": [1.0, 1.0], "factors": [factor]}},
        "points": {"random": 2, "seed": 3},
        "checks": "all",
    }
    code, report = run(scene)
    assert code == 0, report
    assert report.count("check composition_") == 8
    assert "check mean_curvature_diag[1]" in report


def test_scene_validation_errors():
    with pytest.raises(SceneError):
        run({"chart": {}, "points": [[0.0]]})
    with pytest.raises(SceneError):
        run({"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "checks": ["bogus"]})
    with pytest.raises(SceneError):
        run({"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "points": [[0.1]]})
    with pytest.raises(SceneError):
        run({"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "tolerances": {"nope": 1}})


def test_parse_chart_flag():
    assert parse_chart_flag("hyperboloid") == {"catalog": "hyperboloid"}
    doc = parse_chart_flag("flat_hypersphere(n0=2, C0=1.5)")
    assert doc == {"catalog": "flat_hypersphere", "params": {"n0": 2, "C0": 1.5}}
    with pytest.raises(SceneError):
        parse_chart_flag("x(n0=2")


def test_fmt_floats_round_trip():
    for x in (1.0 / 3.0, -0.43869133765083085, 1e-17):
        assert float(fmt(x)) == x


def test_main_exit_codes(tmp_path, capsys):
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(FLAT_SCENE))
    assert main(["check", "--scene", str(scene_file)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["check", "--scene", str(bad)]) == 2
    assert main(["check", "--chart", "unknown_chart(n=2)"]) == 3
    capsys.readouterr()


def test_main_out_file_and_overrides(tmp_path):
    report = tmp_path / "report.txt"
    code = main(
        [
            "check",
            "--chart",
            "hyperboloid(n=2)",
            "--points",
            "2",
            "--seed",
            "5",
            "--tol",
            "gauss=1e-5",
            "--out",
            str(report),
        ]
    )
    assert code == 0
    text = report.read_text()
    assert text.startswith("schema: 1")
    assert "tol=1e-05" in text


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_are_independent(capsys):
    argv = ["check", "--chart", "hyperboloid(n=2)", "--points", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--tol", "gauss=1e-30"]) == 1
    assert "tol=1e-30 FAIL" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--points", "three"])
    assert exc.value.code == 2
    assert "usage: equiaffine check" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_out_applies_to_its_own_call_only(tmp_path, capsys):
    report = tmp_path / "report.txt"
    argv = ["check", "--chart", "hyperboloid(n=2)", "--points", "1"]
    assert main(argv + ["--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == report.read_text()


def test_invariants_subcommand_no_checks(capsys):
    assert main(["invariants", "--chart", "unit_sphere(n=2)", "--points", "1", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "L1: " in text and "check " not in text


JORDAN_CHECKS = [
    ("octonion_norm_multiplicative", "1e-12"),
    ("octonion_alternative", "1e-12"),
    ("diag_offdiag_relations_1", "1e-12"),
    ("diag_offdiag_relations_2", "1e-12"),
    ("det_identity_is_one", "0.0"),
    ("det_rank_two_is_zero", "1e-15"),
    ("mult_operator_traceless", "1e-12"),
    ("bracket_operator_traceless", "1e-12"),
    ("gauss_formula_decomposition", "1e-12"),
    ("hypersphere_identity", "1e-10"),
    ("metric_positive_definite", "0.0"),
    ("cubic_form_apolar", "1e-10"),
]


def test_jordan_selftest_all_pass():
    out = io.StringIO()
    assert jordan_selftest(out) == 0
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["schema: 1", "suite: jordan"]
    # names, order, tolerances and status; the residual digits vary with numpy and BLAS
    pattern = re.compile(r"check (\w+): residual=(\S+) tol=(\S+) (pass|FAIL)")
    rows = [pattern.fullmatch(line).groups() for line in lines[2:14]]
    assert [(name, tol) for name, _, tol, _ in rows] == JORDAN_CHECKS
    assert all(status == "pass" and float(resid) <= 1e-13 for _, resid, _, status in rows)
    assert lines[14:] == ["summary:", "  checks: 12", "  failed: 0", "  status: pass"]


def test_jordan_selftest_samples_follow_the_per_sample_stream(monkeypatch):
    # each check's stack holds the draws a loop over single samples takes from default_rng(7)
    calls = []
    for name in ("oct_mul", "mult_operator", "bracket_operator", "gaussf_residual"):
        def record(*args, _fn=getattr(jordan, name), _name=name):
            calls.append((_name, args))
            return _fn(*args)
        monkeypatch.setattr(jordan, name, record)
    assert jordan_selftest(io.StringIO()) == 0

    rng = np.random.default_rng(7)
    def pairs(count):
        return np.array([[rng.standard_normal(8), rng.standard_normal(8)] for _ in range(count)])
    norm, alt, diag = pairs(1000), pairs(200), np.array([pairs(50) for _ in range(3)])
    T = np.array([jordan.random_traceless_coords(rng) for _ in range(30)])
    A = np.array([jordan.random_skew_offdiag(rng) for _ in range(30)])
    XY = np.array([[jordan.random_traceless_coords(rng) for _ in range(2)] for _ in range(20)])
    oct_args = {}  # the first oct_mul call of each sample shape takes the raw samples
    for name, args in calls:
        if name == "oct_mul":
            oct_args.setdefault(args[0].shape, args)
    for want in (norm, alt, diag):
        assert all(np.array_equal(got, want[..., i, :]) for i, got in enumerate(oct_args[want.shape[:-2] + (8,)]))
    [(_, (T_seen,))] = [c for c in calls if c[0] == "mult_operator"]
    [(_, (A_seen,))] = [c for c in calls if c[0] == "bracket_operator"]
    [(_, (_, X, Y))] = [c for c in calls if c[0] == "gaussf_residual"]
    assert np.array_equal(T_seen, T) and np.array_equal(A_seen, A)
    assert np.array_equal(X, XY[:, 0]) and np.array_equal(Y, XY[:, 1])


def test_catalog_list_names_every_entry():
    out = io.StringIO()
    assert catalog_list(out) == 0
    text = out.getvalue()
    for name in ("flat_hypersphere", "unit_sphere", "elliptic_paraboloid", "hyperboloid", "sl_so", "graph"):
        assert name in text


def test_sl_so_m4_check_passes(capsys):
    # n = 9: the first CLI run of the symmetric hyperspheres above m = 3
    assert main(["check", "--chart", "sl_so(m=4)", "--points", "3"]) == 0
    report = capsys.readouterr().out
    assert "dim: 9\n" in report
    assert "FAIL" not in report and "status: pass" in report
    L1 = [float(line.split(": ")[1]) for line in report.splitlines() if line.startswith("  L1: ")]
    assert len(L1) == 3
    assert max(L1) - min(L1) <= 1e-10


def test_dual_subcommand(capsys):
    assert main(["dual", "--chart", "hyperboloid(n=2)", "--points", "2", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert "gauss_swap" in text and "minimality" in text


def test_dual_treats_rounding_level_l1_as_zero(capsys):
    # elliptic paraboloid: L1 = 0 up to rounding noise of either sign
    assert main(["dual", "--chart", "elliptic_paraboloid(n=3)", "--points", "4", "--seed", "1"]) == 1
    text = capsys.readouterr().out
    assert text.count("check dual_requires_hyperbolic: residual=1.0") == 4
    assert "gauss_swap" not in text and "minimality" not in text
    for chart in ("hyperboloid(n=3)", "sl_so(m=3)"):
        assert main(["dual", "--chart", chart, "--points", "3", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert text.count("check gauss_swap") == 3 and "dual_requires_hyperbolic" not in text


def error_line(capsys, argv):
    """Exit code and the single stderr line of a failing ``main`` run."""
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    return code, err.strip()


def scene_file(tmp_path, chart, points):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"chart": chart, "points": points}))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "chart, point",
    [
        ({"catalog": "unit_sphere", "params": {"n": 2}}, [0.99, 0.5]),  # off the hemisphere chart
        ({"dsl": "dim 1; x1 = u1; x2 = log(u1);"}, [-1.0]),
        ({"catalog": "hyperboloid", "params": {"n": 2}}, [1e200, 0.1]),  # jets overflow
    ],
)
def test_point_domain_errors_exit_3(tmp_path, capsys, chart, point):
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [point])])
    assert code == 3
    assert line.startswith("chart error: point 0: ")


def test_mean_curvature_point_domain_error_exits_3(tmp_path, capsys):
    # the mean-curvature relations use point 0's invariants, so the factor's
    # domain midpoint u1 = 0 (outside log's domain) is never evaluated
    text = "dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2) + 0 * log(u1);"
    factor = {"catalog": {"name": "graph", "params": {"text": text}}, "L1": -1}
    chart = {"composition": {"r": 1, "constants": [1, 1], "factors": [factor]}}
    assert main(["check", "--scene", scene_file(tmp_path, chart, [[0.1, 0.2, 0.1], [0.0, 0.3, -0.1]])]) == 0
    assert "check mean_curvature_diag[1]" in capsys.readouterr().out
    # a point 0 with u1 = 0 fails there
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[0.1, 0.0, 0.1]])])
    assert code == 3
    assert line == "chart error: point 0: log of non-positive value part 0.0"


FLAT1 = {"flat": {"n0": 1}}


@pytest.mark.parametrize(
    "composition, code, expected",
    [
        ({"r": 2, "constants": [1, 1, 1], "factors": [FLAT1, FLAT1]}, 2,
         "scene error: malformed composition spec: expected 4 constants"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 0}}]}, 3,
         "chart error: invalid parameters for 'flat': flat_hypersphere needs n0 >= 1"),
        ({"r": 1, "constants": [1, 1], "factors": ["flat"]}, 2, "scene error: unknown factor spec 'flat'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 0}}, "L1": -1}]},
         3, "chart error: invalid parameters for 'hyperboloid': hyperboloid needs n >= 1"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {}}]}, 2,
         "scene error: malformed composition factor {'flat': {}}: 'n0'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}}, "L1": 1}]},
         2, "scene error: malformed composition factor {'catalog': {'name': 'hyperboloid', 'params': {'n': 2}}, "
            "'L1': 1}: factor affine mean curvature must be negative"),
        ({"r": 1, "constants": [1, 1], "factors": 5}, 2, "scene error: malformed composition spec: 'int' object is not iterable"),
    ],
    ids=["constant-count", "flat-n0-0", "factor-not-object", "factor-params", "flat-no-n0", "factor-L1-positive",
         "factors-not-list"],
)
def test_composition_spec_errors_exit_with_one_line(tmp_path, capsys, composition, code, expected):
    argv = ["check", "--scene", scene_file(tmp_path, {"composition": composition}, {"random": 1})]
    assert error_line(capsys, argv) == (code, expected)


def factor_chart(name) -> dict:
    factor = {"catalog": {"name": name, "params": {"n": 2}}, "L1": -1}
    return {"composition": {"r": 1, "constants": [1, 1], "factors": [factor]}}


@pytest.mark.parametrize(
    "chart, code, expected",
    [
        ({"catalog": "nope"}, 3, "chart error: unknown catalog chart 'nope'; see catalog.ENTRIES"),
        (factor_chart("nope"), 3, "chart error: unknown catalog chart 'nope'; see catalog.ENTRIES"),
        ({"catalog": ["x"]}, 2, "scene error: catalog chart name must be a string, got ['x']"),
        (factor_chart(["x"]), 2, "scene error: catalog chart name must be a string, got ['x']"),
    ],
    ids=["unknown", "unknown-factor", "not-a-string", "not-a-string-factor"],
)
def test_catalog_name_errors_exit_with_one_line(tmp_path, capsys, chart, code, expected):
    argv = ["check", "--scene", scene_file(tmp_path, chart, {"random": 1})]
    assert error_line(capsys, argv) == (code, expected)


def test_non_finite_point_exits_2(tmp_path, capsys):
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[float("nan"), 0.1]])])
    assert code == 2
    assert line == "scene error: point coordinates must be finite"


@pytest.mark.parametrize("points", [{"random": -3}, {"random": 0}, []])
def test_empty_point_set_exits_2(tmp_path, capsys, points):
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, points)])
    assert code == 2
    assert line.startswith("scene error: ")


def test_negative_points_flag_exits_2(capsys):
    code, line = error_line(capsys, ["check", "--chart", "hyperboloid(n=2)", "--points", "-3"])
    assert code == 2
    assert line == "scene error: random point count must be at least 1, got -3"


def test_random_point_count_above_cap_exits_2(tmp_path, capsys, monkeypatch):
    # rejected up front; were the cap missing, the first evaluated point fails the test
    monkeypatch.setattr(cli, "blaschke_at", lambda chart, point: pytest.fail("a point was evaluated"))
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    over = MAX_RANDOM_POINTS + 1
    for argv in (["check", "--chart", "hyperboloid(n=2)", "--points", str(over)],
                 ["check", "--scene", scene_file(tmp_path, chart, {"random": over, "seed": 1})]):
        code, line = error_line(capsys, argv)
        assert code == 2
        assert line == "scene error: random point count must be at most 10000, got 10001"
    points = resolve_points({"random": MAX_RANDOM_POINTS}, catalog.get_chart("hyperboloid", {"n": 2}))
    assert points.shape == (10000, 2)


OVER = MAX_DIM + 1


@pytest.mark.parametrize(
    "chart, code, expected",
    [
        ({"dsl": f"dim {OVER};"}, 2, f"scene error: dim {OVER} is above MAX_DIM = {MAX_DIM} (line 1, column 5)"),
        ({"catalog": "hyperboloid", "params": {"n": OVER}}, 3,
         f"chart error: invalid parameters for 'hyperboloid': dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
        ({"catalog": "unit_sphere", "params": {"n": OVER}}, 3,
         f"chart error: invalid parameters for 'unit_sphere': dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
        ({"catalog": "elliptic_paraboloid", "params": {"n": OVER}}, 3,
         f"chart error: invalid parameters for 'elliptic_paraboloid': dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
        ({"catalog": "flat_hypersphere", "params": {"n0": OVER}}, 3,
         f"chart error: invalid parameters for 'flat_hypersphere': dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
        # m = 7 is the smallest m with m (m + 1) / 2 - 1 above 26
        ({"catalog": "sl_so", "params": {"m": 7}}, 3,
         f"chart error: invalid parameters for 'sl_so': dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
        # r + s - 1 + n_1 = 2 + 1 - 1 + 25
        ({"composition": {"r": 2, "constants": [1, 1, 1],
                          "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": OVER - 2}}, "L1": -1}]}}, 2,
         f"scene error: malformed composition spec: composition dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
    ],
    ids=["dsl", "hyperboloid", "unit_sphere", "elliptic_paraboloid", "flat_hypersphere", "sl_so", "composition"],
)
def test_dimension_above_max_dim_exits_with_one_line(tmp_path, capsys, monkeypatch, chart, code, expected):
    # catalog charts are refused before their text or basis is built
    if "catalog" in chart:
        for name in ("parse_chart", "_symmetric_basis", "compose_chart"):
            monkeypatch.setattr(catalog, name, lambda *a, **k: pytest.fail("a chart was built"))
    argv = ["check", "--scene", scene_file(tmp_path, chart, {"random": 1})]
    assert error_line(capsys, argv) == (code, expected)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("dim 1e400; x1 = u1;", "number 1e400 is out of range (line 1, column 5)"),
        ("dim 1; x1 = u1; x2 = u1^(1/0);", "zero denominator in exponent (line 1, column 28)"),
        ("dim 2.5; x1 = u1; x2 = u2; x3 = u1^2;", "dim must be a positive integer (line 1, column 5)"),
    ],
    ids=["overflowing-dim", "zero-denominator-exponent", "fractional-dim"],
)
def test_numeric_literal_errors_exit_2_with_one_line(tmp_path, capsys, text, expected):
    argv = ["check", "--scene", scene_file(tmp_path, {"dsl": text}, {"random": 1})]
    assert error_line(capsys, argv) == (2, f"scene error: {expected}")


@pytest.mark.parametrize(
    "expr",
    ["(" * 2000 + "u1" + ")" * 2000, "u1^2" + " + u1" * 3000, "-" * 3000 + "u1", "exp(" * 2000 + "u1" + ")" * 2000],
    ids=["nested-groups", "chain-of-sums", "nested-negations", "nested-calls"],
)
def test_deeply_nested_expression_exits_2_with_one_line(tmp_path, capsys, expr):
    argv = ["check", "--scene", scene_file(tmp_path, {"dsl": f"dim 1; x1 = u1; x2 = {expr};"}, [[0.1]])]
    code, line = error_line(capsys, argv)
    assert code == 2
    assert line.startswith(f"scene error: expression nests deeper than MAX_DEPTH = {MAX_DEPTH} (line 1, column ")


def test_expression_at_max_depth_evaluates(tmp_path, capsys):
    # MAX_DEPTH - 2 groups around a power; a chain of sums MAX_DEPTH levels deep
    grouped = "(" * (MAX_DEPTH - 2) + "u1^2" + ")" * (MAX_DEPTH - 2)
    chain = "u1^2" + " + 0 * u1" * (MAX_DEPTH - 2)
    for expr in (grouped, chain):
        argv = ["invariants", "--scene", scene_file(tmp_path, {"dsl": f"dim 1; x1 = u1; x2 = {expr};"}, [[0.1]])]
        assert main(argv) == 0
        assert "status: pass" in capsys.readouterr().out


def test_max_dim_charts_still_build():
    assert catalog.hyperboloid(MAX_DIM).dim == MAX_DIM
    assert catalog.sl_so(6).dim == 20
    factor = {"catalog": {"name": "hyperboloid", "params": {"n": MAX_DIM - 1}}, "L1": -1}
    spec = {"r": 1, "constants": [1, 1], "factors": [factor]}
    assert build_composition(spec).dim == MAX_DIM


def test_overflowing_point_prints_one_stderr_line():
    # a fresh process, so numpy's RuntimeWarning lines would reach the real stderr
    scene = {"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "points": [[1e200, 0.1]]}
    env = {**os.environ, "PYTHONPATH": str(Path(equiaffine.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "equiaffine.cli", "check", "--scene", "-"],
        input=json.dumps(scene), capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("chart error: point 0: ")


def test_missing_scene_file_exits_2(tmp_path, capsys):
    code, line = error_line(capsys, ["check", "--scene", str(tmp_path / "missing.json")])
    assert code == 2
    assert line.startswith("scene error: cannot read scene: ")


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "report.txt"
    code, line = error_line(capsys, ["check", "--chart", "hyperboloid(n=2)", "--out", str(out)])
    assert code == 2
    assert line.startswith("scene error: cannot write report: ")


def test_dual_check_validates_the_metric_once_per_stack(monkeypatch, capsys):
    calls = []
    check_definite = duality._check_definite

    def counted(g):
        calls.append(g.shape)
        return check_definite(g)

    monkeypatch.setattr(duality, "_check_definite", counted)
    assert main(["dual", "--chart", "sl_so(m=3)", "--points", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    # HyperspherePointData validates the stack; dualize's results are valid by construction
    assert calls == [(4, 5, 5)]
