"""CLI: scenes, determinism, subcommands and exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiaffine
from equiaffine import blaschke, calabi, catalog, cli, dsl, jordan, tensors
from equiaffine.blaschke import blaschke_at
from equiaffine.cli import (
    CHECKS,
    DEFAULT_TOL,
    MAX_RANDOM_POINTS,
    SceneError,
    build_parser,
    catalog_list,
    check_line,
    fmt,
    jordan_selftest,
    main,
    parse_chart_flag,
    read,
    resolve_chart,
    resolve_points,
    run_scene,
)
from equiaffine.dsl import MAX_DEPTH, MAX_DIM
from equiaffine.jets import jet_size
from helpers import scaled_hyperboloid_text


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
    # each point's block holds its composition and mean-curvature lines
    assert report.count("\n  check composition_g: ") == 2
    assert report.count("\n  check mean_curvature_diag[1]: ") == 2


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


# r=1 plus sl_so(m=3), n=6, at 3 points, all checks
SL3_COMPOSITION = {
    "chart": {
        "composition": {
            "r": 1,
            "constants": [1.0, 1.0],
            "factors": [{"catalog": {"name": "sl_so", "params": {"m": 3}}, "L1": -0.52487003541948}],
        }
    },
    "points": {"random": 3, "seed": 2},
    "checks": "all",
}


def test_sl_so_factor_composition_scene(monkeypatch):
    code, report = run(SL3_COMPOSITION)
    assert code == 0 and "status: pass" in report and "FAIL" not in report
    for name in ("composition_g", "composition_A", "composition_L1", "mean_curvature_diag[1]"):
        assert report.count(f"  check {name}: ") == 3, name
    # the hypersphere property is reported once, by the hypersphere check
    assert "composition_sphere" not in report
    assert report.count("check hypersphere_shape") == 3
    # the same report from stacks of one point
    monkeypatch.setattr(cli, "STACK_COEFFS", jet_size(6, 4))
    assert run(SL3_COMPOSITION) == (0, report)


def test_composition_scene_runs_pipeline_once_per_point(monkeypatch):
    calls = []
    derivatives = blaschke._chart_derivatives

    def counted(chart, points):  # the first step of every blaschke_at call, whoever makes it
        calls.append((isinstance(chart, calabi.ComposedChart), np.shape(points)))
        return derivatives(chart, points)

    monkeypatch.setattr(blaschke, "_chart_derivatives", counted)
    code, _ = run(HYPERBOLOID_COMPOSITION)
    assert code == 0
    # one stack of the 4 composed points, which also serves the composition
    # and mean-curvature checks: the factor blocks need no pipeline run
    assert calls == [(True, (4, 3))]


# a graph that is no affine sphere: x3 = sqrt(1 + |u|^2) plus a cubic term
CUBIC_GRAPH = "dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2) + 0.1*u1^3;"


@pytest.mark.parametrize("factor, failing", [
    # the factor block's reference is no multiple of the pipeline's A off an affine sphere
    ({"catalog": {"name": "graph", "params": {"text": CUBIC_GRAPH}}, "L1": -1}, ["composition_A"]),
    # a declared factor L1 off by 1e-4 moves the closed forms' constant C
    ({"catalog": {"name": "hyperboloid", "params": {"n": 2}}, "L1": -1.0001},
     ["composition_g", "composition_A", "composition_L1"]),
], ids=["cubic-graph", "wrong-L1"])
def test_a_bad_factor_fails_the_composition_check(tmp_path, capsys, factor, failing):
    chart = {"composition": {"r": 1, "constants": [1, 1], "factors": [factor]}}
    assert main(["compose", "--scene", scene_file(tmp_path, chart, {"random": 3, "seed": 1})]) == 1
    out = capsys.readouterr().out
    for name in failing:
        assert len(re.findall(rf"^  check {name}: .* FAIL$", out, flags=re.MULTILINE)) == 3, name


def test_composition_scene_runs_each_check_once_per_stack(monkeypatch):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    checks = ("check_apolarity", "check_gauss", "check_ricci", "check_codazzi", "check_trace_identity",
              "check_gauss_alt", "check_hypersphere", "nabla_A_norm", "check_dual")
    for name in checks + ("cov_deriv_sym3", "_hypersphere_residuals", "is_improper"):
        count(blaschke, name)
    for name in ("closed_form", "composition_residuals", "mean_curvature_residuals"):
        count(calabi, name)
    for name, build in blaschke.TERMS.items():
        def counted_term(inv, _name=f"term {name}", _build=build):
            calls[_name] += 1
            return _build(inv)
        monkeypatch.setitem(blaschke.TERMS, name, counted_term)
    evaluate = dsl.DslChart.component_jets

    def counted_jets(chart, point, order):
        calls["hyperboloid jets"] += 1
        return evaluate(chart, point, order)

    monkeypatch.setattr(dsl.DslChart, "component_jets", counted_jets)
    built = dsl.ChartDef.__init__

    def counted_build(chart, *args, **kwargs):
        calls["chart built"] += 1
        built(chart, *args, **kwargs)

    monkeypatch.setattr(dsl.ChartDef, "__init__", counted_build)
    cli.cached_chart.cache_clear()
    code, first = run(HYPERBOLOID_COMPOSITION)
    assert code == 0
    # the 4 points are one stack: one call of each check, and each term they
    # share built once (nabla A, the hypersphere residuals, ...); one closed form for the spec, and
    # one evaluation of the factor's jets, shared by the composed chart and
    # the composition check's centroaffine reference; three charts: the
    # factor, the weights' orbit and the composed chart.  check_dual's
    # minimality is the apolarity term, and the dual rows read the improper
    # term that the hypersphere term built
    per_run = {**dict.fromkeys(checks, 1), "cov_deriv_sym3": 1, "_hypersphere_residuals": 1, "is_improper": 1,
               "composition_residuals": 1, "mean_curvature_residuals": 1,
               **{f"term {name}": 1 for name in blaschke.TERMS}}
    assert calls == {**per_run, "closed_form": 1, "hyperboloid jets": 1, "chart built": 3}
    # the same scene again reuses the resolved chart, its spec's closed form
    # and its charts' last evaluation: every check runs, nothing is built
    calls.clear()
    code, again = run(HYPERBOLOID_COMPOSITION)
    assert code == 0 and again == first
    assert calls == per_run


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
            dim = resolve_chart(read("chart", scene["chart"], "chart"))[0].dim
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


def run_main(argv, stdin=""):
    """Exit code, stdout and stderr of one ``main`` call reading ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# points that fail the quartic chart below alone: a domain error of sqrt or
# log, jets that overflow, and a vanishing second derivative (convexity gate)
INJECTED_FAILURES = {"sqrt": -6.0, "log": -3.0, "overflow": 1e200, "convexity": 0.0}


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    good=st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=24, max_size=24),
    count=st.integers(1, 12),
    failures=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(INJECTED_FAILURES))), max_size=3),
    size=st.integers(1, 12),
)
def test_failing_scene_report_is_the_same_in_any_stack_size(dim, good, count, failures, size):
    # the default stack (the whole scene), a drawn size and one point per
    # stack, the point-by-point reference, give the same exit code, report
    # and stderr line
    points = np.reshape(good, (12, 2))[:count, :dim].tolist()
    for position, kind in failures:
        points[position % count][0] = INJECTED_FAILURES[kind]
    coords = "".join(f"x{i + 1} = u{i + 1}; " for i in range(dim))
    height = "u1^4" + " + u2^2" * (dim == 2) + " + 0 * sqrt(u1 + 5) + 0 * log(u1 + 2)"
    scene = json.dumps({"chart": {"dsl": f"dim {dim}; {coords}x{dim + 1} = {height};"}, "points": points})
    runs = []
    for stack_coeffs in (cli.STACK_COEFFS, size * jet_size(dim, 4), jet_size(dim, 4)):
        with mock.patch.object(cli, "STACK_COEFFS", stack_coeffs):
            runs.append(run_main(["check", "--scene", "-"], scene))
    assert runs[0] == runs[1] == runs[2]
    code, _, err = runs[0]
    assert code in (0, 1) if not failures else (code == 3 and len(err.splitlines()) == 1)


def overflowing_scene() -> str:
    """200 seeded points of hyperboloid(n=2), point 150 set to jets that overflow."""
    points = catalog.get_chart("hyperboloid", {"n": 2}).sample_points(200, 1)
    points[150] = [0.1, 1e200]
    return json.dumps({"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "points": points.tolist()})


def test_failing_stack_is_halved_down_to_its_first_failing_point(monkeypatch):
    sizes = []

    def counted(chart, points):
        sizes.append(len(points))
        return blaschke_at(chart, points)

    monkeypatch.setattr(cli, "blaschke_at", counted)
    assert run_main(["check", "--scene", "-"], overflowing_scene()) == (
        3, "", "chart error: point 150: overflow encountered in multiply\n")
    # stacks of 136 and 64 points, then the failing halves of 64 points:
    # at most 2 + 2 * ceil(log2(64)) calls
    assert sizes[:2] == [136, 64] and len(sizes) <= 14


def test_a_stack_only_failure_is_not_masked(monkeypatch):
    # every row of a stack must be computed as its point alone; a check that
    # fails only on stacks of several points must surface, not be replaced
    # by a point-by-point answer
    gauss = cli.CHECKS["gauss"]

    def stack_only_defect(invs, spec):
        if len(invs.L1) > 1:
            raise TypeError("stack-only defect")
        return gauss.residuals(invs, spec)

    monkeypatch.setitem(cli.CHECKS, "gauss", gauss._replace(residuals=stack_only_defect))
    with pytest.raises(TypeError, match="stack-only defect"):
        run({"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "points": {"random": 5, "seed": 1}})


def test_unary_minus_before_a_power_negates_the_power():
    # -u1^2 - u2^2 is the concave paraboloid 0 - u1^2 - u2^2, an improper
    # affine sphere (L1 = 0, so the dual check is left out)
    checks = [name for name in CHECKS if name != "dual"]
    runs = [run_main(["check", "--scene", "-"], json.dumps(
        {"chart": {"dsl": f"dim 2; x1 = u1; x2 = u2; x3 = {height};"}, "checks": checks}))
        for height in ("-u1^2 - u2^2", "0 - u1^2 - u2^2")]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""


def test_composition_lines_match_verify_composition():
    _, report = run(HYPERBOLOID_COMPOSITION)
    chart, spec, _ = resolve_chart(read("chart", HYPERBOLOID_COMPOSITION["chart"], "chart"))
    residuals = calabi.composition_residuals(spec, blaschke_at(chart, HYPERBOLOID_COMPOSITION["points"]))
    want = [cli.CheckReport(name, residual[k], DEFAULT_TOL["composition"])
            for k in range(4) for name, residual in residuals.items()]
    got = [line for line in report.splitlines() if line.startswith("  check composition_")]
    assert got == ["  " + check_line(rep) for rep in want]
    assert len(got) == 12  # composition_g, _A and _L1 at 4 points
    # in each point's block, after its dual lines
    blocks = report.split("\npoint[")[1:]
    assert all(block.split("\n")[15:18] == got[3 * k : 3 * k + 3] for k, block in enumerate(blocks))


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
    assert report.count("check composition_") == 6
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
    assert capsys.readouterr().err == "equiaffine check: error: argument --points: invalid int value: 'three'\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_a_chart_document_is_resolved_once_per_process():
    def resolved(chart):
        return resolve_chart(read("chart", chart, "chart"))

    cli.cached_chart.cache_clear()
    two, three = ({"catalog": "hyperboloid", "params": {"n": n}} for n in (2, 3))
    first = resolved(two)
    assert resolved(json.loads(json.dumps(two))) is first  # the same document, read again
    assert resolved(three)[0].dim == 3 and resolved(three) is not first
    # typed: 2.0 reads as the integer 2 but is another document, and true is refused
    assert resolved({"catalog": "hyperboloid", "params": {"n": 2.0}}) is not first
    one = resolved({"catalog": "hyperboloid", "params": {"n": 1}})
    with pytest.raises(SceneError, match="must be an integer, got True"):
        resolved({"catalog": "hyperboloid", "params": {"n": True}})
    assert resolved({"catalog": "hyperboloid", "params": {"n": 1}}) is one
    # a value that no JSON document holds is read uncached, to its scene error
    with pytest.raises(SceneError, match="chart.params.n must be an integer"):
        resolved({"catalog": "hyperboloid", "params": {"n": np.int64(2)}})
    composition = HYPERBOLOID_COMPOSITION["chart"]
    assert resolved(composition) is resolved(composition)
    assert cli.cached_chart.cache_info().currsize == 5
    # bounded: the oldest documents leave first
    for n in range(1, cli.CHART_CACHE + 2):
        resolved({"catalog": "unit_sphere", "params": {"n": n}})
    assert cli.cached_chart.cache_info().currsize == cli.CHART_CACHE
    assert resolved(two) is not first


@pytest.mark.parametrize("chart, code, expected", [
    ({"catalog": "hyperboloid", "params": {"n": 0}},
     3, "chart error: invalid parameters for 'hyperboloid': hyperboloid needs n >= 1"),
    ({"dsl": "dim 1; x1 = u1;"}, 2, "scene error: missing components: x2 (line 1, column 16)"),
    ({"composition": {"r": 1, "constants": [1.0], "factors": []}},
     2, "scene error: chart.composition: a composition needs at least two factors"),
])
def test_a_failing_chart_document_fails_alike_every_time(tmp_path, capsys, chart, code, expected):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"chart": chart, "points": {"random": 1}}))
    for _ in range(2):
        assert main(["check", "--scene", str(scene)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == expected + "\n"


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


@pytest.mark.parametrize("command", ["invariants", "check"])
def test_invariants_reads_the_scene_checks_as_check_does(tmp_path, capsys, command):
    # invariants runs no checks, but a scene whose checks are malformed is
    # refused as check refuses it
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"chart": {"catalog": "hyperboloid", "params": {"n": 2}}, "checks": 5}))
    assert error_line(capsys, [command, "--scene", str(path)]) == (
        2, "scene error: checks must be 'all' or a list, got 5")


@pytest.mark.parametrize("points", [[[0.1, 0.2]], [0.1, 0.2]], ids=["point-list", "one-point"])
def test_seed_flag_with_listed_points_exits_2(tmp_path, capsys, points):
    path = scene_file(tmp_path, {"catalog": "hyperboloid", "params": {"n": 2}}, points)
    assert error_line(capsys, ["invariants", "--scene", path, "--seed", "5"]) == (
        2, "scene error: --seed applies only to random points")
    # --points replaces the listed points with random ones, which take the seed
    assert main(["invariants", "--scene", path, "--points", "2", "--seed", "5"]) == 0


def test_unparsable_chart_text_exits_2_inline_or_as_a_graph(tmp_path, capsys):
    lines = [error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, {"random": 1})])
             for chart in ({"dsl": "dim 0;"}, {"catalog": "graph", "params": {"text": "dim 0;"}})]
    assert lines == [(2, "scene error: dim must be a positive integer (line 1, column 5)")] * 2


def test_repeated_chart_declaration_exits_2(tmp_path, capsys):
    # the last of two x2 lines would otherwise win silently
    path = scene_file(tmp_path, {"dsl": "dim 1; x1 = u1; x2 = u1; x2 = 2 * u1;"}, {"random": 1})
    assert error_line(capsys, ["check", "--scene", path]) == (
        2, "scene error: duplicate component x2 (line 1, column 26)")


JORDAN_CHECKS = [
    ("octonion_norm_multiplicative", "1e-12"),
    ("octonion_alternative", "1e-12"),
    ("diag_offdiag_relations_1", "1e-12"),
    ("diag_offdiag_relations_2", "1e-12"),
    ("det_identity_is_one", "0.0"),
    ("det_rank_two_is_zero", "1e-15"),
    ("mult_operator_traceless", "1e-12"),
]


def test_jordan_selftest_all_pass():
    out = io.StringIO()
    assert jordan_selftest(out) == 0
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["schema: 1", "suite: jordan"]
    # names, order, tolerances and status; test_golden.py pins the whole report
    pattern = re.compile(r"check (\w+): residual=(\S+) tol=(\S+) (pass|FAIL)")
    rows = [pattern.fullmatch(line).groups() for line in lines[2:9]]
    assert [(name, tol) for name, _, tol, _ in rows] == JORDAN_CHECKS
    assert all(status == "pass" and float(resid) <= 1e-13 for _, resid, _, status in rows)
    assert lines[9:] == ["summary:", "  checks: 7", "  failed: 0", "  status: pass"]


def test_jordan_selftest_samples_follow_the_per_sample_stream(monkeypatch):
    # each check's stack holds the draws a loop over single samples takes from default_rng(7)
    calls = []
    for name in ("oct_mul", "mult_operator"):
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
    oct_args = {}  # the first oct_mul call of each sample shape takes the raw samples
    for name, args in calls:
        if name == "oct_mul":
            oct_args.setdefault(args[0].shape, args)
    for want in (norm, alt, diag):
        assert all(np.array_equal(got, want[..., i, :]) for i, got in enumerate(oct_args[want.shape[:-2] + (8,)]))
    [(_, (T_seen,))] = [c for c in calls if c[0] == "mult_operator"]
    assert np.array_equal(T_seen, T)


def test_catalog_list_names_every_entry():
    out = io.StringIO()
    assert catalog_list(out) == 0
    text = out.getvalue()
    for name in ("flat_hypersphere", "unit_sphere", "elliptic_paraboloid", "hyperboloid", "sl_so", "herm3", "graph"):
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


def test_dual_at_the_paraboloid_vertex_reports_requires_hyperbolic(tmp_path, capsys):
    # R, A and L1 are all exactly 0 there; the dual check runs on the whole
    # stack, and its residual must not be 0 / 0 (which would exit 3)
    chart = {"catalog": "elliptic_paraboloid", "params": {"n": 3}}
    assert main(["dual", "--scene", scene_file(tmp_path, chart, [[0, 0, 0]])]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "check dual_requires_hyperbolic: residual=1.0 tol=0.0 FAIL" in captured.out


def error_line(capsys, argv):
    """Exit code and the single stderr line of a failing ``main`` run."""
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    return code, err.strip()


def scene_file(tmp_path, chart, points, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"chart": chart, "points": points}))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "chart, point",
    [
        ({"catalog": "unit_sphere", "params": {"n": 2}}, [0.99, 0.5]),  # off the hemisphere chart
        ({"dsl": "dim 1; x1 = u1; x2 = log(u1);"}, [-1.0]),
        ({"catalog": "hyperboloid", "params": {"n": 2}}, [1e200, 0.1]),  # jets overflow
        # Taylor coefficients of an elementary function beyond float range
        ({"dsl": "dim 1; x1 = u1; x2 = log(u1);"}, [1e-200]),
        ({"dsl": "dim 1; x1 = u1; x2 = 1/u1;"}, [1e-100]),
        ({"dsl": "dim 1; x1 = u1; x2 = 1/(u1-u1+1e-320);"}, [0.5]),
        ({"dsl": "dim 1; x1 = u1; x2 = u1^(1/2);"}, [1e-300]),
        ({"dsl": "dim 1; x1 = u1; x2 = exp(u1);"}, [1000]),
        # a composition weight exp(800 t) past float range
        (HYPERBOLOID_COMPOSITION["chart"], [800.0, 0.1, 0.2]),
    ],
)
def test_point_domain_errors_exit_3(tmp_path, capsys, chart, point):
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [point])])
    assert code == 3
    assert line.startswith("chart error: point 0: ")


def test_recip_at_a_large_value_part_is_in_float_range(tmp_path, capsys):
    # 1/u1's Taylor coefficients at 1e200 underflow, so the chart evaluates
    # and the point fails the convexity gate instead (x2'' = 2e-600 = 0)
    chart = {"dsl": "dim 1; x1 = u1; x2 = 1/u1;"}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[1e200]])])
    assert (code, line) == (3, "chart error: point 0: chart is not locally strongly convex at [1.e+200] "
                               "(form eigenvalues [0.])")


@pytest.mark.parametrize("point", [[1e8, 0.1], [1e30, 0.1]])
def test_far_hyperboloid_point_fails_the_convexity_gate_with_one_line(tmp_path, capsys, point):
    # the hyperboloid is convex everywhere, but this far out the chart's own
    # second-order jets cancel and G'0 has a diagonal entry of exactly 0.0,
    # so the form's eigenvalues come out of opposite sign: the point exits 3
    # with one line, not a traceback or a division by that zero
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [point])])
    assert code == 3
    assert line.startswith("chart error: point 0: chart is not locally strongly convex")


@pytest.mark.parametrize("n, scale", [(12, "1e30"), (3, "1e120")])
def test_scaled_hyperboloid_scene_passes(tmp_path, capsys, n, scale):
    # det M = scale^n is past float range, its logarithm is not.  gauss,
    # codazzi and gauss_alt are left out: their residuals are absolute and
    # grow with the metric (scale-aware residuals are open on the ROADMAP)
    path = tmp_path / "scene.json"
    checks = ["apolarity", "ricci", "trace_identity", "hypersphere", "parallel"]
    path.write_text(json.dumps({"chart": {"dsl": scaled_hyperboloid_text(n, scale)},
                                "points": {"random": 2, "seed": 1}, "checks": checks}))
    assert main(["check", "--scene", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "status: pass" in captured.out


@pytest.mark.parametrize("n", [2, 12])
def test_scaled_hyperboloid_is_a_proper_hyperbolic_sphere(tmp_path, capsys, n):
    # L1 = -1e30^(-2(n+1)/(n+2)) is tiny (-1.0e-45 at n = 2), yet the sphere
    # is proper and hyperbolic at any scale: L1 = 0 is decided relative to
    # |xi| / |x|, so the center is checked and the dual is built
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"chart": {"dsl": scaled_hyperboloid_text(n, "1e30")},
                                "points": {"random": 2, "seed": 1}, "checks": ["hypersphere", "dual"]}))
    assert main(["check", "--scene", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "status: pass" in captured.out
    assert captured.out.count("check gauss_swap") == 2 and "dual_requires_hyperbolic" not in captured.out
    centers = re.findall(r"check hypersphere_center: residual=(\S+)", captured.out)
    assert len(centers) == 2 and all(float(c) > 0.0 for c in centers)


@pytest.mark.parametrize("scale", [1e-12, 1e-30])
def test_hyperboloid_below_unit_scale_runs(tmp_path, capsys, scale):
    # the immersion test is relative to the largest singular value, so
    # tangents of size 1e-12 are no rank deficiency; L1 = -scale^(-3/2)
    chart = {"dsl": scaled_hyperboloid_text(2, repr(scale))}
    assert main(["invariants", "--scene", scene_file(tmp_path, chart, {"random": 2, "seed": 1})]) == 0
    captured = capsys.readouterr()
    L1 = [float(value) for value in re.findall(r"^  L1: (.*)$", captured.out, flags=re.MULTILINE)]
    assert captured.err == "" and len(L1) == 2
    assert np.allclose(L1, -scale ** -1.5, rtol=1e-12, atol=0.0)


def test_hypersphere_center_is_relative_to_its_terms(tmp_path, capsys):
    # the hyperboloid scaled by 1e-30 is an affine sphere centred at 0 whose
    # terms |xi| and |L1 x| are about 1e15: its center residual is rounding
    chart = {"dsl": scaled_hyperboloid_text(2, "1e-30")}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"chart": chart, "points": {"random": 2, "seed": 1}, "checks": ["hypersphere"]}))
    assert main(["check", "--scene", str(path)]) == 0
    centers = re.findall(r"check hypersphere_center: residual=(\S+)", capsys.readouterr().out)
    assert len(centers) == 2 and max(map(float, centers)) <= 1e-15


def test_sphere_centred_off_the_origin_fails_the_center_check(tmp_path, capsys):
    # the hyperboloid moved by 0.5 along x3: B = L1 g holds, xi = -L1 x does not
    chart = {"dsl": "dim 2; x1 = u1; x2 = u2; x3 = 0.5 + sqrt(1 + u1^2 + u2^2);"}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"chart": chart, "points": {"random": 2, "seed": 1}, "checks": ["hypersphere"]}))
    assert main(["check", "--scene", str(path)]) == 1
    out = capsys.readouterr().out
    assert len(re.findall(r"check hypersphere_center: .* FAIL$", out, flags=re.MULTILINE)) == 2
    assert len(re.findall(r"check hypersphere_shape: .* pass$", out, flags=re.MULTILINE)) == 2


def test_metric_gate_through_the_pipeline_exits_3(tmp_path, capsys):
    # G is positive definite, so the convexity gate passes, but g's condition
    # number is past the SPD gate's 1 / SPD_RTOL
    chart = {"dsl": "dim 2; x1 = u1; x2 = u2; x3 = u1^2 + 0.00000000001*u2^2;"}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[0.1, 0.2]])])
    assert (code, line) == (3, "chart error: point 0: metric value part is not positive definite "
                               "(eigenvalues [7.95270729e-09 7.95270729e+02])")


def test_mean_curvature_point_domain_error_exits_3(tmp_path, capsys):
    # the mean-curvature relations use each point's invariants, so the
    # factor's domain midpoint u1 = 0 (outside log's domain) is never evaluated
    text = "dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2) + 0 * log(u1);"
    factor = {"catalog": {"name": "graph", "params": {"text": text}}, "L1": -1}
    chart = {"composition": {"r": 1, "constants": [1, 1], "factors": [factor]}}
    assert main(["check", "--scene", scene_file(tmp_path, chart, [[0.1, 0.2, 0.1], [0.0, 0.3, -0.1]])]) == 0
    assert capsys.readouterr().out.count("  check mean_curvature_diag[1]: ") == 2
    # a point 0 with u1 = 0 fails there
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[0.1, 0.0, 0.1]])])
    assert code == 3
    assert line == "chart error: point 0: log of non-positive value part 0.0"


FLAT1 = {"flat": {"n0": 1}}


@pytest.mark.parametrize(
    "composition, code, expected",
    [
        ({"r": 2, "constants": [1, 1, 1], "factors": [FLAT1, FLAT1]}, 2,
         "scene error: chart.composition: expected 4 constants"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 0}}]}, 3,
         "chart error: invalid parameters for 'flat': flat_hypersphere needs n0 >= 1"),
        ({"r": 1, "constants": [1, 1], "factors": ["flat"]}, 2,
         "scene error: chart.composition.factors[0] must be an object, got 'flat'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 0}}, "L1": -1}]},
         3, "chart error: invalid parameters for 'hyperboloid': hyperboloid needs n >= 1"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {}}]}, 2,
         "scene error: chart.composition.factors[0].flat needs key 'n0'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}}, "L1": 1}]},
         2, "scene error: chart.composition.factors[0]: factor affine mean curvature must be negative"),
        ({"r": 1, "constants": [1, 1], "factors": 5}, 2,
         "scene error: chart.composition.factors must be a list, got 5"),
        ({"r": float("inf"), "constants": [1, 1], "factors": [FLAT1]}, 2,
         "scene error: chart.composition.r must be an integer, got inf"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": float("inf")}}]}, 2,
         "scene error: chart.composition.factors[0].flat.n0 must be an integer, got inf"),
        # (-L1)^(n+2) underflows to 0 in the composition constant, inside the stage
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}},
                                                    "L1": -1e-300}]},
         3, "chart error: point 0: composition constant out of float range for constants [1.0, 1.0] "
            "and factor L1 [-1e-300]"),
        # json.loads reads Infinity and NaN
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}},
                                                    "L1": -math.inf}]},
         2, "scene error: chart.composition.factors[0].L1 must be a finite number, got -inf"),
        ({"r": 2, "constants": [1, math.inf], "factors": []}, 2,
         "scene error: chart.composition.constants[1] must be a finite number, got inf"),
        # int() and float() would run r = 2.9 as 2 and true as 1
        ({"r": 2.9, "constants": [1, 1, 1], "factors": []}, 2,
         "scene error: chart.composition.r must be an integer, got 2.9"),
        ({"r": True, "constants": [1, 1, 1], "factors": []}, 2,
         "scene error: chart.composition.r must be an integer, got True"),
        ({"r": 2, "constants": [1, True], "factors": []}, 2,
         "scene error: chart.composition.constants[1] must be a finite number, got True"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": True}}]}, 2,
         "scene error: chart.composition.factors[0].flat.n0 must be an integer, got True"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 2.5}}]}, 2,
         "scene error: chart.composition.factors[0].flat.n0 must be an integer, got 2.5"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 2, "C0": True}}]}, 2,
         "scene error: chart.composition.factors[0].flat.C0 must be a finite number, got True"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}},
                                                    "L1": True}]},
         2, "scene error: chart.composition.factors[0].L1 must be a finite number, got True"),
        # float() would run the text "1" as 1.0
        ({"r": 1, "constants": ["1", "1"], "factors": [FLAT1]}, 2,
         "scene error: chart.composition.constants[0] must be a finite number, got '1'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}},
                                                    "L1": "-1"}]},
         2, "scene error: chart.composition.factors[0].L1 must be a finite number, got '-1'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 2, "C0": "2"}}]}, 2,
         "scene error: chart.composition.factors[0].flat.C0 must be a finite number, got '2'"),
        ({"r": 1, "constants": [1, 1], "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": True}},
                                                    "L1": -1}]},
         2, "scene error: chart.composition.factors[0].catalog.params.n must be an integer, got True"),
    ],
    ids=["constant-count", "flat-n0-0", "factor-not-object", "factor-params", "flat-no-n0", "factor-L1-positive",
         "factors-not-list", "r-infinite", "flat-n0-infinite", "factor-L1-underflows", "factor-L1-infinite",
         "constant-infinite", "r-fractional", "r-bool", "constant-bool", "flat-n0-bool", "flat-n0-fractional",
         "flat-C0-bool", "factor-L1-bool", "constant-text", "factor-L1-text", "flat-C0-text", "factor-param-bool"],
)
def test_composition_spec_errors_exit_with_one_line(tmp_path, capsys, composition, code, expected):
    argv = ["check", "--scene", scene_file(tmp_path, {"composition": composition}, {"random": 1})]
    assert error_line(capsys, argv) == (code, expected)


@pytest.mark.parametrize(
    "C0, expected",
    [
        # C0^2 underflows to 0, so does C; C0^2 overflows Python float **
        ("1e-300", "composition constant out of float range for constants [1.0, 1.0, 1e-300]"),
        ("1e300", "composition constant out of float range for constants [1.0, 1.0, 1e+300]"),
    ],
    ids=["underflow", "overflow"],
)
def test_catalog_parameters_out_of_float_range_exit_3_with_one_line(capsys, C0, expected):
    argv = ["check", "--chart", f"flat_hypersphere(n0=2, C0={C0})", "--points", "1"]
    assert error_line(capsys, argv) == (3, f"chart error: invalid parameters for 'flat_hypersphere': {expected}")


@pytest.mark.parametrize(
    "chart, code, expected",
    [
        # float(True) would run C0 = true as C0 = 1.0
        ({"catalog": "flat_hypersphere", "params": {"n0": 2, "C0": True}}, 2,
         "scene error: chart.params.C0 must be a finite number, got True"),
        ({"catalog": "flat_hypersphere", "params": {"n0": True}}, 2,
         "scene error: chart.params.n0 must be an integer, got True"),
        ({"catalog": "hyperboloid", "params": {"n": False}}, 2,
         "scene error: chart.params.n must be an integer, got False"),
        # an integral float n is the integer n, as a point count or r is
        ({"catalog": "hyperboloid", "params": {"n": 2.0}}, 0, {"catalog": "hyperboloid", "params": {"n": 2}}),
        ({"catalog": "hyperboloid", "params": {"n": 1.0}}, 0, {"catalog": "hyperboloid", "params": {"n": 1}}),
        # the builders raised TypeError for these
        ({"catalog": "hyperboloid"}, 2, "scene error: chart.params needs key 'n'"),
        ({"catalog": "hyperboloid", "params": {"n": "2"}}, 2,
         "scene error: chart.params.n must be an integer, got '2'"),
        ({"catalog": "graph", "params": {"text": 5}}, 2, "scene error: chart.params.text must be a string, got 5"),
        ({"catalog": "hyperboloid", "params": [1]}, 2, "scene error: chart.params must be an object, got [1]"),
        ({"catalog": "hyperboloid", "params": {"n": 2, "m": 3}}, 2, "scene error: unknown key 'm' in chart.params"),
    ],
    ids=["flat-C0-bool", "flat-n0-bool", "hyperboloid-n-bool", "hyperboloid-n-2.0", "hyperboloid-n-1.0",
         "hyperboloid-no-n", "hyperboloid-n-text", "graph-text-int", "params-list", "params-unknown-key"],
)
def test_catalog_parameters_of_another_type_exit_with_one_line(tmp_path, capsys, chart, code, expected):
    for n in (1, 2):
        catalog.hyperboloid(n)  # cached before the call
    argv = ["check", "--scene", scene_file(tmp_path, chart, {"random": 1})]
    if code == 0:  # the report of the expected chart
        assert main(["check", "--scene", scene_file(tmp_path, expected, {"random": 1}, "expected.json")]) == 0
        expected = capsys.readouterr().out
        assert (main(argv), capsys.readouterr().out) == (0, expected)
        return
    assert error_line(capsys, argv) == (code, expected)


def factor_chart(name) -> dict:
    factor = {"catalog": {"name": name, "params": {"n": 2}}, "L1": -1}
    return {"composition": {"r": 1, "constants": [1, 1], "factors": [factor]}}


@pytest.mark.parametrize(
    "chart, code, expected",
    [
        ({"catalog": "nope"}, 3, "chart error: unknown catalog chart 'nope'; see catalog.ENTRIES"),
        (factor_chart("nope"), 3, "chart error: unknown catalog chart 'nope'; see catalog.ENTRIES"),
        ({"catalog": ["x"]}, 2, "scene error: chart.catalog must be a string, got ['x']"),
        (factor_chart(["x"]), 2, "scene error: chart.composition.factors[0].catalog.name must be a string, got ['x']"),
    ],
    ids=["unknown", "unknown-factor", "not-a-string", "not-a-string-factor"],
)
def test_catalog_name_errors_exit_with_one_line(tmp_path, capsys, chart, code, expected):
    argv = ["check", "--scene", scene_file(tmp_path, chart, {"random": 1})]
    assert error_line(capsys, argv) == (code, expected)


H2 = '"chart": {"catalog": "hyperboloid", "params": {"n": 2}}'


@pytest.mark.parametrize(
    "scene, flags, expected",
    [
        ('{%s, "tolerances": [1]}' % H2, [], "tolerances must be an object, got [1]"),
        ('{%s, "tolerances": {"gauss": "abc"}}' % H2, [], "tolerances.gauss must be a finite number, got 'abc'"),
        ('{%s, "tolerances": {"gauss": 1e400}}' % H2, [], "tolerances.gauss must be a finite number, got inf"),
        ('{%s}' % H2, ["--tol", "gauss=abc"], "tolerances.gauss must be a finite number, got 'abc'"),
        ('{%s}' % H2, ["--tol", "gauss=nan"], "tolerances.gauss must be a finite number, got nan"),
        ('{%s, "tolerances": [1]}' % H2, ["--tol", "gauss=1"],
         "tolerances must be an object, got [1]"),
        ('{%s, "checks": 5}' % H2, [], "checks must be 'all' or a list, got 5"),
        ('{%s, "checks": "gauss"}' % H2, [], "checks must be 'all', got 'gauss'"),
        ('{%s, "checks": [5]}' % H2, [],
         "checks[0] must be 'apolarity' or 'codazzi' or 'composition' or 'dual' or 'gauss' or 'gauss_alt' or "
         "'hypersphere' or 'invariants' or 'mean_curvature' or 'parallel' or 'ricci' or 'trace_identity', got 5"),
        ('{"chart": "dsl"}', [], "chart must be an object, got 'dsl'"),
        ('{"chart": {"dsl": 5}}', [], "chart.dsl must be a string, got 5"),
        ('{%s, "points": {"random": 2, "seed": -1}}' % H2, [], "points.seed must be at least 0, got -1"),
        ('{%s}' % H2, ["--seed", "-1"], "points.seed must be at least 0, got -1"),
        ('{%s, "points": {"random": 1e400}}' % H2, [],
         "points.random must be an integer, got inf"),
        ('{%s, "tolerances": {"gauss": -1}}' % H2, [], "tolerances.gauss must be at least 0, got -1"),
        ('{%s}' % H2, ["--tol", "gauss=-1"], "tolerances.gauss must be at least 0, got -1"),
        ('{%s, "points": {"random": 2.9, "seed": 1.7}}' % H2, [], "points.random must be an integer, got 2.9"),
        ('{%s, "points": {"random": 2, "seed": 1.7}}' % H2, [], "points.seed must be an integer, got 1.7"),
        ('{%s, "points": {"random": true}}' % H2, [], "points.random must be an integer, got True"),
        ('{%s, "points": {"random": 2, "seed": false}}' % H2, [], "points.seed must be an integer, got False"),
        ('{%s, "points": {"random": "3"}}' % H2, [], "points.random must be an integer, got '3'"),
        ('{%s, "points": {"random": 2, "seed": "2"}}' % H2, [], "points.seed must be an integer, got '2'"),
        ('{%s, "tolerances": {"gauss": true}}' % H2, [], "tolerances.gauss must be a finite number, got True"),
        # float() would run text as a number, and np.asarray() text and bool coordinates
        ('{%s, "tolerances": {"gauss": "1e-6"}}' % H2, [], "tolerances.gauss must be a finite number, got '1e-6'"),
        ('{%s, "points": [["0.1", "0.2"]]}' % H2, [], "points[0][0] must be a finite number, got '0.1'"),
        ('{%s, "points": [[0.1, true]]}' % H2, [], "points[0][1] must be a finite number, got True"),
        ('{%s, "points": [[[0.1, 0.2]]]}' % H2, [], "points[0][0] must be a finite number, got [0.1, 0.2]"),
        # unknown and conflicting keys were ignored
        ('{%s, "points": {"random": 2, "sed": 3}}' % H2, [], "unknown key 'sed' in points"),
        ('{"chart": {"composition": {"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 2, "junk": 3}}]}}}', [],
         "unknown key 'junk' in chart.composition.factors[0].flat"),
        ('{"chart": {"catalog": "hyperboloid", "params": {"n": 2}, "dsl": "dim 1; x1 = u1; x2 = u1^2;"}}', [],
         "chart needs exactly one of ['catalog', 'dsl', 'composition'], got ['catalog', 'dsl', 'params']"),
        ('{"chart": {"composition": {"r": 1, "constants": [1, 1], "factors": [{"flat": {"n0": 1}, "L1": -1, '
         '"catalog": {"name": "hyperboloid", "params": {"n": 2}}}]}}}', [],
         "chart.composition.factors[0] needs exactly one of ['flat', 'catalog'], got ['L1', 'catalog', 'flat']"),
        # a point list mixing points and numbers, and text for points
        ('{%s, "points": [[0.1, 0.2], 0.3]}' % H2, [], "points[1] must be a list, got 0.3"),
        ('{%s, "points": [0.1, [0.2]]}' % H2, [], "points[0] must be a list, got 0.1"),
        ('{%s, "points": "0.1"}' % H2, [], "points must be a list or a finite number or an object, got '0.1'"),
        # --chart reads C0=inf as a float, which the scene's number rule refuses
        ('{%s}' % H2, ["--chart", "flat_hypersphere(n0=2, C0=inf)"],
         "chart.params.C0 must be a finite number, got inf"),
        # a repeated key ran with its last value
        ('{"chart": {"catalog": "hyperboloid", "params": {"n": 2, "n": 3}}}', [],
         "repeated key 'n' in a scene object"),
        ('{%s}' % H2, ["--chart", "hyperboloid(n=2,n=3)"], "repeated --chart parameter 'n'"),
    ],
    ids=["tolerances-list", "tolerance-text", "tolerance-infinite", "tol-flag-text", "tol-flag-nan",
         "tol-flag-on-tolerances-list", "checks-int", "checks-string", "checks-not-names", "chart-string",
         "chart-text-int", "seed-negative", "seed-flag-negative", "random-infinite", "tolerance-negative",
         "tol-flag-negative", "random-fractional", "seed-fractional", "random-bool", "seed-bool", "random-string",
         "seed-string", "tolerance-bool", "tolerance-numeric-text", "coordinate-text", "coordinate-bool",
         "coordinate-list", "random-unknown-key", "flat-unknown-key", "chart-two-kinds", "factor-two-kinds",
         "points-mixed", "points-mixed-number-first", "points-text", "chart-flag-C0-infinite", "repeated-key",
         "chart-flag-repeated-parameter"],
)
def test_malformed_scene_values_exit_2_with_one_line(tmp_path, capsys, scene, flags, expected):
    path = tmp_path / "scene.json"
    path.write_text(scene)
    assert error_line(capsys, ["check", "--scene", str(path), *flags]) == (2, f"scene error: {expected}")


def test_a_repeated_tol_flag_keeps_its_last_value(capsys):
    # unlike a repeated scene key or --chart parameter; the first value alone would exit 2
    assert main(["check", "--chart", "hyperboloid(n=2)", "--tol", "gauss=-1", "--tol", "gauss=1"]) == 0
    assert "check gauss: residual=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", "--chart", "hyperboloid(n=2)", "--points", "2.5"],
         "equiaffine check: error: argument --points: invalid int value: '2.5'"),
        (["check", "--bogus"], "equiaffine: error: unrecognized arguments: --bogus"),
        ([], "equiaffine: error: the following arguments are required: command"),
        (["jordan", "run"], "equiaffine jordan: error: argument action: invalid choice: 'run'"),
    ],
    ids=["points-float", "unknown-flag", "no-command", "bad-choice"],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv, expected):
    # the message is argparse's, with no usage lines before it (the list of
    # choices after a bad choice is formatted differently across Pythons)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert exc.value.code == 2
    assert len(lines) == 1 and lines[0].startswith(expected)


@pytest.mark.parametrize(
    "chart, points",
    [({"catalog": "hyperboloid", "params": {"n": 2}}, [0.1, 0.2]),
     ({"dsl": "dim 1; x1 = u1; x2 = sqrt(1 + u1^2);"}, 0.5)],
    ids=["coordinate-list", "one-coordinate"],
)
def test_one_point_given_alone_is_a_list_of_one_point(tmp_path, capsys, chart, points):
    listed = main(["check", "--scene", scene_file(tmp_path, chart, np.atleast_2d(points).tolist(), "listed.json")])
    expected = capsys.readouterr().out
    code = main(["check", "--scene", scene_file(tmp_path, chart, points)])
    assert (code, capsys.readouterr().out) == (listed, expected)
    assert expected.count("point[") == 1


def test_integral_float_point_counts_and_seeds_are_integers():
    chart = catalog.hyperboloid(2)
    expect = resolve_points(read("random points", {"random": 3, "seed": 2}), chart)
    assert np.array_equal(resolve_points(read("random points", {"random": 3.0, "seed": 2.0}), chart), expect)


def test_seed_flag_samples_the_default_point_set(capsys):
    reports = {}
    for seed in (None, "0", "5", "6"):
        argv = ["invariants", "--chart", "hyperboloid(n=2)"] + (["--seed", seed] if seed else [])
        assert main(argv) == 0
        reports[seed] = capsys.readouterr().out
    assert reports["0"] == reports[None]
    assert len({reports["0"], reports["5"], reports["6"]}) == 3
    assert reports["5"].count("point[") == 3
    assert "point[0]: " + cli.fmt_vector(catalog.hyperboloid(2).sample_points(3, 5)[0]) in reports["5"]


def test_non_finite_point_exits_2(tmp_path, capsys):
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[float("nan"), 0.1]])])
    assert code == 2
    assert line == "scene error: points[0][0] must be a finite number, got nan"


@pytest.mark.parametrize("points", [{"random": -3}, {"random": 0}, []])
def test_empty_point_set_exits_2(tmp_path, capsys, points):
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, points)])
    assert code == 2
    assert line.startswith("scene error: ")


def test_negative_points_flag_exits_2(capsys):
    code, line = error_line(capsys, ["check", "--chart", "hyperboloid(n=2)", "--points", "-3"])
    assert code == 2
    assert line == "scene error: points.random must be at least 1, got -3"


def test_random_point_count_above_cap_exits_2(tmp_path, capsys, monkeypatch):
    # rejected up front; were the cap missing, the first evaluated point fails the test
    monkeypatch.setattr(cli, "blaschke_at", lambda chart, point: pytest.fail("a point was evaluated"))
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    over = MAX_RANDOM_POINTS + 1
    for argv in (["check", "--chart", "hyperboloid(n=2)", "--points", str(over)],
                 ["check", "--scene", scene_file(tmp_path, chart, {"random": over, "seed": 1})]):
        code, line = error_line(capsys, argv)
        assert code == 2
        assert line == "scene error: points.random must be at most 10000, got 10001"
    at_cap = read("random points", {"random": MAX_RANDOM_POINTS})
    points = resolve_points(at_cap, catalog.get_chart("hyperboloid", {"n": 2}))
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
         f"scene error: chart.composition: composition dimension {OVER} is above MAX_DIM = {MAX_DIM}"),
    ],
    ids=["dsl", "hyperboloid", "unit_sphere", "elliptic_paraboloid", "flat_hypersphere", "sl_so", "composition"],
)
def test_dimension_above_max_dim_exits_with_one_line(tmp_path, capsys, monkeypatch, chart, code, expected):
    # catalog charts are refused before their text or Jordan table is built
    if "catalog" in chart:
        for name in ("parse_chart", "parse_source", "hermitian_table", "compose_chart"):
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
    assert resolve_chart(read("chart", {"composition": spec}, "chart"))[0].dim == MAX_DIM


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


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full, a device that refuses every write")
@pytest.mark.parametrize("argv", [["jordan", "selftest"], ["catalog", "list"], ["check", "--chart", "hyperboloid(n=2)"]],
                         ids=["jordan", "catalog", "check"])
def test_a_report_path_that_fails_on_write_exits_2(argv, capsys):
    # the path opens, and the write or the flush fails: exit 2 (not 1, a failed check) with one line
    code, line = error_line(capsys, argv + ["--out", "/dev/full"])
    assert code == 2 and line.startswith("scene error: cannot write report: [Errno 28]")


def test_dual_check_validates_the_metric_once_per_stack(monkeypatch, capsys):
    calls = []

    def counted(name, check, shape=np.shape):
        def wrapper(*args, **kwargs):
            calls.append((name, shape(args[0])))
            return check(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tensors, "check_spd_eigenvalues", counted("spd", tensors.check_spd_eigenvalues))
    for name in ("inv", "eigvalsh", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(blaschke, "check_dual", counted("dual", blaschke.check_dual, lambda invs: invs.point.shape))
    assert main(["dual", "--chart", "hyperboloid(n=5)", "--points", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    # blaschke_at gates the stack's metric by its eigenvalues and forms g_inv
    # from its one eigh of G'; the dual check, one call on the whole stack,
    # reads both off the bundle and factorizes and validates nothing again
    assert calls == [("eigh", (4, 5, 5)), ("spd", (4, 5)), ("dual", (4, 5))]
