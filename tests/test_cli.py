"""CLI: scenes, determinism, subcommands and exit codes."""

import io
import json

import pytest

from equiaffine.cli import (
    SceneError,
    catalog_list,
    fmt,
    jordan_selftest,
    main,
    parse_chart_flag,
    run_scene,
)


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


def test_invariants_subcommand_no_checks(capsys):
    assert main(["invariants", "--chart", "unit_sphere(n=2)", "--points", "1", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "L1: " in text and "check " not in text


def test_jordan_selftest_all_pass():
    out = io.StringIO()
    assert jordan_selftest(out) == 0
    text = out.getvalue()
    assert "suite: jordan" in text
    assert "FAIL" not in text
    assert text.count("check ") == 12


def test_catalog_list_names_every_entry():
    out = io.StringIO()
    assert catalog_list(out) == 0
    text = out.getvalue()
    for name in ("flat_hypersphere", "unit_sphere", "elliptic_paraboloid", "hyperboloid", "sl_so", "graph"):
        assert name in text


def test_dual_subcommand(capsys):
    assert main(["dual", "--chart", "hyperboloid(n=2)", "--points", "2", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert "gauss_swap" in text and "minimality" in text


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


def test_non_finite_point_exits_2(tmp_path, capsys):
    chart = {"catalog": "hyperboloid", "params": {"n": 2}}
    code, line = error_line(capsys, ["check", "--scene", scene_file(tmp_path, chart, [[float("nan"), 0.1]])])
    assert code == 2
    assert line == "scene error: point coordinates must be finite"


def test_missing_scene_file_exits_2(tmp_path, capsys):
    code, line = error_line(capsys, ["check", "--scene", str(tmp_path / "missing.json")])
    assert code == 2
    assert line.startswith("scene error: cannot read scene: ")


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "report.txt"
    code, line = error_line(capsys, ["check", "--chart", "hyperboloid(n=2)", "--out", str(out)])
    assert code == 2
    assert line.startswith("scene error: cannot write report: ")
