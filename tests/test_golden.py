"""Golden reports: three fixed-point scenes and the ``jordan selftest``,
whose CLI reports must not move by a byte.

Each ``golden/<command>_<name>.json`` scene has its report in
``golden/<command>_<name>.txt``, and ``golden/jordan_selftest.txt`` is the
selftest's report.  A change that moves a report byte on purpose
regenerates the file and shows the move in its diff:

    PYTHONPATH=src python -m equiaffine.cli check --scene tests/golden/check_hyperboloid_n2.json \\
        > tests/golden/check_hyperboloid_n2.txt
    PYTHONPATH=src python -m equiaffine.cli jordan selftest > tests/golden/jordan_selftest.txt
"""

import contextlib
import io
from pathlib import Path

import pytest

from equiaffine import cli
from equiaffine.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENES = sorted(GOLDEN.glob("*.json"))


def test_golden_scenes_are_the_three_fixed_point_scenes():
    assert [path.stem for path in SCENES] == [
        "check_composition_r1_hyperboloid_n2", "check_hyperboloid_n2", "dual_sl_so_m3"]


def report(scene: Path) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([scene.stem.split("_")[0], "--scene", str(scene)])
    assert code == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("scene", SCENES, ids=[path.stem for path in SCENES])
def test_report_matches_its_golden_file_byte_for_byte(scene):
    assert report(scene) == scene.with_suffix(".txt").read_bytes()


@pytest.mark.parametrize("scene", SCENES, ids=[path.stem for path in SCENES])
def test_a_scene_run_twice_in_one_process_gives_the_same_bytes(scene):
    # the first run resolves the chart, the second reuses it
    cli.cached_chart.cache_clear()
    assert report(scene) == report(scene) == scene.with_suffix(".txt").read_bytes()


def test_jordan_selftest_matches_its_golden_file_byte_for_byte():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["jordan", "selftest"])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / "jordan_selftest.txt").read_bytes()
