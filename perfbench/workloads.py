"""The benchmark's workloads: seeded inputs, one op each, and the gate that
checks every op's output against references that do not come from the
code under test.

Every op looks the program's functions up through their modules at call
time (``self.ea.blaschke_at``, ``cli.main``), so that the wrappers the
traced run installs by module attribute see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no importable equiaffine sources."""


def import_program():
    """Import equiaffine and its CLI from the checkout's ``src`` only."""
    pkg_dir = SRC / "equiaffine"
    if not (pkg_dir / "__init__.py").is_file():
        raise MissingProgram(f"no equiaffine package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import equiaffine
        import equiaffine.cli  # noqa: F401  (the CLI workloads' entry point)
    except ImportError as exc:
        raise MissingProgram(f"cannot import equiaffine from {SRC}: {exc}") from exc
    if Path(equiaffine.__file__).resolve().parent != pkg_dir.resolve():
        raise MissingProgram(f"equiaffine was imported from {equiaffine.__file__}, not {pkg_dir}")
    return equiaffine


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """``equiaffine <argv>`` in-process, with stdin and stdout captured."""
    from equiaffine import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def report_field(report: str, key: str) -> str | None:
    """Value of the last ``key: value`` line of a CLI report."""
    found = None
    for line in report.splitlines():
        name, sep, value = line.strip().partition(": ")
        if sep and name == key:
            found = value
    return found


def report_scalars(report: str) -> list[tuple[float, float, float]]:
    """(L1, J, chi) of every point block of a ``check`` report."""
    vals: dict[str, list[float]] = {"L1": [], "J": [], "chi": []}
    for line in report.splitlines():
        name, sep, value = line.strip().partition(": ")
        if sep and name in vals:
            vals[name].append(float(value))
    return list(zip(vals["L1"], vals["J"], vals["chi"]))


def hyperboloid_error(inv) -> str | None:
    """None if ``inv`` has the invariants of the hyperboloid, a hyperbolic
    affine sphere: L1 = -1, J = 0, chi = J + L1 = -1 and B = L1 g.  For
    n = 1, J and chi are 0 by the program's convention."""
    tol = 1e-9
    chi = -1.0 if inv.dim > 1 else 0.0
    if abs(inv.L1 + 1.0) > tol or abs(inv.J) > tol or abs(inv.chi - chi) > tol:
        return f"(L1, J, chi) = ({inv.L1!r}, {inv.J!r}, {inv.chi!r}), want (-1, 0, {chi})"
    resid = float(np.max(np.abs(inv.B - inv.L1 * inv.g)))
    if resid > tol * max(1.0, float(np.max(np.abs(inv.g)))):
        return f"B differs from L1 g by {resid!r}"
    return None


class Workload:
    """One workload: ``run(i)`` performs op ``i`` on the i-th seeded input and
    ``check(result)`` returns None, or why the op's output is wrong."""

    name = ""
    kernel = "interp"  # reference kernel matching the op's work (see kernel.py)
    points_per_op = 0
    count_ops = 1  # ops in the traced run's exact-count pass

    def __init__(self, seed: int):
        self.ea = import_program()
        self.rng = np.random.default_rng([seed, 1303])
        self.inputs: list = []
        self.reference = None  # check count of the first op this process checks

    def input(self, i: int):
        while len(self.inputs) <= i:
            self.inputs.append(self.draw())
        return self.inputs[i]

    def draw(self):
        return None

    def run(self, i: int):
        raise NotImplementedError

    def check(self, result) -> str | None:
        raise NotImplementedError

    def _check_report(self, result) -> str | None:
        """Exit 0, ``status: pass`` and the check count of the first op this
        process checked."""
        code, report = result
        if code != 0:
            return f"exit code {code}"
        if report_field(report, "status") != "pass":
            return "report status is not pass"
        checks = report_field(report, "checks")
        if self.reference is None:
            self.reference = checks
        elif checks != self.reference:
            return f"{checks} checks, the first op had {self.reference}"
        return None


class PipelineN2(Workload):
    """blaschke_at on hyperboloid(n=2), called directly: the low-n pipeline,
    where per-jet-op interpreter overhead dominates."""

    name = "pipeline-n2"
    points_per_op = 1
    count_ops = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.chart = self.ea.catalog.hyperboloid(2)

    def draw(self):
        return self.rng.uniform(-0.5, 0.5, 2)

    def run(self, i):
        return self.ea.blaschke_at(self.chart, self.input(i))

    def check(self, inv):
        return hyperboloid_error(inv)


class CheckSl3(Workload):
    """``equiaffine check`` on a one-point sl_so(m=3) scene with all checks:
    the paper's n=5 example, where the subset-DP jet_det leads."""

    name = "check-sl3"
    points_per_op = 1
    count_ops = 2
    first_scalars = None

    def draw(self):
        point = self.rng.uniform(-0.25, 0.25, 5)
        scene = {"chart": {"catalog": "sl_so", "params": {"m": 3}}, "points": [point.tolist()], "checks": "all"}
        return json.dumps(scene)

    def run(self, i):
        return run_cli(["check", "--scene", "-"], self.input(i))

    def check(self, result):
        err = self._check_report(result)
        if err:
            return err
        scalars = report_scalars(result[1])
        if len(scalars) != 1:
            return f"report has {len(scalars)} point blocks, want 1"
        # The surface is a homogeneous orbit, so L1, J and chi are the same
        # at every point: compare with the first point this process saw.
        if self.first_scalars is None:
            self.first_scalars = scalars[0]
        elif max(abs(a - b) for a, b in zip(scalars[0], self.first_scalars)) > 1e-9:
            return f"(L1, J, chi) = {scalars[0]} differs from the first point's {self.first_scalars}"
        return None


class JordanSelftest(Workload):
    """``equiaffine jordan selftest``: the only workload in the jordan module,
    and one without jets."""

    name = "jordan-selftest"
    kernel = "einsum"

    def run(self, i):
        return run_cli(["jordan", "selftest"])

    def check(self, result):
        return self._check_report(result)


class ComposeScene(Workload):
    """``equiaffine check`` on a Calabi composition (r=1 plus hyperboloid(n=2),
    n=3) at 4 points with all checks: the only workload in calabi and in the
    scene/report path; blaschke_at runs 3.25 times per point."""

    name = "compose-scene"
    points_per_op = 4
    count_ops = 2

    def draw(self):
        t = self.rng.uniform(-0.3, 0.3, (4, 1))
        p = self.rng.uniform(-0.5, 0.5, (4, 2))
        factor = {"catalog": {"name": "hyperboloid", "params": {"n": 2}}, "L1": -1.0}
        scene = {
            "chart": {"composition": {"r": 1, "constants": [1.0, 1.0], "factors": [factor]}},
            "points": np.hstack([t, p]).tolist(),
            "checks": "all",
        }
        return json.dumps(scene)

    def run(self, i):
        return run_cli(["check", "--scene", "-"], self.input(i))

    def check(self, result):
        return self._check_report(result)


WORKLOADS = {w.name: w for w in (PipelineN2, CheckSl3, JordanSelftest, ComposeScene)}
