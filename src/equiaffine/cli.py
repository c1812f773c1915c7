"""Batch command-line front end.

Scenes are JSON documents selecting a chart (catalog name, inline chart
source, or a composition spec), a point set (explicit or seeded random),
a set of checks and optional tolerance overrides.  Reports are
deterministic structured text (schema: 1): fixed key order, repr float
formatting, one residual line per check per point, and a summary block.

Exit codes: 0 all checks pass, 1 a check failed (report still emitted),
2 scene or usage error (unreadable scene file or unwritable report path,
parse error, malformed, empty, oversized or non-finite input, bad
command-line arguments), 3 chart parameters out of float range or a
chart construction or domain error at a sample point (points run in
stacks; a failing stack is halved down to its first failing point, whose
error is the scene's).  The mean-curvature relations of a composition are
checked at the first sample point.  Every exit code other than 0 and 1
comes with one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import blaschke, calabi, catalog, duality, jordan
from .blaschke import DEFAULT_TOL, L1_ZERO_TOL, CheckReport, ConsistencyError, ConvexityError, FrameError, blaschke_at
from .dsl import ChartParseError, ImmersionError, parse_chart
from .jets import jet_size
from .tensors import MetricError

SCHEMA_VERSION = 1

ALL_CHECKS = tuple(DEFAULT_TOL)

# a scene's random point set is sampled in full before the first point runs
MAX_RANDOM_POINTS = 10_000

# the point set of a scene that names none
DEFAULT_POINTS = {"random": 3, "seed": 0}

# order-4 jet coefficients (points x jet size) in one stacked pipeline call,
# at least one point: 136 points at n = 2, 16 at n = 5, one from n = 12 up.
# Past about 16 points at n = 5 a stack costs more per point, not less.
STACK_COEFFS = 2048

# failures of the pipeline at one point of a chart (exit code 3); ArithmeticError takes
# in JetDomainError, float overflow, division by zero and numpy's FloatingPointError
POINT_ERRORS = (ConvexityError, FrameError, ImmersionError, ConsistencyError, MetricError, ArithmeticError,
                np.linalg.LinAlgError)


class SceneError(ValueError):
    """Scene document is malformed (exit code 2)."""


class ChartBuildError(ValueError):
    """Chart cannot be constructed or evaluated (exit code 3)."""


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def fmt_vector(v) -> str:
    return "[" + ", ".join(repr(float(x)) for x in np.asarray(v, float).ravel()) + "]"


def check_line(rep: CheckReport) -> str:
    """The report line of one check: ``check <name>: residual=.. tol=.. pass|FAIL``."""
    status = "pass" if rep.passed else "FAIL"
    return f"check {rep.check_name}: residual={fmt(rep.residual)} tol={fmt(rep.tolerance)} {status}"


# -- scene resolution -------------------------------------------------------


def build_chart(name: str, build, *args):
    """Calls a chart builder, numpy overflow raising; an unknown name or
    invalid or out-of-range parameters become ``ChartBuildError`` (exit 3)."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return build(*args)
    except KeyError as exc:
        raise ChartBuildError(*exc.args) from exc
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ChartBuildError(f"invalid parameters for {name!r}: {exc}") from exc


def catalog_chart(name, params):
    """A catalog chart by name. A name that is not a string or a bool
    parameter raises ``SceneError`` (exit 2); an unknown name or invalid
    parameters ``ChartBuildError`` (exit 3)."""
    if not isinstance(name, str):
        raise SceneError(f"catalog chart name must be a string, got {name!r}")
    for key, value in (params.items() if isinstance(params, dict) else ()):
        if isinstance(value, bool):
            raise SceneError(f"catalog parameter {key!r} of {name!r} must not be a bool, got {value!r}")
    return build_chart(name, catalog.get_chart, name, params)


def _integral(value) -> bool:
    """A scene integer is an int or an integral float, never a bool or text."""
    return not isinstance(value, bool) and (isinstance(value, int) or isinstance(value, float) and value.is_integer())


def _integer(name: str, value) -> int:
    """int(value) for an integer-valued scene key; int() runs first, so its
    own errors (infinity, NaN) keep their messages.  Raises ValueError."""
    count = int(value)
    if not _integral(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


def _number(name: str, value) -> float:
    """float(value) for a number-valued scene key, which refuses a bool and
    text. Raises ValueError."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def build_factor(fd) -> calabi.HypersphereFactor:
    """One composition factor. A malformed factor document raises
    ``SceneError`` (exit 2); invalid chart parameters ``ChartBuildError``."""
    if not isinstance(fd, dict) or not {"flat", "catalog"} & fd.keys():
        raise SceneError(f"unknown factor spec {fd!r}")
    if "catalog" in fd and "L1" not in fd:
        raise SceneError("catalog composition factors need an explicit L1")
    try:
        if "flat" in fd:
            args = fd["flat"]
            n0, C0 = _integer("n0", args["n0"]), _number("C0", args.get("C0", 1.0))
            return build_chart("flat", catalog.flat_factor, n0, C0)
        name, L1 = fd["catalog"]["name"], _number("L1", fd["L1"])
        chart = catalog_chart(name, fd["catalog"].get("params"))
        return calabi.HypersphereFactor(chart=chart, L1=L1, dim=chart.dim)
    except (SceneError, ChartBuildError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SceneError(f"malformed composition factor {fd!r}: {exc}") from exc


def build_composition(spec_doc: dict) -> calabi.CompositionSpec:
    try:
        r = _integer("r", spec_doc["r"])
        constants = tuple(_number("constant", c) for c in spec_doc["constants"])
        factor_docs = list(spec_doc.get("factors", []))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"malformed composition spec: {exc}") from exc
    factors = tuple(build_factor(fd) for fd in factor_docs)
    try:
        return calabi.CompositionSpec(r=r, factors=factors, constants=constants)
    except ValueError as exc:
        raise SceneError(f"malformed composition spec: {exc}") from exc


def resolve_chart(doc: dict):
    """Returns (chart, composition_spec_or_None, description)."""
    if not isinstance(doc, dict):
        raise SceneError(f"chart spec must be an object, got {doc!r}")
    if "catalog" in doc:
        name = doc["catalog"]
        chart = catalog_chart(name, doc.get("params"))
        spec = chart.spec if isinstance(chart, calabi.ComposedChart) else None
        return chart, spec, f"catalog:{name}"
    if "dsl" in doc:
        if not isinstance(doc["dsl"], str):
            raise SceneError(f"chart text must be a string, got {doc['dsl']!r}")
        chart = parse_chart(doc["dsl"])  # ChartParseError propagates (exit 2)
        return chart, None, "inline-dsl"
    if "composition" in doc:
        spec = build_composition(doc["composition"])
        return calabi.compose_chart(spec), spec, f"composition(r={spec.r},s={spec.s})"
    raise SceneError("chart spec needs one of: catalog, dsl, composition")


def resolve_points(doc, chart) -> np.ndarray:
    if isinstance(doc, dict):
        try:
            count, seed = int(doc["random"]), int(doc.get("seed", 0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SceneError(f"malformed random point spec: {exc}") from exc
        for name, value in (("count", doc["random"]), ("seed", doc.get("seed", 0))):
            if not _integral(value):
                raise SceneError(f"random point {name} must be an integer, got {value!r}")
        if seed < 0:
            raise SceneError(f"random point seed must be non-negative, got {seed}")
        if count < 1:
            raise SceneError(f"random point count must be at least 1, got {count}")
        if count > MAX_RANDOM_POINTS:
            raise SceneError(f"random point count must be at most {MAX_RANDOM_POINTS}, got {count}")
        return chart.sample_points(count, seed)
    try:
        pts = np.asarray(doc, float)
    except (TypeError, ValueError) as exc:
        raise SceneError(f"malformed point list: {exc}") from exc
    if pts.size == 0:
        raise SceneError("point list is empty")
    pts = np.atleast_2d(pts)
    if pts.shape[1] != chart.dim:
        raise SceneError(f"points have dimension {pts.shape[1]}, chart has {chart.dim}")
    if not np.all(np.isfinite(pts)):
        raise SceneError("point coordinates must be finite")
    return pts


def _dual_reports(invs, tol) -> list[list[CheckReport]]:
    """Per point of a stack: dual_requires_hyperbolic where L1 >= -L1_ZERO_TOL
    (L1 = 0 within rounding is not hyperbolic), else gauss_swap and
    minimality on the dual data of the other points, built once."""
    requires = invs.L1 >= -L1_ZERO_TOL
    reports = [[CheckReport("dual_requires_hyperbolic", abs(L1) + 1.0, 0.0)] if req else []
               for req, L1 in zip(requires.tolist(), invs.L1.tolist())]
    hyperbolic = np.flatnonzero(~requires)
    if len(hyperbolic):
        data = duality.HyperspherePointData(g=invs.g[hyperbolic], A=invs.A[hyperbolic], L1=invs.L1[hyperbolic])
        swap = duality.check_gauss_swap(data, tol["dual"])
        free = duality.check_trace_free(duality.dualize(data), tol["apolarity"])
        for k, pair in zip(hyperbolic.tolist(), zip(swap, free)):
            reports[k].extend(pair)
    return reports


# per-point checks in report order, name -> check(invs, tol) -> one list of reports per
# point of the invariants invs of a point stack (blaschke_at on a (P, n) stack); entries
# look their functions up at call time, so wrappers installed by module attribute see them
POINT_CHECKS = {
    "apolarity": lambda invs, tol: [[rep] for rep in blaschke.check_apolarity(invs, tol["apolarity"])],
    "gauss": lambda invs, tol: [[rep] for rep in blaschke.check_gauss(invs, tol["gauss"])],
    "ricci": lambda invs, tol: [[rep] for rep in blaschke.check_ricci(invs, tol["ricci"])],
    "codazzi": lambda invs, tol: [[rep] for rep in blaschke.check_codazzi(invs, tol["codazzi"])],
    "trace_identity": lambda invs, tol: [[rep] for rep in blaschke.check_trace_identity(invs, tol["trace_identity"])],
    "gauss_alt": lambda invs, tol: [[rep] for rep in blaschke.check_gauss_alt(invs, tol["gauss_alt"])],
    "hypersphere": lambda invs, tol: [list(pair) for pair in blaschke.check_hypersphere(invs, tol["hypersphere"])],
    "parallel": lambda invs, tol: [[CheckReport("parallel", norm, tol["parallel"])]
                                   for norm in blaschke.nabla_A_norm(invs)],
    "dual": _dual_reports,
}


def evaluate_points(chart, spec, points, checks, tol, size, offset=0):
    """The point blocks' lines, their reports and the scene-level reports,
    from one stacked ``blaschke_at`` call and one call of each check per
    ``size`` consecutive points, numpy overflow raising.  A failing stack is
    evaluated again as two halves, in order, down to the first point that
    fails alone, whose error becomes a ``ChartBuildError`` (exit 3); every
    row is computed as its point alone.  ``points[0]`` is scene point ``offset``."""
    lines, point_reports, scene_reports, mean_curvature = [], [], [], []
    per_point = [check for name, check in POINT_CHECKS.items() if name in checks]
    for first in range(0, len(points), size):
        stack, start = points[first : first + size], offset + first
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):  # exit 3, no warning lines
                invs = blaschke_at(chart, stack)
                reports = [[] for _ in stack]
                for check in per_point:
                    for reps, more in zip(reports, check(invs, tol)):
                        reps.extend(more)
                if "composition" in checks:
                    scene_reports.extend(calabi.composition_reports(spec, invs, tol["composition"], start))
                if start == 0 and "mean_curvature" in checks and spec.s >= 1:
                    mean_curvature = calabi.mean_curvature_reports(spec, invs.g[0], invs.A[0], tol["mean_curvature"])
        except POINT_ERRORS as exc:
            if len(stack) > 1:  # raises at the first failing point, if one fails alone
                evaluate_points(chart, spec, stack, checks, tol, (len(stack) + 1) // 2, start)
            raise ChartBuildError(f"point {start}: {exc}") from exc
        for row, (point, reps) in enumerate(zip(stack, reports)):
            lines.append(f"point[{start + row}]: {fmt_vector(point)}")
            for name in ("L1", "J", "chi"):
                lines.append(f"  {name}: {fmt(getattr(invs, name)[row])}")
            lines.extend("  " + check_line(rep) for rep in reps)
            point_reports.extend(reps)
    return lines, point_reports, scene_reports + mean_curvature


def scene_tolerances(scene: dict) -> dict:
    """The scene's tolerance overrides, an object of name: value pairs;
    anything else raises ``SceneError``."""
    tolerances = scene.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SceneError(f"tolerances must be an object of name: value pairs, got {tolerances!r}")
    return tolerances


def run_scene(scene: dict, out) -> int:
    chart, spec, desc = resolve_chart(scene.get("chart", {}))
    points = resolve_points(scene.get("points", DEFAULT_POINTS), chart)
    checks = scene.get("checks", "all")
    if checks == "all":
        checks = list(ALL_CHECKS)
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise SceneError(f'checks must be "all" or a list of check names, got {checks!r}')
    unknown = [c for c in checks if c not in ALL_CHECKS and c != "invariants"]
    if unknown:
        raise SceneError(f"unknown checks: {', '.join(unknown)}")
    tol = dict(DEFAULT_TOL)
    for name, value in scene_tolerances(scene).items():
        if name not in tol:
            raise SceneError(f"unknown tolerance name {name!r}")
        try:  # a number, or text as --tol gives it
            tol[name] = np.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            tol[name] = np.nan
        if not np.isfinite(tol[name]):
            raise SceneError(f"tolerance {name!r} must be a finite number, got {value!r}")
        if tol[name] < 0:
            raise SceneError(f"tolerance {name!r} must be non-negative, got {value!r}")
    if spec is None:
        checks = [c for c in checks if c not in ("composition", "mean_curvature")]

    size = max(1, STACK_COEFFS // jet_size(chart.dim, 4))
    point_lines, reports, scene_reports = evaluate_points(chart, spec, points, checks, tol, size)

    lines = [f"schema: {SCHEMA_VERSION}", f"chart: {desc}", f"dim: {chart.dim}", f"points: {len(points)}"]
    lines.extend(point_lines)
    lines.extend(check_line(rep) for rep in scene_reports)
    all_reports = reports + scene_reports

    worst = max((r.residual for r in all_reports), default=0.0)
    failed = [r for r in all_reports if not r.passed]
    lines.append("summary:")
    lines.append(f"  checks: {len(all_reports)}")
    lines.append(f"  failed: {len(failed)}")
    lines.append(f"  max_residual: {fmt(worst)}")
    lines.append(f"  status: {'pass' if not failed else 'FAIL'}")
    out.write("\n".join(lines) + "\n")
    return 0 if not failed else 1


# -- jordan selftest --------------------------------------------------------


def jordan_selftest(out) -> int:
    """Octonion and Albert-algebra identities on seeded samples.  Each check
    draws its whole sample stack with one call, in the order a per-sample
    loop would, and evaluates it with one batched call; the residual is the
    largest over the stack."""
    rng = np.random.default_rng(7)
    rows: list[CheckReport] = []

    a, b = np.moveaxis(rng.standard_normal((1000, 2, 8)), 1, 0)
    resid = np.abs(jordan.oct_norm(jordan.oct_mul(a, b)) - jordan.oct_norm(a) * jordan.oct_norm(b))
    rows.append(CheckReport("octonion_norm_multiplicative", resid.max(), 1e-12))

    a, b = np.moveaxis(rng.standard_normal((200, 2, 8)), 1, 0)
    resid = jordan.oct_mul(a, jordan.oct_mul(a, b)) - jordan.oct_mul(jordan.oct_mul(a, a), b)
    rows.append(CheckReport("octonion_alternative", np.abs(resid).max(), 1e-12))

    # coordinates: E[i] = E_{i+1}, and x @ F[i] = F_{i+1}(x); axis 0 of a stack runs over i
    E, F = np.eye(27)[:3], np.eye(27)[3:].reshape(3, 8, 27)
    j, k = [1, 2, 0], [2, 0, 1]
    x, y = np.moveaxis(rng.standard_normal((3, 50, 2, 8)), 2, 0)
    Fi_x, Fi_y, Fj_y = x @ F, y @ F, y @ F[j]
    Fk_xy = jordan.oct_conj(jordan.oct_mul(x, y)) @ F[k]
    Ei, Ej, Ek = E[:, None], E[j][:, None], E[k][:, None]

    def relation(left, right, want):
        return np.abs(jordan.jordan_mul(left, right) - want).max()

    rows.append(CheckReport("diag_offdiag_relations_1", max(
        relation(E, E, E), relation(Ei, Fi_x, 0.0),
        relation(Fi_x, Fi_y, jordan.oct_inner(x, y)[..., None] * (Ej + Ek)),
    ), 1e-12))
    rows.append(CheckReport("diag_offdiag_relations_2", max(
        relation(E, E[j], 0.0), relation(Ej, Fi_x, 0.5 * Fi_x), relation(Fi_x, Fj_y, 0.5 * Fk_xy),
    ), 1e-12))

    I3, E1, E2 = E.sum(axis=0), E[0], E[1]
    rows.append(CheckReport("det_identity_is_one", abs(jordan.jordan_det(I3) - 1.0), 0.0))
    rows.append(CheckReport("det_rank_two_is_zero", abs(jordan.jordan_det(E1 + E2)), 1e-15))

    T = jordan.random_traceless_coords(rng, (30,))
    resid = np.abs(np.trace(jordan.mult_operator(T), axis1=-2, axis2=-1))
    rows.append(CheckReport("mult_operator_traceless", resid.max(), 1e-12))

    A = jordan.random_skew_offdiag(rng, (30,))
    resid = np.abs(np.trace(jordan.bracket_operator(A), axis1=-2, axis2=-1))
    rows.append(CheckReport("bracket_operator_traceless", resid.max(), 1e-12))

    data = jordan.e6_embedding_data(-1.0 / 3.0)
    X, Y = np.moveaxis(jordan.random_traceless_coords(rng, (20, 2)), 1, 0)
    rows.append(CheckReport("gauss_formula_decomposition", jordan.gaussf_residual(data, X, Y).max(), 1e-12))
    rows.append(CheckReport("hypersphere_identity", jordan.hypersphere_residual(data), 1e-10))
    rows.append(CheckReport("metric_positive_definite", max(0.0, -float(np.linalg.eigvalsh(data.g_o)[0])), 0.0))
    rows.append(CheckReport("cubic_form_apolar", jordan.apolarity_residual(data), 1e-10))

    lines = [f"schema: {SCHEMA_VERSION}", "suite: jordan"]
    lines.extend(check_line(rep) for rep in rows)
    failed = [r for r in rows if not r.passed]
    lines.append("summary:")
    lines.append(f"  checks: {len(rows)}")
    lines.append(f"  failed: {len(failed)}")
    lines.append(f"  status: {'pass' if not failed else 'FAIL'}")
    out.write("\n".join(lines) + "\n")
    return 0 if not failed else 1


def catalog_list(out) -> int:
    lines = [f"schema: {SCHEMA_VERSION}", "catalog:"]
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        lines.append(f"  {name}: {entry.summary}")
        for pname in sorted(entry.params):
            lines.append(f"    param {pname}: {entry.params[pname]}")
    out.write("\n".join(lines) + "\n")
    return 0


# -- argument handling ------------------------------------------------------


def parse_chart_flag(text: str) -> dict:
    """--chart 'name(k=v, ...)' to a scene chart document."""
    text = text.strip()
    if "(" not in text:
        return {"catalog": text}
    if not text.endswith(")"):
        raise SceneError(f"malformed --chart value {text!r}")
    name, body = text[:-1].split("(", 1)
    params = {}
    if body.strip():
        for item in body.split(","):
            if "=" not in item:
                raise SceneError(f"malformed --chart parameter {item!r}")
            key, value = (s.strip() for s in item.split("=", 1))
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return {"catalog": name.strip(), "params": params}


def load_scene(args) -> dict:
    if args.scene:
        try:
            text = sys.stdin.read() if args.scene == "-" else Path(args.scene).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise SceneError(f"cannot read scene: {exc}") from exc
        try:
            scene = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneError(f"scene JSON parse error: {exc.msg} (line {exc.lineno}, column {exc.colno})")
        if not isinstance(scene, dict):
            raise SceneError("scene document must be a JSON object")
    else:
        scene = {}
    if args.chart:
        scene["chart"] = parse_chart_flag(args.chart)
    if "chart" not in scene:
        raise SceneError("no chart given: use --chart or a scene file")
    if args.points is not None:
        scene["points"] = {"random": args.points}
    if args.seed is not None:
        points = scene.setdefault("points", dict(DEFAULT_POINTS))
        if isinstance(points, dict):
            points["seed"] = args.seed
    for item in args.tol or []:
        if "=" not in item:
            raise SceneError(f"malformed --tol value {item!r} (expected name=value)")
        name, value = item.split("=", 1)
        scene["tolerances"] = {**scene_tolerances(scene), name.strip(): value}  # run_scene checks the value
    return scene


def add_scene_flags(p):
    p.add_argument("--chart", help="catalog chart, e.g. 'flat_hypersphere(n0=2, C0=1)'")
    p.add_argument("--scene", help="scene JSON file, or - for stdin")
    p.add_argument("--points", type=int, help="number of seeded random sample points")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--tol", action="append", help="tolerance override name=value")
    p.add_argument("--out", help="write the report here instead of stdout")


def _one_line(exc: Exception) -> str:
    # messages may embed multi-line numpy array reprs; str(KeyError) quotes its message
    text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    return " ".join(str(text).split())


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one stderr line, without
    the usage text, and exit 2; its subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first ``main`` call and shared
    by every later one in the process; nothing changes it once built."""
    parser = _Parser(prog="equiaffine", description="equiaffine invariant toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("invariants", "compute pointwise invariants only"),
        ("check", "run structural-identity checks"),
        ("compose", "verify a composition scene against its closed forms"),
        ("dual", "run duality checks at sampled points"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_scene_flags(p)
    pj = sub.add_parser("jordan", help="algebra self-tests")
    pj.add_argument("action", choices=["selftest"])
    pj.add_argument("--out", help="write the report here instead of stdout")
    pc = sub.add_parser("catalog", help="catalog utilities")
    pc.add_argument("action", choices=["list"])
    pc.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if getattr(args, "out", None):
            try:
                out = open(args.out, "w")
            except OSError as exc:
                raise SceneError(f"cannot write report: {exc}") from exc
        if args.command == "jordan":
            return jordan_selftest(out)
        if args.command == "catalog":
            return catalog_list(out)
        scene = load_scene(args)
        if args.command == "invariants":
            scene["checks"] = []
        elif args.command == "compose":
            scene.setdefault("checks", ["composition", "mean_curvature", "hypersphere"])
        elif args.command == "dual":
            scene.setdefault("checks", ["dual", "apolarity"])
        return run_scene(scene, out)
    except (SceneError, ChartParseError) as exc:
        print(f"scene error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except (ChartBuildError, KeyError) as exc:
        print(f"chart error: {_one_line(exc)}", file=sys.stderr)
        return 3
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
