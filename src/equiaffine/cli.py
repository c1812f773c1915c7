"""Batch command-line front end.

Scenes are JSON documents selecting a chart (catalog name, inline chart
source, or a composition spec), a point set (explicit or seeded random),
a set of checks and optional tolerance overrides.  Reports are
deterministic structured text (schema: 1): fixed key order, repr float
formatting, one residual line per check per point, and a summary block.

Exit codes: 0 all checks pass, 1 a check failed (report still emitted),
2 scene error (unreadable scene file or unwritable report path, parse
error, malformed or non-finite input), 3 chart construction or domain
error.  Every exit code other than 0 and 1 comes with one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import blaschke, calabi, catalog, duality, jordan
from .blaschke import CheckReport, ConsistencyError, ConvexityError, FrameError, blaschke_at
from .dsl import ChartParseError, ImmersionError, parse_chart
from .jets import JetDomainError
from .tensors import MetricError

SCHEMA_VERSION = 1

DEFAULT_TOL = {
    "apolarity": 1e-8,
    "gauss": 1e-6,
    "ricci": 1e-6,
    "codazzi": 1e-6,
    "trace_identity": 1e-6,
    "gauss_alt": 1e-6,
    "hypersphere": 1e-6,
    "parallel": 1e-6,
    "dual": 1e-12,
    "composition": 1e-6,
    "mean_curvature": 1e-6,
}
ALL_CHECKS = tuple(DEFAULT_TOL)

# failures of the pipeline at one point of a chart (exit code 3)
POINT_ERRORS = (ConvexityError, FrameError, ImmersionError, ConsistencyError, JetDomainError, MetricError,
                OverflowError, np.linalg.LinAlgError)


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


def build_composition(spec_doc: dict) -> calabi.CompositionSpec:
    try:
        r = int(spec_doc["r"])
        constants = [float(c) for c in spec_doc["constants"]]
        factor_docs = spec_doc.get("factors", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"malformed composition spec: {exc}") from exc
    factors = []
    for fd in factor_docs:
        if "flat" in fd:
            args = fd["flat"]
            factors.append(catalog.flat_factor(int(args["n0"]), float(args.get("C0", 1.0))))
        elif "catalog" in fd:
            if "L1" not in fd:
                raise SceneError("catalog composition factors need an explicit L1")
            chart = catalog.get_chart(fd["catalog"]["name"], fd["catalog"].get("params"))
            factors.append(calabi.HypersphereFactor(chart=chart, L1=float(fd["L1"]), dim=chart.dim))
        else:
            raise SceneError(f"unknown factor spec {fd!r}")
    return calabi.CompositionSpec(r=r, factors=tuple(factors), constants=tuple(constants))


def resolve_chart(doc: dict):
    """Returns (chart, composition_spec_or_None, description)."""
    if "catalog" in doc:
        name = doc["catalog"]
        try:
            chart = catalog.get_chart(name, doc.get("params"))
        except KeyError as exc:
            raise ChartBuildError(str(exc)) from exc
        except (ValueError, TypeError) as exc:
            raise ChartBuildError(f"invalid parameters for {name!r}: {exc}") from exc
        spec = chart.spec if isinstance(chart, calabi.ComposedChart) else None
        return chart, spec, f"catalog:{name}"
    if "dsl" in doc:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneError(f"malformed random point spec: {exc}") from exc
        return chart.sample_points(count, seed)
    try:
        pts = np.asarray(doc, float)
    except (TypeError, ValueError) as exc:
        raise SceneError(f"malformed point list: {exc}") from exc
    pts = np.atleast_2d(pts)
    if pts.shape[1] != chart.dim:
        raise SceneError(f"points have dimension {pts.shape[1]}, chart has {chart.dim}")
    if not np.all(np.isfinite(pts)):
        raise SceneError("point coordinates must be finite")
    return pts


def point_checks(chart, point, checks, tol, spec) -> tuple[list[CheckReport], dict]:
    inv = blaschke_at(chart, point)
    scalars = {"L1": inv.L1, "J": inv.J, "chi": inv.chi}
    reports = []
    if "apolarity" in checks:
        reports.append(blaschke.check_apolarity(inv, tol["apolarity"]))
    if "gauss" in checks:
        reports.append(blaschke.check_gauss(chart, point, tol["gauss"], inv=inv))
    if "ricci" in checks:
        reports.append(blaschke.check_ricci(inv, tol["ricci"]))
    if "codazzi" in checks:
        reports.append(blaschke.check_codazzi(inv, tol["codazzi"]))
    if "trace_identity" in checks:
        reports.append(blaschke.check_trace_identity(inv, tol["trace_identity"]))
    if "gauss_alt" in checks:
        reports.append(blaschke.check_gauss_alt(inv, tol["gauss_alt"]))
    if "hypersphere" in checks:
        reports.extend(blaschke.check_hypersphere(inv, tol["hypersphere"]))
    if "parallel" in checks:
        norm, _ = blaschke.nabla_A_norm(chart, point, inv=inv)
        reports.append(CheckReport("parallel", norm, tol["parallel"]))
    if "dual" in checks:
        if inv.L1 >= 0:
            reports.append(CheckReport("dual_requires_hyperbolic", abs(inv.L1) + 1.0, 0.0))
        else:
            data = duality.HyperspherePointData.from_invariants(inv)
            reports.append(duality.check_gauss_swap(data, tol["dual"]))
            reports.append(duality.check_trace_free(duality.dualize(data), tol["apolarity"]))
    return reports, scalars


def run_scene(scene: dict, out) -> int:
    chart, spec, desc = resolve_chart(scene.get("chart", {}))
    points = resolve_points(scene.get("points", {"random": 3, "seed": 0}), chart)
    checks = scene.get("checks", "all")
    if checks == "all":
        checks = list(ALL_CHECKS)
    unknown = [c for c in checks if c not in ALL_CHECKS and c != "invariants"]
    if unknown:
        raise SceneError(f"unknown checks: {', '.join(unknown)}")
    tol = dict(DEFAULT_TOL)
    for name, value in scene.get("tolerances", {}).items():
        if name not in tol:
            raise SceneError(f"unknown tolerance name {name!r}")
        tol[name] = float(value)
    if spec is None:
        checks = [c for c in checks if c not in ("composition", "mean_curvature")]

    lines = [f"schema: {SCHEMA_VERSION}", f"chart: {desc}", f"dim: {chart.dim}", f"points: {len(points)}"]
    all_reports = []
    per_point = [c for c in checks if c not in ("composition", "mean_curvature")]
    for k, point in enumerate(points):
        try:
            reports, scalars = point_checks(chart, point, per_point, tol, spec)
        except POINT_ERRORS as exc:
            raise ChartBuildError(f"point {k}: {exc}") from exc
        lines.append(f"point[{k}]: {fmt_vector(point)}")
        for name in ("L1", "J", "chi"):
            lines.append(f"  {name}: {fmt(scalars[name])}")
        lines.extend("  " + check_line(rep) for rep in reports)
        all_reports.extend(reports)

    if spec is not None and "composition" in checks:
        reports = calabi.verify_composition(spec, points, tol["composition"])
        lines.extend(check_line(rep) for rep in reports)
        all_reports.extend(reports)
    if spec is not None and spec.s >= 1 and "mean_curvature" in checks:
        reports = calabi.mean_curvature_relations(spec, tolerance=tol["mean_curvature"])
        lines.extend(check_line(rep) for rep in reports)
        all_reports.extend(reports)

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
    rng = np.random.default_rng(7)
    rows: list[CheckReport] = []

    def rand_oct():
        return rng.standard_normal(8)

    resid = 0.0
    for _ in range(1000):
        a, b = rand_oct(), rand_oct()
        resid = max(resid, abs(jordan.oct_norm(jordan.oct_mul(a, b)) - jordan.oct_norm(a) * jordan.oct_norm(b)))
    rows.append(CheckReport("octonion_norm_multiplicative", resid, 1e-12))

    resid = 0.0
    for _ in range(200):
        a, b = rand_oct(), rand_oct()
        left = jordan.oct_mul(a, jordan.oct_mul(a, b))
        right = jordan.oct_mul(jordan.oct_mul(a, a), b)
        resid = max(resid, float(np.max(np.abs(left - right))))
    rows.append(CheckReport("octonion_alternative", resid, 1e-12))

    E = [jordan.JordanMatrix.diag_unit(i) for i in (1, 2, 3)]
    resid_ef1 = resid_ef2 = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        resid_ef1 = max(resid_ef1, (jordan.jordan_product(E[i], E[i]) - E[i]).max_abs())
        resid_ef2 = max(resid_ef2, jordan.jordan_product(E[i], E[j]).max_abs())
        for _ in range(50):
            x, y = rand_oct(), rand_oct()
            Fi_x = jordan.JordanMatrix.off_diag(i + 1, x)
            Fi_y = jordan.JordanMatrix.off_diag(i + 1, y)
            Fj_y = jordan.JordanMatrix.off_diag(j + 1, y)
            resid_ef1 = max(resid_ef1, jordan.jordan_product(E[i], Fi_x).max_abs())
            want = float(np.dot(x, y)) * (E[j] + E[k])
            resid_ef1 = max(resid_ef1, (jordan.jordan_product(Fi_x, Fi_y) - want).max_abs())
            resid_ef2 = max(
                resid_ef2,
                (jordan.jordan_product(E[j], Fi_x) - 0.5 * Fi_x).max_abs(),
            )
            want = 0.5 * jordan.JordanMatrix.off_diag(k + 1, jordan.oct_conj(jordan.oct_mul(x, y)))
            resid_ef2 = max(resid_ef2, (jordan.jordan_product(Fi_x, Fj_y) - want).max_abs())
    rows.append(CheckReport("diag_offdiag_relations_1", resid_ef1, 1e-12))
    rows.append(CheckReport("diag_offdiag_relations_2", resid_ef2, 1e-12))

    I3 = jordan.JordanMatrix.identity()
    rows.append(CheckReport("det_identity_is_one", abs(jordan.jordan_det(I3) - 1.0), 0.0))
    rows.append(CheckReport("det_rank_two_is_zero", abs(jordan.jordan_det(E[0] + E[1])), 1e-15))

    resid = 0.0
    for _ in range(30):
        T = jordan.random_traceless(rng)
        resid = max(resid, abs(np.trace(jordan.mult_operator(T))))
    rows.append(CheckReport("mult_operator_traceless", resid, 1e-12))

    resid = 0.0
    for _ in range(30):
        A = jordan.random_skew_offdiag(rng)
        resid = max(resid, abs(np.trace(jordan.bracket_operator(A))))
    rows.append(CheckReport("bracket_operator_traceless", resid, 1e-12))

    data = jordan.e6_embedding_data(-1.0 / 3.0)
    resid = 0.0
    for _ in range(20):
        X, Y = jordan.random_traceless(rng), jordan.random_traceless(rng)
        resid = max(resid, jordan.gaussf_residual(data, X, Y))
    rows.append(CheckReport("gauss_formula_decomposition", resid, 1e-12))
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
        scene["points"] = {"random": args.points, "seed": args.seed if args.seed is not None else 0}
    elif args.seed is not None and isinstance(scene.get("points"), dict):
        scene["points"]["seed"] = args.seed
    for item in args.tol or []:
        if "=" not in item:
            raise SceneError(f"malformed --tol value {item!r} (expected name=value)")
        name, value = item.split("=", 1)
        scene.setdefault("tolerances", {})[name.strip()] = float(value)
    return scene


def add_scene_flags(p):
    p.add_argument("--chart", help="catalog chart, e.g. 'flat_hypersphere(n0=2, C0=1)'")
    p.add_argument("--scene", help="scene JSON file, or - for stdin")
    p.add_argument("--points", type=int, help="number of seeded random sample points")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--tol", action="append", help="tolerance override name=value")
    p.add_argument("--out", help="write the report here instead of stdout")


def _one_line(exc: Exception) -> str:
    # messages may embed multi-line numpy array reprs
    return " ".join(str(exc).split())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="equiaffine", description="equiaffine invariant toolkit")
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

    args = parser.parse_args(argv)
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
    except (ChartBuildError, KeyError, ConvexityError, ImmersionError) as exc:
        print(f"chart error: {_one_line(exc)}", file=sys.stderr)
        return 3
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
