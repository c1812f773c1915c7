"""Batch command-line front end.

Scenes are JSON documents selecting a chart (catalog name, inline chart
source, or a composition spec), a point set (explicit or seeded random),
a set of checks and optional tolerance overrides.  Reports are
deterministic structured text (schema: 1): fixed key order, repr float
formatting, one residual line per check per point, and a summary block.
The library's checks return residuals; the table ``CHECKS`` holds every
scene check, and only this module makes reports.

Exit codes: 0 all checks pass, 1 a check failed (report still emitted),
2 scene or usage error (a document that ``SCENE_GRAMMAR`` refuses, an
unreadable scene file, a report that cannot be written, chart text that
does not parse),
3 chart parameters out of range or a chart that fails at a sample point
(a failing stack of points is halved down to its first failing point,
whose error is the scene's).  Exit codes 2 and 3 print one stderr line.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import inspect
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import blaschke, calabi, catalog, jordan
from .blaschke import ConvexityError, blaschke_at
from .dsl import ChartParseError, ImmersionError, parse_chart
from .jets import jet_size
from .tensors import MetricError

SCHEMA_VERSION = 1

# a scene's random point set is sampled in full before the first point runs
MAX_RANDOM_POINTS = 10_000

# the point set of a scene that names none
DEFAULT_POINTS = {"random": 3, "seed": 0}

# jet coefficients of order blaschke.ORDER (points x jet size) in one
# stacked pipeline call, at least one point: 136 points at n = 2, 16 at
# n = 5, one from n = 12 up.  Past about 16 points at n = 5 a stack costs
# more per point, not less.
STACK_COEFFS = 2048

# the read chart documents whose resolved charts ``cached_chart`` keeps.  An
# entry keeps its charts alive, each with its last evaluation
# (``ChartDef.jets_at``): about 6 MB for one point at n = 26, twice that for
# a composition in 26 variables (its weights' base jets too), kilobytes at n <= 12
CHART_CACHE = 8

# failures of the pipeline at one point of a chart (exit code 3); ArithmeticError takes
# in JetDomainError, float overflow, division by zero and numpy's FloatingPointError
POINT_ERRORS = (ConvexityError, ImmersionError, MetricError, ArithmeticError, np.linalg.LinAlgError)


class SceneError(ValueError):
    """Scene document is malformed (exit code 2)."""


class ChartBuildError(ValueError):
    """Chart cannot be constructed or evaluated (exit code 3)."""


class CheckReport(NamedTuple):
    check_name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def fmt(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def fmt_vector(v) -> str:
    return "[" + ", ".join(map(repr, np.asarray(v, float).ravel().tolist())) + "]"


def check_line(rep: CheckReport) -> str:
    """The report line of one check: ``check <name>: residual=.. tol=.. pass|FAIL``."""
    status = "pass" if rep.passed else "FAIL"
    return f"check {rep.check_name}: residual={fmt(rep.residual)} tol={fmt(rep.tolerance)} {status}"


def write_report(out, lines: list[str], reports: list[CheckReport], max_residual: bool) -> int:
    """Write a report, the schema line, ``lines`` and the summary block of
    ``reports`` (with their largest residual if ``max_residual``), and
    return its exit code: 0 if every report passed, else 1."""
    failed = sum(not rep.passed for rep in reports)
    summary = [f"  checks: {len(reports)}", f"  failed: {failed}"]
    if max_residual:
        summary.append(f"  max_residual: {fmt(max((rep.residual for rep in reports), default=0.0))}")
    summary.append(f"  status: {'pass' if not failed else 'FAIL'}")
    out.write("\n".join([f"schema: {SCHEMA_VERSION}", *lines, "summary:", *summary]) + "\n")
    return 1 if failed else 0


# -- checks -----------------------------------------------------------------


# A scene check: its default tolerance and its residuals, residuals(invs,
# spec) = {report name: one residual per point} of the invariants invs of a
# point stack (blaschke_at on a (P, n) stack) and the scene's composition
# spec (None for any other chart; a composition check reports nothing
# then).  Each point's reports go in that point's block.
Check = collections.namedtuple("Check", "tol residuals")

# every scene check in report order; entries look their functions up at call
# time, so wrappers installed by module attribute see them
CHECKS = {
    "apolarity": Check(1e-8, lambda invs, spec: blaschke.check_apolarity(invs)),
    "gauss": Check(1e-6, lambda invs, spec: blaschke.check_gauss(invs)),
    "ricci": Check(1e-6, lambda invs, spec: blaschke.check_ricci(invs)),
    "codazzi": Check(1e-6, lambda invs, spec: blaschke.check_codazzi(invs)),
    "trace_identity": Check(1e-6, lambda invs, spec: blaschke.check_trace_identity(invs)),
    "gauss_alt": Check(1e-6, lambda invs, spec: blaschke.check_gauss_alt(invs)),
    "hypersphere": Check(1e-6, lambda invs, spec: blaschke.check_hypersphere(invs)),
    "parallel": Check(1e-6, lambda invs, spec: blaschke.nabla_A_norm(invs)),
    "dual": Check(1e-12, lambda invs, spec: blaschke.check_dual(invs)),
    "composition": Check(1e-6, lambda invs, spec: calabi.composition_residuals(spec, invs) if spec else {}),
    "mean_curvature": Check(1e-6, lambda invs, spec: calabi.mean_curvature_residuals(spec, invs) if spec else {}),
}

DEFAULT_TOL = {name: check.tol for name, check in CHECKS.items()}


# -- scenes -----------------------------------------------------------------

# a key of a scene object: its kind, its default (a document, read like a
# given one, or REQUIRED, inspect's "no default", for a key that must be
# given) and the least and the most value it may take
REQUIRED = inspect.Parameter.empty
Key = collections.namedtuple("Key", "kind default least most", defaults=(REQUIRED, None, None))
ListOf = collections.namedtuple("ListOf", "kind")  # the kind of a list of documents of one kind


class OneOf(dict):
    """An object's variants by the key that picks each; a document gives exactly one of the keys."""


# Every object of a scene document by name: a dict of its keys, a OneOf of its
# variants, or a tuple of kinds told apart by JSON type.  A key's kind is a
# name of this table, a ListOf, the frozenset of the texts it may be, "integer"
# (an int or an integral float), "number" (a finite int or float), "text" or
# "object" (a dict read against a builder's annotated parameters, see
# parameter_grammar).
SCENE_GRAMMAR = {
    "scene": {"chart": Key("chart"), "points": Key("points", DEFAULT_POINTS), "checks": Key("checks", "all"),
              "tolerances": Key("tolerances", {})},
    "chart": OneOf(catalog={"catalog": Key("text"), "params": Key("object", {})}, dsl={"dsl": Key("text")},
                   composition={"composition": Key("composition")}),
    "composition": {"r": Key("integer"), "constants": Key(ListOf("number")), "factors": Key(ListOf("factor"), [])},
    "factor": OneOf(flat={"flat": Key("object")}, catalog={"catalog": Key("factor catalog"), "L1": Key("number")}),
    "factor catalog": {"name": Key("text"), "params": Key("object", {})},
    # a list of points, or of the coordinates of one point, or the one coordinate of one point
    "points": (ListOf("point"), "number", "random points"),
    "point": (ListOf("number"), "number"),
    "random points": {"random": Key("integer", least=1, most=MAX_RANDOM_POINTS),
                      "seed": Key("integer", 0, least=0)},
    "tolerances": {name: Key("number", tol, least=0) for name, tol in DEFAULT_TOL.items()},
    "checks": (frozenset({"all"}), ListOf(frozenset(CHECKS) | {"invariants"})),
}


@functools.cache
def _kind(kind) -> tuple:
    """The JSON type and the description of the documents of a kind."""
    grammar = SCENE_GRAMMAR.get(kind)
    if isinstance(kind, ListOf):
        return list, "a list"
    if isinstance(grammar, tuple):
        types, descriptions = zip(*map(_kind, grammar))
        return types, " or ".join(descriptions)
    if isinstance(kind, frozenset):
        return str, " or ".join(map(repr, sorted(kind)))
    kinds = {"integer": ((int, float), "an integer"), "number": ((int, float), "a finite number"),
             "text": (str, "a string"), "object": (dict, "an object")}
    return kinds["object" if isinstance(grammar, dict) else kind]


def read(kind, doc, where: str = ""):
    """``doc``, the document at ``where`` in a scene, read as a ``kind`` of
    ``SCENE_GRAMMAR``: integers as int, numbers as float, objects with their
    defaults filled in.  Any other document, a bool too, raises ``SceneError``
    (exit 2) naming its place."""
    if isinstance(SCENE_GRAMMAR.get(kind), tuple):  # the first kind of the document's JSON type
        kind = next((k for k in SCENE_GRAMMAR[kind] if isinstance(doc, _kind(k)[0])), kind)
    (json_type, description), grammar = _kind(kind), SCENE_GRAMMAR.get(kind)
    if isinstance(doc, bool) or not isinstance(doc, json_type) or (
            kind == "integer" and isinstance(doc, float) and not doc.is_integer()
            or kind == "number" and not abs(doc) <= sys.float_info.max  # also NaN and ints past float range
            or isinstance(kind, frozenset) and doc not in kind):
        raise SceneError(f"{where or 'scene'} must be {description}, got {doc!r}")
    if kind in ("integer", "number"):
        return int(doc) if kind == "integer" else float(doc)
    if isinstance(kind, ListOf):
        return [read(kind.kind, item, f"{where}[{i}]") for i, item in enumerate(doc)]
    if isinstance(grammar, OneOf):
        given = [key for key in grammar if key in doc]
        if len(given) != 1:
            raise SceneError(f"{where} needs exactly one of {list(grammar)}, got {sorted(doc)}")
        grammar = grammar[given[0]]
    return read_object(grammar, doc, where) if isinstance(grammar, dict) else doc


def read_object(grammar: dict, doc: dict, where: str) -> dict:
    """An object document read by ``grammar``, a dict of ``Key``s; see ``read``."""
    if doc.keys() - grammar.keys():
        raise SceneError(f"unknown key {min(doc.keys() - grammar.keys())!r} in {where or 'scene'}")
    values = {}
    for key, (kind, default, least, most) in grammar.items():
        if key not in doc and default is REQUIRED:
            raise SceneError(f"{where or 'scene'} needs key {key!r}")
        place = f"{where}.{key}" if where else key
        value = values[key] = read(kind, doc.get(key, default), place)
        if least is not None and value < least:
            raise SceneError(f"{place} must be at least {least}, got {doc[key]!r}")
        if most is not None and value > most:
            raise SceneError(f"{place} must be at most {most}, got {doc[key]!r}")
    return values


@functools.cache
def parameter_grammar(build) -> dict:
    """The grammar of a chart builder's parameters, from their annotations and defaults."""
    kinds = {int: "integer", float: "number", str: "text"}
    return {p.name: Key(kinds[p.annotation], p.default)
            for p in inspect.signature(build, eval_str=True).parameters.values()}


def build_chart(name: str, build, params: dict, where: str):
    """``build(**params)``, the parameters read by ``build``'s signature, numpy
    overflow raising; parameters out of range raise ``ChartBuildError`` (exit 3)."""
    params = read_object(parameter_grammar(build), params, where)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return build(**params)
    except ChartParseError:  # chart text that does not parse (exit 2)
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ChartBuildError(f"invalid parameters for {name!r}: {exc}") from exc


def build_factor(doc: dict, where: str) -> calabi.HypersphereFactor:
    """One composition factor from its read document."""
    if "flat" in doc:
        return build_chart("flat", catalog.flat_factor, doc["flat"], f"{where}.flat")
    name = doc["catalog"]["name"]
    chart = build_chart(name, catalog.entry(name).builder, doc["catalog"]["params"], f"{where}.catalog.params")
    try:
        return calabi.HypersphereFactor(chart=chart, L1=doc["L1"])
    except ValueError as exc:
        raise SceneError(f"{where}: {exc}") from exc


def resolve_chart(doc: dict):
    """(chart, composition spec or None, description) of a read chart
    document, built on the first call with that document in the process and
    then shared (``cached_chart``); an unknown catalog name raises KeyError
    (exit 3)."""
    try:
        text = json.dumps(doc)
    except (TypeError, ValueError):  # a value no JSON document holds: built uncached, to its error
        return _resolve(doc)
    return cached_chart(text)


@functools.lru_cache(maxsize=CHART_CACHE)
def cached_chart(text: str):
    """``_resolve`` of the read chart document whose JSON text is
    ``text``, kept for later scenes with the same text, so 2, 2.0 and true
    are different documents.  A document that fails raises each time and is
    not kept."""
    return _resolve(json.loads(text))


def _resolve(doc: dict):
    """``resolve_chart``'s result, built anew."""
    if "catalog" in doc:
        name = doc["catalog"]
        chart = build_chart(name, catalog.entry(name).builder, doc["params"], "chart.params")
        spec = chart.spec if isinstance(chart, calabi.ComposedChart) else None
        return chart, spec, f"catalog:{name}"
    if "dsl" in doc:
        return parse_chart(doc["dsl"]), None, "inline-dsl"  # ChartParseError propagates (exit 2)
    doc = doc["composition"]
    factors = tuple(build_factor(fd, f"chart.composition.factors[{i}]") for i, fd in enumerate(doc["factors"]))
    try:
        spec = calabi.CompositionSpec(r=doc["r"], factors=factors, constants=doc["constants"])
    except ValueError as exc:
        raise SceneError(f"chart.composition: {exc}") from exc
    return calabi.compose_chart(spec), spec, f"composition(r={spec.r},s={spec.s})"


def resolve_points(doc, chart) -> np.ndarray:
    """The (P, n) points of a read point document, random or listed ones."""
    if isinstance(doc, dict):
        return chart.sample_points(doc["random"], doc["seed"])
    if not isinstance(doc, list) or doc and not any(isinstance(item, list) for item in doc):
        doc = [doc if isinstance(doc, list) else [doc]]  # one point or its one coordinate
    if not doc:
        raise SceneError("point list is empty")
    for k, point in enumerate(doc):
        if not isinstance(point, list):
            raise SceneError(f"points[{k}] must be a list, got {point!r}")
        if len(point) != chart.dim:
            raise SceneError(f"points[{k}] has dimension {len(point)}, chart has {chart.dim}")
    return np.array(doc)


def point_reports(invs, spec, checks, tol) -> list[list[CheckReport]]:
    """Each point's report rows of the invariants invs of a point stack and
    the scene's composition spec (or None): the reports of the checks among
    ``checks`` (names of ``CHECKS``, in its order) at the tolerances ``tol``."""
    rows = [[] for _ in range(len(invs.L1))]
    for name in checks:
        for report, residual in CHECKS[name].residuals(invs, spec).items():
            for row, r in zip(rows, residual.tolist()):
                row.append(CheckReport(report, r, tol[name]))
    return rows


def evaluate_points(chart, spec, points, checks, tol, size, offset=0):
    """The point blocks' lines and their reports, from one stacked
    ``blaschke_at`` call and one call of each check per ``size`` consecutive
    points, numpy overflow raising.  A failing stack is evaluated again as
    two halves, in order, down to the first point that fails alone, whose
    error becomes a ``ChartBuildError`` (exit 3); every row is computed as
    its point alone.  ``points[0]`` is scene point ``offset``."""
    lines, all_reports = [], []
    for first in range(0, len(points), size):
        stack, start = points[first : first + size], offset + first
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):  # exit 3, no warning lines
                invs = blaschke_at(chart, stack)
                reports = point_reports(invs, spec, checks, tol)
        except POINT_ERRORS as exc:
            if len(stack) > 1:  # raises at the first failing point, if one fails alone
                evaluate_points(chart, spec, stack, checks, tol, (len(stack) + 1) // 2, start)
            raise ChartBuildError(f"point {start}: {exc}") from exc
        scalars = zip(invs.L1.tolist(), invs.J.tolist(), invs.chi.tolist())
        for row, (point, (L1, J, chi), reps) in enumerate(zip(stack.tolist(), scalars, reports)):
            lines += (f"point[{start + row}]: {fmt_vector(point)}", f"  L1: {fmt(L1)}", f"  J: {fmt(J)}",
                      f"  chi: {fmt(chi)}")
            lines.extend("  " + check_line(rep) for rep in reps)
            all_reports.extend(reps)
    return lines, all_reports


def run_scene(scene: dict, out) -> int:
    scene = read("scene", scene)
    chart, spec, desc = resolve_chart(scene["chart"])
    points = resolve_points(scene["points"], chart)
    checks = [name for name in CHECKS if scene["checks"] == "all" or name in scene["checks"]]

    size = max(1, STACK_COEFFS // jet_size(chart.dim, blaschke.ORDER))
    point_lines, reports = evaluate_points(chart, spec, points, checks, scene["tolerances"], size)
    lines = [f"chart: {desc}", f"dim: {chart.dim}", f"points: {len(points)}", *point_lines]
    return write_report(out, lines, reports, max_residual=True)


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

    return write_report(out, ["suite: jordan", *map(check_line, rows)], rows, max_residual=False)


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


def _flag_value(text: str):
    """A --chart parameter or --tol value: an int, a float, or else the text."""
    for parse in (int, float):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


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
            if key in params:
                raise SceneError(f"repeated --chart parameter {key!r}")
            params[key] = _flag_value(value)
    return {"catalog": name.strip(), "params": params}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, refusing a key given twice (``json.loads`` alone keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SceneError(f"repeated key {key!r} in a scene object")
        obj[key] = value
    return obj


def load_scene(args) -> dict:
    if args.scene:
        try:
            text = sys.stdin.read() if args.scene == "-" else Path(args.scene).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise SceneError(f"cannot read scene: {exc}") from exc
        try:
            scene = json.loads(text, object_pairs_hook=_unique_keys)
        except SceneError:
            raise
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep a nesting
            raise SceneError(f"scene JSON parse error: {exc}") from exc
        if not isinstance(scene, dict):
            raise SceneError("scene document must be a JSON object")
    else:
        scene = {}
    if args.chart:
        scene["chart"] = parse_chart_flag(args.chart)
    if args.points is not None:
        scene["points"] = {"random": args.points}
    if args.seed is not None:
        points = scene.setdefault("points", dict(DEFAULT_POINTS))
        if not isinstance(points, dict):
            raise SceneError("--seed applies only to random points")
        points["seed"] = args.seed
    for item in args.tol or []:
        if "=" not in item:
            raise SceneError(f"malformed --tol value {item!r} (expected name=value)")
        name, value = item.split("=", 1)
        tolerances = scene.setdefault("tolerances", {})
        if isinstance(tolerances, dict):  # else run_scene refuses the tolerances
            tolerances[name.strip()] = _flag_value(value)
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


def run_command(args, out) -> int:
    """Run the parsed command, writing its report to ``out``; its exit code."""
    if args.command == "jordan":
        return jordan_selftest(out)
    if args.command == "catalog":
        return catalog_list(out)
    scene = load_scene(args)
    if args.command == "invariants":  # read the scene, its checks too, then run it without checks
        scene = {**read("scene", scene), "checks": []}
    elif args.command == "compose":
        scene.setdefault("checks", ["composition", "mean_curvature", "hypersphere"])
    elif args.command == "dual":
        scene.setdefault("checks", ["dual", "apolarity"])
    return run_scene(scene, out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        try:
            if getattr(args, "out", None):
                out = open(args.out, "w")
        except OSError as exc:
            raise SceneError(f"cannot write report: {exc}") from exc
        report = io.StringIO()
        code = run_command(args, report)
        try:
            out.write(report.getvalue())
            out.flush()  # a report that fails on write fails here at the latest
        except OSError as exc:
            raise SceneError(f"cannot write report: {exc}") from exc
        return code
    except (SceneError, ChartParseError) as exc:
        print(f"scene error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except (ChartBuildError, KeyError) as exc:
        print(f"chart error: {_one_line(exc)}", file=sys.stderr)
        return 3
    finally:
        if out is not sys.stdout:
            with contextlib.suppress(OSError):  # failing as reported
                out.close()


if __name__ == "__main__":
    sys.exit(main())
