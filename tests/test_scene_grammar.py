"""The CLI's scene error contract, generated from ``cli.SCENE_GRAMMAR``.

Any scene document, and any scene flags (``--chart``, ``--points``,
``--seed``, ``--tol``) with or without one, make ``main`` exit 0, 1, 2 or 3
without a traceback; exits 2 and 3 print exactly one stderr line, and a
report's summary counts its check lines.  The documents and flags come from
the grammar and the catalog builders' signatures, so a key added to either
is drawn too.  Chart text comes from a grammar of its own: random
expression trees printed by ``dsl.print_expr``, some nested past
``MAX_DEPTH``, with literals at the float limits, vanishing divisors and
the domain edges of log, sqrt and powers, as drawn or with lexical
mutations.  Every drawn chart has at most 3 dimensions (chart text at most
2) and every point set at most 5 points, so the work of one example is
bounded by construction.
"""

import contextlib
import copy
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiaffine import catalog, cli
from equiaffine.dsl import FUNCS, MAX_DEPTH, Bin, Num, Pow, Unary, Var, print_expr

COMMANDS = ["check", "dual", "compose", "invariants"]

# a value of each wrong kind: bool, text, list, object, null, +-inf, NaN and a fractional integer
WRONG = [True, "text", [1], {"k": 1}, None, math.inf, -math.inf, math.nan, 2.5]

# every builder parameter a scene can name, by key: n, n0, C0, m, d, text
PARAMETERS = {key: spec for build in [catalog.flat_factor] + [e.builder for e in catalog.ENTRIES.values()]
              for key, spec in cli.parameter_grammar(build).items()}

# valid chart texts, for the base scenes and the --chart flags (whose
# reader splits a value at commas)
CHART_TEXTS = ["dim 1; x1 = u1; x2 = sqrt(1 + u1^2);", "dim 1; x1 = u1; x2 = log(u1);",
               "dim 2; x1 = u1; x2 = u2; x3 = sqrt(1 + u1^2 + u2^2);", "dim 2; x1 = u1; x2 = u2; x3 = u1^4 + u2^2;"]

# literals at the float limits (the largest, 1e308, subnormals) and at 0;
# exponents of every kind: zero, positive and negative integers, fractions
LITERALS = [0.0, 0.5, -2.0, 1e308, sys.float_info.max, 1e-320, 5e-324]
EXPONENTS = [Fraction(k) for k in (0, 1, 2, 3, -1, -2)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)]


def hyperboloid(dim):
    """(1 + u1^2 + ... + u{dim}^2)^(1/2), whose graph is an affine sphere."""
    node = Num(1.0)
    for i in range(dim):
        node = Bin("+", node, Pow(Var(i), Fraction(2)))
    return Pow(node, Fraction(1, 2))


def expressions(dim):
    """Random expression trees over u1..u{dim}; a leaf is a literal, a
    variable, the hyperboloid or u_i - u_i, so that divisors vanish and log,
    sqrt and powers meet 0 and values below it."""
    vanishing = st.builds(lambda i: Bin("-", Var(i), Var(i)), st.integers(0, dim - 1))
    leaves = st.one_of(st.builds(Num, st.sampled_from(LITERALS)), st.builds(Var, st.integers(0, dim - 1)),
                       st.just(hyperboloid(dim)), vanishing)

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(("neg",) + FUNCS), children),
            st.builds(Bin, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.sampled_from(EXPONENTS)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def deep_expressions(draw, dim):
    """A chain of MAX_DEPTH - 3 to MAX_DEPTH + 3 negations, calls and powers
    over a variable, a short pattern repeated: printed, each negation and
    power adds a group, so most nest past MAX_DEPTH and some do not."""
    pattern = draw(st.lists(st.sampled_from(["neg", "sqrt", "sin", "pow"]), min_size=1, max_size=3))
    node = Var(draw(st.integers(0, dim - 1)))
    for k in range(draw(st.integers(MAX_DEPTH - 3, MAX_DEPTH + 3))):
        op = pattern[k % len(pattern)]
        node = Pow(node, Fraction(2)) if op == "pow" else Unary(op, node)
    return node


# lexical mutations of a chart text: CRLF line ends and a comment at the end
# of the text, and at times one non-ASCII letter or digit put anywhere or an
# index of 5000 digits (out of range, or 1 with leading zeros)
NON_ASCII = ["é", "²", "٣", "ℓ"]
LONG_INDICES = ["7" * 5000, "0" * 4999 + "1"]


@st.composite
def chart_texts(draw):
    """(chart text, its dimension): a graph x_i = u_i over 1 or 2 variables
    whose last component is drawn, as drawn or with lexical mutations."""
    dim = draw(st.integers(1, 2))
    last = draw(st.one_of(st.just(hyperboloid(dim)), expressions(dim), deep_expressions(dim)))
    lines = [f"dim {dim};", *(f"x{i + 1} = u{i + 1};" for i in range(dim)), f"x{dim + 1} = {print_expr(last)};"]
    text = ("\r\n" if draw(st.booleans()) else "\n").join(lines)
    if draw(st.booleans()):
        text += " # the last component"
    mutation = draw(st.sampled_from([None, None, "non-ASCII", "long index"]))
    if mutation == "long index":
        name = draw(st.sampled_from(["x", "u"]))
        text = text.replace(f"{name}1", name + draw(st.sampled_from(LONG_INDICES)), 1)
    elif mutation == "non-ASCII":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(NON_ASCII)) + text[at:]
    return text, dim


# the values of a key, where its kind alone admits too many: integers that
# a chart is built from stay at most 2 (r at most 1; larger ones are past
# MAX_DIM and refused before a chart is built) and a composition has at most
# one sphere factor, so that every chart has at most 3 dimensions; sl_so(m <= 2)
# fails to build, and so does herm3 at every d drawn (its least chart, d = 1, has 5);
# each text key has a strategy, chart text ``chart_texts``
CHART_TEXT = chart_texts().map(lambda drawn: drawn[0])
TEXTS = {"catalog": st.sampled_from(sorted(catalog.ENTRIES)), "name": st.sampled_from(sorted(catalog.ENTRIES)),
         "dsl": CHART_TEXT, "text": CHART_TEXT}
INTEGERS = {"r": [0, 1, 1.0], "d": [0, 3, 3.0, 10**30]}
LIST_SIZES = {"points": 5, "factors": 1}


def documents(kind, key=""):
    """Documents of a kind of the scene grammar; ``key`` is the key they sit under."""
    if isinstance(kind, cli.ListOf):
        return st.lists(documents(kind.kind, key), max_size=LIST_SIZES.get(key, 3))
    if isinstance(kind, frozenset):
        return st.sampled_from(sorted(kind))
    if kind == "integer":
        return st.sampled_from(INTEGERS.get(key, [0, 1, 2, 2.0, 10**30, 1e300]))
    if kind == "number":
        return st.sampled_from([-1, -1.0, -0.5, 0.5, 1, 2.0, 1e300, -1e-300, 10**400])
    if kind == "text":
        return TEXTS[key]
    if kind == "object":
        return objects(PARAMETERS, every_key_optional=True)
    grammar = cli.SCENE_GRAMMAR[kind]
    if isinstance(grammar, tuple):
        return st.one_of([documents(k, key) for k in grammar])
    if isinstance(grammar, cli.OneOf):
        return st.one_of([objects(variant) for variant in grammar.values()])
    return objects(grammar)


def objects(grammar, every_key_optional=False):
    """Objects of a grammar's keys: the required ones always, the others at times."""
    required = {k: documents(spec.kind, k) for k, spec in grammar.items()
                if spec.default is cli.REQUIRED and not every_key_optional}
    optional = {k: documents(spec.kind, k) for k, spec in grammar.items() if k not in required}
    return st.fixed_dictionaries(required, optional=optional)


def places(doc, path=""):
    """(container, key, place) of every value inside a document, its place
    written as the CLI's messages write it."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in list(items):
        place = f"{path}[{key}]" if isinstance(doc, list) else f"{path}.{key}" if path else key
        yield doc, key, place
        yield from places(value, place)


def variants(obj):
    """The ``OneOf`` of the grammar an object of a document belongs to, if any."""
    for grammar in cli.SCENE_GRAMMAR.values():
        if isinstance(grammar, cli.OneOf) and obj.keys() <= {k for variant in grammar.values() for k in variant}:
            if obj.keys() & grammar.keys():
                return grammar
    return None


@st.composite
def scene_documents(draw):
    """A scene document from the grammar, as drawn or with one value of a
    wrong kind, one unknown key or a second discriminator."""
    doc = draw(documents("scene"))
    inside = list(places(doc))
    how = draw(st.sampled_from(["as drawn", "wrong kind", "unknown key", "two kinds"]))
    if how == "wrong kind":
        container, key, _ = draw(st.sampled_from(inside))
        container[key] = draw(st.sampled_from(WRONG))
    elif how == "unknown key":
        obj = draw(st.sampled_from([doc] + [c[k] for c, k, _ in inside if isinstance(c[k], dict)]))
        obj["junk"] = 1
    else:
        objs = [c[k] for c, k, _ in inside if isinstance(c[k], dict) and variants(c[k])]
        if objs:
            obj = draw(st.sampled_from(objs))
            key = draw(st.sampled_from([key for key in variants(obj) if key not in obj]))
            obj[key] = draw(documents(variants(obj)[key][key].kind, key))
    return doc


def run_main(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(("scene error: ", "chart error: ", "equiaffine "))  # the last: argparse usage
        return
    assert err == ""
    checks = re.findall(r"^ *check .*: residual=.* (pass|FAIL)$", out, flags=re.MULTILINE)
    assert f"\n  checks: {len(checks)}\n" in out
    assert f"\n  failed: {checks.count('FAIL')}\n" in out
    assert out.endswith(f"  status: {'FAIL' if code else 'pass'}\n")


@settings(max_examples=150, deadline=None)
@given(text=scene_documents().map(json.dumps), command=st.sampled_from(COMMANDS))
# JSON that json.loads refuses with an error other than JSONDecodeError
@example(text='{"chart": %s}' % ("[" * 100_000 + "]" * 100_000), command="check")
@example(text='{"points": {"random": %s}}' % ("1" * 5000), command="check")
# a point nested one list deeper, on a 1-dimensional chart
@example(text='{"chart": {"dsl": "%s"}, "points": [[[0.5]]]}' % CHART_TEXTS[0], command="check")
def test_any_scene_document_keeps_the_error_contract(text, command):
    assert_contract(*run_main([command, "--scene", "-"], text))


# coordinates of points on drawn chart text: 0, where u_i is a vanishing
# divisor too, values of both signs, a tiny one and one past the unit ball
TEXT_COORDINATES = [0.0, 0.3, -0.3, 0.5, -2.0, 1e-300]


@st.composite
def chart_text_scenes(draw):
    """A scene of drawn chart text, inline or as the graph builder's
    parameter, with 1 to 5 points of its dimension."""
    text, dim = draw(chart_texts())
    chart = draw(st.sampled_from([{"dsl": text}, {"catalog": "graph", "params": {"text": text}}]))
    points = draw(st.lists(st.lists(st.sampled_from(TEXT_COORDINATES), min_size=dim, max_size=dim),
                           min_size=1, max_size=5))
    return {"chart": chart, "points": points}


@settings(max_examples=150, deadline=None)
@given(scene=chart_text_scenes(), command=st.sampled_from(COMMANDS))
# a superscript digit, which str.isdigit takes and int() refuses, and an
# index of more digits than int() reads
@example(scene={"chart": {"dsl": "dim 1; x1 = u1; x² = u1;"}, "points": [[0.1]]}, command="check")
@example(scene={"chart": {"dsl": "dim 1; x1 = u" + "7" * 5000 + "; x2 = u1;"}, "points": [[0.1]]}, command="check")
def test_any_chart_text_keeps_the_error_contract(scene, command):
    assert_contract(*run_main([command, "--scene", "-"], json.dumps(scene)))


# charts of at most 3 dimensions, each with its dimension: the quadrics,
# chart text with exp and a composition
POINT_CHARTS = [
    *(({"catalog": name, "params": {"n": n}}, n)
      for name in ("unit_sphere", "elliptic_paraboloid", "hyperboloid") for n in (1, 2, 3)),
    ({"dsl": "dim 2; x1 = exp(u1); x2 = exp(u2); x3 = exp(-u1 - u2);"}, 2),
    ({"composition": {"r": 1, "constants": [1.0, 1.0],
                      "factors": [{"catalog": {"name": "hyperboloid", "params": {"n": 2}}, "L1": -1.0}]}}, 3),
]

# coordinates at and near the float limits (the largest, its square root,
# the smallest normal, the smallest subnormal), of both signs, and any finite one
EXTREME = [sys.float_info.max, 1e308, 1e154, 1e30, 0.5, 1e-30, 1e-154, sys.float_info.min, 5e-324, 0.0]
COORDINATES = st.one_of(st.sampled_from(EXTREME + [-x for x in EXTREME]), st.floats(allow_nan=False,
                                                                                    allow_infinity=False))


@st.composite
def extreme_point_scenes(draw):
    """A chart of at most 3 dimensions with 1 to 5 points of extreme, mixed
    and subnormal coordinates, and the place of one coordinate."""
    chart, dim = draw(st.sampled_from(POINT_CHARTS))
    points = draw(st.lists(st.lists(COORDINATES, min_size=dim, max_size=dim), min_size=1, max_size=5))
    k, i = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, dim - 1))
    return {"chart": chart, "points": points}, (k, i)


@settings(max_examples=100, deadline=None)
@given(scene_and_place=extreme_point_scenes(), command=st.sampled_from(COMMANDS),
       non_finite=st.sampled_from([math.nan, math.inf, -math.inf]))
@example(scene_and_place=({"chart": POINT_CHARTS[8][0], "points": [[1e308, 1e308, 0.0]]}, (0, 0)),
         command="check", non_finite=math.nan)
@example(scene_and_place=({"chart": POINT_CHARTS[-1][0], "points": [[5e-324, 0.0, 1e154]]}, (0, 2)),
         command="compose", non_finite=math.inf)
def test_extreme_point_values_keep_the_error_contract(scene_and_place, command, non_finite):
    scene, (k, i) = scene_and_place
    assert_contract(*run_main([command, "--scene", "-"], json.dumps(scene)))
    # the same scene with one coordinate not finite exits 2 with one line
    scene["points"][k][i] = non_finite
    code, out, err = run_main([command, "--scene", "-"], json.dumps(scene))
    assert_contract(code, out, err)
    assert code == 2 and err.startswith(f"scene error: points[{k}][{i}] must be a finite number")


# the values of a flag, or of a --chart parameter by its key in INTEGERS or
# else by its kind: every chart has at most 2 dimensions (sl_so(m <= 2) and
# herm3 at the d of INTEGERS fail to build, 10**30 is past MAX_DIM)
FLAG_VALUES = {"--points": [2, 1, 5], "--seed": [1, 0, 7], "integer": [2, 1, 0, 2.0, 10**30],
               "number": [1.0, 0.5, 2, 1e300], "text": CHART_TEXTS}


@st.composite
def scene_flags(draw, chart=False):
    """Scene flags: ``--chart`` (always if ``chart``) with a catalog name and
    its builder's parameters, ``--points``, ``--seed`` and ``--tol`` for the
    names of ``cli.CHECKS``, with values from ``FLAG_VALUES``; as drawn or
    with one value of ``WRONG``, one more --chart parameter from
    ``PARAMETERS`` (its builder's, repeated, or another) or one unknown --tol name."""
    name = draw(st.sampled_from(sorted(catalog.ENTRIES))) if chart or draw(st.booleans()) else None
    grammar = cli.parameter_grammar(catalog.entry(name).builder) if name else {}
    params = [[key, draw(st.sampled_from(INTEGERS.get(key, FLAG_VALUES[spec.kind])))] for key, spec in grammar.items()
              if spec.default is cli.REQUIRED or draw(st.booleans())]
    flags = [[flag, draw(st.sampled_from(FLAG_VALUES[flag]))] for flag in ("--points", "--seed") if draw(st.booleans())]
    tols = [[check, draw(st.sampled_from(FLAG_VALUES["number"]))]
            for check in draw(st.lists(st.sampled_from(sorted(cli.CHECKS)), max_size=2))]
    how = draw(st.sampled_from(["as drawn", "wrong value", "another parameter", "unknown name"]))
    if how == "wrong value" and params + flags + tols:
        draw(st.sampled_from(params + flags + tols))[1] = draw(st.sampled_from(WRONG))
    elif how == "another parameter" and name:
        key = draw(st.sampled_from(sorted(PARAMETERS)))
        params.append([key, draw(st.sampled_from(INTEGERS.get(key, FLAG_VALUES[PARAMETERS[key].kind])))])
    elif how == "unknown name":
        tols.append(["junk", draw(st.sampled_from(FLAG_VALUES["number"]))])
    argv = ["--chart", f"{name}({', '.join(f'{key}={value}' for key, value in params)})"] if name else []
    for flag, value in flags:
        argv += [flag, str(value)]
    for check, value in tols:
        argv += ["--tol", f"{check}={value}"]
    return argv


# (scene text or None, flags): with no scene document the flags name the chart
SCENE_AND_FLAGS = st.tuples(st.none(), scene_flags(chart=True)) | st.tuples(scene_documents().map(json.dumps),
                                                                             scene_flags())


@settings(max_examples=150, deadline=None)
@given(scene_and_flags=SCENE_AND_FLAGS, command=st.sampled_from(COMMANDS))
@example(scene_and_flags=(None, ["--chart", "hyperboloid(n=2, n=3)", "--points", "2"]), command="check")
@example(scene_and_flags=(None, ["--chart", "hyperboloid(n=2)", "--tol", "gauss=1", "--tol", "gauss=x"]),
         command="check")
def test_any_scene_flags_keep_the_error_contract(scene_and_flags, command):
    text, argv = scene_and_flags
    scene = [] if text is None else ["--scene", "-"]
    assert_contract(*run_main([command, *scene, *argv], text or ""))


# valid scenes that give every key of the grammar and every builder parameter;
# numbers are floats and integers ints, so a fractional value is of the wrong
# kind exactly where the document holds an int; every chart has at least 2
# dimensions, so a list of numbers or a number given as the points (one point)
# is of the wrong dimension
FLAT = {"catalog": "flat_hypersphere", "params": {"n0": 2, "C0": 1.0}}
BASES = [
    {"chart": FLAT, "points": {"random": 1, "seed": 0}, "checks": ["apolarity", "hypersphere"],
     "tolerances": {name: float(tol) for name, tol in cli.DEFAULT_TOL.items()}},
    {"chart": {"composition": {"r": 0, "constants": [1.0, 1.0], "factors": [
        {"flat": {"n0": 1, "C0": 1.0}}, {"catalog": {"name": "hyperboloid", "params": {"n": 1}}, "L1": -1.0}]}},
     "points": [[0.1, 0.2, 0.3]], "checks": "all"},
    {"chart": {"dsl": CHART_TEXTS[2]}, "points": [[0.5, 0.5]]},
    {"chart": {"catalog": "graph", "params": {"text": CHART_TEXTS[2]}}, "points": {"random": 2}},
    {"chart": {"catalog": "sl_so", "params": {"m": 3}}, "points": [[0.0] * 5], "checks": ["apolarity"]},
    {"chart": {"catalog": "herm3", "params": {"d": 1}}, "points": [[0.0] * 5], "checks": ["apolarity"]},
]


def grammar_keys(skip=()):
    """Every key of the grammar's objects but those named in ``skip``, and every builder parameter."""
    keys = set(PARAMETERS)
    for name, grammar in cli.SCENE_GRAMMAR.items():
        objs = grammar.values() if isinstance(grammar, cli.OneOf) else [grammar] if isinstance(grammar, dict) else []
        for obj in objs if name not in skip else []:
            keys |= obj.keys()
    return keys


def test_the_base_scenes_give_every_key_and_pass():
    assert {key for base in BASES for _, key, _ in places(base) if isinstance(key, str)} == grammar_keys()
    for base in BASES:
        code, out, err = run_main(["check", "--scene", "-"], json.dumps(base))
        assert (code, err) == (0, "")


def test_the_readme_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| key | kind | range | default |"):].split("\n\n")[0]
    named = {name for path in re.findall(r"`([^`]+)`", table) for name in re.split(r"[.\[\], ]+", path)}
    assert grammar_keys(skip=["tolerances"]) <= named  # the tolerances row names no check


def objects_in(doc):
    """(object, place) of a document and of every object inside it."""
    yield doc, "scene"
    for container, key, place in places(doc):
        if isinstance(container[key], dict):
            yield container[key], place


def wrong_scenes():
    """(scene, text its message must hold) for every value of every base scene
    given each wrong kind, every object given an unknown key, and every chart
    and factor given a second discriminator."""
    for base in BASES:
        for index, (_, key, place) in enumerate(places(base)):
            for wrong in WRONG:
                doc = copy.deepcopy(base)
                container = list(places(doc))[index][0]
                if type(wrong) is not type(container[key]) or isinstance(wrong, float) and not math.isfinite(wrong):
                    container[key] = wrong
                    yield doc, place
        for index, (obj, place) in enumerate(objects_in(base)):
            doc = copy.deepcopy(base)
            list(objects_in(doc))[index][0]["junk"] = 1
            yield doc, f"unknown key 'junk' in {place}"
            if variants(obj):
                doc = copy.deepcopy(base)
                other = next(key for key in variants(obj) if key not in obj)
                list(objects_in(doc))[index][0][other] = {}
                yield doc, f"{place} needs exactly one of"


def test_a_value_of_a_wrong_kind_exits_2_naming_its_place():
    cases = list(wrong_scenes())
    assert len(cases) > 200
    for doc, named in cases:
        code, out, err = run_main(["check", "--scene", "-"], json.dumps(doc))
        assert_contract(code, out, err)
        assert code == 2 and named in err, (doc, err)
