"""A small expression language for parametrized immersion charts.

A chart file declares the domain dimension, optional named parameters and
one expression per ambient coordinate::

    dim 2;
    param C0 = 1;
    x1 = exp(u1);
    x2 = exp(u2);
    x3 = C0 * exp(-u1 - u2);

Variables are u1..uN, components must be x1..x{N+1}.  Supported
functions: exp, log, sqrt, sin, cos.  The power operator ``^`` takes a
constant rational exponent, written either as a plain number or as a
parenthesized fraction, e.g. ``u1^2`` or ``u1^(-3/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jets
from .jets import Jet

FUNCS = ("exp", "log", "sqrt", "sin", "cos")


class ChartParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ImmersionError(ValueError):
    """Raised when a chart fails the rank-n Jacobian check at a point."""


# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # neg | exp | log | sqrt | sin | cos
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


def eval_expr(expr, var_jets: list[Jet], params: dict[str, float]) -> Jet:
    n, order = var_jets[0].num_vars, var_jets[0].order
    if isinstance(expr, Num):
        return Jet.constant(expr.value, n, order)
    if isinstance(expr, Var):
        return var_jets[expr.index]
    if isinstance(expr, Param):
        try:
            return Jet.constant(params[expr.name], n, order)
        except KeyError:
            raise ValueError(f"unbound parameter {expr.name!r}") from None
    if isinstance(expr, Unary):
        arg = eval_expr(expr.arg, var_jets, params)
        return -arg if expr.op == "neg" else jets.jet_eval(expr.op, arg)
    if isinstance(expr, Bin):
        a = eval_expr(expr.left, var_jets, params)
        b = eval_expr(expr.right, var_jets, params)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, Pow):
        return jets.power(eval_expr(expr.base, var_jets, params), expr.exponent)
    raise TypeError(f"unknown AST node {expr!r}")


def print_expr(expr) -> str:
    """Render an AST back to source text (stable under re-parsing)."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"u{expr.index + 1}"
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, Unary):
        if expr.op == "neg":
            return f"-({print_expr(expr.arg)})"
        return f"{expr.op}({print_expr(expr.arg)})"
    if isinstance(expr, Bin):
        return f"({print_expr(expr.left)} {expr.op} {print_expr(expr.right)})"
    if isinstance(expr, Pow):
        e = expr.exponent
        suffix = f"({e.numerator}/{e.denominator})" if e.denominator != 1 else f"({e.numerator})"
        return f"({print_expr(expr.base)})^{suffix}"
    raise TypeError(f"unknown AST node {expr!r}")


# -- charts --------------------------------------------------------------


class ChartDef:
    """A parametrized immersion u in R^n -> R^{n+1}.

    Subclasses implement ``component_jets``, which returns the ambient
    coordinates x^1..x^{n+1} at a point as a float (n+1, jet_size(n, order))
    jet array (see ``jets``); evaluation, Jacobian rank checking and
    sampling live here.
    """

    def __init__(self, dim: int, domain_hint=None, params=None):
        self.dim = dim
        self.ambient_dim = dim + 1
        if domain_hint is None:
            domain_hint = (-0.5 * np.ones(dim), 0.5 * np.ones(dim))
        self.domain_hint = (np.asarray(domain_hint[0], float), np.asarray(domain_hint[1], float))
        self.params = dict(params or {})

    def component_jets(self, point: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        lo, hi = self.domain_hint
        rng = np.random.default_rng(seed)
        return lo + (hi - lo) * rng.random((count, self.dim))


class DslChart(ChartDef):
    def __init__(self, dim, components, params=None, domain_hint=None):
        super().__init__(dim, domain_hint=domain_hint, params=params)
        if len(components) != dim + 1:
            raise ValueError(f"expected {dim + 1} components, got {len(components)}")
        self.components = list(components)

    def component_jets(self, point, order):
        var_jets = [Jet(self.dim, order, c) for c in jets.jet_variables(point, order)]
        return np.array([eval_expr(c, var_jets, self.params).coeffs for c in self.components])

    def to_text(self) -> str:
        lines = [f"dim {self.dim};"]
        for name, value in sorted(self.params.items()):
            lines.append(f"param {name} = {value!r};")
        for i, c in enumerate(self.components):
            lines.append(f"x{i + 1} = {print_expr(c)};")
        return "\n".join(lines) + "\n"


def eval_chart_jet(chart: ChartDef, point, order: int) -> np.ndarray:
    """Evaluate a chart into its (n+1, M) ambient-coordinate jet array;
    checks immersiveness."""
    if not 1 <= order <= jets.MAX_ORDER:
        raise ValueError(f"order must be in 1..{jets.MAX_ORDER}")
    point = np.asarray(point, float)
    if point.shape != (chart.dim,):
        raise ValueError(f"point must have dimension {chart.dim}")
    comp = chart.component_jets(point, order)
    jac = comp[:, 1 : chart.dim + 1]  # degree-1 block: the (n+1, n) Jacobian
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        raise ImmersionError(f"Jacobian rank-deficient at {point} (singular values {sv})")
    return comp


# -- tokenizer / parser ---------------------------------------------------


@dataclass
class _Token:
    kind: str  # NUMBER IDENT SYM EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    symbols = "+-*/^();="
    while i < len(text):
        ch = text[i]
        if ch == "\r":
            i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    j = k
                    while j < len(text) and text[j].isdigit():
                        j += 1
            toks.append(_Token("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in symbols:
            toks.append(_Token("SYM", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ChartParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> _Token:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ChartParseError(f"expected {want!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ChartParseError(msg, tok.line, tok.col)

    # file := decl* ;
    def parse_file(self):
        dim = None
        params: dict[str, float] = {}
        comps: dict[int, object] = {}
        while self.peek().kind != "EOF":
            t = self.next()
            if t.kind != "IDENT":
                self.error(f"expected a declaration, found {t.text!r}", t)
            if t.text == "dim":
                num = self.expect("NUMBER")
                if dim is not None:
                    self.error("duplicate dim declaration", t)
                dim = int(float(num.text))
                if dim < 1:
                    self.error("dim must be a positive integer", num)
            elif t.text == "param":
                name = self.expect("IDENT")
                self.expect("SYM", "=")
                sign = 1.0
                if self.peek().kind == "SYM" and self.peek().text == "-":
                    self.next()
                    sign = -1.0
                num = self.expect("NUMBER")
                params[name.text] = sign * float(num.text)
            else:
                if dim is None:
                    self.error("dim must be declared before components", t)
                if not (t.text.startswith("x") and t.text[1:].isdigit()):
                    self.error(f"unknown declaration {t.text!r}", t)
                idx = int(t.text[1:])
                if not 1 <= idx <= dim + 1:
                    self.error(f"component {t.text} out of range for dim {dim}", t)
                self.expect("SYM", "=")
                comps[idx] = self.parse_expr(dim, params)
            self.expect("SYM", ";")
        if dim is None:
            self.error("missing dim declaration")
        missing = [i for i in range(1, dim + 2) if i not in comps]
        if missing:
            self.error(f"missing components: {', '.join('x%d' % i for i in missing)}")
        return dim, [comps[i] for i in range(1, dim + 2)], params

    def parse_expr(self, dim, params):
        node = self.parse_term(dim, params)
        while self.peek().kind == "SYM" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.parse_term(dim, params))
        return node

    def parse_term(self, dim, params):
        node = self.parse_factor(dim, params)
        while self.peek().kind == "SYM" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.parse_factor(dim, params))
        return node

    def parse_factor(self, dim, params):
        node = self.parse_base(dim, params)
        if self.peek().kind == "SYM" and self.peek().text == "^":
            self.next()
            node = Pow(node, self.parse_rational())
        return node

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "SYM" and self.peek().text == "-":
            self.next()
            sign = -1
        if self.peek().kind == "SYM" and self.peek().text == "(":
            self.next()
            if self.peek().kind == "SYM" and self.peek().text == "-":
                self.next()
                sign = -sign
            num = self.expect("NUMBER")
            frac = Fraction(num.text)
            if self.peek().kind == "SYM" and self.peek().text == "/":
                self.next()
                den = self.expect("NUMBER")
                frac /= Fraction(den.text)
            self.expect("SYM", ")")
            return sign * frac
        num = self.expect("NUMBER")
        return sign * Fraction(num.text)

    def parse_base(self, dim, params):
        t = self.next()
        if t.kind == "NUMBER":
            return Num(float(t.text))
        if t.kind == "SYM" and t.text == "-":
            return Unary("neg", self.parse_base(dim, params))
        if t.kind == "SYM" and t.text == "(":
            node = self.parse_expr(dim, params)
            self.expect("SYM", ")")
            return node
        if t.kind == "IDENT":
            if t.text in FUNCS:
                self.expect("SYM", "(")
                arg = self.parse_expr(dim, params)
                self.expect("SYM", ")")
                return Unary(t.text, arg)
            if t.text.startswith("u") and t.text[1:].isdigit():
                idx = int(t.text[1:])
                if not 1 <= idx <= dim:
                    self.error(f"variable {t.text} exceeds dim {dim}", t)
                return Var(idx - 1)
            if t.text in params:
                return Param(t.text)
            self.error(f"unknown identifier {t.text!r}", t)
        self.error(f"expected an expression, found {t.text or 'end of input'!r}", t)


def parse_chart(text: str, domain_hint=None) -> DslChart:
    """Parse chart source text into a DslChart."""
    dim, comps, params = _Parser(text).parse_file()
    return DslChart(dim, comps, params=params, domain_hint=domain_hint)
