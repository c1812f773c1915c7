"""A small expression language for parametrized immersion charts.

A chart file declares the domain dimension, optional named parameters and
one expression per ambient coordinate::

    dim 2;
    param C0 = 1;
    x1 = exp(u1);
    x2 = exp(u2);
    x3 = C0 * exp(-u1 - u2);

Variables are u1..uN, components must be x1..x{N+1}.  Supported
functions: exp, log, sqrt, sin, cos.  Each declaration comes once, and a
parameter named like a variable or a function is refused.  The power
operator ``^`` takes a constant rational exponent, written either as a
plain number or as a parenthesized fraction, e.g. ``u1^2`` or
``u1^(-3/2)``.  A non-negative integer exponent is defined at every base,
a negative integer exponent at every nonzero base, and any other exponent
at positive bases only.  A unary minus negates a whole factor, so
``-u1^2`` is ``-(u1^2)``, as in Python.

Each chart computes once, from its expression trees alone, an upper bound
on every node's polynomial degree in u (``degree_bounds``): a constant or
parameter has bound 0, a variable 1, a sum or difference the larger of
its operands', a product their sum, an integer power k >= 0 k times its
base's, a quotient by a constant its numerator's, and a function or other
power of a constant 0; everything else is unbounded.  Every Taylor
coefficient of a node above its bound is exactly zero at every point, so
evaluation hands the bounds to the jet products (see ``jets``), which then
skip the pairs that would multiply such zeros.

Besides ``DslChart``, this module defines ``OrbitChart``, the orbit
u -> exp(u·X) x0 of the catalog's symmetric examples and of a Calabi
composition's weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jets

FUNCS = tuple(jets.ELEMENTARY)


# the largest chart dimension accepted: the paper's largest example, the
# Albert-algebra orbit herm3(8) (n = 26), costs 0.27-0.41 s and peaks at
# 216 MB of RSS for one cold point in a fresh process (2-core VM, numpy 2.4)
MAX_DIM = 26

# the deepest expression accepted, in nested groups, calls and negations and
# in AST levels (each operator of a chain of sums is one): parsing takes four
# stack frames per nesting level and evaluating and printing one per AST
# level, so 200 stays inside Python's default recursion limit of 1000
MAX_DEPTH = 200


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


def degree_bounds(exprs) -> dict[int, int | None]:
    """Upper bounds on the polynomial degree of every node of the ASTs
    ``exprs``, keyed by ``id(node)``, None for a node that is no polynomial.
    They hold at every jet order; a product clamps them to its own."""
    bounds: dict[int, int | None] = {}

    def bound(expr) -> int | None:
        if isinstance(expr, (Num, Param)):
            d = 0
        elif isinstance(expr, Var):
            d = 1
        elif isinstance(expr, Unary):
            d = bound(expr.arg)
            if expr.op != "neg" and d != 0:
                d = None
        elif isinstance(expr, Bin):
            da, db = bound(expr.left), bound(expr.right)
            if expr.op == "/":
                d = da if db == 0 else None
            elif None in (da, db):
                d = None
            else:
                d = max(da, db) if expr.op in "+-" else da + db
        elif isinstance(expr, Pow):
            d, k = bound(expr.base), expr.exponent
            if k == 0 or d == 0:
                d = 0
            elif d is not None and k.denominator == 1 and k > 0:
                d = int(k) * d
            else:
                d = None
        else:
            raise TypeError(f"unknown AST node {expr!r}")
        bounds[id(expr)] = d
        return d

    for expr in exprs:
        bound(expr)
    return bounds


def eval_expr(expr, var_jets: np.ndarray, params: dict[str, float], bounds) -> np.ndarray:
    """Evaluate an AST on the (n, M) coordinate jets ``var_jets`` (from
    ``jets.jet_variables``) into one (M,) jet; (..., n, M) stacked
    coordinate jets give (..., M) jets.  ``bounds`` maps ``id(node)`` to
    the node's degree bound (``degree_bounds``)."""
    n = var_jets.shape[-2]
    if isinstance(expr, (Num, Param)):
        out = np.zeros(var_jets.shape[:-2] + var_jets.shape[-1:])
        try:
            out[..., 0] = expr.value if isinstance(expr, Num) else params[expr.name]
        except KeyError:
            raise ValueError(f"unbound parameter {expr.name!r}") from None
        return out
    if isinstance(expr, Var):
        return var_jets[..., expr.index, :]
    if isinstance(expr, Unary):
        arg = eval_expr(expr.arg, var_jets, params, bounds)
        return -arg if expr.op == "neg" else jets.ELEMENTARY[expr.op](arg, n, bounds[id(expr.arg)])
    if isinstance(expr, Bin):
        a = eval_expr(expr.left, var_jets, params, bounds)
        b = eval_expr(expr.right, var_jets, params, bounds)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        da, db = bounds[id(expr.left)], bounds[id(expr.right)]
        if expr.op == "*":
            return jets.jet_mul(a, b, n, (da, db))
        inverse_bound = 0 if db == 0 else None  # 1/b is constant where b is
        return jets.jet_mul(a, jets.recip(b, n, db), n, (da, inverse_bound))
    if isinstance(expr, Pow):
        base = eval_expr(expr.base, var_jets, params, bounds)
        return jets.power(base, expr.exponent, n, bounds[id(expr.base)])
    raise TypeError(f"unknown AST node {expr!r}")


def _children(expr) -> tuple:
    if isinstance(expr, Unary):
        return (expr.arg,)
    if isinstance(expr, Bin):
        return (expr.left, expr.right)
    if isinstance(expr, Pow):
        return (expr.base,)
    return ()


def _expr_depth(expr) -> int:
    """Nodes on the longest root-to-leaf path of an AST, found without
    recursion, so that any depth can be measured."""
    deepest, todo = 0, [(expr, 1)]
    while todo:
        node, depth = todo.pop()
        deepest = max(deepest, depth)
        todo.extend((child, depth + 1) for child in _children(node))
    return deepest


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


def _read_only_copy(values) -> np.ndarray:
    """A read-only float copy of ``values``: the arrays a chart exposes, which
    every scene that shares the chart reads."""
    array = np.array(values, float)
    array.flags.writeable = False
    return array


class ChartDef:
    """A parametrized immersion u in R^n -> R^{n+1}.

    Subclasses implement ``component_jets``, which returns the ambient
    coordinates x^1..x^{n+1} at a point as a float (n+1, jet_size(n, order))
    jet array (see ``jets``), and at each point of a (..., n) point stack
    as an (..., n+1, M) one; evaluation, Jacobian rank checking and
    sampling live here.  Nothing writes to a chart once it is built, and
    the arrays it exposes are read-only, so one chart may serve any number
    of scenes (the CLI resolves each chart document once per process).
    """

    def __init__(self, dim: int, domain_hint=None, params=None):
        self.dim = dim
        self.ambient_dim = dim + 1
        if domain_hint is None:
            domain_hint = (-0.5 * np.ones(dim), 0.5 * np.ones(dim))
        self.domain_hint = (_read_only_copy(domain_hint[0]), _read_only_copy(domain_hint[1]))
        self.params = dict(params or {})
        self._last_jets = None  # (key, jets) of the last ``jets_at`` call

    def component_jets(self, point: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def jets_at(self, point, order: int) -> np.ndarray:
        """``component_jets`` at a point or point stack, read-only.  The last
        result is kept, so the same points at the same order (a composition
        factor's stack, evaluated by the composed chart and then by the
        composition check's ``calabi.centroaffine_form``, both at
        ``blaschke.ORDER``) are evaluated once; a call at another order
        evaluates again and replaces the entry.  It lives as long as the
        chart: for a chart the CLI resolved, across scenes, until its chart
        document leaves the CLI's chart cache."""
        point = np.asarray(point, float)
        key = (order, point.shape, point.tobytes())
        if self._last_jets is None or self._last_jets[0] != key:
            out = self.component_jets(point, order)
            out.flags.writeable = False
            self._last_jets = (key, out)
        return self._last_jets[1]

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        lo, hi = self.domain_hint
        rng = np.random.default_rng(seed)
        return lo + (hi - lo) * rng.random((count, self.dim))


class OrbitChart(ChartDef):
    """u -> exp(u·X) x0, for generators X (n, n+1, n+1) self-adjoint in the
    positive diagonal form q (n+1,).  Its jets at u0 are those of
    v -> exp(u0·X) exp(v·X) x0 at v = 0, so g, A and B are in these local
    coordinates v.  They show the orbit near u0 only if the X_i span a Lie
    triple system ([[X_i, X_j], X_k] in span{X_l}) whose brackets annihilate
    x0; other generators are not refused, and show x0's invariants."""

    def __init__(self, X, x0, q, domain_hint=None):
        self.X = _read_only_copy(X)
        super().__init__(len(self.X), domain_hint=domain_hint)
        self.x0 = _read_only_copy(x0)
        self.root_q = _read_only_copy(np.sqrt(q))
        self._base = {}

    def base_jets(self, order: int) -> np.ndarray:
        """Jets of exp(v·X) x0 at v = 0, read-only (n+1, M), built once per
        order with no jet product: Euler's identity sum_i v_i d_i f = (v·X) f
        gives c_alpha = (1/|alpha|) sum_i X_i c_{alpha - e_i}."""
        if order not in self._base:
            c = np.zeros((self.ambient_dim, jets.jet_size(self.dim, order)))
            c[:, 0] = self.x0
            child = jets.jet_index(self.dim, c.shape[-1]).successors  # child[i, beta] = beta + e_i, one-to-one in beta
            lo, hi = 0, 1  # the monomials of degree k - 1
            for k in range(1, order + 1):
                for i, Xi in enumerate(self.X):
                    c[:, child[i, lo:hi]] += Xi @ c[:, lo:hi]
                lo, hi = hi, jets.jet_size(self.dim, k)
                c[:, lo:hi] /= k
            c.flags.writeable = False
            self._base[order] = c
        return self._base[order]

    def component_jets(self, point, order):
        # exp(U) = q^-1/2 V e^w V^t q^1/2, from the eigenpairs of q^1/2 U q^-1/2
        U = np.einsum("vab,...v->...ab", self.X, point)
        r = self.root_q
        w, V = np.linalg.eigh(r[:, None] * U / r)
        expU = (V / r[:, None] * np.exp(w)[..., None, :]) @ (np.swapaxes(V, -1, -2) * r)
        return expU @ self.base_jets(order)


class DslChart(ChartDef):
    def __init__(self, dim, components, params=None, domain_hint=None):
        super().__init__(dim, domain_hint=domain_hint, params=params)
        if len(components) != dim + 1:
            raise ValueError(f"expected {dim + 1} components, got {len(components)}")
        self.components = list(components)
        self.bounds = degree_bounds(self.components)

    def component_jets(self, point, order):
        var_jets = jets.jet_variables(point, order)
        out = np.empty(var_jets.shape[:-2] + (self.ambient_dim, var_jets.shape[-1]))
        for i, c in enumerate(self.components):
            out[..., i, :] = eval_expr(c, var_jets, self.params, self.bounds)
        return out

    def to_text(self) -> str:
        lines = [f"dim {self.dim};"]
        for name, value in sorted(self.params.items()):
            lines.append(f"param {name} = {value!r};")
        for i, c in enumerate(self.components):
            lines.append(f"x{i + 1} = {print_expr(c)};")
        return "\n".join(lines) + "\n"


def eval_immersion(chart: ChartDef, point, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a chart at a point into its (n+1, M) ambient-coordinate jet
    array, the (n+1, n+1) inverse of [T; w] (T the (n, n+1) tangent values
    d_k x^a, w a unit normal to them and the inverse's last column) and the
    tangents' singular values (n,); at a (P, n) point stack, each with a
    leading point axis.

    One SVD T = U S V^T gives all three: the singular values, which must
    show rank n at every point (``ImmersionError`` names the first point
    that fails), and [V S^{-1} U^T | v], v the last right singular vector,
    refined once, X + X (I - [T; v] X), so that each entry is accurate at
    its own ambient coordinate's scale, as an LU solve's would be.  The
    product of the singular values is |det [T; w]|."""
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    point = np.asarray(point, float)
    if point.ndim not in (1, 2) or point.shape[-1] != chart.dim:
        raise ValueError(f"point must have dimension {chart.dim}")
    comp = chart.jets_at(point, order)
    tangents = comp[..., 1 : chart.dim + 1].swapaxes(-1, -2)  # degree-1 block: [k, a] = d_k x^a
    u, sv, vh = np.linalg.svd(tangents)
    bad = sv[..., -1] <= 1e-10 * sv[..., 0]  # relative, so at any scale; an all-zero Jacobian too
    if bad.any():
        k = np.argmax(bad)
        raise ImmersionError(f"Jacobian rank-deficient at {point.reshape(-1, chart.dim)[k]} "
                             f"(singular values {sv.reshape(-1, sv.shape[-1])[k]})")
    inverse = vh.swapaxes(-1, -2).copy()
    inverse[..., :-1] = np.matmul(inverse[..., :-1] / sv[..., None, :], u.swapaxes(-1, -2))
    residual = np.eye(chart.dim + 1) - np.matmul(np.concatenate([tangents, vh[..., -1:, :]], axis=-2), inverse)
    return comp, inverse + np.matmul(inverse, residual), sv


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
        self.nesting = 0  # parse_base calls in progress

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
                value, num = self.number()
                if dim is not None:
                    self.error("duplicate dim declaration", t)
                if value < 1 or not value.is_integer():
                    self.error("dim must be a positive integer", num)
                dim = int(value)
                if dim > MAX_DIM:
                    self.error(f"dim {dim} is above MAX_DIM = {MAX_DIM}", num)
            elif t.text == "param":
                name = self.expect("IDENT")
                if name.text in params:
                    self.error(f"duplicate param {name.text!r}", name)
                if name.text in FUNCS:  # the function, or the variable below, would be read instead
                    self.error(f"param {name.text!r} names a function", name)
                if _is_variable(name.text):
                    self.error(f"param {name.text!r} names a variable", name)
                self.expect("SYM", "=")
                sign = 1.0
                if self.peek().kind == "SYM" and self.peek().text == "-":
                    self.next()
                    sign = -1.0
                params[name.text] = sign * self.number()[0]
            else:
                if dim is None:
                    self.error("dim must be declared before components", t)
                if not (t.text.startswith("x") and t.text[1:].isdigit()):
                    self.error(f"unknown declaration {t.text!r}", t)
                idx = int(t.text[1:])
                if not 1 <= idx <= dim + 1:
                    self.error(f"component {t.text} out of range for dim {dim}", t)
                if idx in comps:
                    self.error(f"duplicate component {t.text}", t)
                eq = self.expect("SYM", "=")
                comps[idx] = self.parse_expr(dim, params)
                if _expr_depth(comps[idx]) > MAX_DEPTH:
                    self.error(f"expression nests deeper than MAX_DEPTH = {MAX_DEPTH}", eq)
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
        if self.peek().kind == "SYM" and self.peek().text == "-":
            return self.parse_base(dim, params)  # a negation: -a^b is -(a^b)
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
            frac = self.fraction()
            if self.peek().kind == "SYM" and self.peek().text == "/":
                self.next()
                den_tok = self.peek()
                den = self.fraction()
                if den == 0:
                    self.error("zero denominator in exponent", den_tok)
                frac /= den
                try:
                    float(frac)
                except OverflowError:
                    self.error("exponent is out of range", den_tok)
            self.expect("SYM", ")")
            return sign * frac
        return sign * self.fraction()

    def number(self) -> tuple[float, _Token]:
        """The next token as a finite float literal, and the token."""
        tok = self.expect("NUMBER")
        try:
            value = float(tok.text)
        except ValueError:
            self.error(f"malformed number {tok.text!r}", tok)
        if not math.isfinite(value):
            self.error(f"number {tok.text} is out of range", tok)
        return value, tok

    def fraction(self) -> Fraction:
        """The next token as an exact rational; a literal that underflows a
        float reads as 0 (its exact value would take unbounded work)."""
        value, tok = self.number()
        return Fraction(tok.text) if value else Fraction(0)

    def parse_base(self, dim, params):
        if self.peek().kind == "NUMBER":
            return Num(self.number()[0])
        t = self.next()
        if t.kind == "IDENT" and t.text not in FUNCS:
            if _is_variable(t.text):
                idx = int(t.text[1:])
                if not 1 <= idx <= dim:
                    self.error(f"variable {t.text} exceeds dim {dim}", t)
                return Var(idx - 1)
            if t.text in params:
                return Param(t.text)
            self.error(f"unknown identifier {t.text!r}", t)
        if t.kind != "IDENT" and not (t.kind == "SYM" and t.text in ("-", "(")):
            self.error(f"expected an expression, found {t.text or 'end of input'!r}", t)
        # a negation, a group or a call: one level deeper
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error(f"expression nests deeper than MAX_DEPTH = {MAX_DEPTH}", t)
        if t.text == "-":
            node = Unary("neg", self.parse_factor(dim, params))
        else:
            if t.kind == "IDENT":
                self.expect("SYM", "(")
            node = self.parse_expr(dim, params)
            self.expect("SYM", ")")
            if t.kind == "IDENT":
                node = Unary(t.text, node)
        self.nesting -= 1
        return node


def _is_variable(name: str) -> bool:
    return name.startswith("u") and name[1:].isdigit()


def parse_source(text: str) -> tuple[int, tuple, dict]:
    """Parse chart source text into (dim, component expression trees, params)."""
    dim, comps, params = _Parser(text).parse_file()
    return dim, tuple(comps), params


def parse_chart(text: str) -> DslChart:
    """Parse chart source text into a DslChart."""
    dim, comps, params = parse_source(text)
    return DslChart(dim, comps, params=params)
