"""Outside-in layer trace of the program.

Nothing here is part of the program: wrappers are installed by module
attribute on the public functions each equiaffine module exposes, and
removed again.  A function is wrapped wherever the program holds it, in
every equiaffine module that imported it by name, so ``blaschke.jet_det``
and ``jets.jet_det`` both count.  A function that no longer exists (a later
change renamed or removed it) makes its metrics ``absent``; nothing fails.

Two kinds of wrapper, never installed together:

* span wrappers time each call and record self time, the span's duration
  minus the part of it covered by child spans;
* count wrappers only count calls.  Jet products and jet objects are
  counted in this pass alone: wrapping ``Jet.__mul__`` costs about half an
  n=5 point and would distort every self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict

# span name -> (equiaffine module, attribute path)
SPANS = {
    "jets.jet_det": ("jets", "jet_det"),
    "jets.jet_solve": ("jets", "jet_solve"),
    "jets.jet_inverse": ("jets", "jet_inverse"),
    "dsl.eval_chart_jet": ("dsl", "eval_chart_jet"),
    "catalog.chart_eval": ("catalog", "MatrixExpChart.component_jets"),
    "tensors.christoffel_jets": ("tensors", "christoffel_jets"),
    "tensors.riemann": ("tensors", "riemann"),
    "tensors.cov_deriv_sym3": ("tensors", "cov_deriv_sym3"),
    "blaschke.blaschke_at": ("blaschke", "blaschke_at"),
    "blaschke.check_apolarity": ("blaschke", "check_apolarity"),
    "blaschke.check_gauss": ("blaschke", "check_gauss"),
    "blaschke.check_ricci": ("blaschke", "check_ricci"),
    "blaschke.check_codazzi": ("blaschke", "check_codazzi"),
    "blaschke.check_trace_identity": ("blaschke", "check_trace_identity"),
    "blaschke.check_gauss_alt": ("blaschke", "check_gauss_alt"),
    "blaschke.check_hypersphere": ("blaschke", "check_hypersphere"),
    "blaschke.nabla_A_norm": ("blaschke", "nabla_A_norm"),
    "duality.check_gauss_swap": ("duality", "check_gauss_swap"),
    "duality.check_trace_free": ("duality", "check_trace_free"),
    "duality.dualize": ("duality", "dualize"),
    "calabi.chart_eval": ("calabi", "ComposedChart.component_jets"),
    "calabi.verify_composition": ("calabi", "verify_composition"),
    "calabi.expected_invariants": ("calabi", "expected_invariants"),
    "calabi.mean_curvature_relations": ("calabi", "mean_curvature_relations"),
    "jordan.jordan_product": ("jordan", "jordan_product"),
    "jordan.e6_embedding_data": ("jordan", "e6_embedding_data"),
    "cli.main": ("cli", "main"),
}

# counted in the count pass only
COUNTERS = {
    "jets.mul": ("jets", "Jet.__mul__"),
    "jets.jet_objects": ("jets", "Jet.__init__"),
    "jordan.oct_mul": ("jordan", "oct_mul"),
}

BLASCHKE_CHECKS = tuple(s for s in SPANS if s.startswith(("blaschke.check_", "blaschke.nabla_A_norm")))
DUALITY_CHECKS = ("duality.check_gauss_swap", "duality.check_trace_free", "duality.dualize")

# per-layer metric -> (unit, kind, sources); kinds: "calls" per op from the
# count pass, "self" and "total" normalised ms per op from the span pass.
METRICS = {
    "jets.mul_calls": ("count", "calls", ("jets.mul",)),
    "jets.jet_objects": ("count", "calls", ("jets.jet_objects",)),
    "jets.jet_det.calls": ("count", "calls", ("jets.jet_det",)),
    "jets.jet_det.self_ms": ("ms", "self", ("jets.jet_det",)),
    "jets.jet_solve.self_ms": ("ms", "self", ("jets.jet_solve",)),
    "jets.jet_inverse.self_ms": ("ms", "self", ("jets.jet_inverse",)),
    "dsl.eval_chart_jet.self_ms": ("ms", "self", ("dsl.eval_chart_jet",)),
    "catalog.chart_eval.self_ms": ("ms", "self", ("catalog.chart_eval",)),
    "tensors.christoffel_jets.calls": ("count", "calls", ("tensors.christoffel_jets",)),
    "tensors.christoffel_jets.self_ms": ("ms", "self", ("tensors.christoffel_jets",)),
    "tensors.riemann.self_ms": ("ms", "self", ("tensors.riemann",)),
    "tensors.cov_deriv_sym3.self_ms": ("ms", "self", ("tensors.cov_deriv_sym3",)),
    "blaschke.blaschke_at.self_ms": ("ms", "self", ("blaschke.blaschke_at",)),
    "blaschke.checks.self_ms": ("ms", "self", BLASCHKE_CHECKS),
    "blaschke.check_codazzi.calls": ("count", "calls", ("blaschke.check_codazzi",)),
    "duality.checks.self_ms": ("ms", "self", DUALITY_CHECKS),
    "calabi.chart_eval.self_ms": ("ms", "self", ("calabi.chart_eval",)),
    "calabi.verify_composition.self_ms": ("ms", "self", ("calabi.verify_composition",)),
    "calabi.expected_invariants.calls": ("count", "calls", ("calabi.expected_invariants",)),
    "calabi.mean_curvature_relations.self_ms": ("ms", "self", ("calabi.mean_curvature_relations",)),
    "jordan.jordan_product.calls": ("count", "calls", ("jordan.jordan_product",)),
    "jordan.jordan_product.self_ms": ("ms", "self", ("jordan.jordan_product",)),
    "jordan.oct_mul.calls": ("count", "calls", ("jordan.oct_mul",)),
    "jordan.e6_embedding_data.ms": ("ms", "total", ("jordan.e6_embedding_data",)),
    "cli.overhead_ms": ("ms", "self", ("cli.main",)),
}


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if name == "equiaffine" or name.startswith("equiaffine.")]


def _find(module: str, path: str):
    """(owner, function) for ``equiaffine.<module>.<path>``, or None."""
    try:
        owner = importlib.import_module(f"equiaffine.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return (owner, fn) if callable(fn) else None


class Patches:
    """Wrappers for a set of program functions, applied and reverted as one."""

    def __init__(self, targets: dict, make_wrapper):
        self.sites = []  # (holder, attribute, original, wrapper)
        self.present = set()
        for name, (module, path) in targets.items():
            found = _find(module, path)
            if found is None:
                continue
            owner, fn = found
            wrapper = make_wrapper(name, fn)
            # a class holds its method once (or under aliases, as Jet.__rmul__);
            # a module function may also be held by every module that imported it
            holders = [owner] if isinstance(owner, type) else _program_modules()
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self.sites.append((holder, attr, fn, wrapper))
            self.present.add(name)

    def apply(self):
        for holder, attr, _, wrapper in self.sites:
            setattr(holder, attr, wrapper)

    def revert(self):
        for holder, attr, original, _ in reversed(self.sites):
            setattr(holder, attr, original)


class CallCounts:
    """Count wrappers on every span function and every counter."""

    def __init__(self):
        self.calls = Counter()
        self.patches = Patches({**SPANS, **COUNTERS}, self._wrap)

    def _wrap(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted


class Spans:
    """Span wrappers; per-op self and total seconds per span name, timed by
    ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._open = []  # child time accumulated by each open span
        self.patches = Patches(SPANS, self._wrap)

    def reset(self):
        self.self_s.clear()
        self.total_s.clear()

    def _wrap(self, name, fn):
        open_spans, self_s, total_s, clock = self._open, self.self_s, self.total_s, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                total_s[name] += dt
                if open_spans:
                    open_spans[-1] += dt

        return span

