"""Numerical equiaffine differential geometry toolkit.

Submodules: jets (truncated Taylor arithmetic), dsl (chart expression
language), tensors (Riemannian calculus on jets), blaschke (invariant
pipeline and structural checks), calabi (multi-factor compositions),
duality (hypersphere / minimal-Lagrangian correspondence), jordan
(octonion and Albert-algebra arithmetic), catalog (named charts),
cli (batch front end).
"""

from .blaschke import BlaschkeInvariants, CheckReport, blaschke_at
from .calabi import CompositionSpec, HypersphereFactor, closed_form, compose_chart, verify_composition
from .catalog import get_chart
from .dsl import ChartDef, DslChart, parse_chart

__version__ = "0.1.0"

__all__ = [
    "BlaschkeInvariants",
    "CheckReport",
    "ChartDef",
    "CompositionSpec",
    "DslChart",
    "HypersphereFactor",
    "blaschke_at",
    "closed_form",
    "compose_chart",
    "get_chart",
    "parse_chart",
    "verify_composition",
    "__version__",
]
