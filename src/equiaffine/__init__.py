"""Numerical equiaffine differential geometry toolkit.

Submodules: jets (truncated Taylor arithmetic), dsl (chart expression
language), tensors (Riemannian calculus on jets), blaschke (invariant
pipeline and structural checks, the hypersphere / minimal-Lagrangian
duality among them), calabi (multi-factor compositions), jordan
(octonion and Albert-algebra arithmetic), catalog (named charts),
cli (batch front end).
"""

from .blaschke import BlaschkeInvariants, blaschke_at
from .calabi import CompositionSpec, HypersphereFactor, closed_form, compose_chart
from .catalog import get_chart
from .dsl import ChartDef, DslChart, parse_chart

__version__ = "0.1.0"

__all__ = [
    "BlaschkeInvariants",
    "ChartDef",
    "CompositionSpec",
    "DslChart",
    "HypersphereFactor",
    "blaschke_at",
    "closed_form",
    "compose_chart",
    "get_chart",
    "parse_chart",
    "__version__",
]
