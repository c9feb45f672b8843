"""torslab: exact computations with torsion classes, stability, and
two-term silting complexes for path algebras with relations over F_p."""

__version__ = "0.1.0"

from .algebra import Algebra, AlgebraError, Representation, load_algebra
from .catalogue import BudgetError, Catalogue
from .cones import RationalCone, numerically_disjoint, separating_functional
from .presentations import fei_union_check, tbar_of_map
from .reports import (
    ReportError,
    exit_code,
    fan_json,
    render_json,
    suite_brickfinite,
    suite_numdis,
    suite_scan,
    suite_semistable,
    suite_smalo,
    wallchamber_svg,
)
from .silting import enumerate_silting, induced_torsion_pairs, rigidity
from .stability import quadruple
from .torsion import enumerate_torsion_classes

__all__ = [
    "Algebra",
    "AlgebraError",
    "BudgetError",
    "Catalogue",
    "RationalCone",
    "ReportError",
    "Representation",
    "__version__",
    "enumerate_silting",
    "enumerate_torsion_classes",
    "exit_code",
    "fan_json",
    "fei_union_check",
    "induced_torsion_pairs",
    "load_algebra",
    "numerically_disjoint",
    "quadruple",
    "render_json",
    "rigidity",
    "separating_functional",
    "suite_brickfinite",
    "suite_numdis",
    "suite_scan",
    "suite_semistable",
    "suite_smalo",
    "tbar_of_map",
    "wallchamber_svg",
]
