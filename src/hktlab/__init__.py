"""Exact invariant-geometry toolkit for left-invariant hyperhermitian
structures on Lie algebras: skew-torsion and torsion-free hypercomplex
connections, their curvature identities, holonomy, and classification.

Everything is computed in exact rational arithmetic; no floats anywhere.
"""

from .analyze import analyze_entry, expected_mismatches
from .catalog import (
    CatalogEntry,
    CatalogError,
    available_entries,
    builtin_by_name,
    builtin_catalog,
    load,
    save,
    serialize,
)
from .curvature import (
    chern_norm_check,
    dt_traces,
    hkt_obstruction_report,
    hyperkahler_detector,
    lee_form,
    obata_identity_suite,
    ricci_package,
    star_scalar,
)
from .holonomy import classify, holonomy_algebra, slnh_membership
from .hyperhermitian import (
    HyperhermitianStructure,
    bismut_connection,
    hkt_check,
    kt_torsion,
    nijenhuis,
    quaternionic_check,
)
from .invariant import (
    Connection,
    LieAlgebra,
    ce_differential,
    curvature_tensor,
    levi_civita,
    torsion,
    validate_lie_algebra,
)
from .obata import obata_connection, obata_oracle_solver
from .tensors import KForm, wedge

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "Connection",
    "HyperhermitianStructure",
    "KForm",
    "LieAlgebra",
    "analyze_entry",
    "available_entries",
    "bismut_connection",
    "builtin_by_name",
    "builtin_catalog",
    "ce_differential",
    "chern_norm_check",
    "classify",
    "curvature_tensor",
    "dt_traces",
    "expected_mismatches",
    "hkt_check",
    "hkt_obstruction_report",
    "holonomy_algebra",
    "hyperkahler_detector",
    "kt_torsion",
    "lee_form",
    "levi_civita",
    "load",
    "nijenhuis",
    "obata_connection",
    "obata_identity_suite",
    "obata_oracle_solver",
    "quaternionic_check",
    "ricci_package",
    "save",
    "serialize",
    "slnh_membership",
    "star_scalar",
    "torsion",
    "validate_lie_algebra",
    "wedge",
    "__version__",
]
