"""Exact jet modules and differential-operator filtrations over
finite-dimensional associative algebras, with representability checks."""

from .algebra import Algebra, AlgebraElement, AlgebraValidationError
from .catalog import CatalogEntry, builtin, names as catalog_names
from .diffop import (
    DefinitionDomainError,
    Filtration,
    compare_definitions,
    diff_bar1,
    diff_commutative,
    diff_left,
    diff_right,
    diff_two_sided,
    two_sided_zero_order_membership,
)
from .jets import (
    Factorization,
    InvariantViolation,
    JetModule,
    NotLeftLinearError,
    OrderViolationError,
    RepresentabilityReport,
    ResidualWitness,
    factorization_residual,
    factorize,
    jet_module,
    representability_bar1,
    representability_check,
    residual_witness_search,
    two_sided_jet1,
)
from .linalg import (
    GF,
    QQ,
    DimensionMismatch,
    Matrix,
    ScalarFormatError,
    Subspace,
    closure_under,
    joint_kernel,
    kernel,
    preimage,
    rref,
)
from .modules import (
    BimoduleRep,
    BimoduleValidationError,
    CentralityRequired,
    HomSpace,
    hom_A,
    hom_AA,
)

__version__ = "0.1.0"
