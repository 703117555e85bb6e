"""Exact symbolic computation with finite dimensional Hopf algebras.

The package constructs the Taft and E(n) family Hopf algebras together with
their parameterized comodule algebras, evaluates the universal comodule map
into each object, and verifies or refutes polynomial identities exactly over
cyclotomic fields.  Everything is computed symbolically; no floating point
appears anywhere.
"""

from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, primitive_root
from .commpoly import CommPoly, ParamVar, TVar
from .ncalg import (
    AlgElement,
    CheckReport,
    Morphism,
    PresentedAlgebra,
    RewriteRule,
    check_confluence,
    embed,
    tensor_product,
)
from .hopf import (
    HopfPresentation,
    antipode,
    check_hopf_axioms,
    coproduct,
    counit,
    en,
    qbinom,
    taft,
    trivial_hopf,
)
from .comodule import (
    ComoduleAlgebra,
    GaloisObjectSpec,
    Symbolic,
    check_comodule,
    coaction,
    coinvariants,
    en_object_spec,
    galois_map_bijective,
    galois_object,
    object_spec,
    taft_object_spec,
)
from .identities import (
    Distinguished,
    FreeComodulePoly,
    Isomorphic,
    bind_to_object,
    catalog,
    coinvariant_P,
    coinvariant_Q,
    commutator_identity,
    distinguish,
    en_identities,
    free_algebra,
    is_identity,
    matrix_identity_witness,
    mu,
    standard_polynomial,
    substitute,
    t_var,
    taft_identity,
    verify_matrix_identity,
    x_symbol,
)
from . import linalg  # a public module that no other module imports
from .exprparse import (
    MatrixSpec,
    ParseError,
    parse_expression,
    parse_hopf_spec,
    parse_object_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "CheckReport",
    "CommPoly",
    "ComoduleAlgebra",
    "CyclotomicNumber",
    "Distinguished",
    "FreeComodulePoly",
    "GaloisObjectSpec",
    "HopfPresentation",
    "Isomorphic",
    "MatrixSpec",
    "Morphism",
    "ParamVar",
    "ParseError",
    "PresentedAlgebra",
    "RewriteRule",
    "Symbolic",
    "TVar",
    "antipode",
    "bind_to_object",
    "catalog",
    "check_comodule",
    "check_confluence",
    "check_hopf_axioms",
    "coaction",
    "coinvariant_P",
    "coinvariant_Q",
    "coinvariants",
    "commutator_identity",
    "coproduct",
    "counit",
    "cyclotomic_polynomial",
    "distinguish",
    "embed",
    "en",
    "en_identities",
    "en_object_spec",
    "free_algebra",
    "galois_map_bijective",
    "galois_object",
    "is_identity",
    "matrix_identity_witness",
    "mu",
    "object_spec",
    "parse_expression",
    "parse_hopf_spec",
    "parse_object_spec",
    "primitive_root",
    "qbinom",
    "standard_polynomial",
    "substitute",
    "t_var",
    "taft",
    "taft_identity",
    "taft_object_spec",
    "tensor_product",
    "trivial_hopf",
    "verify_matrix_identity",
    "x_symbol",
]
