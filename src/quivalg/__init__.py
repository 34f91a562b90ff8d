"""quivalg: quivers, path algebras and the Gabriel-quiver adjunction over Q.

The package is organized around exact rational linear algebra (`linalg`),
finite quivers and their path algebras (`quiver`), structure-constant
algebras with radicals and idempotent lifting (`algebra`), admissible ideals
and bound path algebras (`bound`), quiver representations (`repcat`),
Vquivers and tensor path algebras (`vquiver`), the Gabriel-quiver functor
with the unit/counit machinery (`adjunction`), and finite categories as
tables (`catfinite`).  `formats` and `cli` provide the text formats and the
command line; `corpus` and `gallery` hold the reproducible test corpora.
"""

from .adjunction import (
    GabrielVquiver,
    NDepthClass,
    Presentation,
    counit,
    gabriel_on_hom,
    gabriel_vquiver,
    ndepth_equivalent,
    present_as_bound_quiver,
    triangle_identities,
    unit,
)
from .algebra import (
    AlgebraHom,
    IdempotentSet,
    RadicalFiltration,
    SCAlgebra,
    direct_sum,
    group_algebra,
    is_basic,
    is_commutative,
    is_connected,
    is_semisimple,
    lift_idempotents,
    make_algebra,
    matrix_algebra,
    predicates,
    quotient_algebra,
    radical,
    truncated_poly,
    upper_triangular,
    validate_algebra,
    validate_hom,
)
from .bound import (
    RelationSet,
    bound_algebra,
    check_admissible,
    ideal_closure,
    relation_set,
    truncated_path_algebra,
)
from .catfinite import (
    FinCategory,
    FinFunctor,
    FinNatTrans,
    Poset,
    check_adjunction_finite,
    check_equivalence,
    check_galois_adjunction,
    functor_from_monotone,
    poset_to_category,
    quotient_category,
    validate_category,
    validate_functor,
    validate_nat_trans,
    validate_poset,
)
from .errors import (
    CyclicInput,
    DimensionMismatch,
    FormatError,
    InadmissibleIdeal,
    NotBasicError,
    NotSplitOverQQ,
    QuivalgError,
    ValidationError,
)
from .linalg import (
    Matrix,
    Subspace,
    bilinear_image,
    canonicalize,
    curry,
    curry_roundtrip,
    double_dual_naturality,
    products_within,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
    uncurry,
)
from .quiver import (
    Path,
    Quiver,
    enumerate_paths,
    is_acyclic,
    path_algebra,
    validate_quiver,
)
from .repcat import (
    AlgebraModule,
    QuiverRep,
    check_rep_morphism,
    module_to_rep,
    regular_module,
    rep_to_module,
    validate_module,
    validate_rep,
)
from .vquiver import (
    Vquiver,
    VquiverMap,
    induced_hom,
    is_acyclic_vq,
    path_algebra_vq,
    validate_vquiver,
    validate_vquiver_map,
)
