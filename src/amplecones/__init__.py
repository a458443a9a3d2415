"""Exact-arithmetic cones of self-adjoint matrices, binary-form reduction,
and rational polyhedral fundamental domains for ample cones of abelian
varieties.  No floating point participates in any verdict; floats appear
only in the SVG renderer."""

from .errors import (
    AmpleconesError,
    InvalidInput,
    NotFundamental,
    NotInCone,
    NotPositiveDefinite,
    PerfectSquareInput,
    PreconditionViolated,
    ShapeMismatch,
    SingularMatrix,
    Unsupported,
    UnsupportedDimension,
)
from .scalars import (
    GaussianRational,
    QuadIrrational,
    RationalQuaternion,
    UnitElement,
    continued_fraction_sqrt,
    dirichlet_rank,
    fundamental_unit,
    is_square_rational,
    is_squarefree,
    is_totally_positive,
)
from .hermitian import (
    AlgebraMatrix,
    ConeSpec,
    HermitianMatrix,
    LorentzVector,
    PDBlock,
    ScalarKind,
    act,
    cone_member,
    hermitian_basis,
    hermitian_dimension,
    is_positive_definite,
    is_positive_semidefinite,
    ldl_witness,
    lorentz_member,
    negative_certificate,
    quadratic_value,
    trace_inner_product,
)
from .polyhedral import (
    PolyhedralCone,
    cone_intersection,
    poly_member,
    primitive_vector,
)
from .reduction import (
    DomainReport,
    GroupAction2D,
    IntegralForm,
    UnimodularMatrix,
    minkowski_reduce,
    translate_locate,
    verify_fundamental_domain,
)
from .abelian import (
    AbelianVarietyModel,
    AlbertForm,
    AlbertRealType,
    Block,
    BlockDecomposition,
    SimpleFactor,
    SurfaceConeData,
    ample_cone,
    aut_action,
    bauer_rational_polyhedral,
    dirichlet_data,
    endo_real_decomposition,
    model_from_json_dict,
    model_to_json_dict,
    picard_number,
    real_mult_fundamental_domain,
    rosati_fixed_basis,
    surface_nef_data,
)

__version__ = "0.1.0"
