"""Exact tools for strange complete intersections over finite fields."""

__version__ = "0.1.0"  # before the imports: census writes it into its file headers

from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    HomogeneityError,
    InvalidInputError,
    ParseError,
    SingularPointError,
    StrangeCIError,
    UnsupportedVertexError,
)
from .gf import Field, FieldElement, embed, make_field
from .hompoly import (
    HomogeneousPolynomial,
    format_poly,
    monomials_of_degree,
    normalize_z0,
    parse_poly,
)
from .exactla import MatrixOverField, in_span, rank, rank_and_kernel
from .geometry import (
    LinearSubspace,
    PolynomialSystem,
    ProjectivePoint,
    enumerate_points,
    gauss_map,
    is_singular_at,
    jacobian_full,
    parse_point,
    singular_search,
    tangent_space,
)
from .strangeness import (
    GradedIdeal,
    StrangeLocus,
    StrangeReport,
    cone_corollary_check,
    graded_membership,
    is_cone_with_vertex,
    is_strange_for,
    move_point_to_origin_chart,
    normalize_system,
    strange_locus,
)
from .families import (
    cone_over,
    prop31_construct,
    quadric_normal_form,
    strange_hypersurface_p_divides,
    strange_hypersurface_p_not_divides,
)
from .census import (
    CensusRecord,
    CensusSpec,
    euler_rank_lemma_check,
    hv_monomial_basis,
    load_records,
    persist,
    phi_surjectivity_check,
    sample_hv,
    verify_singularity_theorem,
)
