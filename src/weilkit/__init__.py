"""weilkit: exact Weil algebras, Weil-functor evaluation, microlinearity checks."""

from .exactlin import Matrix, Mode, ModeError, qq
from .expr import ParseError, SmoothMap, linear_map, parse_expression, parse_map
from .weil import (
    AlgebraError,
    DiagramInWeil,
    NonNilpotentError,
    WeilAlgebra,
    WeilElement,
    WeilMorphism,
    dual_numbers,
    equalizer,
    first_order_infinitesimals,
    jet_line,
    limit,
    limit_cone,
    is_limit_cone,
    make_presented,
    parse_algebra,
    product_over_k,
    serialize_algebra,
    tensor,
    tensor_morphism,
    terminal,
)
from .smooth import (
    WeilPoint,
    apply_map,
    apply_morphism,
    embed_base,
    jet,
    lift_map,
    mixed_jet,
)
from .axioms import (
    InfinitesimalExponent,
    ModelObject,
    axioms_suite,
    check_microlinear,
    check_weil_exponentiable,
    closure_suite,
    exponentiability_suite,
    infinitesimal_exponent_of,
    microlinearity_suite,
    tensor_of_cones,
)
from .fibered import (
    FiberedDiagram,
    FiberedError,
    FiberedMorphism,
    FiberedObject,
    InfinitesimalArrow,
    VerticalFiber,
    arrow_weil_functor,
    arrow_weil_on_morphism,
    check_fibered_microlinear,
    check_vertical_equalizer,
    check_vertical_left_exact,
    check_vertical_microlinearity,
    fibered_exponential_pullback,
    fibered_suite,
    sphere_distance,
    vertical_fiber,
    vertical_membership,
    vertical_functor_on_morphism,
    vertical_suite,
)
from .reports import CheckOutcome, Report, Verdict

__version__ = "0.1.0"
