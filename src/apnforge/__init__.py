"""Tools for phi-surfaces, differential spectra and exceptional APN families
over binary fields."""

from .apn import (
    DiffSpectrum,
    ExponentClass,
    GOLD,
    KASAMI,
    NOT_EXCEPTIONAL,
    classify_exponent,
    is_apn,
    is_apn_over_extension,
    spectrum,
    surface_point_check,
)
from .criteria import (
    CONSTRAINED,
    CUBE_OF_L,
    DEGREE_12,
    Deg12Witness,
    DivisorParams,
    FULL,
    GOLD_SMALL_TAIL,
    L_OF_CUBE,
    NONE,
    NOT_IN_FAMILY,
    ODD_NOT_EXCEPTIONAL,
    QUADRUPLE_ODD,
    SearchResult,
    TWICE_ODD_TERM,
    TheoremVerdict,
    applicable_theorem,
    cubic_divisor_search,
    deg12_classify,
    exceptionality_report,
    family_generate,
    family_phi_closed,
    family_phi_product,
)
from .errors import (
    ApnForgeError,
    ContextMismatch,
    DegreeOutOfRange,
    FieldTooLarge,
    InternalError,
    PolySyntaxError,
    ReducibleModulus,
    TraceNotZero,
    UnknownCoefficient,
    ValidationError,
)
from .fields import (
    Embedding,
    Felt,
    FieldCtx,
    find_embedding,
    frobenius,
    lowest_irreducible,
    make_field,
    parse_field_spec,
    rel_trace,
    trace_zero_elements,
)
from .phi import (
    PhiSurface,
    build_phi,
    check_even_split,
    check_odd_plane_free,
    phi_monomial,
)
from .tripoly import (
    HomogDecomp,
    TriPoly,
    divides_exactly,
    exact_divide,
    homog_decompose,
    is_symmetric,
    parse_tri,
    plane_product,
    symmetric_quadratic,
)
from .unipoly import (
    QAffineSplit,
    UniPoly,
    compose,
    eval_table,
    is_bijective_on,
    linearized_quartic,
    parse_poly,
    split_q_affine,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
