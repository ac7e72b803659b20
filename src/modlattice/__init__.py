"""Theta series, modular form certificates and design tests for lattices."""

__version__ = "0.1.0"

from .errors import (
    ModLatticeError,
    ShapeError,
    DefinitenessError,
    ParityError,
    IntegralityError,
    LevelError,
    DivisorError,
    CatalogError,
    CapacityError,
    GranularityError,
    ExponentOverflowError,
    EmptyBasisError,
)
from .qseries import (
    QSeries,
    LevelData,
    ADMISSIBLE_LEVELS,
    dedekind_eta,
    delta_level,
    eval_at_imag,
    EvalResult,
)
from .lattice import (
    Lattice,
    dual,
    rescale,
    direct_sum,
    level,
    partial_dual,
    even_sublattice,
    c_n_lattice,
    zn,
    density,
    density_from_parameters,
    DensityReport,
    Catalog,
    CatalogEntry,
    load_catalog,
)
from .enumeration import (
    enumerate_vectors,
    minimum,
    min_layer,
    theta_series,
    ThetaCounts,
    VectorLayer,
    MinimumReport,
)
from .report import (
    PASS,
    FAIL,
    INCONCLUSIVE,
    CertReport,
    jsonable,
)
from .isometry import (
    find_isometry,
    ISOMETRIC,
    NOT_ISOMETRIC,
)
from .modular import (
    base_lattice,
    theta_base,
    modform_basis,
    ExtremalForm,
    extremal_form,
    extremal_min_bound,
    check_modular,
    ModularityVerdict,
    check_extremal,
    check_extremal_odd,
    transformation_check,
)
from .designs import (
    design_constant,
    DesignTestConfig,
    check_design,
    is_strongly_perfect,
    perfection_rank,
    is_perfect,
    eutaxy_check,
    min_product_check,
    even_min_lower_bound,
    coxeter_number,
    coxeter_identity_check,
    predicted_design_strength,
    ZonalHarmonic,
    zonal_harmonic,
    harmonic_theta_truncation,
)
from .shadow import (
    shadow_coset,
    ShadowTheta,
    shadow_theta,
    ShadowReport,
    shadow_min,
    odd_min_bound,
)
