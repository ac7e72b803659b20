"""Theta series, modular form certificates and design tests for lattices.

The public names below are loaded on first access (PEP 562), so that
`import modlattice` loads no submodule and a verb pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule, listed by submodule
_EXPORTS = {
    "errors": """
        ModLatticeError ShapeError DefinitenessError ParityError
        IntegralityError LevelError DivisorError CatalogError CapacityError
        GranularityError ExponentOverflowError EmptyBasisError
        """,
    "qseries": """
        QSeries LevelData ADMISSIBLE_LEVELS dedekind_eta delta_level
        eval_at_imag EvalResult
        """,
    "lattice": """
        Lattice dual rescale direct_sum level partial_dual even_sublattice
        c_n_lattice zn density density_from_parameters DensityReport Catalog
        CatalogEntry load_catalog
        """,
    "enumeration": """
        enumerate_vectors minimum min_layer theta_series ThetaCounts
        VectorLayer MinimumReport
        """,
    "report": """
        PASS FAIL INCONCLUSIVE CertReport jsonable
        """,
    "isometry": """
        find_isometry ISOMETRIC NOT_ISOMETRIC
        """,
    "modular": """
        base_lattice theta_base modform_basis ExtremalForm extremal_form
        extremal_min_bound check_modular ModularityVerdict check_extremal
        check_extremal_odd transformation_check
        """,
    "designs": """
        design_constant DesignTestConfig check_design is_strongly_perfect
        perfection_rank is_perfect eutaxy_check min_product_check
        even_min_lower_bound coxeter_number coxeter_identity_check
        predicted_design_strength ZonalHarmonic zonal_harmonic
        harmonic_theta_truncation
        """,
    "shadow": """
        shadow_coset ShadowTheta shadow_theta ShadowReport shadow_min
        odd_min_bound
        """,
}
_SUBMODULES = ("arith", "cli", "linalg", *_EXPORTS)
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
