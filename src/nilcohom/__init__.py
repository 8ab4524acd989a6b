"""Exact cohomology engine for nilpotent Lie algebras with invariant complex structures."""

from .algebra import BasisElement, Form, Gaussian, basis, bidegree_component, conjugate_form, wedge
from .cohomology import CohomologyTable, ddbar_lemma_status, full_table
from .metrics import HermitianForm, is_balanced, is_pluriclosed, is_positive, standard_form
from .model import (
    ComplexStructure,
    ComplexStructureTemplate,
    ParameterBinding,
    RealAlgebra,
    check_d_squared,
    check_nilpotency,
    instantiate,
    product_with_torus,
    realify,
)
from .parser import ParseError, parse_binding, parse_complex_structure, parse_real_algebra, render

__all__ = [
    "BasisElement",
    "CohomologyTable",
    "ComplexStructure",
    "ComplexStructureTemplate",
    "Form",
    "Gaussian",
    "HermitianForm",
    "ParameterBinding",
    "ParseError",
    "RealAlgebra",
    "basis",
    "bidegree_component",
    "check_d_squared",
    "check_nilpotency",
    "conjugate_form",
    "ddbar_lemma_status",
    "full_table",
    "instantiate",
    "is_balanced",
    "is_pluriclosed",
    "is_positive",
    "parse_binding",
    "parse_complex_structure",
    "parse_real_algebra",
    "product_with_torus",
    "realify",
    "render",
    "standard_form",
    "wedge",
]
