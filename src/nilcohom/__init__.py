"""Exact cohomology engine for nilpotent Lie algebras with invariant complex structures."""

from .algebra import BasisElement, Form, Gaussian, basis
from .cohomology import CohomologyTable, ddbar_lemma_status, full_table
from .metrics import HermitianForm, is_balanced, is_pluriclosed, is_positive, standard_form
from .model import (
    ComplexStructure,
    ComplexStructureTemplate,
    RealAlgebra,
    check_d_squared,
    check_nilpotency,
    instantiate,
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
    "ParseError",
    "RealAlgebra",
    "basis",
    "check_d_squared",
    "check_nilpotency",
    "ddbar_lemma_status",
    "full_table",
    "instantiate",
    "is_balanced",
    "is_pluriclosed",
    "is_positive",
    "parse_binding",
    "parse_complex_structure",
    "parse_real_algebra",
    "render",
    "standard_form",
]
