"""Exact cohomology engine for nilpotent Lie algebras with invariant complex structures.

The public names resolve lazily (PEP 562): ``nilcohom.full_table`` imports
:mod:`nilcohom.cohomology` the first time it is asked for, and a bare
``import nilcohom`` imports no submodule.  So a command pays at start-up
only for the modules it runs: ``nilcohom figure-data`` and ``nilcohom
check`` never import the cohomology engine or the metrics.  A name outside
the table raises ``AttributeError``, so that ``from nilcohom import
cohomology`` still imports the submodule.
"""

import importlib

_SOURCES = {
    "algebra": ("BasisElement", "Form", "Gaussian", "basis"),
    "cohomology": ("CohomologyTable", "ddbar_lemma_status", "full_table"),
    "metrics": ("HermitianForm", "is_balanced", "is_pluriclosed", "is_positive",
                "standard_form"),
    "model": ("ComplexStructure", "ComplexStructureTemplate", "RealAlgebra", "check_d_squared",
              "check_nilpotency", "instantiate"),
    "parser": ("ParseError", "parse_binding", "parse_complex_structure", "parse_real_algebra",
               "render"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
