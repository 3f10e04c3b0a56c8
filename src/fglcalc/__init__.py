"""Exact formal-group-law calculus and vertex F-algebra checks.

Importing the package loads none of its submodules.  Each name of
``__all__`` is resolved on first access (``fglcalc.Ring``, ``from fglcalc
import f_binomial``, ``from fglcalc import *``) by importing the submodule
that ``_SUBMODULE`` names for it and reading the name there; the value is
then kept in the package namespace, so later reads are plain attribute
reads.  A program that uses only laws therefore never loads ``calculus``
or ``vertex``.
"""

from importlib import import_module

_NAMES = {
    "ring": ("NOT_INVERTIBLE", "Ring"),
    "series": ("PowerSeries", "LaurentElement", "BilateralWindow",
               "OrderingMismatch", "NonConvergentProduct", "NotInvertibleError",
               "IllegalSubstitution", "DiagonalDivergence", "WindowMiss",
               "EmptyWindow"),
    "fgl": ("FormalGroupLaw", "AxiomViolation", "NeedsRationals",
            "IntegralityFailure", "DivisionFailure", "standard_law", "fgl_new",
            "fgl_inverse", "invariant_differential", "logarithm", "exponential",
            "partial_derivative", "g_factor"),
    "calculus": ("Report", "FBinomialTable", "f_binomial",
                 "f_binomial_identities", "delta_F", "delta_support_check",
                 "f_jacobi_delta_check", "f_residue", "hyperderivative",
                 "hyperderivatives", "hyperderivative_properties",
                 "residue_theorems_check", "iterated_residue_check"),
    "vertex": ("VertexFAlgebra", "HeisenbergAlgebra", "TrivialAlgebra",
               "ShiftQuotient", "LieClass", "MeromorphicityPair", "YUndefined",
               "NeedsField", "MismatchBug", "NotFound", "axiom_check",
               "weak_associativity_order", "weak_commutativity_order",
               "meromorphicity_pair", "jacobi_identity_check",
               "quotient_reduce", "lie_bracket", "lie_axiom_check",
               "heisenberg_cocycle"),
}

# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
