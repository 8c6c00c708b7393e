"""Exact combinatorics and integral homology for sponge face structures.

The package computes, over exact integer and rational arithmetic: Smith
normal forms and homology of chain complexes; order complexes, links, and
Cohen-Macaulayness of graded posets; cellular (co)homology, acyclicity,
local cohomology, and sign conventions of sponges; the local-cohomology
cosheaf and its dihomology comparison; extended f-vectors, h-vectors, and
Hilbert series; generated families (local models, polytope skeleta,
connected cubic graphs); and a scanner for the h-vector symmetry and
nonnegativity questions.
"""

from importlib import import_module

# each public name, by the module that defines it; a name's module is
# imported on first use (PEP 562), so ``import sponges`` imports no layer
_EXPORTS = {
    "complexes": ("HomologyProfile", "IntegerChainComplex", "cohomology", "homology",
                  "induced_map_on_homology"),
    "cosheaf": ("LocalCohomologyCosheaf", "build_cosheaf", "cosheaf_homology", "dihomology_check"),
    "enumerative": ("ExtendedFVector", "HilbertSeries", "HVector", "b_from_euler",
                    "betti_polynomial", "betti_polynomial_alt", "duality_check", "fvector_of",
                    "hilbert_equivariant", "hvector_of", "series_expand"),
    "exactalg": ("IntegerMatrix", "SmithDecomposition", "rank", "smith_normal_form"),
    "generators": ("PolytopeFaceLattice", "builtin", "gen_model_sponge", "gen_polytope_skeleton",
                   "gen_simplex_skeleton", "gen_trivalent_sponges"),
    "poset": ("GradedPoset", "SimplicialComplex", "check_cohen_macaulay", "order_complex",
              "subposet"),
    "search": ("ScanRecord", "scan", "scan_fvector_space"),
    "sponge": ("AcyclicityReport", "SpongeComplex", "cellular_complex", "check_acyclic",
               "check_local_model", "local_cohomology", "realization_cross_check",
               "section_complex", "sign_solver", "validate_sponge"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
