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

from .complexes import (
    HomologyProfile,
    IntegerChainComplex,
    cohomology,
    homology,
    induced_map_on_homology,
)
from .cosheaf import LocalCohomologyCosheaf, build_cosheaf, cosheaf_homology, dihomology_check
from .enumerative import (
    ExtendedFVector,
    HilbertSeries,
    HVector,
    b_from_euler,
    betti_polynomial,
    betti_polynomial_alt,
    duality_check,
    fvector_of,
    hilbert_equivariant,
    hvector_of,
    series_expand,
)
from .exactalg import (
    IntegerMatrix,
    SmithDecomposition,
    rank,
    smith_normal_form,
)
from .generators import (
    PolytopeFaceLattice,
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_simplex_skeleton,
    gen_trivalent_sponges,
)
from .poset import (
    GradedPoset,
    SimplicialComplex,
    check_cohen_macaulay,
    order_complex,
    subposet,
)
from .search import ScanRecord, scan, scan_fvector_space
from .sponge import (
    AcyclicityReport,
    SpongeComplex,
    cellular_complex,
    check_acyclic,
    check_local_model,
    local_cohomology,
    realization_cross_check,
    section_complex,
    sign_solver,
    validate_sponge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
