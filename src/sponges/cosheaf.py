"""The local-cohomology cosheaf on a face poset and the dihomology check.

For a sponge (a graded poset with a sign convention) the section at a face s
is the cohomology of the cellular complex relative to everything outside the
star of s -- the cochain complex spanned by the faces above s.  Since an
up-set is closed under the coboundary, that span is a subcomplex of the full
cochain complex, and for s > t the extension-by-zero inclusion of the span
of (>= s) into the span of (>= t) is a cochain map; its induced map on
cohomology is the cosheaf's cover map.

Chain groups of the cosheaf in homological degree i collect the sections of
the rank-i faces, with boundary the incidence-weighted sum of cover maps;
the diamond relation makes the boundary square to zero (checked).  For
Cohen-Macaulay face posets the sections live purely in cohomological degree
n-2 and the homology of the cosheaf in degree r must agree with the
cohomology of the order complex in degree n-2-r.  `dihomology_check`
verifies that rank equality with two genuinely independent computations:
cellular sections assembled through cover maps on one side, simplicial
cochains of the order complex on the other.

Sections and cover maps are rational (deterministic bases from the homology
routine); the integer side of the comparison contributes free ranks and
torsion of the order-complex cohomology plus torsion found in the sections
themselves, without integral functoriality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import (
    HomologyProfile,
    IntegerChainComplex,
    RationalHomologyBasis,
    cochain_complex,
    cohomology,
    homology,
    induced_map_on_homology,
    subcomplex,
)
from .exactalg import IntegerMatrix, rational_rref
from .poset import check_cohen_macaulay, order_complex
from .sponge import SpongeComplex, cellular_complex, ensure_valid


class NotCohenMacaulay(ValueError):
    """The face poset fails the Cohen-Macaulay precondition."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"face poset is not Cohen-Macaulay ({len(report.witnesses)} witnesses)"
        )


class RankMismatch(ValueError):
    """The two sides of the dihomology comparison disagree."""

    def __init__(self, r: int, lhs: int, rhs: int):
        self.r = r
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"dihomology rank mismatch at r={r}: cosheaf side {lhs}, "
            f"order-complex side {rhs}"
        )


@dataclass
class LocalCohomologyCosheaf:
    """Sections and cover maps of the local-cohomology cosheaf over Q."""

    base: SpongeComplex
    sections: dict = field(default_factory=dict)        # s -> HomologyProfile (Q)
    sections_integral: dict = field(default_factory=dict)  # s -> HomologyProfile (Z)
    cover_maps: dict = field(default_factory=dict)      # (s, t) -> {p: matrix}
    _bases: dict = field(default_factory=dict, repr=False)

    def section_rank(self, s: str, p: int) -> int:
        return self.sections[s].free_rank(p)

    def cover_map(self, s: str, t: str, p: int) -> list[list[Fraction]]:
        return self.cover_maps[(s, t)].get(
            p, [[] for _ in range(self.section_rank(t, p))]
        )


@dataclass
class CosheafChainComplex:
    """The assembled chain complex of the cosheaf at one cohomological degree."""

    p: int
    dims: dict            # homological degree i -> dimension
    offsets: dict         # i -> {face: column offset}
    boundaries: dict      # i -> Fraction matrix (rows: degree i-1, cols: degree i)


def _section_selector(z: SpongeComplex, s: str) -> dict[int, list[int]]:
    up = z.faces.upset(s)
    sel = {}
    for d in range(z.n - 1):
        sel[-d] = [i for i, f in enumerate(z.faces_of_dim(d)) if f in up]
    return sel


def build_cosheaf(z: SpongeComplex) -> LocalCohomologyCosheaf:
    """Compute every section and every cover map.

    Section complexes are subcomplexes of the (regraded) cochain complex of
    the cellular structure; cover maps are induced by the generator
    inclusions.  Cohomological degree p is stored at chain degree -p
    internally and reported as p.
    """
    ensure_valid(z)
    cellular = cellular_complex(z, augmented=False)
    cochain = cochain_complex(cellular)
    selectors = {s: _section_selector(z, s) for s in z.faces.elements()}
    complexes: dict[str, IntegerChainComplex] = {}
    bases: dict[str, RationalHomologyBasis] = {}
    sections: dict[str, HomologyProfile] = {}
    sections_integral: dict[str, HomologyProfile] = {}
    for s in z.faces.elements():
        cx = subcomplex(cochain, selectors[s])
        complexes[s] = cx
        bases[s] = RationalHomologyBasis(cx)
        profile_q = bases[s].profile()
        sections[s] = HomologyProfile(
            {-d: (profile_q.free_rank(d), ()) for d in profile_q.degrees()}
        )
        profile_z = homology(cx, coefficients="integers")
        sections_integral[s] = HomologyProfile(
            {
                -d: (profile_z.free_rank(d), profile_z.torsion(d))
                for d in profile_z.degrees()
            }
        )
    cover_maps: dict[tuple[str, str], dict[int, list[list[Fraction]]]] = {}
    for upper, lower in z.faces.covers():
        inclusion = {}
        sel_u, sel_l = selectors[upper], selectors[lower]
        for deg in sel_u:
            pos = {gen: i for i, gen in enumerate(sel_l[deg])}
            ent = {(pos[gen], j): 1 for j, gen in enumerate(sel_u[deg])}
            inclusion[deg] = IntegerMatrix(len(sel_l[deg]), len(sel_u[deg]), ent)
        induced = induced_map_on_homology(
            inclusion,
            complexes[upper],
            complexes[lower],
            source_basis=bases[upper],
            target_basis=bases[lower],
        )
        cover_maps[(upper, lower)] = {-deg: m for deg, m in induced.items()}
    return LocalCohomologyCosheaf(
        base=z,
        sections=sections,
        sections_integral=sections_integral,
        cover_maps=cover_maps,
        _bases=bases,
    )


def assemble_chain_complex(c: LocalCohomologyCosheaf, p: int) -> CosheafChainComplex:
    """Block boundary matrices of the cosheaf at cohomological degree p.

    The boundary out of homological degree i sums incidence-weighted cover
    maps over the covers between rank i and rank i-1.  Squares to zero by
    the diamond relation; checked.
    """
    z = c.base
    max_rank = z.faces.max_rank()
    dims = {}
    offsets = {}
    for i in range(max_rank + 1):
        off = {}
        total = 0
        for s in z.faces.elements_of_rank(i):
            off[s] = total
            total += c.section_rank(s, p)
        dims[i] = total
        offsets[i] = off
    boundaries = {}
    for i in range(1, max_rank + 1):
        rows, cols = dims[i - 1], dims[i]
        block = [[Fraction(0)] * cols for _ in range(rows)]
        for (s, t), maps in c.cover_maps.items():
            if z.faces.rank(s) != i:
                continue
            m = maps.get(p)
            if not m:
                continue
            sign = z.incidence[(s, t)]
            r0 = offsets[i - 1][t]
            c0 = offsets[i][s]
            for a, row in enumerate(m):
                for b, val in enumerate(row):
                    if val:
                        block[r0 + a][c0 + b] += sign * val
        boundaries[i] = block
    for i in range(2, max_rank + 1):
        _check_squares_to_zero(boundaries[i - 1], boundaries[i])
    return CosheafChainComplex(p=p, dims=dims, offsets=offsets, boundaries=boundaries)


def _check_squares_to_zero(lower, upper) -> None:
    if not lower or not upper or not upper[0]:
        return
    rows = len(lower)
    mid = len(upper)
    cols = len(upper[0])
    for j in range(cols):
        col = [upper[k][j] for k in range(mid)]
        for i in range(rows):
            if sum(lower[i][k] * col[k] for k in range(mid) if col[k]):
                raise RuntimeError("cosheaf boundary does not square to zero")


def cosheaf_homology(c: LocalCohomologyCosheaf, p: int) -> HomologyProfile:
    """Rational homology of the cosheaf chain complex at cohomological degree p."""
    assembled = assemble_chain_complex(c, p)
    ranks = {i: len(rational_rref(m)[1]) for i, m in assembled.boundaries.items()}
    data = {}
    for i, dim in assembled.dims.items():
        free = dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
        data[i] = (free, ())
    return HomologyProfile(data)


@dataclass
class DihomologyReport:
    n: int
    cosheaf_ranks: tuple        # rank H_r(S; H^{n-2}) for r = 0..n-2
    order_complex_ranks: tuple  # rank H^{n-2-r}(|S|)   for r = 0..n-2
    concentrated: bool
    stray_sections: tuple       # (face, degree, rank) off the top degree
    section_torsion: tuple      # (face, degree, coefficient)
    order_complex_torsion: tuple

    @property
    def passed(self) -> bool:
        return self.concentrated and self.cosheaf_ranks == self.order_complex_ranks


def dihomology_check(z: SpongeComplex) -> DihomologyReport:
    """Two-sided rank comparison H_r(S; H^{n-2}) vs H^{n-2-r}(|S|).

    Preconditions: the sponge validates and its face poset is Cohen-Macaulay
    over Z (raises NotCohenMacaulay otherwise -- the comparison is skipped).
    Then every section must be concentrated in cohomological degree n-2, and
    each rank r = 0..n-2 must match; the first disagreement raises
    RankMismatch.
    """
    ensure_valid(z)
    cm = check_cohen_macaulay(z.faces)
    if not cm.is_cm:
        raise NotCohenMacaulay(cm)
    cosheaf = build_cosheaf(z)
    top = z.n - 2
    stray = []
    torsion = []
    for s in z.faces.elements():
        prof = cosheaf.sections[s]
        for d in prof.degrees():
            if d != top and prof.free_rank(d):
                stray.append((s, d, prof.free_rank(d)))
        zprof = cosheaf.sections_integral[s]
        for d in zprof.degrees():
            for t in zprof.torsion(d):
                torsion.append((s, d, t))
    lhs_profile = cosheaf_homology(cosheaf, top)
    lhs = tuple(lhs_profile.free_rank(r) for r in range(top + 1))
    # rational ranks are the free ranks of the integral cohomology
    oc = cohomology(order_complex(z.faces).chain_complex(augmented=False))
    rhs = tuple(oc.free_rank(top - r) for r in range(top + 1))
    report = DihomologyReport(
        n=z.n,
        cosheaf_ranks=lhs,
        order_complex_ranks=rhs,
        concentrated=not stray,
        stray_sections=tuple(stray),
        section_torsion=tuple(torsion),
        order_complex_torsion=tuple(oc.total_torsion()),
    )
    for r in range(top + 1):
        if lhs[r] != rhs[r]:
            raise RankMismatch(r, lhs[r], rhs[r])
    return report
