"""The local-cohomology cosheaf on a face poset and the dihomology check.

For a sponge (a graded poset with a sign convention) the section at a face s
is its local cohomology `sponge.local_cohomology(z, s)`: the homology of
`sponge.section_complex(z, s)`, the cochain subcomplex on the faces above s,
with cohomological degree p at chain degree -p.  For s > t the faces above s
are among those above t, and extending cochains by zero is a chain map
between the two section complexes; its induced map on cohomology is the
cosheaf's cover map.

Chain groups of the cosheaf in homological degree i collect the sections of
the rank-i faces, with boundary the incidence-weighted sum of cover maps;
the diamond relation makes the boundary square to zero (checked).  The
assembled complex is an integral `IntegerChainComplex`: each boundary is
scaled by the lcm of its entries' denominators, a positive factor per degree
that keeps d o d = 0 and every rank, so its rational homology is that of the
cosheaf.  For Cohen-Macaulay face posets the sections live purely in
cohomological degree n-2 and the homology of the cosheaf in degree r must
agree with the cohomology of the order complex in degree n-2-r.
`dihomology_check` verifies that rank equality with two independent
computations: the cosheaf's homology on one side; on the other, the reduced
homology of (0^, 1^) cached on the face poset by `poset.interval_homology`,
read as cohomology by universal coefficients.

The cosheaf's ranks need no bases when every section sits in one degree.
The section complexes are the columns of one integer double complex D: a
cell (s, t) for each pair of faces s <= t, in degree rank s - rank t, with
boundary

    d(s, t) = sum_u [s:u] (u, t) + (-1)^rank s sum_w [w:t] (s, w)

over the lower covers u of s and the upper covers w of t.  The first sum
squares to zero by the diamond relations below s, the second by those above
t, and the two commute, since each inclusion of sections is a cochain map:
the sign (-1)^rank s makes the cross terms cancel.  Filter D by rank s.  The
E0 page is the section complexes, so E1 is the sections, and d1, induced by
the inclusions, is the cosheaf's boundary (Weibel, An Introduction to
Homological Algebra, 1994, 5.6; Curry, Sheaves, Cosheaves and Applications,
thesis, 2014).  When every rational section sits in cohomological degree
n-2, E1 is one row, E2 = E-infinity, and rank H_r(S; H^{n-2}) =
rank H_{r-(n-2)}(D; Q).  Over Z the same D can carry torsion (the doubled
edge's does), so D is read over Q.  A section off degree n-2 is possible on a
valid Cohen-Macaulay sponge: a lone vertex at n=3 has Z in degree 0, so E1
is not row n-2 alone, and H_0(D; Q) = Q says nothing of the cosheaf at n-2,
which is zero.  `dihomology_check` then falls back to the cosheaf's
rational bases and cover maps.

Sections and cover maps are rational (deterministic bases from the homology
routine); the integer side of the comparison contributes free ranks and
torsion of the order-complex cohomology plus torsion found in the sections
themselves, without integral functoriality.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING

from .complexes import (
    INTEGERS,
    RATIONALS,
    HomologyProfile,
    IntegerChainComplex,
    RationalHomologyBasis,
    cell_complex,
    homology,
    induced_map_on_homology,
)
from .errors import MalformedComplex, NotCohenMacaulay, RankMismatch
from .exactalg import IntegerMatrix
from .poset import check_cohen_macaulay, interval_homology
from .sponge import (
    SpongeComplex,
    _section_cohomology,
    _section_complex,
    ensure_valid,
    faces_above,
    incidence_signs,
)

if TYPE_CHECKING:  # annotations only
    from fractions import Fraction


class LocalCohomologyCosheaf:
    """Sections and cover maps of the local-cohomology cosheaf over Q."""

    def __init__(self, base: SpongeComplex, sections: dict | None = None,
                 sections_integral: dict | None = None, cover_maps: dict | None = None):
        self.base = base
        # s -> HomologyProfile over Q, s -> HomologyProfile over Z, (s, t) -> {p: matrix}
        self.sections = {} if sections is None else sections
        self.sections_integral = {} if sections_integral is None else sections_integral
        self.cover_maps = {} if cover_maps is None else cover_maps

    def __eq__(self, other) -> bool:
        if type(other) is not LocalCohomologyCosheaf:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"LocalCohomologyCosheaf({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def section_rank(self, s: str, p: int) -> int:
        return self.sections[s].free_rank(p)

    def cover_map(self, s: str, t: str, p: int) -> list[list[Fraction]]:
        return self.cover_maps[(s, t)].get(
            p, [[] for _ in range(self.section_rank(t, p))]
        )


def build_cosheaf(z: SpongeComplex) -> LocalCohomologyCosheaf:
    """Compute every section and every cover map.

    Each face's `faces_above` lists are computed once, and its
    `section_complex` is built once on them (`_sections`).  Its homology
    gives the section over Z and over Q, its rational bases give the cover
    maps, which are induced by the inclusions of the `faces_above` lists,
    and both are reported at cohomological degree p, the complex's chain
    degree -p.
    """
    ensure_valid(z)
    return _cosheaf(z, *_sections(z))


def _sections(z: SpongeComplex) -> tuple[dict, dict, dict, dict]:
    """Per face: its `faces_above` lists, its section complex, and the
    section's cohomology over Q and over Z."""
    generators = {s: faces_above(z, s) for s in z.faces.elements()}
    complexes = {s: _section_complex(z, generators[s]) for s in generators}
    sections = {s: _section_cohomology(c, RATIONALS) for s, c in complexes.items()}
    sections_integral = {s: _section_cohomology(c, INTEGERS) for s, c in complexes.items()}
    return generators, complexes, sections, sections_integral


def _cosheaf(z: SpongeComplex, generators: dict, complexes: dict, sections: dict,
             sections_integral: dict) -> LocalCohomologyCosheaf:
    """The cosheaf on the output of `_sections`: a rational basis per section,
    and the map each cover induces between them."""
    bases = {s: RationalHomologyBasis(c) for s, c in complexes.items()}
    cover_maps: dict[tuple[str, str], dict[int, list[list[Fraction]]]] = {}
    for upper, lower in z.faces.covers():
        inclusion = {}
        gen_u, gen_l = generators[upper], generators[lower]
        for d in gen_u:
            pos = {gen: i for i, gen in enumerate(gen_l[d])}
            ent = {(pos[gen], j): 1 for j, gen in enumerate(gen_u[d])}
            inclusion[-d] = IntegerMatrix(len(gen_l[d]), len(gen_u[d]), ent)
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
    )


def _double_complex(z: SpongeComplex, generators: dict) -> IntegerChainComplex:
    """The total complex D of the section complexes, on their `faces_above` lists.

    D has a cell (s, t) for each pair of faces s <= t, in degree
    rank s - rank t.  The boundary of (s, t) is the sum of [s:u] (u, t) over
    the lower covers u of s, plus (-1)^rank s times the sum of [w:t] (s, w)
    over the upper covers w of t.  Built by `cell_complex`, so d o d = 0 is
    checked.
    """
    faces = z.faces
    rank = {s: faces.rank(s) for s in generators}
    down = {s: [(u, z.incidence[s, u]) for u in faces.lower_covers(s)] for s in generators}
    up = {t: [(w, z.incidence[w, t]) for w in faces.upper_covers(t)] for t in generators}
    cells: dict[int, list[tuple[str, str]]] = {-d: [] for d in range(faces.max_rank() + 1)}
    for s, above in generators.items():
        for d, ts in above.items():
            if ts:
                cells[rank[s] - d].extend((s, t) for t in ts)

    def boundary(cell):
        s, t = cell
        sign = -1 if rank[s] & 1 else 1
        return [*(((u, t), v) for u, v in down[s]), *(((s, w), sign * v) for w, v in up[t])]

    return cell_complex(cells, boundary)


def assemble_chain_complex(c: LocalCohomologyCosheaf, p: int) -> IntegerChainComplex:
    """The chain complex of the cosheaf at cohomological degree p.

    Degree i holds the sections of the rank-i faces in (rank, id) order.  The
    boundary out of degree i sums incidence-weighted cover maps over the
    covers between rank i and rank i-1, times the lcm of the denominators of
    its entries.  Squares to zero by the diamond relation; checked.
    """
    z = c.base
    ranks = {}
    offsets = {}
    for i in range(z.faces.max_rank() + 1):
        offsets[i] = {}
        ranks[i] = 0
        for s in z.faces.elements_of_rank(i):
            offsets[i][s] = ranks[i]
            ranks[i] += c.section_rank(s, p)
    entries: dict[int, dict] = {i: {} for i in ranks if i}
    for (s, t), maps in c.cover_maps.items():
        i = z.faces.rank(s)
        r0, c0 = offsets[i - 1][t], offsets[i][s]
        for a, row in enumerate(maps.get(p, ())):
            for b, v in enumerate(row):
                if v:
                    entries[i][(r0 + a, c0 + b)] = z.incidence[(s, t)] * v
    boundaries = {}
    for i, block in entries.items():
        scale = lcm(*(v.denominator for v in block.values()))
        scaled = {ij: v * scale for ij, v in block.items()}
        boundaries[i] = IntegerMatrix(ranks[i - 1], ranks[i], scaled)
    try:
        return IntegerChainComplex(ranks, boundaries)
    except MalformedComplex as err:
        raise RuntimeError(f"cosheaf boundary does not square to zero: {err}") from err


def cosheaf_homology(c: LocalCohomologyCosheaf, p: int) -> HomologyProfile:
    """Rational homology of the cosheaf chain complex at cohomological degree p."""
    return homology(assemble_chain_complex(c, p), RATIONALS)


class DihomologyReport:
    def __init__(self, n: int, cosheaf_ranks: tuple, order_complex_ranks: tuple,
                 concentrated: bool, stray_sections: tuple, section_torsion: tuple,
                 order_complex_torsion: tuple):
        self.n = n
        self.cosheaf_ranks = cosheaf_ranks  # rank H_r(S; H^{n-2}) for r = 0..n-2
        self.order_complex_ranks = order_complex_ranks  # rank H^{n-2-r}(|S|) for r = 0..n-2
        self.concentrated = concentrated
        self.stray_sections = stray_sections  # (face, degree, rank) off the top degree
        self.section_torsion = section_torsion  # (face, degree, coefficient)
        self.order_complex_torsion = order_complex_torsion

    def __eq__(self, other) -> bool:
        if type(other) is not DihomologyReport:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"DihomologyReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

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

    Each face's section complex is built once (`_sections`), and its profiles
    over Z and Q give the stray sections and the section torsion.  When no
    section has free rank off degree n-2, the left side is read from the
    double complex D of the module docstring: rank H_r(S; H^{n-2}) is the
    rank of H_{r-(n-2)}(D; Q), since D's spectral-sequence E1 page is the
    cosheaf's chain complex in row n-2 alone.  Otherwise (a lone vertex at
    n=3 has its section in degree 0) E1 has other rows, and the left side
    is the homology of the cosheaf built from rational bases and cover maps.
    """
    ensure_valid(z)
    cm = check_cohen_macaulay(z.faces, signs=incidence_signs(z))
    if not cm.is_cm:
        raise NotCohenMacaulay(cm)
    generators, complexes, sections, sections_integral = _sections(z)
    top = z.n - 2
    stray = []
    torsion = []
    for s in z.faces.elements():
        prof = sections[s]
        for d in prof.degrees():
            if d != top and prof.free_rank(d):
                stray.append((s, d, prof.free_rank(d)))
        torsion.extend((s, d, t) for d, t in sections_integral[s].total_torsion())
    if stray:
        cosheaf = _cosheaf(z, generators, complexes, sections, sections_integral)
        lhs_profile = cosheaf_homology(cosheaf, top)
        lhs = tuple(lhs_profile.free_rank(r) for r in range(top + 1))
    else:
        del complexes  # D holds their cells again: keep one copy at a time
        total = homology(_double_complex(z, generators), RATIONALS)
        lhs = tuple(total.free_rank(r - top) for r in range(top + 1))
    reduced, _ = interval_homology(z.faces, None, None)  # torsion moves up one degree
    rhs = [reduced.free_rank(top - r) for r in range(top + 1)]
    if len(z.faces):
        rhs[top] += 1  # unreduced H^0 of a nonempty S
    report = DihomologyReport(
        n=z.n,
        cosheaf_ranks=lhs,
        order_complex_ranks=tuple(rhs),
        concentrated=not stray,
        stray_sections=tuple(stray),
        section_torsion=tuple(torsion),
        order_complex_torsion=tuple((d + 1, t) for d, t in reduced.total_torsion()),
    )
    for r in range(top + 1):
        if lhs[r] != rhs[r]:
            raise RankMismatch(r, lhs[r], rhs[r])
    return report
