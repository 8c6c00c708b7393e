"""Independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: rank goes
through fraction-free (Bareiss) Gaussian elimination instead of the Smith
form, determinants through Bareiss expansion, matrix products, transposes
and submatrices through dense lists of rows instead of the sparse
IntegerMatrix, series through direct long division of power series,
cohomology through Smith forms of the transposed boundaries instead of the
diagonals shared with homology, maximal faces through an all-pairs
subset test instead of the vertex index, the Cohen-Macaulay test through
the homology of every chain's link instead of joins of cached intervals,
cosheaf homology through dense Fraction blocks and Gauss-Jordan ranks
instead of a scaled integral chain complex and Smith diagonals, and face
acyclicity, the realization cross-check and the dihomology check through
order complexes built and eliminated afresh instead of the open-interval
homology cached on the face poset, local cohomology through the
order-complex pair instead of the cellular quotient, and the cosheaf's
section complexes as cochain subcomplexes selected from the full cochain
complex instead of the cochain complex of `section_complex`, and the
maximal code of a labelled graph through all n! relabellings instead of
the pruned canonicity search.
"""

from fractions import Fraction
from itertools import permutations
from typing import Iterable, Mapping

from sponges.complexes import (
    HomologyProfile,
    IntegerChainComplex,
    _closure_check,
    cochain_complex,
    cohomology,
    quotient_complex,
)
from sponges.cosheaf import (
    DihomologyReport,
    NotCohenMacaulay,
    RankMismatch,
    build_cosheaf,
    cosheaf_homology,
)
from sponges.exactalg import rational_rref, smith_diagonal
from sponges.poset import (
    CMReport,
    CMWitness,
    UnknownElement,
    check_cohen_macaulay,
    order_complex,
    reduced_simplicial_homology,
    subposet,
)
from sponges.sponge import (
    AcyclicityReport,
    NonCompactSponge,
    NotAcyclicSponge,
    RealizationMismatch,
    RealizationReport,
    SpongeComplex,
    _sphere_defect,
    cellular_complex,
    ensure_valid,
)


def rank_fraction_free(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination (Bareiss)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def determinant_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def maximal_faces_bruteforce(faces) -> set[frozenset]:
    """The inclusion-maximal nonempty faces, by an all-pairs subset test."""
    raw = {frozenset(f) for f in faces} - {frozenset()}
    return {f for f in raw if not any(f < g for g in raw)}


def max_code_brute_force(n: int, edges) -> int:
    """The largest code of any relabelling of a simple graph on 0..n-1.

    A code has one bit per pair i < j, read in the order (j, i) ascending,
    most significant bit first; all n! relabellings are tried.
    """
    top = n * (n - 1) // 2
    best = 0
    for perm in permutations(range(n)):
        code = 0
        for a, b in edges:
            i, j = sorted((perm[a], perm[b]))
            code |= 1 << (top - 1 - j * (j - 1) // 2 - i)
        best = max(best, code)
    return best


def dense_product(a: list[list[int]], b: list[list[int]], ncols: int) -> list[list[int]]:
    """Product of dense row lists; ``ncols`` is b's column count (b may have no rows)."""
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(ncols)] for row in a]


def dense_transpose(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Transpose of dense row lists; ``ncols`` is a's column count (a may have no rows)."""
    return [[row[j] for row in a] for j in range(ncols)]


def dense_submatrix(a: list[list[int]], rows: list[int], cols: list[int]) -> list[list[int]]:
    return [[a[i][j] for j in cols] for i in rows]


def rational_betti_numbers(rank_per_degree: dict[int, int],
                           boundaries: dict[int, list[list[int]]]) -> dict[int, int]:
    """Betti numbers over Q via rank-nullity with the Bareiss rank."""
    betti = {}
    for d, n in rank_per_degree.items():
        rd = rank_fraction_free(boundaries[d]) if d in boundaries and n else 0
        up = boundaries.get(d + 1)
        rup = rank_fraction_free(up) if up else 0
        betti[d] = n - rd - rup
    return betti


def cohomology_via_transpose(c) -> HomologyProfile:
    """Integral cohomology from Smith forms of the coboundary matrices.

    The coboundary C^d -> C^{d+1} is boundary(d+1) transposed: free ranks
    follow by rank-nullity, and the torsion in degree d comes from the
    coboundary into degree d.
    """
    def codiagonal(d):
        return smith_diagonal(c.boundary(d + 1).transpose())

    data = {}
    for d in c.degrees():
        into = codiagonal(d - 1)
        free = c.rank(d) - len(codiagonal(d)) - len(into)
        data[d] = (free, tuple(t for t in into if t > 1))
    return HomologyProfile(data)


def series_quotient(numerator: list[int], denominator: list[int], up_to: int) -> list[int]:
    """Power-series expansion of numerator/denominator by long division."""
    if not denominator or denominator[0] == 0:
        raise ZeroDivisionError("denominator must have a nonzero constant term")
    lead = Fraction(denominator[0])
    out: list[Fraction] = []
    for k in range(up_to + 1):
        acc = Fraction(numerator[k]) if k < len(numerator) else Fraction(0)
        for j in range(1, min(k, len(denominator) - 1) + 1):
            acc -= denominator[j] * out[k - j]
        out.append(acc / lead)
    result = []
    for c in out:
        assert c.denominator == 1
        result.append(int(c))
    return result


def poly_multiply(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def one_minus_t2_power(k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = poly_multiply(out, [1, 0, -1])
    return out


def join_betti(left: dict[int, int], right: dict[int, int], max_degree: int) -> dict[int, int]:
    """Reduced Betti numbers of a join over Q (Kunneth for joins).

    betti_k(X * Y) = sum_{i+j=k-1} betti_i(X) * betti_j(Y), with the empty
    complex contributing betti_{-1} = 1 so that joins with it are identities.
    """
    out: dict[int, int] = {}
    for k in range(-1, max_degree + 1):
        total = 0
        for i in range(-1, k + 1):
            j = k - 1 - i
            total += left.get(i, 0) * right.get(j, 0)
        if total:
            out[k] = total
    return out


def cohen_macaulay_via_links(p, coefficients: str = "integers") -> CMReport:
    """The Cohen-Macaulay test by building and eliminating the link of every chain.

    For every chain sigma (the empty chain included), the link of sigma in
    the order complex must have vanishing reduced homology in all degrees
    below the dimension of that link.
    """
    complex_ = order_complex(p)
    witnesses: list[CMWitness] = []
    for face in [()] + complex_.all_faces():
        link = complex_.link(face)
        dim = link.dimension if not link.is_empty() else -1
        if dim <= -1:
            continue
        h = reduced_simplicial_homology(link, coefficients)
        for d in h.degrees():
            if d < dim:
                witnesses.append(
                    CMWitness(
                        chain=complex_.face_vertices(face),
                        degree=d,
                        free_rank=h.free_rank(d),
                        torsion=h.torsion(d),
                    )
                )
    witnesses.sort(key=lambda w: (len(w.chain), tuple(map(str, w.chain)), w.degree))
    return CMReport(
        is_cm=not witnesses, coefficients=coefficients, witnesses=tuple(witnesses)
    )


def cosheaf_homology_dense(c, p: int) -> HomologyProfile:
    """Rational homology of a cosheaf's chain complex at cohomological degree p.

    Boundaries are dense Fraction blocks of incidence-weighted cover maps,
    checked to square to zero entry by entry; ranks come from Gauss-Jordan.
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
    ranks = {i: len(rational_rref(m)[1]) for i, m in boundaries.items()}
    data = {}
    for i, dim in dims.items():
        free = dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
        data[i] = (free, ())
    return HomologyProfile(data)


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


def check_acyclic_via_subposets(z) -> AcyclicityReport:
    """Face acyclicity with each lower interval's order complex built and eliminated."""
    ensure_valid(z)
    if z.non_compact:
        raise NonCompactSponge(
            "face acyclicity is undefined for non-compact sponges (cone faces)"
        )
    failures = []
    for f in z.faces.elements():
        below = subposet(z.faces, "strictly_below", f)
        prof = reduced_simplicial_homology(order_complex(below))
        defect = _sphere_defect(prof, z.faces.rank(f) - 1)
        if defect is not None:
            failures.append((f, tuple(sorted(defect.items()))))
    reduced = cohomology(cellular_complex(z, augmented=True))
    up_to = -2
    for i in range(-1, z.n - 1):
        if reduced.free_rank(i) == 0 and not reduced.torsion(i):
            up_to = i
        else:
            break
    torsion = tuple(
        (d, t) for d in reduced.degrees() for t in reduced.torsion(d)
    )
    return AcyclicityReport(
        n=z.n,
        faces_ok=not failures,
        lower_interval_failures=tuple(failures),
        skeleton_acyclic_up_to=up_to,
        b_number=reduced.free_rank(z.n - 2),
        torsion_found=torsion,
    )


def realization_cross_check_via_order_complex(z) -> RealizationReport:
    """The realization cross-check with the order complex's cochains eliminated."""
    ensure_valid(z)
    report = check_acyclic_via_subposets(z)
    if not report.faces_ok:
        raise NotAcyclicSponge(
            f"faces fail the lower-interval sphere condition: "
            f"{[f for f, _ in report.lower_interval_failures]}"
        )
    cellular = cohomology(cellular_complex(z, augmented=True))
    simplicial = cohomology(order_complex(z.faces).chain_complex(augmented=True))
    degrees = sorted(set(cellular.degrees()) | set(simplicial.degrees()) | set(range(z.n - 1)))
    for d in degrees:
        left = (cellular.free_rank(d), cellular.torsion(d))
        right = (simplicial.free_rank(d), simplicial.torsion(d))
        if left != right:
            raise RealizationMismatch(d, left, right)
    return RealizationReport(
        degrees_checked=tuple(degrees),
        cellular={d: (cellular.free_rank(d), cellular.torsion(d)) for d in degrees},
        simplicial={d: (simplicial.free_rank(d), simplicial.torsion(d)) for d in degrees},
    )


def dihomology_check_via_order_complex(z) -> DihomologyReport:
    """The dihomology check with the order complex's unreduced cochains eliminated."""
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


def subcomplex(
    total: IntegerChainComplex, sub_generators: Mapping[int, Iterable[int]]
) -> IntegerChainComplex:
    """The subcomplex spanned by a boundary-closed selection of generators."""
    selected = {int(d): set(int(i) for i in idx) for d, idx in sub_generators.items()}
    _closure_check(total, selected)
    kept = {d: sorted(selected.get(d, set())) for d in total.degrees()}
    ranks = {d: len(kept[d]) for d in kept}
    boundaries = {}
    for d in total.degrees():
        if d - 1 in kept:
            boundaries[d] = total.boundary(d).submatrix(kept[d - 1], kept[d])
    return IntegerChainComplex(ranks, boundaries)


def _section_selector(z: SpongeComplex, s: str) -> dict[int, list[int]]:
    up = z.faces.upset(s)
    sel = {}
    for d in range(z.n - 1):
        sel[-d] = [i for i, f in enumerate(z.faces_of_dim(d)) if f in up]
    return sel


def section_cochain_subcomplex(z: SpongeComplex, s: str) -> IntegerChainComplex:
    """The cosheaf's section complex at s, selected from the full cochain complex."""
    cochain = cochain_complex(cellular_complex(z, augmented=False))
    return subcomplex(cochain, _section_selector(z, s))


def local_cohomology_via_order_complex(
    z: SpongeComplex, face: str, coefficients: str = "integers"
) -> HomologyProfile:
    """The same local cohomology through the order-complex pair.

    Relative cohomology of (|S|, |S minus the up-set of F|), used as an
    independent route for compact face-acyclic sponges; it disagrees with the
    cellular computation on non-compact models, whose faces are cones.
    """
    ensure_valid(z)
    if face not in z.faces.ranks:
        raise UnknownElement(face)
    up = z.faces.upset(face)
    k = order_complex(z.faces)
    total = k.chain_complex(augmented=False)
    faces_by_dim = k.faces_by_dim()
    sub = {
        d: [
            i
            for i, simplex in enumerate(faces_by_dim.get(d, []))
            if not any(k.vertices[v] in up for v in simplex)
        ]
        for d in faces_by_dim
    }
    return cohomology(quotient_complex(total, sub), coefficients)
