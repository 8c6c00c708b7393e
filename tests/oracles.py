"""Independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: rank goes
through fraction-free (Bareiss) Gaussian elimination instead of the Smith
form, determinants through Bareiss expansion, matrix products, transposes
and submatrices through dense lists of rows instead of the sparse
IntegerMatrix, series through direct long division of power series,
cohomology through Smith forms of the transposed boundaries instead of the
diagonals shared with homology, homology and cohomology through Smith
diagonals of the full boundaries instead of those of the residual complex
left by coreduction, maximal faces through an all-pairs
subset test instead of the vertex index, the Cohen-Macaulay test through
the homology of every chain's link instead of joins of cached intervals,
cosheaf homology through dense Fraction blocks and Gauss-Jordan ranks
instead of a scaled integral chain complex and Smith diagonals, rational
homology bases and coordinates through one dense Gauss-Jordan elimination
beside an identity block per degree instead of sparse reduced columns, and
their kernel vectors through the reduced row-echelon form of each boundary
instead of the vanishing columns of that reduction (the Smith route to a
saturated kernel basis is kept here as well), face
acyclicity, the realization cross-check and the dihomology check through
order complexes built and eliminated afresh instead of the open-interval
homology cached on the face poset, simplicial boundaries assembled matrix
by matrix instead of through `cell_complex`, the homology of an open
interval through the order complex of the restricted interval (cones
included) instead of its chains, section complexes as cochain complexes
(transposes) of quotients of the whole cellular complex and as cochain
subcomplexes selected from the full cochain complex instead of complexes
built on the faces above F, local cohomology through the order-complex
pair instead of the section complex, the maximal code of a labelled graph
through all n! relabellings instead of the pruned canonicity search, that
search itself with a list of back-edge patterns per candidate instead of
one bitmask of tied candidates, the Betti polynomial through products
of powers of 1 - t^2 instead of the cached closed-form matrix of
binomials, and the +-1 sign solve through pivots swept in sorted column
order for each row and a scan of every column for its lead instead of one
Gauss-Jordan pass keyed by lead bits.
"""

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Iterable, Mapping, Sequence

from sponges.complexes import (
    INTEGERS,
    RATIONALS,
    HomologyProfile,
    IntegerChainComplex,
    RationalHomologyBasis,
    cohomology,
    homology,
)
from sponges.cosheaf import (
    DihomologyReport,
    NotCohenMacaulay,
    RankMismatch,
    build_cosheaf,
    cosheaf_homology,
)
from sponges.exactalg import IntegerMatrix, smith_diagonal, smith_normal_form
from sponges.poset import (
    CMReport,
    CMWitness,
    GradedPoset,
    SimplicialComplex,
    UnknownElement,
    check_cohen_macaulay,
    order_complex,
    subposet,
)
from sponges.sponge import (
    AcyclicityReport,
    NonCompactSponge,
    NotAcyclicSponge,
    NotDiamond,
    RealizationMismatch,
    RealizationReport,
    SignUnsolvable,
    SpongeComplex,
    _sphere_defect,
    cellular_complex,
    ensure_valid,
    rank2_intervals,
)


class NotASubcomplex(ValueError):
    """A selected generator has boundary outside the selection."""

    def __init__(self, degree: int, generator: int):
        self.degree = degree
        self.generator = generator
        super().__init__(
            f"generator {generator} in degree {degree} has boundary support "
            "outside the selected generators"
        )


def _closure_check(total: IntegerChainComplex, selected: dict[int, set[int]]) -> None:
    for d in sorted(selected):
        below = selected.get(d - 1, set())
        leaving = {j for i, j, _ in total.boundary(d).nonzero_items() if i not in below}
        for g in sorted(selected[d]):
            if not 0 <= g < total.rank(d) or g in leaving:
                raise NotASubcomplex(d, g)


def quotient_complex(
    total: IntegerChainComplex, sub_generators: Mapping[int, Iterable[int]]
) -> IntegerChainComplex:
    """The quotient of ``total`` by the subcomplex spanned by the selection.

    Its homology is the relative homology of the pair (total, sub).  The
    selection must be boundary-closed, otherwise NotASubcomplex is raised
    naming the violating generator.
    """
    selected = {int(d): set(int(i) for i in idx) for d, idx in sub_generators.items()}
    _closure_check(total, selected)
    kept = {
        d: [i for i in range(total.rank(d)) if i not in selected.get(d, set())]
        for d in total.degrees()
    }
    ranks = {d: len(kept[d]) for d in kept}
    boundaries = {}
    for d in total.degrees():
        m = total.boundary(d)
        if d - 1 in kept:
            boundaries[d] = submatrix(m, kept[d - 1], kept[d])
    return IntegerChainComplex(ranks, boundaries)


def simplicial_chain_complex(k: SimplicialComplex, augmented: bool = False) -> IntegerChainComplex:
    """The oriented simplicial chain complex, one boundary matrix at a time.

    Dropping vertex i of a face gives sign (-1)^i; ``augmented`` adds a
    rank-one group in degree -1 receiving every vertex with coefficient 1.
    """
    faces = k.faces_by_dim()
    ranks = {d: len(fs) for d, fs in faces.items()}
    boundaries = {}
    for d in sorted(faces):
        if d == 0:
            continue
        index = {f: i for i, f in enumerate(faces[d - 1])}
        ent = {(index[f[:i] + f[i + 1:]], j): (-1) ** i
               for j, f in enumerate(faces[d]) for i in range(len(f))}
        boundaries[d] = IntegerMatrix(ranks[d - 1], ranks[d], ent)
    if augmented:
        ranks[-1] = 1
        if 0 in faces:
            boundaries[0] = IntegerMatrix(1, ranks[0], {(0, j): 1 for j in range(ranks[0])})
    return IntegerChainComplex(ranks, boundaries)


def reduced_simplicial_homology(
    k: SimplicialComplex, coefficients: str = "integers"
) -> HomologyProfile:
    """Reduced homology via the augmented chain complex.

    The empty complex has reduced homology Z in degree -1 (its augmentation
    survives), matching the convention that it is a (-1)-sphere.
    """
    return homology(k.chain_complex(augmented=True), coefficients)


def all_faces(k: SimplicialComplex) -> list[tuple[int, ...]]:
    """Every nonempty face of k, by dimension and then lexicographically."""
    return [f for d in sorted(k.faces_by_dim()) for f in k.faces_by_dim()[d]]


def is_empty(k: SimplicialComplex) -> bool:
    return not k.facets


def interval_homology_via_order_complex(p: GradedPoset, x, y) -> tuple[HomologyProfile, int]:
    """Reduced homology and dimension of (x, y) in P^ from its order complex.

    ``None`` stands for 0^ as ``x`` and for 1^ as ``y``.  The interval is
    restricted to a poset of its own, its order complex is built from the
    maximal chains, its boundaries are assembled matrix by matrix, and cones
    are eliminated like every other interval, with no coreduction.
    """
    k = interval_order_complex(p, x, y)
    return homology_without_coreduction(simplicial_chain_complex(k, augmented=True)), k.dimension


def interval_order_complex(p: GradedPoset, x, y) -> SimplicialComplex:
    """The order complex of the open interval (x, y) of P^, restricted to a poset of its own."""
    inside = set(p.ranks) if x is None else set(p.upset(x))
    if y is not None:
        inside &= p.downset(y)
    return order_complex(p.restrict(inside - {x, y}))


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


def rational_rref(
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form over Q, by Gauss-Jordan elimination.

    Returns the nonzero reduced rows (each with pivot entry 1) and the pivot
    column of each.  Columns are scanned left to right, so the pivot columns
    are the leftmost maximal independent subset of the columns and their
    count is the rank.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        pivot_row = m[r] = [x / pv for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                f = row[c]
                m[i] = [x - f * y for x, y in zip(row, pivot_row)]
        pivots.append(c)
    return m[: len(pivots)], pivots


def integer_kernel_basis(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """A saturated lattice basis of {v : M v = 0}, from the Smith form.

    With U*M*V = D, the columns of V past the rank satisfy M v = 0 and span
    the kernel lattice saturately (V is unimodular).
    """
    if m.cols == 0:
        return []
    snf = smith_normal_form(m)
    return [tuple(col) for col in snf.V.transpose().to_rows()[len(snf.diagonal):]]


def dependency_kernel(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """The kernel vectors of `RationalHomologyBasis`, by Gauss-Jordan.

    Each column j of m that depends on the leftmost independent columns
    before it is m_j = sum c_k m_k, with the c_k read off column j of the
    reduced row-echelon form; its vector is e_j - sum c_k e_k, times the lcm
    of its denominators.
    """
    reduced, pivots = rational_rref(m.to_rows())
    out = []
    for j in sorted(set(range(m.cols)) - set(pivots)):
        v = [Fraction(int(i == j)) for i in range(m.cols)]
        for row, k in zip(reduced, pivots):
            v[k] -= row[j]
        scale = lcm(*(x.denominator for x in v))
        out.append(tuple(int(x * scale) for x in v))
    return out


class RationalHomologyBasisDense:
    """The homology bases of `complexes.RationalHomologyBasis`, dense.

    One Gauss-Jordan elimination per degree of [boundary and kernel columns |
    identity] picks the representatives and yields E with E * columns
    reduced.  The rows of E at the representatives' pivots give coordinates
    modulo boundaries; the rows past the rank vanish exactly on the cycles.
    ``kernel`` gives the kernel vectors of each boundary; with
    `integer_kernel_basis` the bases are those read off Smith transforms.
    """

    def __init__(self, c: IntegerChainComplex, kernel=dependency_kernel):
        self._reps: dict[int, list[tuple[int, ...]]] = {}
        self._solve: dict[int, list[list[Fraction]]] = {}
        for d in c.degrees():
            n = c.rank(d)
            kernel_cols = kernel(c.boundary(d))
            boundary_cols = [tuple(col) for col in c.boundary(d + 1).transpose().to_rows()]
            all_cols = boundary_cols + kernel_cols
            rows = [[col[i] for col in all_cols] + [int(i == j) for j in range(n)]
                    for i in range(n)]
            reduced, pivots = rational_rref(rows)
            chosen = [k for k in pivots if k < len(all_cols)]
            first_rep = sum(1 for k in chosen if k < len(boundary_cols))
            self._reps[d] = [all_cols[k] for k in chosen[first_rep:]]
            self._solve[d] = [row[len(all_cols):] for row in reduced[first_rep:]]

    def representatives(self, degree: int) -> list[tuple[int, ...]]:
        return list(self._reps.get(degree, []))

    def coordinates(self, degree: int, vectors) -> list[list[Fraction]]:
        rows, betti = self._solve.get(degree, []), len(self._reps.get(degree, []))
        out = []
        for v in vectors:
            image = [sum((row[i] * x for i, x in enumerate(v)), Fraction(0)) for row in rows]
            if any(image[betti:]):
                raise ValueError("vector is not a cycle modulo boundaries")
            out.append(image[:betti])
        return out


def dense_basis_mismatches(c: IntegerChainComplex, rng) -> list[tuple[int, str]]:
    """Where `RationalHomologyBasis` and `RationalHomologyBasisDense` disagree on c.

    Per degree: the representatives, the exact coordinates of the kernel
    vectors and of random rational combinations of the representatives plus
    boundaries, and the ValueError for such a vector with a non-cycle added.
    Returns (degree, what) pairs, none when the two agree.
    """
    sparse, dense = RationalHomologyBasis(c), RationalHomologyBasisDense(c)
    out = []
    for d in c.degrees():
        reps = dense.representatives(d)
        if sparse.representatives(d) != reps:
            out.append((d, "representatives"))
        boundaries = c.boundary(d + 1).transpose().to_rows()
        vectors = [list(k) for k in dependency_kernel(c.boundary(d))]
        for _ in range(3):
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in reps]
            b = [rng.randint(-2, 2) for _ in boundaries]
            vectors.append([sum(x * rep[i] for x, rep in zip(a, reps))
                            + sum(y * col[i] for y, col in zip(b, boundaries))
                            for i in range(c.rank(d))])
        if sparse.coordinates(d, vectors) != dense.coordinates(d, vectors):
            out.append((d, "coordinates"))
        moving = sorted({j for _, j, _ in c.boundary(d).nonzero_items()})
        if moving:
            vectors[-1][rng.choice(moving)] += 1
            for basis in (sparse, dense):
                try:
                    basis.coordinates(d, vectors[-1:])
                except ValueError as err:
                    if "not a cycle" not in str(err):
                        out.append((d, f"{type(basis).__name__}: {err}"))
                else:
                    out.append((d, f"{type(basis).__name__} accepts a non-cycle"))
    return out


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


def is_canonical_by_patterns(n: int, edges) -> bool:
    """Whether no relabelling of a simple graph on 0..n-1 has a larger code.

    The same pruned search as the cubic generator's, on other state: each
    unused vertex carries its back-edge pattern against the labelled prefix
    `used` as an integer, one bit longer per level, and the candidates are a
    list of (vertex, pattern) pairs compared with the graph's own pattern.
    """
    adj = [0] * n
    pats = [0] * n  # back-edge bits per vertex, vertex 0 most significant
    for a, b in edges:
        i, j = sorted((a, b))
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        pats[j] |= 1 << (j - 1 - i)
    used: list[int] = []
    resume = n  # depth to return to after a non-identity leaf

    def larger_exists(used_mask: int, cand: list[tuple[int, int]]) -> bool:
        nonlocal resume
        j = len(used)
        if j == n:
            resume = next((k for k in range(n) if used[k] != k), n)
            return False
        target = pats[j]
        ties = []
        seen_rows = set()
        for v, pat in cand:
            if pat > target:
                return True
            if pat == target:
                row = adj[v] & ~used_mask & ~(1 << v)
                if row not in seen_rows:  # unused twins are interchangeable
                    seen_rows.add(row)
                    ties.append(v)
        for v in ties:
            av = adj[v]
            used.append(v)
            larger = larger_exists(
                used_mask | (1 << v),
                [(u, (pat << 1) | ((av >> u) & 1)) for u, pat in cand if u != v],
            )
            used.pop()
            if larger:
                return True
            if resume < j:  # an automorphism mirrors this node's subtree
                return False
            resume = n
        return False

    return not larger_exists(0, [(v, 0) for v in range(n)])


def dense_product(a: list[list[int]], b: list[list[int]], ncols: int) -> list[list[int]]:
    """Product of dense row lists; ``ncols`` is b's column count (b may have no rows)."""
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(ncols)] for row in a]


def dense_transpose(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Transpose of dense row lists; ``ncols`` is a's column count (a may have no rows)."""
    return [[row[j] for row in a] for j in range(ncols)]


def submatrix(m: IntegerMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> IntegerMatrix:
    """The rows ``row_idx`` and columns ``col_idx`` of m, in that order, repeats allowed."""
    if not all(0 <= i < m.rows for i in row_idx) or not all(0 <= j < m.cols for j in col_idx):
        raise ValueError(f"submatrix index outside a {m.rows}x{m.cols} matrix")
    new_rows: dict[int, list[int]] = {}
    new_cols: dict[int, list[int]] = {}
    for a, i in enumerate(row_idx):
        new_rows.setdefault(i, []).append(a)
    for b, j in enumerate(col_idx):
        new_cols.setdefault(j, []).append(b)
    entries = {
        (a, b): v
        for i, j, v in m.nonzero_items()
        for a in new_rows.get(i, ())
        for b in new_cols.get(j, ())
    }
    return IntegerMatrix(len(row_idx), len(col_idx), entries)


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


def homology_without_coreduction(c: IntegerChainComplex, coefficients: str = INTEGERS) -> HomologyProfile:
    """Homology from the Smith diagonals of the full boundaries, not of the
    residual complex that coreduction leaves."""
    return _profile_without_coreduction(c, coefficients, torsion_from=1)


def cohomology_without_coreduction(c: IntegerChainComplex, coefficients: str = INTEGERS) -> HomologyProfile:
    """Cohomology from the Smith diagonals of the full boundaries: torsion in
    degree d from the diagonal of d_d (universal coefficients)."""
    return _profile_without_coreduction(c, coefficients, torsion_from=0)


def _profile_without_coreduction(c, coefficients: str, torsion_from: int) -> HomologyProfile:
    if coefficients not in (INTEGERS, RATIONALS):
        raise ValueError(f"unknown coefficients {coefficients!r}")
    diagonals: dict[int, tuple[int, ...]] = {}

    def diagonal(d):
        if d not in diagonals:
            diagonals[d] = smith_diagonal(c.boundary(d))
        return diagonals[d]

    data = {}
    for d in c.degrees():
        free = c.rank(d) - len(diagonal(d + 1)) - len(diagonal(d))
        torsion = tuple(t for t in diagonal(d + torsion_from) if t > 1)
        data[d] = (free, torsion if coefficients == INTEGERS else ())
    return HomologyProfile(data)


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
    if any(c.denominator != 1 for c in out):
        raise ValueError("the series has non-integral coefficients")
    return [int(c) for c in out]


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


def betti_polynomial_by_products(n: int, f: Sequence[int], b: int) -> tuple[int, ...]:
    """sum_i f_i t^(2n-2i) (1-t^2)^i + (1 + b t^2)(1-t^2)^(n-1), multiplied out."""
    total = [0] * (2 * n + 1)
    terms = [([0] * (2 * n - 2 * i) + [fi], one_minus_t2_power(i)) for i, fi in enumerate(f)]
    terms.append(([1, 0, b], one_minus_t2_power(n - 1)))
    for a, c in terms:
        for d, x in enumerate(poly_multiply(a, c)):
            total[d] += x
    return tuple(total)


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
    for face in [()] + all_faces(complex_):
        link = complex_.link(face)
        dim = link.dimension if not is_empty(link) else -1
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
    simplicial = cohomology(simplicial_chain_complex(order_complex(z.faces), augmented=True))
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
    oc = cohomology(simplicial_chain_complex(order_complex(z.faces)))
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
            boundaries[d] = submatrix(total.boundary(d), kept[d - 1], kept[d])
    return IntegerChainComplex(ranks, boundaries)


def _section_selector(z: SpongeComplex, s: str) -> dict[int, list[int]]:
    up = z.faces.upset(s)
    sel = {}
    for d in range(z.n - 1):
        sel[-d] = [i for i, f in enumerate(z.faces_of_dim(d)) if f in up]
    return sel


def section_complex_via_quotient(z: SpongeComplex, face: str) -> IntegerChainComplex:
    """The section complex at F as the cellular complex modulo the faces not above F."""
    up = z.faces.upset(face)
    outside = {d: [i for i, f in enumerate(z.faces_of_dim(d)) if f not in up]
               for d in range(z.n - 1)}
    return quotient_complex(cellular_complex(z), outside)


def cochain_complex(c: IntegerChainComplex) -> IntegerChainComplex:
    """The cochain complex, regraded so cohomological degree p sits at -p.

    The differential out of chain degree -p is the transpose of d_{p+1}, so
    H_{-p} of the result is H^p of the input.
    """
    ranks = {-d: c.rank(d) for d in c.degrees()}
    boundaries = {}
    for d in c.degrees():
        up = c.boundary(d + 1)
        if up.rows or up.cols:
            # chain degree -d -> -d-1 carries C^d -> C^{d+1}
            boundaries[-d] = up.transpose()
    return IntegerChainComplex(ranks, boundaries)


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
    total = simplicial_chain_complex(k)
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


def sign_solver_by_sorted_pivots(faces: GradedPoset) -> dict[tuple[str, str], int]:
    """`sponge.sign_solver` as Gaussian elimination over GF(2) that sweeps the
    pivots in sorted column order for every row and scans every column for a
    row's lead; the same equations, free variables set to zero."""
    covers = sorted(faces.covers(), key=lambda uv: (faces.sort_key(uv[0]), faces.sort_key(uv[1])))
    var = {cover: i for i, cover in enumerate(covers)}
    nvars = len(covers)
    bad = []
    equations: list[int] = []  # bitmask rows; bit nvars is the constant term
    for upper, low, middles in rank2_intervals(faces):
        if len(middles) != 2:
            bad.append((upper, low, tuple(middles)))
            continue
        g1, g2 = middles
        row = (
            (1 << var[(upper, g1)])
            | (1 << var[(g1, low)])
            | (1 << var[(upper, g2)])
            | (1 << var[(g2, low)])
            | (1 << nvars)
        )
        equations.append(row)
    if bad:
        raise NotDiamond(bad)
    for e in faces.elements():
        if faces.rank(e) == 1:
            below = faces.lower_covers(e)
            if len(below) == 2:
                v, w = below
                equations.append(
                    (1 << var[(e, v)]) | (1 << var[(e, w)]) | (1 << nvars)
                )
    pivots: dict[int, int] = {}
    for row in equations:
        for col in sorted(pivots):
            if row & (1 << col):
                row ^= pivots[col]
        lead = None
        for col in range(nvars):
            if row & (1 << col):
                lead = col
                break
        if lead is None:
            if row & (1 << nvars):
                raise SignUnsolvable(
                    "no +-1 incidence assignment satisfies the diamond relations"
                )
            continue
        for col, prow in pivots.items():
            if prow & (1 << lead):
                pivots[col] = prow ^ row
        pivots[lead] = row
    assignment = {}
    for cover, i in var.items():
        bit = (pivots[i] >> nvars) & 1 if i in pivots else 0
        assignment[cover] = -1 if bit else 1
    return assignment
