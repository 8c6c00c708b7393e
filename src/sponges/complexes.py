"""Chain complexes of finitely generated free modules over Z, and their
homology, cohomology and induced maps.

A complex stores one boundary matrix per degree (from degree d down to d-1)
and validates d o d = 0 on construction.  `_coreduce` deletes pairs of cells
joined by a +-1 coefficient, with no elimination, and hands back the
residual's ranks and boundaries as plain data.  Each complex caches those
ranks and one Smith diagonal per nonzero residual boundary, and homology and
cohomology both read them: free ranks by rank-nullity, homology torsion from
the invariant factors of the incoming boundary, and cohomology torsion from
those of the outgoing one (the coboundary is the transposed boundary, which
has the same invariant factors).  That is the universal-coefficient theorem;
the test suite checks it against an oracle that runs Smith forms on the
transposed matrices, and every profile against the Smith diagonals of the
full boundaries.  Complexes are immutable after construction and all
operations are pure.  Every cellular, section and cellular-interval complex
is built, and checked, by `cell_complex` from cells and their signed faces.
A face that is not a cell counts as zero, so the complex on the cells outside
a subcomplex is the quotient by it.

The simplicial complexes the package enumerates itself, a document's faces
and an open interval's chains, build no complex: `simplicial_homology`
hands the simplices to the same `_coreduce`, which reads each simplex's
faces by dropping one vertex.  Their d o d = 0 is the simplicial identity,
so nothing is checked, and only the residual becomes matrices.

Induced maps on homology are supported over Q: bases of homology are chosen
deterministically (boundary columns first, then integer kernel vectors, with
leftmost-independent selection), so matrices of induced maps are reproducible.
One sparse column reduction per boundary gives both, with no Smith
transform: its surviving columns span the boundaries, its vanishing ones the
cycles above.  The coordinates of a cycle come from reducing it against the
kept columns, not from a fresh elimination.
"""

from __future__ import annotations

from collections import deque
from math import lcm
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence

from .errors import MalformedComplex, NotAChainMap
from .exactalg import IntegerMatrix, smith_diagonal

if TYPE_CHECKING:  # the rational-basis path imports it when it runs
    from fractions import Fraction

INTEGERS = "integers"
RATIONALS = "rationals"


class HomologyProfile:
    """Graded summary of a (co)homology computation.

    Per degree: a free rank and a list of torsion coefficients t_1 | t_2 | ...,
    each > 1, so equal profiles are isomorphic groups.  Degrees with trivial
    homology are not stored.  Degrees, free ranks and torsion must be `int`s,
    bools refused; torsion out of divisibility order is refused.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, tuple[int, Sequence[int]]]):
        cleaned = {}
        for d, (free, torsion) in data.items():
            torsion = tuple(torsion)
            _require_ints("degrees, free ranks and torsion", d, free, *torsion)
            if any(t <= 1 for t in torsion):
                raise ValueError("torsion coefficients must exceed 1")
            if any(b % a for a, b in zip(torsion, torsion[1:])):
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
            if free < 0:
                raise ValueError("free rank must be nonnegative")
            if free or torsion:
                cleaned[d] = (free, torsion)
        self._data = cleaned

    def free_rank(self, degree: int) -> int:
        return self._data.get(degree, (0, ()))[0]

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self._data.get(degree, (0, ()))[1]

    def degrees(self) -> list[int]:
        return sorted(self._data)

    def is_trivial(self) -> bool:
        return not self._data

    def total_torsion(self) -> list[tuple[int, int]]:
        """All (degree, coefficient) torsion pairs, sorted."""
        return [(d, t) for d in self.degrees() for t in self.torsion(d)]

    def to_entries(self) -> list[dict]:
        return [
            {"degree": d, "free_rank": f, "torsion": [str(t) for t in tor]}
            for d, (f, tor) in sorted(self._data.items())
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, HomologyProfile) and self._data == other._data

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._data.items())))

    def __repr__(self) -> str:
        if not self._data:
            return "HomologyProfile(0)"
        parts = []
        for d in self.degrees():
            f, tor = self._data[d]
            term = []
            if f:
                term.append("Z" if f == 1 else f"Z^{f}")
            term.extend(f"Z/{t}" for t in tor)
            parts.append(f"[{d}]=" + "+".join(term))
        return "HomologyProfile(" + ", ".join(parts) + ")"


def _require_ints(what: str, *values) -> None:
    if bad := [v for v in values if type(v) is not int]:
        raise TypeError(f"{what} must be integers, not {bad[0]!r}")


def profile(entries: Mapping[int, tuple[int, Sequence[int]]] | None = None) -> HomologyProfile:
    return HomologyProfile(entries or {})


class IntegerChainComplex:
    """A bounded complex of free Z-modules with explicit boundary matrices.

    ``ranks`` maps degree -> rank of the chain group; ``boundaries`` maps
    degree d -> the matrix of d_d : C_d -> C_{d-1}, of shape
    rank(d-1) x rank(d).  Degrees outside the stored range are zero.
    Degrees and ranks must be `int`s, bools refused; shapes and d o d = 0
    are checked.  The one cache is ``_residual``, filled by `_residual`.
    """

    __slots__ = ("_ranks", "_boundaries", "_residual")

    def __init__(self, ranks: Mapping[int, int], boundaries: Mapping[int, IntegerMatrix]):
        _require_ints("chain degrees and ranks", *ranks, *ranks.values(), *boundaries)
        self._ranks = dict(ranks)
        if any(r < 0 for r in self._ranks.values()):
            raise MalformedComplex("chain ranks must be nonnegative")
        self._boundaries = dict(boundaries)
        self._residual: tuple[dict[int, int], dict[int, tuple[int, ...]]] | None = None
        for d, m in self._boundaries.items():
            expected = (self.rank(d - 1), self.rank(d))
            if m.shape != expected:
                raise MalformedComplex(
                    f"boundary at degree {d} has shape {m.shape}, expected {expected}"
                )
        # d o d = 0 through the sparse product; name the first bad generator
        for d in sorted(self._boundaries.keys() & {e + 1 for e in self._boundaries}):
            composite = self._boundaries[d - 1].mul(self._boundaries[d])
            if not composite.is_zero():
                col = min(j for _, j, _ in composite.nonzero_items())
                raise MalformedComplex(
                    f"composite boundary nonzero at degree {d}, generator {col}"
                )

    # -- shape queries ----------------------------------------------------

    def rank(self, degree: int) -> int:
        return self._ranks.get(degree, 0)

    def degrees(self) -> list[int]:
        return sorted(d for d in self._ranks)

    def boundary(self, degree: int) -> IntegerMatrix:
        m = self._boundaries.get(degree)
        if m is None:
            m = IntegerMatrix.zeros(self.rank(degree - 1), self.rank(degree))
        return m

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * r for d, r in self._ranks.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerChainComplex)
            and self._ranks == other._ranks
            and all(self.boundary(d) == other.boundary(d)
                    for d in set(self._boundaries) | set(other._boundaries))
        )

    def __repr__(self) -> str:
        ranks = ", ".join(f"{d}:{self.rank(d)}" for d in self.degrees())
        return f"IntegerChainComplex({{{ranks}}})"


def homology(c: IntegerChainComplex, coefficients: str = INTEGERS) -> HomologyProfile:
    """Homology of the complex, degree by degree.

    free_rank(d) = rank(d) - rank(d_d) - rank(d_{d+1}); over Z the torsion in
    degree d is read off the Smith diagonal of d_{d+1}.  Ranks and diagonals
    are those of the residual that coreduction leaves, cached (`_residual`).
    """
    _check_coefficients(coefficients)
    return _profile(_residual(c), coefficients, torsion_from=1)


def cohomology(c: IntegerChainComplex, coefficients: str = INTEGERS) -> HomologyProfile:
    """Cohomology, degree by degree, from the Smith diagonals of homology.

    The coboundary out of degree d is the transpose of d_{d+1}, with the
    same invariant factors.  So free H^d = rank(d) - rank(d_{d+1}) -
    rank(d_d) = free H_d, and over Z the torsion in degree d is read off the
    Smith diagonal of d_d, i.e. torsion H^d = torsion H_{d-1}.
    """
    _check_coefficients(coefficients)
    return _profile(_residual(c), coefficients, torsion_from=0)


def simplicial_homology(
    simplices: Mapping[int, Sequence[tuple]], coefficients: str = INTEGERS
) -> tuple[HomologyProfile, HomologyProfile]:
    """Homology and cohomology of the simplicial chain complex on ``simplices``.

    ``simplices`` maps each dimension d to its simplices, each a tuple of
    d + 1 vertices in increasing order, closed under taking faces; the empty
    simplex in degree -1 is optional and makes the homology reduced.  The
    result is that of `homology` and `cohomology` on
    `cell_complex(simplices, poset._drop_one)`, but no matrix of the whole
    complex is built and d o d = 0 is not checked: it is the simplicial
    identity.  Coreduction reads each simplex's faces from the simplex
    itself, and only its residual becomes matrices and Smith diagonals.
    """
    _check_coefficients(coefficients)
    residual = _smith_residual(simplices)
    return (_profile(residual, coefficients, torsion_from=1),
            _profile(residual, coefficients, torsion_from=0))


def _residual(c: IntegerChainComplex) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """The ranks and Smith diagonals of `_coreduce(c)`, cached as ``c._residual``."""
    if c._residual is None:
        c._residual = _smith_residual(c)
    return c._residual


def _smith_residual(source: IntegerChainComplex | Mapping[int, Sequence[tuple]]
                    ) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """The ranks of `_coreduce(source)` and the Smith diagonal of each nonzero boundary."""
    ranks, boundaries = _coreduce(source)
    return ranks, {d: smith_diagonal(m) for d, m in boundaries.items() if not m.is_zero()}


def _profile(residual: tuple[dict[int, int], dict[int, tuple[int, ...]]], coefficients: str,
             torsion_from: int) -> HomologyProfile:
    """Rank-nullity per degree d, with torsion from the diagonal of d_{d+torsion_from}.

    ``residual`` is the ranks and Smith diagonals of a residual of
    `_coreduce`, which is chain-equivalent to its source over Z.
    """
    ranks, diagonals = residual
    data = {}
    for d, rank in ranks.items():
        free = rank - len(diagonals.get(d + 1, ())) - len(diagonals.get(d, ()))
        torsion = diagonals.get(d + torsion_from, ()) if coefficients == INTEGERS else ()
        data[d] = (free, tuple(t for t in torsion if t > 1))
    return HomologyProfile(data)


def _coreduce(
    source: IntegerChainComplex | Mapping[int, Sequence[tuple]],
) -> tuple[dict[int, int], dict[int, IntegerMatrix]]:
    """The ranks and boundaries of a complex on the cells left after deleting reduction pairs.

    ``source`` is a complex, whose cells' faces are read from its boundary
    matrices, or simplices as `simplicial_homology` takes them, whose faces
    are the simplex with one vertex dropped.  Either way the cells are
    numbered degree by degree and each cell lists its faces in ascending
    order, as the boundary matrices of `cell_complex(simplices,
    poset._drop_one)` would, so both sources give the same pairs and the same
    residual.

    A pair is a cell a and a face b of it with coefficient +-1 such that
    either the live boundary of a is exactly +-b (a coreduction) or the only
    live coboundary entry of b is +-a (a free face).  Deleting such a pair
    needs no update of any other boundary beyond dropping the two cells, so
    the residual is chain-equivalent to the source over Z (Mrozek and Batko,
    "Coreduction homology algorithm", Discrete Comput. Geom. 41, 2009).  In
    an augmented complex a vertex and the empty cell are the first pair.
    The queue is first in, first out: every cell in (degree, index) order,
    then the live neighbours of each deleted cell.  That order decides which
    pairs are found, and so how many cells are left.  The residual's
    boundaries are the live faces of the cells left, i.e. the source's
    boundaries restricted to those cells.  They are not re-checked: deleting
    a pair touches no other boundary, so d o d = 0 still holds.
    """
    if isinstance(source, IntegerChainComplex):
        ranks, bounded, faces = _matrix_faces(source)
    else:
        ranks, bounded, faces = _simplex_faces(source)
    n = len(faces)
    cofaces: list[dict[int, int]] = [{} for _ in range(n)]
    for a, boundary in enumerate(faces):
        for b, v in boundary.items():
            cofaces[b][a] = v
    alive = [True] * n
    queue = deque(range(n))
    while queue:
        x = queue.popleft()
        if not alive[x]:
            continue
        if len(faces[x]) == 1 and abs(next(iter(faces[x].values()))) == 1:
            pair = (x, *faces[x])
        elif len(cofaces[x]) == 1 and abs(next(iter(cofaces[x].values()))) == 1:
            pair = (*cofaces[x], x)
        else:
            continue
        for y in pair:
            alive[y] = False
            for f in faces[y]:
                del cofaces[f][y]
            for g in cofaces[y]:
                del faces[g][y]
            queue.extend(faces[y])
            queue.extend(cofaces[y])
    keep, first = {}, 0  # degree -> the ids of its cells left
    for d in sorted(ranks):
        keep[d] = [x for x in range(first, first + ranks[d]) if alive[x]]
        first += ranks[d]
    position = {x: i for cells in keep.values() for i, x in enumerate(cells)}
    boundaries = {}
    for d in bounded:
        below, here = keep.get(d - 1, ()), keep.get(d, ())
        boundaries[d] = IntegerMatrix(len(below), len(here), {
            (position[b], j): v for j, a in enumerate(here) for b, v in faces[a].items()})
    return {d: len(cells) for d, cells in keep.items()}, boundaries


def _matrix_faces(c: IntegerChainComplex) -> tuple[dict[int, int], Iterable[int], list[dict]]:
    """Ranks, degrees with a boundary, and each cell's faces read from c's boundary matrices."""
    start, n = {}, 0  # degree -> id of its first cell
    for d in c.degrees():
        start[d], n = n, n + c.rank(d)
    faces: list[dict[int, int]] = [{} for _ in range(n)]  # cell -> face -> coefficient
    for d, m in c._boundaries.items():
        for i, j, v in m.nonzero_items():  # row-major, so each cell's faces ascend
            faces[start[d] + j][start[d - 1] + i] = v
    return c._ranks, c._boundaries, faces


def _simplex_faces(simplices: Mapping[int, Sequence[tuple]]
                   ) -> tuple[dict[int, int], Iterable[int], list[dict]]:
    """Ranks, degrees with a boundary, and each simplex's faces.

    A d-simplex's faces are its d + 1 vertices dropped one at a time, vertex
    k with sign (-1)^k, as `poset._drop_one` gives them.  A face that is not
    among the simplices, such as the empty one of an unaugmented complex,
    counts as zero, as in `cell_complex`.
    """
    ranks = {d: len(simplices[d]) for d in sorted(simplices)}
    faces: list[dict[int, int]] = []  # cell -> face -> coefficient
    ids: dict[int, dict[tuple, int]] = {}  # degree -> simplex -> id
    for d in ranks:
        below, here = ids.get(d - 1, {}), ids.setdefault(d, {})
        drops = [(k, -1 if k & 1 else 1) for k in range(d + 1)]
        for s in simplices[d]:
            here[s] = len(faces)
            faces.append(dict(sorted([(x, sign) for k, sign in drops
                                      if (x := below.get(s[:k] + s[k + 1:])) is not None])))
    return ranks, [d for d in ranks if d - 1 in ranks], faces


def _check_coefficients(coefficients: str) -> None:
    if coefficients not in (INTEGERS, RATIONALS):
        raise ValueError(f"unknown coefficients {coefficients!r}")


def cell_complex(
    cells: Mapping[int, Sequence[Hashable]],
    faces: Callable[[Hashable], Iterable[tuple[Hashable, int]]],
) -> IntegerChainComplex:
    """The chain complex on ``cells`` whose boundaries are read from signed faces.

    ``cells`` maps each degree to its generators in order, and ``faces(cell)``
    yields (face, sign) pairs, each face at most once.  The boundary of a cell
    is the signed sum of those faces that are cells one degree down; every
    other face is zero, so when the missing faces span a subcomplex the
    result is the quotient by it.
    """
    index = {d: {c: i for i, c in enumerate(cs)} for d, cs in cells.items()}
    boundaries = {}
    for d, cs in cells.items():
        if d - 1 in index:
            below = index[d - 1]
            ent = {(below[f], j): sign for j, c in enumerate(cs) for f, sign in faces(c)
                   if f in below}
            boundaries[d] = IntegerMatrix(len(below), len(cs), ent)
    return IntegerChainComplex({d: len(cs) for d, cs in cells.items()}, boundaries)


# ---------------------------------------------------------------------------
# rational homology bases and induced maps


class RationalHomologyBasis:
    """Deterministic homology bases over Q for one complex.

    At and below each degree d, the columns of d_{d+1} are reduced in order
    against the columns kept so far (`_reduce`), each with the combination of
    columns it has become.  A survivor is a boundary, kept; one that vanishes
    gives the kernel vector e_j - sum c_k e_k times the lcm of its denominators,
    a cycle of degree d+1 (Edelsbrunner, Letscher and Zomorodian, DCG 28, 2002).
    Then each cycle of degree d that does not vanish when reduced is the next
    representative, kept with its coordinates modulo boundaries.
    """

    def __init__(self, c: IntegerChainComplex):
        from fractions import Fraction

        self.complex = c
        self._reps: dict[int, list[tuple[int, ...]]] = {}
        # degree -> pivot row -> (column, coordinates), scaled to pivot entry 1
        self._kept: dict[int, dict[int, tuple[dict, dict]]] = {}
        cycles: dict[int, list[tuple[int, ...]]] = {}  # degree -> candidates
        for d in sorted({*c.degrees(), *(d - 1 for d in c.degrees())}):
            reps, kept, n = self._reps.setdefault(d, []), {}, c.rank(d + 1)
            columns: list[dict] = [{} for _ in range(n)]
            for i, j, v in c.boundary(d + 1).nonzero_items():
                columns[j][i] = v
            cycles[d + 1] = []
            for j, column in enumerate(columns):
                combination = {j: 1}  # column == sum of combination[k] * column k of d_{d+1}
                _reduce(kept, column, combination)
                if column:
                    _keep(kept, column, combination, Fraction)
                else:
                    scale = lcm(*(x.denominator for x in combination.values()))
                    cycles[d + 1].append(
                        tuple(int(combination.get(k, 0) * scale) for k in range(n)))
            # a boundary has no coordinates modulo boundaries
            kept = self._kept[d] = {p: (column, {}) for p, (column, _) in kept.items()}
            for z in cycles.pop(d, []):
                column, coords = {i: x for i, x in enumerate(z) if x}, {len(reps): 1}
                _reduce(kept, column, coords)
                if column:
                    reps.append(z)
                    _keep(kept, column, coords, Fraction)

    def betti(self, degree: int) -> int:
        return len(self._reps.get(degree, []))

    def representatives(self, degree: int) -> list[tuple[int, ...]]:
        return list(self._reps.get(degree, []))

    def coordinates(
        self, degree: int, vectors: Sequence[Sequence[int | Fraction]]
    ) -> list[list[Fraction]]:
        """Coordinates of each cycle in the homology basis (mod boundaries).

        A cycle reduces to zero against the kept columns, and the coordinates
        subtracted alongside are minus its own, unique since the basis is
        independent.  A vector that leaves a remainder is no cycle.
        """
        from fractions import Fraction

        n = self.complex.rank(degree)
        if any(len(v) != n for v in vectors):
            raise ValueError(f"vectors in degree {degree} must have length {n}")
        kept, betti, out = self._kept.get(degree, {}), self.betti(degree), []
        for v in vectors:
            column, coords = {i: x for i, x in enumerate(v) if x}, {}
            _reduce(kept, column, coords)
            if column:
                raise ValueError("vector is not a cycle modulo boundaries")
            out.append([-coords.get(k, Fraction(0)) for k in range(betti)])
        return out


def _keep(kept: dict[int, tuple[dict, dict]], column: dict, coords: dict,
          fraction: type[Fraction]) -> None:
    """Keep a reduced column and its coordinates under its last row, scaled to 1 there;
    ``fraction`` is `Fraction`, which the caller imports once."""
    pivot = max(column)
    scale = fraction(column[pivot])
    kept[pivot] = ({i: x / scale for i, x in column.items()},
                   {k: x / scale for k, x in coords.items()})


def _reduce(kept: Mapping[int, tuple[dict, dict]], column: dict, coords: dict) -> None:
    """Subtract kept columns from ``column`` ({row: nonzero value}), and their
    coordinates from ``coords``, in place until its last row is no pivot."""
    while column and (pivot := max(column)) in kept:
        f = column[pivot]
        kept_column, kept_coords = kept[pivot]
        for i, x in kept_column.items():
            column[i] = column.get(i, 0) - f * x
            if not column[i]:
                del column[i]
        for k, x in kept_coords.items():
            coords[k] = coords.get(k, 0) - f * x


def _is_chain_map(
    f: Mapping[int, IntegerMatrix],
    source: IntegerChainComplex,
    target: IntegerChainComplex,
) -> int | None:
    """First degree where f fails to commute with the boundaries, or None."""
    degrees = sorted(set(source.degrees()) | set(target.degrees()))
    maps = {}
    for d in degrees:
        m = f.get(d)
        if m is None:
            m = IntegerMatrix.zeros(target.rank(d), source.rank(d))
        if m.shape != (target.rank(d), source.rank(d)):
            raise ValueError(
                f"map at degree {d} has shape {m.shape}, expected "
                f"{(target.rank(d), source.rank(d))}"
            )
        maps[d] = m
    for d in degrees:
        lower = maps.get(d - 1, IntegerMatrix.zeros(target.rank(d - 1), source.rank(d - 1)))
        lhs = lower.mul(source.boundary(d))
        rhs = target.boundary(d).mul(maps[d])
        if lhs != rhs:
            return d
    return None


def induced_map_on_homology(
    f: Mapping[int, IntegerMatrix],
    source: IntegerChainComplex,
    target: IntegerChainComplex,
    source_basis: RationalHomologyBasis | None = None,
    target_basis: RationalHomologyBasis | None = None,
) -> dict[int, list[list[Fraction]]]:
    """Matrices of the induced map on rational homology.

    Expressed in the deterministic bases of RationalHomologyBasis; entry
    [d][i][j] is the i-th coordinate of the image of the j-th source
    representative in degree d.  Raises NotAChainMap if f does not commute
    with the boundaries.  Only rational coefficients are supported: integral
    induced maps would need presentation lifting, and every consumer here is
    a rank comparison.
    """
    bad = _is_chain_map(f, source, target)
    if bad is not None:
        raise NotAChainMap(bad)
    sb = source_basis or RationalHomologyBasis(source)
    tb = target_basis or RationalHomologyBasis(target)
    out: dict[int, list[list[Fraction]]] = {}
    for d in sorted(set(source.degrees()) | set(target.degrees())):
        images = []
        for rep in sb.representatives(d):
            image = [0] * target.rank(d)
            if d in f:
                for i, k, v in f[d].nonzero_items():
                    image[i] += v * rep[k]
            images.append(image)
        coords = tb.coordinates(d, images)
        out[d] = [[col[i] for col in coords] for i in range(tb.betti(d))]
    return out
