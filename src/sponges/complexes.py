"""Chain complexes of finitely generated free modules over Z, and their
homology, cohomology, relative quotients, and induced maps.

A complex stores one boundary matrix per degree (from degree d down to d-1)
and validates d o d = 0 on construction.  Homology and cohomology are both
read off one cached Smith diagonal per boundary: free ranks by rank-nullity,
homology torsion from the invariant factors of the incoming boundary, and
cohomology torsion from those of the outgoing one (the coboundary is the
transposed boundary, which has the same invariant factors).  That is the
universal-coefficient theorem; the test suite checks it against an oracle
that runs Smith forms on the transposed matrices.  Complexes are immutable
after construction and all operations are pure.  A pair is cut down only by
`quotient_complex`: relative (co)homology, and with it the local cohomology
of a sponge, is the (co)homology of the quotient by a boundary-closed
selection of generators.

Induced maps on homology are supported over Q: bases of homology are chosen
deterministically (boundary columns first, then integer kernel vectors, with
leftmost-independent selection), so matrices of induced maps are reproducible.
Each basis keeps the solve operator of that one elimination per degree, so
coordinates of cycles are matrix products, not fresh eliminations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactalg import IntegerMatrix, integer_kernel_basis, rational_rref, smith_diagonal

INTEGERS = "integers"
RATIONALS = "rationals"


class MalformedComplex(ValueError):
    """The boundary data does not define a chain complex."""


class NotASubcomplex(ValueError):
    """A selected generator has boundary outside the selection."""

    def __init__(self, degree: int, generator: int):
        self.degree = degree
        self.generator = generator
        super().__init__(
            f"generator {generator} in degree {degree} has boundary support "
            "outside the selected generators"
        )


class NotAChainMap(ValueError):
    """The given per-degree matrices do not commute with the boundaries."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"map fails to commute with boundaries at degree {degree}")


class HomologyProfile:
    """Graded summary of a (co)homology computation.

    Per degree: a free rank and a list of torsion coefficients (> 1, in
    divisibility order).  Degrees with trivial homology are not stored.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, tuple[int, Sequence[int]]]):
        cleaned = {}
        for d, (free, torsion) in data.items():
            torsion = tuple(int(t) for t in torsion)
            if any(t <= 1 for t in torsion):
                raise ValueError("torsion coefficients must exceed 1")
            if free < 0:
                raise ValueError("free rank must be nonnegative")
            if free or torsion:
                cleaned[int(d)] = (int(free), torsion)
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


def profile(entries: Mapping[int, tuple[int, Sequence[int]]] | None = None) -> HomologyProfile:
    return HomologyProfile(entries or {})


class IntegerChainComplex:
    """A bounded complex of free Z-modules with explicit boundary matrices.

    ``ranks`` maps degree -> rank of the chain group; ``boundaries`` maps
    degree d -> the matrix of d_d : C_d -> C_{d-1}, of shape
    rank(d-1) x rank(d).  Degrees outside the stored range are zero.
    """

    __slots__ = ("_ranks", "_boundaries", "_diagonals")

    def __init__(self, ranks: Mapping[int, int], boundaries: Mapping[int, IntegerMatrix]):
        self._ranks = {int(d): int(r) for d, r in ranks.items()}
        if any(r < 0 for r in self._ranks.values()):
            raise MalformedComplex("chain ranks must be nonnegative")
        self._boundaries = dict(boundaries)
        self._diagonals: dict[int, tuple[int, ...]] = {}
        self._validate()

    def _validate(self) -> None:
        for d, m in self._boundaries.items():
            expected = (self.rank(d - 1), self.rank(d))
            if m.shape != expected:
                raise MalformedComplex(
                    f"boundary at degree {d} has shape {m.shape}, expected {expected}"
                )
        # d o d = 0 through the sparse product; name the first bad generator
        for d, m in sorted(self._boundaries.items()):
            lower = self._boundaries.get(d - 1)
            if lower is None:
                continue
            composite = lower.mul(m)
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

    def _diagonal(self, degree: int) -> tuple[int, ...]:
        if degree not in self._diagonals:
            m = self.boundary(degree)
            self._diagonals[degree] = smith_diagonal(m) if not m.is_zero() else ()
        return self._diagonals[degree]

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
    degree d is read off the Smith diagonal of d_{d+1}.
    """
    return _profile(c, coefficients, torsion_from=1)


def cohomology(c: IntegerChainComplex, coefficients: str = INTEGERS) -> HomologyProfile:
    """Cohomology, degree by degree, from the Smith diagonals of homology.

    The coboundary out of degree d is the transpose of d_{d+1}, with the
    same invariant factors.  So free H^d = rank(d) - rank(d_{d+1}) -
    rank(d_d) = free H_d, and over Z the torsion in degree d is read off the
    Smith diagonal of d_d, i.e. torsion H^d = torsion H_{d-1}.
    """
    return _profile(c, coefficients, torsion_from=0)


def _profile(c: IntegerChainComplex, coefficients: str, torsion_from: int) -> HomologyProfile:
    """Rank-nullity per degree d, with torsion from the diagonal of d_{d+torsion_from}."""
    _check_coefficients(coefficients)
    data = {}
    for d in c.degrees():
        free = c.rank(d) - len(c._diagonal(d + 1)) - len(c._diagonal(d))
        torsion: tuple[int, ...] = ()
        if coefficients == INTEGERS:
            torsion = tuple(t for t in c._diagonal(d + torsion_from) if t > 1)
        data[d] = (free, torsion)
    return HomologyProfile(data)


def _check_coefficients(coefficients: str) -> None:
    if coefficients not in (INTEGERS, RATIONALS):
        raise ValueError(f"unknown coefficients {coefficients!r}")


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
            boundaries[d] = m.submatrix(kept[d - 1], kept[d])
    return IntegerChainComplex(ranks, boundaries)


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


# ---------------------------------------------------------------------------
# rational homology bases and induced maps


class RationalHomologyBasis:
    """Deterministic homology bases over Q for one complex.

    Per degree: representatives are integer cycle vectors (from the kernel
    lattice of the boundary) extending a column basis of the boundaries from
    above.  One Gauss-Jordan elimination of [boundary and kernel columns |
    identity] picks them and yields E with E * columns reduced.  The rows of
    E at the representatives' pivots give coordinates in the homology basis
    modulo boundaries; the rows past the rank vanish exactly on the cycles.
    """

    def __init__(self, c: IntegerChainComplex):
        self.complex = c
        self._reps: dict[int, list[tuple[int, ...]]] = {}
        self._solve: dict[int, list[list[Fraction]]] = {}  # E's coordinate rows, then test rows
        for d in c.degrees():
            n = c.rank(d)
            kernel = integer_kernel_basis(c.boundary(d))
            boundary_cols = [tuple(col) for col in c.boundary(d + 1).transpose().to_rows()]
            all_cols = boundary_cols + kernel
            rows = [[col[i] for col in all_cols] + [int(i == j) for j in range(n)]
                    for i in range(n)]
            reduced, pivots = rational_rref(rows)
            chosen = [k for k in pivots if k < len(all_cols)]
            first_rep = sum(1 for k in chosen if k < len(boundary_cols))
            self._reps[d] = [all_cols[k] for k in chosen[first_rep:]]
            self._solve[d] = [row[len(all_cols):] for row in reduced[first_rep:]]

    def betti(self, degree: int) -> int:
        return len(self._reps.get(degree, []))

    def representatives(self, degree: int) -> list[tuple[int, ...]]:
        return list(self._reps.get(degree, []))

    def coordinates(
        self, degree: int, vectors: Sequence[Sequence[int | Fraction]]
    ) -> list[list[Fraction]]:
        """Coordinates of each cycle in the homology basis (mod boundaries).

        Each vector is multiplied by the kept rows of E: the first betti
        products are its coordinates, unique since the basis columns are
        independent, and the rest must vanish for it to be a cycle.
        """
        n = self.complex.rank(degree)
        if any(len(v) != n for v in vectors):
            raise ValueError(f"vectors in degree {degree} must have length {n}")
        rows, betti = self._solve.get(degree, []), self.betti(degree)
        out = []
        for v in vectors:
            support = [(i, x) for i, x in enumerate(v) if x]
            image = [sum((row[i] * x for i, x in support), Fraction(0)) for row in rows]
            if any(image[betti:]):
                raise ValueError("vector is not a cycle modulo boundaries")
            out.append(image[:betti])
        return out


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
