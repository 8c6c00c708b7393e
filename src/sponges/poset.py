"""Graded posets, order complexes, links, and the Cohen-Macaulay test.

A GradedPoset is a finite set of elements with nonnegative integer ranks and
a cover relation connecting consecutive ranks only.  Every selector used in
this package (down-sets, up-sets, open intervals, complements of up-sets)
produces an order-convex subset, so the induced cover relation is simply the
restriction of the original one.

The order complex realizes the poset as a simplicial complex whose simplices
are the chains, with a deterministic vertex order by (rank, identifier).  The
Cohen-Macaulay test walks every chain (including the empty one) and checks
that the link of the chain has vanishing reduced homology below the link's
own dimension.  Links are computed combinatorially from the facet list; the
join decomposition of links is used as a cross-check in the test suite, not
as the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterable, Sequence

from .complexes import HomologyProfile, IntegerChainComplex, homology, cohomology
from .exactalg import IntegerMatrix


class CyclicPoset(ValueError):
    """Cover data incompatible with a grading (would create a cycle)."""


class UnknownElement(KeyError):
    """An element identifier not present in the poset."""


class GradedPoset:
    """Finite ranked poset given by elements with ranks and cover pairs."""

    __slots__ = (
        "ranks", "_covers", "_upper", "_lower", "_downsets", "_upsets", "_order"
    )

    def __init__(
        self,
        elements: Iterable[tuple[Hashable, int]],
        covers: Iterable[tuple[Hashable, Hashable]],
    ):
        self.ranks: dict = {}
        for ident, rk in elements:
            if ident in self.ranks:
                raise ValueError(f"duplicate element {ident!r}")
            if rk < 0:
                raise ValueError(f"negative rank for {ident!r}")
            self.ranks[ident] = int(rk)
        self._covers = tuple(sorted(covers, key=self._cover_key))
        self._upper: dict = {e: [] for e in self.ranks}
        self._lower: dict = {e: [] for e in self.ranks}
        for upper, lower in self._covers:
            if upper not in self.ranks or lower not in self.ranks:
                missing = upper if upper not in self.ranks else lower
                raise UnknownElement(missing)
            if self.ranks[upper] != self.ranks[lower] + 1:
                raise CyclicPoset(
                    f"cover {upper!r} > {lower!r} does not connect consecutive "
                    f"ranks ({self.ranks[upper]} vs {self.ranks[lower]})"
                )
            self._lower[upper].append(lower)
            self._upper[lower].append(upper)
        for e in self.ranks:
            self._lower[e].sort(key=self.sort_key)
            self._upper[e].sort(key=self.sort_key)
        self._downsets: dict = {}
        self._upsets: dict = {}

    def _cover_key(self, pair):
        upper, lower = pair
        return (str(upper), str(lower))

    def sort_key(self, ident) -> tuple:
        return (self.ranks[ident], str(ident))

    # -- basic queries ------------------------------------------------------

    def elements(self) -> list:
        """Elements sorted canonically by (rank, identifier)."""
        return sorted(self.ranks, key=self.sort_key)

    def covers(self) -> tuple:
        return self._covers

    def rank(self, ident) -> int:
        self._require(ident)
        return self.ranks[ident]

    def lower_covers(self, ident) -> list:
        self._require(ident)
        return list(self._lower[ident])

    def upper_covers(self, ident) -> list:
        self._require(ident)
        return list(self._upper[ident])

    def elements_of_rank(self, rk: int) -> list:
        return [e for e in self.elements() if self.ranks[e] == rk]

    def max_rank(self) -> int:
        return max(self.ranks.values()) if self.ranks else -1

    def _require(self, ident) -> None:
        if ident not in self.ranks:
            raise UnknownElement(ident)

    def downset(self, ident) -> frozenset:
        """All t <= ident."""
        self._require(ident)
        if ident not in self._downsets:
            seen = {ident}
            stack = [ident]
            while stack:
                cur = stack.pop()
                for nxt in self._lower[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            self._downsets[ident] = frozenset(seen)
        return self._downsets[ident]

    def upset(self, ident) -> frozenset:
        """All t >= ident."""
        self._require(ident)
        if ident not in self._upsets:
            seen = {ident}
            stack = [ident]
            while stack:
                cur = stack.pop()
                for nxt in self._upper[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            self._upsets[ident] = frozenset(seen)
        return self._upsets[ident]

    def leq(self, a, b) -> bool:
        return a in self.downset(b)

    def restrict(self, keep: Iterable) -> "GradedPoset":
        """Induced poset on an order-convex subset; ranks are preserved."""
        keep = set(keep)
        for e in keep:
            self._require(e)
        elements = [(e, self.ranks[e]) for e in sorted(keep, key=self.sort_key)]
        covers = [(u, l) for (u, l) in self._covers if u in keep and l in keep]
        return GradedPoset(elements, covers)

    def __len__(self) -> int:
        return len(self.ranks)

    def __repr__(self) -> str:
        return f"GradedPoset({len(self.ranks)} elements, {len(self._covers)} covers)"


def subposet(p: GradedPoset, selector: str, s=None, t=None) -> GradedPoset:
    """Standard induced subposets.

    Selectors: below(s) [<= s], strictly_below(s) [< s], at_or_above(s) /
    above(s) [>= s], strictly_above(s) [> s], open_interval(s, t), and
    complement_of_up_set(s) [everything not >= s].  All of these are
    order-convex, so induced covers are original covers.
    """
    if selector == "below":
        keep = p.downset(s)
    elif selector == "strictly_below":
        keep = p.downset(s) - {s}
    elif selector in ("at_or_above", "above"):
        keep = p.upset(s)
    elif selector == "strictly_above":
        keep = p.upset(s) - {s}
    elif selector == "open_interval":
        p._require(t)
        keep = (p.upset(s) & p.downset(t)) - {s, t}
    elif selector == "complement_of_up_set":
        keep = set(p.ranks) - set(p.upset(s))
    else:
        raise ValueError(f"unknown selector {selector!r}")
    return p.restrict(keep)


def _maximal(faces: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The inclusion-maximal members of a set of distinct nonempty faces.

    Faces are walked by decreasing size.  A face is dropped when a kept face
    of larger size contains it, found by intersecting the kept faces through
    each of its vertices; faces of equal size are indexed only once their
    size is done, since distinct faces of one size never contain each other.
    """
    kept: list[tuple[int, ...]] = []
    through: dict[int, set[int]] = {}  # vertex -> positions in kept
    indexed, size = 0, None
    for f in sorted(faces, key=len, reverse=True):
        if len(f) != size:
            for k in range(indexed, len(kept)):
                for v in kept[k]:
                    through.setdefault(v, set()).add(k)
            indexed, size = len(kept), len(f)
        holders = sorted((through.get(v, set()) for v in f), key=len)
        if not holders[0].intersection(*holders[1:]):
            kept.append(f)
    return kept


class SimplicialComplex:
    """Finite abstract simplicial complex with an explicit vertex order.

    Vertices are given as an ordered sequence; faces are stored as sorted
    index tuples into that sequence, which fixes the orientation convention
    for the chain complex.  Facets are normalized to be inclusion-maximal.
    """

    __slots__ = ("vertices", "facets", "_faces")

    def __init__(self, vertices: Sequence, facets: Iterable[Iterable]):
        self.vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        raw = set()
        for f in facets:
            tup = tuple(sorted(index[v] for v in set(f)))
            if tup:  # the empty simplex is implicit, never stored
                raw.add(tup)
        self.facets = tuple(sorted(_maximal(raw), key=lambda f: (len(f), f)))
        self._faces: dict[int, list[tuple[int, ...]]] | None = None

    @property
    def dimension(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def is_empty(self) -> bool:
        return not self.facets

    def faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        """All faces (as index tuples), keyed by dimension, sorted."""
        if self._faces is None:
            found: dict[int, set] = {}
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    found.setdefault(k - 1, set()).update(combinations(f, k))
            self._faces = {d: sorted(fs) for d, fs in sorted(found.items())}
        return self._faces

    def all_faces(self, include_empty: bool = False) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = [()] if include_empty else []
        for d in sorted(self.faces_by_dim()):
            out.extend(self.faces_by_dim()[d])
        return out

    def face_vertices(self, face: tuple[int, ...]) -> tuple:
        return tuple(self.vertices[i] for i in face)

    def link(self, face: tuple[int, ...]) -> "SimplicialComplex":
        """Link of a face, from the facet list (deletion/star combinatorics).

        The facets containing the face, with the face removed, are already
        inclusion-maximal, since the facets are.
        """
        fset = set(face)
        rests = [set(f) - fset for f in self.facets if fset <= set(f)]
        used = sorted(set().union(*rests))
        return SimplicialComplex(
            [self.vertices[i] for i in used], [[self.vertices[i] for i in c] for c in rests]
        )

    def chain_complex(self, augmented: bool = False) -> IntegerChainComplex:
        """Oriented simplicial chain complex (lexicographic orientation).

        With ``augmented`` an extra rank-one group in degree -1 receives every
        vertex with coefficient 1, so homology is reduced homology.
        """
        faces = self.faces_by_dim()
        ranks = {d: len(fs) for d, fs in faces.items()}
        index = {
            d: {f: i for i, f in enumerate(fs)} for d, fs in faces.items()
        }
        boundaries: dict[int, IntegerMatrix] = {}
        for d in sorted(faces):
            if d == 0:
                continue
            ent = {}
            for j, f in enumerate(faces[d]):
                for k in range(len(f)):
                    ent[index[d - 1][f[:k] + f[k + 1:]], j] = (-1) ** k
            boundaries[d] = IntegerMatrix(ranks[d - 1], ranks[d], ent)
        if augmented:
            ranks[-1] = 1
            if 0 in faces:
                boundaries[0] = IntegerMatrix(1, ranks[0], {(0, j): 1 for j in range(ranks[0])})
        return IntegerChainComplex(ranks, boundaries)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(fs) for d, fs in self.faces_by_dim().items())

    def __repr__(self) -> str:
        counts = {d: len(fs) for d, fs in self.faces_by_dim().items()}
        return f"SimplicialComplex(vertices={len(self.vertices)}, faces={counts})"


def order_complex(p: GradedPoset) -> SimplicialComplex:
    """The simplicial complex of chains, vertices ordered by (rank, id).

    Facets are the maximal chains, i.e. saturated cover paths from minimal to
    maximal elements.
    """
    vertices = p.elements()
    facets: list[tuple] = []
    minimal = [e for e in vertices if not p.lower_covers(e)]

    def grow(chain: list) -> None:
        top = chain[-1]
        uppers = p.upper_covers(top)
        if not uppers:
            facets.append(tuple(chain))
            return
        for nxt in uppers:
            chain.append(nxt)
            grow(chain)
            chain.pop()

    for start in minimal:
        grow([start])
    return SimplicialComplex(vertices, facets)


def reduced_simplicial_homology(
    k: SimplicialComplex, coefficients: str = "integers"
) -> HomologyProfile:
    """Reduced homology via the augmented chain complex.

    The empty complex has reduced homology Z in degree -1 (its augmentation
    survives), matching the convention that it is a (-1)-sphere.
    """
    return homology(k.chain_complex(augmented=True), coefficients)


def reduced_simplicial_cohomology(
    k: SimplicialComplex, coefficients: str = "integers"
) -> HomologyProfile:
    return cohomology(k.chain_complex(augmented=True), coefficients)


@dataclass(frozen=True)
class CMWitness:
    """One failure of the Cohen-Macaulay condition."""

    chain: tuple
    degree: int
    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_only(self) -> bool:
        return self.free_rank == 0 and bool(self.torsion)


@dataclass(frozen=True)
class CMReport:
    is_cm: bool
    coefficients: str
    witnesses: tuple[CMWitness, ...] = field(default_factory=tuple)


def check_cohen_macaulay(p: GradedPoset, coefficients: str = "integers") -> CMReport:
    """Test whether the order complex of p is Cohen-Macaulay.

    For every chain sigma (the empty chain included), the link of sigma in
    the order complex must have vanishing reduced homology in all degrees
    below the dimension of that link.  The default coefficient ring is Z, so
    torsion alone also disqualifies; witnesses flag such torsion-only
    failures separately.  The empty poset is Cohen-Macaulay by convention.
    """
    complex_ = order_complex(p)
    witnesses: list[CMWitness] = []
    for face in complex_.all_faces(include_empty=True):
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
