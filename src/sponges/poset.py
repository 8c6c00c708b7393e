"""Graded posets, order complexes, links, and the Cohen-Macaulay test.

A GradedPoset is a finite set of elements with nonnegative integer ranks and
a cover relation connecting consecutive ranks only.  Every selector used in
this package (down-sets, up-sets, open intervals, complements of up-sets)
produces an order-convex subset, so the induced cover relation is simply the
restriction of the original one.

The order complex realizes the poset as a simplicial complex whose simplices
are the chains, with a deterministic vertex order by (rank, identifier).  A
simplicial chain complex is `complexes.cell_complex` on the faces, each
face's faces being its vertices dropped one at a time, and
`complexes.simplicial_homology` reads its homology off the faces alone, with
no complex built.  Order-complex homology is asked of open intervals (x, y)
of P^, P with a bottom 0^ and a top 1^ added; `interval_homology` answers
over Z, in closed form for cones and for intervals of dimension at most 1,
and caches the answer on the poset.  Given a signing of the covers (+-1 on
every cover and satisfying every diamond relation, on a poset whose rank-2
intervals are all diamonds: a validated sponge's +-1 incidences or
`sponge.sign_solver`'s solution), an interval (x, y) whose lower intervals
(x, z) are all homology spheres of dimension rank z - rank x - 2, with
rank 0^ = -1, is read from one cell per element, with the boundary rule
`cellular_faces`: lower covers signed by the signing, and 0^ below every
element with no lower covers; the proof is in `_cell_homology`.  Only
(0^, 1^) never takes that route: it carries the order-complex side of the
sponge cross-checks, which must not depend on the incidences.  Every other
interval is read from its chains, enumerated once on P with no order complex
built.  P is Cohen-Macaulay exactly when every such interval has homology
only in its own dimension, which the Cohen-Macaulay test reads off the
intervals first.  Only when that fails does it walk every chain of P
depth-first (the empty one included) for the witnesses: the chains whose
link has reduced homology below the link's own dimension.  The link of
x_1 < ... < x_k is the join of (0^, x_1), ..., (x_k, 1^), so its homology
follows from the cached intervals by the Kunneth formula for joins, one join
per link and per extension; no order complex of P is built.  Building and
eliminating each link instead is the test suite's oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .complexes import (
    HomologyProfile,
    IntegerChainComplex,
    RATIONALS,
    _check_coefficients,
    cell_complex,
    homology,
    simplicial_homology,
)
from .errors import CyclicPoset, MalformedComplex, UnknownElement
from .exactalg import IntegerMatrix, smith_diagonal


class GradedPoset:
    """Finite ranked poset given by elements with ranks and cover pairs."""

    __slots__ = (
        "ranks", "_covers", "_upper", "_lower", "_downsets", "_upsets", "_order",
        "_by_rank", "_intervals",
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
            if type(rk) is not int:
                raise TypeError(f"rank of {ident!r} must be an integer, not {rk!r}")
            if rk < 0:
                raise ValueError(f"negative rank for {ident!r}")
            self.ranks[ident] = rk
        self._covers = tuple(sorted(covers, key=self._cover_key))
        self._upper: dict = {e: [] for e in self.ranks}
        self._lower: dict = {e: [] for e in self.ranks}
        seen = set()
        for upper, lower in self._covers:
            if upper not in self.ranks or lower not in self.ranks:
                missing = upper if upper not in self.ranks else lower
                raise UnknownElement(missing)
            if self.ranks[upper] != self.ranks[lower] + 1:
                raise CyclicPoset(
                    f"cover {upper!r} > {lower!r} does not connect consecutive "
                    f"ranks ({self.ranks[upper]} vs {self.ranks[lower]})"
                )
            if (upper, lower) in seen:
                raise ValueError(f"duplicate cover {upper!r} > {lower!r}")
            seen.add((upper, lower))
            self._lower[upper].append(lower)
            self._upper[lower].append(upper)
        for e in self.ranks:
            self._lower[e].sort(key=self.sort_key)
            self._upper[e].sort(key=self.sort_key)
        self._order = tuple(sorted(self.ranks, key=self.sort_key))
        self._by_rank: dict[int, list] = {}
        for e in self._order:
            self._by_rank.setdefault(self.ranks[e], []).append(e)
        self._downsets: dict = {}
        self._upsets: dict = {}
        self._intervals: dict = {}  # (x, y) -> interval_homology(self, x, y)

    def _cover_key(self, pair):
        upper, lower = pair
        return (str(upper), str(lower))

    def sort_key(self, ident) -> tuple:
        return (self.ranks[ident], str(ident))

    # -- basic queries ------------------------------------------------------

    def elements(self) -> list:
        """Elements sorted canonically by (rank, identifier)."""
        return list(self._order)

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
        return list(self._by_rank.get(rk, ()))

    def max_rank(self) -> int:
        return max(self.ranks.values()) if self.ranks else -1

    def _require(self, ident) -> None:
        if ident not in self.ranks:
            raise UnknownElement(ident)

    def _closure(self, ident, covers: dict, cache: dict) -> frozenset:
        """Everything reached from ident through ``covers``, cached in ``cache``."""
        self._require(ident)
        if ident not in cache:
            seen, stack = {ident}, [ident]
            while stack:
                for nxt in covers[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            cache[ident] = frozenset(seen)
        return cache[ident]

    def downset(self, ident) -> frozenset:
        """All t <= ident."""
        return self._closure(ident, self._lower, self._downsets)

    def upset(self, ident) -> frozenset:
        """All t >= ident."""
        return self._closure(ident, self._upper, self._upsets)

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


def _drop_one(cell: tuple) -> Iterator[tuple[tuple, int]]:
    """The faces of a simplex or chain: vertex k dropped, with sign (-1)^k."""
    return ((cell[:k] + cell[k + 1:], -1 if k & 1 else 1) for k in range(len(cell)))


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
        for k, f in enumerate(facets):
            f = tuple(f)
            try:
                tup = tuple(sorted({index[v] for v in f}))
            except KeyError:
                v = next(v for v in f if v not in index)
                raise ValueError(
                    f"facet {k} names vertex {v!r}, which is not among the vertices") from None
            if tup:  # the empty simplex is implicit, never stored
                raw.add(tup)
        self.facets = tuple(sorted(_maximal(raw), key=lambda f: (len(f), f)))
        self._faces: dict[int, list[tuple[int, ...]]] | None = None

    @property
    def dimension(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        """All faces (as index tuples), keyed by dimension, sorted."""
        if self._faces is None:
            found: dict[int, set] = {}
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    found.setdefault(k - 1, set()).update(combinations(f, k))
            self._faces = {d: sorted(fs) for d, fs in sorted(found.items())}
        return self._faces

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

    def simplices(self, augmented: bool = False) -> dict[int, list[tuple[int, ...]]]:
        """The faces by dimension, with the empty simplex in degree -1 if ``augmented``."""
        cells = dict(self.faces_by_dim())
        if augmented:
            cells[-1] = [()]
        return cells

    def chain_complex(self, augmented: bool = False) -> IntegerChainComplex:
        """Oriented simplicial chain complex (lexicographic orientation).

        With ``augmented`` the empty simplex is a generator in degree -1, so
        homology is reduced homology.  `complexes.simplicial_homology` on
        `simplices` gives its homology without building it.
        """
        return cell_complex(self.simplices(augmented), _drop_one)

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


_ACYCLIC = HomologyProfile({})  # every cone's profile, shared: profiles are never changed


class CMWitness(NamedTuple):
    """One failure of the Cohen-Macaulay condition."""

    chain: tuple
    degree: int
    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_only(self) -> bool:
        return self.free_rank == 0 and bool(self.torsion)


class CMReport(NamedTuple):
    is_cm: bool
    coefficients: str
    witnesses: tuple[CMWitness, ...] = ()


def interval_homology(p: GradedPoset, x, y, signs=None) -> tuple[HomologyProfile, int]:
    """Reduced integral homology and dimension of the order complex of (x, y) in P^.

    ``None`` stands for 0^ as ``x`` and for 1^ as ``y``.  The empty interval
    is the (-1)-sphere.  Three kinds of interval are answered without their
    chains being enumerated (coreduction would settle them, but only after
    enumerating every chain):

    * one with a unique minimal or a unique maximal element is a cone, so its
      reduced homology vanishes; with x and y in P, covers and ranks tell it;
    * one of dimension 0 or 1 is a graph, see `_graph_homology`;
    * given ``signs``, one but (0^, 1^) whose lower intervals (x, z) are all
      spheres is the homology of one cell per element, see `_cell_homology`.

    ``signs`` maps each cover (upper, lower) to +-1 and satisfies every
    diamond relation, on a poset whose rank-2 intervals are all diamonds: a
    validated sponge's +-1 incidences (`sponge.incidence_signs`) or
    `sponge.sign_solver`'s solution.  (0^, 1^) keeps its chains: it is the
    order-complex side of the sponge cross-checks, which must not read the
    incidences.  Every other interval's chains are enumerated once, the
    empty one included, and `complexes.simplicial_homology`
    coreduces them straight from their faces: no boundary matrix of the
    interval is built and no d o d product runs, since the chains are closed
    under dropping an element.  The result does not depend on the route, so
    it is cached on ``p`` by (x, y) alone.
    """
    if (x, y) in p._intervals:
        return p._intervals[x, y]
    if x is None or y is None:
        inside = set(p.ranks) if x is None else set(p.upset(x))
        if y is not None:
            inside &= p.downset(y)
        inside -= {x, y}
        order = sorted(inside, key=p.sort_key)
        longest: dict = {}  # element -> most elements on a chain of inside ending there
        for e in order:
            longest[e] = 1 + max((longest[b] for b in p._lower[e] if b in inside), default=0)
        dim = max(longest.values(), default=0) - 1
        minimal = sum(1 for e in inside if longest[e] == 1)
        maximal = sum(1 for e in inside if not any(u in inside for u in p._upper[e]))
    else:  # its extremes are covers of x below y and of y above x
        up, down = p.upset(x), p.downset(y)
        minimal = sum(1 for u in p._upper[x] if u in down and u != y)
        maximal = sum(1 for w in p._lower[y] if w in up and w != x)
        dim = p.ranks[y] - p.ranks[x] - 2
        inside = None  # built only if (x, y) is not a cone
    if not minimal:
        result = HomologyProfile({-1: (1, ())}), -1
    elif minimal == 1 or maximal == 1:
        result = _ACYCLIC, dim
    else:
        if inside is None:
            inside = (up & down) - {x, y}
            order = sorted(inside, key=p.sort_key)
        if dim <= 1:
            result = _graph_homology(p, inside), dim
        else:
            whole = x is None and y is None  # (0^, 1^)
            h = None if signs is None or whole else _cell_homology(p, x, order, signs)
            if h is None:
                h, _ = simplicial_homology(_chains(p, inside))
            result = h, dim
    p._intervals[x, y] = result
    return result


def cellular_faces(p: GradedPoset, signs, z) -> list[tuple[Hashable, int]]:
    """The cellular boundary rule of a signed poset, the faces of z for `cell_complex`:
    its lower covers w with their signs[z, w], or 0^ (``None``) with sign 1 if it
    has none, the augmentation."""
    lower = p._lower[z]
    return [(w, signs[z, w]) for w in lower] if lower else [(None, 1)]


def _sphere_defect(h: HomologyProfile, dim: int) -> dict | None:
    """None if the profile is exactly that of a homology dim-sphere, else its groups by degree."""
    if h.degrees() == [dim] and h.free_rank(dim) == 1 and not h.torsion(dim):
        return None
    return {d: (h.free_rank(d), h.torsion(d)) for d in h.degrees()}


def _cell_homology(p: GradedPoset, x, order: list, signs) -> HomologyProfile | None:
    """The reduced homology of (x, y) from C(x, y), or None for the chain route.

    ``order`` is (x, y) in (rank, id) order, and r(z) is rank z - rank x,
    with rank 0^ = -1.  C(x, y) has x as its cell in degree -1 and each z in
    (x, y) as a cell in degree r(z) - 1; `cellular_faces` gives the boundary
    of z, the sum of signs[z, w] w over its lower covers w in [x, y), or 0^.
    None is returned when some lower interval (x, z) is not a homology sphere
    of dimension r(z) - 2, or when the signs break d o d = 0 inside [x, y):
    `cell_complex` checks it, and on C(x, y) it is exactly the diamond
    relations there, from 0^ with each edge's balance among them.

    Claim: if each (x, z) is a homology sphere over Z of dimension r(z) - 2,
    every rank-2 interval is a diamond and the signs satisfy the diamond
    relations in [x, y), the reduced homology of (x, y) is that of C(x, y).
    This is the cellular homology of a CW poset (Bjorner, "Posets, regular
    CW complexes and Bruhat order", Europ. J. Combin. 5, 1984).

    Proof.  Filter the augmented chains of (x, y) by the rank of a chain's
    top element, with the empty chain alone in filtration 0.  Quotient
    k >= 1 is the sum, over z with r(z) = k, of the chains of the cone from
    z over (x, z) relative to (x, z), so its homology is one Z in degree
    k - 1.  The spectral sequence's E1 page is therefore one row: it
    collapses at E2, with no extension problem, and the reduced homology of
    (x, y) is that of (E1, d1), which has one generator per cell of
    C(x, y).  The entry of d1 from z to w vanishes unless z covers w.

    (a) Each entry from z to a lower cover w is +-1.  All maximal chains of
    (x, z) have r(z) - 1 elements, and every rank-2 interval is a diamond,
    so a chain missing one element lies in exactly two maximal chains: the
    order complex of (x, z) is a pseudomanifold.  The facets of each of its
    strong components sum to a top cycle over Z/2, and its top homology
    over Z/2 is Z/2 by universal coefficients, so it is strongly connected.
    Facets sharing a ridge carry equal coefficients up to sign in a top
    cycle, so the generator of its top homology has every coefficient +-1.
    d1 of z is that generator restricted to the facets through each lower
    cover w: the cone from w over a top cycle of (x, w) whose coefficients
    are all +-1 (each facet of (x, w) extends by w), which is +-1 times
    the generator of (x, w) by the same argument one rank down.

    (b) Two signings eps, eps' of the covers in [x, y) that both satisfy
    the diamond relations there give isomorphic complexes; d1 is one of them
    by (a), since d1 d1 = 0 and a diamond has two middles.  Their quotient
    eta = eps'/eps agrees on the two paths of every diamond.  Put t(x) = 1
    and, rank by rank, t(z) = eta(z, w) t(w) for a lower cover w of z.  Two
    lower covers w, w' of z with a common lower cover v give the same
    value, by the diamond [v, z] and t(w) = eta(w, v) t(v), and the lower
    covers of z are linked by common lower covers in [x, z): for r(z) = 2
    both cover x, and for r(z) > 2 the order complex of (x, z) is strongly
    connected.  So eta(z, w) = t(z) t(w) on every cover, and z -> t(z) z
    carries one complex onto the other.
    """
    base, cells = -1 if x is None else p.ranks[x], {-1: [x]}
    for z in order:
        d = p.ranks[z] - base - 1
        h, _ = interval_homology(p, x, z, signs)
        if _sphere_defect(h, d - 1) is not None:
            return None
        cells.setdefault(d, []).append(z)
    try:
        return homology(cell_complex(cells, lambda z: cellular_faces(p, signs, z)))
    except MalformedComplex:
        return None


def _graph_homology(p: GradedPoset, inside: set) -> HomologyProfile:
    """Reduced homology of an interval of dimension 0 or 1, a graph on ``inside``.

    Its edges are the covers inside: a comparable pair two ranks apart has an
    element between them, inside because intervals are convex, and the three
    would make a 2-chain.  With V points, E edges and c components (found by
    union-find), H~_0 is Z^(c-1) and H_1 is Z^(E-V+c); in dimension 0, E is 0.
    """
    root = {e: e for e in inside}

    def find(e):
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    edges, components = 0, len(inside)
    for e in inside:
        for u in p._upper[e]:
            if u in inside:
                edges += 1
                a, b = find(e), find(u)
                if a != b:
                    root[a] = b
                    components -= 1
    return HomologyProfile({0: (components - 1, ()), 1: (edges - len(inside) + components, ())})


def _chains(p: GradedPoset, inside: set) -> dict[int, list[tuple[int, ...]]]:
    """The chains of ``inside`` by dimension, the empty one included.

    A chain is the increasing tuple of its positions in the (rank, id) order.
    Grown depth-first, each dimension's chains come out lexicographically.
    """
    order = sorted(inside, key=p.sort_key)
    pos = {e: i for i, e in enumerate(order)}
    above = [sorted(pos[u] for u in p.upset(e) if u in pos and u != e) for e in order]
    cells: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    stack = [(i,) for i in reversed(range(len(order)))]
    while stack:
        chain = stack.pop()
        cells.setdefault(len(chain) - 1, []).append(chain)
        stack.extend(chain + (j,) for j in reversed(above[chain[-1]]))
    return cells


def _invariant_factors(torsion: list[int]) -> tuple[int, ...]:
    """The torsion coefficients > 1 of a sum of cyclic groups, in divisibility order."""
    if all(b % a == 0 for a, b in zip(torsion, torsion[1:])):
        return tuple(torsion)
    diagonal = IntegerMatrix(len(torsion), len(torsion), {(i, i): t for i, t in enumerate(torsion)})
    return tuple(t for t in smith_diagonal(diagonal) if t > 1)


def _join(a: HomologyProfile, b: HomologyProfile) -> HomologyProfile:
    """Reduced homology of a join X * Y from that of X and of Y.

    Kunneth for joins over Z: H~_k(X * Y) is the sum of H~_i(X) (x) H~_j(Y)
    over i + j = k - 1 and of Tor(H~_i(X), H~_j(Y)) over i + j = k - 2.  The
    empty complex (Z in degree -1) is the unit.  Over Q the profiles carry no
    torsion, so only free ranks multiply.
    """
    free: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for i in a.degrees():
        fa, ta = a.free_rank(i), a.torsion(i)
        for j in b.degrees():
            fb, tb = b.free_rank(j), b.torsion(j)
            k = i + j + 1
            free[k] = free.get(k, 0) + fa * fb
            mixed = [g for s in ta for t in tb if (g := gcd(s, t)) > 1]
            torsion.setdefault(k, []).extend(ta * fb + tb * fa + tuple(mixed))
            torsion.setdefault(k + 1, []).extend(mixed)
    return HomologyProfile({
        k: (free.get(k, 0), _invariant_factors(sorted(torsion.get(k, []))))
        for k in set(free) | set(torsion)
    })


def check_cohen_macaulay(p: GradedPoset, coefficients: str = "integers", signs=None) -> CMReport:
    """Test whether the order complex of p is Cohen-Macaulay.

    For every chain sigma (the empty chain included), the link of sigma in
    the order complex must have vanishing reduced homology in all degrees
    below the dimension of that link.  The link of x_1 < ... < x_k is the
    join of the open intervals (0^, x_1), ..., (x_k, 1^) of P^.  That holds
    for every chain exactly when every open interval (x, y) of P^ has reduced
    homology only in its own dimension (Bjorner, Garsia & Stanley, "An
    introduction to Cohen-Macaulay partially ordered sets", 1982):

    * top-degree homology is free, so by the Kunneth formula for joins a
      join of such intervals has homology only in its top degree;
    * (x, y) is itself the link of a chain: a maximal chain of P^ through x
      and y with its elements strictly between them dropped.

    So the intervals are read first, and if they pass the report has no
    witnesses.  Otherwise the chains are walked depth-first on p for the
    witnesses, each carrying the join of its intervals up to x_k (from the
    unit, the (-1)-sphere), so a link is one `_join` with (x_k, 1^);
    dimensions add as (dimension + 1).  A chain whose join has no homology
    (over Q, no free rank) ends the walk: a join with an acyclic factor is
    acyclic (Kunneth), so no chain through it is a witness, and the walk skips
    the exponentially many chains above it.  The default coefficient ring is
    Z, so torsion alone also disqualifies; witnesses flag such torsion-only
    failures separately.  Over Q only free ranks count.  The empty poset is
    Cohen-Macaulay by convention.  ``signs``, a signing of the covers as
    `interval_homology` takes it, lets intervals from elements of p be read
    from one cell per element.
    """
    _check_coefficients(coefficients)
    rational = coefficients == RATIONALS
    above: dict = {None: p._order}  # element -> the elements above it, in (rank, id) order
    for x in p._order:
        up = p.upset(x)
        above[x] = [y for y in p._order if y in up and y != x]

    def top_only(x, y) -> bool:
        h, dim = interval_homology(p, x, y, signs)
        return all(d == dim or (rational and not h.free_rank(d)) for d in h.degrees())

    if all(top_only(x, y) for x in above for y in (*above[x], None)):
        return CMReport(is_cm=True, coefficients=coefficients)
    witnesses: list[CMWitness] = []

    def walk(chain: tuple, head: HomologyProfile, head_dim: int) -> None:
        if head.is_trivial() or rational and not any(map(head.free_rank, head.degrees())):
            return
        top = chain[-1] if chain else None
        rest, rest_dim = interval_homology(p, top, None, signs)
        dim = head_dim + rest_dim + 1
        if dim > -1:
            h = _join(head, rest)
            if rational:  # rational Betti numbers are the free ranks
                h = HomologyProfile({d: (h.free_rank(d), ()) for d in h.degrees()})
            witnesses.extend(CMWitness(chain, d, h.free_rank(d), h.torsion(d))
                             for d in h.degrees() if d < dim)
        for y in above[top]:
            step, step_dim = interval_homology(p, top, y, signs)
            walk(chain + (y,), _join(head, step), head_dim + step_dim + 1)

    walk((), HomologyProfile({-1: (1, ())}), -1)
    witnesses.sort(key=lambda w: (len(w.chain), tuple(map(str, w.chain)), w.degree))
    return CMReport(
        is_cm=not witnesses, coefficients=coefficients, witnesses=tuple(witnesses)
    )
