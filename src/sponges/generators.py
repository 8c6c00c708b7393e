"""Builders for the example sponges and generated families.

Contents:

* the local model of each dimension (subsets of [n] of size at most n-2,
  flagged non-compact since its faces are cones),
* skeleta of simplices as simplicial complexes,
* skeleta of simple polytopes as sponges (signs from the solver, with the
  b = #facets - 1 sanity check),
* the builtin corpus (octahedron-with-equatorial-squares, the complete
  bipartite graph K_{3,3}, the quaternionic-plane f-vector, the cube
  skeleton, and small local models),
* connected cubic graphs by orderly generation: graphs are built edge by
  edge in a fixed code order and only canonically-labelled (maximal-code)
  graphs are extended, so each isomorphism class appears exactly once and
  reruns are byte-identical.  Maximal codes label a connected graph in a
  breadth-first order, so a partial graph that breaks that order is dropped
  before its canonicity is tested, and no output needs a connectivity test.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .enumerative import ExtendedFVector
from .errors import BadParameter, NotDiamond, NotSimple, UnknownBuiltin
from .poset import GradedPoset, SimplicialComplex
from .sponge import SpongeComplex, check_acyclic, ensure_valid, sign_solver


# ---------------------------------------------------------------------------
# local models


def _subset_id(subset: Sequence[int]) -> str:
    return "-".join(str(x) for x in sorted(subset)) if subset else "o"


def gen_model_sponge(n: int) -> SpongeComplex:
    """The local model: subsets I of [n] with |I| <= n-2, dim I = |I|.

    The origin (empty set) is the unique vertex; incidence numbers follow
    the simplicial sign convention.  Faces are cones, so the result carries
    the non_compact flag and skips the enumerative machinery.
    """
    if n < 3:
        raise BadParameter("model sponges need n >= 3")
    elements: list[tuple[str, int]] = [("o", 0)]
    covers: list[tuple[str, str]] = []
    incidence: dict[tuple[str, str], int] = {}
    for size in range(1, n - 1):
        for subset in combinations(range(1, n + 1), size):
            ident = _subset_id(subset)
            elements.append((ident, size))
            if size == 1:
                covers.append((ident, "o"))
                incidence[(ident, "o")] = 1
            else:
                for k, x in enumerate(subset):
                    below = _subset_id([y for y in subset if y != x])
                    covers.append((ident, below))
                    incidence[(ident, below)] = (-1) ** k
    z = SpongeComplex(
        n=n,
        faces=GradedPoset(elements, covers),
        incidence=incidence,
        non_compact=True,
        name=f"model-n{n}",
    )
    ensure_valid(z)
    return z


def gen_simplex_skeleton(m: int, k: int) -> SimplicialComplex:
    """The k-skeleton of an m-simplex (m+1 vertices)."""
    if not 0 <= k <= m:
        raise BadParameter(f"need 0 <= k <= m, got k={k}, m={m}")
    verts = list(range(m + 1))
    return SimplicialComplex(verts, combinations(verts, k + 1))


# ---------------------------------------------------------------------------
# polytope lattices and their skeleta


class _LatticeFields(NamedTuple):
    dimension: int
    faces: tuple[tuple[str, int], ...]
    covers: tuple[tuple[str, str], ...]


class PolytopeFaceLattice(_LatticeFields):
    """Face lattice of a polytope: faces of dims 0..n, the top face included."""

    __slots__ = ()

    def __new__(cls, dimension: int, faces: tuple[tuple[str, int], ...],
                covers: tuple[tuple[str, str], ...]) -> PolytopeFaceLattice:
        self = super().__new__(cls, dimension, faces, covers)
        tops = [f for f, d in faces if d == dimension]
        if len(tops) != 1:
            raise ValueError("lattice must have exactly one top face")
        if any(d < 0 or d > dimension for _, d in faces):
            raise ValueError("face dimensions out of range")
        self.poset()  # raises on duplicate faces or covers, unknown faces and cycles
        return self

    @classmethod
    def _make(cls, iterable) -> PolytopeFaceLattice:
        return cls(*iterable)  # checked, and so is `_replace`, which calls it

    def poset(self) -> GradedPoset:
        return GradedPoset(self.faces, self.covers)

    def face_count(self, dim: int) -> int:
        return sum(1 for _, d in self.faces if d == dim)


def hypercube_lattice(d: int) -> PolytopeFaceLattice:
    """Faces of the d-cube as sign vectors over {0, 1, *}."""
    if d < 1:
        raise BadParameter("cube dimension must be positive")
    faces = []
    covers = []
    for word in _words("01*", d):
        faces.append((word, word.count("*")))
        for pos, ch in enumerate(word):
            if ch == "*":
                for fixed in "01":
                    covers.append((word, word[:pos] + fixed + word[pos + 1:]))
    return PolytopeFaceLattice(dimension=d, faces=tuple(faces), covers=tuple(covers))


def _words(alphabet: str, length: int) -> list[str]:
    words = [""]
    for _ in range(length):
        words = [w + ch for w in words for ch in alphabet]
    return words


def simplex_lattice(d: int) -> PolytopeFaceLattice:
    """Faces of the d-simplex: nonempty subsets of its d+1 vertices."""
    if d < 1:
        raise BadParameter("simplex dimension must be positive")
    faces = []
    covers = []
    for size in range(1, d + 2):
        for subset in combinations(range(d + 1), size):
            ident = _subset_id(subset)
            faces.append((ident, size - 1))
            if size > 1:
                for x in subset:
                    covers.append((ident, _subset_id([y for y in subset if y != x])))
    return PolytopeFaceLattice(dimension=d, faces=tuple(faces), covers=tuple(covers))


def gen_polytope_skeleton(p: PolytopeFaceLattice) -> SpongeComplex:
    """The (n-2)-skeleton of a simple n-polytope, with solver signs.

    Checks the b-number of the result against #facets - 1.
    """
    n = p.dimension
    if n < 2:
        raise BadParameter(f"polytope skeletons need dimension >= 2, got {n}")
    keep = [(f, d) for f, d in p.faces if d <= n - 2]
    keep_ids = {f for f, _ in keep}
    covers = [(u, l) for u, l in p.covers if u in keep_ids and l in keep_ids]
    poset = GradedPoset(keep, covers)
    try:
        signs = sign_solver(poset)
    except NotDiamond as err:
        raise NotSimple(str(err)) from err
    z = SpongeComplex(n=n, faces=poset, incidence=signs, name=f"polytope-skeleton-{n}d")
    expected_b = p.face_count(n - 1) - 1
    report = check_acyclic(z)
    if report.b_number != expected_b:
        raise NotSimple(
            f"skeleton b-number {report.b_number} != facets-1 = {expected_b}; "
            "input lattice is not a valid simple polytope"
        )
    return z


# ---------------------------------------------------------------------------
# builtin corpus


def k33_sponge() -> SpongeComplex:
    """K_{3,3} with alternating edge signs (-1 left endpoint, +1 right)."""
    lefts = ["l1", "l2", "l3"]
    rights = ["r1", "r2", "r3"]
    elements = [(v, 0) for v in lefts + rights]
    covers = []
    incidence = {}
    for a in lefts:
        for b in rights:
            e = f"{a}:{b}"
            elements.append((e, 1))
            covers.append((e, a))
            covers.append((e, b))
            incidence[(e, a)] = -1
            incidence[(e, b)] = 1
    z = SpongeComplex(
        n=3,
        faces=GradedPoset(elements, covers),
        incidence=incidence,
        name="f3-k33",
    )
    ensure_valid(z)
    return z


def octahedron_sponge() -> SpongeComplex:
    """Octahedron vertices/edges/triangles plus the 3 equatorial squares."""
    axes = "xyz"
    verts = [a + s for a in axes for s in "+-"]
    antipodal = {frozenset({a + "+", a + "-"}) for a in axes}

    def edge_id(u, v):
        return ":".join(sorted([u, v]))

    elements = [(v, 0) for v in verts]
    covers = []
    edges = []
    for u, v in combinations(verts, 2):
        if frozenset({u, v}) in antipodal:
            continue
        e = edge_id(u, v)
        edges.append((e, u, v))
        elements.append((e, 1))
        covers.append((e, u))
        covers.append((e, v))
    for sx in "+-":
        for sy in "+-":
            for sz in "+-":
                tri = ["x" + sx, "y" + sy, "z" + sz]
                t = "tri:" + ":".join(sorted(tri))
                elements.append((t, 2))
                for u, v in combinations(tri, 2):
                    covers.append((t, edge_id(u, v)))
    for a, b in combinations(axes, 2):
        sq = f"sq:{a}{b}"
        elements.append((sq, 2))
        for sa in "+-":
            for sb in "+-":
                covers.append((sq, edge_id(a + sa, b + sb)))
    poset = GradedPoset(elements, covers)
    signs = sign_solver(poset)
    z = SpongeComplex(n=4, faces=poset, incidence=signs, name="g42-octahedron")
    ensure_valid(z)
    return z


def graph_sponge(
    n_vertices: int, edges: Sequence[tuple[int, int]], name: str = ""
) -> SpongeComplex:
    """Wrap a (multi)graph as an n=3 sponge with alternating edge signs."""
    elements = [(f"v{i}", 0) for i in range(n_vertices)]
    covers = []
    incidence = {}
    seen: dict[tuple[int, int], int] = {}
    for a, b in edges:
        a, b = (a, b) if a < b else (b, a)
        copy = seen.get((a, b), 0)
        seen[(a, b)] = copy + 1
        e = f"e{a}-{b}" + (f".{copy}" if copy else "")
        elements.append((e, 1))
        covers.append((e, f"v{a}"))
        covers.append((e, f"v{b}"))
        incidence[(e, f"v{a}")] = -1
        incidence[(e, f"v{b}")] = 1
    z = SpongeComplex(
        n=3,
        faces=GradedPoset(elements, covers),
        incidence=incidence,
        name=name or f"graph-{n_vertices}v",
    )
    ensure_valid(z)
    return z


_BUILTINS = {
    "g42_octahedron": octahedron_sponge,
    "f3_k33": k33_sponge,
    "hp2_fvector": lambda: ExtendedFVector(n=4, f=(3, 6, 7), b=3),
    "cube_skeleton": lambda: gen_polytope_skeleton(hypercube_lattice(3)),
    "model_n3": lambda: gen_model_sponge(3),
    "model_n4": lambda: gen_model_sponge(4),
}


def builtin(name: str) -> SpongeComplex | ExtendedFVector:
    """The builtin corpus entry ``name``, built afresh.  hp2_fvector is
    f-vector data only: the full incidence structure of that sponge is not
    shipped, and the Hilbert and Betti checks need only the extended f-vector."""
    if name not in _BUILTINS:
        raise UnknownBuiltin(name)
    return _BUILTINS[name]()


# ---------------------------------------------------------------------------
# connected cubic graphs by orderly generation
#
# Vertices are 0..n-1.  Edge positions (i, j), i < j, are read in the order
# (j, i) ascending -- all back-edges of vertex 1, then of vertex 2, and so
# on -- and a labelled graph's code is the corresponding bit string, most
# significant bit first.  A graph is canonical when no relabelling yields a
# lexicographically larger code.  Removing the last edge (in reading order)
# of a canonical graph leaves a canonical graph, so growing canonical graphs
# by appending edges past the current last position enumerates every
# isomorphism class exactly once.
#
# Canonicity is a depth-first search over relabellings, one new label per
# level: label k goes to the old vertex used[k].  At level j the candidates
# are one bitmask, `ties`, first the unused vertices; no pattern is kept per
# vertex (there is no `pats` table).  Walking k up from 0, an edge (k, j)
# keeps only the ties adjacent to used[k]; at a non-edge, a tie adjacent to
# used[k] proves a larger code.  The ties left are followed in ascending
# order.  Two rules shrink the tree without changing the verdict:
#
# * unused twins (same pattern, same unused neighbours) are interchangeable,
#   so only the first is followed;
# * a leaf's code equals the current one, so k -> used[k] is an automorphism.
#   If it first moves label d, it maps the subtree below the prefix 0..d
#   (searched first there: d is the smallest unused vertex, and a tie) onto
#   the one below 0..d-1, used[d], so the search returns to the prefix 0..d-1
#   (McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
#   2014).
# Ties are not also filtered by automorphism orbits: that saves nodes, not time.
#
# Most partial graphs have no output below them, and two cheap rules drop
# them before canonicity is tried (the idea of Meringer, "Fast generation of
# regular graphs and construction of cages", J. Graph Theory 30, 1999).  Both
# rest on one lemma: let G be connected, in its maximal-code labelling, and
# let par(j) be the smallest neighbour of label j below j.  Then (i) par(j)
# exists for every j >= 1, and (ii) par is nondecreasing, so the labels are a
# breadth-first order.
#
# * (ii): if j < u and par(u) < par(j), give u label j and keep labels
#   0..j-1.  Columns 1..j-1 do not change, and column j gains a 1 at bit
#   par(u), where the old column had 0: a larger code.
# * (i): connectivity gives some u > j adjacent to a label below j; moving u
#   to label j the same way gives a larger code.
#
# Let the last edge be (i0, j0) and p0 = par(j0) <= i0.  Every later
# position is (k, j0) with k > i0, or lies in a column past j0.  So no
# maximal-code connected cubic completion exists if
#
# * (a) some label in 1..j0-1 has no smaller neighbour: its column is final.
#   `_extend` never skips a column: the first edge is (0, 1), and the next
#   one lies in column j0 or j0+1, so every column up to j0 holds an edge.
# * (b) some label k < p0 has degree below 3: an edge (k, u) with u > j0
#   would give par(u) <= k < p0 = par(j0).  `_feasible` tests this.
#
# A leaf ends in column n-1 and skipped no column, so every label reaches 0
# through its parents: outputs need no connectivity test.
#
# The position -> (i, j) pairs and, per position and vertex, the number of
# later positions touching that vertex are tables built once per n.


def _position(i: int, j: int) -> int:
    return j * (j - 1) // 2 + i


class _CubicSearch:
    def __init__(self, n: int):
        self.n = n
        self.target_edges = 3 * n // 2
        self.pairs = [(i, j) for j in range(1, n) for i in range(j)]
        # available[last][v]: positions past ``last`` that touch vertex v
        self.available: list[tuple[int, ...]] = [()] * len(self.pairs)
        counts = [0] * n
        for p in range(len(self.pairs) - 1, -1, -1):
            self.available[p] = tuple(counts)
            for v in self.pairs[p]:
                counts[v] += 1
        self.adj = [0] * n
        self.deg = [0] * n
        self.edges: list[tuple[int, int]] = []
        self.found: list[tuple[int, list[tuple[int, int]]]] = []

    # -- canonicity -------------------------------------------------------

    def _is_canonical(self) -> bool:
        """No relabelling has a larger code; see the comment above the class."""
        n = self.n
        adj = self.adj
        used: list[int] = []
        nbrs: list[int] = []  # nbrs[k] == adj[used[k]]
        resume = n  # depth to return to after a non-identity leaf

        def larger_exists(unused: int) -> bool:
            nonlocal resume
            j = len(used)
            if j == n:
                resume = next((k for k in range(n) if used[k] != k), n)
                return False
            target = adj[j]  # bit k: the edge (k, j), read as k runs up
            ties = unused
            for nb in nbrs:
                if target & 1:
                    ties &= nb
                elif ties & nb:
                    return True
                target >>= 1
            seen_rows = set()
            while ties:
                low = ties & -ties
                ties ^= low
                v = low.bit_length() - 1
                rest = unused ^ low
                row = adj[v] & rest
                if row in seen_rows:  # unused twins are interchangeable
                    continue
                seen_rows.add(row)
                used.append(v)
                nbrs.append(adj[v])
                larger = larger_exists(rest)
                used.pop()
                nbrs.pop()
                if larger:
                    return True
                if resume < j:  # an automorphism mirrors this node's subtree
                    return False
                resume = n
            return False

        return not larger_exists((1 << n) - 1)

    # -- feasibility ------------------------------------------------------

    def _feasible(self, last: int) -> bool:
        # each vertex can reach degree 3, so enough positions are left for 3n/2 edges
        for d, a in zip(self.deg, self.available[last]):
            if d + a < 3:
                return False
        # the BFS order of maximal codes; see the comment above _position
        j0 = self.pairs[last][1]
        parent = (self.adj[j0] & -self.adj[j0]).bit_length() - 1
        for k in range(parent):
            if self.deg[k] < 3:  # (b): k can gain no edge
                return False
        return True

    # -- search -----------------------------------------------------------

    def run(self) -> None:
        self._extend(-1)

    def _extend(self, last: int) -> None:
        if len(self.edges) == self.target_edges:
            # 3n/2 edges of degree <= 3 make the graph cubic, and every label
            # past 0 has a parent (the column bound below), so it is connected
            code = 0
            top = len(self.pairs)
            for a, b in self.edges:
                code |= 1 << (top - 1 - _position(a, b))
            self.found.append((code, list(self.edges)))
            return
        # (a): a position past column j0 + 1 would leave that column empty
        j0 = self.pairs[last][1] if last >= 0 else 0
        for p in range(last + 1, min(_position(0, j0 + 2), len(self.pairs))):
            i, j = self.pairs[p]
            if self.deg[i] >= 3 or self.deg[j] >= 3:
                continue
            self._add_edge(i, j)
            if self._feasible(p) and self._is_canonical():
                self._extend(p)
            self._pop_edge()

    def _add_edge(self, i: int, j: int) -> None:
        """Append the edge i < j."""
        self.adj[i] |= 1 << j
        self.adj[j] |= 1 << i
        self.deg[i] += 1
        self.deg[j] += 1
        self.edges.append((i, j))

    def _pop_edge(self) -> None:
        i, j = self.edges.pop()
        self.adj[i] &= ~(1 << j)
        self.adj[j] &= ~(1 << i)
        self.deg[i] -= 1
        self.deg[j] -= 1


def enumerate_connected_cubic(n_vertices: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """All connected 3-regular graphs on exactly n_vertices, one per class.

    Returns (code, edge list) pairs sorted by code; the labelling of each
    graph is its canonical (maximal-code) one.
    """
    if n_vertices < 4 or n_vertices % 2:
        raise BadParameter("cubic graphs need an even vertex count >= 4")
    search = _CubicSearch(n_vertices)
    search.run()
    return sorted(search.found)


def gen_trivalent_sponges(max_vertices: int) -> Iterator[SpongeComplex]:
    """All connected cubic sponges on 4..max_vertices vertices (n = 3).

    Simple graphs only; multigraph sponges are accepted from file input but
    not enumerated here.
    """
    if max_vertices < 4 or max_vertices % 2:
        raise BadParameter("max_vertices must be even and >= 4")
    for nv in range(4, max_vertices + 1, 2):
        for code, edges in enumerate_connected_cubic(nv):
            name = f"cubic-{nv}v-{code:0{(nv * (nv - 1) // 2 + 3) // 4}x}"
            yield graph_sponge(nv, edges, name=name)
