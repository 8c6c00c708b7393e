import hashlib
import json
import random
import sys
from functools import cache
from itertools import combinations

import pytest

from sponges.complexes import profile
from sponges.enumerative import ExtendedFVector, betti_polynomial, fvector_of, hvector_of
from sponges.generators import (
    BadParameter,
    _CubicSearch,
    _position,
    NotSimple,
    PolytopeFaceLattice,
    UnknownBuiltin,
    builtin,
    enumerate_connected_cubic,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_simplex_skeleton,
    gen_trivalent_sponges,
    hypercube_lattice,
    simplex_lattice,
)
from sponges.poset import check_cohen_macaulay
from sponges.sponge import check_acyclic, check_local_model, validate_sponge

from oracles import is_canonical_by_patterns, max_code_brute_force, reduced_simplicial_homology


# ---------------------------------------------------------------------------
# model sponges


def test_model_sponge_counts():
    assert gen_model_sponge(3).face_counts() == (1, 3)
    assert gen_model_sponge(4).face_counts() == (1, 4, 6)
    assert gen_model_sponge(5).face_counts() == (1, 5, 10, 10)


def test_model_sponge_is_flagged_non_compact():
    assert gen_model_sponge(3).non_compact


def test_model_sponge_rejects_small_n():
    with pytest.raises(BadParameter):
        gen_model_sponge(2)


def test_model_sponge_valid_and_local_model():
    for n in (3, 4, 5):
        z = gen_model_sponge(n)
        assert validate_sponge(z).is_valid
        assert check_local_model(z).passed


def test_model_sponges_cohen_macaulay_n3_to_n6():
    for n in range(3, 7):
        assert check_cohen_macaulay(gen_model_sponge(n).faces).is_cm, n


# ---------------------------------------------------------------------------
# simplex skeleta


def test_simplex_skeleton_k4():
    k = gen_simplex_skeleton(3, 1)
    assert len(k.vertices) == 4
    assert len(k.facets) == 6
    assert reduced_simplicial_homology(k) == profile({1: (3, ())})


def test_simplex_skeleton_full_triangle():
    k = gen_simplex_skeleton(2, 2)
    assert reduced_simplicial_homology(k).is_trivial()


def test_simplex_skeleton_m4_k2():
    k = gen_simplex_skeleton(4, 2)
    # rank C(4, 3) = 4 in the top degree
    assert reduced_simplicial_homology(k) == profile({2: (4, ())})


def test_simplex_skeleton_bad_parameters():
    with pytest.raises(BadParameter):
        gen_simplex_skeleton(3, 4)
    with pytest.raises(BadParameter):
        gen_simplex_skeleton(3, -1)


# ---------------------------------------------------------------------------
# polytope skeleta


def test_cube_skeleton():
    z = gen_polytope_skeleton(hypercube_lattice(3))
    v = fvector_of(z)
    assert (v.f, v.b) == ((8, 12), 5)
    assert hvector_of(v).h == (1, 3, 3, 1)


def test_simplex3_skeleton():
    z = gen_polytope_skeleton(simplex_lattice(3))
    v = fvector_of(z)
    assert (v.f, v.b) == ((4, 6), 3)
    assert hvector_of(v).h == (1, 1, 1, 1)


def test_square_skeleton():
    z = gen_polytope_skeleton(hypercube_lattice(2))
    v = fvector_of(z)
    assert (v.f, v.b) == ((4,), 3)


def test_polytope_skeleta_pass_checks_and_have_good_hvectors():
    lattices = [
        hypercube_lattice(2),
        hypercube_lattice(3),
        simplex_lattice(3),
        simplex_lattice(4),
    ]
    for lattice in lattices:
        z = gen_polytope_skeleton(lattice)
        assert check_acyclic(z).is_acyclic
        assert check_local_model(z).passed
        hv = hvector_of(fvector_of(z))
        assert hv.symmetric and hv.nonnegative


def test_non_diamond_lattice_rejected():
    # a 2-face with three parallel edges between the same two vertices: the
    # interval [vertex, 2-face] of the skeleton has three middles
    faces = tuple(
        [("v", 0), ("w", 0)]
        + [(f"m{i}", 1) for i in range(3)]
        + [("t", 2), ("c", 3), ("top", 4)]
    )
    covers = tuple(
        [(f"m{i}", "v") for i in range(3)]
        + [(f"m{i}", "w") for i in range(3)]
        + [("t", f"m{i}") for i in range(3)]
        + [("c", "t"), ("top", "c")]
    )
    lattice = PolytopeFaceLattice(dimension=4, faces=faces, covers=covers)
    with pytest.raises(NotSimple):
        gen_polytope_skeleton(lattice)


# ---------------------------------------------------------------------------
# builtins


def test_builtin_g42():
    v = fvector_of(builtin("g42_octahedron"))
    assert (v.f, v.b) == ((6, 12, 11), 4)


def test_builtin_f3():
    v = fvector_of(builtin("f3_k33"))
    assert (v.f, v.b) == ((6, 9), 4)


def test_builtin_hp2_is_fvector_only():
    obj = builtin("hp2_fvector")
    assert isinstance(obj, ExtendedFVector)
    assert (obj.n, obj.f, obj.b) == (4, (3, 6, 7), 3)
    assert betti_polynomial(obj) == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_builtin_models():
    assert builtin("model_n3").face_counts() == (1, 3)
    assert builtin("model_n4").face_counts() == (1, 4, 6)


def test_builtin_unknown():
    with pytest.raises(UnknownBuiltin):
        builtin("klein_bottle")


# ---------------------------------------------------------------------------
# cubic graph enumeration


def adjacency_sets(edges, nv):
    adj = {v: set() for v in range(nv)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def connected(edges, nv):
    adj = adjacency_sets(edges, nv)
    seen = {0}
    queue = [0]
    for v in queue:
        for u in adj[v] - seen:
            seen.add(u)
            queue.append(u)
    return len(seen) == nv


def parents(edges, nv):
    """par(j), the smallest neighbour of label j below j, for j = 1..nv-1;
    None where label j has no smaller neighbour."""
    adj = adjacency_sets(edges, nv)
    return [min((u for u in adj[j] if u < j), default=None) for j in range(1, nv)]


def breadth_first(edges, nv):
    """Every label past 0 has a parent, and the parents never decrease."""
    par = parents(edges, nv)
    return None not in par and par == sorted(par)


@cache
def connected_cubic(nv):
    """enumerate_connected_cubic(nv), checked against its pinned digest."""
    graphs = enumerate_connected_cubic(nv)
    assert hashlib.sha256(json.dumps(graphs).encode()).hexdigest() == CUBIC_DIGESTS[nv], nv
    return graphs


def triangle_count(edges, nv):
    adj = adjacency_sets(edges, nv)
    return sum(
        1
        for a, b, c in combinations(range(nv), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )


def test_cubic_counts_known_values():
    assert len(enumerate_connected_cubic(4)) == 1
    assert len(enumerate_connected_cubic(6)) == 2
    assert len(enumerate_connected_cubic(8)) == 5
    assert len(enumerate_connected_cubic(10)) == 19


def test_cubic_six_vertices_are_k33_and_prism():
    graphs = enumerate_connected_cubic(6)
    triangles = sorted(triangle_count(edges, 6) for _, edges in graphs)
    assert triangles == [0, 2]  # K_{3,3} and the triangular prism


def test_cubic_graphs_are_3_regular_and_distinct():
    seen = set()
    for code, edges in enumerate_connected_cubic(8):
        assert code not in seen
        seen.add(code)
        adj = adjacency_sets(edges, 8)
        assert all(len(neighbors) == 3 for neighbors in adj.values())


def test_trivalent_sponges_max4():
    sponges = list(gen_trivalent_sponges(4))
    assert len(sponges) == 1
    assert sponges[0].face_counts() == (4, 6)  # K_4


def test_trivalent_sponges_max6():
    sponges = list(gen_trivalent_sponges(6))
    assert len(sponges) == 3  # K_4, then K_{3,3} and the prism
    assert [z.face_counts() for z in sponges] == [(4, 6), (6, 9), (6, 9)]


def test_trivalent_sponges_pass_local_model():
    for z in gen_trivalent_sponges(8):
        assert check_local_model(z).passed
        assert validate_sponge(z).is_valid


def test_trivalent_bad_parameter():
    with pytest.raises(BadParameter):
        list(gen_trivalent_sponges(3))
    with pytest.raises(BadParameter):
        list(gen_trivalent_sponges(7))


def test_enumeration_deterministic():
    first = enumerate_connected_cubic(8)
    second = enumerate_connected_cubic(8)
    assert first == second


# sha256 of json.dumps(enumerate_connected_cubic(v)): codes and edge lists,
# each graph in its maximal-code labelling
CUBIC_DIGESTS = {
    4: "19b877de74f69c225a8c0e7fb45209b68f2c1a2e0bf60d25a4fb0ddce47acb69",
    6: "bd44ce51b4a568a6e91ab9a401029f36c1ef63f10ac0a06d8d9b451ed5de52bc",
    8: "50eccdfe61981737e236a6f20fc562771c704796b7879592871e2ac6ad5c994f",
    10: "77eeb64c00770764549f1c092656dab39ba6adf26d50ae7d6b61f09a8cd205d6",
    12: "cc13cd5aad4a2874dd736b4536c86e859dc302a6434884eb279b3fe2a46d7ea9",
    14: "23900b9cfac61635b2f2a6332e65d141f090108823fe4b8f45837478c3b1b1dd",
}


def test_cubic_count_twelve_vertices_desk_scale():
    # The class counts are OEIS A002851.  v = 14 takes a few seconds and is
    # pinned too; v = 16 (4,060 classes) takes about ten times as long.  The
    # digests pin every output for v <= 14 byte for byte.
    assert [len(connected_cubic(v)) for v in CUBIC_DIGESTS] == [1, 2, 5, 19, 85, 509]


def test_cubic_outputs_are_connected():
    for v in CUBIC_DIGESTS:
        for _, edges in connected_cubic(v):
            assert connected(edges, v), (v, edges)


def test_feasible_keeps_every_prefix_of_every_output():
    """The breadth-first prune never cuts the path to an output: each prefix
    of an output's edge list, which the generation grows edge by edge, passes
    `_feasible` at its last position, and the output's labelling has a
    parent for every label past 0, nondecreasing."""
    for v in CUBIC_DIGESTS:
        for _, edges in connected_cubic(v):
            assert breadth_first(edges, v), (v, edges)
            positions = [_position(i, j) for i, j in edges]
            assert positions == sorted(positions)
            search = _CubicSearch(v)
            for (i, j), p in zip(edges, positions):
                search._add_edge(i, j)
                assert search._feasible(p), (v, edges, (i, j))


def test_feasible_drops_prefixes_out_of_breadth_first_order(monkeypatch):
    def feasible(n, edges):
        search = _CubicSearch(n)
        for i, j in edges:
            search._add_edge(i, j)
        return search._feasible(_position(*edges[-1]))

    assert feasible(6, [(0, 1), (0, 2), (0, 3), (1, 4)])  # label 1 may still grow
    assert not feasible(6, [(0, 1), (0, 2), (1, 3)])  # (b): label 0 < par(3) lacks an edge
    # (a) is the column bound of `_extend`: no prefix it hands `_feasible`
    # has an empty column, so every label up to the last column has a parent
    prefixes, skipped = [], []
    original = _CubicSearch._feasible

    def spy(self, last):
        j0 = self.pairs[last][1]
        prefixes.append(last)
        skipped.extend(u for u in range(1, j0 + 1) if not self.adj[u] & ((1 << u) - 1))
        return original(self, last)

    monkeypatch.setattr(_CubicSearch, "_feasible", spy)
    for v in (4, 6, 8, 10, 12):
        assert enumerate_connected_cubic(v) == connected_cubic(v)
    assert prefixes and not skipped


def edge_code(n, edges):
    top = n * (n - 1) // 2
    code = 0
    for a, b in edges:
        i, j = sorted((a, b))
        code |= 1 << (top - 1 - j * (j - 1) // 2 - i)
    return code


def code_edges(n, code):
    top = n * (n - 1) // 2
    return [(i, j) for j in range(1, n) for i in range(j)
            if (code >> (top - 1 - j * (j - 1) // 2 - i)) & 1]


def test_cubic_codes_are_brute_force_maximal():
    for v in (4, 6, 8):
        for code, edges in enumerate_connected_cubic(v):
            best = max_code_brute_force(v, edges)
            assert code == edge_code(v, edges) == best, (v, edges)
            assert breadth_first(code_edges(v, best), v), (v, edges)


def test_maximal_codes_label_connected_graphs_breadth_first():
    """In the maximal-code labelling of any graph, every label past 0 has a
    smaller neighbour exactly when the graph is connected, and then the
    smallest one never decreases."""
    rng = random.Random(19990101)
    graphs = [(n, edges) for n, edges in symmetric_graphs() if n <= 7]
    for _ in range(100):
        n = rng.randint(2, 7)
        density = rng.random()
        graphs.append((n, [e for e in combinations(range(n), 2) if rng.random() < density]))
    kinds = set()
    for n, edges in graphs:
        canonical = code_edges(n, max_code_brute_force(n, edges))
        par = parents(canonical, n)
        assert (None not in par) == connected(edges, n), (n, edges)
        if None not in par:
            assert par == sorted(par), (n, edges)
        kinds.add(None in par)
    assert kinds == {True, False}


def is_canonical(n, edges):
    search = _CubicSearch(n)
    for i, j in sorted(tuple(sorted(e)) for e in edges):
        search._add_edge(i, j)
    return search._is_canonical()


def symmetric_graphs():
    """Partial graphs of degree <= 3 with many automorphisms."""
    triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    k4 = list(combinations(range(4), 2))
    yield from ((n, triangles) for n in (6, 7))
    yield from ((n, k4) for n in (4, 5, 6, 7))
    yield from ((n, [(2 * k, 2 * k + 1) for k in range(m)])
                for n in range(2, 8) for m in range(n // 2 + 1))
    yield from ((n, [(k, (k + 1) % n) for k in range(n)]) for n in range(3, 8))
    yield 6, [(a, b) for a in range(3) for b in range(3, 6)]  # K_{3,3}
    yield 6, triangles + [(0, 3), (1, 4), (2, 5)]  # the prism
    yield 7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)]  # claw and triangle
    # vertex-transitive cubic graphs, automorphism groups of order 48, 16 and 1,152
    yield 8, [(a, a ^ (1 << k)) for a in range(8) for k in range(3) if a < a ^ (1 << k)]
    yield 8, [(k, (k + 1) % 8) for k in range(8)] + [(k, k + 4) for k in range(4)]  # Wagner
    yield 8, k4 + [(a + 4, b + 4) for a, b in k4]  # two disjoint K4s


def random_partial_graph(rng, n):
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for i, j in pairs[: rng.randint(0, len(pairs))]:
        if deg[i] < 3 and deg[j] < 3:
            edges.append((i, j))
            deg[i] += 1
            deg[j] += 1
    return edges


def test_is_canonical_matches_brute_force():
    """Each graph, its maximal-code labelling and one transposition of that."""
    rng = random.Random(20140101)
    graphs = list(symmetric_graphs())
    for _ in range(250):
        n = rng.randint(2, 7)
        graphs.append((n, random_partial_graph(rng, n)))
    for n, edges in graphs:
        best = max_code_brute_force(n, edges)
        canonical = code_edges(n, best)
        a, b = rng.sample(range(n), 2)
        swap = {a: b, b: a}
        swapped = [(swap.get(x, x), swap.get(y, y)) for x, y in canonical]
        for g in (edges, canonical, swapped):
            assert is_canonical(n, g) == (edge_code(n, g) == best), (n, g)


def search_nodes(canonicity_test, *args):
    """The verdict and the labelled prefixes ``used`` of every node that a
    canonicity search visits, in visiting order.  Both searches keep the
    prefix in ``used`` and recurse through a function ``larger_exists``."""
    nodes = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "larger_exists":
            nodes.append(tuple(frame.f_locals["used"]))

    sys.setprofile(profile)
    try:
        verdict = canonicity_test(*args)
    finally:
        sys.setprofile(None)
    return verdict, nodes


def test_is_canonical_matches_pattern_search_beyond_brute_force(monkeypatch):
    """Verdict and search tree against the pattern-list search, on every
    partial graph that generating the 12-vertex cubic graphs tests, and on
    random partial graphs of degree <= 3 on 9 to 12 vertices, each also
    relabelled at random.  The generation that lists the partial graphs runs
    on the oracle, so a faulty search cannot change the list."""
    visited = []

    def recording(search):
        visited.append((search.n, list(search.edges)))
        return is_canonical_by_patterns(search.n, search.edges)

    monkeypatch.setattr(_CubicSearch, "_is_canonical", recording)
    graphs = enumerate_connected_cubic(12)
    monkeypatch.undo()
    assert hashlib.sha256(json.dumps(graphs).encode()).hexdigest() == CUBIC_DIGESTS[12]
    rng = random.Random(19980101)
    graphs = visited[:]
    for _ in range(200):
        n = rng.randint(9, 12)
        edges = random_partial_graph(rng, n)
        perm = rng.sample(range(n), n)
        graphs += [(n, edges), (n, [(perm[a], perm[b]) for a, b in edges])]
    verdicts = set()
    for n, edges in graphs:
        expected = search_nodes(is_canonical_by_patterns, n, edges)
        assert search_nodes(is_canonical, n, edges) == expected, (n, edges)
        verdicts.add(expected[0])
    assert len(visited) > 1000 and verdicts == {True, False}
