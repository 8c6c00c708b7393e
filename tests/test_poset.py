import random
import time
from itertools import combinations

import pytest

from sponges.complexes import IntegerChainComplex, homology, profile
from sponges.poset import (
    CyclicPoset,
    GradedPoset,
    SimplicialComplex,
    UnknownElement,
    _join,
    check_cohen_macaulay,
    order_complex,
    subposet,
)

from sponges.exactalg import IntegerMatrix, smith_diagonal
from sponges.generators import gen_model_sponge, gen_polytope_skeleton, hypercube_lattice

from oracles import (
    all_faces,
    cohen_macaulay_via_links,
    is_empty,
    join_betti,
    maximal_faces_bruteforce,
    reduced_simplicial_homology,
)


def chain_poset(length):
    elements = [(f"c{i}", i) for i in range(length)]
    covers = [(f"c{i+1}", f"c{i}") for i in range(length - 1)]
    return GradedPoset(elements, covers)


def antichain(n, prefix="a"):
    return GradedPoset([(f"{prefix}{i}", 0) for i in range(n)], [])


def subset_poset(n, max_size, with_empty=True):
    """Subsets of {1..n} with size <= max_size, ordered by inclusion."""
    elements = []
    if with_empty:
        elements.append(("o", 0))
    subsets = []
    for k in range(1, max_size + 1):
        for c in combinations(range(1, n + 1), k):
            subsets.append(c)
            elements.append(("".join(map(str, c)), k))
    covers = []
    for c in subsets:
        ident = "".join(map(str, c))
        if len(c) == 1:
            if with_empty:
                covers.append((ident, "o"))
        else:
            for x in c:
                below = tuple(y for y in c if y != x)
                covers.append((ident, "".join(map(str, below))))
    return GradedPoset(elements, covers)


def k33_face_poset():
    lefts = ["l1", "l2", "l3"]
    rights = ["r1", "r2", "r3"]
    elements = [(v, 0) for v in lefts + rights]
    covers = []
    for a in lefts:
        for b in rights:
            e = f"{a}{b}"
            elements.append((e, 1))
            covers.append((e, a))
            covers.append((e, b))
    return GradedPoset(elements, covers)


def test_rank_buckets_are_cached_copies():
    p = subset_poset(4, 2)
    assert p.elements() == sorted(p.ranks, key=p.sort_key)
    for rk in range(-1, 4):
        assert p.elements_of_rank(rk) == [e for e in p.elements() if p.ranks[e] == rk]
    p.elements().clear()
    p.elements_of_rank(1).clear()
    assert len(p.elements()) == 11 and p.elements_of_rank(1) == ["1", "2", "3", "4"]


def test_cover_rank_validation():
    with pytest.raises(CyclicPoset):
        GradedPoset([("a", 0), ("b", 2)], [("b", "a")])


def test_duplicate_cover_is_refused():
    with pytest.raises(ValueError, match="duplicate cover 'b' > 'a'"):
        GradedPoset([("a", 0), ("b", 1), ("c", 1)], [("b", "a"), ("c", "a"), ("b", "a")])
    with pytest.raises(ValueError, match="duplicate element 'a'"):
        GradedPoset([("a", 0), ("a", 0)], [])
    assert len(GradedPoset([("a", 0), ("b", 1), ("c", 1)], [("b", "a"), ("c", "a")]).covers()) == 2


def test_ranks_must_be_ints():
    # the rank 0.7 used to become 0
    for rank in (0.7, 1.0, True, "1", None):
        with pytest.raises(TypeError, match="integer"):
            GradedPoset([("a", rank)], [])
    assert GradedPoset([("a", 0)], []).rank("a") == 0


def test_facet_with_an_unknown_vertex_is_refused():
    """A facet naming a vertex outside the vertex list is a ValueError that
    names the facet's position and the first such vertex, not a KeyError."""
    with pytest.raises(ValueError,
                       match=r"^facet 0 names vertex 'z', which is not among the vertices$"):
        SimplicialComplex(["a"], [["a", "z"]])
    with pytest.raises(ValueError, match=r"^facet 2 names vertex 4, "):
        SimplicialComplex(range(3), [[0, 1], [1, 2], (v for v in (2, 4, 5))])
    with pytest.raises(ValueError, match="duplicate vertices"):
        SimplicialComplex(["a", "a"], [])


def test_unknown_element():
    p = chain_poset(3)
    with pytest.raises(UnknownElement):
        p.rank("missing")
    with pytest.raises(UnknownElement):
        subposet(p, "below", "missing")


def test_order_complex_of_chain_is_simplex():
    k = order_complex(chain_poset(3))
    assert k.facets == ((0, 1, 2),)
    assert k.dimension == 2


def test_order_complex_of_antichain():
    k = order_complex(antichain(3))
    assert k.facets == ((0,), (1,), (2,))
    assert k.dimension == 0


def test_order_complex_model_n3_is_cone_over_three_points():
    p = subset_poset(3, 1)  # origin below three rays
    k = order_complex(p)
    # three edges sharing the origin vertex
    assert len(k.facets) == 3
    assert all(len(f) == 2 for f in k.facets)
    shared = set.intersection(*(set(f) for f in k.facets))
    assert len(shared) == 1
    h = reduced_simplicial_homology(k)
    assert h.is_trivial()


def test_subposet_strictly_above_origin_model_n4():
    p = subset_poset(4, 2)
    q = subposet(p, "strictly_above", "o")
    assert len(q) == 10  # nonempty subsets of [4] with <= 2 elements
    assert sorted(q.ranks.values()) == [1] * 4 + [2] * 6


def test_subposet_below_maximum_of_chain():
    p = chain_poset(4)
    q = subposet(p, "below", "c3")
    assert len(q) == 4
    assert len(q.covers()) == 3


def test_subposet_open_interval_of_cover_is_empty():
    p = chain_poset(3)
    q = subposet(p, "open_interval", "c0", "c1")
    assert len(q) == 0


def test_subposet_complement_of_up_set():
    p = subset_poset(3, 1)
    q = subposet(p, "complement_of_up_set", "1")
    assert sorted(q.ranks) == ["2", "3", "o"]
    # the complement of an up-set keeps its covers
    assert set(q.covers()) == {("2", "o"), ("3", "o")}


def test_reduced_homology_triangle_boundary():
    k = SimplicialComplex([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
    h = reduced_simplicial_homology(k)
    assert h == profile({1: (1, ())})


def test_reduced_homology_k4_graph():
    k = SimplicialComplex(list(range(4)), list(combinations(range(4), 2)))
    h = reduced_simplicial_homology(k)
    # connected graph: rank E - V + 1 = 6 - 4 + 1 = 3
    assert h == profile({1: (3, ())})


def test_reduced_homology_single_vertex():
    k = SimplicialComplex([0], [[0]])
    assert reduced_simplicial_homology(k).is_trivial()


def test_reduced_homology_empty_complex():
    k = SimplicialComplex([], [])
    h = reduced_simplicial_homology(k)
    assert h == profile({-1: (1, ())})


def test_cm_model_sponge_poset_n4():
    report = check_cohen_macaulay(subset_poset(4, 2))
    assert report.is_cm
    assert report.witnesses == ()


def test_cm_fails_for_disjoint_chains():
    p = GradedPoset(
        [("a0", 0), ("a1", 1), ("b0", 0), ("b1", 1)],
        [("a1", "a0"), ("b1", "b0")],
    )
    report = check_cohen_macaulay(p)
    assert not report.is_cm
    empty_chain_witnesses = [w for w in report.witnesses if w.chain == ()]
    assert empty_chain_witnesses
    w = empty_chain_witnesses[0]
    assert w.degree == 0 and w.free_rank == 1  # disconnected: reduced H_0 = Z


def test_cm_k33_face_poset():
    assert check_cohen_macaulay(k33_face_poset()).is_cm


def test_cm_empty_poset_by_convention():
    assert check_cohen_macaulay(GradedPoset([], [])).is_cm


# the minimal 6-vertex projective-plane triangulation
RP2_FACETS = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]


def projective_plane_face_poset():
    """Face poset of the minimal 6-vertex projective-plane triangulation."""
    elements = []
    covers = []
    seen = set()
    for f in RP2_FACETS:
        fid = "".join(map(str, f))
        elements.append((fid, 2))
        for e in combinations(f, 2):
            eid = "".join(map(str, e))
            if eid not in seen:
                seen.add(eid)
                elements.append((eid, 1))
                covers.append((eid, str(e[0])))
                covers.append((eid, str(e[1])))
            covers.append((fid, eid))
    elements.extend((str(v), 0) for v in range(1, 7))
    return GradedPoset(elements, covers)


def test_cm_coefficient_switch_distinguishes_torsion():
    """The projective plane is Cohen-Macaulay over Q but not over Z; the
    integral failure is torsion-only and flagged as such."""
    p = projective_plane_face_poset()
    assert check_cohen_macaulay(p, coefficients="rationals").is_cm
    report = check_cohen_macaulay(p, coefficients="integers")
    assert not report.is_cm
    assert all(w.torsion_only for w in report.witnesses)
    empty_chain = [w for w in report.witnesses if w.chain == ()]
    assert empty_chain and empty_chain[0].torsion == (2,)
    assert empty_chain[0].degree == 1


def ordinal_sum(lower, upper):
    """lower below upper: each maximal element of lower is covered by each minimal one of upper."""
    top = lower.max_rank() + 1
    elements = [(e, lower.ranks[e]) for e in lower.elements()]
    elements += [(e, upper.ranks[e] + top) for e in upper.elements()]
    covers = list(lower.covers()) + list(upper.covers())
    covers += [(u, l) for u in upper.elements_of_rank(0) for l in lower.elements_of_rank(top - 1)]
    return GradedPoset(elements, covers)


def random_graded_poset(rng):
    """Up to four ranks of up to four elements; an element above rank 0 may have no lower cover."""
    elements, covers, below = [], [], []
    for rk in range(rng.randint(1, 4)):
        level = [f"r{rk}e{i}" for i in range(rng.randint(1, 4))]
        for e in level:
            elements.append((e, rk))
            if below and rng.random() < 0.9:
                covers.extend((e, b) for b in rng.sample(below, rng.randint(1, len(below))))
        below = level
    return GradedPoset(elements, covers)


def relabelled(p, seed):
    """The same poset with identifiers renamed, so the (rank, id) order changes."""
    rng = random.Random(seed)
    names = {e: f"{rng.randrange(10**6):06d}-{e}" for e in p.elements()}
    return GradedPoset([(names[e], rk) for e, rk in p.ranks.items()],
                       [(names[u], names[l]) for u, l in p.covers()])


def test_cm_report_matches_link_oracle():
    """Whole reports, witnesses included, against building and eliminating every link."""
    rng = random.Random(1980)
    posets = [random_graded_poset(rng) for _ in range(60)]
    posets += [
        projective_plane_face_poset(),
        ordinal_sum(projective_plane_face_poset(), antichain(2)),
        ordinal_sum(antichain(2), ordinal_sum(antichain(3, "b"), antichain(2, "c"))),
        GradedPoset([("a0", 0), ("a1", 1), ("b0", 0), ("b1", 1)], [("a1", "a0"), ("b1", "b0")]),
        GradedPoset([], []),
        k33_face_poset(),
        relabelled(gen_model_sponge(5).faces, 7),
        relabelled(ordinal_sum(projective_plane_face_poset(), antichain(2)), 7),
    ]
    posets += [gen_model_sponge(n).faces for n in (3, 4, 5)]
    non_cm = torsion = 0
    for p in posets:
        for coefficients in ("integers", "rationals"):
            report = check_cohen_macaulay(p, coefficients)
            assert report == cohen_macaulay_via_links(p, coefficients), (p, coefficients)
            non_cm += not report.is_cm
            torsion += any(w.torsion for w in report.witnesses)
    assert non_cm >= 40 and torsion >= 2


def join_complex(a, b):
    vertices = [(0, v) for v in a.vertices] + [(1, w) for w in b.vertices]
    left = [[(0, a.vertices[i]) for i in f] for f in a.facets] or [[]]
    right = [[(1, b.vertices[i]) for i in f] for f in b.facets] or [[]]
    return SimplicialComplex(vertices, [f + g for f in left for g in right])


def test_join_matches_simplicial_join():
    rp2 = SimplicialComplex(range(1, 7), RP2_FACETS)
    rp2_and_point = SimplicialComplex(range(1, 8), RP2_FACETS + [(7,)])
    s0 = SimplicialComplex("ab", ["a", "b"])
    empty = SimplicialComplex([], [])
    circle = SimplicialComplex("xyz", ["xy", "yz", "xz"])
    cases = [
        (rp2, rp2, profile({3: (0, (2,)), 4: (0, (2,))})),
        (s0, s0, profile({1: (1, ())})),
        (empty, circle, profile({1: (1, ())})),
        (circle, empty, profile({1: (1, ())})),
        (empty, empty, profile({-1: (1, ())})),
        (rp2_and_point, rp2_and_point,
         profile({1: (1, ()), 2: (0, (2, 2)), 3: (0, (2,)), 4: (0, (2,))})),
        (rp2_and_point, circle, profile({2: (1, ()), 3: (0, (2,))})),
    ]
    for a, b, expected in cases:
        joined = _join(reduced_simplicial_homology(a), reduced_simplicial_homology(b))
        assert joined == reduced_simplicial_homology(join_complex(a, b)) == expected, (a, b)
        rational = _join(reduced_simplicial_homology(a, "rationals"),
                         reduced_simplicial_homology(b, "rationals"))
        assert rational == reduced_simplicial_homology(join_complex(a, b), "rationals")


def chain_complex_of(groups):
    """A free complex whose homology is {d: (free rank, torsion)}: t * y = dx per torsion t."""
    ranks: dict[int, int] = {}

    def new(d):
        ranks[d] = ranks.get(d, 0) + 1
        return ranks[d] - 1

    entries: dict[int, dict] = {}
    for d, (free, torsion) in sorted(groups.items()):
        for _ in range(free):
            new(d)
        for t in torsion:
            entries.setdefault(d + 1, {})[new(d), new(d + 1)] = t
    boundaries = {d: IntegerMatrix(ranks[d - 1], ranks[d], ent) for d, ent in entries.items()}
    return IntegerChainComplex(ranks, boundaries)


def tensor(c, d):
    """Tensor product of free complexes, d(x (x) y) = dx (x) y + (-1)^i x (x) dy."""
    basis: dict[int, list] = {}
    for i in c.degrees():
        for j in d.degrees():
            basis.setdefault(i + j, []).extend(
                (i, a, j, b) for a in range(c.rank(i)) for b in range(d.rank(j)))
    index = {g: k for gs in basis.values() for k, g in enumerate(gs)}
    entries: dict[int, dict] = {n: {} for n in basis}
    for n, gs in basis.items():
        for col, (i, a, j, b) in enumerate(gs):
            for r, x, v in c.boundary(i).nonzero_items():
                if x == a:
                    key = (index[i - 1, r, j, b], col)
                    entries[n][key] = entries[n].get(key, 0) + v
            for r, y, v in d.boundary(j).nonzero_items():
                if y == b:
                    key = (index[i, a, j - 1, r], col)
                    entries[n][key] = entries[n].get(key, 0) + (-1) ** i * v
    boundaries = {n: IntegerMatrix(len(basis[n - 1]), len(basis[n]), ent)
                  for n, ent in entries.items() if ent}
    return IntegerChainComplex({n: len(gs) for n, gs in basis.items()}, boundaries)


def test_join_orders_mixed_torsion_like_the_tensor_complex():
    """Reduced chains of X * Y are those of X tensor Y, shifted up by one degree."""
    pairs = [
        ({0: (1, (4,)), 1: (0, (6,))}, {0: (2, (6,)), 2: (0, (9,))}),
        ({-1: (1, ()), 0: (0, (2, 4))}, {1: (1, (3, 12))}),
        ({0: (0, (10,)), 1: (2, (4,))}, {0: (0, (6, 12)), 1: (1, (15,))}),
    ]
    for left, right in pairs:
        a, b = chain_complex_of(left), chain_complex_of(right)
        assert homology(a) == profile(left) and homology(b) == profile(right)
        h = homology(tensor(a, b))
        shifted = profile({d + 1: (h.free_rank(d), h.torsion(d)) for d in h.degrees()})
        assert _join(profile(left), profile(right)) == shifted, (left, right)


def test_cm_model7_is_fast():
    """Model n=7: 1,732 open intervals, read with no walk over its 29,023 chains."""
    faces = gen_model_sponge(7).faces
    start = time.perf_counter()
    assert check_cohen_macaulay(faces).is_cm
    assert time.perf_counter() - start < 30.0


def test_below_is_always_a_cone():
    """|below(s)| is a cone with apex s, hence acyclic, for corpus posets."""
    for p in [subset_poset(4, 2), k33_face_poset(), chain_poset(4)]:
        for s in p.elements():
            k = order_complex(subposet(p, "below", s))
            assert reduced_simplicial_homology(k).is_trivial(), s


def rational_betti(k):
    h = reduced_simplicial_homology(k, coefficients="rationals")
    return {d: h.free_rank(d) for d in h.degrees()}


def test_link_matches_join_decomposition_over_q():
    """Link of a chain = join of the interval complexes; compare Q-Betti."""
    for p in [subset_poset(4, 2), k33_face_poset()]:
        k = order_complex(p)
        for face in [()] + all_faces(k):
            chain = [k.vertices[i] for i in face]
            pieces = []
            if chain:
                pieces.append(order_complex(subposet(p, "strictly_below", chain[0])))
                for a, b in zip(chain, chain[1:]):
                    pieces.append(order_complex(subposet(p, "open_interval", a, b)))
                pieces.append(order_complex(subposet(p, "strictly_above", chain[-1])))
            else:
                pieces.append(k)
            joined = {-1: 1}
            for piece in pieces:
                joined = join_betti(joined, rational_betti(piece), 10)
            link = k.link(face)
            assert rational_betti(link) == joined, chain


def labelled_facets(k):
    return {frozenset(k.face_vertices(f)) for f in k.facets}


def assert_facets_match_oracle(vertices, facets):
    k = SimplicialComplex(vertices, facets)
    expected = maximal_faces_bruteforce(facets)
    assert labelled_facets(k) == expected
    assert list(k.facets) == sorted(k.facets, key=lambda f: (len(f), f))
    faces = [()] + all_faces(k) + [tuple(range(len(vertices)))]
    for face in faces:
        labels = set(k.face_vertices(face))
        link = k.link(face)
        expected_link = maximal_faces_bruteforce(f - labels for f in expected if labels <= f)
        assert labelled_facets(link) == expected_link, (facets, face)
        used = set().union(*expected_link)
        assert link.vertices == tuple(v for v in vertices if v in used), (facets, face)


def test_maximal_facets_match_bruteforce_oracle():
    """Facets and links against the all-pairs filter, with duplicates and nesting."""
    assert_facets_match_oracle("abc", [])
    assert_facets_match_oracle("a", [["a"]])
    assert_facets_match_oracle("abc", [["a", "b"], ["b", "a"], ["a", "b"]])
    assert_facets_match_oracle("abcd", [["a", "b", "c"], ["a", "b"], ["c"], ["d"], []])
    k = SimplicialComplex("abc", [["a", "b"], ["c"]])
    assert is_empty(k.link((0, 1))) and is_empty(k.link((2,)))
    rng = random.Random(5040)
    for _ in range(300):
        n = rng.randint(1, 8)
        facets = []
        for _ in range(rng.randint(0, 12)):
            f = rng.sample(range(n), rng.randint(0, min(n, 5)))
            facets.append(f)
            if rng.random() < 0.4:
                facets.append(rng.choice([f, f[: rng.randint(0, len(f))]]))
        assert_facets_match_oracle(list(range(n)), facets)


def test_twenty_thousand_facets_build_fast():
    """The maximal-facet filter follows the facets, not their pairs."""
    rng = random.Random(20000)
    facets = []
    for _ in range(20000):
        f = rng.sample(range(2000), rng.randint(2, 6))
        facets.append(f)
        if rng.random() < 0.3:
            facets.append(f[: rng.randint(1, len(f))])
    start = time.perf_counter()
    k = SimplicialComplex(range(2000), facets)
    assert time.perf_counter() - start < 1.0
    assert k.dimension == 5 and len(k.facets) <= 20000


def test_order_complex_smith_diagonals_are_fast():
    """Order complex of the 5-cube's 3-skeleton: 3,520 triangles, Smith forms in seconds."""
    start = time.perf_counter()
    c = order_complex(gen_polytope_skeleton(hypercube_lattice(5)).faces).chain_complex()
    diagonals = [smith_diagonal(c.boundary(d)) for d in (1, 2, 3)]
    assert time.perf_counter() - start < 5.0
    assert [len(diag) for diag in diagonals] == [231, 1609, 1911]
    assert all(x == 1 for diag in diagonals for x in diag)
    assert c.rank(3) - len(diagonals[2]) == 9  # b_3 of the 3-skeleton of the 5-cube
