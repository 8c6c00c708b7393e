"""Every order-complex question reads the open-interval homology cached on the poset.

Face acyclicity, the realization cross-check, the Cohen-Macaulay test and
the dihomology check are compared, whole report or raised exception, with
oracles that build and eliminate each order complex afresh; then the number
of order complexes built and eliminated is counted.
"""

import random
from itertools import combinations

from sponges import cosheaf, poset, sponge
from sponges.cosheaf import dihomology_check
from sponges.generators import (
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_trivalent_sponges,
    graph_sponge,
    hypercube_lattice,
    simplex_lattice,
)
from sponges.poset import GradedPoset, SimplicialComplex, check_cohen_macaulay, interval_homology
from sponges.sponge import SpongeComplex, check_acyclic, realization_cross_check, sign_solver

from oracles import (
    check_acyclic_via_subposets,
    cohen_macaulay_via_links,
    dihomology_check_via_order_complex,
    realization_cross_check_via_order_complex,
)
from test_cosheaf import weighted_k33_sponge
from test_poset import projective_plane_face_poset


def rp2_sponge():
    """The minimal projective plane: Z/2 in reduced H^2, Cohen-Macaulay over Q only."""
    p = projective_plane_face_poset()
    return SpongeComplex(n=4, faces=p, incidence=sign_solver(p))


def doubled_edge_sponge():
    p = GradedPoset([("v", 0), ("w", 0), ("e", 1)], [("e", "v"), ("e", "w")])
    return SpongeComplex(n=3, faces=p, incidence={("e", "v"): 2, ("e", "w"): -2})


def two_triangle_face_sponge():
    """A 2-face whose boundary is two disjoint triangles: not face-acyclic."""
    elements, covers = [("F", 2)], []
    for tri in "ab":
        for i in range(3):
            elements += [(f"{tri}{i}", 0), (f"{tri}e{i}", 1)]
            covers += [(f"{tri}e{i}", f"{tri}{i}"), (f"{tri}e{i}", f"{tri}{(i + 1) % 3}"),
                       ("F", f"{tri}e{i}")]
    p = GradedPoset(elements, covers)
    return SpongeComplex(n=4, faces=p, incidence=sign_solver(p))


def relabelled(z, seed):
    rng = random.Random(seed)
    names = {e: f"{rng.randrange(10**6):06d}-{e}" for e in z.faces.elements()}
    p = GradedPoset([(names[e], rk) for e, rk in z.faces.ranks.items()],
                    [(names[u], names[l]) for u, l in z.faces.covers()])
    incidence = {(names[u], names[l]): v for (u, l), v in z.incidence.items()}
    return SpongeComplex(z.n, p, incidence, non_compact=z.non_compact, name=z.name)


def corpus():
    """Factories, so that each side of a comparison gets a fresh poset."""
    makers = [lambda name=name: builtin(name) for name in
              ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3", "model_n4")]
    makers += [
        lambda: gen_model_sponge(5),
        lambda: gen_polytope_skeleton(hypercube_lattice(4)),
        lambda: gen_polytope_skeleton(simplex_lattice(4)),
        weighted_k33_sponge,
        doubled_edge_sponge,
        two_triangle_face_sponge,
        lambda: SpongeComplex(n=3, faces=GradedPoset([], []), incidence={}),
        lambda: SpongeComplex(n=2, faces=GradedPoset([("v0", 0)], []), incidence={}),
        rp2_sponge,
    ]
    makers += [lambda k=k: list(gen_trivalent_sponges(8))[k] for k in range(8)]
    makers += [lambda make=make: relabelled(make(), 7) for make in makers[:8]]
    makers.append(lambda: relabelled(rp2_sponge(), 7))
    return makers


def outcome(check, z):
    try:
        return check(z)
    except ValueError as err:
        return type(err), err.args, vars(err)


def test_reports_match_order_complex_oracles():
    seen = set()
    for make in corpus():
        z, fresh = make(), make()
        # Q before Z on one poset object: the cache holds integral homology only
        assert check_cohen_macaulay(z.faces, "rationals") == cohen_macaulay_via_links(
            fresh.faces, "rationals"), z
        assert outcome(dihomology_check, z) == outcome(dihomology_check_via_order_complex, fresh), z
        assert outcome(check_acyclic, z) == outcome(check_acyclic_via_subposets, fresh), z
        assert outcome(realization_cross_check, z) == outcome(
            realization_cross_check_via_order_complex, fresh), z
        assert check_cohen_macaulay(z.faces) == cohen_macaulay_via_links(fresh.faces), z
        seen.add(type(outcome(realization_cross_check, z)).__name__)
        seen.add(type(outcome(dihomology_check, z)).__name__)
    # reports and exceptions both occur on each side
    assert {"RealizationReport", "DihomologyReport", "tuple"} <= seen


def test_rp2_torsion_moves_up_one_degree():
    z = rp2_sponge()
    reduced, dim = interval_homology(z.faces, None, None)
    assert (reduced.degrees(), reduced.torsion(1), dim) == ([1], (2,), 2)
    report = realization_cross_check(z)
    assert report.simplicial[2] == report.cellular[2] == (0, (2,))
    assert report.simplicial[1] == (0, ())
    assert check_cohen_macaulay(z.faces, "rationals").is_cm
    assert not check_cohen_macaulay(z.faces).is_cm


def count_order_complexes(monkeypatch):
    """Vertex counts of the order complexes built, reduced and turned into chains."""
    built, reduced, chains = [], [], []
    order_complex = poset.order_complex
    reduced_homology = poset.reduced_simplicial_homology
    chain_complex = SimplicialComplex.chain_complex

    def counted_order_complex(p):
        built.append(len(p))
        return order_complex(p)

    def counted_reduced_homology(k, coefficients="integers"):
        reduced.append(len(k.vertices))
        return reduced_homology(k, coefficients)

    def counted_chain_complex(k, augmented=False):
        chains.append(len(k.vertices))
        return chain_complex(k, augmented)

    for module in (poset, sponge, cosheaf):
        for name, counted in (("order_complex", counted_order_complex),
                              ("reduced_simplicial_homology", counted_reduced_homology)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(SimplicialComplex, "chain_complex", counted_chain_complex)
    return built, reduced, chains


def test_dihomology_eliminates_the_whole_poset_at_most_once(monkeypatch):
    built, reduced, chains = count_order_complexes(monkeypatch)
    model = gen_model_sponge(5)
    dihomology_check(model)
    whole = len(model.faces)
    # the Cohen-Macaulay test walks chains on the poset and (0^, 1^) is a cone
    assert built.count(whole) == 0 and whole not in reduced and whole not in chains
    octahedron = builtin("g42_octahedron")
    dihomology_check(octahedron)
    whole = len(octahedron.faces)
    assert reduced.count(whole) == 1 and chains.count(whole) == 1


def test_check_acyclic_eliminates_no_vertex_interval(monkeypatch):
    built, reduced, chains = count_order_complexes(monkeypatch)
    z = graph_sponge(4, list(combinations(range(4), 2)), name="k4")
    check_acyclic(z)
    # each edge's (0^, e) is two points, eliminated once; a vertex's is empty
    assert built == reduced == chains == [2] * 6
    check_acyclic(z)
    assert built == reduced == chains == [2] * 6
