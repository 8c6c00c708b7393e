"""Every order-complex question reads the open-interval homology cached on the poset.

Face acyclicity, the realization cross-check, the Cohen-Macaulay test and
the dihomology check are compared, whole report or raised exception, with
oracles that build and eliminate each order complex afresh; then the number
of order complexes built and eliminated is counted.
"""

import io
import json
import random
from itertools import combinations

from sponges import cosheaf, poset, sponge
from sponges.cosheaf import dihomology_check
from sponges.generators import (
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_trivalent_sponges,
    hypercube_lattice,
    simplex_lattice,
)
from sponges.poset import GradedPoset, SimplicialComplex, check_cohen_macaulay, interval_homology
from sponges.sponge import SpongeComplex, check_acyclic, realization_cross_check, sign_solver

from oracles import (
    check_acyclic_via_subposets,
    cohen_macaulay_via_links,
    dihomology_check_via_order_complex,
    interval_homology_via_order_complex,
    realization_cross_check_via_order_complex,
)
from test_cell_complex import interval_posets, open_intervals
from test_cosheaf import weighted_k33_sponge
from test_poset import RP2_FACETS, projective_plane_face_poset


def rp2_sponge():
    """The minimal projective plane: Z/2 in reduced H^2, Cohen-Macaulay over Q only."""
    p = projective_plane_face_poset()
    return SpongeComplex(n=4, faces=p, incidence=sign_solver(p))


def simplicial_sponge(facets):
    """The face poset of a simplicial complex, with the simplicial incidence signs."""
    faces = {f for facet in facets for k in range(1, len(facet) + 1)
             for f in combinations(sorted(facet), k)}

    def name(f):
        return "-".join(map(str, f))

    incidence = {(name(f), name(f[:k] + f[k + 1:])): -1 if k & 1 else 1
                 for f in faces if len(f) > 1 for k in range(len(f))}
    p = GradedPoset([(name(f), len(f) - 1) for f in faces], list(incidence))
    return SpongeComplex(n=max(map(len, faces)) + 1, faces=p, incidence=incidence)


def rp2_wedge_sponge():
    """Two projective planes sharing vertex 1: Z/2 + Z/2 in reduced H_1, and the
    link of vertex 1 is two circles."""
    second = {1: 1, 2: 7, 3: 8, 4: 9, 5: 10, 6: 11}
    return simplicial_sponge(RP2_FACETS + [tuple(second[v] for v in f) for f in RP2_FACETS])


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


def count_interval_complexes(monkeypatch):
    """Vertex counts of the interval complexes built and eliminated: C(x, y)
    built by `cell_complex` and read by `homology`, or chains enumerated by
    `_chains` and coreduced by `simplicial_homology`.

    No order complex, restricted poset or simplicial complex may be built on
    the way: each of those raises.
    """
    built, reduced = [], []
    cell_complex, homology = poset.cell_complex, poset.homology
    chains, simplicial_homology = poset._chains, poset.simplicial_homology

    def counted_cell_complex(cells, faces):
        built.append(len(cells.get(0, ())))
        return cell_complex(cells, faces)

    def counted_homology(c, coefficients="integers"):
        reduced.append(c.rank(0))
        return homology(c, coefficients)

    def counted_chains(p, inside):
        cells = chains(p, inside)
        built.append(len(cells.get(0, ())))
        return cells

    def counted_simplicial_homology(simplices, coefficients="integers"):
        reduced.append(len(simplices.get(0, ())))
        return simplicial_homology(simplices, coefficients)

    def forbidden(*args, **kwargs):
        raise AssertionError("an interval went through an order complex")

    monkeypatch.setattr(poset, "cell_complex", counted_cell_complex)
    monkeypatch.setattr(poset, "homology", counted_homology)
    monkeypatch.setattr(poset, "_chains", counted_chains)
    monkeypatch.setattr(poset, "simplicial_homology", counted_simplicial_homology)
    for module in (poset, sponge, cosheaf):
        if hasattr(module, "order_complex"):
            monkeypatch.setattr(module, "order_complex", forbidden)
    monkeypatch.setattr(GradedPoset, "restrict", forbidden)
    monkeypatch.setattr(SimplicialComplex, "__init__", forbidden)
    return built, reduced


def test_dihomology_eliminates_the_whole_poset_at_most_once(monkeypatch):
    built, reduced = count_interval_complexes(monkeypatch)
    model = gen_model_sponge(5)
    dihomology_check(model)
    whole = len(model.faces)
    # the Cohen-Macaulay test reads the intervals on the poset, and (0^, 1^) is a cone
    assert whole not in built and whole not in reduced
    octahedron = builtin("g42_octahedron")
    dihomology_check(octahedron)
    whole = len(octahedron.faces)
    assert built.count(whole) == 1 and reduced.count(whole) == 1


def test_check_acyclic_eliminates_no_vertex_interval(monkeypatch):
    z = relabelled(gen_polytope_skeleton(simplex_lattice(5)), 0)  # a poset with no cache yet
    built, reduced = count_interval_complexes(monkeypatch)
    check_acyclic(z)
    # each tetrahedron's (0^, t) is one cell per face below it, 4 of them
    # vertices, built and reduced once; a vertex's is empty, and an edge's or
    # a triangle's is a graph
    assert built == reduced == [4] * 15
    check_acyclic(z)
    assert built == reduced == [4] * 15


def random_graph_poset(rng):
    """Two to four ranks of one to six elements, with one cover density per poset."""
    density = rng.choice((0.15, 0.4, 0.8))
    elements, covers, below = [], [], []
    for rk in range(rng.randint(2, 4)):
        level = [f"r{rk}e{i}" for i in range(rng.randint(1, 6))]
        elements += [(e, rk) for e in level]
        covers += [(e, b) for e in level for b in below if rng.random() < density]
        below = level
    return GradedPoset(elements, covers)


def test_graph_intervals_match_order_complex_oracle(monkeypatch):
    """Intervals of dimension 0 and 1 are read as graphs, building no complex
    and enumerating no chains."""
    built, graphs = [], []
    cell_complex, chains, graph_homology = poset.cell_complex, poset._chains, poset._graph_homology

    def counted_cell_complex(cells, faces):
        built.append(cells)
        return cell_complex(cells, faces)

    def counted_chains(p, inside):
        built.append(inside)
        return chains(p, inside)

    def counted_graph_homology(p, inside):
        graphs.append(inside)
        return graph_homology(p, inside)

    monkeypatch.setattr(poset, "cell_complex", counted_cell_complex)
    monkeypatch.setattr(poset, "_chains", counted_chains)
    monkeypatch.setattr(poset, "_graph_homology", counted_graph_homology)
    rng = random.Random(1736)
    posets = interval_posets() + [gen_model_sponge(n).faces for n in range(3, 8)]
    posets += [random_graph_poset(rng) for _ in range(150)]
    kinds = dict.fromkeys(("points", "disconnected", "tree", "cycles"), 0)
    for p in posets:
        for x, y in open_intervals(p):
            before = len(built), len(graphs)
            h, dim = interval_homology(p, x, y)
            if dim not in (0, 1):
                continue
            assert len(built) == before[0], (p, x, y)
            assert (h, dim) == interval_homology_via_order_complex(p, x, y), (p, x, y)
            if len(graphs) == before[1]:
                continue  # a cone
            if dim == 0:
                kinds["points"] += 1
            elif h.free_rank(0):
                kinds["disconnected"] += 1
            elif h.free_rank(1) != 1:
                kinds["cycles" if h.free_rank(1) else "tree"] += 1
    assert min(kinds.values()) >= 20, kinds


def glued_spheres(rng):
    """Two or three boundaries of a d-simplex glued along a k-face, d - k >= 3.

    The link of that face is a disjoint union of spheres of dimension at least
    1, so the poset is not Cohen-Macaulay; the intervals (0^, 1^) and (0^, x)
    are all spheres and wedges of spheres, so the failure sits only above the
    glued face.
    """
    d = rng.choice((3, 4))
    k = rng.randrange(d - 2)
    shared, facets = list(range(k + 1)), []
    for copy in range(rng.randint(2, 3)):
        vertices = shared + [k + 1 + copy * (d - k) + i for i in range(d - k)]
        facets += list(combinations(vertices, d))
    return relabelled(simplicial_sponge(facets), rng.randrange(100))


def test_cm_verdict_reads_intervals_and_walks_only_on_failure(monkeypatch):
    """Whole reports against building and eliminating every link, over Z and Q.

    Cohen-Macaulay posets are settled by their intervals with no join; the
    others fall back to the walk, which alone finds witnesses.
    """
    joins = []
    join = poset._join

    def counted_join(a, b):
        joins.append(1)
        return join(a, b)

    monkeypatch.setattr(poset, "_join", counted_join)
    rng = random.Random(1982)
    glued = [glued_spheres(rng).faces for _ in range(6)]
    rp2 = projective_plane_face_poset()
    cm = [gen_model_sponge(n).faces for n in (3, 4, 5)] + [builtin("g42_octahedron").faces]
    deepest = 0
    for p in glued + [rp2_wedge_sponge().faces, two_triangle_face_sponge().faces, rp2] + cm:
        for coefficients in ("integers", "rationals"):
            joins.clear()
            report = check_cohen_macaulay(p, coefficients)
            assert report == cohen_macaulay_via_links(p, coefficients), (p, coefficients)
            assert bool(joins) == (not report.is_cm), (p, coefficients)
            assert report.is_cm == (p in cm or (p is rp2 and coefficients == "rationals"))
            if p in glued:
                assert all(w.chain for w in report.witnesses)
                deepest = max([deepest] + [len(w.chain) for w in report.witnesses])
    assert deepest >= 2


def fresh(p):
    """The same poset as a new object, with an empty interval cache."""
    return GradedPoset(p.ranks.items(), p.covers())


def signed_posets():
    """(poset, signing, is a model) triples: sponge incidences where the sponge
    supplies them, else `sign_solver`'s signing; posets with no signing are
    left out."""
    sponges = [gen_model_sponge(n) for n in range(3, 9)]
    sponges += [builtin(name) for name in ("g42_octahedron", "f3_k33", "cube_skeleton")]
    sponges += [gen_polytope_skeleton(hypercube_lattice(4)),
                gen_polytope_skeleton(simplex_lattice(5))]
    for k, z in enumerate(sponges):
        yield z.faces, sponge.incidence_signs(z), k < 6
    for p in interval_posets() + [gen_model_sponge(n).faces for n in (4, 5, 6)]:
        try:
            yield p, sign_solver(p), False
        except (sponge.NotDiamond, sponge.SignUnsolvable):
            continue


def count_chain_routes(monkeypatch):
    """The intervals that enumerate their chains, and those built from one cell
    per element (their (-1)-cell is the interval's bottom, not the empty chain)."""
    chained, celled = [], []
    chains, cell_complex = poset._chains, poset.cell_complex

    def counted_chains(p, inside):
        chained.append(inside)
        return chains(p, inside)

    def counted_cell_complex(cells, faces):
        if cells.get(-1) != [()]:
            celled.append(cells)
        return cell_complex(cells, faces)

    monkeypatch.setattr(poset, "_chains", counted_chains)
    monkeypatch.setattr(poset, "cell_complex", counted_cell_complex)
    return chained, celled


def test_cellular_intervals_match_chain_route_and_oracle(monkeypatch):
    """With a signing, every interval from an element of P whose lower
    intervals are spheres is one cell per element; its profile and dimension
    match the chain route and the order complex built afresh."""
    chained, celled = count_chain_routes(monkeypatch)
    signed = 0
    for p, signs, model in signed_posets():
        assert signs is not None, p
        signed += 1
        unsigned = fresh(p)
        for x, y in open_intervals(p):
            before = len(chained)
            got = interval_homology(p, x, y, signs)
            if model and x is not None:  # a model sponge: every such interval is cellular
                assert len(chained) == before, (p, x, y)
            assert got == interval_homology(unsigned, x, y), (p, x, y)
            if len(p) <= 100:
                assert got == interval_homology_via_order_complex(p, x, y), (p, x, y)
    assert signed >= 90 and len(celled) >= 1300


def test_unsigned_and_unfit_intervals_take_the_chain_route(tmp_path, monkeypatch):
    """No signing, signs off +-1, an invalid sponge, or lower intervals that
    are not spheres: those intervals enumerate their chains, with the same
    reports."""
    from sponges.cli import cli_dispatch, serialize_sponge

    chained, celled = count_chain_routes(monkeypatch)
    rng = random.Random(1984)
    for z in [glued_spheres(rng) for _ in range(4)] + [rp2_wedge_sponge()]:
        chained.clear()
        report = check_cohen_macaulay(z.faces, signs=sponge.incidence_signs(z))
        assert report == cohen_macaulay_via_links(fresh(z.faces)), z
        assert not report.is_cm and chained, z  # (0^, 1^) is no cone
    # one edge, so every interval is a cone or a graph; a doubled model below
    # shows the chain route for incidences off +-1
    assert sponge.incidence_signs(doubled_edge_sponge()) is None
    model = gen_model_sponge(6)
    doubled = SpongeComplex(6, fresh(model.faces), {c: 2 * v for c, v in model.incidence.items()})
    flipped = dict(model.incidence)
    flipped[next(iter(flipped))] *= -1
    invalid = SpongeComplex(6, fresh(model.faces), flipped)
    assert sponge.incidence_signs(model) is model.incidence
    assert not sponge.validate_sponge(invalid).is_valid
    expected = {}
    for name, z in (("model", model), ("doubled", doubled), ("invalid", invalid)):
        assert name == "model" or sponge.incidence_signs(z) is None
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize_sponge(z)))
        chained.clear()
        out = io.StringIO()
        code = cli_dispatch(["check-cm", str(path)], stdout=out)
        report = json.loads(out.getvalue())
        report.pop("input_digest")
        expected.setdefault("report", report)
        assert (code, report) == (0, expected["report"]), name
        # with the model's signing no interval enumerates its chains (its
        # (0^, y) are cones); without one, its (o, 1^) among others does
        assert bool(chained) == (name != "model"), name


def test_signings_that_differ_by_flipped_cells_agree_and_a_broken_one_falls_back(monkeypatch):
    """Flipping every sign at one element keeps d o d = 0 and every profile;
    flipping one cover's sign breaks a diamond relation, so the intervals
    that hold that diamond take the chain route, with the same profiles."""
    chained, celled = count_chain_routes(monkeypatch)
    z = gen_model_sponge(6)
    unsigned = fresh(z.faces)
    expected = {(x, y): interval_homology(unsigned, x, y)
                for x, y in open_intervals(z.faces) if x is not None}
    pivot = z.faces.elements_of_rank(2)[0]
    gauged = {(u, l): -v if pivot in (u, l) else v for (u, l), v in z.incidence.items()}
    broken = dict(z.incidence)
    broken[pivot, z.faces.lower_covers(pivot)[0]] *= -1
    for signs, falls_back in ((gauged, False), (broken, True)):
        p = fresh(z.faces)
        chained.clear()
        assert {xy: interval_homology(p, *xy, signs) for xy in expected} == expected
        assert bool(chained) == falls_back


def cube_boundary_sponge(balanced):
    """The 4-cube's 3-skeleton (n = 5), with the solver's signs if ``balanced``,
    else with both vertex incidences of every edge +1.

    For the latter the solver's signing is regauged: -1 at every vertex of
    one colour class (the cube's graph is bipartite), then -1 at each edge
    whose vertex incidences are -1.  Each flip keeps every diamond relation,
    so the sponge is valid with +-1 incidences, but C(0^, F) breaks d o d at
    every edge.
    """
    lattice = hypercube_lattice(4)
    keep = {f: d for f, d in lattice.faces if d <= 3}
    p = GradedPoset(keep.items(), [(u, l) for u, l in lattice.covers if u in keep])
    incidence = sign_solver(p)
    if balanced:
        return SpongeComplex(5, p, incidence)
    for v in p.elements_of_rank(0):
        if v.count("1") % 2:
            for e in p.upper_covers(v):
                incidence[e, v] *= -1
    for e in p.elements_of_rank(1):
        if incidence[e, p.lower_covers(e)[0]] < 0:
            for c in [(e, v) for v in p.lower_covers(e)] + [(t, e) for t in p.upper_covers(e)]:
                incidence[c] *= -1
    return SpongeComplex(5, p, incidence)


def test_lower_intervals_take_the_cellular_route_and_match_the_chain_route(monkeypatch):
    """Every (0^, F) is read from one cell per face below F when the sponge
    has +-1 incidences and the cells are a complex; otherwise, as with
    unbalanced edges, from its chains, with the same profile either way.
    (0^, 1^) enumerates its chains even with a signing."""
    chained, celled = count_chain_routes(monkeypatch)
    unbalanced = cube_boundary_sponge(balanced=False)
    assert sponge.validate_sponge(unbalanced).is_valid
    assert all(v in (1, -1) for v in unbalanced.incidence.values())
    assert all(sum(unbalanced.incidence[e, v] for v in unbalanced.faces.lower_covers(e)) == 2
               for e in unbalanced.faces.elements_of_rank(1))
    cellular = 0
    signed = [cube_boundary_sponge(balanced=True), gen_polytope_skeleton(simplex_lattice(5)),
              gen_polytope_skeleton(hypercube_lattice(5))]
    for z in [make() for make in corpus()] + signed + [unbalanced]:
        p, signs = fresh(z.faces), sponge.incidence_signs(z)  # gen fills z.faces' cache
        expected = {f: interval_homology(fresh(p), None, f) for f in p.elements()}
        chained.clear()
        celled.clear()
        assert {f: interval_homology(p, None, f, signs) for f in p.elements()} == expected, z
        if z is unbalanced:  # every 3-face tries its cells and falls back
            assert len(chained) == len(celled) == len(p.elements_of_rank(3)) == 8
        elif signs is not None:
            assert not chained, z
            cellular += len(celled)
    assert cellular == 8 + 15 + 40  # the 3-faces of the cube boundary and the skeleta
    octahedron = builtin("g42_octahedron")
    p = octahedron.faces
    chained.clear()
    celled.clear()
    assert interval_homology(p, None, None, sponge.incidence_signs(octahedron)) == (
        interval_homology(fresh(p), None, None))
    assert chained[-1] == set(p.elements()) and not celled
