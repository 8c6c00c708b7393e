import random
import time

import pytest

from sponges import complexes, sponge
from sponges.complexes import MalformedComplex, cohomology, homology, profile
from sponges.generators import (
    builtin,
    gen_model_sponge,
    gen_simplex_skeleton,
    graph_sponge,
    hypercube_lattice,
    octahedron_sponge,
    simplex_lattice,
)
from sponges.poset import (
    GradedPoset,
    order_complex,
    subposet,
)
from sponges.sponge import (
    NonCompactSponge,
    NotAcyclicSponge,
    NotDiamond,
    RealizationMismatch,
    SignUnsolvable,
    SpongeComplex,
    cellular_complex,
    check_acyclic,
    check_local_model,
    local_cohomology,
    realization_cross_check,
    sign_solver,
    validate_sponge,
)
from sponges.poset import UnknownElement

from oracles import local_cohomology_via_order_complex, sign_solver_by_sorted_pivots
from test_interval_homology import rp2_sponge
from test_poset import projective_plane_face_poset


def single_vertex_sponge():
    return SpongeComplex(
        n=2, faces=GradedPoset([("v0", 0)], []), incidence={}, name="point"
    )


def disjoint_triangles_sponge():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return graph_sponge(6, edges, name="two-triangles")


def path_graph_sponge():
    return graph_sponge(3, [(0, 1), (1, 2)], name="path")


# ---------------------------------------------------------------------------
# validation


def test_k33_with_alternating_signs_is_valid():
    report = validate_sponge(builtin("f3_k33"))
    assert report.is_valid


def test_octahedron_with_solver_signs_is_valid():
    report = validate_sponge(octahedron_sponge())
    assert report.is_valid


def test_flipping_one_incidence_breaks_the_diamonds_through_it():
    z = octahedron_sponge()
    flip = next(
        (u, l) for (u, l) in sorted(z.incidence) if u.startswith("tri:") and ":" in l
    )
    incidence = dict(z.incidence)
    incidence[flip] = -incidence[flip]
    broken = SpongeComplex(n=4, faces=z.faces, incidence=incidence)
    report = validate_sponge(broken)
    assert not report.is_valid
    # exactly the rank-2 intervals through the flipped cover pair fail:
    # one per endpoint vertex of that edge
    assert len(report.diamond_violations) == 2
    triangle, edge = flip
    endpoints = set(z.faces.lower_covers(edge))
    assert {(u, l) for u, l, _ in report.diamond_violations} == {
        (triangle, v) for v in endpoints
    }


def test_sponge_refuses_values_that_are_not_ints():
    """The incidences 1.5 and -1.9 used to become 1 and -1, and then validate;
    n = 3.0 used to fail only inside `face_counts`."""
    faces = GradedPoset([("v", 0), ("w", 0), ("e", 1)], [("e", "v"), ("e", "w")])
    for incidence in ({("e", "v"): 1.5, ("e", "w"): -1.9}, {("e", "v"): 1, ("e", "w"): -1.0},
                      {("e", "v"): True, ("e", "w"): -1}, {("e", "v"): "1", ("e", "w"): -1}):
        with pytest.raises(TypeError, match="integer"):
            SpongeComplex(n=3, faces=faces, incidence=incidence)
    for n in (3.0, True, "3"):
        with pytest.raises(TypeError, match="integer"):
            SpongeComplex(n=n, faces=faces, incidence={("e", "v"): 1, ("e", "w"): -1})
    z = SpongeComplex(n=3, faces=faces, incidence={("e", "v"): 1, ("e", "w"): -1})
    assert validate_sponge(z).is_valid and z.face_counts() == (2, 1)


def test_vertexless_face_detected():
    # an edge with no vertex below it
    z = SpongeComplex(
        n=3,
        faces=GradedPoset([("v", 0), ("e", 1)], []),
        incidence={},
    )
    report = validate_sponge(z)
    assert report.vertex_free_faces == ("e",)


# ---------------------------------------------------------------------------
# cellular complexes


def test_k33_cellular_ranks_and_homology():
    z = builtin("f3_k33")
    c = cellular_complex(z)
    assert (c.rank(0), c.rank(1)) == (6, 9)
    assert homology(c) == profile({0: (1, ()), 1: (4, ())})


def test_single_vertex_cellular():
    c = cellular_complex(single_vertex_sponge())
    assert c.rank(0) == 1
    assert homology(c) == profile({0: (1, ())})


def test_octahedron_cellular_reduced():
    z = builtin("g42_octahedron")
    c = cellular_complex(z, augmented=True)
    assert tuple(c.rank(d) for d in range(3)) == (6, 12, 11)
    h = homology(c)
    assert h == profile({2: (4, ())})  # reduced: only the top survives


def test_cellular_complex_is_cached_per_flag():
    z = builtin("g42_octahedron")
    for augmented in (False, True):
        assert cellular_complex(z, augmented) is cellular_complex(z, augmented)
    assert cellular_complex(z, False) is not cellular_complex(z, True)


def test_unbalanced_augmented_complex_is_never_cached():
    z = gen_model_sponge(3)
    for _ in range(2):
        with pytest.raises(MalformedComplex):
            cellular_complex(z, augmented=True)
    assert cellular_complex(z) is cellular_complex(z)


def _count_cell_complexes(monkeypatch):
    """The cells of every complex the sponge module builds, per degree."""
    builds = []
    cell_complex = sponge.cell_complex

    def counted(cells, faces):
        builds.append({d: list(cs) for d, cs in cells.items()})
        return cell_complex(cells, faces)

    monkeypatch.setattr(sponge, "cell_complex", counted)
    return builds


def test_realization_cross_check_reduces_each_cellular_boundary_once(monkeypatch):
    builds = _count_cell_complexes(monkeypatch)
    coreduced, reduced = [], []
    coreduce, smith = complexes._coreduce, complexes.smith_diagonal

    def recording_coreduce(c):
        coreduced.append((c, coreduce(c)))
        return coreduced[-1][1]

    def recording_smith(m):
        reduced.append(m)
        return smith(m)

    monkeypatch.setattr(complexes, "_coreduce", recording_coreduce)
    monkeypatch.setattr(complexes, "smith_diagonal", recording_smith)
    # the octahedron coreduces to its top cohomology; RP^2 keeps a 5x5 d_2
    for z, nonzero in ((octahedron_sponge(), []), (rp2_sponge(), [2])):
        for seen in (builds, coreduced, reduced):
            seen.clear()
        realization_cross_check(z)
        assert [min(cells) for cells in builds] == [-1]  # one augmented build, shared with check_acyclic
        c = cellular_complex(z, augmented=True)
        residuals = [r for source, r in coreduced if source is c]
        assert len(residuals) == 1  # one coreduction, shared with check_acyclic
        ranks, boundaries = residuals[0]
        assert [d for d, m in sorted(boundaries.items()) if not m.is_zero()] == nonzero
        for d in ranks:
            assert sum(m is boundaries.get(d) for m in reduced) == (d in nonzero), d
        assert not any(m is c.boundary(d) for m in reduced for d in c.degrees())


def test_local_cohomology_builds_one_section_complex_per_face(monkeypatch):
    builds = _count_cell_complexes(monkeypatch)
    wholes = []
    monkeypatch.setattr(sponge, "cellular_complex", lambda *args: wholes.append(args))
    z = gen_model_sponge(6)
    for f in z.faces.elements():
        local_cohomology(z, f)
    # each section complex holds exactly the faces above its face, the
    # p-faces in chain degree -p, and no cellular complex of the whole
    # sponge is built for them
    above = [{-d: [g for g in z.faces_of_dim(d) if g in z.faces.upset(f)] for d in range(z.n - 1)}
             for f in z.faces.elements()]
    assert builds == above and not wholes and not z._cellular


# ---------------------------------------------------------------------------
# acyclicity


def test_k33_acyclic():
    report = check_acyclic(builtin("f3_k33"))
    assert report.is_acyclic
    assert report.b_number == 4
    assert report.torsion_found == ()


def test_octahedron_acyclic():
    report = check_acyclic(builtin("g42_octahedron"))
    assert report.is_acyclic
    assert report.b_number == 4


def test_disjoint_triangles_not_acyclic():
    report = check_acyclic(disjoint_triangles_sponge())
    assert not report.is_acyclic
    assert report.skeleton_acyclic_up_to == -1  # reduced H^0 nonzero


def test_model_sponge_refuses_acyclicity_check():
    with pytest.raises(NonCompactSponge):
        check_acyclic(gen_model_sponge(4))


# ---------------------------------------------------------------------------
# local cohomology


def test_model_n4_local_cohomology_by_type():
    z = gen_model_sponge(4)
    assert local_cohomology(z, "o") == profile({2: (3, ())})
    assert local_cohomology(z, "1") == profile({2: (2, ())})
    assert local_cohomology(z, "1-2") == profile({2: (1, ())})


def test_local_cohomology_unknown_face():
    with pytest.raises(UnknownElement):
        local_cohomology(gen_model_sponge(4), "nope")


def test_model_local_cohomology_concentration_n3_to_n6():
    """Every face of type k: torsion-free, rank n-1-k, in degree n-2 only."""
    for n in range(3, 7):
        z = gen_model_sponge(n)
        for f in z.faces.elements():
            k = z.faces.rank(f)
            prof = local_cohomology(z, f)
            assert prof == profile({n - 2: (n - 1 - k, ())}), (n, f)


def test_local_cohomology_routes_agree_on_compact_corpus():
    """Cellular route == order-complex pair route for face-acyclic sponges."""
    for z in [builtin("f3_k33"), builtin("g42_octahedron"), builtin("cube_skeleton")]:
        for f in z.faces.elements():
            assert local_cohomology(z, f) == local_cohomology_via_order_complex(z, f), (
                z.name,
                f,
            )


def test_local_cohomology_routes_differ_on_the_local_model():
    """The model's faces are cones: the order-complex pair at the origin sees
    a contractible space, while the cellular computation gives the honest
    local answer.  This asymmetry is why the cellular route is primary."""
    z = gen_model_sponge(4)
    cellular = local_cohomology(z, "o")
    pair = local_cohomology_via_order_complex(z, "o")
    assert cellular == profile({2: (3, ())})
    assert pair == profile({0: (1, ())})  # H^* of a cone, rel nothing
    assert cellular != pair


# ---------------------------------------------------------------------------
# local model check


def test_k33_local_model():
    assert check_local_model(builtin("f3_k33")).passed


def test_octahedron_local_model():
    report = check_local_model(builtin("g42_octahedron"))
    assert report.passed
    # every vertex in 4 edges, every edge in 3 two-faces
    z = builtin("g42_octahedron")
    for v in z.faces_of_dim(0):
        assert len(z.faces.upper_covers(v)) == 4
    for e in z.faces_of_dim(1):
        assert len(z.faces.upper_covers(e)) == 3


def test_path_graph_fails_local_model():
    report = check_local_model(path_graph_sponge())
    assert not report.passed
    failing = {f for f, *_ in report.violations}
    assert {"v0", "v2"} <= failing  # the degree-1 endpoints certainly fail
    degree_one = [v for v, k, found, want in report.violations if found == 1]
    assert set(degree_one) == {"v0", "v2"}


# ---------------------------------------------------------------------------
# sign solving


def solver_diamond_ok(faces, signs):
    z = SpongeComplex(n=faces.max_rank() + 2, faces=faces, incidence=signs)
    return validate_sponge(z).is_valid


def test_sign_solver_model_n4():
    faces = gen_model_sponge(4).faces
    signs = sign_solver(faces)
    assert all(v in (1, -1) for v in signs.values())
    assert solver_diamond_ok(faces, signs)
    # the simplicial convention is itself a valid solution of the system
    simplicial = gen_model_sponge(4).incidence
    assert solver_diamond_ok(faces, simplicial)


def test_sign_solver_octahedron_poset():
    faces = octahedron_sponge().faces
    signs = sign_solver(faces)
    assert solver_diamond_ok(faces, signs)


def test_sign_solver_graph_posets_balanced():
    """Dimension <= 1: no diamonds, but edge signs come out balanced so the
    oriented complex has honest H_0 (all +1 would satisfy the empty diamond
    system too, yet breaks the augmented complex)."""
    faces = builtin("f3_k33").faces
    signs = sign_solver(faces)
    for e in faces.elements_of_rank(1):
        v, w = faces.lower_covers(e)
        assert signs[(e, v)] + signs[(e, w)] == 0


def test_solver_signs_give_correct_integral_homology():
    # a lone triangle: disc => H_0 = Z and nothing else, no spurious torsion
    elements = [("a", 0), ("b", 0), ("c", 0),
                ("ab", 1), ("ac", 1), ("bc", 1), ("f", 2)]
    covers = [("ab", "a"), ("ab", "b"), ("ac", "a"), ("ac", "c"),
              ("bc", "b"), ("bc", "c"), ("f", "ab"), ("f", "ac"), ("f", "bc")]
    faces = GradedPoset(elements, covers)
    signs = sign_solver(faces)
    z = SpongeComplex(n=4, faces=faces, incidence=signs)
    assert homology(cellular_complex(z)) == profile({0: (1, ())})


def skeleton_poset(lattice):
    """The faces of dimension at most n-2 of an n-polytope, unsigned."""
    keep = {f: d for f, d in lattice.faces if d <= lattice.dimension - 2}
    return GradedPoset(keep.items(), [(u, l) for u, l in lattice.covers if u in keep and l in keep])


def relabelled_poset(p, seed):
    """The same poset with seeded names, so the unknowns come in another order."""
    rng = random.Random(seed)
    names = {e: f"{rng.randrange(10**6):06d}-{e}" for e in p.elements()}
    return GradedPoset([(names[e], rk) for e, rk in p.ranks.items()],
                       [(names[u], names[l]) for u, l in p.covers()])


def solver_outcome(solve, p):
    try:
        return solve(p)
    except (NotDiamond, SignUnsolvable) as err:
        return type(err), err.args


def test_sign_solver_matches_the_sorted_pivot_oracle():
    """Equal assignments, or equal exceptions, on the builtins, the cube and
    simplex skeleta, seeded relabellings of those, a poset with a one-middle
    rank-2 interval and a non-orientable boundary."""
    posets = [builtin(name).faces for name in
              ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3", "model_n4")]
    posets += [skeleton_poset(hypercube_lattice(d)) for d in range(2, 6)]
    posets += [skeleton_poset(simplex_lattice(d)) for d in range(2, 8)]
    posets += [relabelled_poset(p, seed) for seed, p in enumerate(list(posets))]
    chain = GradedPoset([("a", 0), ("b", 1), ("c", 2)], [("b", "a"), ("c", "b")])
    rp2 = projective_plane_face_poset()  # a 3-face over it has no +-1 boundary
    solid = GradedPoset([*rp2.ranks.items(), ("T", 3)],
                        [*rp2.covers(), *(("T", t) for t in rp2.elements_of_rank(2))])
    seen = set()
    for p in posets + [chain, solid]:
        got = solver_outcome(sign_solver, p)
        assert got == solver_outcome(sign_solver_by_sorted_pivots, p), p
        seen.add(got[0] if isinstance(got, tuple) else dict)
    assert seen == {dict, NotDiamond, SignUnsolvable}


def test_sign_solver_on_the_6_cube_skeleton_is_fast():
    p = skeleton_poset(hypercube_lattice(6))
    start = time.perf_counter()
    signs = sign_solver(p)
    assert time.perf_counter() - start < 1
    assert solver_diamond_ok(p, signs)


# ---------------------------------------------------------------------------
# realization cross-check


def test_realization_cross_check_k33():
    report = realization_cross_check(builtin("f3_k33"))
    assert report.cellular[1] == (4, ())


def test_realization_cross_check_octahedron():
    report = realization_cross_check(builtin("g42_octahedron"))
    assert report.cellular[2] == (4, ())
    assert report.cellular[0] == (0, ())


def test_realization_cross_check_single_vertex():
    report = realization_cross_check(single_vertex_sponge())
    assert all(v == (0, ()) for v in report.cellular.values())


def test_realization_mismatch_on_non_unit_incidence():
    # incidence +-2 on a single edge keeps all axioms (no diamonds, balanced
    # boundary, lower interval a 0-sphere) but puts 2-torsion in the cellular
    # side that the order complex cannot see: the cross-check must fire
    z = SpongeComplex(
        n=3,
        faces=GradedPoset([("v", 0), ("w", 0), ("e", 1)], [("e", "v"), ("e", "w")]),
        incidence={("e", "v"): 2, ("e", "w"): -2},
    )
    assert validate_sponge(z).is_valid
    assert check_acyclic(z).faces_ok
    with pytest.raises(RealizationMismatch) as err:
        realization_cross_check(z)
    assert err.value.degree == 1
    assert err.value.cellular == (0, (2,))


def test_realization_cross_check_requires_face_acyclicity():
    # a 2-face bounded by two disjoint triangles: every (vertex, face)
    # interval is still a diamond, but strictly_below(F) is two circles,
    # not a single one, so the face condition fails
    elements, covers = [], []
    for tri in ("a", "b"):
        for i in range(3):
            elements.append((f"{tri}{i}", 0))
        for i in range(3):
            e = f"{tri}e{i}"
            elements.append((e, 1))
            covers.append((e, f"{tri}{i}"))
            covers.append((e, f"{tri}{(i + 1) % 3}"))
    elements.append(("F", 2))
    covers.extend(("F", f"{tri}e{i}") for tri in ("a", "b") for i in range(3))
    faces = GradedPoset(elements, covers)
    z = SpongeComplex(n=4, faces=faces, incidence=sign_solver(faces))
    assert validate_sponge(z).is_valid
    with pytest.raises(NotAcyclicSponge):
        realization_cross_check(z)


def test_multigraph_sponge_accepted():
    # parallel edges (a biangle pair): valid n=3 sponge, acyclic with b = 1
    z = graph_sponge(2, [(0, 1), (0, 1)], name="biangle")
    assert validate_sponge(z).is_valid
    report = check_acyclic(z)
    assert report.is_acyclic
    assert report.b_number == 1  # a circle made of two parallel edges


# ---------------------------------------------------------------------------
# upper intervals of the model vs simplex skeleta


def test_model_upper_intervals_match_simplex_skeleta():
    """|strictly_above(F)| for dim F = k is the barycentric model of the
    (n-3-k)-skeleton of a simplex on n-k vertices: reduced cohomology is
    rank n-1-k in degree n-3-k."""
    for n in (4, 5):
        z = gen_model_sponge(n)
        for f in z.faces.elements():
            k = z.faces.rank(f)
            above = subposet(z.faces, "strictly_above", f)
            got = cohomology(order_complex(above).chain_complex(augmented=True))
            skeleton = gen_simplex_skeleton(n - k - 1, n - 3 - k) if n - 3 - k >= 0 else None
            if skeleton is None:
                expected = profile({-1: (1, ())})  # empty complex
            else:
                expected = cohomology(skeleton.chain_complex(augmented=True))
            assert got == expected, (n, f)
            assert got == profile({n - 3 - k: (n - 1 - k, ())}), (n, f)
