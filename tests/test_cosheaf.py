import copy
import hashlib
import io
import json
import random
from math import gcd

import pytest

from sponges import complexes, cosheaf, exactalg, sponge
from sponges.cli import cli_dispatch, serialize_sponge
from sponges.complexes import RationalHomologyBasis, cohomology, homology, profile
from sponges.cosheaf import (
    NotCohenMacaulay,
    RankMismatch,
    assemble_chain_complex,
    build_cosheaf,
    cosheaf_homology,
    dihomology_check,
)
from sponges.generators import (
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_trivalent_sponges,
    hypercube_lattice,
    k33_sponge,
    simplex_lattice,
)
from sponges.poset import GradedPoset, order_complex
from sponges.sponge import SpongeComplex, faces_above, local_cohomology, section_complex

from oracles import (
    cochain_complex,
    cosheaf_homology_dense,
    dense_basis_mismatches,
    section_cochain_subcomplex,
    section_complex_via_quotient,
)


def two_disjoint_chains_sponge():
    faces = GradedPoset(
        [("a0", 0), ("a1", 1), ("b0", 0), ("b1", 1)],
        [("a1", "a0"), ("b1", "b0")],
    )
    return SpongeComplex(
        n=3, faces=faces, incidence={("a1", "a0"): 1, ("b1", "b0"): 1}
    )


def weighted_k33_sponge():
    """K_{3,3} with incidences -2, -2 and 3 on three edges: fractional cover maps."""
    z = k33_sponge()
    incidence = dict(z.incidence)
    incidence[("l1:r2", "l1")] = -2
    incidence[("l1:r3", "l1")] = -2
    incidence[("l2:r3", "r3")] = 3
    return SpongeComplex(n=3, faces=z.faces, incidence=incidence, name="weighted-k33")


def cosheaf_corpus():
    yield from (builtin(name) for name in
                ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3", "model_n4"))
    yield from gen_trivalent_sponges(8)
    yield gen_polytope_skeleton(simplex_lattice(4))
    yield gen_polytope_skeleton(hypercube_lattice(4))
    yield gen_model_sponge(5)
    yield weighted_k33_sponge()


# sha256 of the sections, integral sections and sorted cover maps over
# cosheaf_corpus() plus model n=6, recorded before sections were read off
# `section_complex`
COSHEAF_DIGEST = "15f2371a21cae0b97ecf230aa331a2053bbaf929ebb0aff6d3015f84652f46ec"
# the same over model n=7 alone, recorded while the bases were dense
# Gauss-Jordan eliminations
COSHEAF_MODEL7_DIGEST = "3a7818b846ffa7503b7314ef5367409af11554820a9d0d736a1de239fd47f49d"


def cosheaf_digest(sponges):
    h = hashlib.sha256()
    for z in sponges:
        c = build_cosheaf(z)
        for s in z.faces.elements():
            h.update(repr((s, c.sections[s], c.sections_integral[s])).encode())
        for key in sorted(c.cover_maps):
            h.update(repr((key, sorted(c.cover_maps[key].items()))).encode())
    return h.hexdigest()


def test_cosheaf_digest_is_pinned():
    assert cosheaf_digest([*cosheaf_corpus(), gen_model_sponge(6)]) == COSHEAF_DIGEST


def test_cosheaf_digest_of_model_7_is_pinned():
    assert cosheaf_digest([gen_model_sponge(7)]) == COSHEAF_MODEL7_DIGEST


def test_section_bases_match_dense_oracle():
    """Every section cochain complex of the corpus and of model 6 gets the
    dense oracle's representatives and exact coordinates."""
    rng = random.Random(2718)
    for z in [*cosheaf_corpus(), gen_model_sponge(6)]:
        for s in z.faces.elements():
            assert not dense_basis_mismatches(section_complex(z, s), rng), (z.name, s)


def test_cosheaf_eliminates_once_per_section_and_degree(monkeypatch):
    """Each section's homology basis reduces every boundary once, and asks
    for no Smith transform; the cover maps read coordinates from it without
    reducing it again."""
    building, reads, changed, smith_calls = [], [], [], []
    init, boundary = RationalHomologyBasis.__init__, complexes.IntegerChainComplex.boundary
    coordinates = RationalHomologyBasis.coordinates

    def counted_init(self, c):
        building.append([])
        init(self, c)
        reads.append((building.pop(), c.degrees()))

    def counted_boundary(self, degree):
        if building:
            building[-1].append(degree)
        return boundary(self, degree)

    def counted_coordinates(self, degree, vectors):
        kept = copy.deepcopy(self._kept)
        try:
            return coordinates(self, degree, vectors)
        finally:
            changed.append(kept != self._kept)

    monkeypatch.setattr(RationalHomologyBasis, "__init__", counted_init)
    monkeypatch.setattr(complexes.IntegerChainComplex, "boundary", counted_boundary)
    monkeypatch.setattr(RationalHomologyBasis, "coordinates", counted_coordinates)
    monkeypatch.setattr(exactalg, "smith_normal_form", lambda m: smith_calls.append(m))
    model = gen_model_sponge(6)
    c = build_cosheaf(model)
    assert c.cover_maps and len(model.faces) == 57 and len(reads) == 57
    for read, degrees in reads:
        # one pass per degree and one below the lowest: the boundaries
        # d_{d+1}, each read once
        assert sorted(read) == [d + 1 for d in [degrees[0] - 1, *degrees]]
        assert len(degrees) == 5  # every section complex has 5 degrees here
    assert not smith_calls
    assert changed and not any(changed)


def doubled_edge_sponge():
    """One edge with incidences 2 and -2: Z/2 in H^1 of each vertex's section."""
    p = GradedPoset([("v", 0), ("w", 0), ("e", 1)], [("e", "v"), ("e", "w")])
    return SpongeComplex(n=3, faces=p, incidence={("e", "v"): 2, ("e", "w"): -2})


def test_sections_are_local_cohomology_of_the_section_complex():
    """Each section complex is the cochain subcomplex on the faces above s,
    its homology is the cohomology of the cellular complex modulo the faces
    not above s, and the cosheaf's sections are local cohomology."""
    torsion = build_cosheaf(doubled_edge_sponge())
    assert torsion.sections_integral["v"] == profile({1: (0, (2,))})
    assert torsion.sections["v"].is_trivial()
    for z in [*cosheaf_corpus(), doubled_edge_sponge()]:
        c = build_cosheaf(z)
        for s in z.faces.elements():
            assert section_complex(z, s) == section_cochain_subcomplex(z, s), (z.name, s)
            quotient = section_complex_via_quotient(z, s)
            for coefficients, sections in (("integers", c.sections_integral),
                                           ("rationals", c.sections)):
                local = local_cohomology(z, s, coefficients)
                assert local == cohomology(quotient, coefficients), (z.name, s)
                assert sections[s] == local, (z.name, s)


def test_cosheaf_builds_one_complex_per_face_and_no_transpose(monkeypatch):
    """Model 6's cosheaf builds one cell complex per face, its section
    complex on the faces above it, found once, and transposes no matrix."""
    built, transposed, above = [], [], []
    cell_complex, transpose = sponge.cell_complex, exactalg.IntegerMatrix.transpose
    faces_above = sponge.faces_above
    monkeypatch.setattr(sponge, "cell_complex", lambda *args: built.append(args) or cell_complex(*args))
    for module in (sponge, cosheaf):
        monkeypatch.setattr(module, "faces_above",
                            lambda z, s: above.append(s) or faces_above(z, s))
    monkeypatch.setattr(exactalg.IntegerMatrix, "transpose",
                        lambda m: transposed.append(m) or transpose(m))
    model = gen_model_sponge(6)
    build_cosheaf(model)
    assert len(model.faces) == 57 and len(built) == 57
    assert sorted(above) == sorted(model.faces.elements())
    assert not transposed


def test_cosheaf_homology_matches_dense_oracle():
    for z in cosheaf_corpus():
        c = build_cosheaf(z)
        for p in range(z.n):
            assert cosheaf_homology(c, p) == cosheaf_homology_dense(c, p), (z.name, p)


def test_weighted_k33_has_fractional_cover_maps():
    c = build_cosheaf(weighted_k33_sponge())
    denominators = {x.denominator for maps in c.cover_maps.values()
                    for row in maps.get(1, []) for x in row}
    assert denominators == {1, 2}
    assert cosheaf_homology(c, 1) == profile({0: (4, ()), 1: (1, ())})
    assert dihomology_check(c.base).passed


def test_assembled_boundary_is_scaled_by_lcm_of_denominators():
    c = build_cosheaf(builtin("g42_octahedron"))
    unscaled = assemble_chain_complex(c, 2)
    # thirds on the rank-2 cover maps scale d_2 by 1/3: still a complex, same ranks
    for (s, _), maps in c.cover_maps.items():
        if c.base.faces.rank(s) == 2:
            maps[2] = [[x / 3 for x in row] for row in maps[2]]
    scaled = assemble_chain_complex(c, 2)
    assert scaled.boundary(1) == unscaled.boundary(1)
    gcd2 = gcd(*(v for _, _, v in unscaled.boundary(2).nonzero_items()))
    assert gcd2 % 3  # so the lcm of the thirds' denominators is exactly 3
    assert scaled.boundary(2) == unscaled.boundary(2)
    expected = profile({0: (4, ()), 2: (1, ())})
    assert cosheaf_homology(c, 2) == cosheaf_homology_dense(c, 2) == expected


def test_k33_sections():
    c = build_cosheaf(builtin("f3_k33"))
    for v in ["l1", "l2", "l3", "r1", "r2", "r3"]:
        assert c.sections[v] == profile({1: (2, ())})
    for s in c.base.faces_of_dim(1):
        assert c.sections[s] == profile({1: (1, ())})


def test_two_chain_sections():
    # a single cover e > v: the relative complex over v is a cone pair
    faces = GradedPoset([("v", 0), ("e", 1)], [("e", "v")])
    z = SpongeComplex(n=3, faces=faces, incidence={("e", "v"): 1})
    c = build_cosheaf(z)
    assert c.sections["v"].is_trivial()
    assert c.sections["e"] == profile({1: (1, ())})


def test_single_element_section_is_a_point():
    z = SpongeComplex(n=2, faces=GradedPoset([("v", 0)], []), incidence={})
    c = build_cosheaf(z)
    assert c.sections["v"] == profile({0: (1, ())})


def test_cover_maps_functorial_through_diamonds():
    """For every rank-2 interval, the two raw composites agree, and the
    incidence-signed composites cancel (this is what makes the boundary
    square to zero)."""
    z = builtin("g42_octahedron")
    c = build_cosheaf(z)
    p = z.n - 2

    def compose(m2, m1):
        if not m1 or not m2:
            return []
        rows = len(m2)
        mid = len(m1)
        cols = len(m1[0]) if m1 else 0
        return [
            [
                sum(m2[i][k] * m1[k][j] for k in range(mid))
                for j in range(cols)
            ]
            for i in range(rows)
        ]

    from sponges.sponge import rank2_intervals

    for upper, lower, middles in rank2_intervals(z.faces):
        g1, g2 = middles
        via1 = compose(c.cover_map(g1, lower, p), c.cover_map(upper, g1, p))
        via2 = compose(c.cover_map(g2, lower, p), c.cover_map(upper, g2, p))
        assert via1 == via2
        s1 = z.incidence[(upper, g1)] * z.incidence[(g1, lower)]
        s2 = z.incidence[(upper, g2)] * z.incidence[(g2, lower)]
        assert s1 + s2 == 0
        if via1:
            signed_sum = [
                [s1 * a + s2 * b for a, b in zip(r1, r2)]
                for r1, r2 in zip(via1, via2)
            ]
            assert all(x == 0 for row in signed_sum for x in row)


def test_cosheaf_homology_k33():
    c = build_cosheaf(builtin("f3_k33"))
    h = cosheaf_homology(c, 1)
    assert h == profile({0: (4, ()), 1: (1, ())})
    # independent side: cohomology of the order complex
    oc = cohomology(order_complex(c.base.faces).chain_complex(), "rationals")
    assert (oc.free_rank(1), oc.free_rank(0)) == (4, 1)


def test_cosheaf_homology_octahedron():
    c = build_cosheaf(builtin("g42_octahedron"))
    h = cosheaf_homology(c, 2)
    assert h == profile({0: (4, ()), 2: (1, ())})


def test_cosheaf_homology_model_n4():
    c = build_cosheaf(gen_model_sponge(4))
    h = cosheaf_homology(c, 2)
    assert h == profile({2: (1, ())})


def test_boundary_squares_to_zero_is_asserted():
    c = build_cosheaf(builtin("g42_octahedron"))
    assembled = assemble_chain_complex(c, 2)
    assert assembled.rank(0) == 6 * 3  # rank-0 sections have rank n-1
    assert assembled.rank(1) == 12 * 2
    assert assembled.rank(2) == 11 * 1
    # one flipped entry of a cover map out of rank 2 breaks d o d = 0
    upper, lower = next((s, t) for s, t in sorted(c.cover_maps) if c.base.faces.rank(s) == 2)
    c.cover_maps[(upper, lower)][2][0][0] += 1
    with pytest.raises(RuntimeError, match="does not square to zero"):
        assemble_chain_complex(c, 2)


def test_dihomology_k33():
    report = dihomology_check(builtin("f3_k33"))
    assert report.passed
    assert report.cosheaf_ranks == (4, 1)
    assert report.order_complex_ranks == (4, 1)
    assert report.concentrated
    assert report.section_torsion == ()


def test_dihomology_octahedron():
    report = dihomology_check(builtin("g42_octahedron"))
    assert report.passed
    assert report.cosheaf_ranks == (4, 0, 1)


def test_dihomology_cube():
    report = dihomology_check(builtin("cube_skeleton"))
    assert report.passed
    assert report.cosheaf_ranks == (5, 1)


def test_dihomology_model_n4():
    report = dihomology_check(gen_model_sponge(4))
    assert report.passed
    assert report.cosheaf_ranks == (0, 0, 1)
    assert report.order_complex_ranks == (0, 0, 1)  # |S| is a cone


def test_dihomology_requires_cohen_macaulay():
    with pytest.raises(NotCohenMacaulay):
        dihomology_check(two_disjoint_chains_sponge())


def test_dihomology_across_small_corpus():
    """Sections concentrate in the top degree and both sides agree for every
    connected cubic sponge on <= 6 vertices and the 4-simplex skeleton."""
    from sponges.generators import gen_polytope_skeleton, gen_trivalent_sponges, simplex_lattice
    from sponges.sponge import check_acyclic

    corpus = list(gen_trivalent_sponges(6))
    corpus.append(gen_polytope_skeleton(simplex_lattice(4)))
    for z in corpus:
        report = dihomology_check(z)
        assert report.passed, z.name
        assert report.concentrated
        b = check_acyclic(z).b_number
        assert report.cosheaf_ranks[0] == b
        assert report.cosheaf_ranks[-1] == 1  # H^0 of a connected realization


def lone_vertex_sponge():
    """One vertex at n=3: valid and Cohen-Macaulay, its section Z in degree 0, not n-2."""
    return SpongeComplex(n=3, faces=GradedPoset([("v", 0)], []), incidence={})


def edge_sponge(n):
    """One edge with incidences 1 and -1; at n=50 its section at e sits in degree 1, not 48."""
    p = GradedPoset([("v", 0), ("w", 0), ("e", 1)], [("e", "v"), ("e", "w")])
    return SpongeComplex(n=n, faces=p, incidence={("e", "v"): 1, ("e", "w"): -1})


def double_complex_corpus():
    yield from cosheaf_corpus()
    yield doubled_edge_sponge()
    yield two_disjoint_chains_sponge()
    yield from gen_trivalent_sponges(10)
    yield gen_polytope_skeleton(simplex_lattice(5))
    yield gen_polytope_skeleton(hypercube_lattice(5))
    yield from (gen_model_sponge(n) for n in range(3, 10))


def double_complex_homology(z, coefficients):
    generators = {s: faces_above(z, s) for s in z.faces.elements()}
    return homology(cosheaf._double_complex(z, generators), coefficients)


def test_double_complex_has_the_cosheaf_homology():
    """Where every rational section sits in degree n-2, H_k(D) over Q is the
    cosheaf's homology in degree k + n - 2, in every degree; the two stray
    sponges are the ones left out."""
    compared, stray = 0, []
    for z in [*double_complex_corpus(), lone_vertex_sponge(), edge_sponge(50)]:
        c, top = build_cosheaf(z), z.n - 2
        if any(d != top for s in z.faces.elements() for d in c.sections[s].degrees()):
            stray.append(z)
            continue
        general = cosheaf_homology(c, top)
        shifted = profile({d - top: (general.free_rank(d), ()) for d in general.degrees()})
        assert double_complex_homology(z, "rationals") == shifted, z.name
        compared += 1
    assert compared == 55
    assert [(z.n, len(z.faces)) for z in stray] == [(3, 1), (50, 3)]


def test_doubled_edge_double_complex_has_torsion_only_over_z():
    """The +-2 incidences put Z/2 in H_{-1}(D) over Z, with the free ranks
    of the rationals: so D is read over Q."""
    z = doubled_edge_sponge()
    over_z = double_complex_homology(z, "integers")
    over_q = double_complex_homology(z, "rationals")
    assert over_z == profile({-1: (0, (2, 2)), 0: (1, ())})
    assert over_q == profile({0: (1, ())})
    assert cosheaf_homology(build_cosheaf(z), 1) == profile({1: (1, ())})


def spy(monkeypatch, owner, name, calls):
    """Replace ``owner.name`` by a wrapper that appends its qualified name to ``calls``."""
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(original.__qualname__)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


def test_dihomology_takes_one_route_and_builds_each_section_once(monkeypatch):
    """Model 6 reads its ranks from D: no rational basis, cover map or
    cosheaf.  The lone vertex and the edge at n=50 have a stray section and
    take the general route.  Either way each face's section complex is built
    once."""
    calls, above = [], []
    spy(monkeypatch, RationalHomologyBasis, "__init__", calls)
    for owner in (cosheaf, complexes):
        spy(monkeypatch, owner, "induced_map_on_homology", calls)
    for name in ("build_cosheaf", "cosheaf_homology", "_double_complex"):
        spy(monkeypatch, cosheaf, name, calls)
    spy(monkeypatch, sponge, "cell_complex", calls)
    original_faces_above = cosheaf.faces_above
    monkeypatch.setattr(cosheaf, "faces_above",
                        lambda z, s: above.append(s) or original_faces_above(z, s))

    def counts():
        out = {name: calls.count(name) for name in sorted(set(calls))}
        calls.clear()
        return out

    model = gen_model_sponge(6)
    assert dihomology_check(model).passed
    assert counts() == {"_double_complex": 1, "cell_complex": 57}
    assert sorted(above) == sorted(model.faces.elements())
    for z in (lone_vertex_sponge(), edge_sponge(50)):
        above.clear()
        with pytest.raises(RankMismatch):
            dihomology_check(z)
        faces, covers = len(z.faces), len(z.faces.covers())
        assert counts() == {"RationalHomologyBasis.__init__": faces, "cell_complex": faces,
                            "cosheaf_homology": 1,
                            **({"induced_map_on_homology": covers} if covers else {})}
        assert sorted(above) == sorted(z.faces.elements())


# sha256 of the dihomology-check stdout and its exit code, recorded while
# every cosheaf rank was read from rational bases and induced maps
DIHOMOLOGY_STDOUT_DIGESTS = {
    "lone_vertex": (1, "d300c1ed325ad86f8ff60afab25907775f5f3c01d14fffea58437a12b01e54f9"),
    "edge_n50": (1, "816258f657eb1eab85108e180d62d56df2619f84458104c3cd071870c58e97f4"),
    "model_n8": (0, "d068d8187da4838d1f074fd0d077568d30e80816040eafb1510a165b12be95cd"),
}


def test_dihomology_stdout_is_pinned(tmp_path):
    documents = {"lone_vertex": lone_vertex_sponge(), "edge_n50": edge_sponge(50),
                 "model_n8": gen_model_sponge(8)}
    for name, z in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize_sponge(z)))
        out, err = io.StringIO(), io.StringIO()
        code = cli_dispatch(["dihomology-check", str(path)], stdout=out, stderr=err)
        assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == \
            DIHOMOLOGY_STDOUT_DIGESTS[name], name
