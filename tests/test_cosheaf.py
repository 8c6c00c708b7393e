import hashlib
from math import gcd

import pytest

from sponges import complexes
from sponges.complexes import RationalHomologyBasis, cochain_complex, cohomology, profile
from sponges.cosheaf import (
    NotCohenMacaulay,
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
from sponges.sponge import SpongeComplex, local_cohomology, section_complex

from oracles import cosheaf_homology_dense, section_cochain_subcomplex


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


def test_cosheaf_digest_is_pinned():
    h = hashlib.sha256()
    for z in [*cosheaf_corpus(), gen_model_sponge(6)]:
        c = build_cosheaf(z)
        for s in z.faces.elements():
            h.update(repr((s, c.sections[s], c.sections_integral[s])).encode())
        for key in sorted(c.cover_maps):
            h.update(repr((key, sorted(c.cover_maps[key].items()))).encode())
    assert h.hexdigest() == COSHEAF_DIGEST


def test_cosheaf_eliminates_once_per_section_and_degree(monkeypatch):
    """Each section's homology basis is one elimination per degree, and the
    cover maps read coordinates from it without eliminating again."""
    eliminations, open_coordinates = [], []
    rational_rref = complexes.rational_rref
    coordinates = RationalHomologyBasis.coordinates

    def counted_rref(rows):
        eliminations.append(bool(open_coordinates))
        return rational_rref(rows)

    def counted_coordinates(self, degree, vectors):
        open_coordinates.append(degree)
        try:
            return coordinates(self, degree, vectors)
        finally:
            open_coordinates.pop()

    monkeypatch.setattr(complexes, "rational_rref", counted_rref)
    monkeypatch.setattr(RationalHomologyBasis, "coordinates", counted_coordinates)
    model = gen_model_sponge(6)
    c = build_cosheaf(model)
    assert c.cover_maps and len(model.faces) == 57
    assert len(eliminations) == 57 * 5  # every section complex has degrees 0..4 here
    assert not any(eliminations)


def doubled_edge_sponge():
    """One edge with incidences 2 and -2: Z/2 in H^1 of each vertex's section."""
    p = GradedPoset([("v", 0), ("w", 0), ("e", 1)], [("e", "v"), ("e", "w")])
    return SpongeComplex(n=3, faces=p, incidence={("e", "v"): 2, ("e", "w"): -2})


def test_sections_are_local_cohomology_of_the_section_complex():
    """The cochain complex of each section quotient is the cochain subcomplex
    on the faces above s, and the cosheaf's sections are local cohomology."""
    torsion = build_cosheaf(doubled_edge_sponge())
    assert torsion.sections_integral["v"] == profile({1: (0, (2,))})
    assert torsion.sections["v"].is_trivial()
    for z in [*cosheaf_corpus(), doubled_edge_sponge()]:
        c = build_cosheaf(z)
        for s in z.faces.elements():
            quotient = section_complex(z, s)
            assert cochain_complex(quotient) == section_cochain_subcomplex(z, s), (z.name, s)
            assert c.sections_integral[s] == local_cohomology(z, s), (z.name, s)
            assert c.sections[s] == local_cohomology(z, s, "rationals"), (z.name, s)


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
