"""Complexes built from cells and their signed faces.

Simplicial, cellular, section and open-interval complexes all come from
`complexes.cell_complex`.  A digest pins every boundary matrix they had when
each was assembled by hand, and the homology of every open interval is
checked against the order complex of the interval built afresh.
"""

import hashlib
import random

import pytest

from sponges.complexes import MalformedComplex, cell_complex, homology, profile
from sponges.generators import (
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_simplex_skeleton,
    gen_trivalent_sponges,
    hypercube_lattice,
)
from sponges.poset import SimplicialComplex, interval_homology, order_complex
from sponges.sponge import cellular_complex, section_complex

from oracles import (
    cochain_complex,
    interval_homology_via_order_complex,
    section_complex_via_quotient,
    simplicial_chain_complex,
)
from test_poset import projective_plane_face_poset, random_graded_poset, relabelled


def digest_sponges():
    return [builtin("g42_octahedron"), gen_model_sponge(5),
            gen_polytope_skeleton(hypercube_lattice(4))]


def digest_simplicial_complexes():
    yield SimplicialComplex([], [])
    for m, k in ((3, 1), (3, 2), (4, 2), (5, 3)):
        yield gen_simplex_skeleton(m, k)
    for z in digest_sponges():
        yield order_complex(z.faces)
    yield order_complex(projective_plane_face_poset())


def _update(h, c) -> None:
    h.update(repr([(d, c.rank(d), c.boundary(d).shape, c.boundary(d).nonzero_items())
                   for d in c.degrees()]).encode())


# sha256 of the degrees, ranks and boundary nonzeros of every complex the test
# builds, recorded when simplicial and cellular boundaries were assembled by
# hand and section complexes were quotients of the whole cellular complex, so
# the test hashes those quotients and checks that each section complex is
# their cochain complex
BOUNDARY_DIGEST = "17917095c8370af7f47aef8f8a3e07befb7035fdbcb1bf9ecaccc4e5cd20a39e"


def test_boundaries_match_pinned_digest():
    h = hashlib.sha256()
    for k in digest_simplicial_complexes():
        for augmented in (False, True):
            _update(h, k.chain_complex(augmented))
    for z in digest_sponges():
        for augmented in (False, True):
            try:
                _update(h, cellular_complex(z, augmented))
            except MalformedComplex as err:
                h.update(str(err).encode())
        for f in z.faces.elements():
            quotient = section_complex_via_quotient(z, f)
            _update(h, quotient)
            assert section_complex(z, f) == cochain_complex(quotient), (z.name, f)
    assert h.hexdigest() == BOUNDARY_DIGEST


def open_intervals(p):
    """Every open interval (x, y) of P^, with None for 0^ and 1^."""
    yield None, None
    for x in p.elements():
        yield None, x
        yield x, None
        yield from ((x, y) for y in p.elements() if y != x and y in p.upset(x))


def interval_posets():
    """The digest sponges' face posets, RP^2, the cubic sponges to 8 vertices
    and 120 seeded random graded posets, 40 of them relabelled."""
    rng = random.Random(2009)
    posets = [z.faces for z in digest_sponges()]
    posets += [projective_plane_face_poset(), relabelled(projective_plane_face_poset(), 3)]
    posets += [z.faces for z in gen_trivalent_sponges(8)]
    posets += [random_graded_poset(rng) for _ in range(80)]
    posets += [relabelled(random_graded_poset(rng), k) for k in range(40)]
    return posets


def test_interval_homology_matches_order_complex_oracle():
    nontrivial = set()
    for p in interval_posets():
        for x, y in open_intervals(p):
            expected = interval_homology_via_order_complex(p, x, y)
            assert interval_homology(p, x, y) == expected, (p, x, y)
            nontrivial.update((d, bool(expected[0].torsion(d))) for d in expected[0].degrees())
    # spheres of several dimensions and torsion all occur
    assert {(-1, False), (0, False), (1, False), (2, False), (1, True)} <= nontrivial


def test_simplicial_boundaries_match_matrix_by_matrix_assembly():
    rng = random.Random(1936)
    for _ in range(100):
        n = rng.randint(0, 7)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 4)))
                  for _ in range(rng.randint(0, 6) if n else 0)]
        k = SimplicialComplex(range(n), facets)
        for augmented in (False, True):
            assert k.chain_complex(augmented) == simplicial_chain_complex(k, augmented), facets


def test_faces_that_are_not_cells_are_zero():
    """A triangle's 2-cell on the cells outside its boundary is a relative
    2-cycle, and a face in no degree is dropped like one in the wrong degree."""
    triangle = {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2)]}

    def drop_one(cell):
        return [(cell[:k] + cell[k + 1:], (-1) ** k) for k in range(len(cell))]

    disk = cell_complex(triangle, drop_one)
    assert homology(disk) == profile({0: (1, ())})
    relative = cell_complex({2: triangle[2]}, drop_one)
    assert homology(relative) == profile({2: (1, ())}) and relative.degrees() == [2]
    edge = cell_complex({0: ["v"], 1: ["e"]}, lambda c: [("v", -3), ("w", 5), ("e", 1)])
    assert edge.boundary(1).nonzero_items() == ((0, 0, -3),)
    with pytest.raises(MalformedComplex):
        cell_complex({0: ["v"], 1: ["e"], 2: ["t"]}, lambda c: [("e", 1)] if c == "t" else [("v", 1)])
