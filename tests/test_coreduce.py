"""Homology read off the residual that coreduction leaves.

`complexes.homology` and `cohomology` take their ranks and Smith diagonals
from the ranks and boundaries `complexes._coreduce(c)` returns, and
`simplicial_homology` from those it returns on simplices; the oracles take
them from the full boundaries.  Whole profiles must agree over Z and Q,
torsion included, and the two sources must leave the same residual.  Every
residual the corpus's checks derive is rebuilt as a complex, so its d o d =
0 is checked rather than assumed.
"""

import random

from sponges import complexes, cosheaf, poset, sponge
from sponges.complexes import (
    INTEGERS,
    RATIONALS,
    IntegerChainComplex,
    MalformedComplex,
    cell_complex,
    cohomology,
    homology,
    profile,
    simplicial_homology,
)
from sponges.exactalg import IntegerMatrix
from sponges.cosheaf import dihomology_check
from sponges.errors import NotAcyclicSponge, NotCohenMacaulay
from sponges.generators import builtin, gen_model_sponge, gen_polytope_skeleton, hypercube_lattice
from sponges.poset import GradedPoset, check_cohen_macaulay, interval_homology, order_complex
from sponges.sponge import (
    cellular_complex,
    check_acyclic,
    incidence_signs,
    realization_cross_check,
    section_complex,
)

from oracles import (
    cohomology_without_coreduction,
    homology_without_coreduction,
    interval_order_complex,
    section_complex_via_quotient,
)
from test_cell_complex import interval_posets, open_intervals
from test_complexes import coordinates_corpus, projective_plane_minimal
from test_poset import chain_complex_of, tensor


def scrambled(c, rng):
    """c after a seeded unimodular change of basis in every degree."""
    change, inverse = {}, {}
    for d in c.degrees():
        n = c.rank(d)
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        f = [row[:] for row in e]  # e^-1
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            q = rng.choice((-2, -1, 1, 2))
            e[i] = [a + q * b for a, b in zip(e[i], e[j])]  # e <- (1 + q E_ij) e
            for row in f:  # f <- f (1 - q E_ij)
                row[j] -= q * row[i]
        change[d], inverse[d] = IntegerMatrix.from_rows(e, n), IntegerMatrix.from_rows(f, n)
    boundaries = {d: change[d - 1].mul(c.boundary(d)).mul(inverse[d])
                  for d in c.degrees() if d - 1 in change}
    return IntegerChainComplex({d: c.rank(d) for d in c.degrees()}, boundaries)


def mixed_torsion_complexes(rng):
    """Z/2 + Z/3 + Z/4 and friends beside contractible +-1 pairs, scrambled."""
    mixed = chain_complex_of({0: (1, (1, 2, 3, 4)), 1: (2, (1, 2, 1)), 2: (1, (3, 1))})
    other = chain_complex_of({0: (1, (4, 1)), 1: (0, (6, 1))})
    yield mixed
    yield tensor(mixed, other)
    for _ in range(10):
        yield scrambled(mixed, rng)
    yield scrambled(tensor(mixed, other), rng)


def sponge_complexes():
    """Cellular complexes, plain and augmented, and the section complexes of
    the builtin sponges and of models 3-6, each both as the cochain
    subcomplex on the faces above its face and as the quotient whose
    cochain complex it is."""
    sponges = [builtin(name) for name in ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3")]
    sponges += [gen_model_sponge(n) for n in (3, 4, 5, 6)]
    for z in sponges:
        for augmented in (False, True):
            try:
                yield cellular_complex(z, augmented)
            except MalformedComplex:  # unbalanced edges leave no augmented complex
                pass
        for f in z.faces.elements():
            yield section_complex(z, f)
            yield section_complex_via_quotient(z, f)


def interval_complexes():
    """The augmented order complex of every open interval of the interval corpus, cones included."""
    for p in interval_posets():
        for x, y in open_intervals(p):
            yield interval_order_complex(p, x, y).chain_complex(augmented=True)


def test_profiles_match_the_full_smith_forms():
    rng = random.Random(2014)
    doubled = IntegerChainComplex({0: 1, 1: 1}, {1: IntegerMatrix(1, 1, {(0, 0): 2})})
    corpus = [projective_plane_minimal(), doubled, *mixed_torsion_complexes(rng),
              *sponge_complexes(), *interval_complexes(), *coordinates_corpus(rng)]
    torsion = set()
    for c in corpus:
        for coefficients in (INTEGERS, RATIONALS):
            h = homology(c, coefficients)
            assert h == homology_without_coreduction(c, coefficients), c
            assert cohomology(c, coefficients) == cohomology_without_coreduction(c, coefficients), c
            torsion.update(t for _, t in h.total_torsion())
    assert {2, 3, 4, 6, 12} <= torsion
    # a +-2 pair is never deleted: H_0 = Z/2 survives on both cells
    assert homology(doubled) == profile({0: (0, (2,))})
    assert IntegerChainComplex(*complexes._coreduce(doubled)) == doubled


def _record_coreductions(monkeypatch):
    """The (source, residual) pair of every later `_coreduce` call."""
    residuals = []
    coreduce = complexes._coreduce

    def recording(c):
        residuals.append((c, coreduce(c)))
        return residuals[-1][1]

    monkeypatch.setattr(complexes, "_coreduce", recording)
    return residuals


def source_cells(source):
    """The number of cells of a `_coreduce` source: a complex, or simplices by dimension."""
    if isinstance(source, IntegerChainComplex):
        return sum(source.rank(d) for d in source.degrees())
    return sum(map(len, source.values()))


def test_residuals_keep_only_the_betti_cells(monkeypatch):
    """The 5-cube 3-skeleton's order complex keeps b_3 = 9 of its 7,513
    augmented simplices, and model 6's interval (o, 1^) b_3 = 5 of its 1,437
    chains; both are coreduced from their simplices, with no complex built."""

    def cells(source, residual):
        ranks, _ = residual
        return source_cells(source), sum(ranks.values())

    skeleton = gen_polytope_skeleton(hypercube_lattice(5))
    residuals = _record_coreductions(monkeypatch)
    built = []
    init = IntegerChainComplex.__init__
    monkeypatch.setattr(IntegerChainComplex, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    simplices = order_complex(skeleton.faces).simplices(augmented=True)
    assert simplicial_homology(simplices) == (profile({3: (9, ())}),) * 2
    assert [cells(c, r) for c, r in residuals] == [(7513, 9)]
    residuals.clear()
    assert interval_homology(gen_model_sponge(6).faces, "o", None)[0] == profile({3: (5, ())})
    assert [cells(c, r) for c, r in residuals] == [(1437, 5)]
    assert built == []


def test_homology_and_cohomology_build_no_second_complex(monkeypatch):
    """The residual is cached on the complex as ranks and Smith diagonals,
    so reading both profiles constructs no complex beside the one asked."""
    c = projective_plane_minimal()
    built = []
    init = IntegerChainComplex.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(IntegerChainComplex, "__init__", counted)
    assert homology(c) == profile({0: (1, ()), 1: (0, (2,))})
    assert cohomology(c) == profile({0: (1, ()), 2: (0, (2,))})
    assert built == []
    ranks, diagonals = c._residual
    assert sum(ranks.values()) == 3 and diagonals == {2: (2,)}


def test_every_derived_residual_is_a_complex_with_its_source_homology(monkeypatch):
    """Residuals are not re-checked when coreduction derives them.  Here every
    residual that the CM test with a sponge's signs, the dihomology check,
    the acyclicity check and the realization cross-check derive on the
    builtin sponges and models 3-6 is rebuilt as a complex, which checks d o
    d = 0, and keeps the homology of its source, read by the oracle.  A
    chain-route interval is coreduced from its chains, with no complex
    built, so the oracle reads the complex `cell_complex` builds and checks
    on those chains.  The recording covers each route: chain-route
    intervals, cellular-route intervals C(x, y) and section complexes."""
    routes = {}  # id -> (source, route); holding the source keeps its id unique

    def label(module, name, route):
        build = getattr(module, name)

        def labelled(*args):
            c = build(*args)
            routes[id(c)] = c, route(*args)
            return c

        monkeypatch.setattr(module, name, labelled)

    residuals = _record_coreductions(monkeypatch)
    label(poset, "_chains", lambda *args: "chains")
    label(poset, "cell_complex",
          lambda cells, faces: "simplicial" if faces is poset._drop_one else "cellular interval")
    label(sponge, "_section_complex", lambda *args: "section")
    label(cosheaf, "_section_complex", lambda *args: "section")
    corpus = [builtin(name) for name in ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3")]
    corpus += [gen_model_sponge(n) for n in (3, 4, 5, 6)]
    for z in corpus:
        check_cohen_macaulay(z.faces, signs=incidence_signs(z))
        try:
            dihomology_check(z)
        except NotCohenMacaulay:
            pass
        if not z.non_compact:
            try:
                realization_cross_check(z)
            except NotAcyclicSponge:
                check_acyclic(z)
    monkeypatch.undo()
    recorded = {routes[id(c)][1] for c, _ in residuals if id(c) in routes}
    assert {"chains", "cellular interval", "section"} <= recorded
    chains = 0
    for source, residual in residuals:
        rebuilt = IntegerChainComplex(*residual)
        if not isinstance(source, IntegerChainComplex):
            chains += 1
            source = cell_complex(source, poset._drop_one)
        assert homology(rebuilt) == homology_without_coreduction(source), source
    assert chains == sum(route == "chains" for _, route in routes.values()) > 0


def interval_chains(p, x, y):
    """The chains of the open interval (x, y) of P^, the empty one included."""
    inside = set(p.ranks) if x is None else set(p.upset(x))
    if y is not None:
        inside &= p.downset(y)
    return poset._chains(p, inside - {x, y})


def chain_route_intervals(monkeypatch):
    """The chains of every interval of the builtin and model n=3..6 sponges
    that `interval_homology` reads from its chains, given the sponge's signs
    and given none."""
    sponges = [builtin(name) for name in ("g42_octahedron", "f3_k33", "cube_skeleton", "model_n3")]
    sponges += [gen_model_sponge(n) for n in (3, 4, 5, 6)]
    chains = poset._chains
    recorded = []
    monkeypatch.setattr(poset, "_chains", lambda p, inside: recorded.append(chains(p, inside))
                        or recorded[-1])
    for z in sponges:
        unsigned = GradedPoset(z.faces.ranks.items(), z.faces.covers())
        for x, y in open_intervals(z.faces):
            interval_homology(z.faces, x, y, incidence_signs(z))
            interval_homology(unsigned, x, y)
    monkeypatch.undo()
    return recorded


def simplicial_corpus(monkeypatch):
    """Augmented simplices by dimension: the intervals of `interval_posets()`,
    the sponges' chain-route intervals, RP^2, the order complexes of cube and
    simplex skeletons, and seeded random complexes."""
    from sponges.generators import simplex_lattice
    from sponges.poset import SimplicialComplex

    from test_poset import RP2_FACETS

    yield from chain_route_intervals(monkeypatch)
    for p in interval_posets():
        for x, y in open_intervals(p):
            yield interval_chains(p, x, y)
    yield SimplicialComplex(range(1, 7), RP2_FACETS).simplices(augmented=True)
    for lattice in (hypercube_lattice(3), hypercube_lattice(4), hypercube_lattice(5),
                    simplex_lattice(4), simplex_lattice(5)):
        yield order_complex(gen_polytope_skeleton(lattice).faces).simplices(augmented=True)
    rng = random.Random(2009)
    for _ in range(150):
        n = rng.randint(0, 8)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 5)))
                  for _ in range(rng.randint(0, 8) if n else 0)]
        yield SimplicialComplex(range(n), facets).simplices(augmented=True)


def test_simplicial_route_matches_the_matrix_route_and_the_oracles(monkeypatch):
    """Coreducing simplices straight from their faces leaves exactly the
    residual, ranks and boundary matrices, that coreducing the checked
    complex `cell_complex` builds on them leaves, augmented and not; and the
    homology and cohomology over Z and Q are the oracles' on that complex."""
    seen, torsion = 0, set()
    for augmented in simplicial_corpus(monkeypatch):
        plain = {d: cells for d, cells in augmented.items() if d != -1}
        for simplices in (augmented, plain):
            c = cell_complex(simplices, poset._drop_one)
            assert complexes._coreduce(simplices) == complexes._coreduce(c), simplices
            if sum(map(len, simplices.values())) > 5000:
                continue  # the 5-cube's order complex: no full Smith forms here
            for coefficients in (INTEGERS, RATIONALS):
                expected = (homology_without_coreduction(c, coefficients),
                            cohomology_without_coreduction(c, coefficients))
                assert simplicial_homology(simplices, coefficients) == expected, simplices
                torsion.update(t for _, t in expected[0].total_torsion())
            seen += 1
    assert seen > 3000 and torsion == {2}
