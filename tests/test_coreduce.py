"""Homology read off the residual that coreduction leaves.

`complexes.homology` and `cohomology` take their ranks and Smith diagonals
from the ranks and boundaries `complexes._coreduce(c)` returns; the oracles
take them from the full boundaries.  Whole profiles must agree over Z and
Q, torsion included.  Every residual the corpus's checks derive is rebuilt
as a complex, so its d o d = 0 is checked rather than assumed.
"""

import random

from sponges import complexes, cosheaf, poset, sponge
from sponges.complexes import (
    INTEGERS,
    RATIONALS,
    IntegerChainComplex,
    MalformedComplex,
    cohomology,
    homology,
    profile,
)
from sponges.exactalg import IntegerMatrix
from sponges.cosheaf import dihomology_check
from sponges.errors import NotAcyclicSponge, NotCohenMacaulay
from sponges.generators import builtin, gen_model_sponge, gen_polytope_skeleton, hypercube_lattice
from sponges.poset import check_cohen_macaulay, interval_homology, order_complex
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


def test_residuals_keep_only_the_betti_cells(monkeypatch):
    """The 5-cube 3-skeleton's order complex keeps b_3 = 9 of its 7,513
    augmented cells, and model 6's interval (o, 1^) b_3 = 5 of 1,437."""

    def cells(c, residual):
        ranks, _ = residual
        return sum(c.rank(d) for d in c.degrees()), sum(ranks.values())

    skeleton = gen_polytope_skeleton(hypercube_lattice(5))
    residuals = _record_coreductions(monkeypatch)
    assert homology(order_complex(skeleton.faces).chain_complex(augmented=True)) == profile(
        {3: (9, ())})
    assert [cells(c, r) for c, r in residuals] == [(7513, 9)]
    residuals.clear()
    assert interval_homology(gen_model_sponge(6).faces, "o", None)[0] == profile({3: (5, ())})
    assert [cells(c, r) for c, r in residuals] == [(1437, 5)]


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
    d = 0, and keeps the homology of its source, read by the oracle.  The
    recording covers each route: chain-route intervals, cellular-route
    intervals C(x, y) and section complexes."""
    routes = {}  # id -> (complex, route); holding the complex keeps its id unique

    def label(module, name, route):
        build = getattr(module, name)

        def labelled(*args):
            c = build(*args)
            routes[id(c)] = c, route(*args)
            return c

        monkeypatch.setattr(module, name, labelled)

    residuals = _record_coreductions(monkeypatch)
    label(poset, "cell_complex",
          lambda cells, faces: "chains" if faces is poset._drop_one else "cellular interval")
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
    for source, residual in residuals:
        rebuilt = IntegerChainComplex(*residual)
        assert homology(rebuilt) == homology_without_coreduction(source), source
