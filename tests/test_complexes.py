import random
from fractions import Fraction
from itertools import combinations

import pytest

from sponges.complexes import (
    IntegerChainComplex,
    MalformedComplex,
    NotAChainMap,
    RationalHomologyBasis,
    cohomology,
    homology,
    induced_map_on_homology,
    profile,
)
from sponges.exactalg import IntegerMatrix

from oracles import (
    NotASubcomplex,
    RationalHomologyBasisDense,
    cochain_complex,
    cohomology_via_transpose,
    dense_basis_mismatches,
    integer_kernel_basis,
    quotient_complex,
    rational_betti_numbers,
    subcomplex,
)


def mat(rows, cols=None):
    return IntegerMatrix.from_rows(rows, cols=cols)


def triangle_circle():
    # 3 vertices, 3 edges e01, e02, e12 with d(e_ij) = v_j - v_i
    d1 = mat([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    return IntegerChainComplex({0: 3, 1: 3}, {1: d1})


def projective_plane_minimal():
    return IntegerChainComplex(
        {0: 1, 1: 1, 2: 1},
        {1: mat([[0]]), 2: mat([[2]])},
    )


def disk_complex():
    # triangle boundary plus a single 2-cell filling it
    d1 = mat([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    d2 = mat([[1], [-1], [1]])
    return IntegerChainComplex({0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})


def test_triangle_circle_homology():
    h = homology(triangle_circle())
    assert h == profile({0: (1, ()), 1: (1, ())})
    # oracle: rank-nullity over Q via fraction-free elimination
    betti = rational_betti_numbers(
        {0: 3, 1: 3}, {1: [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]}
    )
    assert betti == {0: 1, 1: 1}


def test_projective_plane_homology():
    h = homology(projective_plane_minimal())
    assert h == profile({0: (1, ()), 1: (0, (2,))})
    assert h.free_rank(2) == 0 and h.torsion(2) == ()


def test_empty_complex():
    c = IntegerChainComplex({}, {})
    assert homology(c).is_trivial()
    assert cohomology(c).is_trivial()


def test_triangle_circle_cohomology():
    h = cohomology(triangle_circle())
    assert h == profile({0: (1, ()), 1: (1, ())})


def test_projective_plane_cohomology():
    h = cohomology(projective_plane_minimal())
    assert h == profile({0: (1, ()), 2: (0, (2,))})


def test_malformed_complex_rejected():
    d1 = mat([[1, 0], [0, 1]])
    d2 = mat([[1], [0]])
    with pytest.raises(MalformedComplex):
        IntegerChainComplex({0: 2, 1: 2, 2: 1}, {1: d1, 2: d2})
    with pytest.raises(MalformedComplex, match="nonnegative"):
        IntegerChainComplex({0: -1}, {})
    # ranks 2.7 and True used to read 2 and 1, and the profile below [0]=Z
    for ranks, boundaries in [({0: 2.7, 1: True}, {}), ({0.0: 1}, {}), ({0: 1, 1: 1.0}, {}),
                              ({0: 1, 1: 1}, {1.0: mat([[1]])}), ({"0": 1}, {})]:
        with pytest.raises(TypeError, match="integer"):
            IntegerChainComplex(ranks, boundaries)
    for data in [{0.5: (1.9, ())}, {0: (1.0, ())}, {True: (1, ())}, {0: (True, ())},
                 {0: (0, (2.0,))}, {0: (0, (True, 2))}, {"0": (1, ())}]:
        with pytest.raises(TypeError, match="integer"):
            profile(data)
    assert profile({0: (1, (2, 4))}).torsion(0) == (2, 4)
    # torsion out of divisibility order: (2, 3) compared unequal to the isomorphic (6,)
    for torsion in [(2, 3), (4, 2), (2, 4, 6), (3, 3, 2)]:
        with pytest.raises(ValueError, match="divisibility chain"):
            profile({1: (0, torsion)})
    assert profile({0: (0, (2, 2, 6, 12))}).torsion(0) == (2, 2, 6, 12)


def test_quotient_disk_by_circle():
    disk = disk_complex()
    q = quotient_complex(disk, {0: [0, 1, 2], 1: [0, 1, 2]})
    h = homology(q)
    assert h == profile({2: (1, ())})


def test_quotient_by_everything_and_nothing():
    disk = disk_complex()
    zero = quotient_complex(disk, {0: [0, 1, 2], 1: [0, 1, 2], 2: [0]})
    assert homology(zero).is_trivial()
    same = quotient_complex(disk, {})
    assert same == disk


def test_not_a_subcomplex_reports_generator():
    disk = disk_complex()
    with pytest.raises(NotASubcomplex) as err:
        quotient_complex(disk, {2: [0]})  # 2-cell without its boundary edges
    assert err.value.degree == 2
    assert err.value.generator == 0


def test_subcomplex_extraction():
    disk = disk_complex()
    circ = subcomplex(disk, {0: [0, 1, 2], 1: [0, 1, 2]})
    assert homology(circ) == profile({0: (1, ()), 1: (1, ())})


def test_induced_identity():
    c = triangle_circle()
    f = {0: IntegerMatrix.identity(3), 1: IntegerMatrix.identity(3)}
    m = induced_map_on_homology(f, c, c)
    assert m[0] == [[Fraction(1)]]
    assert m[1] == [[Fraction(1)]]


def test_induced_doubling_on_circle():
    c = triangle_circle()
    two = IntegerMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    m = induced_map_on_homology({0: two, 1: two}, c, c)
    assert m[1] == [[Fraction(2)]]


def test_induced_point_inclusion():
    point = IntegerChainComplex({0: 1}, {})
    circle = triangle_circle()
    f0 = mat([[1], [0], [0]])
    m = induced_map_on_homology({0: f0}, point, circle)
    assert m[0] == [[Fraction(1)]]
    assert m[1] == [[]]  # 1x0 matrix: the source has no H_1 to map


def test_not_a_chain_map():
    c = triangle_circle()
    broken = {0: IntegerMatrix.identity(3), 1: mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])}
    with pytest.raises(NotAChainMap) as err:
        induced_map_on_homology(broken, c, c)
    assert err.value.degree == 1


def test_induced_map_functorial():
    c = triangle_circle()
    two = IntegerMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    three = IntegerMatrix.from_rows([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    m2 = induced_map_on_homology({0: two, 1: two}, c, c)
    m3 = induced_map_on_homology({0: three, 1: three}, c, c)
    six = IntegerMatrix.from_rows([[6, 0, 0], [0, 6, 0], [0, 0, 6]])
    m6 = induced_map_on_homology({0: six, 1: six}, c, c)
    for d in (0, 1):
        composed = [
            [
                sum(m3[d][i][k] * m2[d][k][j] for k in range(len(m2[d])))
                for j in range(len(m2[d][0]))
            ]
            for i in range(len(m3[d]))
        ]
        assert composed == m6[d]


def square_with_filled_triangle():
    # vertices 0..3, edges e01 e12 e23 e03 e02 with d(e_ij) = v_j - v_i, and
    # one 2-cell filling the triangle 0-1-2; H_1 is the triangle 0-2-3
    d1 = mat([[-1, 0, 0, -1, -1], [1, -1, 0, 0, 0], [0, 1, -1, 0, 1], [0, 0, 1, 1, 0]])
    d2 = mat([[1], [1], [0], [0], [-1]])
    return IntegerChainComplex({0: 4, 1: 5, 2: 1}, {1: d1, 2: d2})


def test_batched_coordinates_match_single_vectors():
    basis = RationalHomologyBasis(square_with_filled_triangle())
    filled, hole = (1, 1, 0, 0, -1), (0, 0, 1, -1, 1)
    cycles = [filled, hole, tuple(a + b for a, b in zip(filled, hole)),
              tuple(3 * a - 2 * b for a, b in zip(filled, hole)),
              [Fraction(b, 2) for b in hole], (0, 0, 0, 0, 0)]
    batched = basis.coordinates(1, cycles)
    assert batched == [basis.coordinates(1, [v])[0] for v in cycles]
    assert batched[0] == [0]  # a boundary
    assert batched[1] != [0] and batched[2] == batched[1]
    assert batched[4] == [x / 2 for x in batched[1]]
    points = [(1, 0, 0, 0), (0, 0, 0, 5)]
    assert basis.coordinates(0, points) == [basis.coordinates(0, [v])[0] for v in points]


def test_batched_coordinates_edge_cases():
    basis = RationalHomologyBasis(square_with_filled_triangle())
    assert basis.coordinates(1, []) == []
    assert basis.coordinates(2, [(0,)]) == [[]]
    assert basis.coordinates(7, [()]) == [[]]  # a degree without chains
    with pytest.raises(ValueError, match="not a cycle"):
        basis.coordinates(1, [(0, 0, 1, -1, 1), (1, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="not a cycle"):
        basis.coordinates(2, [(1,)])  # d(cell) is not zero
    with pytest.raises(ValueError, match="length"):
        basis.coordinates(1, [(1, 1, 0, 0)])


def test_cochain_complex_regrading():
    c = projective_plane_minimal()
    cc = cochain_complex(c)
    h = homology(cc)
    # H_{-p}(cochain) = H^p: cohomology has Z at 0 and Z/2 at 2
    assert h == profile({0: (1, ()), -2: (0, (2,))})


# ---------------------------------------------------------------------------
# random corpus properties


def random_simplicial_boundaries(rng):
    """A small random simplicial complex as an integer chain complex."""
    nverts = rng.randint(3, 6)
    verts = list(range(nverts))
    possible = list(combinations(verts, 3))
    ntri = rng.randint(0, min(4, len(possible)))
    triangles = sorted(rng.sample(possible, ntri))
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    extra = [e for e in combinations(verts, 2) if e not in edges]
    edges = sorted(edges + sorted(rng.sample(extra, min(len(extra), rng.randint(0, 4)))))
    eidx = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in range(nverts)]
    for j, (a, b) in enumerate(edges):
        d1[a][j] = -1
        d1[b][j] = 1
    d2 = [[0] * len(triangles) for _ in range(len(edges))]
    for j, (a, b, c) in enumerate(triangles):
        d2[eidx[(b, c)]][j] = 1
        d2[eidx[(a, c)]][j] = -1
        d2[eidx[(a, b)]][j] = 1
    ranks = {0: nverts, 1: len(edges), 2: len(triangles)}
    boundaries = {
        1: mat(d1, cols=len(edges)),
        2: mat(d2, cols=len(triangles)),
    }
    complex_ = IntegerChainComplex(ranks, boundaries)
    sub_tris = sorted(rng.sample(range(len(triangles)), rng.randint(0, len(triangles))))
    sub_edge_set = {eidx[e] for t in sub_tris for e in combinations(triangles[t], 2)}
    n_extra_edges = rng.randint(0, len(edges))
    sub_edge_set |= set(rng.sample(range(len(edges)), n_extra_edges))
    sub_verts = {v for j in sub_edge_set for v in edges[j]}
    sub_verts |= set(rng.sample(range(nverts), rng.randint(0, nverts)))
    sub = {0: sorted(sub_verts), 1: sorted(sub_edge_set), 2: sub_tris}
    return complex_, sub


def test_universal_coefficients_and_euler_on_random_corpus():
    rng = random.Random(987123)
    for _ in range(60):
        c, _ = random_simplicial_boundaries(rng)
        h = homology(c)
        ch = cohomology(c)
        assert ch == cohomology_via_transpose(c)
        degs = set(h.degrees()) | set(ch.degrees()) | set(c.degrees())
        for d in degs:
            assert ch.free_rank(d) == h.free_rank(d)
            assert ch.torsion(d) == h.torsion(d - 1)
        chi_chain = c.euler_characteristic()
        chi_hom = sum((-1) ** d * h.free_rank(d) for d in degs)
        assert chi_chain == chi_hom


def test_long_exact_sequence_rank_balance_on_random_pairs():
    """Alternating Betti sums of (sub, total, quotient) cancel, 50 pairs."""
    rng = random.Random(424242)
    for _ in range(50):
        total, sub_gens = random_simplicial_boundaries(rng)
        sub = subcomplex(total, sub_gens)
        quot = quotient_complex(total, sub_gens)
        def chi(c):
            h = homology(c, coefficients="rationals")
            return sum((-1) ** d * h.free_rank(d) for d in h.degrees())
        assert chi(sub) - chi(total) + chi(quot) == 0


def coordinates_corpus(rng):
    """RP^2, its cochain complex, a square and 40 random complexes with quotients."""
    rp2 = projective_plane_minimal()
    corpus = [rp2, cochain_complex(rp2), square_with_filled_triangle()]
    for _ in range(40):
        total, sub = random_simplicial_boundaries(rng)
        corpus += [total, quotient_complex(total, sub)]
    return corpus


def random_integer_complex(rng):
    """Degrees 0..2 with d_1 = X [I 0] E and d_2 = E^-1 [0; I] Y, where X and
    Y have entries in -5..5 and E is two column operations on C_1."""
    a, b, c = (rng.randint(1, 5) for _ in range(3))
    k = rng.randint(0, b)
    d1 = [[rng.randint(-5, 5) if j < k else 0 for j in range(b)] for _ in range(a)]
    d2 = [[rng.randint(-5, 5) if i >= k else 0 for _ in range(c)] for i in range(b)]
    for _ in range(2 if b > 1 else 0):
        # basis vector e_j becomes e_j + q e_i
        i, j = rng.sample(range(b), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in d1:
            row[j] += q * row[i]
        d2[i] = [x - q * y for x, y in zip(d2[i], d2[j])]
    return IntegerChainComplex({0: a, 1: b, 2: c}, {1: mat(d1), 2: mat(d2, cols=c)})


def test_basis_matches_dense_oracle_on_random_corpus():
    """Representatives, exact coordinates and the non-cycle error agree with
    one dense Gauss-Jordan elimination per degree, on simplicial complexes and
    on integer complexes whose kernel vectors tell the Smith route apart."""
    rng = random.Random(5150)
    for c in coordinates_corpus(rng):
        assert not dense_basis_mismatches(c, rng), c
    differ = 0
    for _ in range(100):
        c = random_integer_complex(rng)
        assert not dense_basis_mismatches(c, rng), c
        smith = RationalHomologyBasisDense(c, kernel=integer_kernel_basis)
        basis = RationalHomologyBasis(c)
        differ += sum(basis.representatives(d) != smith.representatives(d)
                      for d in c.degrees())
    assert differ


def test_coordinates_recover_combinations_of_representatives():
    """Seeded: for v = sum a_j rep_j plus boundaries, `coordinates` returns
    exactly a, as Fractions (the zero vector too); a non-cycle part raises.
    RP^2 and the quotients carry torsion, whose cycles have no coordinates."""
    rng = random.Random(5150)
    for c in coordinates_corpus(rng):
        basis = RationalHomologyBasis(c)
        for d in c.degrees():
            reps = basis.representatives(d)
            boundaries = c.boundary(d + 1).transpose().to_rows()
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in reps]
            b = [rng.randint(-2, 2) for _ in boundaries]
            v = [sum(x * rep[i] for x, rep in zip(a, reps))
                 + sum(y * col[i] for y, col in zip(b, boundaries)) for i in range(c.rank(d))]
            got = basis.coordinates(d, [v, [0] * c.rank(d)])
            assert got == [a, [0] * len(reps)], (c, d)
            assert all(type(x) is Fraction for row in got for x in row)
            moving = sorted({j for _, j, _ in c.boundary(d).nonzero_items()})
            if moving:
                v[rng.choice(moving)] += 1
                with pytest.raises(ValueError, match="not a cycle"):
                    basis.coordinates(d, [v])
