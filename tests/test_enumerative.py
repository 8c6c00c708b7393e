import random

import pytest

from sponges.enumerative import (
    ExtendedFVector,
    HilbertSeries,
    NegativeB,
    _one_minus_t2_pow,
    _pmul,
    b_from_euler,
    betti_polynomial,
    betti_polynomial_alt,
    duality_check,
    fvector_of,
    hilbert_equivariant,
    hvector_of,
    series_expand,
)
from sponges.generators import (
    builtin,
    gen_polytope_skeleton,
    graph_sponge,
    hypercube_lattice,
    simplex_lattice,
)
from sponges.sponge import NotAcyclicSponge

from oracles import (
    betti_polynomial_by_products,
    one_minus_t2_power,
    poly_multiply,
    series_quotient,
)


def fv(n, f, b):
    return ExtendedFVector(n=n, f=tuple(f), b=b)


G42 = fv(4, (6, 12, 11), 4)
F3 = fv(3, (6, 9), 4)
HP2 = fv(4, (3, 6, 7), 3)


# ---------------------------------------------------------------------------
# f-vectors


def test_fvector_of_k33():
    v = fvector_of(builtin("f3_k33"))
    assert (v.f, v.b) == ((6, 9), 4)


def test_fvector_of_octahedron():
    v = fvector_of(builtin("g42_octahedron"))
    assert (v.f, v.b) == ((6, 12, 11), 4)


def test_fvector_of_three_points():
    from sponges.poset import GradedPoset
    from sponges.sponge import SpongeComplex

    z = SpongeComplex(
        n=2, faces=GradedPoset([(f"v{i}", 0) for i in range(3)], []), incidence={}
    )
    v = fvector_of(z)
    assert (v.f, v.b) == ((3,), 2)


def test_fvector_rejects_non_acyclic():
    two_triangles = graph_sponge(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    with pytest.raises(NotAcyclicSponge):
        fvector_of(two_triangles)


def test_b_from_euler_examples():
    assert b_from_euler((6, 12, 11), 4) == 4
    assert b_from_euler((6, 9), 3) == 4
    assert b_from_euler((3, 6, 7), 4) == 3


def test_b_from_euler_negative():
    # (1, 0, 0) at n=4 comes out exactly at b = 0; the empty count goes under
    assert b_from_euler((1, 0, 0), 4) == 0
    with pytest.raises(NegativeB):
        b_from_euler((0, 0, 0), 4)
    with pytest.raises(NegativeB):
        b_from_euler((3, 0), 3)


def test_fvectors_refuse_entries_that_are_not_ints():
    # 1.5 and True used to become the counts 1 and 1, and b = 0.5 passed as is
    for f, b in [((1.5, True), 0.5), ((1.5, 1), 0), ((True, 1), 0), (("6", 9), 4),
                 ((6, 9), 0.5), ((6, 9), True), ((6, 9), "4"), ((6.0, 9), 4)]:
        with pytest.raises(TypeError, match="integer"):
            ExtendedFVector(n=3, f=f, b=b)
    for f in [(4.9, "6"), (True, 1), (6, 9.0), [6, None]]:
        with pytest.raises(TypeError, match="integer"):
            b_from_euler(f, 3)  # (4.9, "6") used to give b = 3
    # n = 3.0 passed until hvector_of raised a raw TypeError; b_from_euler gave 4
    for n in (3.0, True, "3"):
        with pytest.raises(TypeError, match="integer"):
            ExtendedFVector(n=n, f=(6, 9), b=4)
        with pytest.raises(TypeError, match="integer"):
            b_from_euler((6, 9), n)
    assert ExtendedFVector(n=3, f=[6, 9], b=4) == F3
    assert b_from_euler([6, 9], 3) == 4


def test_b_from_euler_rejects_n_below_2():
    # n = 1 used to give the float 1.0 from (-1) ** -1
    for n in (1, 0):
        with pytest.raises(ValueError, match="at least 2"):
            b_from_euler((), n)


# ---------------------------------------------------------------------------
# Betti polynomials (coefficients indexed by power of t)


def test_betti_polynomial_g42():
    assert betti_polynomial(G42) == (1, 0, 1, 0, 2, 0, 1, 0, 1)


def test_betti_polynomial_f3():
    assert betti_polynomial(F3) == (1, 0, 2, 0, 2, 0, 1)


def test_betti_polynomial_hp2():
    assert betti_polynomial(HP2) == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_betti_polynomial_matches_the_product_oracle():
    """The closed-form matrix against polynomial products, Euler relation or not."""
    rng = random.Random(190)
    for n in range(2, 11):
        cases = [((0,) * (n - 1), 0), ((0,) * (n - 1), 7)]
        for _ in range(60):
            f = tuple(rng.randint(0, 40) for _ in range(n - 1))
            cases.append((f, rng.randint(0, 60)))
            try:
                cases.append((f, b_from_euler(f, n)))
            except NegativeB:
                pass
        for f, b in cases:
            expected = betti_polynomial_by_products(n, f, b)
            v = fv(n, f, b)
            assert betti_polynomial(v) == expected, (n, f, b)
            assert hvector_of(v).h == expected[::2], (n, f, b)


def test_betti_polynomial_alt_matches_on_reference_examples():
    for v in (G42, F3, HP2):
        assert betti_polynomial_alt(v) == betti_polynomial(v)


def test_betti_polynomial_alt_n2():
    v = fv(2, (3,), 2)
    # 3 - (2 + t^2)(1 - t^2) = 1 + t^2 + t^4
    assert betti_polynomial_alt(v) == (1, 0, 1, 0, 1)
    assert betti_polynomial(v) == (1, 0, 1, 0, 1)


# ---------------------------------------------------------------------------
# duality


def test_duality_reference_examples_pass():
    for v in (G42, F3, HP2):
        report = duality_check(v)
        assert report.passed and report.identity_holds and report.euler_consistent


def test_duality_random_euler_consistent():
    rng = random.Random(55221)
    count = 0
    while count < 200:
        n = rng.randint(2, 6)
        f = tuple(rng.randint(0, 30) for _ in range(n - 1))
        try:
            b = b_from_euler(f, n)
        except NegativeB:
            continue
        report = duality_check(fv(n, f, b))
        assert report.passed, (n, f, b)
        count += 1


def test_duality_gate_fails_on_euler_violation():
    bad = fv(3, (6, 9), 5)  # Euler forces b = 4
    report = duality_check(bad)
    assert not report.passed
    assert not report.euler_consistent
    # the raw coefficient reversal is an unconditional polynomial identity;
    # the verdict is what carries the Euler requirement
    assert report.identity_holds


def test_duality_reversal_identity_is_unconditional():
    rng = random.Random(918273)
    for _ in range(100):
        n = rng.randint(2, 6)
        f = tuple(rng.randint(0, 20) for _ in range(n - 1))
        b = rng.randint(0, 25)
        report = duality_check(fv(n, f, b))
        assert report.identity_holds, (n, f, b)
        betti = report.betti
        alt = report.betti_alt
        assert tuple(reversed(alt)) == betti


# ---------------------------------------------------------------------------
# h-vectors


def test_hvector_g42():
    hv = hvector_of(G42)
    assert hv.h == (1, 1, 2, 1, 1)
    assert hv.symmetric and hv.nonnegative


def test_hvector_hp2():
    hv = hvector_of(HP2)
    assert hv.h == (1, 0, 1, 0, 1)
    assert hv.symmetric and hv.nonnegative


def test_hvector_cube():
    v = fvector_of(gen_polytope_skeleton(hypercube_lattice(3)))
    assert (v.f, v.b) == ((8, 12), 5)
    hv = hvector_of(v)
    assert hv.h == (1, 3, 3, 1)


def test_asymmetric_h_is_a_finding_not_an_error():
    v = fv(3, (5, 9), b_from_euler((5, 9), 3))
    hv = hvector_of(v)
    assert not hv.symmetric  # perfectly legal output


def classical_polytope_hvector(face_counts, n):
    """sum_i f_i^P (1 - t^2)^i t^(2n-2i), the polytope-side definition."""
    total = [0] * (2 * n + 1)
    for i, fi in enumerate(face_counts):
        term = poly_multiply(one_minus_t2_power(i), [0] * (2 * n - 2 * i) + [fi])
        for d, c in enumerate(term):
            total[d] += c
    assert all(c == 0 for d, c in enumerate(total) if d % 2)
    return tuple(total[2 * i] for i in range(n + 1))


def test_quasitoric_consistency_with_classical_hvectors():
    cases = [
        (hypercube_lattice(3), (8, 12, 6, 1)),
        (simplex_lattice(3), (4, 6, 4, 1)),
        (hypercube_lattice(2), (4, 4, 1)),
        (simplex_lattice(4), (5, 10, 10, 5, 1)),
    ]
    for lattice, face_counts in cases:
        n = lattice.dimension
        sponge_h = hvector_of(fvector_of(gen_polytope_skeleton(lattice))).h
        assert sponge_h == classical_polytope_hvector(face_counts, n)


def test_cubic_graph_closed_form():
    """Connected trivalent sponge with f_0 = 2m has h = (1, m-1, m-1, 1)."""
    for m in range(2, 9):
        f = (2 * m, 3 * m)
        b = b_from_euler(f, 3)
        assert b == m + 1
        assert hvector_of(fv(3, f, b)).h == (1, m - 1, m - 1, 1)


# ---------------------------------------------------------------------------
# Hilbert series


def test_hilbert_equivariant_n2():
    series = hilbert_equivariant(fv(2, (3,), 2))
    # 3t^4/(1-t^2) + (1 + 2t^2): expansion 1 + 2t^2 + 3t^4 + 3t^6 + ...
    assert series.expand(8) == (1, 0, 2, 0, 3, 0, 3, 0, 3)
    # oracle: direct series division of (numerator)/(1-t^2)^k
    direct = series_quotient(
        list(series.numerator), one_minus_t2_power(series.denominator_power), 8
    )
    assert tuple(direct) == series.expand(8)


def test_hilbert_equivariant_n2_term_by_term_to_degree_10():
    """f_0/(1-t^2) - (b + t^2) with b = f_0 - 1 is the independent form."""
    for f0 in range(1, 7):
        b = f0 - 1
        series = hilbert_equivariant(fv(2, (f0,), b))
        expansion = series.expand(10)
        direct = series_quotient([f0], [1, 0, -1], 10)
        expected = tuple(
            direct[d] - (b if d == 0 else 1 if d == 2 else 0) for d in range(11)
        )
        assert expansion == expected
        # displayed closed form: 1 + (f0-1) t^2 + f0 t^4 + f0 t^6 + ...
        closed = tuple(
            1 if d == 0 else (f0 - 1) if d == 2 else f0 if d % 2 == 0 and d >= 4 else 0
            for d in range(11)
        )
        assert expansion == closed


def test_hilbert_equivariant_f3_expansion():
    # oracle: multiply the ordinary Betti polynomial (1,0,2,0,2,0,1) by
    # 1/(1-t^2)^2 = (1,0,2,0,3,...): the t^2 coefficient is 2*1 + 1*2 = 4
    series = hilbert_equivariant(F3)
    betti = betti_polynomial(F3)
    kernel = series_quotient([1], one_minus_t2_power(2), 6)
    expected = tuple(
        sum(betti[j] * kernel[d - j] for j in range(d + 1) if j < len(betti))
        for d in range(7)
    )
    assert series.expand(6) == expected
    assert expected[:3] == (1, 0, 4)


def test_hilbert_equivariant_empty():
    series = hilbert_equivariant(fv(4, (0, 0, 0), 0))
    assert series.numerator == (1,)
    assert series.denominator_power == 0


def test_equivariant_times_denominator_is_betti():
    """Hilb_T(fv) * (1-t^2)^(n-1) = betti_polynomial(fv), rational identity."""
    rng = random.Random(777)
    cases = [G42, F3, HP2, fv(2, (3,), 2)]
    while len(cases) < 40:
        n = rng.randint(2, 6)
        f = tuple(rng.randint(0, 12) for _ in range(n - 1))
        try:
            cases.append(fv(n, f, b_from_euler(f, n)))
        except NegativeB:
            pass
    for v in cases:
        lhs = hilbert_equivariant(v)
        rhs = HilbertSeries(betti_polynomial(v), v.n - 1)
        assert lhs == rhs, v


def test_series_expand_geometric():
    s = HilbertSeries((1,), 1)
    assert series_expand(s, 6) == (1, 0, 1, 0, 1, 0, 1)


def test_series_expand_shifted_geometric():
    s = HilbertSeries((0, 0, 0, 0, 1), 1)
    assert series_expand(s, 6) == (0, 0, 0, 0, 1, 0, 1)


def test_series_expand_g42_equivariant():
    series = hilbert_equivariant(G42)
    got = series_expand(series, 8)
    # convolution oracle: betti coefficients times 1/(1-t^2)^3
    kernel = series_quotient([1], one_minus_t2_power(3), 8)
    assert kernel == [1, 0, 3, 0, 6, 0, 10, 0, 15]
    betti = betti_polynomial(G42)
    expected = tuple(
        sum(betti[j] * kernel[d - j] for j in range(0, d + 1) if j < len(betti))
        for d in range(9)
    )
    assert got == expected == (1, 0, 4, 0, 11, 0, 23, 0, 41)


def test_hilbert_series_equality_is_cross_multiplicative():
    a = HilbertSeries((1, 0, -1), 1)  # (1 - t^2)/(1 - t^2) = 1
    b = HilbertSeries((1,), 0)
    assert a == b
    assert a.denominator_power == 0  # normalized on construction


def test_one_minus_t2_power_closed_form_matches_repeated_products():
    product = (1,)
    for k in range(25):
        assert _one_minus_t2_pow(k) == product, k
        product = _pmul(product, (1, 0, -1))
