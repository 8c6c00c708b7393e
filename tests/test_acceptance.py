"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

All arithmetic is exact; every comparison below is equality.  Runtime limits
are asserted against a monotonic clock.
"""

import random
import time

from sponges.complexes import cohomology, homology, profile
from sponges.cosheaf import dihomology_check
from sponges.enumerative import (
    ExtendedFVector,
    NegativeB,
    b_from_euler,
    betti_polynomial,
    duality_check,
    fvector_of,
    hilbert_equivariant,
    hvector_of,
)
from sponges.exactalg import IntegerMatrix, smith_normal_form
from sponges.generators import (
    builtin,
    gen_model_sponge,
    gen_polytope_skeleton,
    gen_trivalent_sponges,
    hypercube_lattice,
    simplex_lattice,
)
from sponges.poset import GradedPoset, check_cohen_macaulay
from sponges.search import scan
from sponges.sponge import (
    cellular_complex,
    local_cohomology,
    realization_cross_check,
)

from oracles import (
    cohomology_via_transpose,
    determinant_bareiss,
    rank_fraction_free,
    series_quotient,
)


class Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False

    def check(self, label):
        line = f"criterion {label}: PASS ({self.elapsed:.2f}s, limit {self.limit}s)"
        print(line)
        assert self.elapsed < self.limit, f"{label} exceeded {self.limit}s"


def test_criterion_1_g42_regression():
    with Timer(1.0) as timer:
        z = builtin("g42_octahedron")
        fv = fvector_of(z)
        assert (fv.f, fv.b) == ((6, 12, 11), 4)
        assert betti_polynomial(fv) == (1, 0, 1, 0, 2, 0, 1, 0, 1)
    timer.check("1 (G_{4,2} regression)")


def test_criterion_2_f3_regression():
    with Timer(1.0) as timer:
        z = builtin("f3_k33")
        fv = fvector_of(z)
        assert (fv.f, fv.b) == ((6, 9), 4)
        assert betti_polynomial(fv) == (1, 0, 2, 0, 2, 0, 1)
    timer.check("2 (F_3 regression)")


def test_criterion_3_hp2_regression():
    with Timer(1.0) as timer:
        fv = builtin("hp2_fvector")
        assert betti_polynomial(fv) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    timer.check("3 (HP^2 regression)")


def test_criterion_4_model_local_cohomology():
    with Timer(60.0) as timer:
        for n in range(3, 7):
            z = gen_model_sponge(n)
            for face in z.faces.elements():
                k = z.faces.rank(face)
                prof = local_cohomology(z, face, coefficients="integers")
                expected = profile({n - 2: (n - 1 - k, ())})
                assert prof == expected, (n, face, prof)
    timer.check("4 (model local cohomology, n=3..6)")


def test_criterion_5_cohen_macaulay_suite():
    with Timer(120.0) as timer:
        posets = [gen_model_sponge(n).faces for n in (3, 4, 5)]
        posets.append(builtin("g42_octahedron").faces)
        posets.append(builtin("f3_k33").faces)
        for lattice in (
            hypercube_lattice(2),
            hypercube_lattice(3),
            simplex_lattice(3),
            simplex_lattice(4),
        ):
            posets.append(gen_polytope_skeleton(lattice).faces)
        for p in posets:
            report = check_cohen_macaulay(p)
            assert report.is_cm, p
        negative = GradedPoset(
            [("a0", 0), ("a1", 1), ("b0", 0), ("b1", 1)],
            [("a1", "a0"), ("b1", "b0")],
        )
        report = check_cohen_macaulay(negative)
        assert not report.is_cm
        assert report.witnesses  # a concrete witness is produced
        assert report.witnesses[0].chain == ()
        assert report.witnesses[0].degree == 0
    timer.check("5 (Cohen-Macaulay suite)")


def test_criterion_6_dihomology_isomorphism():
    with Timer(30.0) as timer:
        expected = {
            "g42_octahedron": (4, 0, 1),
            "f3_k33": (4, 1),
            "cube_skeleton": (5, 1),
        }
        for name, ranks in expected.items():
            report = dihomology_check(builtin(name))
            assert report.passed, name
            assert report.cosheaf_ranks == ranks
            assert report.order_complex_ranks == ranks
        report = dihomology_check(gen_model_sponge(4))
        assert report.passed
        assert report.cosheaf_ranks == report.order_complex_ranks == (0, 0, 1)
    timer.check("6 (dihomology isomorphism)")


def test_criterion_7_duality_identity():
    with Timer(5.0) as timer:
        for fv in (
            ExtendedFVector(4, (6, 12, 11), 4),
            ExtendedFVector(3, (6, 9), 4),
            ExtendedFVector(4, (3, 6, 7), 3),
        ):
            assert duality_check(fv).passed
        rng = random.Random(1400)
        count = 0
        while count < 200:
            n = rng.randint(2, 6)
            f = tuple(rng.randint(0, 25) for _ in range(n - 1))
            try:
                b = b_from_euler(f, n)
            except NegativeB:
                continue
            assert duality_check(ExtendedFVector(n, f, b)).passed, (n, f, b)
            report = duality_check(ExtendedFVector(n, f, b + 1 + count % 5))
            assert not report.passed and not report.euler_consistent, (n, f, b)
            count += 1
        violating = ExtendedFVector(3, (6, 9), 5)
        report = duality_check(violating)
        assert not report.passed and not report.euler_consistent
    timer.check("7 (duality identity)")


def test_criterion_8_quasitoric_hvectors():
    with Timer(1.0) as timer:
        cube = hvector_of(fvector_of(gen_polytope_skeleton(hypercube_lattice(3))))
        assert cube.h == (1, 3, 3, 1)
        simplex = hvector_of(fvector_of(gen_polytope_skeleton(simplex_lattice(3))))
        assert simplex.h == (1, 1, 1, 1)
    timer.check("8 (quasitoric h-vectors)")


def test_criterion_9_conjecture_scan_cubic_10():
    with Timer(600.0) as timer:
        summary = scan(gen_trivalent_sponges(10))
        assert summary.total == 1 + 2 + 5 + 19  # connected cubic graphs
        assert summary.acyclic_count == summary.total
        assert summary.ds_failures == []
        assert summary.nonneg_failures == []
        # closed form: a connected cubic graph on v = 2m vertices has m + 1
        # independent cycles and h = (1, m - 1, m - 1, 1)
        classes = {}
        for record in summary.records:
            m = record.f[0] // 2
            classes[2 * m] = classes.get(2 * m, 0) + 1
            assert record.acyclic and record.f == (2 * m, 3 * m), record.identifier
            assert record.b == m + 1, record.identifier
            assert record.h == (1, m - 1, m - 1, 1), record.identifier
        assert classes == {4: 1, 6: 2, 8: 5, 10: 19}
    timer.check("9 (conjecture scan, cubic <= 10 vertices)")


def _corpus_sponges():
    corpus = [
        builtin("f3_k33"),
        builtin("g42_octahedron"),
        builtin("cube_skeleton"),
        gen_polytope_skeleton(simplex_lattice(3)),
        gen_polytope_skeleton(simplex_lattice(4)),
        gen_polytope_skeleton(hypercube_lattice(2)),
    ]
    corpus.extend(gen_trivalent_sponges(6))
    return corpus


def test_criterion_10_property_suites():
    with Timer(120.0) as timer:
        # Smith normal form postconditions on 500 random matrices
        rng = random.Random(8675309)
        for _ in range(500):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            m = IntegerMatrix.from_rows(data)
            snf = smith_normal_form(m)
            assert snf.U.mul(m).mul(snf.V) == snf.D
            assert abs(determinant_bareiss(snf.U.to_rows())) == 1
            assert abs(determinant_bareiss(snf.V.to_rows())) == 1
            diag = snf.diagonal
            assert all(
                diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1)
            )
            assert len(diag) == rank_fraction_free(data)

        # universal coefficients + Euler characteristic on corpus complexes
        complexes = []
        for z in _corpus_sponges():
            complexes.append(cellular_complex(z, augmented=False))
            complexes.append(cellular_complex(z, augmented=True))
        for c in complexes:
            h = homology(c)
            ch = cohomology(c)
            assert ch == cohomology_via_transpose(c)
            degs = set(h.degrees()) | set(ch.degrees()) | set(c.degrees())
            for d in degs:
                assert ch.free_rank(d) == h.free_rank(d)
                assert ch.torsion(d) == h.torsion(d - 1)
            chi = c.euler_characteristic()
            assert chi == sum((-1) ** d * h.free_rank(d) for d in degs)

        # realization cross-check on all face-acyclic corpus sponges
        for z in _corpus_sponges():
            realization_cross_check(z)

        # n=2 equivariant series term by term through degree 10
        for f0 in range(1, 8):
            fv = ExtendedFVector(2, (f0,), f0 - 1)
            series = hilbert_equivariant(fv)
            direct = series_quotient([f0], [1, 0, -1], 10)
            expected = tuple(
                direct[d] - ((f0 - 1) if d == 0 else 1 if d == 2 else 0)
                for d in range(11)
            )
            assert series.expand(10) == expected
    timer.check("10 (property suites)")
