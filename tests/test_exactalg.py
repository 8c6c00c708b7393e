import ast
import random
from fractions import Fraction
from pathlib import Path

import sponges
from sponges.exactalg import (
    IntegerMatrix,
    integer_kernel_basis,
    rank,
    rational_rref,
    smith_diagonal,
    smith_normal_form,
)

from oracles import determinant_bareiss, rank_fraction_free


def mat(rows):
    return IntegerMatrix.from_rows(rows)


def apply_matrix(m, vec):
    return tuple(
        sum(m.entry(i, j) * vec[j] for j in range(m.cols)) for i in range(m.rows)
    )


def test_snf_two_by_two():
    m = mat([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.diagonal == (2, 4)
    # the product of invariant factors is |det M| = 8
    assert snf.diagonal[0] * snf.diagonal[1] == abs(determinant_bareiss([[2, 4], [6, 8]]))
    assert snf.U.mul(m).mul(snf.V) == snf.D
    assert abs(determinant_bareiss(snf.U.to_rows())) == 1
    assert abs(determinant_bareiss(snf.V.to_rows())) == 1


def test_snf_identity():
    m = IntegerMatrix.identity(3)
    snf = smith_normal_form(m)
    assert snf.diagonal == (1, 1, 1)
    assert snf.U.mul(m).mul(snf.V) == snf.D


def test_snf_zero_matrix():
    m = IntegerMatrix.zeros(2, 3)
    snf = smith_normal_form(m)
    assert snf.diagonal == ()
    assert snf.D == IntegerMatrix.zeros(2, 3)


def test_snf_empty_matrices():
    for shape in [(0, 0), (0, 4), (4, 0)]:
        m = IntegerMatrix.zeros(*shape)
        snf = smith_normal_form(m)
        assert snf.diagonal == ()
        assert snf.U.shape == (shape[0], shape[0])
        assert snf.V.shape == (shape[1], shape[1])


def test_snf_deterministic():
    m = mat([[6, 10, 4], [2, 8, 14], [0, 12, 6]])
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second
    assert smith_diagonal(m) == first.diagonal


def test_rank_examples():
    assert rank(mat([[2, 4], [6, 8]])) == 2
    assert rank(IntegerMatrix.zeros(3, 2)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_single_row():
    m = mat([[1, 2]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    assert apply_matrix(m, basis[0]) == (0,)
    # (2, -1) up to sign / unimodular change: entries must be coprime
    x, y = basis[0]
    assert abs(x * 1 + y * 2) == 0 and (abs(x), abs(y)) == (2, 1)


def test_kernel_identity_and_zero():
    assert integer_kernel_basis(IntegerMatrix.identity(4)) == []
    basis = integer_kernel_basis(IntegerMatrix.zeros(1, 2))
    assert len(basis) == 2
    assert abs(determinant_bareiss([list(v) for v in basis])) == 1


def test_kernel_saturation():
    # kernel of [[2, 4]] is generated by (2, -1), not (4, -2)
    basis = integer_kernel_basis(mat([[2, 4]]))
    assert len(basis) == 1
    from math import gcd

    assert gcd(basis[0][0], basis[0][1]) == 1


def test_snf_postconditions_random_suite():
    """500 random matrices: U*M*V = D, unimodularity, divisibility, rank oracle."""
    rng = random.Random(20240517)
    for trial in range(500):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        m = mat(rows)
        snf = smith_normal_form(m)
        assert snf.U.mul(m).mul(snf.V) == snf.D, f"trial {trial}"
        assert abs(determinant_bareiss(snf.U.to_rows())) == 1, f"trial {trial}"
        assert abs(determinant_bareiss(snf.V.to_rows())) == 1, f"trial {trial}"
        diag = snf.diagonal
        assert all(d > 0 for d in diag)
        assert all(diag[k + 1] % diag[k] == 0 for k in range(len(diag) - 1))
        assert len(diag) == rank_fraction_free(rows), f"trial {trial}"
        # kernel vectors genuinely lie in the kernel and have the right count
        basis = integer_kernel_basis(m)
        assert len(basis) == ncols - len(diag)
        for v in basis:
            assert apply_matrix(m, v) == (0,) * nrows


def test_rational_rref_random_suite():
    """Rank, leftmost independent pivot columns and reduced form, 300 matrices."""
    rng = random.Random(31415)
    for trial in range(300):
        nrows = rng.randint(0, 7)
        ncols = rng.randint(1, 7)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(ncols)]
                for _ in range(nrows)]
        reduced, pivots = rational_rref(rows)
        assert len(pivots) == rank_fraction_free(rows), f"trial {trial}"
        # column j is a pivot exactly when it raises the rank of columns 0..j
        for j in range(ncols):
            before = rank_fraction_free([r[:j] for r in rows]) if j else 0
            assert (j in pivots) == (rank_fraction_free([r[: j + 1] for r in rows]) > before)
        for k, (row, p) in enumerate(zip(reduced, pivots)):
            assert all(x == 0 for x in row[:p]) and row[p] == 1
            assert all(other[p] == 0 for i, other in enumerate(reduced) if i != k)
        assert all(isinstance(x, Fraction) for row in reduced for x in row)


def test_library_has_no_assert_statements():
    """Postconditions are explicit raises, so they survive python -O."""
    for path in sorted(Path(sponges.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
