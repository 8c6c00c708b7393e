import ast
import hashlib
import importlib.util
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import sponges
from sponges.exactalg import (
    IntegerMatrix,
    rank,
    smith_diagonal,
    smith_normal_form,
)

import pytest
from oracles import (
    dense_product,
    dense_submatrix,
    dense_transpose,
    dependency_kernel,
    determinant_bareiss,
    integer_kernel_basis,
    rank_fraction_free,
    rational_rref,
    submatrix,
)


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


def test_dependency_kernel_random_suite():
    """300 random matrices: one integer kernel vector per column that is not
    a pivot of the rank oracle, with entry > 0 there and 0 at later columns."""
    rng = random.Random(1912)
    for trial in range(300):
        rows = [[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))]]
        rows += [[rng.randint(-5, 5) for _ in rows[0]] for _ in range(rng.randint(0, 6))]
        m = mat(rows)
        _, pivots = rational_rref(rows)
        free = [j for j in range(m.cols) if j not in pivots]
        basis = dependency_kernel(m)
        assert len(basis) == len(free) == m.cols - rank_fraction_free(rows), trial
        for j, v in zip(free, basis):
            assert apply_matrix(m, v) == (0,) * m.rows, trial
            assert v[j] > 0 and not any(v[j + 1:]), trial
    assert dependency_kernel(IntegerMatrix.zeros(0, 2)) == [(1, 0), (0, 1)]
    assert dependency_kernel(mat([[2, 4]])) == [(-2, 1)]


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


def test_benchmark_traces_names_the_library_defines():
    """`bench/spans.py` wraps every (module, qualname) of its TRACED by name,
    so each must resolve in `sponges.<module>`; a class attribute must be in
    the class `__dict__`, where `Tracer.installed` looks it up."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, qualname in spans.TRACED:
        owner = importlib.import_module(f"sponges.{module}")
        *classes, attr = qualname.split(".")
        for name in classes:
            owner = vars(owner).get(name)
            assert isinstance(owner, type), (module, qualname)
        assert attr in vars(owner), (module, qualname)


def test_library_modules_use_every_import():
    """Each name a module of the package imports is used in it; only
    `__init__` imports names just to re-export them."""
    for path in sorted(Path(sponges.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_library_does_not_import_dataclasses():
    """Records are named tuples or plain classes: importing `dataclasses`
    costs every CLI process the `inspect` module and its imports."""
    for path in sorted(Path(sponges.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, f"{path.name} line {node.lineno}"


def test_library_builds_complexes_only_from_cells_and_the_cosheaf():
    """`IntegerChainComplex(...)` is called only where a complex is built
    from data that can break d o d = 0: `complexes.cell_complex` and
    `cosheaf.assemble_chain_complex`.  A complex derived from a checked one,
    such as a coreduction residual, stays plain data and is not rebuilt."""
    found = set()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            elif isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "IntegerChainComplex"
                    or getattr(child.func, "attr", None) == "IntegerChainComplex"):
                found.add((path.stem, owner, child.lineno))
            visit(child, path, inner)

    for path in sorted(Path(sponges.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    allowed = {("complexes", "cell_complex"), ("cosheaf", "assemble_chain_complex")}
    assert {(module, owner) for module, owner, _ in found} == allowed, sorted(found)


def _runs_on_import(node):
    """The nodes under ``node`` that run when its module is imported: no
    function body, and no ``if TYPE_CHECKING:`` body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            for stmt in child.orelse:
                yield stmt
                yield from _runs_on_import(stmt)
            continue
        yield child
        yield from _runs_on_import(child)


def test_cli_imports_only_the_standard_library_and_errors():
    """`python -m sponges` imports the CLI, so what the CLI imports with it
    is the standard library and `.errors`; each command imports its own
    layers when it runs."""
    tree = ast.parse((Path(sponges.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = []
    for node in _runs_on_import(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    assert any(name == ".errors" for _, name in found)
    layers = [(line, name) for line, name in found if name != ".errors" and (
        name.startswith(".") or name.partition(".")[0] not in sys.stdlib_module_names)]
    assert not layers, f"cli.py imports layers at module level: {layers}"


def test_every_library_definition_is_referenced():
    """No dead code: each top-level function or class of the package is named
    (as a name, an attribute or an import) somewhere in the package or the
    tests, and each non-dunder method is named as an attribute.  Dunders, at
    module level (PEP 562's ``__getattr__``) or in a class, are called by
    the interpreter by name."""
    package = Path(sponges.__file__).parent
    defined = []
    names, attributes = set(), set()
    for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if path.parent != package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined.append((path.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (path.name, f"{node.name}.{item.name}", True) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    unused = [(f, name) for f, name, method in defined
              if name.rpartition(".")[2] not in (attributes if method else names | attributes)]
    assert not unused, f"defined but never referenced: {unused}"


def _random_rows(rng, nrows, ncols, density):
    return [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def test_sparse_matrix_matches_dense_reference():
    """Sparse entries, views and products agree with dense row lists, 0xk and kx0 included."""
    rng = random.Random(8128)
    for trial in range(300):
        r, k, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a_rows = _random_rows(rng, r, k, rng.choice([0.0, 0.3, 1.0]))
        b_rows = _random_rows(rng, k, c, rng.choice([0.0, 0.3, 1.0]))
        a = IntegerMatrix.from_rows(a_rows, cols=k)
        b = IntegerMatrix.from_rows(b_rows, cols=c)
        assert a.shape == (r, k) and a.to_rows() == a_rows, f"trial {trial}"
        assert a.mul(b).to_rows() == dense_product(a_rows, b_rows, c), f"trial {trial}"
        assert a.transpose().to_rows() == dense_transpose(a_rows, k), f"trial {trial}"
        assert a.transpose().shape == (k, r) and a.transpose().transpose() == a
        row_idx = [rng.randrange(r) for _ in range(rng.randint(0, 4))] if r else []
        col_idx = [rng.randrange(k) for _ in range(rng.randint(0, 4))] if k else []
        assert submatrix(a, row_idx, col_idx).to_rows() == dense_submatrix(a_rows, row_idx, col_idx)
        assert all(a.entry(i, j) == a_rows[i][j] for i in range(r) for j in range(k))
        assert all(a.row(i) == tuple(a_rows[i]) for i in range(r))
        assert all(a.column(j) == tuple(row[j] for row in a_rows) for j in range(k))
        nonzeros = {(i, j): v for i, row in enumerate(a_rows) for j, v in enumerate(row) if v}
        assert a.nonzero_items() == tuple((i, j, v) for (i, j), v in sorted(nonzeros.items()))
        assert a.is_zero() == (not nonzeros)
        same = IntegerMatrix(r, k, {**nonzeros, **{(i, j): 0 for i in range(r) for j in range(k)
                                                   if (i, j) not in nonzeros}})
        assert same == a and hash(same) == hash(a)
        other = IntegerMatrix.from_rows(_random_rows(rng, r, k, 0.5), cols=k)
        assert (other == a) == (other.to_rows() == a_rows)
        assert IntegerMatrix.zeros(r, k) != IntegerMatrix.zeros(r, k + 1)


def test_sparse_matrix_rejects_out_of_range_indices():
    for bad in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            IntegerMatrix(2, 3, {bad: 1})
    m = IntegerMatrix(2, 3, {(1, 2): 4})
    with pytest.raises(IndexError):
        m.entry(2, 0)
    with pytest.raises(IndexError):
        m.entry(0, -1)
    with pytest.raises(ValueError):
        submatrix(m, [2], [0])
    with pytest.raises(ValueError):
        submatrix(m, [0], [-1])
    with pytest.raises(ValueError):
        IntegerMatrix(-1, 2, {})
    assert IntegerMatrix(2, 3, {(0, 0): 0}) == IntegerMatrix.zeros(2, 3)
    assert IntegerMatrix(2, 3, {(0, 0): 0}).nonzero_items() == ()


def test_sparse_matrix_rejects_non_integer_entries():
    """A non-integer value is refused with its index, never truncated."""
    for bad, index in [({(0, 0): Fraction(1, 2), (0, 1): 2}, "(0, 0)"),
                       ({(0, 0): 0, (0, 1): 2.7}, "(0, 1)"),
                       ({(0, 1): Fraction(-7, 3)}, "(0, 1)"),
                       # infinities raised OverflowError, NaN an unindexed ValueError
                       ({(0, 0): float("inf")}, "(0, 0)"),
                       ({(0, 0): float("-inf")}, "(0, 0)"),
                       ({(0, 0): float("nan")}, "(0, 0)"),
                       # True read as 1; 'x' and None raised unindexed errors from int()
                       ({(0, 1): True}, "(0, 1)"),
                       ({(0, 0): "x"}, "(0, 0)"),
                       ({(0, 1): None}, "(0, 1)")]:
        with pytest.raises(ValueError, match=re.escape(f"at {index} is not an integer")):
            IntegerMatrix(1, 2, bad)
    m = IntegerMatrix(1, 2, {(0, 0): Fraction(4, 2), (0, 1): Fraction(0)})
    assert m.nonzero_items() == ((0, 0, 2),) and type(m.entry(0, 0)) is int
    assert IntegerMatrix(1, 2, {(0, 1): 3.0}).nonzero_items() == ((0, 1, 3),)


def test_huge_sparse_matrix_is_instant():
    """Cost follows the nonzeros: a 10^6 x 10^6 matrix with three of them."""
    n = 10**6
    start = time.perf_counter()
    m = IntegerMatrix(n, n, {(0, 5): 2, (n - 1, 0): -1, (5, n - 1): 3})
    t = m.transpose()
    assert t.entry(5, 0) == 2 and t.entry(0, n - 1) == -1 and t.transpose() == m
    assert m.mul(t).nonzero_items() == ((0, 0, 4), (5, 5, 9), (n - 1, n - 1, 1))
    assert m.mul(m).nonzero_items() == ((0, n - 1, 6), (5, 0, -3), (n - 1, 5, -2))
    assert m != t and m == IntegerMatrix(n, n, dict(((i, j), v) for i, j, v in m.nonzero_items()))
    assert not m.is_zero() and IntegerMatrix.zeros(n, n).is_zero()
    assert time.perf_counter() - start < 1.0


# sha256 of the Smith transforms and diagonals over the seeded suite below,
# recorded with the dense-storage implementation this one replaced: the
# pivot order, and so every U, V and D, must not change.
SMITH_SUITE_SHA256 = "1f8d81ad475a68885ad78c6795e27f45807821d41c042fade488726ab8a11137"


def _smith_suite_digest():
    rng = random.Random(4096)
    h = hashlib.sha256()
    for _ in range(300):
        nrows, ncols = rng.randint(0, 10), rng.randint(0, 10)
        density = rng.choice([0.15, 0.4, 1.0])
        values = rng.choice([[-1, 1], [-3, -2, -1, 1, 2, 3], list(range(-9, 10))])
        rows = [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        m = IntegerMatrix.from_rows(rows, cols=ncols)
        snf = smith_normal_form(m)
        h.update(repr((snf.U.to_rows(), snf.V.to_rows(), snf.D.to_rows(), snf.diagonal,
                       smith_diagonal(m))).encode())
    return h.hexdigest()


def test_smith_transforms_match_pinned_digest():
    assert _smith_suite_digest() == SMITH_SUITE_SHA256


# sha256 of the Smith transforms and diagonals over sparse 20-80-row
# matrices, mostly +-1 with some larger entries, so that elimination fills
# in and pivot values shrink well after the first pivot.  Recorded with the
# full-scan pivot search that the pivot queue replaced.
SMITH_LARGE_SUITE_SHA256 = "9f50d90abe733461c74a855f0658e4336a6d9ac534cedb24382ca05253658dd6"


def _smith_large_suite_digest():
    rng = random.Random(271828)
    h = hashlib.sha256()
    for _ in range(40):
        nrows, ncols = rng.randint(20, 80), rng.randint(20, 80)
        density = rng.choice([0.03, 0.06, 0.12])
        entries = {}
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < density:
                    v = rng.choice([1, -1]) if rng.random() < 0.85 else rng.randint(2, 9)
                    entries[i, j] = v if rng.random() < 0.5 else -v
        m = IntegerMatrix(nrows, ncols, entries)
        snf = smith_normal_form(m)
        h.update(repr((snf.U.to_rows(), snf.V.to_rows(), snf.D.to_rows(), snf.diagonal,
                       smith_diagonal(m))).encode())
    return h.hexdigest()


def test_smith_transforms_match_pinned_digest_at_scale():
    assert _smith_large_suite_digest() == SMITH_LARGE_SUITE_SHA256
