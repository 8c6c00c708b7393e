"""Exact integer matrix algebra: sparse matrices, Smith normal form, rank.

Everything here runs on Python's arbitrary-precision integers and exact
rationals; no floating point is used anywhere.  Matrices are immutable and
sparse: they store only their nonzero entries, so memory and the cost of
products, transposes and comparisons grow with the nonzeros, not with
rows x columns.  All routines are safe for concurrent use.

The Smith normal form is the computational bedrock for every homology
computation in this package.  Pivoting always picks the nonzero entry of
smallest absolute value, breaking ties by lowest (row, column); this keeps
intermediate entry growth down and makes the output deterministic.  The
pivot search is a lazy min-heap of (abs, row, column) keys, about one per
row, with the invariant that every nonzero row has a queued key no larger
than the key of any of its entries (a key is pushed only when an entry's
key falls below its row's bound).  A key on top whose row is gone is
dropped, one below its row's least entry is re-keyed to that entry, and one
equal to it is the pivot.  So the pivots are exactly those of a full scan,
found with heap operations and a scan of one row instead of every nonzero.
Rank and torsion go through `smith_diagonal`; no library path asks for the
transforms of `smith_normal_form`, which stays as API.  Ranks of rational
matrices come from Smith diagonals once their denominators are cleared; the
one solver over Q, for homology bases, reduces sparse columns in `complexes`.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import Mapping, NamedTuple, Sequence


class IntegerMatrix:
    """An immutable integer matrix that stores only its nonzero entries.

    ``entries`` maps (i, j) to a value.  Zeros are dropped, indices outside
    the shape and non-integer values are rejected, and the nonzeros are kept
    as a tuple of (i, j, value) triples in row-major order.  Products,
    transposes, comparisons and zero tests cost O(nnz); only
    the dense views `to_rows`, `row` and `column` cost O(rows x cols).
    """

    __slots__ = ("rows", "cols", "_nonzeros")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        nonzeros = []
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"index ({i}, {j}) outside a {rows}x{cols} matrix")
            if type(v) is not int:
                try:  # int() refuses NaN, infinities, strings and None
                    whole = type(v) is not bool and v == int(v)
                except (TypeError, ValueError, OverflowError):
                    whole = False
                if not whole:
                    raise ValueError(f"entry {v!r} at ({i}, {j}) is not an integer")
                v = int(v)
            if v:
                nonzeros.append((i, j, v))
        self.rows, self.cols, self._nonzeros = rows, cols, tuple(sorted(nonzeros))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        entries = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
        return cls(len(rows), ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, {})

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        k = bisect_left(self._nonzeros, (i, j))
        if k < len(self._nonzeros) and self._nonzeros[k][:2] == (i, j):
            return self._nonzeros[k][2]
        return 0

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.entry(i, j) for j in range(self.cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for i, j, v in self._nonzeros:
            out[i][j] = v
        return out

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows, {(j, i): v for i, j, v in self._nonzeros})

    def is_zero(self) -> bool:
        return not self._nonzeros

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """Exact product, summing over matching nonzero pairs only."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        other_rows: dict[int, list[tuple[int, int]]] = {}
        for k, j, b in other._nonzeros:
            other_rows.setdefault(k, []).append((j, b))
        out: dict[tuple[int, int], int] = {}
        for i, k, a in self._nonzeros:
            for j, b in other_rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + a * b
        return IntegerMatrix(self.rows, other.cols, out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def nonzero_items(self) -> tuple[tuple[int, int, int], ...]:
        """The (i, j, value) triples of the nonzero entries, row-major order."""
        return self._nonzeros

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.shape == other.shape
            and self._nonzeros == other._nonzeros
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._nonzeros))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            return f"IntegerMatrix({self.to_rows()!r})"
        return f"IntegerMatrix(<{self.rows}x{self.cols}>)"


class SmithDecomposition(NamedTuple):
    """U * M * V = D with U, V unimodular and D diagonal.

    ``diagonal`` lists the positive invariant factors d_1 | d_2 | ... | d_r;
    every remaining diagonal entry of D is zero.
    """

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    diagonal: tuple[int, ...]

    def verify(self, m: IntegerMatrix) -> bool:
        """Check U*M*V == D and the shape of the diagonal (not unimodularity)."""
        if len(self.diagonal) > min(m.shape) or not _divisibility_chain_ok(self.diagonal):
            return False
        return self.D == _diagonal_matrix(m.shape, self.diagonal) == self.U.mul(m).mul(self.V)


def _diagonal_matrix(shape: tuple[int, int], diagonal: Sequence[int]) -> IntegerMatrix:
    return IntegerMatrix(*shape, {(k, k): d for k, d in enumerate(diagonal)})


def _divisibility_chain_ok(diag: Sequence[int]) -> bool:
    if any(d <= 0 for d in diag):
        return False
    return all(diag[k + 1] % diag[k] == 0 for k in range(len(diag) - 1))


class _Eliminator:
    """Sparse elimination engine shared by the diagonal-only and full SNF.

    The work matrix is held as a dict of sparse rows plus a column index.
    The pivot queue holds (abs, row, column) keys packed into one int,
    abs * rows * cols + row * cols + col, which sorts the same way; ``bound``
    maps a row to one of its queued keys, no larger than any of its entries'.
    Row operations optionally mirror into U (a dense rows x rows transform)
    and column operations into V (cols x cols), so that U*M*V equals the
    eliminated matrix at every step.
    """

    def __init__(self, m: IntegerMatrix, with_transforms: bool):
        self.nrows = m.rows
        self.ncols = m.cols
        self.rowdata: dict[int, dict[int, int]] = {}
        self.colindex: dict[int, set[int]] = {}
        self.area = m.rows * m.cols
        self.bound: dict[int, int] = {}
        for i, j, v in m.nonzero_items():
            self.rowdata.setdefault(i, {})[j] = v
            self.colindex.setdefault(j, set()).add(i)
            key = abs(v) * self.area + i * m.cols + j
            if key < self.bound.get(i, key + 1):
                self.bound[i] = key
        self.queue = list(self.bound.values())
        heapify(self.queue)
        self.with_transforms = with_transforms
        if with_transforms:
            self.U = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
            self.V = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
        self.diagonal: list[int] = []
        self.pivots: list[tuple[int, int]] = []

    # -- elementary operations ------------------------------------------

    def _set(self, r: int, c: int, v: int) -> None:
        if v:
            self.rowdata.setdefault(r, {})[c] = v
            self.colindex.setdefault(c, set()).add(r)
            key = abs(v) * self.area + r * self.ncols + c
            if key < self.bound.get(r, key + 1):
                self.bound[r] = key
                heappush(self.queue, key)
        else:
            row = self.rowdata.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del self.rowdata[r]
                col = self.colindex[c]
                col.discard(r)
                if not col:
                    del self.colindex[c]

    def row_op(self, dst: int, src: int, q: int) -> None:
        """row[dst] -= q * row[src]"""
        if q == 0:
            return
        src_row = dict(self.rowdata.get(src, {}))
        for c, v in src_row.items():
            cur = self.rowdata.get(dst, {}).get(c, 0)
            self._set(dst, c, cur - q * v)
        if self.with_transforms:
            U, Udst, Usrc = self.U, self.U[dst], self.U[src]
            for k in range(self.nrows):
                Udst[k] -= q * Usrc[k]

    def col_op(self, dst: int, src: int, q: int) -> None:
        """col[dst] -= q * col[src]"""
        if q == 0:
            return
        for r in sorted(self.colindex.get(src, set())):
            v = self.rowdata[r][src]
            cur = self.rowdata.get(r, {}).get(dst, 0)
            self._set(r, dst, cur - q * v)
        if self.with_transforms:
            for row in self.V:
                row[dst] -= q * row[src]

    def negate_row(self, r: int) -> None:
        for c, v in list(self.rowdata.get(r, {}).items()):
            self.rowdata[r][c] = -v
        if self.with_transforms:
            self.U[r] = [-x for x in self.U[r]]

    # -- pivot machinery --------------------------------------------------

    def _find_pivot(self) -> tuple[int, int, int] | None:
        """The live entry of least (abs, row, column); see the module docstring."""
        queue = self.queue
        while queue:
            r = queue[0] % self.area // self.ncols
            row = self.rowdata.get(r)
            if row is None:
                heappop(queue)
                self.bound.pop(r, None)
                continue
            a, c = min((abs(v), c) for c, v in row.items())
            key = a * self.area + r * self.ncols + c
            if key == queue[0]:
                return r, c, row[c]
            heapreplace(queue, key)
            self.bound[r] = key
        return None

    def run(self) -> None:
        while True:
            found = self._find_pivot()
            if found is None:
                break
            r, c, v = found
            if v < 0:
                self.negate_row(r)
                v = -v
            r, c, v = self._reduce_pivot(r, c, v)
            self.diagonal.append(v)
            self.pivots.append((r, c))
            # pivot row/column now hold only the pivot entry; retire them
            self._set(r, c, 0)

        if not _divisibility_chain_ok(self.diagonal):
            raise RuntimeError(f"Smith diagonal {self.diagonal} is not a divisibility chain")

    def _reduce_pivot(self, r: int, c: int, v: int) -> tuple[int, int, int]:
        """Clear row r / column c, keeping the pivot dividing everything left."""
        while True:
            # clear the pivot column
            for r2 in sorted(self.colindex.get(c, set()) - {r}):
                q = self.rowdata[r2][c] // v
                self.row_op(r2, r, q)
            # remainders lie in [0, v); a nonzero one becomes the new pivot
            rem = [
                (self.rowdata[r2][c], r2)
                for r2 in self.colindex.get(c, set()) - {r}
            ]
            if rem:
                v, r = min(rem)
                continue
            # clear the pivot row (column ops never touch column c)
            for c2 in sorted(set(self.rowdata.get(r, {})) - {c}):
                q = self.rowdata[r][c2] // v
                self.col_op(c2, c, q)
            rem = [
                (self.rowdata[r][c2], c2)
                for c2 in set(self.rowdata.get(r, {})) - {c}
            ]
            if rem:
                # the new pivot column may be dirty; restart fully
                v, c = min(rem)
                continue
            # pivot isolated; enforce divisibility of the remaining submatrix
            bad = self._find_nondivisible(r, v)
            if bad is None:
                return r, c, v
            self.row_op(r, bad, -1)  # fold the offending row into the pivot row

    def _find_nondivisible(self, pivot_row: int, v: int) -> int | None:
        if v == 1:
            return None
        offending = (r2 for r2, row in self.rowdata.items()
                     if r2 != pivot_row and any(x % v for x in row.values()))
        return min(offending, default=None)

    # -- result assembly ---------------------------------------------------

    def permuted_transforms(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        """Reorder U rows / V columns so pivots land on the main diagonal."""
        pivot_rows = [r for r, _ in self.pivots]
        pivot_cols = [c for _, c in self.pivots]
        row_order = pivot_rows + [r for r in range(self.nrows) if r not in set(pivot_rows)]
        col_order = pivot_cols + [c for c in range(self.ncols) if c not in set(pivot_cols)]
        U = IntegerMatrix.from_rows([self.U[r] for r in row_order])
        V = IntegerMatrix.from_rows([[row[c] for c in col_order] for row in self.V])
        return U, V


def smith_diagonal(m: IntegerMatrix) -> tuple[int, ...]:
    """The invariant factors of m (positive entries of its Smith form only)."""
    worker = _Eliminator(m, with_transforms=False)
    worker.run()
    return tuple(worker.diagonal)


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Full Smith decomposition U*M*V = D with unimodular transforms.

    U and V are products of elementary integer operations (determinant +-1 by
    construction).  Output is deterministic for a given input.
    """
    worker = _Eliminator(m, with_transforms=True)
    worker.run()
    U, V = worker.permuted_transforms()
    diag = tuple(worker.diagonal)
    result = SmithDecomposition(U=U, D=_diagonal_matrix(m.shape, diag), V=V, diagonal=diag)
    if not result.verify(m):
        raise RuntimeError("Smith decomposition postcondition failed")
    return result


def rank(m: IntegerMatrix) -> int:
    """Rank of m over Q (= number of nonzero Smith diagonal entries)."""
    return len(smith_diagonal(m))

