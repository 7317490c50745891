"""Exact sparse linear algebra over the rationals.

One elimination engine, ``Echelon``, sits behind every span test, solve,
nullspace and coordinate read-off: vectors go in one at a time, an
independent one becomes a new pivot row that records its combination of
the kept vectors, and a dependent one is read off in a single reduction.
Vectors enter in a fixed order (columns left to right), so pivot columns,
kernel bases and cohomology representatives are reproducible.

Rank is computed separately, as an independent oracle, by fraction-free
elimination on integer-normalized rows (two-row cross-multiplication
updates followed by a content division) with Markowitz-style pivot
selection to limit fill-in.  The dense helpers serve the small fiber
matrices and the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Mapping, Sequence

from .errors import BasisMismatchError, InternalConsistencyError

Entries = Mapping[tuple[int, int], Fraction]


# -- dense helpers for small fiber matrices ---------------------------------


def dense_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and pivot column list."""
    mat = [list(map(Fraction, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def dense_rank(rows: list[list[Fraction]]) -> int:
    return len(dense_rref(rows)[1])


def dense_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Deterministic kernel basis (free columns in increasing order)."""
    rref, pivots = dense_rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][free]
        basis.append(vec)
    return basis


def dense_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    rref, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        raise InternalConsistencyError("matrix is not invertible")
    return [row[n:] for row in rref[:n]]


# -- sparse exact rank -------------------------------------------------------


def _int_normalize(row: dict[int, Fraction]) -> dict[int, int]:
    if not row:
        return {}
    denom_lcm = 1
    for v in row.values():
        d = v.denominator
        denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
    ints = {c: int(v * denom_lcm) for c, v in row.items()}
    content = 0
    for v in ints.values():
        content = gcd(content, v)
    if content > 1:
        ints = {c: v // content for c, v in ints.items()}
    return ints


def _content_reduce(row: dict[int, int]) -> dict[int, int]:
    content = 0
    for v in row.values():
        content = gcd(content, v)
        if content == 1:
            return row
    if content > 1:
        return {c: v // content for c, v in row.items()}
    return row


def sparse_rank(entries: Entries, nrows: int, ncols: int) -> int:
    """Exact rank by fraction-free elimination with Markowitz pivoting."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
    work = {r: _int_normalize(row) for r, row in rows.items() if row}
    rank = 0
    while work:
        col_count: dict[int, int] = {}
        for row in work.values():
            for c in row:
                col_count[c] = col_count.get(c, 0) + 1
        best = None
        for r, row in work.items():
            r_nnz = len(row)
            for c in row:
                score = (r_nnz - 1) * (col_count[c] - 1)
                key = (score, c, r)
                if best is None or key < best:
                    best = key
        _, pc, pr = best
        pivot_row = work.pop(pr)
        pivot = pivot_row[pc]
        rank += 1
        dead = []
        for r, row in work.items():
            if pc not in row:
                continue
            factor = row.pop(pc)
            # fraction-free update: row := pivot * row - factor * pivot_row
            new_row = {c: v * pivot for c, v in row.items()}
            for c, v in pivot_row.items():
                if c == pc:
                    continue
                nv = new_row.get(c, 0) - factor * v
                if nv:
                    new_row[c] = nv
                elif c in new_row:
                    del new_row[c]
            work[r] = _content_reduce(new_row)
            if not work[r]:
                dead.append(r)
        for r in dead:
            del work[r]
    return rank


# kept only because the TARGETS list of perfbench/tracer.py still wraps this
# name; the alias goes together with that entry (ROADMAP item 1)
rank_modular = sparse_rank


# -- the elimination engine (Fraction arithmetic) -----------------------------


class Echelon:
    """Incremental echelon form of a growing set of sparse vectors.

    ``add`` reduces a vector against the rows held so far.  A nonzero
    residue becomes a new pivot row (pivot at its smallest index, scaled to
    one) and the vector is kept under its label; a zero residue means the
    vector lies in the span and it is dropped.  Every row records its
    combination of the kept vectors, so ``coords`` -- a span test, a solve
    and a coordinate read-off in one -- is a single reduction.

    Rows are never back-substituted: row i holds no pivot of an earlier
    row, so one pass in row order clears every pivot from a residue.
    Coordinates over the kept (independent) vectors are unique, so they do
    not depend on the pivot choice.
    """

    __slots__ = ("labels", "_pivots", "_rows", "_combos")

    def __init__(self, vectors: Sequence[Mapping[int, Fraction]] = ()):
        self.labels: list = []
        self._pivots: list[int] = []
        self._rows: list[dict[int, Fraction]] = []
        # row i = sum over j of _combos[i][j] * (j-th kept vector)
        self._combos: list[dict[int, Fraction]] = []
        for label, vec in enumerate(vectors):
            self.add(vec, label)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, vec: Mapping[int, Fraction], label=None) -> bool:
        """Keep vec under label (default: its kept index) unless it lies in the span.

        Returns True when vec was kept as a new pivot row.
        """
        residue, used = self._reduce(vec)
        if not residue:
            return False
        pivot = min(residue)
        inv = 1 / Fraction(residue[pivot])
        combo = {j: -v * inv for j, v in self._combine(used).items()}
        combo[len(self._rows)] = inv
        self._pivots.append(pivot)
        self._rows.append({k: v * inv for k, v in residue.items()})
        self._combos.append(combo)
        self.labels.append(len(self.labels) if label is None else label)
        return True

    def coords(self, vec: Mapping[int, Fraction]) -> dict | None:
        """Coordinates of vec over the kept vectors by label, or None outside the span."""
        residue, used = self._reduce(vec)
        if residue:
            return None
        return {self.labels[j]: v for j, v in sorted(self._combine(used).items()) if v}

    def _reduce(self, vec: Mapping[int, Fraction]):
        residue = {k: v for k, v in vec.items() if v}
        used: list[tuple[int, Fraction]] = []
        for i, pivot in enumerate(self._pivots):
            c = residue.get(pivot)
            if c is None:
                continue
            used.append((i, c))
            for k, v in self._rows[i].items():
                new = residue.get(k, 0) - c * v
                if new:
                    residue[k] = new
                else:
                    del residue[k]
        return residue, used

    def _combine(self, used) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in used:
            for j, w in self._combos[i].items():
                out[j] = out.get(j, 0) + c * w
        return out


def _columns(entries: Entries, ncols: int) -> list[dict[int, Fraction]]:
    cols: list[dict[int, Fraction]] = [{} for _ in range(ncols)]
    for (r, c), v in entries.items():
        if v:
            cols[c][r] = v
    return cols


def sparse_rref(entries: Entries, nrows: int, ncols: int) -> Echelon:
    """Column echelon of a matrix: columns added left to right, labelled by index.

    The kept labels are the pivot columns of the reduced row echelon form.
    """
    echelon = Echelon()
    for j, col in enumerate(_columns(entries, ncols)):
        echelon.add(col, j)
    return echelon


def sparse_nullspace(entries: Entries, nrows: int, ncols: int) -> list[dict[int, Fraction]]:
    """Deterministic kernel basis, one vector per free column.

    Column j is free exactly when it lies in the span of the columns before
    it; its coordinates over them give the kernel vector.
    """
    echelon = Echelon()
    basis: list[dict[int, Fraction]] = []
    for j, col in enumerate(_columns(entries, ncols)):
        if echelon.add(col, j):
            continue
        vec = {j: Fraction(1)}
        for c, v in echelon.coords(col).items():
            vec[c] = -v
        basis.append(vec)
    return basis


def sparse_solve(entries: Entries, nrows: int, ncols: int, rhs: Mapping[int, Fraction]) -> dict[int, Fraction] | None:
    """The solution of A x = b supported on the pivot columns, or None if inconsistent."""
    return sparse_rref(entries, nrows, ncols).coords(rhs)


# -- operator matrices --------------------------------------------------------


@dataclass(frozen=True)
class SectionBasis:
    """Ordered basis of a truncated graded section space.

    ``key`` identifies the space (chart signature, degree, twist, flavor);
    each label is ``(block, element)`` where block is a weight or mode tag.
    """

    key: tuple
    labels: tuple[tuple, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def position(self) -> dict[tuple, int]:
        """Label -> index, built once per basis."""
        return {label: i for i, label in enumerate(self.labels)}

    def blocks(self) -> list[tuple]:
        seen: list[tuple] = []
        for block, _ in self.labels:
            if block not in seen:
                seen.append(block)
        return seen


class OperatorMatrix:
    """Sparse rational matrix between two section bases."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: SectionBasis, cols: SectionBasis, entries: Entries):
        self.rows = rows
        self.cols = cols
        self.entries = {k: Fraction(v) for k, v in entries.items() if v}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.dim, self.cols.dim)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OperatorMatrix)
            and other.rows.labels == self.rows.labels
            and other.cols.labels == self.cols.labels
            and other.entries == self.entries
        )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self.compose(other)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self . other, requiring matching intermediate bases."""
        if self.cols.labels != other.rows.labels:
            raise BasisMismatchError(
                f"cannot compose: inner bases differ ({self.cols.key} vs {other.rows.key})"
            )
        by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other.entries.items():
            by_col.setdefault(c, []).append((r, v))
        by_inner: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in self.entries.items():
            by_inner.setdefault(c, []).append((r, v))
        out: dict[tuple[int, int], Fraction] = {}
        for c, inner_list in by_col.items():
            for inner, v in inner_list:
                for r, w in by_inner.get(inner, ()):  # noqa: B905
                    key = (r, c)
                    out[key] = out.get(key, Fraction(0)) + w * v
        return OperatorMatrix(self.rows, other.cols, out)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.rows.labels != other.rows.labels or self.cols.labels != other.cols.labels:
            raise BasisMismatchError("cannot add matrices over different bases")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, Fraction(0)) + v
        return OperatorMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, q: Fraction) -> "OperatorMatrix":
        return OperatorMatrix(self.rows, self.cols, {k: v * q for k, v in self.entries.items()})

    def apply(self, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                out[r] = out.get(r, Fraction(0)) + v * x
        return {r: v for r, v in out.items() if v}

    def rank(self) -> int:
        return sparse_rank(self.entries, self.rows.dim, self.cols.dim)

    def nullspace(self) -> list[dict[int, Fraction]]:
        return sparse_nullspace(self.entries, self.rows.dim, self.cols.dim)

    def off_block_entries(self) -> list[tuple[int, int]]:
        """Positions whose row and column lie in different grading blocks."""
        bad = []
        for (r, c) in self.entries:
            if self.rows.labels[r][0] != self.cols.labels[c][0]:
                bad.append((r, c))
        return bad

    def to_json(self) -> dict:
        return {
            "rows": self.rows.dim,
            "cols": self.cols.dim,
            "row_space": list(map(str, self.rows.key)),
            "col_space": list(map(str, self.cols.key)),
            "entries": [
                [r, c, f"{v.numerator}/{v.denominator}"]
                for (r, c), v in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def identity(basis: SectionBasis) -> "OperatorMatrix":
        return OperatorMatrix(
            basis, basis, {(i, i): Fraction(1) for i in range(basis.dim)}
        )

    @staticmethod
    def zero(rows: SectionBasis, cols: SectionBasis) -> "OperatorMatrix":
        return OperatorMatrix(rows, cols, {})
