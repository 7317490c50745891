"""Exact sparse linear algebra over the rationals.

Scalars follow the convention of the coefficients module: an ``int`` when
integral, a ``Fraction`` otherwise.

One elimination engine, ``Echelon``, sits behind every span test, solve,
nullspace, inverse and coordinate read-off: vectors go in one at a time, an
independent one becomes a new pivot row that records its combination of
the kept vectors, and a dependent one is read off in a single reduction.
Vectors enter in a fixed order (columns left to right), so pivot columns,
kernel bases and cohomology representatives are reproducible.

Rank is computed separately, as an independent oracle, by fraction-free
elimination on integer-normalized rows (two-row cross-multiplication
updates followed by a content division) with Markowitz-style pivot
selection to limit fill-in.  The Markowitz keys sit in a min-heap that is
re-keyed as rows and columns change, so a pivot costs no scan of the
matrix.  The dense reference implementations the tests compare against
live with the tests.

The cohomology dimensions of a block complex come from one more
reduction, ``reduced_cohomology_dims``: it cancels the +-1 entries of
every differential against their pairs of cells (Gaussian elimination of
a chain complex, with no division) and ranks the small residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Mapping, Sequence

from .coefficients import Rational, canon
from .errors import BasisMismatchError

Entries = Mapping[tuple[int, int], Rational]


# -- sparse exact rank -------------------------------------------------------


def _int_normalize(row: dict[int, Rational]) -> dict[int, int]:
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


def _markowitz_pivots(entries: Entries):
    """Eliminate ``entries`` fraction-free, yielding each ``(col, row)`` pivot in turn.

    The pivot is the entry of least Markowitz key ``(score, col, row)`` with
    ``score = (row length - 1) * (column count - 1)`` over the remaining
    rows.  The keys sit in a min-heap with lazy invalidation, so no pivot
    needs a scan of the matrix (Duff, Erisman & Reid, *Direct Methods for
    Sparse Matrices*, 1986): a column -> rows index gives the rows a pivot
    updates, a fresh key is pushed for every entry whose row length or
    column count changed, and a popped key is dropped when its row or entry
    is gone or its score is stale.  The pivots are those of a full scan.
    """
    work: dict[int, dict[int, Rational]] = {}
    for (r, c), v in entries.items():
        if v:
            work.setdefault(r, {})[c] = v
    # lists, not sets: a small set costs several times the memory of a list
    col_rows: dict[int, list[int]] = {}
    for r, row in work.items():
        # normalized in place, so the rational rows are not kept alongside
        work[r] = _int_normalize(row)
        for c in row:
            col_rows.setdefault(c, []).append(r)
    heap = [((len(row) - 1) * (len(col_rows[c]) - 1), c, r) for r, row in work.items() for c in row]
    heapify(heap)
    while work:
        score, pc, pr = heappop(heap)
        row = work.get(pr)
        if row is None or pc not in row or score != (len(row) - 1) * (len(col_rows[pc]) - 1):
            continue
        yield pc, pr
        pivot_row = work.pop(pr)
        for c in pivot_row:
            col_rows[c].remove(pr)
        pivot = pivot_row[pc]
        # every row holding the pivot column loses it, so that column empties
        updated = col_rows.pop(pc)
        for r in updated:
            row = work[r]
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
            reduced = _content_reduce(new_row)
            # a row gains or loses entries only in the pivot row's columns
            for c in pivot_row:
                if c in row and c not in reduced:
                    col_rows[c].remove(r)
                elif c in reduced and c not in row:
                    col_rows[c].append(r)
            if reduced:
                work[r] = reduced
            else:
                del work[r]
        # re-key: the pivot row's columns changed count, the updated rows length
        for c in pivot_row:
            rows_c = col_rows.get(c)
            if rows_c:
                c_score = len(rows_c) - 1
                for r in rows_c:
                    heappush(heap, ((len(work[r]) - 1) * c_score, c, r))
        for r in updated:
            row = work.get(r)
            if row is not None:
                r_score = len(row) - 1
                for c in row:
                    if c not in pivot_row:
                        heappush(heap, (r_score * (len(col_rows[c]) - 1), c, r))


def sparse_rank(entries: Entries) -> int:
    """Exact rank by fraction-free elimination with Markowitz pivoting.

    The rank is the number of pivots ``_markowitz_pivots`` finds.
    """
    return sum(1 for _ in _markowitz_pivots(entries))


# kept only because the TARGETS list of perfbench/tracer.py still wraps this
# name; the alias goes together with that entry (ROADMAP item 1)
rank_modular = sparse_rank


# -- reduction of a cochain complex by unit pivots ------------------------------


def _drop_line(lines: dict, cross: dict, index) -> None:
    """Remove line ``index`` (a row or a column) from a matrix kept both ways."""
    for j in lines.pop(index, ()):
        other = cross[j]
        del other[index]
        if not other:
            del cross[j]


def _cancel_units(rows: dict, cols: dict, prev: tuple | None, nxt: tuple | None) -> int:
    """Cancel unit entries of one differential until none is left; return how many.

    ``rows``/``cols`` hold d_k both ways, ``prev`` the (rows, cols) of
    d_{k-1} and ``nxt`` those of d_{k+1}.  Cancelling u = d_k[r, c] = +-1
    turns d_k into d_k - d_k[:, c] u d_k[r, :] on the remaining cells and
    drops row c of d_{k-1} and column r of d_{k+1}: u^-1 = u, so no entry
    is divided.  Among the unit entries the least Markowitz key
    (row length - 1) * (column length - 1) goes first, to limit fill-in;
    the keys are rechecked lazily when popped.
    """
    heap = [
        ((len(row) - 1) * (len(cols[c]) - 1), r, c)
        for r, row in rows.items()
        for c, v in row.items()
        if v == 1 or v == -1
    ]
    heapify(heap)
    cancelled = 0
    while heap:
        key, r, c = heappop(heap)
        prow = rows.get(r)
        u = prow.get(c) if prow is not None else None
        if u != 1 and u != -1:
            continue
        pcol = cols[c]
        current = (len(prow) - 1) * (len(pcol) - 1)
        if current > key:
            heappush(heap, (current, r, c))
            continue
        cancelled += 1
        del rows[r], cols[c]
        for j in prow:
            if j != c:
                del cols[j][r]
        for i, a in pcol.items():
            if i == r:
                continue
            row = rows[i]
            del row[c]
            f = a * u
            for j, b in prow.items():
                if j == c:
                    continue
                col = cols[j]
                new = row.get(j, 0) - f * b
                if new:
                    row[j] = col[i] = new
                    if new == 1 or new == -1:
                        heappush(heap, ((len(row) - 1) * (len(col) - 1), i, j))
                else:
                    del row[j], col[i]
            if not row:
                del rows[i]
        for j in prow:
            if j != c and not cols[j]:
                del cols[j]
        # cell c of node k and cell r of node k+1 leave the complex
        if prev is not None:
            _drop_line(prev[0], prev[1], c)
        if nxt is not None:
            _drop_line(nxt[1], nxt[0], r)
    return cancelled


def reduced_cohomology_dims(maps: Sequence[Entries], dims: Sequence[int]) -> list[int]:
    """Cohomology dimension of every node of a cochain complex, by unit-pivot reduction.

    ``maps[k]`` sends node k, of ``dims[k]`` cells, to node k+1, keyed
    ``(row, col)`` as an ``OperatorMatrix``; consecutive maps must compose
    to zero.  Every +-1 entry is cancelled against its pair of cells
    (``_cancel_units``), which is Gaussian elimination of the chain complex
    (algebraic Morse theory: Kaczynski, Mrozek & Slusarek 1998; Skoldberg
    2006).  It keeps the complex homotopy equivalent, and so every
    cohomology dimension, while each cancellation removes one cell from
    two nodes and one from the rank of the map between them.  The residue
    is ranked by ``sparse_rank``: dim H^k = cells_k - rank d_k - rank d_{k-1}.
    Nothing is divided, so integer maps stay integer.
    """
    rows: list[dict] = [{} for _ in maps]
    cols: list[dict] = [{} for _ in maps]
    for k, entries in enumerate(maps):
        rows_k, cols_k = rows[k], cols[k]
        for (r, c), v in entries.items():
            if v:
                rows_k.setdefault(r, {})[c] = v
                cols_k.setdefault(c, {})[r] = v
    cells = list(dims)
    last = len(maps) - 1
    for k in range(len(maps)):
        prev = (rows[k - 1], cols[k - 1]) if k else None
        nxt = (rows[k + 1], cols[k + 1]) if k < last else None
        cancelled = _cancel_units(rows[k], cols[k], prev, nxt)
        cells[k] -= cancelled
        cells[k + 1] -= cancelled
    # the last node has no outgoing map
    ranks = [
        sparse_rank({(r, c): v for r, row in rows_k.items() for c, v in row.items()}) if rows_k else 0
        for rows_k in rows
    ] + [0]
    return [cells[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(cells))]


# -- the elimination engine (exact rational arithmetic) -------------------------


class Echelon:
    """Incremental echelon form of a growing set of sparse vectors.

    ``add`` reduces a vector against the rows held so far.  A nonzero
    residue becomes a new pivot row (pivot at its smallest index, scaled to
    one) and the vector is kept under its label; a zero residue means the
    vector lies in the span and it is dropped.  Every row records its
    combination of the kept vectors, so ``coords`` -- a span test, a solve
    and a coordinate read-off in one -- is a single reduction.

    Rows are never back-substituted: row i holds no pivot of an earlier
    row, so subtracting row i creates entries only at pivots of later
    rows.  A reduction therefore visits only the rows its residue reaches
    (Gilbert--Peierls): a min-heap, seeded with the rows whose pivots the
    vector holds, gains a row whenever an update creates an entry at that
    row's pivot, and pops rows in increasing order -- exactly the rows, the
    order and the multipliers of a full pass over every pivot.
    Coordinates over the kept (independent) vectors are unique, so they do
    not depend on the pivot choice.
    """

    __slots__ = ("labels", "_pivots", "_row_of", "_rows", "_combos")

    def __init__(self, vectors: Sequence[Mapping[int, Rational]] = ()):
        self.labels: list = []
        self._pivots: list[int] = []
        # pivot column -> index of its row
        self._row_of: dict[int, int] = {}
        self._rows: list[dict[int, Rational]] = []
        # row i = sum over j of _combos[i][j] * (j-th kept vector)
        self._combos: list[dict[int, Rational]] = []
        for label, vec in enumerate(vectors):
            self.add(vec, label)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, vec: Mapping[int, Rational], label=None) -> bool:
        """Keep vec under label (default: its kept index) unless it lies in the span.

        Returns True when vec was kept as a new pivot row.
        """
        residue, used = self._reduce(vec)
        if not residue:
            return False
        self._keep(residue, used, label)
        return True

    def coords(self, vec: Mapping[int, Rational]) -> dict | None:
        """Coordinates of vec over the kept vectors by label, or None outside the span."""
        residue, used = self._reduce(vec)
        if residue:
            return None
        return self._coords(used)

    def _keep(self, residue: dict[int, Rational], used, label) -> None:
        """Append a nonzero residue as a new pivot row."""
        pivot = min(residue)
        inv = canon(Fraction(1, residue[pivot]))
        combo = {j: canon(-v * inv) for j, v in self._combine(used).items()}
        combo[len(self._rows)] = inv
        self._row_of[pivot] = len(self._rows)
        self._pivots.append(pivot)
        self._rows.append({k: canon(v * inv) for k, v in residue.items()})
        self._combos.append(combo)
        self.labels.append(len(self.labels) if label is None else label)

    def _coords(self, used) -> dict:
        return {self.labels[j]: canon(v) for j, v in sorted(self._combine(used).items()) if v}

    def _reduce(self, vec: Mapping[int, Rational]):
        residue = {k: v for k, v in vec.items() if v}
        used: list[tuple[int, Rational]] = []
        pivots, rows, row_of = self._pivots, self._rows, self._row_of
        heap = [row_of[k] for k in residue if k in row_of]
        heapify(heap)
        while heap:
            i = heappop(heap)
            c = residue.get(pivots[i])
            if c is None:
                # cancelled by an earlier row, or a second push of row i
                continue
            used.append((i, c))
            for k, v in rows[i].items():
                old = residue.get(k)
                if old is None:
                    residue[k] = -c * v
                    j = row_of.get(k)
                    if j is not None:
                        heappush(heap, j)
                    continue
                new = old - c * v
                if new:
                    residue[k] = new
                else:
                    del residue[k]
        return residue, used

    def _combine(self, used) -> dict[int, Rational]:
        out: dict[int, Rational] = {}
        for i, c in used:
            for j, w in self._combos[i].items():
                out[j] = out.get(j, 0) + c * w
        return out


def _columns(entries: Entries, ncols: int) -> list[dict[int, Rational]]:
    cols: list[dict[int, Rational]] = [{} for _ in range(ncols)]
    for (r, c), v in entries.items():
        if v:
            cols[c][r] = v
    return cols


def sparse_rref(entries: Entries, ncols: int) -> Echelon:
    """Column echelon of a matrix: columns added left to right, labelled by index.

    The kept labels are the pivot columns of the reduced row echelon form.
    """
    echelon = Echelon()
    for j, col in enumerate(_columns(entries, ncols)):
        echelon.add(col, j)
    return echelon


def sparse_nullspace(entries: Entries, ncols: int) -> list[dict[int, Rational]]:
    """Deterministic kernel basis, one vector per free column.

    Column j is free exactly when it lies in the span of the columns before
    it; its coordinates over them give the kernel vector.  Each column is
    reduced once.
    """
    echelon = Echelon()
    basis: list[dict[int, Rational]] = []
    for j, col in enumerate(_columns(entries, ncols)):
        residue, used = echelon._reduce(col)
        if residue:
            echelon._keep(residue, used, j)
            continue
        vec = {j: 1}
        for c, v in echelon._coords(used).items():
            vec[c] = -v
        basis.append(vec)
    return basis


def sparse_solve(entries: Entries, ncols: int, rhs: Mapping[int, Rational]) -> dict[int, Rational] | None:
    """The solution of A x = b supported on the pivot columns, or None if inconsistent."""
    return sparse_rref(entries, ncols).coords(rhs)


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


class OperatorMatrix:
    """Sparse rational matrix between two section bases."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: SectionBasis, cols: SectionBasis, entries: Entries):
        self.rows = rows
        self.cols = cols
        self.entries = {k: v if type(v) is int else canon(v) for k, v in entries.items() if v}

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

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self . other, requiring matching intermediate bases."""
        if self.cols.labels != other.rows.labels:
            raise BasisMismatchError(
                f"cannot compose: inner bases differ ({self.cols.key} vs {other.rows.key})"
            )
        by_col: dict[int, list[tuple[int, Rational]]] = {}
        for (r, c), v in other.entries.items():
            by_col.setdefault(c, []).append((r, v))
        by_inner: dict[int, list[tuple[int, Rational]]] = {}
        for (r, c), v in self.entries.items():
            by_inner.setdefault(c, []).append((r, v))
        out: dict[tuple[int, int], Rational] = {}
        for c, inner_list in by_col.items():
            for inner, v in inner_list:
                for r, w in by_inner.get(inner, ()):  # noqa: B905
                    key = (r, c)
                    out[key] = out.get(key, 0) + w * v
        return OperatorMatrix(self.rows, other.cols, out)

    def scale(self, q: Rational) -> "OperatorMatrix":
        return OperatorMatrix(self.rows, self.cols, {k: v * q for k, v in self.entries.items()})

    def apply(self, vec: Mapping[int, Rational]) -> dict[int, Rational]:
        out: dict[int, Rational] = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                out[r] = out.get(r, 0) + v * x
        return {r: v for r, v in out.items() if v}

    def rank(self) -> int:
        return sparse_rank(self.entries)

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


def first_nonzero_composite(maps: list[OperatorMatrix]) -> tuple[int, OperatorMatrix] | None:
    """The first k with maps[k+1] . maps[k] nonzero, and that composite.

    None when the maps form a complex; composites after a failing one are
    not formed.
    """
    for k in range(len(maps) - 1):
        composite = maps[k + 1].compose(maps[k])
        if not composite.is_zero():
            return k, composite
    return None
