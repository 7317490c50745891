from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cscx.cohomology import CochainQuotient
from cscx.coefficients import canon
from cscx.contact import standard_contact_chart
from cscx.errors import BasisMismatchError, InternalConsistencyError
from cscx.grading import weight_truncation
from cscx.linalg import (
    Echelon,
    OperatorMatrix,
    SectionBasis,
    _content_reduce,
    _int_normalize,
    _markowitz_pivots,
    reduced_cohomology_dims,
    sparse_nullspace,
    sparse_rank,
    sparse_rref,
    sparse_solve,
)
from cscx.rumin import rumin_complex

from helpers import dense_nullspace, dense_rank, dense_rref, rng


def _random_entries(r, m, n, structured):
    entries = {}
    dense = [[Fraction(0)] * n for _ in range(m)]
    if structured:
        k = r.randint(1, min(3, m, n))
        U = [[Fraction(r.randint(-3, 3)) for _ in range(k)] for _ in range(m)]
        V = [[Fraction(r.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        for i in range(m):
            for j in range(n):
                v = sum((U[i][t] * V[t][j] for t in range(k)), Fraction(0))
                if v:
                    entries[(i, j)] = v
                    dense[i][j] = v
    else:
        for _ in range(r.randint(0, 2 * m)):
            i, j = r.randrange(m), r.randrange(n)
            v = Fraction(r.randint(-4, 4), r.randint(1, 3))
            if v:
                entries[(i, j)] = entries.get((i, j), Fraction(0)) + v
                dense[i][j] += v
        entries = {key: v for key, v in entries.items() if v}
    return entries, dense


class TestRank:
    def test_against_dense_oracle(self):
        r = rng("rank-oracle")
        for trial in range(300):
            m, n = r.randint(1, 10), r.randint(1, 10)
            entries, dense = _random_entries(r, m, n, structured=trial % 2 == 0)
            assert sparse_rank(entries) == dense_rank(dense)

    def test_zero_matrix(self):
        assert sparse_rank({}) == 0


class TestKernelAndSolve:
    def test_nullspace_vectors_annihilate(self):
        r = rng("nullspace")
        for trial in range(100):
            m, n = r.randint(1, 8), r.randint(1, 8)
            entries, dense = _random_entries(r, m, n, structured=trial % 3 == 0)
            kernel = sparse_nullspace(entries, n)
            assert len(kernel) == n - sparse_rank(entries)
            for vec in kernel:
                out = {}
                for (i, j), v in entries.items():
                    if j in vec:
                        out[i] = out.get(i, Fraction(0)) + v * vec[j]
                assert not any(out.values())

    def test_solve_round_trip(self):
        r = rng("solve")
        for trial in range(100):
            m, n = r.randint(1, 8), r.randint(1, 8)
            entries, _ = _random_entries(r, m, n, structured=False)
            x = {j: Fraction(r.randint(-3, 3)) for j in range(n) if r.random() < 0.5}
            rhs = {}
            for (i, j), v in entries.items():
                if j in x and x[j]:
                    rhs[i] = rhs.get(i, Fraction(0)) + v * x[j]
            rhs = {i: v for i, v in rhs.items() if v}
            sol = sparse_solve(entries, n, rhs)
            assert sol is not None
            check = {}
            for (i, j), v in entries.items():
                if j in sol:
                    check[i] = check.get(i, Fraction(0)) + v * sol[j]
            assert {i: v for i, v in check.items() if v} == rhs

    def test_inconsistent_system(self):
        entries = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
        assert sparse_solve(entries, 1, {0: Fraction(1), 1: Fraction(2)}) is None

    def test_dense_nullspace_matches_sparse(self):
        r = rng("dense-null")
        for _ in range(50):
            m, n = r.randint(1, 6), r.randint(1, 6)
            entries, dense = _random_entries(r, m, n, structured=False)
            sparse = sparse_nullspace(entries, n)
            as_dense = [
                [vec.get(j, Fraction(0)) for j in range(n)] for vec in sparse
            ]
            assert as_dense == dense_nullspace(dense, n)


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


ints = st.integers(-4, 4)
mixed = st.one_of(ints, fractions)


@st.composite
def sparse_matrices(draw, values=fractions, max_dim=6):
    """(entries, nrows, ncols) of a random sparse rational matrix."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), values))
    return {key: v for key, v in cells.items() if v}, m, n


def _dense(entries, m, n):
    return [[entries.get((i, j), Fraction(0)) for j in range(n)] for i in range(m)]


def _cols(entries, n):
    cols = [{} for _ in range(n)]
    for (i, j), v in entries.items():
        cols[j][i] = v
    return cols


def _apply(entries, x):
    out = {}
    for (i, j), v in entries.items():
        if x.get(j):
            out[i] = out.get(i, Fraction(0)) + v * x[j]
    return {i: v for i, v in out.items() if v}


class TestEchelonProperties:
    """The elimination engine against the dense reference on random sparse rationals."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices(), st.lists(fractions, min_size=6, max_size=6), st.data())
    def test_coords_rebuild_span_and_reject_outside(self, matrix, weights, data):
        entries, m, n = matrix
        cols = _cols(entries, n)
        echelon = Echelon(cols)
        assert len(echelon) == dense_rank(_dense(entries, m, n))
        inside = _apply(entries, dict(enumerate(weights[:n])))
        other = data.draw(st.dictionaries(st.integers(0, m - 1), fractions))
        for vec in (inside, {i: v for i, v in other.items() if v}):
            coords = echelon.coords(vec)
            augmented = _dense(entries, m, n)
            for i, row in enumerate(augmented):
                row.append(vec.get(i, Fraction(0)))
            in_span = dense_rank(augmented) == dense_rank(_dense(entries, m, n))
            assert (coords is not None) == in_span
            if coords is not None:
                assert _apply(entries, coords) == vec

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices(), st.lists(fractions, min_size=6, max_size=6))
    def test_solve_is_supported_on_pivot_columns(self, matrix, weights):
        entries, m, n = matrix
        rhs = _apply(entries, dict(enumerate(weights[:n])))
        solution = sparse_solve(entries, n, rhs)
        assert solution is not None
        assert _apply(entries, solution) == rhs
        _, pivots = dense_rref(_dense(entries, m, n))
        assert set(solution) <= set(pivots)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_quotient_dim_is_kernel_minus_image(self, d_in_matrix, data):
        d_in, space, src = d_in_matrix
        # d_out: random combinations of covectors that kill the image of d_in
        transposed = [[d_in.get((i, j), Fraction(0)) for i in range(space)] for j in range(src)]
        annihilators = dense_nullspace(transposed, space)
        tgt = data.draw(st.integers(1, 4))
        d_out = {}
        for r in range(tgt):
            for y in annihilators:
                weight = data.draw(fractions)
                for i, v in enumerate(y):
                    if weight and v:
                        d_out[(r, i)] = d_out.get((r, i), Fraction(0)) + weight * v
        d_out = {key: v for key, v in d_out.items() if v}
        a, b, c = _basis("a", src), _basis("b", space), _basis("c", tgt)
        classes = space - sparse_rank(d_out) - sparse_rank(d_in)
        assert reduced_cohomology_dims([d_in, d_out], [src, space, tgt])[1] == classes
        d_in_matrix, d_out_matrix = OperatorMatrix(b, a, d_in), OperatorMatrix(c, b, d_out)
        quotient = CochainQuotient(d_in_matrix, d_out_matrix, space, classes)
        assert quotient.dim == len(quotient.reps) == classes
        for j, rep in enumerate(quotient.reps):
            assert quotient.coords(rep) == {j: Fraction(1)}
        with pytest.raises(InternalConsistencyError):
            CochainQuotient(d_in_matrix, d_out_matrix, space, classes + 1)


# entries with no unit to cancel, units, and entries that are not integers
complex_entries = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def cochain_complexes(draw, max_nodes=5, max_dim=5):
    """(maps, dims) of a random cochain complex over Q with d_{k+1} d_k = 0.

    Each map is a random combination of covectors that kill the image of
    the map before it, so consecutive maps compose to zero; a map may be
    drawn zero and a node empty.
    """
    dims = draw(st.lists(st.integers(0, max_dim), min_size=1, max_size=max_nodes))
    maps = []
    for k in range(len(dims) - 1):
        src, tgt = dims[k], dims[k + 1]
        if k == 0:
            annihilators = [[int(i == j) for j in range(src)] for i in range(src)]
        else:
            prev = maps[-1]
            transposed = [[prev.get((i, j), 0) for i in range(src)] for j in range(dims[k - 1])]
            annihilators = dense_nullspace(transposed, src)
        entries = {}
        if draw(st.integers(0, 4)):  # one map in five is zero
            for r in range(tgt):
                for y in annihilators:
                    if not draw(st.booleans()):
                        continue
                    weight = draw(complex_entries)
                    for i, v in enumerate(y):
                        if v:
                            entries[(r, i)] = entries.get((r, i), 0) + weight * v
        maps.append({key: v for key, v in entries.items() if v})
    return maps, dims


class TestUnitReduction:
    """The unit-pivot reduction against dense ranks on random small complexes."""

    @settings(max_examples=300, deadline=None)
    @given(cochain_complexes())
    # Q -2-> Q -0-> Q: nothing to cancel, the residue's rank decides
    @example(([{(0, 0): 2}, {}], [1, 1, 1]))
    # d_0 = (1, 1)^T, d_1 = (1, -1): cancelling d_0[0, 0] drops column 0 of
    # d_1, whose remaining -1 is cancelled next
    @example(([{(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): -1}], [1, 2, 1]))
    @example(([], [3]))
    def test_dims_equal_dense_ranks(self, complex_):
        maps, dims = complex_
        ranks = [dense_rank(_dense(d, dims[k + 1], dims[k])) if dims[k + 1] else 0 for k, d in enumerate(maps)]
        expected = [
            dims[k] - (ranks[k] if k < len(maps) else 0) - (ranks[k - 1] if k else 0)
            for k in range(len(dims))
        ]
        assert reduced_cohomology_dims(maps, dims) == expected


def _canonical(values) -> bool:
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)


class TestMixedScalars:
    """int-valued and mixed int/Fraction matrices against the dense Fraction reference."""

    @pytest.mark.parametrize("values", [ints, mixed], ids=["int", "mixed"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rank_nullspace_and_echelon(self, values, data):
        entries, m, n = data.draw(sparse_matrices(values))
        dense = _dense(entries, m, n)
        rank = dense_rank(dense)
        assert sparse_rank(entries) == rank
        echelon = Echelon(_cols(entries, n))
        assert len(echelon) == rank
        kernel = sparse_nullspace(entries, n)
        assert [[vec.get(j, 0) for j in range(n)] for vec in kernel] == dense_nullspace(dense, n)
        for vec in kernel:
            assert _canonical(vec.values())
        weights = {j: data.draw(values) for j in range(n)}
        coords = echelon.coords(_apply(entries, weights))
        assert coords is not None and _apply(entries, coords) == _apply(entries, weights)
        assert _canonical(coords.values())


def _all_pivots_reduce(echelon, vec):
    """Reference reduction: one pass over every pivot row in row order."""
    residue = {k: v for k, v in vec.items() if v}
    used = []
    for i, pivot in enumerate(echelon._pivots):
        c = residue.get(pivot)
        if c is None:
            continue
        used.append((i, c))
        for k, v in echelon._rows[i].items():
            new = residue.get(k, 0) - c * v
            if new:
                residue[k] = new
            else:
                del residue[k]
    return residue, used


def _reference_coords(echelon, vec):
    residue, used = _all_pivots_reduce(echelon, vec)
    if residue:
        return None
    combined = {}
    for i, c in used:
        for j, w in echelon._combos[i].items():
            combined[j] = combined.get(j, 0) + c * w
    return {echelon.labels[j]: canon(v) for j, v in sorted(combined.items()) if v}


def _reference_nullspace(entries, n):
    """The kernel basis read as ``add`` followed by ``coords`` on each dependent column."""
    echelon = Echelon()
    basis = []
    for j, col in enumerate(_cols(entries, n)):
        if echelon.add(col, j):
            continue
        vec = {j: 1}
        for c, v in echelon.coords(col).items():
            vec[c] = -v
        basis.append(vec)
    return basis, echelon


def _state(echelon):
    return echelon.labels, echelon._pivots, echelon._rows, echelon._combos


class TestReachOnlyReduction:
    """The heap reduction visits the rows, in the order and with the
    multipliers, of the all-pivots walk it replaced."""

    @pytest.mark.parametrize("values", [fractions, ints, mixed], ids=["fractions", "int", "mixed"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_all_pivots_walk(self, values, data):
        entries, m, n = data.draw(sparse_matrices(values, max_dim=10))
        echelon = Echelon()
        probes = []
        for j, col in enumerate(_cols(entries, n)):
            # every column is reduced against the rows before it, as it is added
            probes.append(col)
            residue, used = echelon._reduce(col)
            reference = _all_pivots_reduce(echelon, col)
            assert (list(residue.items()), used) == (list(reference[0].items()), reference[1])
            echelon.add(col, j)
        weights = {j: data.draw(values) for j in range(n)}
        probes.append(_apply(entries, weights))
        probes.append({i: v for i, v in data.draw(st.dictionaries(st.integers(0, m - 1), values)).items() if v})
        for vec in probes:
            residue, used = echelon._reduce(vec)
            ref_residue, ref_used = _all_pivots_reduce(echelon, vec)
            assert list(residue.items()) == list(ref_residue.items())
            assert used == ref_used
            assert echelon.coords(vec) == _reference_coords(echelon, vec)

    @pytest.mark.parametrize("values", [fractions, ints, mixed], ids=["fractions", "int", "mixed"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_nullspace_reduces_each_column_once(self, values, data):
        entries, m, n = data.draw(sparse_matrices(values, max_dim=10))
        reference, reference_echelon = _reference_nullspace(entries, n)
        kernel = sparse_nullspace(entries, n)
        assert [list(vec.items()) for vec in kernel] == [list(vec.items()) for vec in reference]
        assert _state(reference_echelon) == _state(sparse_rref(entries, n))


def _full_scan_pivots(entries):
    """Reference pivot search: rescan every remaining entry for each pivot."""
    work = {}
    for (r, c), v in entries.items():
        if v:
            work.setdefault(r, {})[c] = v
    work = {r: _int_normalize(row) for r, row in work.items()}
    col_count = {}
    for row in work.values():
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
    pivots = []
    while work:
        best = None
        for r, row in work.items():
            for c in row:
                key = ((len(row) - 1) * (col_count[c] - 1), c, r)
                if best is None or key < best:
                    best = key
        _, pc, pr = best
        pivots.append((pc, pr))
        pivot_row = work.pop(pr)
        for c in pivot_row:
            col_count[c] -= 1
        pivot = pivot_row[pc]
        for r, row in list(work.items()):
            if pc not in row:
                continue
            for c in row:
                col_count[c] -= 1
            factor = row.pop(pc)
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
            for c in reduced:
                col_count[c] += 1
            if reduced:
                work[r] = reduced
            else:
                del work[r]
    return pivots


@pytest.fixture(scope="module")
def rumin_matrices():
    return rumin_complex(standard_contact_chart(2), weight_truncation(6))


class TestMarkowitzSearch:
    """The heap-kept Markowitz keys choose the pivots of the full scan they replaced."""

    @staticmethod
    def _check(entries, m, n):
        pivots = list(_markowitz_pivots(entries))
        assert pivots == _full_scan_pivots(entries)
        assert sparse_rank(entries) == len(pivots) == dense_rank(_dense(entries, m, n))

    @pytest.mark.parametrize("values", [ints, fractions, mixed], ids=["int", "fractions", "mixed"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_full_scan(self, values, data):
        entries, m, n = data.draw(sparse_matrices(values, max_dim=12))
        self._check(entries, m, n)

    @pytest.mark.parametrize("fill", [2, 4, 8])
    def test_large_sparse(self, fill):
        r = rng("markowitz", fill)
        for _ in range(3):
            entries = {}
            for _ in range(fill * 40):
                entries[(r.randrange(40), r.randrange(40))] = r.choice((r.randint(-3, 3), Fraction(r.randint(-4, 4), 3)))
            self._check(entries, 40, 40)

    def test_rumin_complex(self, rumin_matrices):
        assert [len(m.entries) for m in rumin_matrices] == [836, 1272, 522, 66, 4]
        for matrix in rumin_matrices:
            pivots = list(_markowitz_pivots(matrix.entries))
            assert pivots == _full_scan_pivots(matrix.entries)
            # the echelon engine stands in for the dense reference at this size
            assert sparse_rank(matrix.entries) == len(pivots) == len(sparse_rref(matrix.entries, matrix.shape[1]))


def _basis(tag: str, size: int) -> SectionBasis:
    return SectionBasis(key=(tag,), labels=tuple((("w", 0), (tag, i)) for i in range(size)))


class TestOperatorMatrix:
    def test_compose_checks_bases(self):
        a = OperatorMatrix(_basis("a", 2), _basis("b", 3), {})
        c = OperatorMatrix(_basis("c", 3), _basis("d", 2), {})
        with pytest.raises(BasisMismatchError):
            a.compose(c)

    def test_compose_values(self):
        rows, mid, cols = _basis("r", 2), _basis("m", 2), _basis("c", 2)
        left = OperatorMatrix(rows, mid, {(0, 0): Fraction(2), (1, 1): Fraction(3)})
        right = OperatorMatrix(mid, cols, {(0, 1): Fraction(5), (1, 0): Fraction(7)})
        got = left.compose(right)
        assert got.entries == {(0, 1): Fraction(10), (1, 0): Fraction(21)}

    def test_identity_and_apply(self):
        basis = _basis("x", 3)
        ident = OperatorMatrix(basis, basis, {(i, i): 1 for i in range(basis.dim)})
        vec = {0: Fraction(2), 2: Fraction(-1)}
        assert ident.apply(vec) == vec
