from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscx.cohomology import CochainQuotient
from cscx.errors import BasisMismatchError
from cscx.linalg import (
    Echelon,
    OperatorMatrix,
    SectionBasis,
    dense_nullspace,
    dense_rank,
    dense_rref,
    sparse_nullspace,
    sparse_rank,
    sparse_solve,
)

from helpers import rng


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
            assert sparse_rank(entries, m, n) == dense_rank(dense)

    def test_zero_matrix(self):
        assert sparse_rank({}, 5, 7) == 0


class TestKernelAndSolve:
    def test_nullspace_vectors_annihilate(self):
        r = rng("nullspace")
        for trial in range(100):
            m, n = r.randint(1, 8), r.randint(1, 8)
            entries, dense = _random_entries(r, m, n, structured=trial % 3 == 0)
            kernel = sparse_nullspace(entries, m, n)
            assert len(kernel) == n - sparse_rank(entries, m, n)
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
            sol = sparse_solve(entries, m, n, rhs)
            assert sol is not None
            check = {}
            for (i, j), v in entries.items():
                if j in sol:
                    check[i] = check.get(i, Fraction(0)) + v * sol[j]
            assert {i: v for i, v in check.items() if v} == rhs

    def test_inconsistent_system(self):
        entries = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
        assert sparse_solve(entries, 2, 1, {0: Fraction(1), 1: Fraction(2)}) is None

    def test_dense_nullspace_matches_sparse(self):
        r = rng("dense-null")
        for _ in range(50):
            m, n = r.randint(1, 6), r.randint(1, 6)
            entries, dense = _random_entries(r, m, n, structured=False)
            sparse = sparse_nullspace(entries, m, n)
            as_dense = [
                [vec.get(j, Fraction(0)) for j in range(n)] for vec in sparse
            ]
            assert as_dense == dense_nullspace(dense, n)


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_matrices(draw):
    """(entries, nrows, ncols) of a random sparse rational matrix."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), fractions))
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
        solution = sparse_solve(entries, m, n, rhs)
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
        quotient = CochainQuotient(OperatorMatrix(b, a, d_in), OperatorMatrix(c, b, d_out), space)
        kernel_dim = space - sparse_rank(d_out, tgt, space)
        assert quotient.dim == kernel_dim - sparse_rank(d_in, space, src)
        for j, rep in enumerate(quotient.reps):
            assert quotient.coords(rep) == {j: Fraction(1)}


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
        ident = OperatorMatrix.identity(basis)
        vec = {0: Fraction(2), 2: Fraction(-1)}
        assert ident.apply(vec) == vec
