from fractions import Fraction
from math import comb

import pytest

from cscx.errors import DegreeError
from cscx.forms import basis_form, function_form, zero_form
from cscx.grading import binomial_primitive_dim
from cscx.lefschetz import (
    TwistedForm,
    full_decomposition,
    lefschetz_L,
    lefschetz_Lambda,
    primitive_projection,
    reassemble_decomposition,
    standard_cs_chart,
    summand_dimension_table,
    untwisted,
)

from helpers import dense_rank, random_form, rng


CS2 = standard_cs_chart(2)
CS3 = standard_cs_chart(3)


def _dense(entries, rows, cols):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        out[r][c] = v
    return out


class TestWedgeAndInsertion:
    def test_wedge_of_unit(self):
        got = lefschetz_L(CS2, untwisted(function_form(CS2.chart, CS2.chart.one_coeff())))
        assert got.base == CS2.omega
        assert got.ell_power == -1

    def test_wedge_annihilates_disjoint_pair(self):
        got = lefschetz_L(CS2, untwisted(basis_form(CS2.chart, (0, 2))))
        assert got.is_zero()

    def test_middle_wedge_bijective(self):
        fib = CS2.fiber
        entries = fib.wedge_map(1)
        assert len(fib.indices(1)) == len(fib.indices(3)) == 4
        assert dense_rank(_dense(entries, 4, 4)) == 4

    def test_insertion_of_structure_form(self):
        got = lefschetz_Lambda(CS2, untwisted(CS2.omega))
        assert got.base == function_form(CS2.chart, CS2.chart.ring.const(2))
        assert got.ell_power == 1

    def test_insertion_of_disjoint_pair(self):
        assert lefschetz_Lambda(CS2, untwisted(basis_form(CS2.chart, (0, 2)))).is_zero()

    def test_insertion_of_primitive_difference(self):
        phi = basis_form(CS2.chart, (0, 1)) - basis_form(CS2.chart, (2, 3))
        assert lefschetz_Lambda(CS2, untwisted(phi)).is_zero()

    def test_degree_underflow(self):
        with pytest.raises(DegreeError):
            lefschetz_Lambda(CS2, untwisted(basis_form(CS2.chart, (0,))))

    @pytest.mark.parametrize("cs", [CS2, CS3], ids=["n2", "n3"])
    def test_threshold_ranks(self, cs):
        n = cs.n
        fib = cs.fiber
        for k in range(0, 2 * n + 1):
            wedge_rank = dense_rank(
                _dense(fib.wedge_map(k), fib.dim(k + 2), fib.dim(k))
            )
            if k <= n - 1:
                assert wedge_rank == fib.dim(k), f"wedge not injective at k={k}"
            if k >= n - 1:
                assert wedge_rank == fib.dim(k + 2), f"wedge not surjective at k={k}"
            if k >= 2:
                ins_rank = dense_rank(
                    _dense(fib.insertion_map(k), fib.dim(k - 2), fib.dim(k))
                )
                if k <= n + 1:
                    assert ins_rank == fib.dim(k - 2), f"insertion not surjective at k={k}"
                if k >= n + 1:
                    assert ins_rank == fib.dim(k), f"insertion not injective at k={k}"

    @pytest.mark.parametrize("cs", [CS2, CS3], ids=["n2", "n3"])
    def test_primitive_dimension_formula(self, cs):
        fib = cs.fiber
        for k in range(0, cs.n + 1):
            expected = comb(2 * cs.n, k) - (comb(2 * cs.n, k - 2) if k >= 2 else 0)
            assert fib.primitive_dim(k) == expected
            assert binomial_primitive_dim(cs.n, k) == expected


class TestTwistedFormHash:
    def test_equal_zero_forms_hash_equal(self):
        # zero sections of one degree are equal whatever their twist
        for degree in (0, 2):
            zeros = [TwistedForm(zero_form(CS2.chart, degree), ell) for ell in (0, 1, -1)]
            assert all(z == zeros[0] for z in zeros)
            assert len(set(zeros)) == 1

    def test_twist_separates_nonzero_forms(self):
        phi = basis_form(CS2.chart, (0, 1))
        a, b = TwistedForm(phi, 0), TwistedForm(phi, 1)
        assert a != b
        assert len({a, b, TwistedForm(phi, 0)}) == 2


class TestPrimitiveProjection:
    def test_block_two_form(self):
        phi = untwisted(basis_form(CS2.chart, (0, 1)))
        got = primitive_projection(CS2, phi)
        expected = (
            basis_form(CS2.chart, (0, 1)) - basis_form(CS2.chart, (2, 3))
        ).scale(Fraction(1, 2))
        assert got.base == expected

    def test_structure_form_projects_to_zero(self):
        assert primitive_projection(CS2, untwisted(CS2.omega)).is_zero()

    def test_idempotent_on_primitives(self):
        phi = untwisted(basis_form(CS2.chart, (0, 2)))
        assert primitive_projection(CS2, phi) == phi
        again = primitive_projection(CS2, primitive_projection(CS2, phi))
        assert again == phi


class TestFullDecomposition:
    def test_block_two_form(self):
        parts = full_decomposition(CS2, untwisted(basis_form(CS2.chart, (0, 1))))
        assert len(parts) == 2
        expected0 = (
            basis_form(CS2.chart, (0, 1)) - basis_form(CS2.chart, (2, 3))
        ).scale(Fraction(1, 2))
        assert parts[0].base == expected0 and parts[0].ell_power == 0
        assert parts[1].base == function_form(CS2.chart, CS2.chart.ring.const(Fraction(1, 2)))
        assert parts[1].ell_power == 1

    def test_primitive_input_passes_through(self):
        phi = untwisted(basis_form(CS2.chart, (0, 2)))
        parts = full_decomposition(CS2, phi)
        assert parts[0] == phi
        assert all(p.is_zero() for p in parts[1:])

    def test_dimension_bookkeeping_n3_k3(self):
        fib = CS3.fiber
        assert fib.dim(3) == 20
        assert fib.primitive_dim(3) == 14
        assert fib.primitive_dim(1) == 6
        slots, _ = fib.decomposition(3)
        assert [fib.primitive_dim(s) for s, _ in slots] == [14, 6]

    def test_reassembly_random(self):
        r = rng("decomp-reassemble")
        for cs in (CS2, CS3):
            for _ in range(20):
                k = r.randint(0, 2 * cs.n)
                phi = untwisted(random_form(cs.chart, k, r))
                parts = full_decomposition(cs, phi)
                assert reassemble_decomposition(cs, parts, k) == phi

    @pytest.mark.parametrize("cs", [CS2, CS3], ids=["n2", "n3"])
    def test_projectors_form_a_direct_sum(self, cs):
        fib = cs.fiber
        for k in range(0, 2 * cs.n + 1):
            size = fib.dim(k)
            projectors = []
            for src, twist, component in fib.components(k):
                cols = {}
                for j in range(size):
                    # embed the component back
                    vec = component.apply({j: Fraction(1)})
                    for step in range(abs(twist)):
                        if twist > 0:
                            vec = fib.wedge_map(src + 2 * step).apply(vec)
                        else:
                            vec = fib.insertion_map(src - 2 * step).apply(vec)
                    for pos, v in vec.items():
                        if v:
                            cols[(pos, j)] = v
                projectors.append(cols)

            def compose(a, b):
                out = {}
                by_inner = {}
                for (r_, c_), v in a.items():
                    by_inner.setdefault(c_, []).append((r_, v))
                for (i, c_), v in b.items():
                    for r_, w in by_inner.get(i, ()):  # noqa: B905
                        out[(r_, c_)] = out.get((r_, c_), Fraction(0)) + w * v
                return {key: v for key, v in out.items() if v}

            total = {}
            for i, p in enumerate(projectors):
                assert compose(p, p) == p, f"projector {i} at k={k} not idempotent"
                for j, q in enumerate(projectors):
                    if i != j:
                        assert not compose(p, q), f"projectors {i},{j} at k={k} overlap"
                for key, v in p.items():
                    total[key] = total.get(key, Fraction(0)) + v
            identity = {(i, i): Fraction(1) for i in range(size)}
            assert {key: v for key, v in total.items() if v} == identity


class TestCommutatorScalar:
    @pytest.mark.parametrize("cs", [CS2, CS3], ids=["n2", "n3"])
    def test_bracket_acts_as_scalar(self, cs):
        # [wedge, insertion] is a scalar on each exterior power; the value is
        # recorded as an emergent constant, not asserted a priori
        fib = cs.fiber
        observed = []
        for k in range(0, 2 * cs.n + 1):
            size = fib.dim(k)
            scalar = None
            for j in range(size):
                vec = {j: Fraction(1)}
                up = fib.wedge_map(k).apply(vec)
                down_up = fib.insertion_map(k + 2).apply(up) if up else {}
                down = fib.insertion_map(k).apply(vec) if k >= 2 else {}
                up_down = fib.wedge_map(k - 2).apply(down) if down else {}
                commutator = dict(down_up)
                for pos, v in up_down.items():
                    commutator[pos] = commutator.get(pos, Fraction(0)) - v
                commutator = {p: v for p, v in commutator.items() if v}
                this = commutator.get(j, Fraction(0))
                if set(commutator) - {j}:
                    pytest.fail(f"off-diagonal commutator at k={k}")
                if scalar is None:
                    scalar = this
                assert this == scalar, f"non-scalar commutator at k={k}"
            observed.append(scalar)
        # emergent linear pattern in k (one value per degree)
        diffs = {observed[k + 1] - observed[k] for k in range(len(observed) - 1)}
        assert len(diffs) == 1


class TestContactSideMatch:
    def test_fiber_tables_match_quotient(self, contact2):
        # the H-fiber operators produce the same dimension table as the
        # quotient-side operators: realized as a basis-matching check
        cs = standard_cs_chart(2)
        contact_fib = contact2.fiber
        cs_fib = cs.fiber
        for k in range(0, 5):
            assert contact_fib.primitive_dim(k) == cs_fib.primitive_dim(k)
            assert contact_fib.primitive_basis(k) == cs_fib.primitive_basis(k)

    @pytest.mark.parametrize("n", [6, 7])
    def test_summand_table_matches_binomial_formula(self, n):
        for row in summand_dimension_table(n)["table"]:
            k = row["k"]
            dims = [s["dim"] for s in row["summands"]]
            assert row["total_dim"] == comb(2 * n, k) == sum(dims)
            assert row["primitive_dim"] == binomial_primitive_dim(n, k)
            assert dims == [
                binomial_primitive_dim(n, s["primitive_degree"]) for s in row["summands"]
            ]

    def test_summand_table(self):
        table = summand_dimension_table(2)
        k2 = table["table"][2]
        assert k2["total_dim"] == 6
        assert k2["primitive_dim"] == 5
        assert [s["dim"] for s in k2["summands"]] == [5, 1]
