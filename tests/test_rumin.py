from fractions import Fraction
from functools import partial
from operator import add, mul

import pytest

from cscx import rumin
from cscx.contact import lift_construction, standard_contact_chart
from cscx.forms import basis_form, function_form, t_derivative, zero_form
from cscx.descent import rs_complex, total_differential
from cscx.grading import PairSpace, weight_truncation
from cscx.rumin import (
    class_operator_order,
    class_transport,
    generic_zigzag_matrix,
    operator_order,
    rumin_apply,
    rumin_complex,
)
from cscx.symbols import LeibnizTable

from helpers import commutator_word, rng


class TestOperator:
    def test_degree_zero_is_horizontal_differential(self, contact2):
        ch = chart = contact2.chart
        struct = contact2.two_step
        f = function_form(ch, ch.coord_coeff(0))
        assert rumin_apply(struct, 0, f) == basis_form(ch, (0,))
        # t-dependent input picks up the potential term
        g = function_form(ch, ch.coord_coeff(4))
        got = rumin_apply(struct, 0, g)
        x1, x2 = ch.coord_coeff(0), ch.coord_coeff(2)
        assert got == -(basis_form(ch, (1,)).times(x1) + basis_form(ch, (3,)).times(x2))

    def test_middle_operator_second_derivative_value(self, contact2):
        ch = contact2.chart
        struct = contact2.two_step
        y1 = ch.coord_coeff(1)
        phi = basis_form(ch, (0, 2)).times(y1 * y1)
        got = rumin_apply(struct, 2, phi)
        assert got == basis_form(ch, (1, 2)).scale(2)  # 2 dy1 ^ dx2

    def test_middle_operator_kills_closed_solution(self, contact2):
        ch = contact2.chart
        struct = contact2.two_step
        phi = (basis_form(ch, (0, 1)) - basis_form(ch, (2, 3))).times(ch.coord_coeff(0))
        assert rumin_apply(struct, 2, phi).is_zero()

    def test_lift_independence(self, contact2):
        # perturbing the representative by a graded-exact piece and re-solving
        # the correction leaves the output class unchanged
        ch = contact2.chart
        struct = contact2.two_step
        r = rng("lift-indep")
        fib = struct.fiber
        for k in (1, 2):
            space = struct.class_space(k)
            basis = space.basis(weight_truncation(k + 2))
            for label in basis.labels[:: max(1, len(basis.labels) // 10)]:
                e = space.element(label)
                baseline = rumin_apply(struct, k, e)
                from helpers import random_base_form

                tau = random_base_form(ch, k - 2, r) if k >= 2 else None
                if tau is not None and not tau.is_zero():
                    perturbed = e + struct.L(tau)
                    if k == 2:
                        # middle degree: the unique correction re-solves
                        alt = rumin_apply(struct, k, perturbed)
                    else:
                        alt = rumin_apply(struct, k, perturbed)
                    assert alt == baseline


class TestMatrices:
    def test_weight_zero_block_of_d0_vanishes(self, contact2):
        matrix = rumin_complex(contact2, weight_truncation(0))[0]
        assert matrix.is_zero()
        assert matrix.cols.dim == 1  # the constants

    def test_block_diagonality(self, contact2):
        for matrix in rumin_complex(contact2, weight_truncation(4)):
            assert not matrix.off_block_entries()

    def test_composites_vanish_w4(self, contact2):
        mats = rumin_complex(contact2, weight_truncation(4))
        for k in range(len(mats) - 1):
            assert mats[k + 1].compose(mats[k]).is_zero()

    def test_generic_route_matches_formulas_upstairs(self, contact2):
        struct = contact2.two_step
        truncation = weight_truncation(4)
        for k, formula in enumerate(rumin_complex(contact2, truncation)):
            generic = generic_zigzag_matrix(struct, k, truncation)
            assert formula.entries == generic.entries, f"paths differ at k={k}"

    @pytest.mark.parametrize("chart", ["contact", "cs"])
    def test_middle_zigzag_applies_the_pair_differential_once_per_column(
        self, contact2, cs_affine2, chart
    ):
        # X = D(lift(e)) takes one call per class column and B = D(0, psi) one
        # per twisted-slot column; the correction is B C, not a second D
        owner = contact2 if chart == "contact" else cs_affine2
        struct, n, truncation = owner.two_step, owner.n, weight_truncation(4)
        diff = struct.pair_differential if chart == "contact" else partial(total_differential, owner)
        calls = []

        def counted(phi, psi):
            calls.append(phi.degree)
            return diff(phi, psi)

        matrix = generic_zigzag_matrix(struct, n, truncation, pair_differential=counted)
        classes = struct.class_space(n).basis(truncation).dim
        b_slot = PairSpace(struct.chart, n).b.basis(truncation).dim
        assert classes and b_slot
        assert len(calls) == classes + b_slot
        formulas = rumin_complex(owner, truncation) if chart == "contact" else rs_complex(owner, truncation)
        assert matrix.entries == formulas[n].entries


class TestOrders:
    def test_orders_n2(self, contact2):
        struct = contact2.two_step
        orders = [operator_order(struct, k).measured_order() for k in range(5)]
        assert orders == [1, 1, 2, 1, 1]

    def test_middle_commutator_structure(self, contact2):
        # one commutator with a coordinate is not tensorial at the middle
        # degree, the double commutator is (and triple words vanish)
        ch = contact2.chart
        struct = contact2.two_step
        op = lambda form: rumin_apply(struct, 2, form)  # noqa: E731
        e = basis_form(ch, (0, 2))
        x1, y1 = ch.coord_coeff(0), ch.coord_coeff(1)
        double = commutator_word(op, [x1, y1], e)
        assert not double.is_zero()
        for triple in ([x1, y1, x1], [x1, y1, y1], [y1, y1, y1]):
            assert commutator_word(op, triple, e).is_zero()


class TestMemoizedOrders:
    """operator_order reads commutator words off the Newton differences of memoized probe values."""

    @pytest.mark.parametrize("k", range(5))
    def test_memo_matches_commutator_word(self, contact2, k):
        # the difference at probe c, shifted back by x^c, is the commutator
        # word of x^c's letters applied to the constant section v
        struct = contact2.two_step
        chart = contact2.chart
        space, codomain = struct.class_space(k), struct.class_space(k + 1)
        op = lambda form: rumin_apply(struct, k, form)  # noqa: E731
        table = LeibnizTable(space, codomain, op, rumin._MAX_ORDER)
        assert max(map(sum, table.probes)) == 3
        coords = [chart.coord_coeff(a) for a in range(chart.dim)]
        zero = (0,) * chart.dim
        seen = set()
        for key, row in table.rows.items():
            by_probe = {}
            # one group per probe with a nonzero difference, in probe order
            assert [i for i, _ in row] == sorted({i for i, _ in row})
            for i, items in row:
                assert items
                c = table.probes[i]
                by_probe[c] = {
                    (w + sum(map(mul, c, chart.weights)), fiber_key, tuple(map(add, e, c))): q
                    for (w, fiber_key, e), q in items
                }
            v = space.element((None, key + (("p", zero),)))
            for c in table.probes:
                letters = [coords[a] for a, times in enumerate(c) for _ in range(times)]
                form = commutator_word(op, letters, v)
                expected = {
                    (block[1], rest[:-1], rest[-1][1]): q
                    for (block, rest), q in codomain.coordinates(form).items()
                }
                assert by_probe.get(c, {}) == expected, (key, c)
            seen.update(sum(c) for c in by_probe)
        # the nonzero differences reach exactly the stated order
        assert max(seen) == class_operator_order(2, k) == table.measured_order()

    @pytest.mark.parametrize("k", range(5))
    def test_one_apply_per_probe_label(self, monkeypatch, contact2, k):
        struct = contact2.two_step
        payloads = []
        apply = rumin.rumin_apply

        def counting(struct_arg, degree, payload):
            payloads.append(payload)
            return apply(struct_arg, degree, payload)

        monkeypatch.setattr(rumin, "rumin_apply", counting)
        operator_order(struct, k)
        # distinct class basis elements are distinct forms, so a repeated
        # payload is a repeated (j, monomial) label
        assert payloads
        assert len(payloads) == len(set(payloads))


class TestPerturbedOrders:
    """operator_order reads an order raised by t-derivatives, exactly up to its bound."""

    def _compose_with_t(self, monkeypatch, degree, times):
        apply = rumin.rumin_apply

        def composed(struct, k, payload):
            if k == degree:
                for _ in range(times):
                    payload = t_derivative(payload)
            return apply(struct, k, payload)

        monkeypatch.setattr(rumin, "rumin_apply", composed)

    @pytest.mark.parametrize("k", range(5))
    def test_one_t_derivative_raises_the_order_by_one(self, monkeypatch, contact2, k):
        self._compose_with_t(monkeypatch, k, 1)
        assert operator_order(contact2.two_step, k).measured_order() == class_operator_order(2, k) + 1

    def test_middle_operator_after_two_t_derivatives_reads_the_bound(self, monkeypatch, contact2):
        # order 4, one above _MAX_ORDER; its -Lie term leaves a constant
        # d/dt^3 coefficient, so the longest nonzero word is the bound itself
        self._compose_with_t(monkeypatch, 2, 2)
        assert operator_order(contact2.two_step, 2).measured_order() == rumin._MAX_ORDER == 3


class TestNaturality:
    def _check(self, lift, n, weight_extra=2):
        src = lift.src.two_step
        dst = lift.dst.two_step
        for k in range(2 * n + 1):
            space = src.class_space(k)
            degree, offset = src.class_degree(k)
            basis = space.basis(weight_truncation(degree + offset + weight_extra))
            for label in basis.labels:
                e = space.element(label)
                left = class_transport(lift, k + 1, rumin_apply(src, k, e))
                right = rumin_apply(dst, k, class_transport(lift, k, e))
                assert left == right, f"naturality fails at degree {k}"

    def test_scaling_lift(self):
        A = standard_contact_chart(2)
        B = standard_contact_chart(2)
        M = [[Fraction(0)] * 4 for _ in range(4)]
        for i, v in enumerate((2, 1, 2, 1)):
            M[i][i] = Fraction(v)
        self._check(lift_construction(A, B, M), 2)

    def test_block_swap_lift(self):
        A = standard_contact_chart(2)
        B = standard_contact_chart(2)
        M = [[Fraction(0)] * 4 for _ in range(4)]
        M[0][2] = M[1][3] = M[2][0] = M[3][1] = Fraction(1)
        self._check(lift_construction(A, B, M), 2)

    def test_shear_lift(self):
        from cscx.forms import affine_cs_chart, exterior_derivative, function_form

        base = affine_cs_chart(2)
        beta = zero_form(base, 1)
        for i in range(2):
            beta = beta + basis_form(base, (2 * i + 1,)).times(base.coord_coeff(2 * i))
        g = base.coord_coeff(0) * base.coord_coeff(1)
        A = standard_contact_chart(2)
        from cscx.contact import contactify

        B = contactify(2, beta + exterior_derivative(function_form(base, g)))
        identity = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        lift = lift_construction(A, B, identity)
        self._check(lift, 2, weight_extra=1)
