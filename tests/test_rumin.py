from fractions import Fraction

import pytest

from cscx import rumin
from cscx.contact import lift_construction, standard_contact_chart
from cscx.forms import basis_form, function_form, zero_form
from cscx.grading import WordValues, weight_truncation
from cscx.rumin import (
    class_transport,
    generic_zigzag_matrix,
    operator_order,
    rumin_apply,
    rumin_complex,
)

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


class TestOrders:
    def test_orders_n2(self, contact2):
        struct = contact2.two_step
        orders = [operator_order(struct, k) for k in range(5)]
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
    """operator_order evaluates commutator words from memoized probe values."""

    def _record_words(self, monkeypatch, struct, k):
        seen = {}
        evaluate = WordValues.__call__

        def recording(values, key, exp, word):
            seen[(key, exp, word)] = evaluate(values, key, exp, word)
            return seen[(key, exp, word)]

        monkeypatch.setattr(WordValues, "__call__", recording)
        operator_order(struct, k)
        return seen

    @pytest.mark.parametrize("k", range(5))
    def test_memo_matches_commutator_word(self, monkeypatch, contact2, k):
        struct = contact2.two_step
        seen = self._record_words(monkeypatch, struct, k)
        assert any(len(word) == 3 for _, _, word in seen)
        space, codomain = struct.class_space(k), struct.class_space(k + 1)
        coords = [contact2.chart.coord_coeff(a) for a in range(contact2.chart.dim)]
        op = lambda form: rumin_apply(struct, k, form)  # noqa: E731
        for (key, exp, word), value in seen.items():
            e = space.element((None, key + (("p", exp),)))
            form = commutator_word(op, [coords[a] for a in word], e)
            # the memo holds the word's coordinates as (block weight, fiber key, exponent)
            expected = {
                (block[1], rest[:-1], rest[-1][1]): q
                for (block, rest), q in codomain.coordinates(form).items()
            }
            assert value == expected

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
