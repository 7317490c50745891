from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cscx.errors import ChartMismatchError, DegreeError, InvalidAxisError, ReebInvarianceError, RingMismatchError
from cscx.forms import (
    DifferentialForm,
    PolyVectorField,
    affine_cs_chart,
    basis_form,
    contract_axes,
    coordinate_vector,
    exterior_derivative,
    form_from_json,
    function_form,
    horizontal_derivative,
    interior_product,
    lie_derivative,
    promote_form,
    restrict_form,
    t_derivative,
    torus_cs_chart,
    wedge,
    zero_form,
)
from cscx.descent import iso_down
from cscx.grading import GradedSpace
from cscx.lefschetz import fiber_apply, standard_cs_chart

from helpers import (
    coefficients_of,
    contract_axis,
    form_to_json,
    random_base_form,
    random_form,
    reference_derivative,
    reference_fiber_apply,
    reference_interior,
    reference_lie,
    reference_partial,
    reference_promote,
    reference_restrict,
    reference_t_derivative,
    reference_wedge,
    rng,
)

AFFINE = affine_cs_chart(2)
TORUS = torus_cs_chart(2)


class TestWedge:
    def test_repeated_index_vanishes(self):
        dx1 = basis_form(AFFINE, (0,))
        assert wedge(dx1, dx1).is_zero()

    def test_basis_two_form(self):
        got = wedge(basis_form(AFFINE, (0,)), basis_form(AFFINE, (1,)))
        assert got == basis_form(AFFINE, (0, 1))

    def test_one_transposition(self):
        x1 = AFFINE.coord_coeff(0)
        y1 = AFFINE.coord_coeff(1)
        got = wedge(basis_form(AFFINE, (1,)).times(x1), basis_form(AFFINE, (0,)).times(y1))
        assert got == basis_form(AFFINE, (0, 1), (x1 * y1).scale(-1))

    def test_graded_commutativity(self):
        r = rng("graded-comm")
        for _ in range(50):
            p = r.randint(0, 2)
            q = r.randint(0, 2)
            a = random_form(AFFINE, p, r)
            b = random_form(AFFINE, q, r)
            sign = (-1) ** (p * q)
            assert wedge(a, b) == wedge(b, a).scale(sign)

    def test_degree_overflow_is_zero(self):
        a = random_form(AFFINE, 3, rng("overflow"))
        b = random_form(AFFINE, 2, rng("overflow2"))
        assert wedge(a, b).is_zero()

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            wedge(basis_form(AFFINE, (0,)), basis_form(TORUS, (0,)))


class TestExteriorDerivative:
    def test_product_coefficient(self):
        x1 = AFFINE.coord_coeff(0)
        got = exterior_derivative(basis_form(AFFINE, (1,)).times(x1))
        assert got == basis_form(AFFINE, (0, 1))

    def test_dd_zero_500_random_per_ring(self):
        for chart, tag in ((AFFINE, "affine"), (TORUS, "torus")):
            r = rng("dd", tag)
            for _ in range(500):
                omega = random_form(chart, r.randint(0, 3), r)
                assert exterior_derivative(exterior_derivative(omega)).is_zero()

    def test_standard_contact_form(self, contact2):
        got = exterior_derivative(contact2.alpha)
        expect = basis_form(contact2.chart, (0, 1)) + basis_form(contact2.chart, (2, 3))
        assert got == expect

    def test_graded_leibniz(self):
        r = rng("leibniz-forms")
        for _ in range(80):
            p = r.randint(0, 2)
            a = random_form(AFFINE, p, r)
            b = random_form(AFFINE, r.randint(0, 2), r)
            left = exterior_derivative(wedge(a, b))
            right = wedge(exterior_derivative(a), b) + wedge(
                a, exterior_derivative(b)
            ).scale((-1) ** p)
            assert left == right


class TestInteriorProduct:
    def test_transversal_contraction(self, contact2):
        ch = contact2.chart
        dt_dx1 = wedge(basis_form(ch, (4,)), basis_form(ch, (0,)))
        got = interior_product(contact2.xi, dt_dx1)
        assert got == basis_form(ch, (0,))

    def test_convention_anchor(self):
        P = PolyVectorField.from_coefficients(AFFINE, 2, {(0, 1): AFFINE.one_coeff()})
        got = interior_product(P, basis_form(AFFINE, (0, 1)))
        assert got == function_form(AFFINE, AFFINE.one_coeff())

    def test_block_sum(self):
        P = PolyVectorField.from_coefficients(
            AFFINE, 2, {(0, 1): AFFINE.one_coeff(), (2, 3): AFFINE.one_coeff()}
        )
        omega = basis_form(AFFINE, (0, 1)) + basis_form(AFFINE, (2, 3))
        got = interior_product(P, omega)
        assert got == function_form(AFFINE, AFFINE.ring.const(2))
        # cross-check by expanding the slot convention per pair: the term on
        # axes (a, b) inserts d/da into the first slot, then d/db
        total = zero_form(AFFINE, 0)
        for a, b in ((0, 1), (2, 3)):
            inner = interior_product(coordinate_vector(AFFINE, a), omega)
            total = total + interior_product(coordinate_vector(AFFINE, b), inner)
        assert got == total

    @given(
        st.lists(st.integers(0, 5), max_size=6, unique=True).map(lambda k: tuple(sorted(k))),
        st.lists(st.integers(0, 5), min_size=1, max_size=2).map(tuple),
    )
    def test_contract_axes_matches_one_axis_at_a_time(self, key, axes):
        # axes may be absent from the key or repeat (a, a); both give None
        expected = (1, key)
        for axis in axes:
            hit = contract_axis(expected[1], axis)
            if hit is None:
                expected = None
                break
            expected = (expected[0] * hit[0], hit[1])
        assert contract_axes(key, axes) == expected

    def test_degree_underflow(self):
        P = PolyVectorField.from_coefficients(AFFINE, 2, {(0, 1): AFFINE.one_coeff()})
        with pytest.raises(DegreeError):
            interior_product(P, basis_form(AFFINE, (0,)))


class TestLieDerivative:
    def test_transversal_examples(self, contact2):
        ch = contact2.chart
        t = ch.coord_coeff(4)
        assert lie_derivative(contact2.xi, basis_form(ch, (0,)).times(t)) == basis_form(ch, (0,))
        x1 = ch.coord_coeff(0)
        assert lie_derivative(contact2.xi, basis_form(ch, (1,)).times(x1)).is_zero()
        assert lie_derivative(contact2.xi, contact2.alpha).is_zero()

    def test_cartan_against_constant_transport(self):
        # for a constant field the Lie derivative is the directional
        # derivative of the coefficients; compare on 100 random forms
        r = rng("cartan")
        for _ in range(100):
            coeffs = [Fraction(r.randint(-3, 3)) for _ in range(4)]
            X = PolyVectorField.from_coefficients(
                AFFINE,
                1,
                {(a,): AFFINE.ring.const(c) for a, c in enumerate(coeffs) if c},
            )
            if X.is_zero():
                continue
            omega = random_form(AFFINE, r.randint(0, 3), r)
            transported = zero_form(AFFINE, omega.degree)
            for key, coeff in coefficients_of(omega).items():
                moved = AFFINE.ring.const(0)
                for a, c in enumerate(coeffs):
                    if c:
                        moved = moved + reference_partial(coeff, a).scale(c)
                transported = transported + basis_form(AFFINE, key, moved)
            assert lie_derivative(X, omega) == transported

    def test_lie_commutes_with_d(self, contact2):
        r = rng("lie-d")
        for _ in range(60):
            omega = random_form(contact2.chart, r.randint(0, 3), r)
            left = lie_derivative(contact2.xi, exterior_derivative(omega))
            right = exterior_derivative(lie_derivative(contact2.xi, omega))
            assert left == right


class TestSplitOffDt:
    """omega = phi1 + alpha ^ phi2 with phi2 = i_xi omega and both free of dt.

    This is the split the honest descent rows invert (``iso_down`` reads
    i_xi omega and checks omega = alpha ^ i_xi omega).
    """

    @staticmethod
    def _split(omega, cc):
        phi2 = interior_product(cc.xi, omega) if omega.degree else zero_form(cc.chart, 0)
        return omega - wedge(cc.alpha, phi2), phi2

    def test_worked_example(self, contact2):
        ch = contact2.chart
        omega = wedge(basis_form(ch, (4,)), basis_form(ch, (0,)))
        phi1, phi2 = self._split(omega, contact2)
        assert phi2 == basis_form(ch, (0,))
        x1, x2 = ch.coord_coeff(0), ch.coord_coeff(2)
        assert phi1 == basis_form(ch, (0, 1)).times(x1) + basis_form(ch, (0, 3)).times(x2)
        assert phi1 + wedge(contact2.alpha, phi2) == omega

    def test_base_form_untouched(self, contact2):
        omega = basis_form(contact2.chart, (0, 1))
        phi1, phi2 = self._split(omega, contact2)
        assert phi1 == omega and phi2.is_zero()

    def test_alpha_splits_to_unit(self, contact2):
        phi1, phi2 = self._split(contact2.alpha, contact2)
        assert phi1.is_zero()
        assert phi2 == function_form(contact2.chart, contact2.chart.one_coeff())

    def test_round_trip_on_invariant_forms(self, contact2):
        r = rng("split-roundtrip")
        for _ in range(60):
            k = r.randint(1, 4)
            phi1 = random_base_form(contact2.chart, k, r)
            phi2 = random_base_form(contact2.chart, k - 1, r)
            omega = phi1 + wedge(contact2.alpha, phi2)
            got1, got2 = self._split(omega, contact2)
            assert interior_product(contact2.xi, got1).is_zero()
            assert got2 == phi2
            assert got1 + wedge(contact2.alpha, got2) == omega

    def test_rejects_non_invariant(self, pair2):
        ch = pair2.contact.chart
        t = ch.coord_coeff(4)
        with pytest.raises(ReebInvarianceError):
            iso_down(pair2, wedge(pair2.contact.alpha, basis_form(ch, (0,)).times(t)), "hq")

    def test_projection_commutes_with_lie(self, contact2):
        # H-restriction projection psi -> psi - alpha ^ i_xi psi commutes
        # with the transversal Lie derivative on arbitrary forms
        r = rng("proj-lie")
        for _ in range(40):
            omega = random_form(contact2.chart, r.randint(1, 4), r)

            def proj(w):
                return w - wedge(contact2.alpha, interior_product(contact2.xi, w))

            assert proj(lie_derivative(contact2.xi, omega)) == lie_derivative(
                contact2.xi, proj(omega)
            )


class TestWeightGrading:
    def test_weight_split_reassembles(self):
        # a form's coordinates split it into weight blocks that sum back to it
        r = rng("weights")
        for _ in range(30):
            omega = random_form(AFFINE, r.randint(0, 3), r)
            space = GradedSpace(AFFINE, omega.degree)
            total = zero_form(AFFINE, omega.degree)
            for label, q in space.coordinates(omega).items():
                element = space.element(label)
                (kind, weight), (_, (_, exp)) = label
                assert kind == "w" and weight == omega.degree + sum(exp)
                total = total + element.scale(q)
            assert total == omega


class TestSerialization:
    def test_round_trip(self):
        r = rng("form-json")
        for chart in (AFFINE, TORUS):
            for _ in range(20):
                omega = random_form(chart, r.randint(0, 3), r)
                assert form_from_json(form_to_json(omega), chart) == omega


def _random_field(chart, degree, r):
    """A random polyvector field of degree 1 or 2 built from random coefficients."""
    form = random_form(chart, degree, r)
    return PolyVectorField.from_coefficients(chart, degree, coefficients_of(form))


class TestFlatKernels:
    """Every flat-map operation against its coefficient-object reference, on both rings."""

    CHARTS = [AFFINE, TORUS]

    @pytest.mark.parametrize("chart", CHARTS, ids=["poly", "trig"])
    def test_wedge_and_derivatives(self, chart):
        r = rng("flat-wedge", chart.ring.kind)
        for _ in range(60):
            a = random_form(chart, r.randint(0, 3), r)
            b = random_form(chart, r.randint(0, 2), r)
            assert wedge(a, b) == reference_wedge(a, b)
            assert exterior_derivative(a) == reference_derivative(a, range(chart.dim))
            assert horizontal_derivative(a) == reference_derivative(a, chart.base_axes)
            f = coefficients_of(random_form(chart, 0, r)).get((), chart.ring.const(0))
            assert a.times(f) == DifferentialForm.from_coefficients(
                chart, a.degree, {key: c * f for key, c in coefficients_of(a).items()}
            )

    @pytest.mark.parametrize("chart", CHARTS, ids=["poly", "trig"])
    def test_interior_and_lie(self, chart):
        r = rng("flat-interior", chart.ring.kind)
        for _ in range(40):
            X = _random_field(chart, 1, r)
            P = _random_field(chart, 2, r)
            omega = random_form(chart, r.randint(2, 4), r)
            assert interior_product(X, omega) == reference_interior(X, omega)
            assert interior_product(P, omega) == reference_interior(P, omega)
            assert lie_derivative(X, omega) == reference_lie(X, omega)

    @pytest.mark.parametrize("chart", CHARTS, ids=["poly", "trig"])
    def test_dd_zero_and_graded_leibniz(self, chart):
        r = rng("flat-leibniz", chart.ring.kind)
        for _ in range(60):
            p = r.randint(0, 2)
            a = random_form(chart, p, r)
            b = random_form(chart, r.randint(0, 2), r)
            assert exterior_derivative(exterior_derivative(a)).is_zero()
            left = exterior_derivative(wedge(a, b))
            right = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)).scale((-1) ** p)
            assert left == right

    @pytest.mark.parametrize("model", ["affine", "torus"])
    def test_fiber_apply(self, model):
        cs = standard_cs_chart(2, model)
        fib = cs.fiber
        r = rng("flat-fiber", model)
        for _ in range(30):
            k = r.randint(0, 4)
            omega = random_form(cs.chart, k, r)
            maps = [(fib.pi0_map(k), k)] + ([(fib.wedge_map(k), k + 2)] if k <= 2 else [])
            if k == 3:
                maps.append((fib.middle_inverse(), 1))
            for entries, out in maps:
                assert fiber_apply(fib, entries, omega, out) == reference_fiber_apply(fib, entries, omega, out)

    def test_t_derivative_promote_restrict(self, contact2):
        ch, base = contact2.chart, contact2.base
        r = rng("flat-t")
        for _ in range(40):
            omega = random_form(ch, r.randint(0, 3), r)
            scale = Fraction(r.randint(1, 5), r.randint(1, 3))
            assert t_derivative(omega, scale) == reference_t_derivative(omega, scale)
            down = random_form(base, r.randint(0, 3), r)
            up = promote_form(down, ch)
            assert up == reference_promote(down, ch)
            assert restrict_form(up, base) == reference_restrict(up, base) == down

    def test_flat_constructor_checks_keys_and_terms(self):
        unit = AFFINE.ring.unit_term()
        assert DifferentialForm(AFFINE, 1, {((0,), unit): Fraction(4, 2)}).terms == {((0,), unit): 2}
        assert DifferentialForm(AFFINE, 1, {((0,), unit): 0}).is_zero()
        with pytest.raises(InvalidAxisError):
            DifferentialForm(AFFINE, 1, {((9,), unit): 1})
        with pytest.raises(InvalidAxisError):
            DifferentialForm(AFFINE, 1, {((0,), (0, 0, 0)): 1})
        with pytest.raises(RingMismatchError):
            basis_form(AFFINE, (0,)).times(TORUS.one_coeff())

    def test_coefficient_reads_one_multi_index(self):
        x1, y1 = AFFINE.coord_coeff(0), AFFINE.coord_coeff(1)
        omega = basis_form(AFFINE, (0,), x1 * y1 + y1) + basis_form(AFFINE, (2,), x1)
        assert omega.coefficient((0,)) == x1 * y1 + y1
        assert omega.coefficient([2]) == x1
        assert omega.coefficient((1,)).is_zero()
