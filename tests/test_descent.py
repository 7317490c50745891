from fractions import Fraction

import pytest

from cscx.contact import HForm
from cscx.descent import (
    descend_complex,
    iso_down,
    iso_up,
    nabla_twisted_d,
    promote_form,
    rs_apply,
    rs_complex,
    ss_fallback,
    standard_pair,
    total_differential,
)
from cscx.errors import DegreeError, NonPrimitiveError, ReebInvarianceError
from cscx.forms import (
    basis_form,
    exterior_derivative,
    function_form,
    lie_derivative,
    wedge,
    zero_form,
)
from cscx.grading import weight_truncation
from cscx.lefschetz import TwistedForm, lefschetz_L, primitive_projection, untwisted

from helpers import random_form, rng


def _random_primitive(cs, degree, r):
    candidate = random_form(cs.chart, degree, r)
    return primitive_projection(cs, untwisted(candidate)).base


class TestIsomorphisms:
    def test_row_examples(self, pair2):
        cs = pair2.cs
        cc = pair2.contact
        dx1 = basis_form(cs.chart, (0,))
        up = iso_up(pair2, dx1, "h")
        assert isinstance(up, HForm)
        assert up.form == promote_form(dx1, cc.chart)
        one = function_form(cs.chart, cs.chart.one_coeff())
        assert iso_up(pair2, one, "hq") == cc.alpha

    def test_round_trips_100_per_row(self, pair2):
        cs = pair2.cs
        r = rng("iso-roundtrip")
        for kind in ("h", "hq"):
            for _ in range(100):
                phi = random_form(cs.chart, r.randint(0, 4), r)
                up = iso_up(pair2, phi, kind)
                assert iso_down(pair2, up, kind) == phi
        for kind in ("h0", "h0q"):
            for _ in range(100):
                phi = _random_primitive(cs, r.randint(0, 2), r)
                up = iso_up(pair2, phi, kind)
                assert iso_down(pair2, up, kind) == phi
        for kind in ("ell", "ell0"):
            for _ in range(100):
                degree = r.randint(0, 2)
                base = (
                    _random_primitive(cs, degree, r)
                    if kind == "ell0"
                    else random_form(cs.chart, degree, r)
                )
                psi = TwistedForm(base, 1)
                up = iso_up(pair2, psi, kind)
                assert iso_down(pair2, up, kind) == psi

    def test_images_invariant(self, pair2):
        cc = pair2.contact
        r = rng("iso-invariant")
        for _ in range(50):
            phi = random_form(pair2.cs.chart, r.randint(0, 3), r)
            form = iso_up(pair2, phi, "hq")
            assert lie_derivative(cc.xi, form).is_zero()
            hclass = iso_up(pair2, phi, "h")
            assert lie_derivative(cc.xi, hclass.form).is_zero()

    def test_twisted_row_ignores_transversal_rescaling(self):
        base_pair = standard_pair(2)
        scaled_pair = standard_pair(2, xi_scale=Fraction(2))
        r = rng("sigma-xi")
        for _ in range(30):
            psi = TwistedForm(random_form(base_pair.cs.chart, r.randint(0, 2), r), 1)
            assert iso_up(base_pair, psi, "ell") == iso_up(scaled_pair, psi, "ell")

    def test_non_primitive_rejected(self, pair2):
        with pytest.raises(NonPrimitiveError):
            iso_up(pair2, pair2.cs.omega, "h0")

    def test_transversal_dependence_rejected(self, pair2):
        cc = pair2.contact
        t_form = basis_form(cc.chart, (0,)).times(cc.chart.coord_coeff(4))
        with pytest.raises(ReebInvarianceError):
            iso_down(pair2, HForm(cc, t_form, 0), "h")


class TestTwistedDerivative:
    def test_parallel_section(self, cs_affine2):
        x1 = cs_affine2.chart.coord_coeff(0)
        psi = TwistedForm(function_form(cs_affine2.chart, x1), 1)
        got = nabla_twisted_d(cs_affine2, psi)
        assert got == TwistedForm(basis_form(cs_affine2.chart, (0,)), 1)

    def test_flatness(self, cs_affine2):
        r = rng("flat")
        for _ in range(50):
            psi = TwistedForm(random_form(cs_affine2.chart, r.randint(0, 3), r), 1)
            assert nabla_twisted_d(cs_affine2, nabla_twisted_d(cs_affine2, psi)).is_zero()

    def test_wedge_compatibility(self, cs_affine2):
        # d(Omega ^ psi) = Omega ^ d psi, tested through the untwisting rule
        r = rng("wedge-compat")
        for _ in range(50):
            psi = TwistedForm(random_form(cs_affine2.chart, r.randint(0, 2), r), 1)
            left = exterior_derivative(lefschetz_L(cs_affine2, psi).base)
            right = lefschetz_L(cs_affine2, nabla_twisted_d(cs_affine2, psi)).base
            assert left == right


class TestTotalDifferential:
    def test_function_slot(self, cs_affine2):
        f = function_form(cs_affine2.chart, cs_affine2.chart.coord_coeff(0))
        phi, psi = total_differential(cs_affine2, f, None)
        assert phi == basis_form(cs_affine2.chart, (0,))
        assert psi.is_zero()

    def test_twisted_unit_slot(self, cs_affine2):
        one = function_form(cs_affine2.chart, cs_affine2.chart.one_coeff())
        phi, psi = total_differential(cs_affine2, zero_form(cs_affine2.chart, 1), one)
        assert phi == cs_affine2.omega
        assert psi.is_zero()

    def test_twisted_slot_has_degree_k_minus_1(self, cs_affine2):
        chart = cs_affine2.chart
        with pytest.raises(DegreeError):
            total_differential(cs_affine2, zero_form(chart, 2), zero_form(chart, 2))
        # degree 0 has no twisted slot, not even a zero one
        with pytest.raises(DegreeError):
            total_differential(cs_affine2, zero_form(chart, 0), zero_form(chart, 0))

    def test_square_zero(self, cs_affine2):
        r = rng("total-dd")
        for _ in range(50):
            k = r.randint(1, 4)
            phi = random_form(cs_affine2.chart, k, r)
            psi = random_form(cs_affine2.chart, k - 1, r)
            out = total_differential(cs_affine2, *total_differential(cs_affine2, phi, psi))
            assert out[0].is_zero() and out[1].is_zero()


class TestIntrinsicOperators:
    def test_hand_solved_middle_value(self, cs_affine2):
        ch = cs_affine2.chart
        y1 = ch.coord_coeff(1)
        phi = basis_form(ch, (0, 2)).times(y1 * y1)
        got = rs_apply(cs_affine2, 2, phi)
        # the wedge solve gives psi = -2 y1 dx2 (tensor the generator) and
        # the class is minus its derivative: 2 dy1 ^ dx2
        assert got == basis_form(ch, (1, 2)).scale(2)

    def test_middle_kills_closed_solution(self, cs_affine2):
        ch = cs_affine2.chart
        phi = (basis_form(ch, (0, 1)) - basis_form(ch, (2, 3))).times(ch.coord_coeff(0))
        assert rs_apply(cs_affine2, 2, phi).is_zero()

    def test_descended_degree_zero_is_d(self, pair2):
        matrix = descend_complex(pair2, weight_truncation(4))[0]
        struct = pair2.cs.two_step
        from cscx.grading import assemble_operator

        domain = struct.class_space(0)
        codomain = struct.class_space(1)
        direct = assemble_operator(
            domain,
            codomain,
            exterior_derivative,
            domain.basis(weight_truncation(4)),
            codomain.basis(weight_truncation(4)),
        )
        assert matrix.entries == direct.entries

    def test_complex_property(self, cs_affine2):
        mats = rs_complex(cs_affine2, weight_truncation(4))
        for k in range(len(mats) - 1):
            assert mats[k + 1].compose(mats[k]).is_zero()

    def test_rs_operator_matrix_matches_apply(self, cs_affine2):
        truncation = weight_truncation(3)
        struct = cs_affine2.two_step
        matrix = rs_complex(cs_affine2, truncation)[1]
        space = struct.class_space(1)
        basis = space.basis(truncation)
        target = struct.class_space(2)
        target_basis = target.basis(truncation)
        for col, label in enumerate(basis.labels):
            image = rs_apply(cs_affine2, 1, space.element(label))
            expected = target.vector(image, target_basis)
            got = {r: v for (r, c), v in matrix.entries.items() if c == col}
            assert got == expected


class TestTripleOracle:
    def test_three_routes_agree_w3(self, pair2):
        truncation = weight_truncation(3)
        descended = descend_complex(pair2, truncation)
        intrinsic = rs_complex(pair2.cs, truncation)
        fallback = ss_fallback(pair2.cs, truncation)
        for k, (a, b, c) in enumerate(zip(descended, intrinsic, fallback)):
            assert a.rows.labels == b.rows.labels == c.rows.labels
            assert a.entries == b.entries, f"descended != intrinsic at k={k}"
            assert b.entries == c.entries, f"intrinsic != fallback at k={k}"

    def test_rescaled_transversal_field_agrees(self):
        truncation = weight_truncation(3)
        baseline = descend_complex(standard_pair(2), truncation)
        for lam in (2, -3, Fraction(1, 5)):
            scaled = descend_complex(standard_pair(2, xi_scale=lam), truncation)
            for a, b in zip(baseline, scaled):
                assert a.entries == b.entries

    def test_torus_fallback_matches_intrinsic(self, cs_torus2):
        from cscx.grading import mode_truncation

        truncation = mode_truncation([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, -1, 0)])
        intrinsic = rs_complex(cs_torus2, truncation)
        fallback = ss_fallback(cs_torus2, truncation)
        for k, (b, c) in enumerate(zip(intrinsic, fallback)):
            assert b.entries == c.entries, f"torus fallback differs at k={k}"


class TestGradedPage:
    def test_page_dimensions_carry_multiplicities(self, cs_affine2):
        struct = cs_affine2.two_step
        fiber_dims = [1, 4, 5, 5, 4, 1]
        truncation = weight_truncation(4)
        for k in range(6):
            space = struct.class_space(k)
            basis = space.basis(truncation)
            degree, offset = struct.class_degree(k)
            per_block = {}
            for block, _ in basis.labels:
                per_block[block] = per_block.get(block, 0) + 1
            for block, count in per_block.items():
                assert count % fiber_dims[k] == 0
                assert count // fiber_dims[k] >= 1

    def test_graded_differential_is_the_wedge(self, cs_affine2):
        # the filtered slot maps into the form slot by wedging with the
        # structure form (the tensorial part of the total differential)
        r = rng("e0")
        for _ in range(30):
            k = r.randint(1, 3)
            psi = random_form(cs_affine2.chart, k - 1, r)
            phi, _ = total_differential(cs_affine2, zero_form(cs_affine2.chart, k), psi)
            assert phi == wedge(cs_affine2.omega, psi)
