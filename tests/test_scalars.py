"""The scalar convention: a rational is an int when integral, a Fraction otherwise.

Every matrix entry and every coefficient term the pipelines produce is
checked: a float would mean an inexact division slipped in, an integral
Fraction that a Fraction was built where no division made one.
"""

from fractions import Fraction

import pytest

from cscx.coefficients import (
    PolyCoefficient,
    canon,
    coefficient_from_json,
    coefficient_to_json,
    poly_ring,
    trig_ring,
)
from cscx.cohomology import BlockComplexes, mode_truncation, weight_truncation
from cscx.contact import contactify, lift_construction, standard_contact_chart
from cscx.descent import descend_complex, rs_complex, standard_pair
from cscx.forms import DifferentialForm, _SparseGraded, exterior_derivative, function_form
from cscx.linalg import OperatorMatrix
from cscx.rumin import rumin_complex

from helpers import trig_cos, trig_sin
from test_contact import _standard_beta


def _is_canonical(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _scalars(obj):
    """Every scalar held by a matrix, coefficient, form or polyvector."""
    if isinstance(obj, OperatorMatrix):
        yield from obj.entries.values()
    elif isinstance(obj, _SparseGraded):
        # one flat map {(axes, term): q}
        yield from obj.terms.values()
    else:
        yield from obj.terms.values()


def _assert_canonical(*objs):
    for obj in objs:
        bad = [v for v in _scalars(obj) if not _is_canonical(v)]
        assert not bad, f"non-canonical scalars {bad[:5]!r} in {type(obj).__name__}"


CASES = [("affine", weight_truncation(3)), ("torus", mode_truncation([(0, 0, 0, 0)]))]


class TestCanon:
    @pytest.mark.parametrize(
        "q, expected",
        [(Fraction(4, 2), 2), (Fraction(-3, 1), -3), (Fraction(0), 0), (7, 7), (Fraction(1, 3), Fraction(1, 3))],
    )
    def test_values_and_types(self, q, expected):
        out = canon(q)
        assert out == expected and type(out) is type(expected)


class TestNoFloatNoIntegralFraction:
    @pytest.mark.parametrize("model, truncation", CASES, ids=["affine-w3", "torus-mode0"])
    def test_rs_complex(self, cs_affine2, cs_torus2, model, truncation):
        cs = cs_affine2 if model == "affine" else cs_torus2
        _assert_canonical(*rs_complex(cs, truncation))

    @pytest.mark.parametrize("model, truncation", CASES, ids=["affine-w3", "torus-mode0"])
    def test_block_complexes(self, cs_affine2, cs_torus2, model, truncation):
        cs = cs_affine2 if model == "affine" else cs_torus2
        for block in truncation.blocks():
            bc = BlockComplexes(cs, block)
            _assert_canonical(*bc.de_rham, *bc.twisted, *bc.total, *bc.inclusions, *bc.projections)

    def test_rumin_complex(self, contact2):
        _assert_canonical(*rumin_complex(contact2, weight_truncation(3)))

    @pytest.mark.parametrize("xi_scale", [1, 2, Fraction(1, 5)])
    def test_descend_complex(self, xi_scale):
        pair = standard_pair(2, xi_scale=xi_scale)
        _assert_canonical(pair.contact.alpha, pair.contact.xi, pair.contact.lef_form())
        _assert_canonical(*descend_complex(pair, weight_truncation(3)))

    def _assert_lift(self, lift):
        sub = lift.substitution
        assert _is_canonical(lift.scale) and _is_canonical(sub.t_scale)
        assert all(_is_canonical(q) for row in sub.matrix for q in row)
        _assert_canonical(lift.shift, sub.shift, lift.pullback(lift.src.alpha))

    def test_lift_scaling_example(self):
        M = [[0] * 4 for _ in range(4)]
        for i, v in enumerate((2, 1, 2, 1)):
            M[i][i] = v
        self._assert_lift(lift_construction(standard_contact_chart(2), standard_contact_chart(2), M))

    def test_lift_block_swap_example(self):
        M = [[Fraction(0)] * 4 for _ in range(4)]
        M[0][2] = M[1][3] = M[2][0] = M[3][1] = Fraction(1)
        self._assert_lift(lift_construction(standard_contact_chart(2), standard_contact_chart(2), M))

    def test_lift_shear_example(self):
        base, beta = _standard_beta(2)
        g = base.coord_coeff(0) * base.coord_coeff(1)
        A = contactify(2, beta + exterior_derivative(function_form(base, g)))
        B = contactify(2, beta)
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        self._assert_lift(lift_construction(A, B, identity))

    def test_json_round_trip(self):
        ring = poly_ring(2)
        poly = PolyCoefficient(2, {(1, 0): 3, (0, 2): Fraction(-1, 2)})
        trig = trig_cos(trig_ring(2), (1, -1)).scale(3) + trig_sin(trig_ring(2), (0, 2)).scale(Fraction(1, 3))
        const = trig_ring(2).one()
        for f in (poly, trig, const, ring.const(Fraction(6, 3))):
            back = coefficient_from_json(coefficient_to_json(f))
            assert back == f
            _assert_canonical(back, f)

    def test_trig_products_halve_exactly(self):
        ring = trig_ring(2)
        c, s = trig_cos(ring, (1, 0)), trig_sin(ring, (1, 0))
        # cos^2 = (1 + cos 2x)/2 and cos^2 + sin^2 = 1
        _assert_canonical(c * c, s * s, c * s, c * c + s * s)
        assert (c * c + s * s).terms == {("c", (0, 0)): 1}

    def test_integral_fraction_constant(self, cs_affine2):
        chart = cs_affine2.chart
        form = DifferentialForm(chart, 1, {((0,), chart.ring.unit_term()): Fraction(4, 2)})
        _assert_canonical(form, exterior_derivative(form))
