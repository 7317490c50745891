"""The fiber layer: one FiberCalculus per chart, cached sparse maps."""

from fractions import Fraction
from functools import partial

import pytest

from cscx import contact, lefschetz
from cscx.contact import standard_contact_chart
from cscx.descent import rs_apply, rs_complex, standard_pair
from cscx.errors import CsStructureError, InternalConsistencyError, NonPrimitiveError
from cscx.forms import affine_cs_chart, basis_form, interior_product
from cscx.grading import mode_truncation, weight_truncation
from cscx.lefschetz import CsChart, fiber_from_form, is_primitive, standard_cs_chart, standard_omega
from cscx.rumin import rumin_complex

from helpers import coefficients_of, dense_rank, trig_cos, trig_sin


def _compose(left, right):
    out = {}
    for (r, m), v in left.items():
        for (m2, c), w in right.items():
            if m == m2:
                out[(r, c)] = out.get((r, c), Fraction(0)) + v * w
    return {e: v for e, v in out.items() if v}


def _identity(size):
    return {(i, i): Fraction(1) for i in range(size)}


def _dense(entries, size):
    out = [[0] * size for _ in range(size)]
    for (r, c), v in entries.items():
        out[r][c] = v
    return out


def _charts_and_complexes():
    """One chart of each kind, each with a builder of its operator complex."""
    return [
        (standard_cs_chart(2), partial(rs_complex, truncation=weight_truncation(3))),
        (
            standard_cs_chart(2, "torus"),
            partial(rs_complex, truncation=mode_truncation([(0, 0, 0, 0), (1, 0, 0, 0)])),
        ),
        (standard_contact_chart(2), partial(rumin_complex, truncation=weight_truncation(3))),
    ]


class TestOneFiberPerChart:
    def test_structures_use_their_charts_fiber(self):
        for chart, _ in _charts_and_complexes():
            assert chart.two_step.fiber is chart.fiber
            assert chart.two_step is chart.two_step
            assert all(space.fiber is chart.fiber for space in chart.two_step.class_spaces())

    def test_charts_share_no_fiber(self):
        pair = standard_pair(2)
        charts = [chart for chart, _ in _charts_and_complexes()]
        charts += [standard_cs_chart(2), pair.cs, pair.contact]
        fibers = [chart.fiber for chart in charts]
        assert len({id(fib) for fib in fibers}) == len(fibers)
        # equal structure forms give equal, not shared, fiber calculi
        assert pair.cs.fiber.primitive_basis(2) == pair.contact.fiber.primitive_basis(2)

    def test_chart_builds_its_fiber_once(self, monkeypatch):
        built = [(chart, build, chart.fiber) for chart, build in _charts_and_complexes()]

        def refuse(*args):
            raise AssertionError("fiber built again")

        monkeypatch.setattr(lefschetz, "fiber_from_form", refuse)
        monkeypatch.setattr(contact, "fiber_from_form", refuse)
        for chart, build, fib in built:
            assert build(chart)
            assert chart.fiber is fib and chart.two_step.fiber is fib

    def test_cs_chart_builds_its_fiber_at_construction(self):
        # x1 dx1^dy2 is closed and leaves the top power a nonzero constant,
        # so only the fiber calculus refuses the non-constant coefficient
        chart = affine_cs_chart(2)
        omega = standard_omega(chart, 2) + basis_form(chart, (0, 3)).times(chart.coord_coeff(0))
        with pytest.raises(CsStructureError, match="constant coefficients"):
            CsChart(n=2, model="affine", chart=chart, omega=omega)


@pytest.mark.parametrize("n", [2, 3])
class TestFiberMaps:
    def test_pi0_map_is_idempotent(self, n):
        fib = standard_cs_chart(n).fiber
        for k in range(2 * n + 1):
            p = fib.pi0_map(k)
            assert _compose(p, p) == dict(p)

    def test_pi0_map_fixes_primitive_basis(self, n):
        fib = standard_cs_chart(n).fiber
        for k in range(2 * n + 1):
            for vec in fib.primitive_basis(k):
                assert fib.pi0(k, vec) == vec

    def test_pi0_map_kills_the_lefschetz_images(self, n):
        # with idempotence and the fixed primitive basis, a kernel holding
        # the image of wedging (k <= n) or of insertion (k > n) and a rank
        # equal to the primitive dimension pin pi0 down without the
        # decomposition that builds it
        fib = standard_cs_chart(n).fiber
        for k in range(2 * n + 1):
            p = fib.pi0_map(k)
            if 2 <= k <= n:
                assert not _compose(p, fib.wedge_map(k - 2))
            if n < k <= 2 * n - 2:
                assert not _compose(p, fib.insertion_map(k + 2))
            assert dense_rank(_dense(p, fib.dim(k))) == fib.primitive_dim(k)

    def test_insertion_map_is_the_interior_product_of_the_inverse_bivector(self, n):
        # the fiber layer and the form layer contract through one sign routine;
        # each column is read back off the form-level contraction of a basis form
        cs = standard_cs_chart(n)
        fib, P = cs.fiber, cs.inverse_bivector_field()
        for k in range(2, 2 * n + 1):
            expected = {}
            for col, key in enumerate(fib.indices(k)):
                image = interior_product(P, basis_form(cs.chart, key))
                for new_key, coeff in coefficients_of(image).items():
                    assert coeff.is_constant()
                    expected[(fib.positions(k - 2)[new_key], col)] = coeff.constant_part()
            assert dict(fib.insertion_map(k)) == expected

    def test_middle_inverse_inverts_middle_wedge(self, n):
        fib = standard_cs_chart(n).fiber
        size = fib.dim(n - 1)
        assert _compose(fib.middle_inverse(), fib.wedge_map(n - 1)) == _identity(size)
        assert _compose(fib.wedge_map(n - 1), fib.middle_inverse()) == _identity(size)


class TestDegenerateForm:
    """dx1 ^ dy1 alone is degenerate on R^4: both fiber inverses refuse it."""

    def _fiber(self):
        return fiber_from_form(basis_form(affine_cs_chart(2), (0, 1)), 2)

    def test_inverse_bivector_raises(self):
        with pytest.raises(CsStructureError, match="degenerate"):
            self._fiber().inverse_bivector()

    def test_middle_inverse_raises(self):
        with pytest.raises(InternalConsistencyError, match="not invertible"):
            self._fiber().middle_inverse()


class TestPrimitivityTest:
    def _forms(self, cs):
        ch = cs.chart
        if ch.ring.kind == "poly":
            f, g = ch.coord_coeff(0), ch.coord_coeff(2)
        else:
            f, g = trig_cos(ch.ring, (1, 0, 0, 0)), trig_sin(ch.ring, (0, 0, 1, 1))
        diff = basis_form(ch, (0, 1)) - basis_form(ch, (2, 3))
        primitive = diff.times(f) + basis_form(ch, (0, 2)).times(g)
        # f dx1^dy1 - g dx2^dy2 is primitive only where f = g
        mixed = basis_form(ch, (0, 1)).times(f) - basis_form(ch, (2, 3)).times(g)
        return primitive, [cs.omega.times(f), mixed]

    @pytest.mark.parametrize("model", ["affine", "torus"])
    def test_pi0_fixes_exactly_the_primitive_payloads(self, model):
        cs = standard_cs_chart(2, model)
        primitive, others = self._forms(cs)
        assert is_primitive(cs.fiber, primitive)
        for form in others:
            assert not is_primitive(cs.fiber, form)

    @pytest.mark.parametrize("model", ["affine", "torus"])
    def test_rs_apply_above_middle_rejects_non_primitive_payload(self, model):
        cs = standard_cs_chart(2, model)
        primitive, others = self._forms(cs)
        rs_apply(cs, 3, primitive)
        for form in others:
            with pytest.raises(NonPrimitiveError):
                rs_apply(cs, 3, form)
