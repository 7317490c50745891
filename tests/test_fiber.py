"""The shared fiber layer: one FiberCalculus per structure form, cached sparse maps."""

from fractions import Fraction

import pytest

from cscx import rumin
from cscx.contact import standard_contact_chart
from cscx.descent import cs_two_step, rs_apply
from cscx.errors import CsStructureError, InternalConsistencyError, NonPrimitiveError
from cscx.forms import affine_cs_chart, basis_form
from cscx.lefschetz import fiber_from_form, is_primitive, standard_cs_chart
from cscx.rumin import contact_two_step

from helpers import dense_rank, trig_cos, trig_sin


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


class TestSharedFiber:
    def test_both_sides_share_one_object(self):
        cs = standard_cs_chart(2)
        fib = cs.fiber()
        assert cs_two_step(cs).fiber() is fib
        assert standard_contact_chart(2).fiber() is fib
        assert contact_two_step(standard_contact_chart(2)).fiber() is fib
        assert standard_cs_chart(2, "torus").fiber() is fib

    def test_rescaled_structure_form_gets_its_own_fiber(self):
        fib = standard_cs_chart(2).fiber()
        scaled = standard_contact_chart(2, xi_scale=2).fiber()
        assert scaled is not fib
        assert scaled is standard_contact_chart(2, xi_scale=2).fiber()

    def test_structure_resolves_its_fiber_at_construction(self, monkeypatch):
        struct = contact_two_step(standard_contact_chart(2))

        def refuse(*args):
            raise AssertionError("fiber resolved again")

        monkeypatch.setattr(rumin, "fiber_from_form", refuse)
        assert struct.fiber() is struct.fiber()


@pytest.mark.parametrize("n", [2, 3])
class TestFiberMaps:
    def test_pi0_map_is_idempotent(self, n):
        fib = standard_cs_chart(n).fiber()
        for k in range(2 * n + 1):
            p = fib.pi0_map(k)
            assert _compose(p, p) == dict(p)

    def test_pi0_map_fixes_primitive_basis(self, n):
        fib = standard_cs_chart(n).fiber()
        for k in range(2 * n + 1):
            for vec in fib.primitive_basis(k):
                assert fib.pi0(k, vec) == vec

    def test_pi0_map_kills_the_lefschetz_images(self, n):
        # with idempotence and the fixed primitive basis, a kernel holding
        # the image of wedging (k <= n) or of insertion (k > n) and a rank
        # equal to the primitive dimension pin pi0 down without the
        # decomposition that builds it
        fib = standard_cs_chart(n).fiber()
        for k in range(2 * n + 1):
            p = fib.pi0_map(k)
            if 2 <= k <= n:
                assert not _compose(p, fib.wedge_map(k - 2))
            if n < k <= 2 * n - 2:
                assert not _compose(p, fib.insertion_map(k + 2))
            assert dense_rank(_dense(p, fib.dim(k))) == fib.primitive_dim(k)

    def test_middle_inverse_inverts_middle_wedge(self, n):
        fib = standard_cs_chart(n).fiber()
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
        assert is_primitive(cs.fiber(), primitive)
        for form in others:
            assert not is_primitive(cs.fiber(), form)

    @pytest.mark.parametrize("model", ["affine", "torus"])
    def test_rs_apply_above_middle_rejects_non_primitive_payload(self, model):
        cs = standard_cs_chart(2, model)
        primitive, others = self._forms(cs)
        rs_apply(cs, 3, primitive)
        for form in others:
            with pytest.raises(NonPrimitiveError):
                rs_apply(cs, 3, form)
