import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscx.coefficients import (
    PolyCoefficient,
    TrigCoefficient,
    canonical_mode,
    coefficient_from_json,
    coefficient_to_json,
    poly_ring,
    trig_ring,
)
from cscx.errors import InvalidAxisError, RingMismatchError

from helpers import (
    kernel_partial,
    random_poly,
    random_trig,
    reference_partial,
    reference_product,
    rng,
    trig_cos,
    trig_from_exponentials,
    trig_sin,
)

POLY = poly_ring(4)
TRIG = trig_ring(4)


fractions = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 9)
)
exponents = st.tuples(*[st.integers(0, 3)] * 4)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, fractions, max_size=4))
    return PolyCoefficient(4, terms)


@st.composite
def trigs(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(-2, 2)] * 4), fractions, fractions),
            max_size=3,
        )
    )
    return trig_from_exponentials(4, pairs)


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_poly_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=40)
    @given(trigs(), trigs(), trigs())
    def test_trig_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys())
    def test_poly_identity(self, f):
        assert POLY.one() * f == f

    def test_monomial_product(self):
        x1 = POLY.var(0)
        y1 = POLY.var(1)
        assert (x1 * y1).terms == {(1, 1, 0, 0): Fraction(1)}

    @pytest.mark.parametrize("mode", [(1, 0, 0, 0), (1, -2, 0, 1), (0, 0, 2, -1)])
    def test_cos_squared_plus_sin_squared(self, mode):
        c, s = trig_cos(TRIG, mode), trig_sin(TRIG, mode)
        assert c * c + s * s == TRIG.one()

    def test_sin_times_cos(self):
        # sin a cos b = (sin(a + b) + sin(a - b)) / 2, with sin(-m) = -sin(m)
        a, b = (1, 0, 0, 0), (1, 1, 0, 0)
        product = trig_sin(TRIG, a) * trig_cos(TRIG, b)
        expected = (trig_sin(TRIG, (2, 1, 0, 0)) - trig_sin(TRIG, (0, 1, 0, 0))).scale(Fraction(1, 2))
        assert product == expected
        assert trig_sin(TRIG, (0, -1, 0, 0)) == -trig_sin(TRIG, (0, 1, 0, 0))


# terms mixing ints and Fractions (integral ones among them)
mixed_scalars = st.one_of(st.integers(-30, 30), fractions)
trig_terms = st.tuples(st.sampled_from("cs"), st.tuples(*[st.integers(-2, 2)] * 4)).map(
    lambda t: (t[0], canonical_mode(t[1]))
).filter(lambda t: t[0] == "c" or any(t[1]))


@st.composite
def mixed_coefficients(draw, kind):
    if kind == "poly":
        return PolyCoefficient(4, draw(st.dictionaries(exponents, mixed_scalars, max_size=4)))
    return TrigCoefficient(4, draw(st.dictionaries(trig_terms, mixed_scalars, max_size=4)))


def _all_fraction(f):
    """The same coefficient with every term a Fraction, bypassing the constructor."""
    copy = object.__new__(type(f))
    copy.nvars = f.nvars
    copy.terms = {key: Fraction(v) for key, v in f.terms.items()}
    return copy


def _canonical(f) -> bool:
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in f.terms.values())


class TestMixedScalars:
    """int and Fraction terms give the same values as Fraction-only arithmetic."""

    @pytest.mark.parametrize("kind", ["poly", "trig"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ring_operations(self, kind, data):
        a = data.draw(mixed_coefficients(kind))
        b = data.draw(mixed_coefficients(kind))
        q = data.draw(mixed_scalars)
        fa, fb = _all_fraction(a), _all_fraction(b)
        pairs = [
            (a + b, fa + fb),
            (a - b, fa - fb),
            (a * b, fa * fb),
            (a.scale(q), fa.scale(Fraction(q))),
        ]
        pairs += [(kernel_partial(a, var), kernel_partial(fa, var)) for var in range(4)]
        for got, reference in pairs:
            assert got == reference
            assert _canonical(got) and _canonical(reference)


OPERANDS = {"poly": "polynomial", "trig": "trig"}


class TestSharedArithmetic:
    """The sparse-term arithmetic both rings share behaves alike on each."""

    @pytest.mark.parametrize("kind", ["poly", "trig"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_additive_identities(self, kind, data):
        a = data.draw(mixed_coefficients(kind))
        b = data.draw(mixed_coefficients(kind))
        assert a - b == a + (-b)
        assert -(-a) == a
        assert a.scale(0).is_zero()
        assert (a - a).is_zero()

    @pytest.mark.parametrize("kind", ["poly", "trig"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), q=st.sampled_from([-1, 0, 1, 2, Fraction(1, 2)]))
    def test_scale_multiplies_every_term(self, kind, data, q):
        a = data.draw(mixed_coefficients(kind))
        terms = dict(a.terms)
        scaled = a.scale(q)
        assert scaled == type(a)(a.nvars, {key: v * q for key, v in terms.items()})
        assert scaled.terms == {key: v * q for key, v in terms.items() if q}
        assert _canonical(scaled)
        # a is left as it was
        assert a.terms == terms

    @pytest.mark.parametrize("kind", ["poly", "trig"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scale_by_one_is_the_coefficient_itself(self, kind, data):
        # nothing writes to terms after construction, so sharing is safe
        a = data.draw(mixed_coefficients(kind))
        assert a.scale(1) is a and a.scale(Fraction(1)) == a
        assert a.scale(-1) == -a

    @pytest.mark.parametrize("kind", ["poly", "trig"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equal_values_hash_equal_whatever_the_insertion_order(self, kind, data):
        a = data.draw(mixed_coefficients(kind))
        items = list(a.terms.items())
        shuffled = data.draw(st.permutations(items))
        b = type(a)(a.nvars, dict(shuffled))
        assert b == a and hash(b) == hash(a)
        assert type(a)(a.nvars, dict(reversed(items))) == a

    @settings(max_examples=40, deadline=None)
    @given(mixed_coefficients("poly"), mixed_coefficients("trig"))
    def test_poly_and_trig_do_not_mix(self, p, t):
        for left, right in ((p, t), (t, p)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(RingMismatchError, match=f"{OPERANDS[left.kind]} operands"):
                    op(left, right)
            assert left != right

    @pytest.mark.parametrize("kind", ["poly", "trig"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
    def test_different_variable_counts_raise(self, kind, op):
        ring = poly_ring if kind == "poly" else trig_ring
        with pytest.raises(RingMismatchError, match=f"^{OPERANDS[kind]} operands from different rings$"):
            op(ring(4).one(), ring(3).one())
        assert ring(4).const(0) != ring(3).const(0)

    def test_constructor_key_length_messages(self):
        with pytest.raises(InvalidAxisError, match="^exponent vector of length 3 in a 4-variable ring$"):
            PolyCoefficient(4, {(1, 0, 0): 1})
        with pytest.raises(InvalidAxisError, match="^frequency vector of length 3 in a 4-variable ring$"):
            TrigCoefficient(4, {("c", (1, 0, 0)): 1})


class TestDerivative:
    """The ring kernel ``term_partial``, summed over a coefficient's terms."""

    def test_power_rule(self):
        x = POLY.var(0)
        assert kernel_partial(x * x, 0) == x.scale(2)

    def test_annihilates_independent_variable(self):
        f = random_poly(poly_ring(4), rng("indep"))
        padded = f.pad(5)
        assert kernel_partial(padded, 4).is_zero()

    def test_cos_derivative(self):
        theta = (1, 0, 0, 0)
        assert kernel_partial(trig_cos(TRIG, theta), 0) == -trig_sin(TRIG, theta)

    def test_leibniz_poly_200_random_pairs(self):
        r = rng("leibniz-poly")
        for _ in range(200):
            f = random_poly(POLY, r)
            g = random_poly(POLY, r)
            for var in range(4):
                left = kernel_partial(f * g, var)
                right = f * kernel_partial(g, var) + g * kernel_partial(f, var)
                assert left == right

    def test_leibniz_trig_200_random_pairs(self):
        r = rng("leibniz-trig")
        for _ in range(200):
            f = random_trig(TRIG, r)
            g = random_trig(TRIG, r)
            for var in range(4):
                left = kernel_partial(f * g, var)
                right = f * kernel_partial(g, var) + g * kernel_partial(f, var)
                assert left == right

    @given(polys(), st.integers(0, 3), st.integers(0, 3))
    def test_mixed_partials_commute_poly(self, f, i, j):
        assert kernel_partial(kernel_partial(f, i), j) == kernel_partial(kernel_partial(f, j), i)

    @settings(max_examples=40)
    @given(trigs(), st.integers(0, 3), st.integers(0, 3))
    def test_mixed_partials_commute_trig(self, f, i, j):
        assert kernel_partial(kernel_partial(f, i), j) == kernel_partial(kernel_partial(f, j), i)


class TestTermKernels:
    """Both kernels against references that never call them (see ``helpers``)."""

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), st.integers(0, 3))
    def test_poly_kernels(self, f, g, var):
        assert f * g == reference_product(f, g)
        assert kernel_partial(f, var) == reference_partial(f, var)

    @settings(max_examples=60, deadline=None)
    @given(trigs(), trigs(), st.integers(0, 3))
    def test_trig_kernels(self, f, g, var):
        assert f * g == reference_product(f, g)
        assert kernel_partial(f, var) == reference_partial(f, var)

    def test_trig_product_to_sum_cases(self):
        # equal modes (a difference of zero), a difference that leaves the
        # canonical half-space, and a constant factor on either side
        c, s = trig_cos(TRIG, (1, 0, 0, 0)), trig_sin(TRIG, (1, 0, 0, 0))
        c2, s2 = trig_cos(TRIG, (0, 1, 0, 0)), trig_sin(TRIG, (-1, 1, 0, 0))
        for f in (c, s, c2, s2, TRIG.const(3)):
            for g in (c, s, c2, s2, TRIG.const(Fraction(1, 2))):
                assert f * g == reference_product(f, g)


class TestEvaluate:
    def test_monomial(self):
        # x1 * y2 at (1, 2, 3, 4) with coordinate order (x1, y1, x2, y2)
        f = POLY.var(0) * POLY.var(3)
        assert f.evaluate([Fraction(1), Fraction(2), Fraction(3), Fraction(4)]) == 4

    def test_constant(self):
        assert POLY.const(7).evaluate([Fraction(0)] * 4) == 7

    def test_constructed_root(self):
        f = POLY.var(0) * POLY.var(0) - POLY.var(1)
        assert f.evaluate([Fraction(2), Fraction(4), Fraction(1), Fraction(1)]) == 0

    def test_wrong_point_length(self):
        with pytest.raises(InvalidAxisError):
            POLY.one().evaluate([Fraction(0)] * 3)


class TestMismatch:
    def test_cross_ring_product(self):
        with pytest.raises(RingMismatchError):
            POLY.one() * TRIG.one()

    def test_different_variable_counts(self):
        with pytest.raises(RingMismatchError):
            POLY.one() * poly_ring(3).one()

    def test_reality_enforced_at_construction(self):
        # e^{i x1} alone is not real: its mirror e^{-i x1} is missing
        one = {"num": "1", "den": "1"}
        zero = {"num": "0", "den": "1"}
        payload = {"ring": "trig", "nvars": 4, "terms": [{"freq": [1, 0, 0, 0], "re": one, "im": zero}]}
        with pytest.raises(RingMismatchError):
            coefficient_from_json(payload)

    @pytest.mark.parametrize(
        "freq", [[1.0, 0, 0, 0], [1, 0, 0], ["1", 0, 0, 0], [True, 0, 0, 0]],
        ids=["float", "short", "string", "bool"],
    )
    def test_non_integer_frequency_rejected(self, freq):
        zero = {"num": "0", "den": "1"}
        payload = {"ring": "trig", "nvars": 4, "terms": [{"freq": freq, "re": zero, "im": zero}]}
        with pytest.raises(RingMismatchError):
            coefficient_from_json(payload)


class TestSerialization:
    @given(polys())
    def test_poly_round_trip(self, f):
        assert coefficient_from_json(coefficient_to_json(f)) == f

    @settings(max_examples=40)
    @given(trigs())
    def test_trig_round_trip(self, f):
        assert coefficient_from_json(coefficient_to_json(f)) == f

    def test_documented_shape(self):
        f = POLY.var(0)
        payload = coefficient_to_json(f)
        assert payload["ring"] == "poly"
        assert payload["terms"] == [{"exp": [1, 0, 0, 0], "num": "1", "den": "1"}]
