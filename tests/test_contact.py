from fractions import Fraction
from math import comb

import pytest

from cscx.claims import _substitutions
from cscx.coefficients import PolyCoefficient
from cscx.contact import (
    contactify,
    d_alpha_on_frame,
    h_cohomology_basis,
    h_frame,
    levi_form,
    lift_construction,
    partial_map,
    standard_contact_chart,
)
from cscx.errors import (
    ContactConditionError,
    CsCompatibilityError,
    CsPotentialError,
)
from cscx.forms import (
    affine_cs_chart,
    basis_form,
    bracket,
    exterior_derivative,
    function_form,
    interior_product,
    torus_cs_chart,
    wedge,
    zero_form,
)
from helpers import coefficients_of, random_form, reference_pullback, rng, trig_cos, trig_sin


def _standard_beta(n):
    base = affine_cs_chart(n)
    beta = zero_form(base, 1)
    for i in range(n):
        beta = beta + basis_form(base, (2 * i + 1,)).times(base.coord_coeff(2 * i))
    return base, beta


class TestLeviForm:
    def test_standard_values(self, contact2):
        levi = levi_form(contact2)
        expected = {}
        for i in range(2):
            expected[(2 * i, 2 * i + 1)] = Fraction(-1)
            expected[(2 * i + 1, 2 * i)] = Fraction(1)
        assert levi.entries == expected

    def test_frame_pairing_with_d_alpha(self, contact2):
        frame_matrix = d_alpha_on_frame(contact2)
        expected = {}
        for i in range(2):
            expected[(2 * i, 2 * i + 1)] = Fraction(1)
            expected[(2 * i + 1, 2 * i)] = Fraction(-1)
        assert frame_matrix.entries == expected

    def test_levi_is_minus_d_alpha(self, contact2, contact3):
        for cc in (contact2, contact3):
            levi = levi_form(cc)
            da = d_alpha_on_frame(cc)
            assert set(levi.entries) == set(da.entries)
            assert all(levi.entries[k] == -da.entries[k] for k in da.entries)

    def test_antisymmetry(self, contact2):
        levi = levi_form(contact2)
        for (i, j), v in levi.entries.items():
            assert levi.entries.get((j, i)) == -v

    def test_bracket_oracle(self, contact2):
        # recompute one entry with the raw bracket of frame fields
        frame = h_frame(contact2)
        lie = bracket(frame[0], frame[1])
        value = interior_product(lie, contact2.alpha)
        assert value == function_form(contact2.chart, contact2.chart.ring.const(-1))


class TestPartialMap:
    def test_generator_image(self, contact2):
        pm = partial_map(contact2, 1)
        assert pm.shape == (6, 1)
        assert pm.entries == {(0, 0): Fraction(1), (5, 0): Fraction(1)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_injective_then_surjective(self, n):
        cc = standard_contact_chart(n)
        for k in range(1, 2 * n + 1):
            matrix = partial_map(cc, k)
            rank = matrix.rank()
            if k <= n:
                assert rank == comb(2 * n, k - 1), f"k={k}: expected full column rank"
            if k >= n:
                assert rank == comb(2 * n, k + 1), f"k={k}: expected full row rank"


class TestCohomologyBundles:
    def test_dims_n2(self, contact2):
        dims = [h_cohomology_basis(contact2, k).dim for k in range(6)]
        assert dims == [1, 4, 5, 5, 4, 1]

    def test_dims_n3(self, contact3):
        dims = [h_cohomology_basis(contact3, k).dim for k in range(8)]
        assert dims == [1, 6, 14, 14, 14, 14, 6, 1]

    def test_degree_zero_is_constants(self, contact2):
        basis = h_cohomology_basis(contact2, 0)
        assert basis.dim == 1
        assert basis.elements[0].form == function_form(
            contact2.chart, contact2.chart.one_coeff()
        )

    def test_disjoint_pair_is_primitive(self, contact2):
        basis = h_cohomology_basis(contact2, 2)
        target = basis_form(contact2.chart, (0, 2))  # dx1 ^ dx2
        fib = contact2.fiber
        vec = {fib.positions(2)[key]: coeff.constant_part() for key, coeff in coefficients_of(target).items()}
        # insertion of the inverse bivector annihilates it
        assert not fib.insertion_map(2).apply(vec)
        # and it lies in the primitive span
        fib.primitive_coords(2, vec)

    def test_formula_for_low_degrees(self, contact3):
        for k in range(0, 4):
            assert h_cohomology_basis(contact3, k).dim == comb(6, k) - (
                comb(6, k - 2) if k >= 2 else 0
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_sequence_ranks(self, n):
        # k-forms split into H-forms of degree k and Q*-twisted ones of degree k-1
        fib = standard_contact_chart(n).fiber
        for k in range(1, 2 * n + 1):
            assert comb(2 * n + 1, k) == fib.dim(k) + fib.dim(k - 1)


class TestContactify:
    def test_standard_volume_coefficient(self, contact2):
        top = contact2.alpha
        da = contact2.d_alpha()
        for _ in range(2):
            top = wedge(top, da)
        assert top == basis_form(contact2.chart, (0, 1, 2, 3, 4), contact2.chart.ring.const(2))

    def test_symmetric_potential(self):
        base = affine_cs_chart(2)
        beta = zero_form(base, 1)
        half = Fraction(1, 2)
        for i in range(2):
            x, y = base.coord_coeff(2 * i), base.coord_coeff(2 * i + 1)
            beta = beta + basis_form(base, (2 * i + 1,)).times(x).scale(half)
            beta = beta - basis_form(base, (2 * i,)).times(y).scale(half)
        cc = contactify(2, beta)
        assert exterior_derivative(cc.beta) == basis_form(cc.chart, (0, 1)) + basis_form(
            cc.chart, (2, 3)
        )

    def test_degenerate_potential_rejected(self):
        base = affine_cs_chart(2)
        beta = basis_form(base, (1,)).times(base.coord_coeff(0))  # x1 dy1 only
        with pytest.raises(CsPotentialError, match="not a cs potential"):
            contactify(2, beta)

    def test_nonconstant_top_power_rejected(self):
        base = affine_cs_chart(2)
        x1, x2 = base.coord_coeff(0), base.coord_coeff(2)
        # x1^2 dy1 + x2 dy2: d(beta) degenerates on x1 = 0
        squared = basis_form(base, (1,)).times(x1 * x1) + basis_form(base, (3,)).times(x2)
        # top power 2 (1 + x1): nonzero at the origin, degenerate on x1 = -1
        shifted = basis_form(base, (1,)).times(x1 + (x1 * x1).scale(Fraction(1, 2)))
        shifted = shifted + basis_form(base, (3,)).times(x2)
        for beta in (squared, shifted):
            with pytest.raises(CsPotentialError, match="not a cs potential"):
                contactify(2, beta)

    def test_torus_base_rejected(self):
        # a Fourier potential has exact d(beta), so (d beta)^2 integrates to zero
        base = torus_cs_chart(2)
        beta = basis_form(base, (1,)).times(trig_sin(base.ring, (1, 0, 0, 0)))
        beta = beta + basis_form(base, (3,)).times(trig_cos(base.ring, (0, 1, 1, 0)))
        with pytest.raises(CsPotentialError, match="no contact chart over the torus"):
            contactify(2, beta)

    def test_zero_transversal_scale_rejected(self):
        base, beta = _standard_beta(2)
        with pytest.raises(ContactConditionError):
            contactify(2, beta, xi_scale=0)

    def test_small_rank_rejected(self):
        base = affine_cs_chart(2)
        beta = zero_form(base, 1)
        with pytest.raises(CsPotentialError):
            contactify(1, basis_form(affine_cs_chart(2), (1,)))


class TestLiftConstruction:
    def test_scaling_example(self):
        A = standard_contact_chart(2)
        B = standard_contact_chart(2)
        M = [[Fraction(0)] * 4 for _ in range(4)]
        for i, v in enumerate((2, 1, 2, 1)):
            M[i][i] = Fraction(v)
        lift = lift_construction(A, B, M)
        assert lift.scale == 2
        assert lift.shift.is_zero()
        assert lift.pullback(A.alpha) == B.alpha.scale(2)

    def test_block_swap_example(self):
        A = standard_contact_chart(2)
        B = standard_contact_chart(2)
        M = [[Fraction(0)] * 4 for _ in range(4)]
        M[0][2] = M[1][3] = M[2][0] = M[3][1] = Fraction(1)
        lift = lift_construction(A, B, M)
        assert lift.scale == 1
        assert lift.shift.is_zero()

    def test_shear_example(self):
        base, beta = _standard_beta(2)
        g = base.coord_coeff(0) * base.coord_coeff(1)
        beta_shifted = beta + exterior_derivative(function_form(base, g))
        A = contactify(2, beta_shifted)
        B = contactify(2, beta)
        identity = [
            [Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)
        ]
        lift = lift_construction(A, B, identity)
        assert lift.scale == 1
        assert lift.shift == -g

    def test_exact_rescaling_of_both_forms(self):
        r = rng("lift-exact")
        A = standard_contact_chart(2)
        B = standard_contact_chart(2)
        M = [[Fraction(0)] * 4 for _ in range(4)]
        s = Fraction(3)
        for i, v in enumerate((s, 1, s, 1)):
            M[i][i] = Fraction(v)
        lift = lift_construction(A, B, M)
        assert lift.pullback(A.alpha) == B.alpha.scale(lift.scale)
        assert lift.pullback(A.d_alpha()) == B.d_alpha().scale(lift.scale)

    @pytest.mark.parametrize("degree", range(4))
    def test_pullback_matches_the_coefficient_reference(self, degree):
        # the lift of each claims substitution, on random polynomial forms of
        # the n = 2 contact chart, against the composition of coefficients
        cc = standard_contact_chart(2)
        for name, src, matrix, _ in _substitutions(cc):
            lift = lift_construction(src, cc, matrix)
            r = rng("pullback", name, degree)
            for _ in range(4):
                omega = random_form(src.chart, degree, r)
                assert lift.pullback(omega) == reference_pullback(lift.substitution, omega), name

    def test_repeated_pullback_builds_no_coefficient(self, monkeypatch):
        cc = standard_contact_chart(2)
        _, src, matrix, _ = _substitutions(cc)[2]
        lift = lift_construction(src, cc, matrix)
        omega = random_form(src.chart, 2, rng("pullback-count"))
        first = lift.pullback(omega)
        built = []
        init = PolyCoefficient.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PolyCoefficient, "__init__", counting)
        assert lift.pullback(omega) == first
        assert built == []

    def test_incompatible_substitution(self):
        A = standard_contact_chart(2)
        B = standard_contact_chart(2)
        M = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        M[0][0] = Fraction(2)  # scales one block only
        with pytest.raises(CsCompatibilityError):
            lift_construction(A, B, M)
