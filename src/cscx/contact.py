"""The standard contact chart model and its structure maps.

A contact chart is built from a cs potential beta (a one-form on the base
with nondegenerate differential) by adjoining a transversal coordinate t:
the contact form is alpha = (dt + beta), rescaled so that it pairs to one
with the chosen transversal field xi = xi_scale * d/dt.  The corank-one
distribution H = ker(alpha) is framed by X_v = d/dv - beta(d/dv) d/dt over
the base coordinates, and the line Q = TM/H is trivialized by xi (dually,
its annihilator by alpha) throughout.

Nondegeneracy is certified only by a nonzero constant top coefficient, on
both rings; the graded truncations need constant structure forms anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .coefficients import Coefficient, PolyCoefficient, Rational, canon
from .errors import (
    ContactConditionError,
    CsCompatibilityError,
    CsPotentialError,
    DegreeError,
    InternalConsistencyError,
)
from .forms import (
    Chart,
    DifferentialForm,
    LinearSubstitution,
    PolyVectorField,
    basis_form,
    bracket,
    contact_chart_over,
    coordinate_vector,
    exterior_derivative,
    horizontal_derivative,
    interior_product,
    promote_form,
    restrict_form,
    wedge,
    zero_form,
)
from .lefschetz import FiberCalculus, fiber_from_form
from .linalg import OperatorMatrix, SectionBasis


@dataclass(frozen=True)
class ContactChart:
    """Contactification of a cs chart: coordinates (x1, y1, ..., xn, yn, t).

    The chart owns what is derived from it, each built on first use: the
    ``fiber`` calculus of its structure form, its ``two_step`` block
    structure and ``tables``, the Leibniz table of each operator on the
    chart under ``(operator name, k)``.
    """

    n: int
    chart: Chart
    base: Chart
    beta: DifferentialForm  # promoted to the contact chart, dt-free
    alpha: DifferentialForm  # (dt + beta) / xi_scale
    xi: PolyVectorField  # xi_scale * d/dt
    xi_scale: Rational = 1
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def t_axis(self) -> int:
        return 2 * self.n

    def d_alpha(self) -> DifferentialForm:
        return exterior_derivative(self.alpha)

    def lef_form(self) -> DifferentialForm:
        """dt-free part of d(alpha): the structure two-form of the H-fibers."""
        return exterior_derivative(self.beta).scale(canon(Fraction(1, self.xi_scale)))

    @cached_property
    def fiber(self) -> FiberCalculus:
        return fiber_from_form(self.lef_form(), self.n)

    @cached_property
    def two_step(self):
        """The contact-side block structure, with the potential and the Lie term."""
        # the structure is defined above the charts, in rumin
        from .rumin import TwoStepStructure

        return TwoStepStructure(
            chart=self.chart,
            n=self.n,
            lef=self.lef_form(),
            fiber=self.fiber,
            beta=self.beta,
            lie_scale=self.xi_scale,
        )


def _nonvanishing(coeff: Coefficient) -> bool:
    """Nondegeneracy certificate: the coefficient is a nonzero constant."""
    return coeff.is_constant() and coeff.constant_part() != 0


def check_cs_potential(beta: DifferentialForm, n: int) -> None:
    """Require d(beta) nondegenerate: top power of d(beta) nonvanishing."""
    if beta.degree != 1:
        raise CsPotentialError("a cs potential is a one-form")
    dbeta = exterior_derivative(beta)
    top = dbeta
    for _ in range(n - 1):
        top = wedge(top, dbeta)
    base_axes = tuple(a for a in range(beta.chart.dim) if a != beta.chart.t_axis)
    key = tuple(base_axes[: 2 * n])
    coeff = top.coefficient(key)
    if not _nonvanishing(coeff):
        raise CsPotentialError(
            "not a cs potential: top power of d(beta) is not a nonzero constant"
        )


def contactify(
    n: int,
    beta: DifferentialForm,
    xi_scale: Rational = 1,
) -> ContactChart:
    """Build the contact chart over a cs potential.

    ``beta`` lives on the base chart (no transversal coordinate), is
    t-independent by construction and must have nondegenerate differential.
    """
    base = beta.chart
    if base.t_axis is not None:
        raise CsPotentialError("the potential lives on the base chart")
    if base.ring.kind != "poly":
        raise CsPotentialError(
            "no contact chart over the torus: d(beta) is exact for a Fourier potential, "
            "so the top power of d(beta) integrates to zero and is never a nonzero constant"
        )
    if base.dim != 2 * n:
        raise CsPotentialError(f"potential chart has dimension {base.dim}, expected {2 * n}")
    if n < 2:
        raise CsPotentialError("contact charts need n >= 2")
    check_cs_potential(beta, n)

    chart = contact_chart_over(base)
    promoted = promote_form(beta, chart)
    scale = canon(Fraction(xi_scale))
    if scale == 0:
        raise ContactConditionError("transversal field cannot vanish")
    dt = basis_form(chart, (chart.dim - 1,))
    alpha = (dt + promoted).scale(canon(Fraction(1, scale)))
    xi = coordinate_vector(chart, chart.dim - 1).scale(scale)
    cc = ContactChart(
        n=n, chart=chart, base=base, beta=promoted, alpha=alpha, xi=xi, xi_scale=scale
    )
    _check_contact_condition(cc)
    if not interior_product(cc.xi, cc.alpha).terms.get((), chart.zero_coeff()) == chart.one_coeff():
        raise InternalConsistencyError("alpha(xi) != 1")
    if not interior_product(cc.xi, cc.d_alpha()).is_zero():
        raise InternalConsistencyError("i_xi d(alpha) != 0")
    return cc


def volume_coefficient(cc: ContactChart) -> Coefficient:
    """The exact coefficient of alpha ^ (d alpha)^n on the top multi-index.

    The contact condition is certified when it is a nonzero constant, as it
    is for every potential with constant differential.
    """
    top = cc.alpha
    da = cc.d_alpha()
    for _ in range(cc.n):
        top = wedge(top, da)
    return top.coefficient(tuple(range(cc.dim)))


def _check_contact_condition(cc: ContactChart) -> None:
    """alpha ^ (d alpha)^n must have a nonzero constant top coefficient."""
    if not _nonvanishing(volume_coefficient(cc)):
        raise ContactConditionError(
            "alpha ^ (d alpha)^n is not a nonzero constant: not a contact form"
        )


def standard_contact_chart(n: int, xi_scale: Rational = 1) -> ContactChart:
    """alpha = dt + sum_i x_i dy_i on R^{2n+1} (up to the xi rescaling)."""
    from .forms import affine_cs_chart

    base = affine_cs_chart(n)
    beta = zero_form(base, 1)
    for i in range(n):
        beta = beta + basis_form(base, (2 * i + 1,)).times(base.coord_coeff(2 * i))
    return contactify(n, beta, xi_scale=xi_scale)


# -- frames and the Levi form --------------------------------------------------


def h_frame(cc: ContactChart) -> list[PolyVectorField]:
    """The frame X_v = d/dv - beta(d/dv) d/dt of H over the base coordinates."""
    frame = []
    for axis in range(2 * cc.n):
        X = coordinate_vector(cc.chart, axis)
        coeff = cc.beta.coefficient((axis,))
        if not coeff.is_zero():
            X = X + coordinate_vector(cc.chart, cc.t_axis, -coeff)
        frame.append(X)
    return frame


def _frame_matrix(cc: ContactChart, pairing) -> OperatorMatrix:
    """Matrix of the function pairing(X_i, X_j) at the origin, over the H-frame."""
    frame = h_frame(cc)
    origin = [0] * cc.chart.ring.nvars
    entries = {
        (i, j): pairing(X, Y).coefficient(()).evaluate(origin)
        for i, X in enumerate(frame)
        for j, Y in enumerate(frame)
        if i != j
    }
    # the labels carry a dummy block tag so SectionBasis helpers stay usable
    basis = SectionBasis(
        key=("h-frame", cc.chart.coords, "H"),
        labels=tuple((("H",), (axis,)) for axis in range(2 * cc.n)),
    )
    return OperatorMatrix(basis, basis, entries)


def levi_form(cc: ContactChart) -> OperatorMatrix:
    """Matrix of the Levi bracket on the H-frame, values in Q trivialized by xi.

    Entry (i, j) is alpha([X_i, X_j]) at the origin.  Its nondegeneracy is a
    verdict of ``cscx claims``.
    """
    return _frame_matrix(cc, lambda X, Y: interior_product(bracket(X, Y), cc.alpha))


def d_alpha_on_frame(cc: ContactChart) -> OperatorMatrix:
    """Matrix of d(alpha) on the H-frame; equals minus the Levi matrix."""
    da = cc.d_alpha()
    # i_Y i_X d(alpha) = d(alpha)(X, Y)
    return _frame_matrix(cc, lambda X, Y: interior_product(Y, interior_product(X, da)))


# -- the tensorial map and the cohomology bundles -------------------------------


def _fiber_basis(cc: ContactChart, k: int, q_power: int) -> SectionBasis:
    return SectionBasis(
        key=("h-fiber", cc.chart.coords, k, q_power),
        labels=tuple((("fiber",), (i,)) for i in range(cc.fiber.dim(k))),
    )


def partial_map(cc: ContactChart, k: int) -> OperatorMatrix:
    """The tensorial fiber map from (k-1)-H-forms twisted by Q* to (k+1)-H-forms.

    Realized as wedging with the structure two-form of the H-fibers (the
    normalization factor is fixed to one); injective for k <= n and
    surjective for k >= n.
    """
    if not 1 <= k <= 2 * cc.n:
        raise DegreeError("the tensorial map is defined for 1 <= k <= 2n")
    rows = _fiber_basis(cc, k + 1, 0)
    cols = _fiber_basis(cc, k - 1, -1)
    return OperatorMatrix(rows, cols, cc.fiber.wedge_map(k - 1))


@dataclass(frozen=True)
class HForm:
    """A section of an exterior power of H*, possibly twisted by Q*.

    Stored as a dt-free form on the contact chart; ``q_power`` is 0 for a
    plain H-form and -1 for the Q*-twist (the twist generator is alpha).
    """

    contact: ContactChart
    form: DifferentialForm
    q_power: int = 0

    def __post_init__(self) -> None:
        if self.q_power not in (0, -1):
            raise DegreeError("q_power must be 0 or -1")
        if self.form.uses_axis(self.contact.t_axis):
            raise DegreeError("H-forms are free of the transversal differential")


@dataclass(frozen=True)
class HBasis:
    """Explicit fiber basis of the cohomology bundle of the tensorial map."""

    k: int
    q_power: int
    elements: tuple[HForm, ...]

    @property
    def dim(self) -> int:
        return len(self.elements)


def h_cohomology_basis(cc: ContactChart, k: int) -> HBasis:
    """Fiber basis of ker/im of the tensorial map at degree k.

    Primitive multi-index combinations for k <= n; primitive (k-1)-forms
    with the Q* twist for k > n.
    """
    if not 0 <= k <= 2 * cc.n + 1:
        raise DegreeError("degree out of range")
    fib = cc.fiber
    if k <= cc.n:
        degree, q_power = k, 0
    else:
        degree, q_power = k - 1, -1
    vectors = fib.primitive_basis(degree)
    elements = []
    for vec in vectors:
        terms = {
            fib.indices(degree)[pos]: cc.chart.const(v) for pos, v in vec.items()
        }
        form = DifferentialForm(cc.chart, degree, terms, validated=True)
        elements.append(HForm(cc, form, q_power))
    return HBasis(k=k, q_power=q_power, elements=tuple(elements))


# -- lifting cs substitutions to contactomorphisms ------------------------------


@dataclass(frozen=True)
class LiftedMap:
    """A contact lift of a linear cs substitution, with its Reeb rescaling.

    ``substitution`` pulls forms on the source contact chart back to the
    target chart (the lift acts target -> source); ``scale`` is the factor
    lambda with pullback(alpha_src) = lambda * alpha_dst.
    """

    src: ContactChart
    dst: ContactChart
    substitution: LinearSubstitution
    scale: Rational
    shift: PolyCoefficient

    def pullback(self, omega: DifferentialForm) -> DifferentialForm:
        return self.substitution.pullback(omega)


def _integrate_closed_one_form(rhs: DifferentialForm) -> PolyCoefficient:
    """Exact potential of a closed polynomial one-form on the base chart."""
    if not horizontal_derivative(rhs).is_zero():
        raise InternalConsistencyError("right-hand side is not closed")
    chart = rhs.chart
    nvars = chart.ring.nvars
    total = PolyCoefficient(nvars, {})
    for (axis,), coeff in rhs.terms.items():
        for exp, q in coeff.terms.items():
            # homotopy formula: the monomial g dx_axis integrates to
            # g * x_axis / (|g| + 1)
            new = list(exp)
            new[axis] += 1
            degree = sum(exp)
            total = total + PolyCoefficient(
                nvars, {tuple(new): Fraction(q, degree + 1)}
            )
    return total


def lift_construction(
    chart_a: ContactChart,
    chart_b: ContactChart,
    matrix: list[list[Rational]],
) -> LiftedMap:
    """Lift a linear symplectic substitution between the base charts.

    ``matrix`` gives the pullback of the source base coordinates in terms
    of the target ones.  The substitution must intertwine the two structure
    forms up to a nonzero rational factor c; the lift then rescales t by
    lambda = c and shears it by the exact potential of lambda*beta_b -
    pullback(beta_a).  The returned map satisfies
    ``pullback(alpha_a) == lambda * alpha_b`` exactly.
    """
    if chart_a.n != chart_b.n:
        raise CsCompatibilityError("charts have different ranks")
    n = chart_a.n
    rows = tuple(tuple(canon(Fraction(v)) for v in row) for row in matrix)
    if len(rows) != 2 * n or any(len(r) != 2 * n for r in rows):
        raise CsCompatibilityError("substitution matrix has the wrong shape")

    base_sub = LinearSubstitution(src=chart_a.base, dst=chart_b.base, matrix=rows)
    beta_a = restrict_form(chart_a.beta, chart_a.base)
    beta_b = restrict_form(chart_b.beta, chart_b.base)
    scale = _form_ratio(
        base_sub.pullback(exterior_derivative(beta_a)), exterior_derivative(beta_b)
    )
    rhs = beta_b.scale(scale) - base_sub.pullback(beta_a)
    shift = _integrate_closed_one_form(rhs)

    full_sub = LinearSubstitution(
        src=chart_a.chart,
        dst=chart_b.chart,
        matrix=rows,
        t_scale=canon(Fraction(scale * chart_a.xi_scale, chart_b.xi_scale)),
        shift=shift.scale(chart_a.xi_scale),
    )
    lift = LiftedMap(
        src=chart_a, dst=chart_b, substitution=full_sub, scale=scale, shift=shift
    )
    check = lift.pullback(chart_a.alpha) - chart_b.alpha.scale(scale)
    if not check.is_zero():
        raise InternalConsistencyError("lift does not rescale the contact form")
    return lift


def _form_ratio(left: DifferentialForm, right: DifferentialForm) -> Rational:
    """The constant c with left = c * right, for constant-coefficient forms."""
    if right.is_zero():
        raise CsCompatibilityError("degenerate comparison form")
    key, coeff = next(iter(sorted(right.terms.items())))
    if not coeff.is_constant():
        raise CsCompatibilityError("comparison needs constant-coefficient forms")
    lcoeff = left.terms.get(key)
    if lcoeff is None or not lcoeff.is_constant():
        raise CsCompatibilityError("substitution is not cs-compatible")
    c = canon(Fraction(lcoeff.constant_part(), coeff.constant_part()))
    if c == 0 or not (left - right.scale(c)).is_zero():
        raise CsCompatibilityError("substitution is not cs-compatible")
    return c
