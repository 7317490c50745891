"""Push-down machinery between a contact chart and its cs quotient.

The quotient projection forgets the transversal coordinate, so invariant
sections upstairs correspond to sections downstairs.  Four isomorphisms
identify the invariant parts of the H-form bundles (plain or twisted by
the annihilator line) with forms on the quotient; the twisted rows use the
pairing section of the transversal field, which makes the composites
independent of rescaling that field.

Three routes to the intrinsic complex on the quotient are implemented and
must agree matrix-for-matrix:

* ``descend_rumin`` conjugates the contact-chart operators by the descent
  identifications;
* ``rs_operator`` applies the same three-regime operator as the contact
  side (``rumin_apply``) to the quotient structure, which has no potential
  and no Lie term: primitive projection of d below the middle, the
  second-order middle operator via the bijective wedge, minus the twisted
  derivative above the middle;
* ``ss_fallback`` runs the generic representative-correction procedure on
  the total complex (pairs (phi, psi) with differential
  (phi, psi) |-> (d phi + omega ^ psi, -d psi)), treating it as a black box.

Since the first two routes share one operator, "descended equals
intrinsic" checks the descent identifications: promoting and restricting
payloads (with the transversal rescaling on twisted classes and the
rescaled structure form of the contact fiber), and that the potential
twist in dH and the Lie term drop out on lifted invariant payloads.
"Intrinsic equals fallback" checks the three-regime formula itself
against the independent generic zig-zag.

The line bundle is trivialized by the closed section omega (its generator
s unwedges to omega); the induced flat derivative on twisted forms is the
plain exterior derivative on the base factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import PolyCoefficient
from .contact import ContactChart, HForm, contactify
from .errors import (
    ChartMismatchError,
    CsStructureError,
    DegreeError,
    InternalConsistencyError,
    NonPrimitiveError,
    ReebInvarianceError,
)
from .forms import (
    DifferentialForm,
    basis_form,
    exterior_derivative,
    interior_product,
    lie_derivative,
    wedge,
    zero_form,
)
from .grading import Truncation, assemble_operator, is_primitive
from .lefschetz import (
    CsChart,
    TwistedForm,
    lefschetz_L,
    standard_cs_chart,
)
from .linalg import OperatorMatrix
from .rumin import (
    TwoStepStructure,
    contact_two_step,
    generic_zigzag_matrix,
    rumin_apply,
)


def cs_two_step(cs: CsChart) -> TwoStepStructure:
    """The quotient-side block structure: no potential, no transversal flow.

    Built once per chart and kept on it, so all operator columns share it.
    """
    if "_two_step" not in vars(cs):
        struct = TwoStepStructure(chart=cs.chart, n=cs.n, lef=cs.omega)
        object.__setattr__(cs, "_two_step", struct)
    return cs._two_step


@dataclass(frozen=True)
class ChartPair:
    """A contact chart presented as a contactification of a cs chart."""

    contact: ContactChart
    cs: CsChart

    def __post_init__(self) -> None:
        if self.cs.model != "affine":
            raise CsStructureError("contactifications exist over the affine model only")
        if self.contact.base != self.cs.chart:
            raise ChartMismatchError("contact chart is not built over this cs chart")
        dbeta = exterior_derivative(self.contact.beta)
        if restrict_form(dbeta, self.cs) != self.cs.omega:
            raise CsStructureError("d(beta) does not descend to the structure form")


def standard_pair(n: int, xi_scale: Fraction | int = 1) -> ChartPair:
    cs = standard_cs_chart(n)
    beta = zero_form(cs.chart, 1)
    for i in range(n):
        beta = beta + basis_form(cs.chart, (2 * i + 1,)).times(cs.chart.coord_coeff(2 * i))
    return ChartPair(contact=contactify(n, beta, xi_scale=xi_scale), cs=cs)


def promote_form(omega: DifferentialForm, cc: ContactChart) -> DifferentialForm:
    """Pull a base form back along the projection (append the t variable)."""
    if omega.chart != cc.base:
        raise ChartMismatchError("form does not live on the base chart")
    terms = {}
    for key, coeff in omega.terms.items():
        if isinstance(coeff, PolyCoefficient):
            coeff = coeff.pad(cc.chart.ring.nvars)
        terms[key] = coeff
    return DifferentialForm(cc.chart, omega.degree, terms, validated=True)


def restrict_form(omega: DifferentialForm, cs: CsChart) -> DifferentialForm:
    """Push an invariant, dt-free form down to the base chart."""
    chart = omega.chart
    if chart.t_axis is None:
        if chart != cs.chart:
            raise ChartMismatchError("form does not match the cs chart")
        return omega
    if omega.uses_axis(chart.t_axis):
        raise ReebInvarianceError("form has a transversal component")
    terms = {}
    for key, coeff in omega.terms.items():
        if isinstance(coeff, PolyCoefficient):
            if any(exp[-1] for exp in coeff.terms):
                raise ReebInvarianceError("form depends on the transversal coordinate")
            coeff = coeff.restrict(cs.chart.ring.nvars)
        terms[key] = coeff
    return DifferentialForm(cs.chart, omega.degree, terms, validated=True)


# -- the descent isomorphisms ----------------------------------------------------


_ROWS = ("h", "h0", "hq", "h0q", "ell", "ell0")


def iso_up(pair: ChartPair, obj, kind: str):
    """Identify a quotient-side object with an invariant contact-side one.

    Rows: ``h``/``h0`` take a (primitive) base form to its H-restriction
    class; ``hq``/``h0q`` take a base form phi to the honest form
    alpha ^ q*phi; ``ell``/``ell0`` take a twisted form (power one) through
    the pairing section of the transversal field, so the composite is
    unchanged when that field is rescaled.
    """
    cc, cs = pair.contact, pair.cs
    if kind not in _ROWS:
        raise DegreeError(f"unknown isomorphism row {kind!r}")
    if kind in ("ell", "ell0"):
        if not isinstance(obj, TwistedForm) or obj.ell_power != 1:
            raise DegreeError("twisted rows take twist-power-one forms")
        payload = obj.base.scale(cc.xi_scale)  # pairing of the twist with d(alpha)
    else:
        if not isinstance(obj, DifferentialForm):
            raise DegreeError("untwisted rows take plain forms")
        payload = obj
    if kind in ("h0", "h0q", "ell0") and not is_primitive(cs.fiber(), payload):
        raise NonPrimitiveError("row requires a primitive input")
    lifted = promote_form(payload, cc)
    if kind in ("h", "h0"):
        _check_invariant(cc, lifted)
        return HForm(cc, lifted, 0)
    form = wedge(cc.alpha, lifted)
    _check_invariant(cc, form)
    return form


def _check_invariant(cc: ContactChart, omega: DifferentialForm) -> None:
    if not lie_derivative(cc.xi, omega).is_zero():
        raise InternalConsistencyError("descent image is not invariant")


def iso_down(pair: ChartPair, obj, kind: str):
    """Two-sided inverse of iso_up (exact round trip, invariance checked)."""
    cc, cs = pair.contact, pair.cs
    if kind not in _ROWS:
        raise DegreeError(f"unknown isomorphism row {kind!r}")
    if kind in ("h", "h0"):
        if not isinstance(obj, HForm) or obj.q_power != 0:
            raise DegreeError("rows h/h0 invert H-restriction classes")
        if not lie_derivative(cc.xi, obj.form).is_zero():
            raise ReebInvarianceError("class is not invariant")
        out = restrict_form(obj.form, cs)
    else:
        if not isinstance(obj, DifferentialForm):
            raise DegreeError("rows hq/h0q/ell/ell0 invert honest forms")
        if not lie_derivative(cc.xi, obj).is_zero():
            raise ReebInvarianceError("form is not invariant")
        inner = interior_product(cc.xi, obj)
        if obj != wedge(cc.alpha, inner):
            raise DegreeError("form does not vanish on the distribution")
        out = restrict_form(inner, cs)
        if kind in ("ell", "ell0"):
            out = TwistedForm(out.scale(1 / cc.xi_scale), 1)
    base = out.base if isinstance(out, TwistedForm) else out
    if kind in ("h0", "h0q", "ell0") and not is_primitive(cs.fiber(), base):
        raise NonPrimitiveError("row produced a non-primitive output")
    return out


# -- descending the contact-chart operators ---------------------------------------


def _descend_class_up(pair: ChartPair, k: int, payload: DifferentialForm) -> DifferentialForm:
    """Quotient class payload -> contact class payload (twisted rows scale)."""
    lifted = promote_form(payload, pair.contact)
    if k > pair.cs.n:
        return lifted.scale(pair.contact.xi_scale)
    return lifted


def _descend_class_down(pair: ChartPair, k: int, payload: DifferentialForm) -> DifferentialForm:
    out = restrict_form(payload, pair.cs)
    if k > pair.cs.n:
        return out.scale(1 / pair.contact.xi_scale)
    return out


def descend_rumin(pair: ChartPair, k: int, truncation: Truncation) -> OperatorMatrix:
    """Matrix of the descended degree-k operator over the quotient class bases."""
    up = contact_two_step(pair.contact)
    down = cs_two_step(pair.cs)
    domain = down.class_space(k)
    codomain = down.class_space(k + 1)

    def op(payload: DifferentialForm) -> DifferentialForm:
        lifted = _descend_class_up(pair, k, payload)
        image = rumin_apply(up, k, lifted)
        return _descend_class_down(pair, k + 1, image)

    return assemble_operator(domain, codomain, op, domain.basis(truncation), codomain.basis(truncation))


def descend_complex(pair: ChartPair, truncation: Truncation) -> list[OperatorMatrix]:
    return [descend_rumin(pair, k, truncation) for k in range(2 * pair.cs.n + 1)]


# -- the intrinsic operators on the quotient ---------------------------------------


def nabla_twisted_d(cs: CsChart, psi: TwistedForm) -> TwistedForm:
    """Twisted de Rham differential for the flat connection fixed by omega.

    The chosen closed section is parallel, so the derivative acts on the
    base factor alone; flatness holds on the nose.
    """
    if psi.base.chart != cs.chart:
        raise ChartMismatchError("twisted form does not live on this chart")
    return TwistedForm(exterior_derivative(psi.base), psi.ell_power)


def rs_apply(cs: CsChart, i: int, payload: DifferentialForm) -> DifferentialForm:
    """The intrinsic degree-i operator on class payloads.

    The shared three-regime operator applied to the quotient structure:
    with no potential and no Lie term it is the primitive projection of d
    below the middle, -d of the solution of omega ^ psi = d(payload) at the
    middle, and -d(payload) of a primitive payload above the middle.
    """
    return rumin_apply(cs_two_step(cs), i, payload)


def rs_operator(cs: CsChart, i: int, truncation: Truncation) -> OperatorMatrix:
    """Matrix of the intrinsic degree-i operator over the class bases."""
    struct = cs_two_step(cs)
    domain = struct.class_space(i)
    codomain = struct.class_space(i + 1)
    return assemble_operator(
        domain,
        codomain,
        lambda form: rs_apply(cs, i, form),
        domain.basis(truncation),
        codomain.basis(truncation),
    )


def rs_complex(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    return [rs_operator(cs, i, truncation) for i in range(2 * cs.n + 1)]


# -- the total complex ----------------------------------------------------------------


@dataclass(frozen=True)
class TotalElement:
    """Element of the sum complex: a k-form plus a twisted (k-1)-form."""

    cs: CsChart
    degree: int
    phi: DifferentialForm
    psi: TwistedForm | None

    def __post_init__(self) -> None:
        if self.phi.degree != self.degree:
            raise DegreeError("untwisted slot has the wrong degree")
        if self.degree == 0:
            if self.psi is not None and not self.psi.is_zero():
                raise DegreeError("degree zero has an empty twisted slot")
        elif self.psi is not None:
            if self.psi.ell_power != 1 or self.psi.degree != self.degree - 1:
                raise DegreeError("twisted slot must have degree k-1 and power one")

    def is_zero(self) -> bool:
        return self.phi.is_zero() and (self.psi is None or self.psi.is_zero())


def total_element(cs: CsChart, phi: DifferentialForm, psi: TwistedForm | None) -> TotalElement:
    return TotalElement(cs=cs, degree=phi.degree, phi=phi, psi=psi)


def total_differential(e: TotalElement) -> TotalElement:
    """(phi, psi) |-> (d phi + Omega ^ psi, -d^nabla psi)."""
    cs = e.cs
    phi_out = exterior_derivative(e.phi)
    if e.psi is not None and not e.psi.is_zero():
        wedged = lefschetz_L(cs, e.psi)
        if wedged.ell_power != 0:
            raise InternalConsistencyError("untwisting bookkeeping failed")
        phi_out = phi_out + wedged.base
        psi_out = -nabla_twisted_d(cs, e.psi)
    else:
        psi_out = TwistedForm(zero_form(cs.chart, e.degree), 1)
    return TotalElement(cs=cs, degree=e.degree + 1, phi=phi_out, psi=psi_out)


def ss_fallback(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """Intrinsic operators recovered generically from the total complex.

    Uses the total differential as a black box inside the generic
    representative-correction procedure; the central cross-check is that
    this reproduces ``rs_operator`` matrix for matrix.
    """
    struct = cs_two_step(cs)

    def pair_diff(phi: DifferentialForm, psi: DifferentialForm | None):
        twisted = None if psi is None else TwistedForm(psi, 1)
        out = total_differential(total_element(cs, phi, twisted))
        psi_out = out.psi.base if out.psi is not None else zero_form(cs.chart, out.degree - 1)
        return out.phi, psi_out

    return [
        generic_zigzag_matrix(struct, k, truncation, pair_differential=pair_diff)
        for k in range(2 * cs.n + 1)
    ]
