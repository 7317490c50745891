"""Push-down machinery between a contact chart and its cs quotient.

The quotient projection forgets the transversal coordinate, so invariant
sections upstairs correspond to sections downstairs.  Four isomorphisms
identify the invariant parts of the H-form bundles (plain or twisted by
the annihilator line) with forms on the quotient; the twisted rows use the
pairing section of the transversal field, which makes the composites
independent of rescaling that field.

Three routes to the intrinsic complex on the quotient are implemented and
must agree matrix-for-matrix.  The first two build their complexes through
the one operator builder ``grading.operator_complex`` over the quotient's
class spaces and differ in their op and in the chart keeping its table:

* ``descend_complex`` conjugates the contact-chart operators by the
  descent identifications (``descend_rumin``), probed through the
  contact chart, which keeps its tables;
* ``rs_complex`` applies the same three-regime operator as the contact
  side (``rumin_apply``) to the quotient structure, which has no potential
  and no Lie term: primitive projection of d below the middle, the
  second-order middle operator via the bijective wedge, minus the twisted
  derivative above the middle;
* ``ss_fallback`` runs the generic representative-correction procedure on
  the total complex, treating ``total_differential`` as a black box.  Its
  cochains are the zig-zag's pairs (phi, psi): a k-form and the base form
  of a twisted (k-1)-form (None at degree 0), with differential
  (phi, psi) |-> (d phi + omega ^ psi, -d psi); ``cohomology`` assembles
  the total complex from the same pairs.

Since the first two routes share one operator, "descended equals
intrinsic" checks the descent identifications: promoting and restricting
payloads (with the transversal rescaling on twisted classes and the
rescaled structure form of the contact fiber), and that the potential
twist in dH and the Lie term drop out on lifted invariant payloads.
"Intrinsic equals fallback" checks the three-regime formula itself
against the independent generic zig-zag, which is assembled column by
column from solves, so it also checks both table expansions.

The line bundle is trivialized by the closed section omega (its generator
s unwedges to omega); the induced flat derivative on twisted forms is the
plain exterior derivative on the base factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .coefficients import Rational, canon
from .contact import ContactChart, HForm, standard_contact_chart
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
    exterior_derivative,
    interior_product,
    lie_derivative,
    promote_form,
    restrict_form,
    wedge,
    zero_form,
)
from .grading import Truncation, operator_complex
from .lefschetz import (
    CsChart,
    TwistedForm,
    is_primitive,
    lefschetz_L,
    standard_cs_chart,
)
from .linalg import OperatorMatrix
from .rumin import class_operator_order, generic_zigzag_matrix, rumin_apply


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
        if restrict_form(dbeta, self.cs.chart) != self.cs.omega:
            raise CsStructureError("d(beta) does not descend to the structure form")


def standard_pair(n: int, xi_scale: Rational = 1) -> ChartPair:
    return ChartPair(standard_contact_chart(n, xi_scale), standard_cs_chart(n))


# -- the descent isomorphisms ----------------------------------------------------


ROWS = ("h", "h0", "hq", "h0q", "ell", "ell0")


def iso_up(pair: ChartPair, obj, kind: str):
    """Identify a quotient-side object with an invariant contact-side one.

    Rows: ``h``/``h0`` take a (primitive) base form to its H-restriction
    class; ``hq``/``h0q`` take a base form phi to the honest form
    alpha ^ q*phi; ``ell``/``ell0`` take a twisted form (power one) through
    the pairing section of the transversal field, so the composite is
    unchanged when that field is rescaled.
    """
    cc, cs = pair.contact, pair.cs
    if kind not in ROWS:
        raise DegreeError(f"unknown isomorphism row {kind!r}")
    if kind in ("ell", "ell0"):
        if not isinstance(obj, TwistedForm) or obj.ell_power != 1:
            raise DegreeError("twisted rows take twist-power-one forms")
        payload = obj.base.scale(cc.xi_scale)  # pairing of the twist with d(alpha)
    else:
        if not isinstance(obj, DifferentialForm):
            raise DegreeError("untwisted rows take plain forms")
        payload = obj
    if kind in ("h0", "h0q", "ell0") and not is_primitive(cs.fiber, payload):
        raise NonPrimitiveError("row requires a primitive input")
    lifted = promote_form(payload, cc.chart)
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
    if kind not in ROWS:
        raise DegreeError(f"unknown isomorphism row {kind!r}")
    if kind in ("h", "h0"):
        if not isinstance(obj, HForm) or obj.q_power != 0:
            raise DegreeError("rows h/h0 invert H-restriction classes")
        if not lie_derivative(cc.xi, obj.form).is_zero():
            raise ReebInvarianceError("class is not invariant")
        out = restrict_form(obj.form, cs.chart)
    else:
        if not isinstance(obj, DifferentialForm):
            raise DegreeError("rows hq/h0q/ell/ell0 invert honest forms")
        if not lie_derivative(cc.xi, obj).is_zero():
            raise ReebInvarianceError("form is not invariant")
        inner = interior_product(cc.xi, obj)
        if obj != wedge(cc.alpha, inner):
            raise DegreeError("form does not vanish on the distribution")
        out = restrict_form(inner, cs.chart)
        if kind in ("ell", "ell0"):
            out = TwistedForm(out.scale(canon(Fraction(1, cc.xi_scale))), 1)
    base = out.base if isinstance(out, TwistedForm) else out
    if kind in ("h0", "h0q", "ell0") and not is_primitive(cs.fiber, base):
        raise NonPrimitiveError("row produced a non-primitive output")
    return out


# -- descending the contact-chart operators ---------------------------------------


def descend_rumin(pair: ChartPair, k: int, payload: DifferentialForm) -> DifferentialForm:
    """The descended degree-k operator on a quotient class payload.

    The payload is lifted to the contact chart, the contact-side operator
    is applied there and its image is restricted back down; twisted
    classes (degree above n) are scaled by the transversal field's factor
    on the way up and by its inverse on the way down.

    Promotion, restriction and the scalings are tensorial, and on a
    promoted (invariant) payload the potential term of dH and the Lie term
    vanish, so this operator has the intrinsic order 1, and 2 at the middle
    (Rumin 1994; Rumin and Seshadri 2012): ``descend_complex`` reads it off
    a Leibniz table of order ``class_operator_order(n, k)``.
    """
    n, scale = pair.cs.n, pair.contact.xi_scale
    lifted = promote_form(payload, pair.contact.chart)
    if k > n:
        lifted = lifted.scale(scale)
    image = restrict_form(rumin_apply(pair.contact.two_step, k, lifted), pair.cs.chart)
    if k + 1 > n:
        image = image.scale(canon(Fraction(1, scale)))
    return image


def descend_complex(pair: ChartPair, truncation: Truncation) -> list[OperatorMatrix]:
    """The descended operators over the quotient class bases, read off their Leibniz tables.

    They are kept on the contact chart, whose transversal scale the
    operator depends on, so two pairs over one cs chart share none.
    """
    return operator_complex(
        pair.contact,
        "descended",
        pair.cs.two_step.class_spaces(),
        partial(descend_rumin, pair),
        partial(class_operator_order, pair.cs.n),
        truncation,
    )


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
    return rumin_apply(cs.two_step, i, payload)


def rs_complex(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """The intrinsic operators over the class bases, read off their Leibniz tables."""
    return operator_complex(
        cs,
        "rs",
        cs.two_step.class_spaces(),
        partial(rs_apply, cs),
        partial(class_operator_order, cs.n),
        truncation,
    )


# -- the total complex ----------------------------------------------------------------


def total_differential(
    cs: CsChart, phi: DifferentialForm, psi: DifferentialForm | None
) -> tuple[DifferentialForm, DifferentialForm]:
    """(phi, psi) |-> (d phi + Omega ^ psi, -d^nabla psi) on degree-k pairs.

    A degree-k total cochain is a k-form ``phi`` and the base form ``psi``
    of a twisted (k-1)-form of power one; ``psi`` is None at degree 0,
    where the twisted slot is empty.  The image is a degree-(k+1) pair.
    """
    k = phi.degree
    if psi is not None and psi.degree != k - 1:
        raise DegreeError("twisted slot must have degree k-1 (and is empty at degree 0)")
    phi_out = exterior_derivative(phi)
    if psi is None or psi.is_zero():
        return phi_out, zero_form(cs.chart, k)
    twisted = TwistedForm(psi, 1)
    wedged = lefschetz_L(cs, twisted)
    if wedged.ell_power != 0:
        raise InternalConsistencyError("untwisting bookkeeping failed")
    return phi_out + wedged.base, -nabla_twisted_d(cs, twisted).base


def ss_fallback(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """Intrinsic operators recovered generically from the total complex.

    Uses the total differential as a black box inside the generic
    representative-correction procedure; the central cross-check is that
    this reproduces ``rs_complex`` matrix for matrix.
    """
    struct, pair_diff = cs.two_step, partial(total_differential, cs)
    return [
        generic_zigzag_matrix(struct, k, truncation, pair_differential=pair_diff)
        for k in range(2 * cs.n + 1)
    ]
