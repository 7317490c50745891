"""The Rumin complex of a contact chart via the two-step filtered de Rham complex.

Splitting every k-form as phi + alpha ^ psi with phi, psi free of the
transversal differential, the exterior derivative acts in block form as

    d(phi, psi) = (dH phi + L psi,  Lie phi - dH psi)

where L wedges with the structure two-form of the H-fibers, dH is the
horizontal derivative twisted by the potential, and Lie differentiates
along the transversal field.  The filtration by algebraic weight makes L
the tensorial graded differential; its cohomology in degree k is the
primitive bundle at degree k (for k <= n) or at degree k-1 with a twist
(for k > n), and the induced operators on sections form the complex built
here.

One correction pass suffices: below the middle degree the induced class is
independent of the lift, at the middle degree the lift is corrected by the
unique solution of an exact linear system (the fiber map L is bijective
there), and above the middle no correction exists.  Twisted classes are
read through the quotient-complex identification -- the one under which
the induced differential on the twisted slot is minus the twisted de Rham
differential -- so the descended operators match the intrinsic formulas on
the quotient with no further sign bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .coefficients import Rational
from .contact import ContactChart
from .errors import (
    DegreeError,
    InternalConsistencyError,
    NonPrimitiveError,
)
from .forms import (
    Chart,
    DifferentialForm,
    horizontal_derivative,
    t_derivative,
    wedge,
    zero_form,
)
from .grading import GradedSpace, Truncation, assemble_operator, operator_complex
from .lefschetz import FiberCalculus, FiberMap, fiber_apply, is_primitive
from .linalg import OperatorMatrix, sparse_rref
from .symbols import LeibnizTable


@dataclass(frozen=True)
class TwoStepStructure:
    """Block data of a two-step filtered de Rham complex over one chart.

    The contact side has ``beta`` and a nonzero ``lie_scale``; the cs side
    of the quotient has neither (its pair differential is the total
    differential of the twisted sum complex).  Each chart builds its one
    structure (``CsChart.two_step``, ``ContactChart.two_step``) and hands it
    the chart's own ``fiber``, the fiber calculus of ``lef``.
    """

    chart: Chart
    n: int
    lef: DifferentialForm  # constant structure two-form on the base axes
    fiber: FiberCalculus = field(repr=False, compare=False)
    beta: DifferentialForm | None = None
    lie_scale: Rational = 0

    def dH(self, omega: DifferentialForm) -> DifferentialForm:
        """Horizontal derivative: d in base directions, twisted by the potential."""
        out = horizontal_derivative(omega)
        if self.beta is not None and self.chart.t_axis is not None:
            rate = t_derivative(omega)
            if not rate.is_zero():
                out = out - wedge(self.beta, rate)
        return out

    def lie(self, omega: DifferentialForm) -> DifferentialForm:
        if self.lie_scale == 0 or self.chart.t_axis is None:
            return zero_form(self.chart, omega.degree)
        return t_derivative(omega, self.lie_scale)

    def L(self, omega: DifferentialForm) -> DifferentialForm:
        return wedge(self.lef, omega)

    def pair_differential(
        self, phi: DifferentialForm, psi: DifferentialForm | None
    ) -> tuple[DifferentialForm, DifferentialForm]:
        """The exterior derivative in block form on (phi, psi) pairs.

        ``psi`` is the payload of the filtered slot (one degree below phi);
        None stands for the empty slot at the bottom degree.
        """
        a_part = self.dH(phi)
        b_part = self.lie(phi)
        if psi is not None:
            a_part = a_part + self.L(psi)
            b_part = b_part - self.dH(psi)
        return a_part, b_part

    # -- class spaces -----------------------------------------------------------

    def class_degree(self, k: int) -> tuple[int, int]:
        """(payload form degree, twist weight offset) of the degree-k classes."""
        if k <= self.n:
            return k, 0
        return k - 1, 2

    def class_space(self, k: int) -> GradedSpace:
        if not 0 <= k <= 2 * self.n + 1:
            raise DegreeError(f"class degree {k} out of range")
        degree, offset = self.class_degree(k)
        return GradedSpace(
            self.chart, degree, weight_offset=offset, fiber=self.fiber, tag="class"
        )

    def class_spaces(self) -> list[GradedSpace]:
        """The class spaces of degrees 0, ..., 2n+1, the nodes of the complex."""
        return [self.class_space(k) for k in range(2 * self.n + 2)]

    def full_space(self, degree: int, offset: int = 0) -> GradedSpace:
        return GradedSpace(self.chart, degree, weight_offset=offset, tag="full")


def _middle_inverse(fib: FiberCalculus) -> FiberMap:
    """Inverse of the bijective fiber map L at degree n-1 -> n+1 (cached on the fiber)."""
    return fib.middle_inverse()


# -- the operator -------------------------------------------------------------


def rumin_apply(struct: TwoStepStructure, k: int, payload: DifferentialForm) -> DifferentialForm:
    """Degree-k operator of the complex on a class payload.

    Below the middle degree: primitive projection of the horizontal
    derivative (lift-independent, so the canonical zero correction is
    used).  At the middle degree: the correction is the unique solution c
    of  L c = -dH(payload)  and the class of the corrected derivative is
    -Lie(payload) + dH(c).  Above the middle: -dH(payload) of a primitive
    payload, which is automatically primitive.  On the cs quotient
    (no potential, no Lie term) these are the intrinsic formulas.
    """
    n = struct.n
    fib = struct.fiber
    if k < n:
        image = struct.dH(payload)
        return fiber_apply(fib, fib.pi0_map(k + 1), image, k + 1)
    if k == n:
        target = -struct.dH(payload)
        correction = fiber_apply(fib, _middle_inverse(fib), target, n - 1)
        if struct.L(correction) != target:
            raise InternalConsistencyError("middle correction failed to cancel")
        out = struct.dH(correction) - struct.lie(payload)
    else:
        _assert_primitive(fib, payload)
        out = -struct.dH(payload)
    # the class is primitive on the nose; the projection is a checked no-op
    if not is_primitive(fib, out):
        raise InternalConsistencyError("twisted class left the primitive subspace")
    return out


def _assert_primitive(fib: FiberCalculus, payload: DifferentialForm) -> None:
    if not is_primitive(fib, payload):
        raise NonPrimitiveError("class payload is not primitive")


def class_operator_order(n: int, k: int) -> int:
    """Differential order of the degree-k operator: 2 at the middle degree, 1 elsewhere.

    Below the middle the operator is the primitive projection of dH, above
    it -dH: one derivative between constant fiber maps.  At the middle it is
    dH after the constant middle inverse after dH, plus the Lie term: two
    derivatives.  Criterion 8 checks these against ``operator_order``, whose
    table of order ``_MAX_ORDER`` = 3 reads each order, exact for orders up
    to 3.
    """
    return 2 if k == n else 1


def rumin_complex(cc: ContactChart, truncation: Truncation) -> list[OperatorMatrix]:
    """All operators D_0, ..., D_2n of the truncated complex."""
    struct = cc.two_step
    return operator_complex(
        cc,
        "rumin",
        struct.class_spaces(),
        partial(rumin_apply, struct),
        partial(class_operator_order, cc.n),
        truncation,
    )


# -- operator order by probe differences ----------------------------------------


# the probe bound R of operator_order: rumin_apply differentiates at most
# twice (dH after dH at the middle degree, through constant fiber maps), and
# one more probe degree reads an order raised by one exactly
_MAX_ORDER = 3


def operator_order(struct: TwoStepStructure, k: int) -> LeibnizTable:
    """The order-measuring table of the degree-k operator, exact up to ``_MAX_ORDER``.

    Builds one fresh ``LeibnizTable`` of the operator at order R =
    ``_MAX_ORDER`` (not the chart's, so the measurement does not lean on
    ``class_operator_order``); its ``measured_order()`` is the largest probe
    |b| with a nonzero difference, x^(-b) (ad^b L)(v).  Write L = sum
    a_alpha(x) d^alpha with polynomial matrix coefficients.  On a constant
    fiber section v only the term alpha = b of ad^b L survives, so the probe
    b is nonzero exactly when a_b is: the table reads the largest
    |alpha| <= R with a_alpha != 0.  For an operator of order r <= R this
    is r: ad^b L = 0 whenever |b| > r, and for some |b| = r, ad^b L is a
    nonzero order-0 operator, which is nonzero on a section of the constant
    primitive frame.  An order above R, or a code path that is not a
    differential operator (a branch on the exponent, say), escapes the
    table; the direct column checks of the assembly stay for that.  Its
    ``prefix(r)`` is the order-r table, which ``rumin verify`` assembles its
    complex from; nothing here keeps the table on the chart.
    """
    if struct.chart.ring.kind != "poly":
        raise DegreeError("the order test multiplies by coordinates (poly ring only)")
    return LeibnizTable(
        struct.class_space(k), struct.class_space(k + 1), partial(rumin_apply, struct, k), _MAX_ORDER
    )


# -- transporting classes along a lifted substitution ----------------------------


def class_transport(lift, k: int, payload: DifferentialForm) -> DifferentialForm:
    """Push a degree-k class payload through a lifted contact substitution.

    The pullback preserves the distribution and rescales the contact form,
    so primitive payloads stay primitive; twisted payloads pick up one
    factor of the rescaling constant (their representative carries the
    contact form once).
    """
    src: ContactChart = lift.src
    dst: ContactChart = lift.dst
    pulled = lift.pullback(payload)
    if k > src.n:
        pulled = pulled.scale(lift.scale)
    _assert_primitive(dst.fiber, pulled)
    return pulled


# -- generic zig-zag (representative-correction) path ---------------------------


PairDifferential = Callable[
    [DifferentialForm, "DifferentialForm | None"],
    tuple[DifferentialForm, DifferentialForm],
]


def generic_zigzag_matrix(
    struct: TwoStepStructure,
    k: int,
    truncation: Truncation,
    pair_differential: PairDifferential | None = None,
) -> OperatorMatrix:
    """Degree-k operator computed by the generic representative correction.

    Works directly on (phi, psi) pairs through the supplied pair
    differential (default: the structure's own block form of d).  Class
    projections and the middle-degree correction are solved against
    assembled graded bases, each system eliminated once.  Only the class
    bases and ``assemble_operator``, the loop that reads an op off basis
    sections, are shared with the closed-form path, so the two routes
    produce directly comparable matrices.
    """
    n = struct.n
    diff = pair_differential or struct.pair_differential
    domain = struct.class_space(k)
    codomain = struct.class_space(k + 1)
    domain_basis = domain.basis(truncation)
    codomain_basis = codomain.basis(truncation)

    if k <= n:
        # graded differential out of the filtered slot at this degree:
        # payloads of degree k-1 (twist weight 2) map into full (k+1)-forms
        a_next = struct.full_space(k + 1)
        a_next_basis = a_next.basis(truncation)
        b_slot = struct.full_space(k - 1, offset=2)
        b_slot_basis = b_slot.basis(truncation)

        def e0(psi: DifferentialForm) -> DifferentialForm:
            return diff(zero_form(struct.chart, k), psi)[0]

        e0_entries = assemble_operator(b_slot, a_next, e0, b_slot_basis, a_next_basis).entries

    if k < n:
        # augmented system [class embedding | graded image] for the projection
        augmented = assemble_operator(
            codomain, a_next, lambda form: form, codomain_basis, a_next_basis
        ).entries
        p_dim = codomain_basis.dim
        for (r, c), v in e0_entries.items():
            augmented[(r, c + p_dim)] = v
        projection = sparse_rref(augmented, p_dim + b_slot_basis.dim)
    else:
        # class extraction above the middle: solve against the embedding alone
        b_next = struct.full_space(k, offset=2)
        b_next_basis = b_next.basis(truncation)
        emb_b = assemble_operator(
            codomain, b_next, lambda form: form, codomain_basis, b_next_basis
        ).entries
        extraction = sparse_rref(emb_b, codomain_basis.dim)
    if k == n:
        correction_system = sparse_rref(e0_entries, b_slot_basis.dim)

    entries: dict[tuple[int, int], Rational] = {}
    for col, label in enumerate(domain_basis.labels):
        e = domain.element(label)
        if k <= n:
            psi0 = None if k == 0 else zero_form(struct.chart, k - 1)
            a_out, b_out = diff(e, psi0)
        else:
            a_out, b_out = diff(zero_form(struct.chart, k), -e)
            if not a_out.is_zero():
                raise InternalConsistencyError("primitive class left the filtration")
        if k < n:
            rhs = a_next.vector(a_out, a_next_basis)
            solution = projection.coords(rhs)
            if solution is None:
                raise InternalConsistencyError("graded projection system is unsolvable")
            for pos, q in solution.items():
                if pos < p_dim:
                    entries[(pos, col)] = q
            continue
        if k == n:
            rhs = a_next.vector(-a_out, a_next_basis)
            solution = correction_system.coords(rhs)
            if solution is None:
                raise InternalConsistencyError("middle correction system is unsolvable")
            correction = zero_form(struct.chart, n - 1)
            for pos, q in solution.items():
                correction = correction + b_slot.element(b_slot_basis.labels[pos]).scale(q)
            a_fixed, b_fixed = diff(e, correction)
            if not a_fixed.is_zero():
                raise InternalConsistencyError("corrected representative is not clean")
            image = -b_fixed
        else:
            image = -b_out
        if image.is_zero():
            continue
        target = b_next.vector(image, b_next_basis)
        coords = extraction.coords(target)
        if coords is None:
            raise NonPrimitiveError("zig-zag output left the class subspace")
        for pos, q in coords.items():
            entries[(pos, col)] = q
    return OperatorMatrix(codomain_basis, domain_basis, entries)
