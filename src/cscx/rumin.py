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

The generic zig-zag (``generic_zigzag_matrix``) reaches the same operators
without these formulas, by solves over two assembled matrices of a
black-box pair differential on the pairs of ``grading.PairSpace``.
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
from .grading import GradedSpace, PairSpace, Truncation, assemble_operator, operator_complex
from .lefschetz import FiberCalculus, FiberMap, fiber_apply, is_primitive
from .linalg import Echelon, OperatorMatrix, sparse_rref
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

    The pair differential D (default: the structure's block form of d) is a
    black box, applied once per basis section by ``assemble_operator`` into
    ``grading.PairSpace(k + 1)``: X = D after lifting a class e (to (e, 0)
    up to the middle degree, to (0, -e) above it) and, up to the middle,
    B = D(0, .) on the twisted slot of degree k.  Solves, each system
    eliminated once, finish it: below the middle, project the form rows X_a
    against [class embedding | B_a]; at the middle, add B C with
    B_a C = -X_a; from the middle on, X_a must vanish and -X is extracted
    from the twisted slot.  A failed check raises ``InternalConsistencyError``
    naming the degree and the first domain label that fails it.
    """
    n, chart = struct.n, struct.chart
    diff = pair_differential or struct.pair_differential
    domain, codomain = struct.class_space(k), struct.class_space(k + 1)
    domain_basis, codomain_basis = domain.basis(truncation), codomain.basis(truncation)
    pairs = PairSpace(chart, k + 1)
    pair_basis = pairs.basis(truncation)
    a_dim = pairs.a.basis(truncation).dim
    zero = partial(zero_form, chart)

    def assemble(space, op, basis) -> dict[tuple[int, int], Rational]:
        # an image leaving the truncation is a fault of D, not bad input
        try:
            return assemble_operator(space, pairs, op, basis, pair_basis).entries
        except NonPrimitiveError as exc:
            raise InternalConsistencyError(f"zig-zag degree {k}: {exc}") from exc

    def fail(check: str) -> Callable[[int], InternalConsistencyError]:
        return lambda col: InternalConsistencyError(
            f"zig-zag degree {k}: {check} at domain label {domain_basis.labels[col]}"
        )

    if k > n:
        X = assemble(domain, lambda e: diff(zero(k), -e), domain_basis)
    else:
        X = assemble(domain, lambda e: diff(e, None if k == 0 else zero(k - 1)), domain_basis)
        b_slot = PairSpace(chart, k).b
        b_basis = b_slot.basis(truncation)
        B = assemble(b_slot, partial(diff, zero(k)), b_basis)
        B_a = {(r, c): v for (r, c), v in B.items() if r < a_dim}
        X_a = {(r, c): v for (r, c), v in X.items() if r < a_dim}
    if k < n:
        p_dim = codomain_basis.dim
        system = assemble(codomain, lambda form: (form, zero(k)), codomain_basis)
        system.update({(r, c + p_dim): v for (r, c), v in B_a.items()})
        system = sparse_rref(system, p_dim + b_basis.dim)
        solution = _solve_columns(system, X_a, fail("graded projection system is unsolvable"))
        entries = {(r, c): v for (r, c), v in solution.items() if r < p_dim}
        return OperatorMatrix(codomain_basis, domain_basis, entries)
    if k == n:
        # B_a S = X_a gives C = -S, so X + B C = X - B S, whose form rows cancel
        S = _solve_columns(sparse_rref(B_a, b_basis.dim), X_a, fail("middle correction is unsolvable"))
        BS = OperatorMatrix(pair_basis, b_basis, B).compose(OperatorMatrix(b_basis, domain_basis, S))
        for key, v in BS.entries.items():
            X[key] = X.get(key, 0) - v
    leaked = [c for (r, c), v in X.items() if r < a_dim and v]
    if leaked:
        raise fail("primitive class left the filtration")(min(leaked))
    embedding = assemble(codomain, lambda form: (zero(k + 1), form), codomain_basis)
    extraction = sparse_rref(embedding, codomain_basis.dim)
    entries = _solve_columns(extraction, X, fail("output left the class subspace"))
    return OperatorMatrix(codomain_basis, domain_basis, {key: -q for key, q in entries.items()})


def _solve_columns(system: Echelon, rhs: dict, fail) -> dict[tuple[int, int], Rational]:
    """Entries (i, c) of x_c with system x_c = rhs[:, c]; the first unsolvable c raises fail(c)."""
    columns: dict[int, dict[int, Rational]] = {}
    for (r, c), v in rhs.items():
        columns.setdefault(c, {})[r] = v
    out: dict[tuple[int, int], Rational] = {}
    for col in sorted(columns):
        coords = system.coords(columns[col])
        if coords is None:
            raise fail(col)
        out.update({(pos, col): q for pos, q in coords.items()})
    return out
