"""Fiberwise Lefschetz operators on a conformally symplectic chart.

The cs structure is a line of nondegenerate two-forms; we fix the closed
section ``omega`` (default: the standard block form) and represent the
line bundle by a formal generator s with the untwisting rule s -> omega.
The canonical twisted two-form is then omega tensor s*, and its inverse
bivector is normalized so that pairing the two yields n (one per block).

``lefschetz_L`` wedges with the canonical twisted two-form (twist power
drops by one); ``lefschetz_Lambda`` inserts the inverse bivector (twist
power rises by one).  Primitive projections and the full decomposition
into primitive components are computed by exact linear solves against the
decomposition basis, never by closed-form constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ChartMismatchError, CsStructureError, DegreeError
from .forms import (
    Chart,
    DifferentialForm,
    PolyVectorField,
    affine_cs_chart,
    basis_form,
    interior_product,
    torus_cs_chart,
    wedge,
    zero_form,
)
from .grading import FiberCalculus, fiber_apply, fiber_from_form


@dataclass(frozen=True)
class CsChart:
    """A conformally symplectic chart: affine R^{2n} or the torus T^{2n}.

    ``omega`` is the chosen closed nonvanishing section of the structure
    line; on the affine model it is exact (omega = d beta for the paired
    contact chart), on the torus it is not.
    """

    n: int
    model: str  # "affine" | "torus"
    chart: Chart
    omega: DifferentialForm

    def __post_init__(self) -> None:
        if self.n < 2:
            raise CsStructureError("cs charts need n >= 2")
        if self.model not in ("affine", "torus"):
            raise CsStructureError(f"unknown cs model {self.model!r}")
        if not self.omega.d().is_zero():
            raise CsStructureError("structure form must be closed")
        # nondegeneracy: top power has an invertible (constant) coefficient
        top = self.omega
        for _ in range(self.n - 1):
            top = wedge(top, self.omega)
        if top.is_zero():
            raise CsStructureError("structure form is degenerate")
        object.__setattr__(self, "_fiber", fiber_from_form(self.omega, self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def fiber(self) -> FiberCalculus:
        return self._fiber

    def inverse_bivector_field(self) -> PolyVectorField:
        terms = {
            key: self.chart.const(v) for key, v in self.fiber().inverse_bivector().items()
        }
        return PolyVectorField(self.chart, 2, terms)


def standard_omega(chart: Chart, n: int) -> DifferentialForm:
    total = zero_form(chart, 2)
    for i in range(n):
        total = total + basis_form(chart, (2 * i, 2 * i + 1))
    return total


def standard_cs_chart(n: int, model: str = "affine") -> CsChart:
    chart = affine_cs_chart(n) if model == "affine" else torus_cs_chart(n)
    return CsChart(n=n, model=model, chart=chart, omega=standard_omega(chart, n))


class TwistedForm:
    """A form tensored with an integer power of the structure line bundle."""

    __slots__ = ("base", "ell_power")

    def __init__(self, base: DifferentialForm, ell_power: int = 0):
        self.base = base
        self.ell_power = ell_power

    @property
    def degree(self) -> int:
        return self.base.degree

    def is_zero(self) -> bool:
        return self.base.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedForm):
            return NotImplemented
        if self.base.is_zero() and other.base.is_zero():
            return self.base.degree == other.base.degree
        return other.ell_power == self.ell_power and other.base == self.base

    def __hash__(self):
        # zero forms of one degree are equal whatever their twist
        if self.base.is_zero():
            return hash(self.base)
        return hash((self.ell_power, self.base))

    def __add__(self, other: "TwistedForm") -> "TwistedForm":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if other.ell_power != self.ell_power:
            raise DegreeError("cannot add sections of different twist powers")
        return TwistedForm(self.base + other.base, self.ell_power)

    def __neg__(self) -> "TwistedForm":
        return TwistedForm(-self.base, self.ell_power)

    def __repr__(self) -> str:
        return f"TwistedForm(ell^{self.ell_power}, {self.base!r})"


def untwisted(form: DifferentialForm) -> TwistedForm:
    return TwistedForm(form, 0)


def _require_cs(cs: CsChart, phi: TwistedForm) -> None:
    if phi.base.chart != cs.chart:
        raise ChartMismatchError("twisted form does not live on this cs chart")


def lefschetz_L(cs: CsChart, phi: TwistedForm) -> TwistedForm:
    """Wedge with the canonical twisted two-form: degree +2, twist -1."""
    _require_cs(cs, phi)
    return TwistedForm(wedge(cs.omega, phi.base), phi.ell_power - 1)


def lefschetz_Lambda(cs: CsChart, phi: TwistedForm) -> TwistedForm:
    """Insert the inverse bivector: degree -2, twist +1."""
    _require_cs(cs, phi)
    if phi.degree < 2:
        raise DegreeError("insertion needs degree >= 2")
    contracted = interior_product(cs.inverse_bivector_field(), phi.base)
    return TwistedForm(contracted, phi.ell_power + 1)


def primitive_projection(cs: CsChart, phi: TwistedForm) -> TwistedForm:
    """Component of phi in the primitive subbundle at its degree.

    For degree <= n the primitive subspace is the kernel of insertion, for
    degree > n the kernel of wedging; in both regimes the projection is the
    first component of the exact decomposition solve.
    """
    _require_cs(cs, phi)
    k = phi.degree
    if phi.is_zero() or k <= 1:
        return phi
    fib = cs.fiber()
    projected = fiber_apply(fib, fib.pi0_map(k), phi.base, k)
    return TwistedForm(projected, phi.ell_power)


def full_decomposition(cs: CsChart, phi: TwistedForm) -> list[TwistedForm]:
    """Primitive components [phi_0, phi_1, ...] with exact reassembly.

    For degree k <= n component i is primitive of degree k - 2i with twist
    power raised by i; reassembly wedges the structure form back on.  For
    k > n component j is primitive of degree k + 2j with twist lowered by
    j; reassembly inserts the inverse bivector back.
    """
    _require_cs(cs, phi)
    fib = cs.fiber()
    return [
        TwistedForm(fiber_apply(fib, component, phi.base, src), phi.ell_power + twist)
        for src, twist, component in fib.components(phi.degree)
    ]


def reassemble_decomposition(cs: CsChart, components: list[TwistedForm], degree: int) -> TwistedForm:
    """Inverse of full_decomposition (uses only public operators)."""
    total: TwistedForm | None = None
    for comp in components:
        piece = comp
        if comp.degree < degree:
            steps = (degree - comp.degree) // 2
            for _ in range(steps):
                piece = lefschetz_L(cs, piece)
        elif comp.degree > degree:
            steps = (comp.degree - degree) // 2
            for _ in range(steps):
                piece = lefschetz_Lambda(cs, piece)
        total = piece if total is None else total + piece
    if total is None:
        raise DegreeError("nothing to reassemble")
    return total


def summand_dimension_table(n: int) -> dict:
    """Dimensions of every primitive summand of every exterior power."""
    cs = standard_cs_chart(n)
    fib = cs.fiber()
    table = []
    for k in range(0, 2 * n + 1):
        slots, _ = fib.decomposition(k)
        summands = [
            {
                "primitive_degree": src,
                "twist_step": twist,
                "dim": fib.primitive_dim(src),
            }
            for src, twist in slots
        ]
        table.append(
            {
                "k": k,
                "total_dim": fib.dim(k),
                "primitive_dim": fib.primitive_dim(k),
                "summands": summands,
            }
        )
    return {"n": n, "table": table}
