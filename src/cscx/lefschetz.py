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

That pointwise linear algebra (wedge by the structure two-form, insertion
of its inverse bivector, primitive subspaces, the primitive projection,
the middle-degree inverse and the full primitive decomposition) lives in
``FiberCalculus``.  Each chart owns one, built by ``fiber_from_form`` from
its constant structure form, so the contact and cs sides of a pair
resolve their fibers independently; each fiber map is built once on it as
a sparse ``FiberMap``, applied to fiber vectors by ``FiberMap.apply`` and
to forms by ``fiber_apply``.  Every fiber solve is an ``Echelon``: the
decomposition at a degree is one echelon of the embedded primitive bases,
and each component map (the primitive projection is the first) reads the
unit vectors' coordinates off it.  Sign conventions are those of the
forms module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .coefficients import Rational, canon
from .errors import (
    ChartMismatchError,
    CsStructureError,
    DegreeError,
    InternalConsistencyError,
    NonPrimitiveError,
)
from .forms import (
    Chart,
    DifferentialForm,
    MultiIndex,
    PolyVectorField,
    affine_cs_chart,
    basis_form,
    contract_axes,
    interior_product,
    merge_wedge,
    multi_indices,
    torus_cs_chart,
    wedge,
    zero_form,
)
from .linalg import Echelon, sparse_nullspace

FiberVector = dict[int, Rational]  # over positions in multi_indices(m, k)


class FiberMap(dict):
    """Sparse matrix ``{(row, col): value}`` of a fiber map, indexed by column."""

    def __init__(self, entries: dict[tuple[int, int], Rational]):
        super().__init__((e, canon(v)) for e, v in entries.items() if v)
        self.columns: dict[int, list[tuple[int, Rational]]] = {}
        for (r, c), v in self.items():
            self.columns.setdefault(c, []).append((r, v))

    def apply(self, vec: FiberVector) -> FiberVector:
        out: dict[int, Rational] = {}
        for c, x in vec.items():
            for r, v in self.columns.get(c, ()):
                out[r] = out.get(r, 0) + v * x
        return {r: v for r, v in out.items() if v}


def _inverse(columns: Sequence[FiberVector]) -> FiberMap:
    """Inverse of the square matrix with these columns.

    Column r of the inverse holds the coordinates of the r-th unit vector
    over the columns, read off their echelon.
    """
    echelon = Echelon(columns)
    if len(echelon) != len(columns):
        raise InternalConsistencyError("matrix is not invertible")
    entries: dict[tuple[int, int], Rational] = {}
    for r in range(len(columns)):
        for j, v in echelon.coords({r: 1}).items():
            entries[(j, r)] = v
    return FiberMap(entries)


class FiberCalculus:
    """Pointwise symplectic linear algebra for one constant structure two-form.

    ``omega_terms`` maps ordered axis pairs (a, b), a < b, to rational
    values; the form must be constant-coefficient and nondegenerate on the
    m = 2n base axes.
    """

    def __init__(self, m: int, n: int, omega_terms: dict[tuple[int, int], Rational]):
        self.m = m
        self.n = n
        self.omega = {k: canon(Fraction(v)) for k, v in omega_terms.items() if v}
        self._indices: dict[int, list[MultiIndex]] = {}
        self._positions: dict[int, dict[MultiIndex, int]] = {}
        self._wedge: dict[int, FiberMap] = {}
        self._insert: dict[int, FiberMap] = {}
        self._middle_inverse: FiberMap | None = None
        self._primitive: dict[int, list[FiberVector]] = {}
        self._primitive_span: dict[int, Echelon] = {}
        self._unit_coords: dict[tuple[int, int], list[Rational]] = {}
        self._decomp: dict[int, tuple[list[tuple[int, int]], Echelon]] = {}
        self._components: dict[int, list[tuple[int, int, FiberMap]]] = {}
        self._inverse_bivector: dict[tuple[int, int], Rational] | None = None

    # -- bases ---------------------------------------------------------------

    def indices(self, k: int) -> list[MultiIndex]:
        if k not in self._indices:
            self._indices[k] = multi_indices(self.m, k)
            self._positions[k] = {key: i for i, key in enumerate(self._indices[k])}
        return self._indices[k]

    def positions(self, k: int) -> dict[MultiIndex, int]:
        """The position of each multi-index of degree k in ``indices(k)``."""
        self.indices(k)
        return self._positions[k]

    def dim(self, k: int) -> int:
        return len(self.indices(k))

    # -- structure maps --------------------------------------------------------

    def inverse_bivector(self) -> dict[tuple[int, int], Rational]:
        """Bivector P with pairing against the two-form equal to n (blockwise 1)."""
        if self._inverse_bivector is None:
            columns: list[FiberVector] = [{} for _ in range(self.m)]
            for (a, b), v in self.omega.items():
                columns[b][a] = v
                columns[a][b] = -v
            try:
                inverse = _inverse(columns)
            except InternalConsistencyError:
                raise CsStructureError("structure two-form is degenerate") from None
            P: dict[tuple[int, int], Rational] = {}
            for a in range(self.m):
                for b in range(a + 1, self.m):
                    v = inverse.get((a, b))
                    if v:
                        P[(a, b)] = -v
            self._inverse_bivector = P
        return self._inverse_bivector

    def wedge_map(self, k: int) -> FiberMap:
        """Matrix of (two-form ^ .) from degree k to degree k + 2."""
        if k not in self._wedge:
            entries: dict[tuple[int, int], Rational] = {}
            for col, key in enumerate(self.indices(k)):
                for (a, b), v in self.omega.items():
                    merged = merge_wedge((a, b), key)
                    if merged is None:
                        continue
                    sign, new_key = merged
                    row = self.positions(k + 2)[new_key]
                    entry = (row, col)
                    entries[entry] = entries.get(entry, 0) + v * sign
            self._wedge[k] = FiberMap(entries)
        return self._wedge[k]

    def insertion_map(self, k: int) -> FiberMap:
        """Matrix of inserting the inverse bivector, degree k to k - 2."""
        if k not in self._insert:
            P = self.inverse_bivector()
            entries: dict[tuple[int, int], Rational] = {}
            for col, key in enumerate(self.indices(k)):
                for axes, v in P.items():
                    hit = contract_axes(key, axes)
                    if hit is None:
                        continue
                    sign, new_key = hit
                    row = self.positions(k - 2)[new_key]
                    entry = (row, col)
                    entries[entry] = entries.get(entry, 0) + v * sign
            self._insert[k] = FiberMap(entries)
        return self._insert[k]

    def middle_inverse(self) -> FiberMap:
        """Inverse of the bijective wedge from degree n - 1 to degree n + 1."""
        if self._middle_inverse is None:
            columns = self.wedge_map(self.n - 1).columns
            self._middle_inverse = _inverse(
                [dict(columns.get(c, ())) for c in range(self.dim(self.n - 1))]
            )
        return self._middle_inverse

    # -- primitive subspaces -----------------------------------------------------

    def primitive_basis(self, k: int) -> list[FiberVector]:
        """Kernel of insertion for k <= n, kernel of wedging for k > n."""
        if k not in self._primitive:
            if k < 0 or k > self.m:
                self._primitive[k] = []
            elif k <= 1:
                self._primitive[k] = [
                    {i: 1} for i in range(self.dim(k))
                ]
            else:
                entries = self.insertion_map(k) if k <= self.n else self.wedge_map(k)
                kernel = sparse_nullspace(entries, self.dim(k))
                self._primitive[k] = [dict(sorted(vec.items())) for vec in kernel]
        return self._primitive[k]

    def primitive_dim(self, k: int) -> int:
        return len(self.primitive_basis(k))

    def primitive_coords(self, k: int, vec: FiberVector) -> list[Rational]:
        """Coordinates of a fiber vector in the primitive basis (must lie in it).

        Most vectors a class space reads back are some q e_i: those read q
        times the coordinates of e_i, solved once per degree.
        """
        if len(vec) != 1:
            return self._solve_primitive(k, vec)
        ((i, q),) = vec.items()
        unit = self._unit_coords.get((k, i))
        if unit is None:
            unit = self._unit_coords[(k, i)] = self._solve_primitive(k, {i: 1})
        return [x if type(x := q * c) is int else canon(x) for c in unit]

    def _solve_primitive(self, k: int, vec: FiberVector) -> list[Rational]:
        if k not in self._primitive_span:
            self._primitive_span[k] = Echelon(self.primitive_basis(k))
        coords = self._primitive_span[k].coords(vec)
        if coords is None:
            raise NonPrimitiveError(f"fiber vector at degree {k} is not primitive")
        return [coords.get(j, 0) for j in range(self.primitive_dim(k))]

    # -- full primitive decomposition ----------------------------------------------

    def decomposition(self, k: int) -> tuple[list[tuple[int, int]], Echelon]:
        """The primitive decomposition at degree k, certified as a direct sum.

        Returns ``(slots, echelon)`` where ``slots`` lists, per component,
        the primitive degree and the twist step (+1 per wedge embedding for
        k <= n, -1 per insertion embedding for k > n), and ``echelon`` holds
        the concatenated embedded primitive bases, labelled by position.
        """
        if k not in self._decomp:
            up = k <= self.n
            step = -2 if up else 2
            embed = self.wedge_map if up else self.insertion_map
            echelon = Echelon()
            slots: list[tuple[int, int]] = []
            columns = 0
            i = 0
            while 0 <= k + step * i <= self.m:
                src = k + step * i
                for embedded in self.primitive_basis(src):
                    for s in range(i):
                        embedded = embed(src - step * s).apply(embedded)
                    echelon.add(embedded)
                    columns += 1
                slots.append((src, i if up else -i))
                i += 1
            if not len(echelon) == columns == self.dim(k):
                raise InternalConsistencyError(
                    f"decomposition at degree {k} has {len(echelon)} independent of "
                    f"{columns} columns, expected {self.dim(k)}"
                )
            self._decomp[k] = (slots, echelon)
        return self._decomp[k]

    def components(self, k: int) -> list[tuple[int, int, FiberMap]]:
        """The projections onto the primitive components at degree k.

        One triple (source_degree, twist_step, map) per slot of the
        decomposition; the map sends a degree-k fiber vector to its
        component, re-embedded through the primitive basis of the source
        degree.  Column j is read off the coordinates of the j-th unit
        vector over the decomposition echelon.
        """
        if k not in self._components:
            slots, echelon = self.decomposition(k)
            coords = [echelon.coords({col: 1}) for col in range(self.dim(k))]
            out = []
            offset = 0
            for src, twist in slots:
                basis = self.primitive_basis(src)
                entries: dict[tuple[int, int], Rational] = {}
                for col, coord in enumerate(coords):
                    for j, vec in enumerate(basis):
                        q = coord.get(offset + j)
                        if not q:
                            continue
                        for row, v in vec.items():
                            entries[(row, col)] = entries.get((row, col), 0) + q * v
                out.append((src, twist, FiberMap(entries)))
                offset += len(basis)
            self._components[k] = out
        return self._components[k]

    def pi0_map(self, k: int) -> FiberMap:
        """Matrix of the primitive projection at degree k: the first component."""
        return self.components(k)[0][2]

    def pi0(self, k: int, vec: FiberVector) -> FiberVector:
        """Primitive component of a fiber vector at degree k."""
        return self.pi0_map(k).apply(vec)


def fiber_apply(
    fib: FiberCalculus, entries: FiberMap, form: DifferentialForm, out_degree: int
) -> DifferentialForm:
    """Apply a fiber map to the multi-index coordinates of a form, term by term."""
    out_keys = fib.indices(out_degree)
    position = fib.positions(form.degree)
    columns = entries.columns
    accum: dict = {}
    for (key, term), q in form.terms.items():
        for row, v in columns.get(position[key], ()):
            k = (out_keys[row], term)
            accum[k] = accum.get(k, 0) + v * q
    return DifferentialForm._of(form.chart, out_degree, accum)


def is_primitive(fib: FiberCalculus, form: DifferentialForm) -> bool:
    """The primitivity test: the primitive projection fixes the form."""
    return fiber_apply(fib, fib.pi0_map(form.degree), form, form.degree) == form


def fiber_from_form(omega: DifferentialForm, n: int) -> FiberCalculus:
    """A new fiber calculus of a constant-coefficient structure two-form.

    The weight grading this toolkit relies on forces the structure form to
    have constant coefficients; anything else is rejected here.
    """
    if omega.degree != 2:
        raise CsStructureError("structure form must have degree 2")
    unit = omega.chart.ring.unit_term()
    terms: dict[tuple[int, int], Rational] = {}
    for (key, term), q in omega.terms.items():
        if any(a >= 2 * n for a in key):
            raise CsStructureError("structure form must live on the base axes")
        if term != unit:
            raise CsStructureError(
                "structure form must have constant coefficients for graded truncation"
            )
        terms[key] = q
    return FiberCalculus(2 * n, n, terms)


@dataclass(frozen=True)
class CsChart:
    """A conformally symplectic chart: affine R^{2n} or the torus T^{2n}.

    ``omega`` is the chosen closed nonvanishing section of the structure
    line; on the affine model it is exact (omega = d beta for the paired
    contact chart), on the torus it is not.  The chart owns what is derived
    from it: its ``fiber`` calculus (built at construction, so an
    unsuitable structure form fails here), its ``two_step`` block structure
    and ``tables``, the Leibniz table of each operator on the chart under
    ``(operator name, k)``, built on first use.
    """

    n: int
    model: str  # "affine" | "torus"
    chart: Chart
    omega: DifferentialForm
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        self.fiber  # built now, so that a non-constant structure form fails here

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def fiber(self) -> FiberCalculus:
        return fiber_from_form(self.omega, self.n)

    @cached_property
    def two_step(self):
        """The quotient-side block structure: no potential, no transversal flow."""
        # the structure is defined above the charts, in rumin
        from .rumin import TwoStepStructure

        return TwoStepStructure(chart=self.chart, n=self.n, lef=self.omega, fiber=self.fiber)

    def inverse_bivector_field(self) -> PolyVectorField:
        unit = self.chart.ring.unit_term()
        terms = {(key, unit): v for key, v in self.fiber.inverse_bivector().items()}
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
    fib = cs.fiber
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
    fib = cs.fiber
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
    fib = cs.fiber
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
