"""Sparse exterior algebra on a chart.

A chart fixes an ordered coordinate system, a coefficient ring and a weight
for every coordinate.  A differential form of degree k is a sparse map from
strictly increasing k-tuples of coordinate axes to ring coefficients; a
polyvector field of degree 1 or 2 uses the same key discipline.

Conventions, fixed once and used everywhere:

* wedge sign = sign of the permutation sorting the concatenated index list;
* interior product of a degree-2 polyvector term on axes (a, b) inserts
  d/da into the first slot and d/db into the second, so that
  ``i_{(a,b)} (dx_a ^ dx_b) = +1``;
* the Lie derivative is the Cartan formula ``i_X d + d i_X``.

On a contact chart the coordinate order is (x1, y1, ..., xn, yn, t) with
weights (1, ..., 1, 2); on a cs chart (x1, y1, ..., xn, yn) with weight 1
each.  Truncation by total weight (coefficient weight + form weight, the
transversal coordinate and its differential counting twice) then produces
finite-dimensional subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .coefficients import (
    Coefficient,
    PolyCoefficient,
    Rational,
    Ring,
    coefficient_from_json,
    json_int,
)
from .errors import (
    ChartMismatchError,
    ConfigError,
    DegreeError,
    InvalidAxisError,
    ReebInvarianceError,
    RingMismatchError,
    UnsupportedRingOperationError,
)

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart with a coefficient ring and weights.

    Ring variable i is coordinate axis i.  ``t_axis`` marks the transversal
    coordinate of a contact chart (always the last axis); cs charts have
    none.  The Fourier ring lives only on the torus cs chart: T^{2n} has no
    global contact form, so contact charts carry the poly ring.
    """

    coords: tuple[str, ...]
    ring: Ring
    weights: tuple[int, ...]
    t_axis: int | None = None

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.coords):
            raise InvalidAxisError("one weight per coordinate required")
        if self.t_axis is not None and self.t_axis != len(self.coords) - 1:
            raise InvalidAxisError("the transversal coordinate must come last")
        if self.ring.nvars != len(self.coords):
            raise InvalidAxisError(
                f"ring has {self.ring.nvars} variables, chart needs {len(self.coords)}"
            )

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def base_axes(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.dim) if a != self.t_axis)

    def zero_coeff(self) -> Coefficient:
        return self.ring.zero()

    def one_coeff(self) -> Coefficient:
        return self.ring.one()

    def const(self, value: Rational) -> Coefficient:
        return self.ring.const(value)

    def coord_coeff(self, axis: int) -> Coefficient:
        return self.ring.var(axis)


# largest n a chart may carry: the middle exterior power C(2n, n) grows with
# n, and n = 7 gives C(14, 7) = 3432, whose weight-0 affine cohomology takes
# about 3 s; n = 8 gives C(16, 8) = 12870 and about 30 s (2-core x86 box,
# CPython 3.11)
_MAX_N = 7


def check_base_size(n: int) -> None:
    """Refuse a base R^{2n} or T^{2n} whose middle exterior power is too large.

    Every chart is built on one of these bases, so this runs before any
    structure form is wedged or any fiber calculus is built.
    """
    if n > _MAX_N:
        raise ConfigError(
            f"n={n} is too large: the middle exterior power C(2n, n) has at least "
            f"C(16, 8) = 12870 dimensions for n > {_MAX_N}, more than C(14, 7) = 3432"
        )


def affine_cs_chart(n: int) -> Chart:
    """The affine chart R^{2n} with coordinates (x1, y1, ..., xn, yn)."""
    check_base_size(n)
    coords = _base_names(n)
    from .coefficients import poly_ring

    return Chart(coords=coords, ring=poly_ring(2 * n), weights=(1,) * (2 * n))


def torus_cs_chart(n: int) -> Chart:
    """The torus T^{2n} with angle coordinates (x1, y1, ..., xn, yn)."""
    check_base_size(n)
    coords = _base_names(n)
    from .coefficients import trig_ring

    return Chart(coords=coords, ring=trig_ring(2 * n), weights=(1,) * (2 * n))


def contact_chart_over(base: Chart) -> Chart:
    """Extend a polynomial cs chart by the transversal coordinate t (weight 2)."""
    from .coefficients import poly_ring

    return Chart(
        coords=base.coords + ("t",),
        ring=poly_ring(base.ring.nvars + 1),
        weights=base.weights + (2,),
        t_axis=len(base.coords),
    )


def _base_names(n: int) -> tuple[str, ...]:
    names: list[str] = []
    for i in range(1, n + 1):
        names.extend((f"x{i}", f"y{i}"))
    return tuple(names)


# -- index combinatorics (single source of sign truth) ----------------------
# Every wedge sign comes from ``merge_wedge`` and every contraction sign,
# for forms and fiber maps alike, from ``contract_axes``.


def multi_indices(m: int, k: int) -> list[MultiIndex]:
    """All strictly increasing k-tuples from range(m), lexicographic."""
    return list(combinations(range(m), k)) if k >= 0 else []


def merge_wedge(left: MultiIndex, right: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Sign and sorted key for dx^left ^ dx^right; None on a repeated axis."""
    merged = list(left)
    sign = 1
    for axis in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > axis:
            pos -= 1
        if pos > 0 and merged[pos - 1] == axis:
            return None
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, axis)
    return sign, tuple(merged)


def contract_axes(key: MultiIndex, axes: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Sign and key for inserting d/d(axes[0]), d/d(axes[1]), ... in turn into dx^key.

    Each insertion fills the first slot of what the previous one left, so
    axes (a, b) act as phi |-> phi(d/da, d/db, ...); None when an axis is absent.
    """
    sign = 1
    for axis in axes:
        try:
            pos = key.index(axis)
        except ValueError:
            return None
        if pos % 2:
            sign = -sign
        key = key[:pos] + key[pos + 1 :]
    return sign, key


def validate_key(key: MultiIndex, degree: int, dim: int) -> None:
    if len(key) != degree:
        raise DegreeError(f"key {key} has length {len(key)}, expected {degree}")
    if any(not 0 <= a < dim for a in key):
        raise InvalidAxisError(f"key {key} exceeds chart dimension {dim}")
    if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
        raise InvalidAxisError(f"key {key} is not strictly increasing")


class _SparseGraded:
    """Shared storage/arithmetic for forms and polyvector fields."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(
        self,
        chart: Chart,
        degree: int,
        terms: Mapping[MultiIndex, Coefficient],
        validated: bool = False,
    ):
        if degree < 0:
            raise DegreeError("negative degree")
        self.chart = chart
        self.degree = degree
        clean: dict[MultiIndex, Coefficient] = {}
        for key, coeff in terms.items():
            if coeff.is_zero():
                continue
            if not validated:
                validate_key(key, degree, chart.dim)
            clean[key] = coeff
        self.terms = clean

    def _check(self, other: "_SparseGraded") -> None:
        if other.chart != self.chart:
            raise ChartMismatchError("operands live on different charts")

    def __add__(self, other):
        self._check(other)
        if other.degree != self.degree:
            raise DegreeError(f"cannot add {self._plural} of different degrees")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return type(self)(self.chart, self.degree, out, validated=True)

    def scale(self, q: Rational):
        return type(self)(
            self.chart,
            self.degree,
            {k: c.scale(q) for k, c in self.terms.items()},
            validated=True,
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.chart == self.chart
            and other.degree == self.degree
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.degree, frozenset(self.terms)))

    def __repr__(self) -> str:
        what = type(self).__name__
        if not self.terms:
            return f"{what}(deg={self.degree}, 0)"
        names = self.chart.coords
        bits = []
        for key in sorted(self.terms):
            label = "^".join(f"d{names[a]}" for a in key) or "1"
            bits.append(f"[{label}] {self.terms[key]!r}")
        return f"{what}(deg={self.degree}, " + " + ".join(bits) + ")"


class DifferentialForm(_SparseGraded):
    """Degree-k form: sparse map from ordered multi-indices to coefficients."""

    _plural = "forms"

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.chart, self.degree, {k: -c for k, c in self.terms.items()}, validated=True
        )

    def times(self, f: Coefficient) -> "DifferentialForm":
        """Multiply by a scalar function."""
        return DifferentialForm(
            self.chart, self.degree, {k: f * c for k, c in self.terms.items()}, validated=True
        )

    def d(self) -> "DifferentialForm":
        return exterior_derivative(self)

    def coefficient(self, key: MultiIndex) -> Coefficient:
        return self.terms.get(tuple(key), self.chart.zero_coeff())

    def uses_axis(self, axis: int) -> bool:
        return any(axis in key for key in self.terms)


class PolyVectorField(_SparseGraded):
    """Degree 1 or 2 polyvector field with the same key discipline as forms."""

    _plural = "polyvectors"

    def __init__(self, chart, degree, terms, validated=False):
        if degree not in (1, 2):
            raise DegreeError("polyvector fields here have degree 1 or 2")
        super().__init__(chart, degree, terms, validated)


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def function_form(chart: Chart, f: Coefficient) -> DifferentialForm:
    return DifferentialForm(chart, 0, {(): f})


def basis_form(chart: Chart, key: Iterable[int], coeff: Coefficient | None = None) -> DifferentialForm:
    key = tuple(key)
    c = coeff if coeff is not None else chart.one_coeff()
    return DifferentialForm(chart, len(key), {key: c})


def coordinate_vector(chart: Chart, axis: int, coeff: Coefficient | None = None) -> PolyVectorField:
    c = coeff if coeff is not None else chart.one_coeff()
    return PolyVectorField(chart, 1, {(axis,): c})


# -- operations --------------------------------------------------------------


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product with the permutation-sign convention."""
    a._check(b)
    degree = a.degree + b.degree
    out: dict[MultiIndex, Coefficient] = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            merged = merge_wedge(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            piece = (ca * cb).scale(sign)
            out[key] = out[key] + piece if key in out else piece
    return DifferentialForm(a.chart, degree, out, validated=True)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """d(f dx^I) = sum_j (d_j f) dx_j ^ dx^I over all chart axes."""
    return _derivative_over_axes(omega, range(omega.chart.dim))


def horizontal_derivative(omega: DifferentialForm) -> DifferentialForm:
    """Exterior derivative in the base directions only (t excluded)."""
    return _derivative_over_axes(omega, omega.chart.base_axes)


def _derivative_over_axes(omega: DifferentialForm, axes: Iterable[int]) -> DifferentialForm:
    chart = omega.chart
    out: dict[MultiIndex, Coefficient] = {}
    for key, coeff in omega.terms.items():
        for axis in axes:
            df = coeff.partial(axis)
            if df.is_zero():
                continue
            merged = merge_wedge((axis,), key)
            if merged is None:
                continue
            sign, new_key = merged
            piece = df.scale(sign)
            out[new_key] = out[new_key] + piece if new_key in out else piece
    return DifferentialForm(chart, omega.degree + 1, out, validated=True)


def t_derivative(omega: DifferentialForm, scale: Rational = 1) -> DifferentialForm:
    """Coefficientwise derivative along the transversal coordinate, scaled."""
    chart = omega.chart
    if chart.t_axis is None:
        raise InvalidAxisError("chart has no transversal coordinate")
    out = {}
    for key, coeff in omega.terms.items():
        df = coeff.partial(chart.t_axis).scale(scale)
        if not df.is_zero():
            out[key] = df
    return DifferentialForm(chart, omega.degree, out, validated=True)


def interior_product(P: PolyVectorField, omega: DifferentialForm) -> DifferentialForm:
    """Contraction by a degree-1 or degree-2 polyvector field.

    Degree 2 uses the first-slots convention of ``contract_axes``: a term on
    axes (a, b) acts as phi |-> phi(d/da, d/db, ...).
    """
    P._check(omega)
    if omega.degree < P.degree:
        raise DegreeError(
            f"cannot contract a degree-{P.degree} polyvector into a degree-{omega.degree} form"
        )
    out: dict[MultiIndex, Coefficient] = {}
    for pkey, pcoeff in P.terms.items():
        for key, coeff in omega.terms.items():
            hit = contract_axes(key, pkey)
            if hit is None:
                continue
            sign, new_key = hit
            piece = (pcoeff * coeff).scale(sign)
            out[new_key] = out[new_key] + piece if new_key in out else piece
    return DifferentialForm(omega.chart, omega.degree - P.degree, out, validated=True)


def lie_derivative(X: PolyVectorField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X = i_X d + d i_X (X of degree 1)."""
    if X.degree != 1:
        raise DegreeError("Lie derivative needs a vector field")
    inner = interior_product(X, omega) if omega.degree >= 1 else zero_form(omega.chart, 0)
    left = interior_product(X, exterior_derivative(omega))
    if omega.degree >= 1:
        return left + exterior_derivative(inner)
    return left


def bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """Lie bracket of two vector fields, computed componentwise."""
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError("bracket needs two vector fields")
    X._check(Y)
    chart = X.chart
    out: dict[MultiIndex, Coefficient] = {}
    for (b,), xb in X.terms.items():
        for (a,), ya in Y.terms.items():
            dya = ya.partial(b)
            if not dya.is_zero():
                key = (a,)
                piece = xb * dya
                out[key] = out[key] + piece if key in out else piece
    for (b,), yb in Y.terms.items():
        for (a,), xa in X.terms.items():
            dxa = xa.partial(b)
            if not dxa.is_zero():
                key = (a,)
                piece = -(yb * dxa)
                out[key] = out[key] + piece if key in out else piece
    return PolyVectorField(chart, 1, out, validated=True)


# -- the projection of a contact chart onto its base -------------------------


def promote_form(omega: DifferentialForm, chart: Chart) -> DifferentialForm:
    """Pull a base form back along the projection of the contact ``chart`` (append t)."""
    if omega.chart.ring.kind != "poly" or chart != contact_chart_over(omega.chart):
        raise ChartMismatchError("form does not live on the base of this contact chart")
    terms = {key: coeff.pad(chart.ring.nvars) for key, coeff in omega.terms.items()}
    return DifferentialForm(chart, omega.degree, terms, validated=True)


def restrict_form(omega: DifferentialForm, base: Chart) -> DifferentialForm:
    """Push an invariant, dt-free form down to the ``base`` chart."""
    chart = omega.chart
    if chart.t_axis is None:
        if chart != base:
            raise ChartMismatchError("form does not match the base chart")
        return omega
    if omega.uses_axis(chart.t_axis):
        raise ReebInvarianceError("form has a transversal component")
    terms = {}
    for key, coeff in omega.terms.items():
        if any(exp[-1] for exp in coeff.terms):
            raise ReebInvarianceError("form depends on the transversal coordinate")
        terms[key] = coeff.restrict(base.ring.nvars)
    return DifferentialForm(base, omega.degree, terms, validated=True)


# -- substitutions -----------------------------------------------------------


@dataclass(frozen=True)
class LinearSubstitution:
    """Pullback data of a map (base', t') -> (M . base', t_scale * t' + shift).

    ``matrix[i][j]`` is the coefficient of the j-th target coordinate in the
    image of the i-th source base coordinate, so the pullback of the source
    coordinate function v_i is  sum_j matrix[i][j] v_j'.  ``shift`` is a
    polynomial in the target base coordinates; both charts must carry the
    poly ring.
    """

    src: Chart
    dst: Chart
    matrix: tuple[tuple[Rational, ...], ...]
    t_scale: Rational = 1
    shift: PolyCoefficient | None = None

    def pullback_coefficient(self, f: Coefficient) -> Coefficient:
        if not isinstance(f, PolyCoefficient):
            raise UnsupportedRingOperationError("substitutions act on the poly ring")
        images: list[PolyCoefficient] = []
        nbase = len(self.matrix)
        for i in range(nbase):
            terms = {}
            for j, q in enumerate(self.matrix[i]):
                if q:
                    exp = [0] * self.dst.ring.nvars
                    exp[j] = 1
                    terms[tuple(exp)] = q
            images.append(PolyCoefficient(self.dst.ring.nvars, terms))
        if self.src.t_axis is not None:
            nvars = self.dst.ring.nvars
            t_exp = [0] * nvars
            t_exp[self.dst.t_axis] = 1
            t_image = PolyCoefficient(nvars, {tuple(t_exp): self.t_scale})
            if self.shift is not None:
                t_image = t_image + self.shift.pad(nvars)
            images.append(t_image)
        return f.substitute(images)

    def pullback_differential(self, axis: int) -> DifferentialForm:
        if axis == self.src.t_axis:
            nvars = self.dst.ring.nvars
            out = basis_form(self.dst, (self.dst.t_axis,)).scale(self.t_scale)
            if self.shift is not None:
                out = out + exterior_derivative(
                    function_form(self.dst, self.shift.pad(nvars))
                )
            return out
        terms = {}
        for j, q in enumerate(self.matrix[axis]):
            if q:
                terms[(j,)] = self.dst.const(q)
        return DifferentialForm(self.dst, 1, terms, validated=True)

    def pullback(self, omega: DifferentialForm) -> DifferentialForm:
        if omega.chart != self.src:
            raise ChartMismatchError("form does not live on the substitution source")
        total = zero_form(self.dst, omega.degree)
        for key, coeff in omega.terms.items():
            piece = function_form(self.dst, self.pullback_coefficient(coeff))
            for axis in key:
                piece = wedge(piece, self.pullback_differential(axis))
            total = total + piece
        return total


# -- serialization ------------------------------------------------------------


def form_from_json(obj: dict, chart: Chart) -> DifferentialForm:
    degree = json_int(obj["degree"], "form degree", DegreeError)
    terms = {}
    for item in obj.get("terms", []):
        key = tuple(json_int(a, "form index entry", InvalidAxisError) for a in item["idx"])
        coeff = coefficient_from_json(item["coef"], nvars=chart.ring.nvars)
        if (coeff.kind, coeff.nvars) != (chart.ring.kind, chart.ring.nvars):
            raise RingMismatchError(
                f"coefficient at {list(key)} is not in the chart's {chart.ring.kind} ring "
                f"in {chart.ring.nvars} variables"
            )
        terms[key] = coeff
    return DifferentialForm(chart, degree, terms)
