"""Sparse exterior algebra on a chart.

A chart fixes an ordered coordinate system, a coefficient ring and a weight
for every coordinate.  A differential form of degree k is one flat map
``{(axes, term): q}``: ``axes`` a strictly increasing k-tuple of coordinate
axes, ``term`` a term key of the chart's ring (an exponent tuple, or
``("c" | "s", mode)``) and ``q`` a nonzero canonical rational.  A
polyvector field of degree 1 or 2 is stored the same way.  Every operation
is one loop over such maps through the ring's single-term kernels
``term_partial`` and ``term_product`` (see ``coefficients``), so applying
an operator builds no coefficient object.  Coefficients cross the boundary
only whole: ``from_coefficients``, ``function_form``, ``basis_form`` and
``times`` take them, and ``coefficient(axes)`` builds one on demand.

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
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .coefficients import (
    Coefficient,
    PolyCoefficient,
    Rational,
    Ring,
    canon,
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

    @cached_property
    def base_axes(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.dim) if a != self.t_axis)

    def one_coeff(self) -> Coefficient:
        return self.ring.one()

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
# for forms and fiber maps alike, from ``contract_axes``; both are pure and
# cached, and what they return is an immutable tuple.


def multi_indices(m: int, k: int) -> list[MultiIndex]:
    """All strictly increasing k-tuples from range(m), lexicographic."""
    return list(combinations(range(m), k)) if k >= 0 else []


def monomials_of_weight(var_weights: Sequence[int], target: int) -> list[tuple[int, ...]]:
    """All exponent tuples with the given weighted degree, lexicographic."""
    if target < 0:
        return []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        pos = len(prefix)
        if pos == len(var_weights):
            if remaining == 0:
                out.append(prefix)
            return
        w = var_weights[pos]
        for e in range(remaining // w + 1):
            rec(prefix + (e,), remaining - e * w)

    rec((), target)
    return out


@lru_cache(maxsize=1 << 16)
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


@lru_cache(maxsize=1 << 16)
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


def _canonical(terms: Mapping) -> dict:
    """The nonzero entries of a flat map, each value canonical."""
    return {k: (q if type(q) is int else canon(q)) for k, q in terms.items() if q}


class _SparseGraded:
    """Shared storage/arithmetic for forms and polyvector fields.

    ``terms`` is one flat map ``{(axes, term): q}``: ``axes`` a strictly
    increasing multi-index, ``term`` a key of the chart's ring and ``q`` a
    nonzero canonical rational.
    """

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[tuple[MultiIndex, object], Rational]):
        if degree < 0:
            raise DegreeError("negative degree")
        ring = chart.ring
        for key, term in terms:
            validate_key(key, degree, chart.dim)
            if len(ring.coefficient_type.term_vector(term)) != ring.nvars:
                raise InvalidAxisError(f"term {term!r} is not a {ring.kind} term in {ring.nvars} variables")
        self.chart = chart
        self.degree = degree
        self.terms = _canonical(terms)

    @classmethod
    def _of(cls, chart: Chart, degree: int, terms: dict):
        """The form of the flat terms an operation accumulated in a new dict: keys valid.

        The dict is kept as it is when every value is a nonzero ``int``, the
        common case; otherwise zeros are dropped and values made canonical.
        """
        out = object.__new__(cls)
        out.chart = chart
        out.degree = degree
        for q in terms.values():
            if type(q) is not int or not q:
                terms = _canonical(terms)
                break
        out.terms = terms
        return out

    @classmethod
    def from_coefficients(cls, chart: Chart, degree: int, coefficients: Mapping[MultiIndex, Coefficient]):
        """The form or field with coefficient ``coefficients[axes]`` on each multi-index."""
        ring = chart.ring
        if any((f.kind, f.nvars) != (ring.kind, ring.nvars) for f in coefficients.values()):
            raise RingMismatchError(f"a coefficient is not in the chart's {ring.kind} ring")
        terms = {(tuple(key), t): q for key, f in coefficients.items() for t, q in f.terms.items()}
        return cls(chart, degree, terms)

    def _check(self, other: "_SparseGraded") -> None:
        if other.chart is not self.chart and other.chart != self.chart:
            raise ChartMismatchError("operands live on different charts")

    def _sum(self, other, sign: int):
        """self + sign * other, in one pass over other's terms."""
        self._check(other)
        if other.degree != self.degree:
            raise DegreeError(f"cannot add {self._plural} of different degrees")
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out[key] + sign * q if key in out else sign * q
        return type(self)._of(self.chart, self.degree, out)

    def __add__(self, other):
        return self._sum(other, 1)

    def scale(self, q: Rational):
        if q == 1 and type(q) is int:
            return self
        return type(self)._of(self.chart, self.degree, {k: v * q for k, v in self.terms.items()})

    def coefficient(self, key: MultiIndex) -> Coefficient:
        """The coefficient function on the multi-index ``key``, built on demand."""
        key = tuple(key)
        return self.chart.ring.coefficient_type(
            self.chart.ring.nvars, {term: q for (axes, term), q in self.terms.items() if axes == key}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and (other.chart is self.chart or other.chart == self.chart)
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
        for key in sorted({axes for axes, _ in self.terms}):
            label = "^".join(f"d{names[a]}" for a in key) or "1"
            bits.append(f"[{label}] {self.coefficient(key)!r}")
        return f"{what}(deg={self.degree}, " + " + ".join(bits) + ")"


class DifferentialForm(_SparseGraded):
    """Degree-k form: a flat map from (multi-index, ring term) to rationals."""

    _plural = "forms"

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self._sum(other, -1)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm._of(self.chart, self.degree, {k: -q for k, q in self.terms.items()})

    def times(self, f: Coefficient) -> "DifferentialForm":
        """Multiply by a scalar function: its wedge with the function form."""
        return wedge(function_form(self.chart, f), self)

    def d(self) -> "DifferentialForm":
        return exterior_derivative(self)

    def uses_axis(self, axis: int) -> bool:
        return any(axis in key for key, _ in self.terms)


class PolyVectorField(_SparseGraded):
    """Degree 1 or 2 polyvector field with the same key discipline as forms."""

    _plural = "polyvectors"

    def __init__(self, chart, degree, terms):
        if degree not in (1, 2):
            raise DegreeError("polyvector fields here have degree 1 or 2")
        super().__init__(chart, degree, terms)


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def function_form(chart: Chart, f: Coefficient) -> DifferentialForm:
    return DifferentialForm.from_coefficients(chart, 0, {(): f})


def basis_form(chart: Chart, key: Iterable[int], coeff: Coefficient | None = None) -> DifferentialForm:
    key = tuple(key)
    c = coeff if coeff is not None else chart.one_coeff()
    return DifferentialForm.from_coefficients(chart, len(key), {key: c})


def coordinate_vector(chart: Chart, axis: int, coeff: Coefficient | None = None) -> PolyVectorField:
    c = coeff if coeff is not None else chart.one_coeff()
    return PolyVectorField.from_coefficients(chart, 1, {(axis,): c})


# -- operations --------------------------------------------------------------
# Each runs one loop over the flat terms, through the ring's single-term
# kernels ``term_partial`` and ``term_product``.


def _contract_products(P: _SparseGraded, omega: _SparseGraded, combine) -> dict:
    """Sum of sign * (p * q) on ``combine(axes of P, axes of omega)`` over all term pairs."""
    product = omega.chart.ring.coefficient_type.term_product
    out: dict = {}
    for (pkey, pterm), p in P.terms.items():
        for (key, term), q in omega.terms.items():
            hit = combine(pkey, key)
            if hit is None:
                continue
            sign, new_key = hit
            for new_term, c in product(pterm, term):
                k = (new_key, new_term)
                out[k] = out.get(k, 0) + sign * c * p * q
    return out


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product with the permutation-sign convention."""
    a._check(b)
    return DifferentialForm._of(a.chart, a.degree + b.degree, _contract_products(a, b, merge_wedge))


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """d(f dx^I) = sum_j (d_j f) dx_j ^ dx^I over all chart axes."""
    return _derivative_over_axes(omega, range(omega.chart.dim))


def horizontal_derivative(omega: DifferentialForm) -> DifferentialForm:
    """Exterior derivative in the base directions only (t excluded)."""
    return _derivative_over_axes(omega, omega.chart.base_axes)


def _derivative_over_axes(omega: DifferentialForm, axes: Iterable[int]) -> DifferentialForm:
    ring = omega.chart.ring.coefficient_type
    vector, partial = ring.term_vector, ring.term_partial
    out: dict = {}
    for (key, term), q in omega.terms.items():
        v = vector(term)
        for axis in axes:
            # no derivative along a variable the term does not involve, nor a
            # differential the key already holds
            if not v[axis] or axis in key:
                continue
            new_term, c = partial(term, axis)
            sign, new_key = merge_wedge((axis,), key)
            k = (new_key, new_term)
            out[k] = out.get(k, 0) + sign * c * q
    return DifferentialForm._of(omega.chart, omega.degree + 1, out)


def t_derivative(omega: DifferentialForm, scale: Rational = 1) -> DifferentialForm:
    """Coefficientwise derivative along the transversal coordinate, scaled."""
    chart = omega.chart
    if chart.t_axis is None:
        raise InvalidAxisError("chart has no transversal coordinate")
    partial, axis = chart.ring.coefficient_type.term_partial, chart.t_axis
    out = {}
    for (key, term), q in omega.terms.items():
        hit = partial(term, axis)
        if hit is not None:
            # one term in, one term out: no two land on one key
            out[(key, hit[0])] = hit[1] * scale * q
    return DifferentialForm._of(chart, omega.degree, out)


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
    out = _contract_products(P, omega, lambda pkey, key: contract_axes(key, pkey))
    return DifferentialForm._of(omega.chart, omega.degree - P.degree, out)


def lie_derivative(X: PolyVectorField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X = i_X d + d i_X (X of degree 1)."""
    if X.degree != 1:
        raise DegreeError("Lie derivative needs a vector field")
    left = interior_product(X, exterior_derivative(omega))
    if omega.degree >= 1:
        return left + exterior_derivative(interior_product(X, omega))
    return left


def bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """Lie bracket of two vector fields: [X, Y]^a = X^b d_b Y^a - Y^b d_b X^a."""
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError("bracket needs two vector fields")
    X._check(Y)
    ring = X.chart.ring.coefficient_type
    out: dict = {}
    for U, V, sign in ((X, Y, 1), (Y, X, -1)):
        for ((b,), ub), p in U.terms.items():
            for (key, va), q in V.terms.items():
                hit = ring.term_partial(va, b)
                if hit is None:
                    continue
                dva, c = hit
                for term, e in ring.term_product(ub, dva):
                    k = (key, term)
                    out[k] = out.get(k, 0) + sign * c * e * p * q
    return PolyVectorField._of(X.chart, 1, out)


# -- the projection of a contact chart onto its base -------------------------


def promote_form(omega: DifferentialForm, chart: Chart) -> DifferentialForm:
    """Pull a base form back along the projection of the contact ``chart`` (append t)."""
    if omega.chart.ring.kind != "poly" or chart != contact_chart_over(omega.chart):
        raise ChartMismatchError("form does not live on the base of this contact chart")
    return DifferentialForm._of(chart, omega.degree, {(k, e + (0,)): q for (k, e), q in omega.terms.items()})


def restrict_form(omega: DifferentialForm, base: Chart) -> DifferentialForm:
    """Push an invariant, dt-free form down to the ``base`` chart (drop t)."""
    chart = omega.chart
    if chart.t_axis is None:
        if chart != base:
            raise ChartMismatchError("form does not match the base chart")
        return omega
    if omega.uses_axis(chart.t_axis):
        raise ReebInvarianceError("form has a transversal component")
    if any(exp[-1] for _, exp in omega.terms):
        raise ReebInvarianceError("form depends on the transversal coordinate")
    return DifferentialForm._of(base, omega.degree, {(k, e[:-1]): q for (k, e), q in omega.terms.items()})


# -- substitutions -----------------------------------------------------------


@dataclass(frozen=True)
class LinearSubstitution:
    """Pullback data of a map (base', t') -> (M . base', t_scale * t' + shift).

    ``matrix[i][j]`` is the coefficient of the j-th target coordinate in the
    image of the i-th source base coordinate, so the pullback of the source
    coordinate function v_i is  sum_j matrix[i][j] v_j'.  ``shift`` is a
    polynomial in the target base coordinates; both charts must carry the
    poly ring.  ``pullback`` runs on the images as 0-forms and on their
    differentials, both built once per substitution.
    """

    src: Chart
    dst: Chart
    matrix: tuple[tuple[Rational, ...], ...]
    t_scale: Rational = 1
    shift: PolyCoefficient | None = None

    @cached_property
    def images(self) -> list[PolyCoefficient]:
        """The pullback of each source coordinate function, in the target ring."""
        nvars = self.dst.ring.nvars
        unit = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
        images = [PolyCoefficient(nvars, {unit[j]: q for j, q in enumerate(row)}) for row in self.matrix]
        if self.src.t_axis is not None:
            t_image = PolyCoefficient(nvars, {unit[self.dst.t_axis]: self.t_scale})
            if self.shift is not None:
                t_image = t_image + self.shift.pad(nvars)
            images.append(t_image)
        return images

    @cached_property
    def image_forms(self) -> tuple[list[DifferentialForm], list[DifferentialForm]]:
        """Each image as a 0-form on ``dst``, and its differential (the pulled-back dx_i)."""
        forms = [function_form(self.dst, image) for image in self.images]
        return forms, [exterior_derivative(f) for f in forms]

    def pullback(self, omega: DifferentialForm) -> DifferentialForm:
        """Map q x^e dx_{a1} ^ ... to q prod image_i^(e_i) d(image_a1) ^ ..., term by term."""
        if omega.chart != self.src:
            raise ChartMismatchError("form does not live on the substitution source")
        if self.src.ring.kind != "poly":
            raise UnsupportedRingOperationError("substitutions act on the poly ring")
        images, differentials = self.image_forms
        total = zero_form(self.dst, omega.degree)
        for (axes, exp), q in omega.terms.items():
            piece = DifferentialForm._of(self.dst, 0, {((), self.dst.ring.unit_term()): q})
            for var, power in enumerate(exp):
                for _ in range(power):
                    piece = wedge(piece, images[var])
            for axis in axes:
                piece = wedge(piece, differentials[axis])
            total = total + piece
        return total


# -- serialization ------------------------------------------------------------


def form_from_json(obj: dict, chart: Chart) -> DifferentialForm:
    degree = json_int(obj["degree"], "form degree", DegreeError)
    coefficients = {}
    for item in obj.get("terms", []):
        key = tuple(json_int(a, "form index entry", InvalidAxisError) for a in item["idx"])
        coeff = coefficient_from_json(item["coef"], nvars=chart.ring.nvars)
        if (coeff.kind, coeff.nvars) != (chart.ring.kind, chart.ring.nvars):
            raise RingMismatchError(
                f"coefficient at {list(key)} is not in the chart's {chart.ring.kind} ring "
                f"in {chart.ring.nvars} variables"
            )
        coefficients[key] = coeff
    return DifferentialForm.from_coefficients(chart, degree, coefficients)
