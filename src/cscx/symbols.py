"""Probe tables: an operator of known differential order read off a few probes.

Both tables follow one scheme.  For every fiber key v of the domain and
every probe c of the lattice simplex {c >= 0, |c| <= r}, the operator runs
once on the probe section of v at c, and its image is stored relative to
the probe, as a function f(c) on the simplex.  ``newton_differences`` then
replaces f(c) by its Newton difference Delta^c f(0), and every column is
read off by Newton's forward-difference formula

    f(p) = sum over c >= 0, |c| <= r of C(p, c) Delta^c f(0),

with generalized binomials C(p, c) = prod_i C(p_i, c_i).  It is exact for
any integer point p, negative entries too: both sides are polynomials in p
of degree <= r and agree on every point with nonnegative entries.  Delta^c
f(0) reads f only at the points c' <= c, and the simplex |c| <= r is
downward closed and comes first in the probe order, so the rows at
|c| <= r of a table of order R >= r are the order-r table's rows:
``prefix`` cuts them off without running the operator.

On the poly ring (``LeibnizTable``) the probe of v at c is x^c v and
f(c) = x^(-c) L(x^c v).  Its difference Delta^b f(0) is x^(-b) (ad^b L)(v),
the iterated commutator with the coordinates, and the formula at the
exponent a is the Leibniz expansion of an operator of order r
(Grothendieck, EGA IV 16.8):

    L(x^a v) = sum over b <= a, |b| <= r of C(a, b) x^(a-b) (ad^b L)(v).

On the trig ring (``ModeTable``) a constant-coefficient operator acts on a
mode section as L(e^{i m.theta} v) = e^{i m.theta} P(m) v, with P a
polynomial in m of degree <= r.  On the real basis this reads

    L(cos(m.theta) v) = cos(m.theta) A(m) v + sin(m.theta) B(m) v,
    L(sin(m.theta) v) = sin(m.theta) A(m) v - cos(m.theta) B(m) v,

with A and B real polynomials of degree <= r; B(0) = 0, since L maps a
real constant section v to the real P(0) v.  The probe of v at c is
cos(c.theta) v, and f(c) holds A(c) v and B(c) v.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from math import comb
from operator import add, itemgetter, mul, sub

from .coefficients import Rational
from .errors import InternalConsistencyError, NonPrimitiveError
from .forms import monomials_of_weight


def probe_modes(nvars: int, order: int) -> list[tuple[int, ...]]:
    """The lattice simplex {c >= 0, |c| <= order}, by total degree then lexicographic.

    Each probe is its own ``canonical_mode``: its first nonzero entry is positive.
    """
    return [c for s in range(order + 1) for c in monomials_of_weight((1,) * nvars, s)]


def generalized_binomial(m: int, c: int) -> int:
    """C(m, c) = m (m-1) ... (m-c+1) / c! for any integer m and c >= 0."""
    out = 1
    for j in range(c):
        # each quotient is C(m, j + 1), an integer
        out = out * (m - j) // (j + 1)
    return out


def newton_differences(values: dict[tuple[int, ...], dict]) -> None:
    """Replace each probe value f(c) by its Newton difference Delta^c f(0), in place.

    ``values`` maps every point c of a lattice simplex {c >= 0, |c| <= r}
    to a sparse vector ``{item: q}`` of nonzero values.  Axis by axis and
    level by level, values[c] -= values[c - e_i] for every c with c_i at
    least the level, larger c first, so each c - e_i still holds the
    previous level.  Entries that cancel are dropped.
    """
    probes = sorted(values, key=lambda c: (sum(c), c), reverse=True)
    for axis in range(len(probes[0])):
        for level in range(1, sum(probes[0]) + 1):
            for c in probes:
                if c[axis] < level:
                    continue
                target = values[c]
                for item, q in values[c[:axis] + (c[axis] - 1,) + c[axis + 1 :]].items():
                    v = target.get(item, 0) - q
                    if v:
                        target[item] = v
                    else:
                        del target[item]


class _ProbeTable:
    """The Newton differences of one operator of order r, per fiber key of its domain.

    The table keeps nothing else: per fiber key, one group ``(probe index,
    items)`` per probe with a nonzero difference, in probe order, where
    ``items`` holds the difference's nonzero entries as ``(item, value)``
    pairs.  Each subclass's ``_probe(domain, codomain, op, key, c)`` gives
    one probe's image as ``{item: value}``, relative to the probe.
    """

    __slots__ = ("order", "probes", "supports", "rows")

    def __init__(self, domain, codomain, op, order: int):
        self.order = order
        self.probes = probe_modes(domain.chart.ring.nvars, order)
        # the nonzero (axis, c_i) of each probe: C(p, c) is a product over them
        self.supports = [tuple((axis, ci) for axis, ci in enumerate(c) if ci) for c in self.probes]
        self.rows: dict[tuple, tuple] = {}
        for key in domain.fiber_keys():
            values = {c: self._probe(domain, codomain, op, key, c) for c in self.probes}
            newton_differences(values)
            self.rows[key] = tuple(
                (i, tuple(values[c].items())) for i, c in enumerate(self.probes) if values[c]
            )

    def measured_order(self) -> int:
        """Largest |c| with a nonzero difference, in each row's last group (0 if none)."""
        return max((sum(self.probes[row[-1][0]]) for row in self.rows.values() if row), default=0)

    def prefix(self, order: int):
        """The order-r table of the same operator, r <= ``self.order``: its groups at |c| <= r."""
        count = comb(len(self.probes[0]) + order, order)
        out = copy(self)
        out.order, out.probes, out.supports = order, self.probes[:count], self.supports[:count]
        out.rows = {key: row[: bisect_left(row, count, key=itemgetter(0))] for key, row in self.rows.items()}
        return out

    def _binomial(self, point: tuple[int, ...], i: int) -> int:
        """C(point, c) for the probe c of index i, the weight of its rows at ``point``."""
        out = 1
        for axis, ci in self.supports[i]:
            out *= generalized_binomial(point[axis], ci)
        return out


class LeibnizTable(_ProbeTable):
    """The values x^(-b) (ad^b op)(v) of one poly-ring operator, |b| <= r.

    The probe of v at c is x^c v; an image term is keyed ``(block weight
    - weight(c), fiber key, exponent - c)``, so the item of x^(a-b) (ad^b
    op)(v) lies in block weight(a) plus its stored weight.
    """

    __slots__ = ("weights",)

    def __init__(self, domain, codomain, op, order: int):
        self.weights = domain.chart.weights
        super().__init__(domain, codomain, op, order)

    def _probe(self, domain, codomain, op, key, c):
        image = op(domain.element((None, key + (("p", c),))))
        drop = sum(map(mul, c, self.weights))
        return {
            (block[1] - drop, rest[:-1], tuple(map(sub, rest[-1][1], c))): q
            for (block, rest), q in codomain.coordinates(image).items()
        }

    def columns(self, labels, position: dict):
        """The column ``{row: value}`` of each domain basis label, in order.

        The column of x^a v weights each row of v by C(a, c) and shifts it
        back by x^a.  Each target block is recomputed from the shifted
        exponent and the chart weights, and rows are found by ``position``,
        the codomain basis, so block-diagonality is observed, never assumed.
        """
        for block, rest in labels:
            exp = rest[-1][1]
            weight = sum(map(mul, exp, self.weights))
            column: dict[int, Rational] = {}
            for i, items in self.rows[rest[:-1]]:
                coeff = self._binomial(exp, i)
                if not coeff:
                    continue
                for (w, fiber_key, e), q in items:
                    label = (("w", w + weight), fiber_key + (("p", tuple(map(add, e, exp))),))
                    row = position.get(label)
                    if row is None:
                        raise NonPrimitiveError(
                            f"the image of {(block, rest)}: component {label} lies outside the truncation"
                        )
                    column[row] = column.get(row, 0) + coeff * q
            yield {row: v for row, v in column.items() if v}


class ModeTable(_ProbeTable):
    """The Newton differences Delta^c A(0) v and Delta^c B(0) v of one torus operator.

    The probe of v at c is cos(c.theta) v; an image term is keyed ``(part,
    fiber key)``, part "c" for A and "s" for B.  An image term in any other
    mode than c raises: the operator does not preserve modes.
    """

    __slots__ = ()

    def _probe(self, domain, codomain, op, key, c):
        image = op(domain.element((("m", c), key + (("c", c),))))
        out: dict = {}
        for (_, rest), q in codomain.coordinates(image).items():
            kind, image_mode = rest[-1]
            if image_mode != c:
                raise InternalConsistencyError(
                    f"probe in mode {c} has an image term in mode {image_mode}: "
                    "the operator does not preserve modes"
                )
            out[(kind, rest[:-1])] = q
        return out

    def columns(self, labels, position: dict):
        """The column ``{row: value}`` of each domain basis label, in order.

        A(m) v and B(m) v are expanded once per mode and fiber key; rows are
        found by ``position``, the codomain basis.
        """
        mode = values = coeffs = None
        for block, rest in labels:
            kind, label_mode = rest[-1]
            if label_mode != mode:
                mode, values = label_mode, {}
                coeffs = [self._binomial(mode, i) for i in range(len(self.probes))]
            key = rest[:-1]
            pair = values.get(key)
            if pair is None:
                pair = values[key] = ({}, {})
                for i, items in self.rows[key]:
                    if coeffs[i]:
                        for (part, fiber_key), q in items:
                            acc = pair[part == "s"]
                            acc[fiber_key] = acc.get(fiber_key, 0) + coeffs[i] * q
            a, b = pair
            # cos column: cos A + sin B; sin column: sin A - cos B
            if kind == "c":
                parts = ((a, "c", 1), (b, "s", 1))
            else:
                parts = ((a, "s", 1), (b, "c", -1))
            column: dict[int, Rational] = {}
            for part, part_kind, part_sign in parts:
                for fiber_key, q in part.items():
                    if not q:
                        continue
                    label = (block, fiber_key + ((part_kind, mode),))
                    row = position.get(label)
                    if row is None:
                        raise NonPrimitiveError(
                            f"the image of {(block, rest)}: component {label} lies outside the truncation"
                        )
                    column[row] = part_sign * q
            yield column
