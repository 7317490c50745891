"""Mode tables: a constant-coefficient torus operator read off its symbol.

A constant-coefficient operator L of differential order r acts on a mode
section as L(e^{i m.theta} v) = e^{i m.theta} P(m) v, with P a polynomial
in the mode m of degree <= r.  On the real basis this reads

    L(cos(m.theta) v) = cos(m.theta) A(m) v + sin(m.theta) B(m) v,
    L(sin(m.theta) v) = sin(m.theta) A(m) v - cos(m.theta) B(m) v,

with A and B real polynomials of degree <= r; B(0) = 0, since L maps a
real constant section v to the real P(0) v.  Newton's forward-difference
formula recovers each from its values on the lattice simplex
{c >= 0, |c| <= r}:

    A(m) = sum over c >= 0, |c| <= r of C(m, c) Delta^c A(0),

with generalized binomials C(m, c) = prod_i C(m_i, c_i).  It is exact for
negative m_i too: both sides are polynomials in m and agree on N^{2n}.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod

from .coefficients import Rational
from .errors import InternalConsistencyError, NonPrimitiveError


def probe_modes(nvars: int, order: int) -> list[tuple[int, ...]]:
    """The lattice simplex {c >= 0, |c| <= order}, by total degree then lexicographic.

    Each probe is its own ``canonical_mode``: its first nonzero entry is positive.
    """
    return sorted(
        (c for c in product(range(order + 1), repeat=nvars) if sum(c) <= order),
        key=lambda c: (sum(c), c),
    )


def generalized_binomial(m: int, c: int) -> int:
    """C(m, c) = m (m-1) ... (m-c+1) / c! for any integer m and c >= 0."""
    out = 1
    for j in range(c):
        # each quotient is C(m, j + 1), an integer
        out = out * (m - j) // (j + 1)
    return out


def _probe(domain, codomain, op, key: tuple, c: tuple[int, ...]) -> tuple[dict, dict]:
    """(A(c) v, B(c) v) from one application of ``op`` to cos(c.theta) v, v of fiber key ``key``."""
    image = op(domain.element((("m", c), key + (("c", c),))))
    a: dict = {}
    b: dict = {}
    for (_, rest), q in codomain.coordinates(image).items():
        kind, image_mode = rest[-1]
        if image_mode != c:
            raise InternalConsistencyError(
                f"probe in mode {c} has an image term in mode {image_mode}: "
                "the operator does not preserve modes"
            )
        (a if kind == "c" else b)[rest[:-1]] = q
    return a, b


class ModeTable:
    """The Newton differences Delta^c A(0) v and Delta^c B(0) v of one operator of order r.

    One probe per fiber key v of the domain and probe mode c: ``op`` runs on
    cos(c.theta) v, and the image's cos coefficients are A(c) v, its sin
    coefficients B(c) v, keyed by codomain fiber key.  An image term in any
    other mode raises: the operator does not preserve modes.  The table
    keeps nothing else: per fiber key, one flat tuple ``(probe index, part,
    codomain fiber key, value, probe index, ...)`` of the nonzero entries
    of the differences, part 0 for A and 1 for B.
    """

    __slots__ = ("order", "probes", "rows")

    def __init__(self, domain, codomain, op, order: int):
        self.order = order
        self.probes = probe_modes(domain.chart.ring.nvars, order)
        self.rows: dict[tuple, tuple] = {}
        for key in domain.fiber_keys():
            values = [_probe(domain, codomain, op, key, c) for c in self.probes]
            row: list = []
            for i, c in enumerate(self.probes):
                # Delta^c f = sum over d <= c of (-1)^|c-d| C(c, d) f(d)
                terms = [
                    (value, (-1) ** (sum(c) - sum(d)) * prod(map(comb, c, d)))
                    for d, value in zip(self.probes, values)
                    if all(map(int.__le__, d, c))
                ]
                for part in (0, 1):
                    diff: dict = {}
                    for value, weight in terms:
                        for fiber_key, q in value[part].items():
                            diff[fiber_key] = diff.get(fiber_key, 0) + weight * q
                    for fiber_key, q in diff.items():
                        if q:
                            row += (i, part, fiber_key, q)
            self.rows[key] = tuple(row)

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
                coeffs = [
                    prod(map(generalized_binomial, mode, c)) for c in self.probes
                ]
            key = rest[:-1]
            pair = values.get(key)
            if pair is None:
                pair = values[key] = ({}, {})
                items = iter(self.rows[key])
                for i, part, fiber_key, q in zip(items, items, items, items):
                    if coeffs[i]:
                        acc = pair[part]
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
                        raise NonPrimitiveError(f"component {label} lies outside the truncation")
                    column[row] = part_sign * q
            yield column
