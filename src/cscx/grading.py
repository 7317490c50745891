"""Finite-dimensional truncations of graded section spaces.

Everything in scope is weight-homogeneous (poly ring, with the transversal
coordinate and any line-bundle twist counting twice) or Fourier-mode
homogeneous (trig ring, one block per real mode orbit {k, -k}, spanned by
cos and sin of that mode).  A ``Truncation`` fixes the list of grading
blocks; a ``GradedSpace`` enumerates an exact basis of a section space per
block and converts between forms and coordinate vectors (a trig term
``(kind, mode)`` is its own monomial label).  A ``PairSpace`` lays out the
(form, twisted form) pairs of the total complex and of the generic
zig-zag in one slot order, built from two graded spaces.

Primitive sections read their fiber coordinates through their chart's
``lefschetz.FiberCalculus``.  ``operator_complex`` is the one builder of
operator complexes: it builds each node's basis once and assembles the
operator from every node to the next.  An operator of known differential
order r is assembled from its values on a few probe sections, kept in a
table on the chart (``symbols``).  The operator runs once per constant
fiber basis section v and probe c >= 0, |c| <= r: on x^c v on the poly
ring (a ``LeibnizTable``), on cos(c.theta) v on the trig ring (a
``ModeTable``).  The table keeps the Newton differences of these probe
values, and every column is a binomial-weighted sum of them: on the poly
ring the Leibniz expansion (Grothendieck, EGA IV 16.8), on the trig ring
the operator's symbol evaluated at the column's mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from operator import mul
from typing import Callable, Iterable, Sequence

from .coefficients import Rational, canonical_mode
from .errors import (
    ConfigError,
    InternalConsistencyError,
    NonPrimitiveError,
    UnsupportedRingOperationError,
)
from .forms import Chart, DifferentialForm, multi_indices, zero_form

# the traced benchmark wraps the fiber layer under these grading names
from .lefschetz import FiberCalculus, fiber_apply, fiber_from_form  # noqa: F401
from .linalg import OperatorMatrix, SectionBasis
from .symbols import LeibnizTable, ModeTable

Block = tuple  # ("w", weight) | ("m", mode-tuple)


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


# -- truncations ---------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    """A finite family of grading blocks.

    Kinds: ``weight`` (all weights 0..max_weight), ``weights`` (an explicit
    list, used for single-block runs) and ``modes`` (Fourier orbits {k,-k},
    stored by canonical representative).
    """

    kind: str  # "weight" | "weights" | "modes"
    max_weight: int | None = None
    weights: tuple[int, ...] = ()
    modes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "weight":
            if self.max_weight is None or self.max_weight < 0:
                raise UnsupportedRingOperationError("weight truncation needs a bound >= 0")
        elif self.kind == "weights":
            if any(w < 0 for w in self.weights):
                raise UnsupportedRingOperationError("weights must be nonnegative")
        elif self.kind == "modes":
            modes = tuple(canonical_mode(m) for m in self.modes)
            object.__setattr__(self, "modes", modes)
        else:
            raise UnsupportedRingOperationError(f"unknown truncation kind {self.kind!r}")

    def blocks(self) -> list[Block]:
        if self.kind == "weight":
            return [("w", w) for w in range(self.max_weight + 1)]
        if self.kind == "weights":
            return [("w", w) for w in self.weights]
        return [("m", m) for m in self.modes]

    @staticmethod
    def single(block: Block) -> "Truncation":
        if block[0] == "w":
            return Truncation(kind="weights", weights=(block[1],))
        return Truncation(kind="modes", modes=(block[1],))

    def describe(self) -> dict:
        if self.kind == "weight":
            return {"kind": "weight", "max_weight": self.max_weight}
        if self.kind == "weights":
            return {"kind": "weights", "weights": list(self.weights)}
        return {"kind": "modes", "modes": [list(m) for m in self.modes]}


def weight_truncation(max_weight: int) -> Truncation:
    return Truncation(kind="weight", max_weight=max_weight)


def mode_truncation(modes: Iterable[tuple[int, ...]]) -> Truncation:
    seen: list[tuple[int, ...]] = []
    for m in modes:
        c = canonical_mode(tuple(m))
        if c not in seen:
            seen.append(c)
    return Truncation(kind="modes", modes=tuple(seen))


def mode_shells(nvars: int, norms: Iterable[int]) -> list[tuple[int, ...]]:
    """All mode orbits whose sup-norm lies in the given set."""
    wanted = set(norms)
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == nvars:
            norm = max((abs(x) for x in prefix), default=0)
            if norm in wanted:
                c = canonical_mode(prefix)
                if c not in out:
                    out.append(c)
            return
        bound = max(wanted) if wanted else 0
        for v in range(-bound, bound + 1):
            rec(prefix + (v,))

    rec(())
    return out


def sample_orbit_count(nvars: int) -> int:
    """Number of nonzero mode orbits of sup-norm <= 2, the pool of ``sample_modes``."""
    return (5**nvars - 1) // 2


# largest total dimension of the form sections a run may truncate to.  It
# admits affine n=3 w<=10 and n=5 w<=6 (134,245 each), n=2 w<=20 (118,721),
# contact n=2 w<=16 (110,313) and n=3 w<=9 (99,385), and every reference
# command; it refuses affine n=4 w<=8 (265,729) and contact n=2 w<=17
# (145,521) and n=3 w<=10 (184,690).  Wall times at the edge (2-core x86,
# CPython 3.11, one or two runs): cohomology n=3 w<=10 10.9-11.5 s, n=5 w<=6
# 19.0-21.6 s, n=2 w<=20 9.0-10.2 s; les n=3 w<=10 7.9-8.6 s; rumin verify
# n=3 w<=9 6.7 s, n=2 w<=16 4.8-5.9 s; rs crosscheck n=3 w<=9 5.0-6.6 s.
# Affine n=2 w<=40 has 1,797,441 sections and torus n=7 at sup-norm 3
# about 1.1e16
_MAX_SECTION_DIM = 135_000


def weight_section_dim(n: int, max_weight: int) -> int:
    """Dimension of all forms on R^{2n} of total weight <= max_weight.

    A k-form of weight w has coefficients of degree w - k, so summing over w
    gives C(2n, k) times the C(max_weight - k + 2n, 2n) monomials of degree
    <= max_weight - k.
    """
    m = 2 * n
    return sum(comb(m, k) * comb(max_weight - k + m, m) for k in range(min(m, max_weight) + 1))


def contact_section_dim(n: int, max_weight: int) -> int:
    """Dimension of all forms on the contact chart R^{2n+1} of total weight <= max_weight.

    As ``weight_section_dim``, with coefficients also in t of weight two: a
    k-form carrying t^j has C(max_weight - k - 2j + 2n, 2n) base monomials.
    """
    m = 2 * n
    return sum(
        comb(m, k) * comb(max_weight - k - 2 * j + m, m)
        for k in range(min(m, max_weight) + 1)
        for j in range((max_weight - k) // 2 + 1)
    )


def mode_section_dim(n: int, norms: Iterable[int], samples: int) -> int:
    """Dimension of all forms on T^{2n} over the given sup-norm shells and sampled orbits.

    The shell of sup-norm M > 0 holds ((2M+1)^{2n} - (2M-1)^{2n}) / 2 orbits,
    each spanned by cos and sin; the zero orbit is spanned by cos alone.
    Sampled orbits may repeat shell orbits, so this is an upper bound.
    """
    m = 2 * n
    norms = set(norms)
    orbits = samples + sum(((2 * M + 1) ** m - (2 * M - 1) ** m) // 2 for M in norms if M > 0)
    return 2**m * (2 * orbits + (0 in norms))


def check_section_budget(dim: int) -> None:
    """Refuse a truncation whose form sections exceed ``_MAX_SECTION_DIM``."""
    if dim > _MAX_SECTION_DIM:
        shown = f"{dim:,}" if dim < 10**15 else "at least 10^15"
        raise ConfigError(
            f"the truncation spans {shown} form sections, over the budget of "
            f"{_MAX_SECTION_DIM:,}: lower the weight bound or the mode shells"
        )


def sample_modes(nvars: int, count: int, seed: object = 0) -> list[tuple[int, ...]]:
    """Deterministic sample of nonzero mode orbits (sup-norm <= 2)."""
    from .util import seeded_rng

    available = sample_orbit_count(nvars)
    if count > available:
        raise ConfigError(
            f"cannot sample {count} mode orbits: sup-norm <= 2 has {available} nonzero orbits"
        )
    rng = seeded_rng("mode-sample", nvars, count, seed)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        mode = tuple(rng.randint(-2, 2) for _ in range(nvars))
        if not any(mode):
            continue
        mode = canonical_mode(mode)
        if mode not in out:
            out.append(mode)
    return out


# -- graded section spaces -------------------------------------------------------


class GradedSpace:
    """Sections of a (possibly twisted, possibly primitive) form bundle.

    Keys range over the base axes only (each of weight one); the twist
    contributes ``weight_offset`` to the total weight.  With ``fiber``
    given, elements are sections of the primitive subbundle at the stated
    degree; otherwise of the full exterior power.
    """

    def __init__(
        self,
        chart: Chart,
        degree: int,
        weight_offset: int = 0,
        fiber: FiberCalculus | None = None,
        tag: str = "full",
    ):
        self.chart = chart
        self.degree = degree
        self.weight_offset = weight_offset
        self.fiber = fiber
        self.tag = tag
        m = len(chart.base_axes)
        self._m = m
        self._indices = multi_indices(m, degree)
        self._pos = {key: i for i, key in enumerate(self._indices)}
        self.key = (tag, chart.coords, chart.ring.kind, degree, weight_offset)

    # fiber dimension of the bundle
    @property
    def fiber_dim(self) -> int:
        if self.fiber is not None:
            return self.fiber.primitive_dim(self.degree)
        return len(self._indices)

    def fiber_keys(self) -> list[tuple]:
        """The fiber parts ``(j,)`` of the basis labels ``(block, (j, mono))``."""
        return [(j,) for j in range(self.fiber_dim)]

    def _mono_labels(self, block: Block) -> list[tuple]:
        if block[0] == "w":
            if self.chart.ring.kind != "poly":
                raise UnsupportedRingOperationError("weight blocks need the poly ring")
            target = block[1] - self.degree - self.weight_offset
            return [("p", e) for e in monomials_of_weight(self.chart.weights, target)]
        mode = block[1]
        if self.chart.ring.kind != "trig":
            raise UnsupportedRingOperationError("mode blocks need the trig ring")
        if not any(mode):
            return [("c", mode)]
        return [("c", mode), ("s", mode)]

    def basis(self, truncation: Truncation) -> SectionBasis:
        labels: list[tuple] = []
        for block in truncation.blocks():
            monos = self._mono_labels(block)
            for j in range(self.fiber_dim):
                for mono in monos:
                    labels.append((block, (j, mono)))
        return SectionBasis(key=self.key + (truncation.kind,), labels=tuple(labels))

    def element(self, label: tuple) -> DifferentialForm:
        (_, (j, mono)) = label
        # a poly label ("p", exponent) carries its ring term; a trig label is one
        term = mono[1] if mono[0] == "p" else mono
        vec = self.fiber.primitive_basis(self.degree)[j] if self.fiber is not None else {j: 1}
        keys = self._indices
        return DifferentialForm._of(self.chart, self.degree, {(keys[pos], term): q for pos, q in vec.items()})

    # -- form -> coordinates ----------------------------------------------------

    def coordinates(self, form: DifferentialForm) -> dict[tuple, Rational]:
        """Nonzero coordinates of a form, keyed by basis label ``(block, (j, mono))``.

        The flat terms are grouped by monomial; each group is one fiber
        vector, read in the primitive basis.
        """
        if form.degree != self.degree:
            raise NonPrimitiveError(
                f"degree {form.degree} form in a degree {self.degree} space"
            )
        pos, weights = self._pos, self.chart.weights
        poly = self.chart.ring.kind == "poly"
        per_mono: dict[tuple[Block, tuple], dict[int, Rational]] = {}
        for (key, term), q in form.terms.items():
            idx = pos.get(key)
            if idx is None:
                raise NonPrimitiveError(f"key {key} leaves the base axes")
            if poly:
                w = self.degree + self.weight_offset + sum(map(mul, term, weights))
                label = (("w", w), ("p", term))
            else:
                # a trig term (kind, mode) is its own monomial label
                label = (("m", term[1]), term)
            # each (key, term) is stored once, so each entry is written once
            per_mono.setdefault(label, {})[idx] = q
        out: dict[tuple, Rational] = {}
        for (block, mono), vec in sorted(per_mono.items()):
            if self.fiber is not None:
                coords = enumerate(self.fiber.primitive_coords(self.degree, vec))
            else:
                coords = sorted(vec.items())
            for j, q in coords:
                if q:
                    out[(block, (j, mono))] = q
        return out

    def vector(self, form: DifferentialForm, basis: SectionBasis) -> dict[int, Rational]:
        """Coordinates of a form over a basis built by this space."""
        if not form.terms:
            return {}
        return label_vector(self.coordinates(form), basis)


class PairSpace:
    """Degree-k pairs of a two-step complex: a k-form slot and a twisted slot.

    Elements are pairs ``(phi, psi)``: a k-form and the base form of a
    twisted (k-1)-form of power one (twist weight 2), None at degree 0: the
    cochains of ``cohomology.total_complex``, and the pairs the zig-zag lifts
    classes to on a cs or a contact chart (t sits in the coefficients).
    Coordinates are read against the basis passed; the space keeps no state.
    """

    def __init__(self, chart: Chart, k: int):
        self.chart = chart
        self.a = GradedSpace(chart, k, tag="total-a")
        self.b = GradedSpace(chart, k - 1, weight_offset=2, tag="total-b")
        self.key = ("total", chart.coords, k)
        self._slots = (("a", self.a), ("b", self.b))

    def basis(self, truncation: Truncation) -> SectionBasis:
        """The one slot layout: the form slot's labels tagged ``"a"`` come
        first, the twisted slot's tagged ``"b"`` start at offset ``a.dim``."""
        labels = tuple(
            (block, (tag,) + rest)
            for tag, space in self._slots
            for block, rest in space.basis(truncation).labels
        )
        return SectionBasis(key=self.key + (truncation.kind,), labels=labels)

    def fiber_keys(self) -> list[tuple]:
        """The slot-tagged fiber parts of the basis labels, as in ``basis``."""
        return [(tag,) + key for tag, space in self._slots for key in space.fiber_keys()]

    def element(self, label) -> tuple[DifferentialForm, DifferentialForm | None]:
        block, payload = label
        slot_label = (block, payload[1:])
        if payload[0] == "a":
            return self.a.element(slot_label), None
        return zero_form(self.chart, self.a.degree), self.b.element(slot_label)

    def coordinates(self, pair) -> dict[tuple, Rational]:
        """Nonzero coordinates of a pair, keyed by slot-tagged basis label."""
        coords: dict[tuple, Rational] = {}
        for (tag, space), form in zip(self._slots, pair):
            if form is not None and form.terms:
                for (block, rest), v in space.coordinates(form).items():
                    coords[(block, (tag,) + rest)] = v
        return coords

    def vector(self, pair, basis: SectionBasis) -> dict[int, Rational]:
        return label_vector(self.coordinates(pair), basis)


def label_vector(coords: dict[tuple, Rational], basis: SectionBasis) -> dict[int, Rational]:
    """Label-keyed coordinates as a vector over ``basis``."""
    position = basis.position
    out: dict[int, Rational] = {}
    for label, q in coords.items():
        pos = position.get(label)
        if pos is None:
            raise NonPrimitiveError(f"component {label} lies outside the truncation")
        out[pos] = q
    return out


def _direct_column(domain, codomain, op, label, codomain_basis) -> dict[int, Rational]:
    """Column of one basis section: the operator applied, its image read back."""
    image = op(domain.element(label))
    try:
        return codomain.vector(image, codomain_basis)
    except NonPrimitiveError as exc:
        raise NonPrimitiveError(f"the image of {label}: {exc}") from None


def leibniz_table(owner, key, domain, codomain, op, order: int):
    """The table of an operator of order ``order``, kept in ``owner.tables`` under ``key``.

    ``owner`` is the chart the operator belongs to, and ``key`` is
    ``(operator name, k)``.  On the poly ring it is a ``symbols.LeibnizTable``,
    on the trig ring a ``symbols.ModeTable``.  The table is built on first
    use, serves every later block and column, and goes away with its owner.
    A table kept there beforehand is used as it is: ``rumin verify`` keeps
    the prefixes of its order-measuring tables (``_ProbeTable.prefix``).
    """
    table = owner.tables.get(key)
    if table is None:
        table_type = LeibnizTable if domain.chart.ring.kind == "poly" else ModeTable
        table = table_type(domain, codomain, op, order)
        owner.tables[key] = table
    return table


def operator_entries(
    domain, codomain, op, domain_basis: SectionBasis, codomain_basis: SectionBasis,
    table=None,
) -> dict[tuple[int, int], Rational]:
    """Entries of an operator's matrix over prebuilt bases.

    Without a table every column applies ``op`` to its basis section and
    reads the image back.  With one, the columns are expanded from the
    table (``symbols.LeibnizTable.columns`` or ``symbols.ModeTable.columns``), and
    rows are found by the codomain basis.  The last column of every domain
    block is also applied directly, and a disagreement (an order set too
    low, say) raises.
    """
    entries: dict[tuple[int, int], Rational] = {}
    if table is None:
        for col, label in enumerate(domain_basis.labels):
            for row, v in _direct_column(domain, codomain, op, label, codomain_basis).items():
                entries[(row, col)] = v
        return entries
    labels = domain_basis.labels
    checked = set({block: col for col, (block, _) in enumerate(labels)}.values())
    for col, column in enumerate(table.columns(labels, codomain_basis.position)):
        if col in checked:
            direct = _direct_column(domain, codomain, op, labels[col], codomain_basis)
            if column != direct:
                raise InternalConsistencyError(
                    f"expanded column {col} of block {labels[col][0]} disagrees with the "
                    f"operator applied directly (is its order {table.order} too low?)"
                )
        for row, v in column.items():
            entries[(row, col)] = v
    return entries


def assemble_operator(
    domain: GradedSpace | PairSpace,
    codomain: GradedSpace | PairSpace,
    op: Callable,
    domain_basis: SectionBasis,
    codomain_basis: SectionBasis,
    table=None,
) -> OperatorMatrix:
    """Matrix of a form-level operator over prebuilt bases (see ``operator_entries``)."""
    return OperatorMatrix(
        codomain_basis,
        domain_basis,
        operator_entries(domain, codomain, op, domain_basis, codomain_basis, table),
    )


def operator_complex(
    owner,
    name: str,
    spaces: Sequence,
    op: Callable[[int, DifferentialForm], DifferentialForm],
    order: Callable[[int], int],
    truncation: Truncation,
) -> list[OperatorMatrix]:
    """Matrices of ``op(k, .)`` from ``spaces[k]`` to ``spaces[k + 1]``, one basis per node.

    Each matrix is read off the table ``leibniz_table`` keeps on the chart
    ``owner`` under ``(name, k)``, built with the differential order
    ``order(k)`` of the operator.  An operator with no domain section in
    the truncation has no column and gets no table.
    """
    bases = [space.basis(truncation) for space in spaces]
    mats = []
    for k in range(len(spaces) - 1):
        op_k = partial(op, k)
        table = None
        if bases[k].labels:
            table = leibniz_table(owner, (name, k), spaces[k], spaces[k + 1], op_k, order(k))
        mats.append(assemble_operator(spaces[k], spaces[k + 1], op_k, bases[k], bases[k + 1], table))
    return mats


def binomial_primitive_dim(n: int, k: int) -> int:
    """C(2n,k) - C(2n,k-2) for k <= n, mirrored above the middle degree."""
    if k <= n:
        return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
    return binomial_primitive_dim(n, 2 * n - k)
