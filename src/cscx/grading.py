"""Finite-dimensional truncations of graded section spaces.

Everything in scope is weight-homogeneous (poly ring, with the transversal
coordinate and any line-bundle twist counting twice) or Fourier-mode
homogeneous (trig ring, one block per real mode orbit {k, -k}, spanned by
cos and sin of that mode).  A ``Truncation`` fixes the list of grading
blocks; a ``GradedSpace`` enumerates an exact basis of a section space per
block and converts between forms and coordinate vectors (a trig term
``(kind, mode)`` is its own monomial label).

Primitive sections read their fiber coordinates through their chart's
``lefschetz.FiberCalculus``.  ``operator_complex`` is the one builder of
operator complexes: it builds each node's basis once and assembles the
operator from every node to the next.  A polynomial operator of known
differential order is assembled from its values on a few probe sections:
its ``LeibnizTable`` holds the iterated commutators with the coordinates
applied to each constant fiber basis section, kept on the chart, and
every column is a sum of shifted table values (Grothendieck, EGA IV 16.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement
from math import comb
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .coefficients import (
    Coefficient,
    PolyCoefficient,
    Rational,
    TrigCoefficient,
    canonical_mode,
)
from .errors import (
    ConfigError,
    InternalConsistencyError,
    NonPrimitiveError,
    UnsupportedRingOperationError,
)
from .forms import Chart, DifferentialForm, multi_indices

# the traced benchmark wraps the fiber layer under these grading names
from .lefschetz import FiberCalculus, fiber_apply, fiber_from_form  # noqa: F401
from .linalg import OperatorMatrix, SectionBasis

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
# admits affine n=3 w<=8 and n=4 w<=6 (40,081 each), contact n=2 w<=12
# (30,303) and every reference command; affine n=2 w<=40 has 1,797,441 and
# torus n=7 at sup-norm 3 about 1.1e16
_MAX_SECTION_DIM = 50_000


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

    def _mono_coefficient(self, mono: tuple) -> Coefficient:
        if mono[0] == "p":
            return PolyCoefficient(self.chart.ring.nvars, {mono[1]: 1})
        return TrigCoefficient(self.chart.ring.nvars, {mono: 1})

    def element(self, label: tuple) -> DifferentialForm:
        (_, (j, mono)) = label
        coeff = self._mono_coefficient(mono)
        if self.fiber is not None:
            vec = self.fiber.primitive_basis(self.degree)[j]
        else:
            vec = {j: 1}
        terms = {}
        for pos, q in vec.items():
            terms[self._indices[pos]] = coeff.scale(q)
        return DifferentialForm(self.chart, self.degree, terms, validated=True)

    # -- form -> coordinates ----------------------------------------------------

    def _coeff_blocks(self, coeff: Coefficient) -> dict[Block, dict[tuple, Rational]]:
        """Split one coefficient into {block: {mono_label: scalar}} pieces."""
        out: dict[Block, dict[tuple, Rational]] = {}
        if isinstance(coeff, PolyCoefficient):
            weights = self.chart.weights
            for exp, q in coeff.terms.items():
                w = self.degree + self.weight_offset + sum(
                    e * wt for e, wt in zip(exp, weights)
                )
                out.setdefault(("w", w), {})[("p", exp)] = q
        elif isinstance(coeff, TrigCoefficient):
            # a trig term (kind, mode) is its own monomial label
            for label, q in coeff.terms.items():
                out.setdefault(("m", label[1]), {})[label] = q
        else:
            raise UnsupportedRingOperationError("unknown coefficient type")
        return out

    def coordinates(self, form: DifferentialForm) -> dict[tuple, Rational]:
        """Nonzero coordinates of a form, keyed by basis label ``(block, (j, mono))``."""
        if form.degree != self.degree:
            raise NonPrimitiveError(
                f"degree {form.degree} form in a degree {self.degree} space"
            )
        per_block: dict[tuple[Block, tuple], dict[int, Rational]] = {}
        for key, coeff in form.terms.items():
            idx = self._pos.get(key)
            if idx is None:
                raise NonPrimitiveError(f"key {key} leaves the base axes")
            for block, monos in self._coeff_blocks(coeff).items():
                for mono, q in monos.items():
                    vec = per_block.setdefault((block, mono), {})
                    vec[idx] = vec.get(idx, 0) + q
        out: dict[tuple, Rational] = {}
        for (block, mono), vec in sorted(per_block.items()):
            vec = {i: v for i, v in vec.items() if v}
            if not vec:
                continue
            if self.fiber is not None:
                coords = self.fiber.primitive_coords(self.degree, vec)
            else:
                coords = [vec.get(i, 0) for i in range(len(self._indices))]
            for j, q in enumerate(coords):
                if q:
                    out[(block, (j, mono))] = q
        return out

    def vector(self, form: DifferentialForm, basis: SectionBasis) -> dict[int, Rational]:
        """Coordinates of a form over a basis built by this space."""
        if not form.terms:
            return {}
        return label_vector(self.coordinates(form), basis)


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
    return codomain.vector(op(domain.element(label)), codomain_basis)


def _item_key(label: tuple) -> tuple:
    """``(block weight, fiber key, exponent)`` of a poly basis label.

    A label is ``(("w", weight), fiber key + (("p", exponent),))``; the
    fiber key is ``(j,)`` for a ``GradedSpace`` and ``(slot, j)`` for a
    space of pairs.
    """
    block, rest = label
    return block[1], rest[:-1], rest[-1][1]


def _shifted(exp: tuple[int, ...], axis: int) -> tuple[int, ...]:
    return exp[:axis] + (exp[axis] + 1,) + exp[axis + 1 :]


class WordValues:
    """Memoized commutator words of one operator with the coordinates, in coordinates.

    For the domain section x^m v (fiber key ``key``, exponent m) and a
    sorted word of chart axes,

        W(key, m, (a,) + w) = W(key, x_a.m, w) - x_a.W(key, m, w),
        W(key, m, ())       = coords(op(x^m v)),

    so W(key, m, word) is the iterated commutator [...[op, x_a1], ...]
    applied to x^m v.  A value is ``{(block weight, fiber key, exponent):
    q}`` over the codomain basis.  Multiplying by a monomial only shifts
    exponents and weights (the fiber basis is constant), so the recurrence
    never touches a form, and ``op`` runs once per probe ``(key, m)``.
    """

    def __init__(self, domain, codomain, op):
        self.domain = domain
        self.codomain = codomain
        self.op = op
        self.weights = domain.chart.weights
        self._memo: dict[tuple, dict[tuple, Rational]] = {}

    def __call__(self, key: tuple, exp: tuple[int, ...], word: tuple[int, ...]) -> dict:
        memo_key = (key, exp, word)
        value = self._memo.get(memo_key)
        if value is None:
            if not word:
                image = self.op(self.domain.element((None, key + (("p", exp),))))
                coords = self.codomain.coordinates(image)
                value = {_item_key(label): q for label, q in coords.items()}
            else:
                a, rest = word[0], word[1:]
                value = dict(self(key, _shifted(exp, a), rest))
                step = self.weights[a]
                for (w, fiber_key, e), q in self(key, exp, rest).items():
                    item = (w + step, fiber_key, _shifted(e, a))
                    v = value.get(item, 0) - q
                    if v:
                        value[item] = v
                    else:
                        del value[item]
            self._memo[memo_key] = value
        return value


class LeibnizTable:
    """The values coords((ad^b op) v) of one operator of differential order r.

    One value per fiber key v of the domain and multi-index b with |b| <= r,
    b written as a sorted word of chart axes: W(v, 1, b) of ``WordValues``,
    so ``op`` runs only on the probes x^c v with |c| <= r, whatever the
    weight bound.  The table keeps nothing else: per fiber key, one flat
    tuple ``(word, base weight, fiber key, exponent, value, word, ...)`` of
    the items of its nonzero values, with words, fiber keys and exponents
    shared.  The base weight is the item's block weight less the weight of
    the word, so the item of x^(a-b) (ad^b op)(v) lies in block base +
    weight(a).
    """

    __slots__ = ("order", "weights", "rows")

    def __init__(self, domain, codomain, op, order: int):
        self.order = order
        self.weights = domain.chart.weights
        zero = (0,) * len(self.weights)
        words = [
            word
            for length in range(order + 1)
            for word in combinations_with_replacement(range(len(self.weights)), length)
        ]
        shared: dict[tuple, tuple] = {}
        self.rows: dict[tuple, tuple] = {}
        for key in domain.fiber_keys():
            # one memo per fiber key: the words of distinct keys share no value
            values = WordValues(domain, codomain, op)
            row: list = []
            for word in words:
                drop = sum(self.weights[axis] for axis in word)
                for (w, fiber_key, e), q in values(key, zero, word).items():
                    fiber_key, e = shared.setdefault(fiber_key, fiber_key), shared.setdefault(e, e)
                    row += (word, w - drop, fiber_key, e, q)
            self.rows[key] = tuple(row)


def leibniz_table(owner, key, domain, codomain, op, order: int) -> LeibnizTable | None:
    """The Leibniz table kept in ``owner.tables`` under ``key``; None off the poly ring.

    ``owner`` is the chart the operator belongs to, and ``key`` is
    ``(operator name, k)``.  The table is built on first use, serves every
    later block and column, and goes away with its owner.  Trig blocks are
    small and keep per-column assembly.
    """
    if domain.chart.ring.kind != "poly":
        return None
    table = owner.tables.get(key)
    if table is None:
        table = owner.tables[key] = LeibnizTable(domain, codomain, op, order)
    return table


def _leibniz_term(exp: tuple[int, ...], word: tuple[int, ...]):
    """``(C(a, b), a - b)`` at x^a for the multi-index b of a sorted word.

    None unless b <= a, that is, unless x^b divides x^a.  Each letter
    raises one b_i, and C(a_i, b_i + 1) = C(a_i, b_i) (a_i - b_i) / (b_i + 1).
    """
    shift = list(exp)
    coeff = 1
    for axis in word:
        s = shift[axis]
        if not s:
            return None
        coeff = coeff * s // (exp[axis] - s + 1)
        shift[axis] = s - 1
    return coeff, tuple(shift)


def operator_entries(
    domain, codomain, op, domain_basis: SectionBasis, codomain_basis: SectionBasis,
    table: LeibnizTable | None = None,
) -> dict[tuple[int, int], Rational]:
    """Entries of an operator's matrix over prebuilt bases.

    Without a table every column applies ``op`` to its basis section and
    reads the image back.  With one, the column of x^a v is the Leibniz
    expansion of an operator of order r,

        op(x^a v) = sum over b <= a, |b| <= r of C(a, b) x^(a-b) (ad^b op)(v),

    a sum of shifted table values.  Each target block is recomputed from
    the shifted exponent and the chart weights, and rows are found by the
    codomain basis, so block-diagonality is observed, never assumed.  The
    last column of every domain block is also applied directly, and a
    disagreement (an order set too low, say) raises.
    """
    entries: dict[tuple[int, int], Rational] = {}
    if table is None:
        for col, label in enumerate(domain_basis.labels):
            for row, v in _direct_column(domain, codomain, op, label, codomain_basis).items():
                entries[(row, col)] = v
        return entries
    position = codomain_basis.position
    checked = set({block: col for col, (block, _) in enumerate(domain_basis.labels)}.values())
    for col, (block, rest) in enumerate(domain_basis.labels):
        exp = rest[-1][1]
        weight = sum(map(mul, exp, table.weights))
        column: dict[int, Rational] = {}
        items = iter(table.rows[rest[:-1]])
        # the items of one word are consecutive
        last_word = term = None
        for word, base, fiber_key, e, q in zip(items, items, items, items, items):
            if word != last_word:
                last_word, term = word, _leibniz_term(exp, word)
            if term is None:
                continue
            coeff, shift = term
            # x^(a-b) raises the item's weight by weight(a) - weight(b)
            label = (("w", base + weight), fiber_key + (("p", tuple(map(add, e, shift))),))
            row = position.get(label)
            if row is None:
                raise NonPrimitiveError(f"component {label} lies outside the truncation")
            column[row] = column.get(row, 0) + coeff * q
        column = {row: v for row, v in column.items() if v}
        if col in checked:
            direct = _direct_column(domain, codomain, op, domain_basis.labels[col], codomain_basis)
            if column != direct:
                raise InternalConsistencyError(
                    f"expanded column {col} of block {block} disagrees with the operator "
                    f"applied directly (is its order {table.order} too low?)"
                )
        for row, v in column.items():
            entries[(row, col)] = v
    return entries


def assemble_operator(
    domain: GradedSpace,
    codomain: GradedSpace,
    op: Callable[[DifferentialForm], DifferentialForm],
    domain_basis: SectionBasis,
    codomain_basis: SectionBasis,
    table: LeibnizTable | None = None,
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
    order: Callable[[int], int] | None,
    truncation: Truncation,
) -> list[OperatorMatrix]:
    """Matrices of ``op(k, .)`` from ``spaces[k]`` to ``spaces[k + 1]``, one basis per node.

    With ``order`` (the differential order ``order(k)`` of each operator),
    a poly-ring matrix is read off the Leibniz table kept on the chart
    ``owner`` under ``(name, k)``; without it, every column applies the
    operator directly.
    """
    bases = [space.basis(truncation) for space in spaces]
    mats = []
    for k in range(len(spaces) - 1):
        op_k = partial(op, k)
        table = None
        if order is not None:
            table = leibniz_table(owner, (name, k), spaces[k], spaces[k + 1], op_k, order(k))
        mats.append(assemble_operator(spaces[k], spaces[k + 1], op_k, bases[k], bases[k + 1], table))
    return mats


def binomial_primitive_dim(n: int, k: int) -> int:
    """C(2n,k) - C(2n,k-2) for k <= n, mirrored above the middle degree."""
    if k <= n:
        return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
    return binomial_primitive_dim(n, 2 * n - k)
