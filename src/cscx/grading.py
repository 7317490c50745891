"""Finite-dimensional truncations of graded section spaces.

Everything in scope is weight-homogeneous (poly ring, with the transversal
coordinate and any line-bundle twist counting twice) or Fourier-mode
homogeneous (trig ring, one block per real mode orbit {k, -k}, spanned by
cos and sin of that mode).  A ``Truncation`` fixes the list of grading
blocks; a ``GradedSpace`` enumerates an exact basis of a section space per
block and converts between forms and coordinate vectors (a trig term
``(kind, mode)`` is its own monomial label).

The fiberwise symplectic linear algebra (wedge by the structure two-form,
insertion of its inverse bivector, primitive subspaces, the primitive
projection, the middle-degree inverse and the full primitive
decomposition) lives in ``FiberCalculus``.  ``fiber_from_form`` keeps one
shared instance per ``(n, signature)`` of the constant structure form, so
the contact and cs sides resolve the same object; each fiber map is built
once on it as a sparse ``FiberMap``, applied to fiber vectors by
``FiberMap.apply`` and to forms by ``fiber_apply``.  Every fiber solve is
an ``Echelon``: the decomposition at a degree is one echelon of the
embedded primitive bases, and each component map (the primitive projection
is the first) reads the unit vectors' coordinates off it.  Sign
conventions are those of the forms module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .coefficients import (
    Coefficient,
    PolyCoefficient,
    Rational,
    TrigCoefficient,
    canon,
    canonical_mode,
)
from .errors import (
    ConfigError,
    CsStructureError,
    InternalConsistencyError,
    NonPrimitiveError,
    UnsupportedRingOperationError,
)
from .forms import (
    Chart,
    DifferentialForm,
    MultiIndex,
    contract_axis,
    merge_wedge,
)
from .linalg import (
    Echelon,
    OperatorMatrix,
    SectionBasis,
    sparse_nullspace,
)

Block = tuple  # ("w", weight) | ("m", mode-tuple)
FiberVector = dict[int, Rational]  # over positions in multi_indices(m, k)


def multi_indices(m: int, k: int) -> list[MultiIndex]:
    """All strictly increasing k-tuples from range(m), lexicographic."""
    if k < 0 or k > m:
        return []
    if k == 0:
        return [()]
    out: list[MultiIndex] = []

    def rec(prefix: tuple[int, ...], start: int) -> None:
        if len(prefix) == k:
            out.append(prefix)
            return
        for a in range(start, m - (k - len(prefix)) + 1):
            rec(prefix + (a,), a + 1)

    rec((), 0)
    return out


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
        self._decomp: dict[int, tuple[list[tuple[int, int]], Echelon]] = {}
        self._components: dict[int, list[tuple[int, int, FiberMap]]] = {}
        self._inverse_bivector: dict[tuple[int, int], Rational] | None = None

    # -- bases ---------------------------------------------------------------

    def indices(self, k: int) -> list[MultiIndex]:
        if k not in self._indices:
            self._indices[k] = multi_indices(self.m, k)
            self._positions[k] = {key: i for i, key in enumerate(self._indices[k])}
        return self._indices[k]

    def position(self, k: int, key: MultiIndex) -> int:
        self.indices(k)
        return self._positions[k][key]

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
                    row = self.position(k + 2, new_key)
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
                for (a, b), v in P.items():
                    first = contract_axis(key, a)
                    if first is None:
                        continue
                    s1, mid = first
                    second = contract_axis(mid, b)
                    if second is None:
                        continue
                    s2, new_key = second
                    row = self.position(k - 2, new_key)
                    entry = (row, col)
                    entries[entry] = entries.get(entry, 0) + v * s1 * s2
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
        """Coordinates of a fiber vector in the primitive basis (must lie in it)."""
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
    """Apply a fiber map to the multi-index coordinates of a form."""
    out_keys = fib.indices(out_degree)
    accum: dict[MultiIndex, object] = {}
    for key, coeff in form.terms.items():
        for row, q in entries.columns.get(fib.position(form.degree, key), ()):
            out_key = out_keys[row]
            piece = coeff.scale(q)
            accum[out_key] = accum[out_key] + piece if out_key in accum else piece
    return DifferentialForm(form.chart, out_degree, accum, validated=True)


def is_primitive(fib: FiberCalculus, form: DifferentialForm) -> bool:
    """The primitivity test: the primitive projection fixes the form."""
    return fiber_apply(fib, fib.pi0_map(form.degree), form, form.degree) == form


_SHARED_FIBERS: dict[tuple, FiberCalculus] = {}


def fiber_from_form(omega: DifferentialForm, n: int) -> FiberCalculus:
    """The shared fiber calculus of a constant-coefficient structure two-form.

    The weight grading this toolkit relies on forces the structure form to
    have constant coefficients; anything else is rejected here.  Forms with
    the same ``(n, signature)`` -- the signature being the sorted constant
    terms -- share one ``FiberCalculus``, built on the first request.
    """
    if omega.degree != 2:
        raise CsStructureError("structure form must have degree 2")
    terms: dict[tuple[int, int], Rational] = {}
    for key, coeff in omega.terms.items():
        if any(a >= 2 * n for a in key):
            raise CsStructureError("structure form must live on the base axes")
        if not coeff.is_constant():
            raise CsStructureError(
                "structure form must have constant coefficients for graded truncation"
            )
        terms[key] = coeff.constant_part()
    key = (n, tuple(sorted(terms.items())))
    if key not in _SHARED_FIBERS:
        _SHARED_FIBERS[key] = FiberCalculus(2 * n, n, terms)
    return _SHARED_FIBERS[key]


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
        per_block: dict[tuple[Block, tuple], FiberVector] = {}
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


def assemble_operator(
    domain: GradedSpace,
    codomain: GradedSpace,
    op: Callable[[DifferentialForm], DifferentialForm],
    domain_basis: SectionBasis,
    codomain_basis: SectionBasis,
) -> OperatorMatrix:
    """Matrix of a form-level operator over prebuilt bases.

    The operator is applied to every basis section and the image expanded in
    the codomain basis, so block-diagonality is observed, never assumed.
    """
    entries: dict[tuple[int, int], Rational] = {}
    for col, label in enumerate(domain_basis.labels):
        image = op(domain.element(label))
        if image.is_zero():
            continue
        for row, v in codomain.vector(image, codomain_basis).items():
            entries[(row, col)] = v
    return OperatorMatrix(codomain_basis, domain_basis, entries)


def binomial_primitive_dim(n: int, k: int) -> int:
    """C(2n,k) - C(2n,k-2) for k <= n, mirrored above the middle degree."""
    if k <= n:
        return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
    return binomial_primitive_dim(n, 2 * n - k)
