"""Finite-dimensional truncations of graded section spaces.

Everything in scope is weight-homogeneous (poly ring, with the transversal
coordinate and any line-bundle twist counting twice) or Fourier-mode
homogeneous (trig ring, where modes are grouped into real {k, -k} orbits so
all matrices stay over the rationals).  A ``Truncation`` fixes the list of
grading blocks; a ``GradedSpace`` enumerates an exact basis of a section
space per block and converts between forms and coordinate vectors.

The fiberwise symplectic linear algebra (wedge by the structure two-form,
insertion of its inverse bivector, primitive subspaces, the primitive
projection, the middle-degree inverse and the full primitive
decomposition) lives in ``FiberCalculus``.  ``fiber_from_form`` keeps one
shared instance per ``(n, signature)`` of the constant structure form, so
the contact and cs sides resolve the same object; each fiber map is built
once on it as a sparse ``FiberMap`` and applied to forms by
``fiber_apply``.  Sign conventions are those of the forms module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .coefficients import (
    Coefficient,
    PolyCoefficient,
    TrigCoefficient,
    canonical_mode,
    trig_cos,
    trig_sin,
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
    dense_inverse,
    sparse_nullspace,
)

Block = tuple  # ("w", weight) | ("m", mode-tuple)
FiberVector = dict[int, Fraction]  # over positions in multi_indices(m, k)


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

    def __init__(self, entries: dict[tuple[int, int], Fraction]):
        super().__init__((e, v) for e, v in entries.items() if v)
        self.columns: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in self.items():
            self.columns.setdefault(c, []).append((r, v))


class FiberCalculus:
    """Pointwise symplectic linear algebra for one constant structure two-form.

    ``omega_terms`` maps ordered axis pairs (a, b), a < b, to rational
    values; the form must be constant-coefficient and nondegenerate on the
    m = 2n base axes.
    """

    def __init__(self, m: int, n: int, omega_terms: dict[tuple[int, int], Fraction]):
        self.m = m
        self.n = n
        self.omega = {k: Fraction(v) for k, v in omega_terms.items() if v}
        self._indices: dict[int, list[MultiIndex]] = {}
        self._positions: dict[int, dict[MultiIndex, int]] = {}
        self._wedge: dict[int, FiberMap] = {}
        self._insert: dict[int, FiberMap] = {}
        self._pi0: dict[int, FiberMap] = {}
        self._middle_inverse: FiberMap | None = None
        self._primitive: dict[int, list[FiberVector]] = {}
        self._primitive_span: dict[int, Echelon] = {}
        self._decomp: dict[int, tuple[list[tuple[int, int]], list[list[Fraction]]]] = {}
        self._inverse_bivector: dict[tuple[int, int], Fraction] | None = None

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

    def inverse_bivector(self) -> dict[tuple[int, int], Fraction]:
        """Bivector P with pairing against the two-form equal to n (blockwise 1)."""
        if self._inverse_bivector is None:
            A = [[Fraction(0)] * self.m for _ in range(self.m)]
            for (a, b), v in self.omega.items():
                A[a][b] = v
                A[b][a] = -v
            try:
                Ainv = dense_inverse(A)
            except InternalConsistencyError:
                raise CsStructureError("structure two-form is degenerate") from None
            P: dict[tuple[int, int], Fraction] = {}
            for a in range(self.m):
                for b in range(a + 1, self.m):
                    v = -Ainv[a][b]
                    if v:
                        P[(a, b)] = v
            self._inverse_bivector = P
        return self._inverse_bivector

    def wedge_map(self, k: int) -> FiberMap:
        """Matrix of (two-form ^ .) from degree k to degree k + 2."""
        if k not in self._wedge:
            rows = self.indices(k + 2)
            entries: dict[tuple[int, int], Fraction] = {}
            for col, key in enumerate(self.indices(k)):
                for (a, b), v in self.omega.items():
                    merged = merge_wedge((a, b), key)
                    if merged is None:
                        continue
                    sign, new_key = merged
                    row = self.position(k + 2, new_key)
                    entry = (row, col)
                    entries[entry] = entries.get(entry, Fraction(0)) + v * sign
            self._wedge[k] = FiberMap(entries)
        return self._wedge[k]

    def insertion_map(self, k: int) -> FiberMap:
        """Matrix of inserting the inverse bivector, degree k to k - 2."""
        if k not in self._insert:
            P = self.inverse_bivector()
            entries: dict[tuple[int, int], Fraction] = {}
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
                    entries[entry] = entries.get(entry, Fraction(0)) + v * s1 * s2
            self._insert[k] = FiberMap(entries)
        return self._insert[k]

    def middle_inverse(self) -> FiberMap:
        """Inverse of the bijective wedge from degree n - 1 to degree n + 1."""
        if self._middle_inverse is None:
            size = self.dim(self.n - 1)
            dense = [[Fraction(0)] * size for _ in range(size)]
            for (r, c), v in self.wedge_map(self.n - 1).items():
                dense[r][c] = v
            inv = dense_inverse(dense)
            self._middle_inverse = FiberMap(
                {(r, c): inv[r][c] for r in range(size) for c in range(size)}
            )
        return self._middle_inverse

    def apply_map(
        self, entries: dict[tuple[int, int], Fraction], vec: FiberVector
    ) -> FiberVector:
        out: dict[int, Fraction] = {}
        for (r, c), v in entries.items():
            x = vec.get(c)
            if x:
                out[r] = out.get(r, Fraction(0)) + v * x
        return {r: v for r, v in out.items() if v}

    # -- primitive subspaces -----------------------------------------------------

    def primitive_basis(self, k: int) -> list[FiberVector]:
        """Kernel of insertion for k <= n, kernel of wedging for k > n."""
        if k not in self._primitive:
            if k < 0 or k > self.m:
                self._primitive[k] = []
            elif k <= 1:
                self._primitive[k] = [
                    {i: Fraction(1)} for i in range(self.dim(k))
                ]
            else:
                if k <= self.n:
                    entries = self.insertion_map(k)
                    nrows = self.dim(k - 2)
                else:
                    entries = self.wedge_map(k)
                    nrows = self.dim(k + 2)
                kernel = sparse_nullspace(entries, nrows, self.dim(k))
                self._primitive[k] = [dict(sorted(vec.items())) for vec in kernel]
        return self._primitive[k]

    def primitive_dim(self, k: int) -> int:
        return len(self.primitive_basis(k))

    def primitive_coords(self, k: int, vec: FiberVector) -> list[Fraction]:
        """Coordinates of a fiber vector in the primitive basis (must lie in it)."""
        if k not in self._primitive_span:
            self._primitive_span[k] = Echelon(self.primitive_basis(k))
        coords = self._primitive_span[k].coords(vec)
        if coords is None:
            raise NonPrimitiveError(f"fiber vector at degree {k} is not primitive")
        return [coords.get(j, Fraction(0)) for j in range(self.primitive_dim(k))]

    # -- full primitive decomposition ----------------------------------------------

    def decomposition(self, k: int) -> tuple[list[tuple[int, int]], list[list[Fraction]]]:
        """Change of basis realizing the primitive decomposition at degree k.

        Returns ``(slots, inverse)`` where ``slots`` lists, per component,
        the primitive degree and the twist step (+1 per wedge embedding for
        k <= n, -1 per insertion embedding for k > n), and ``inverse`` maps
        a fiber vector to coordinates over the concatenated embedded
        primitive bases.
        """
        if k not in self._decomp:
            columns: list[FiberVector] = []
            slots: list[tuple[int, int]] = []
            if k <= self.n:
                i = 0
                while k - 2 * i >= 0:
                    src = k - 2 * i
                    for vec in self.primitive_basis(src):
                        embedded = vec
                        for step in range(i):
                            embedded = self.apply_map(self.wedge_map(src + 2 * step), embedded)
                        columns.append(embedded)
                    slots.append((src, i))
                    i += 1
            else:
                j = 0
                while k + 2 * j <= self.m:
                    src = k + 2 * j
                    for vec in self.primitive_basis(src):
                        embedded = vec
                        for step in range(j):
                            embedded = self.apply_map(
                                self.insertion_map(src - 2 * step), embedded
                            )
                        columns.append(embedded)
                    slots.append((src, -j))
                    j += 1
            size = self.dim(k)
            if len(columns) != size:
                raise InternalConsistencyError(
                    f"decomposition at degree {k} has {len(columns)} columns, expected {size}"
                )
            dense = [
                [columns[j].get(i, Fraction(0)) for j in range(size)] for i in range(size)
            ]
            self._decomp[k] = (slots, dense_inverse(dense))
        return self._decomp[k]

    def decompose(self, k: int, vec: FiberVector) -> list[tuple[int, int, list[Fraction]]]:
        """Split a fiber vector into primitive components.

        Returns triples (source_degree, twist_step, coords in the primitive
        basis of the source degree).
        """
        slots, inverse = self.decomposition(k)
        size = self.dim(k)
        coords = [
            sum((inverse[i][j] * vec.get(j, Fraction(0)) for j in vec), Fraction(0))
            for i in range(size)
        ]
        out = []
        offset = 0
        for src, twist in slots:
            p = self.primitive_dim(src)
            out.append((src, twist, coords[offset : offset + p]))
            offset += p
        return out

    def pi0_map(self, k: int) -> FiberMap:
        """Matrix of the primitive projection at degree k.

        Column j is the first decomposition component of the j-th unit
        vector, re-embedded through the primitive basis.
        """
        if k not in self._pi0:
            _, inverse = self.decomposition(k)
            entries: dict[tuple[int, int], Fraction] = {}
            for j, vec in enumerate(self.primitive_basis(k)):
                for col, c in enumerate(inverse[j]):
                    for i, v in vec.items():
                        entries[(i, col)] = entries.get((i, col), Fraction(0)) + c * v
            self._pi0[k] = FiberMap(entries)
        return self._pi0[k]

    def pi0(self, k: int, vec: FiberVector) -> FiberVector:
        """Primitive component of a fiber vector at degree k."""
        return self.apply_map(self.pi0_map(k), vec)


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
    terms: dict[tuple[int, int], Fraction] = {}
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
            canon = tuple(canonical_mode(m) for m in self.modes)
            object.__setattr__(self, "modes", canon)
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
            return [("p", e) for e in monomials_of_weight(self.chart.var_weights(), target)]
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
        kind = mono[0]
        if kind == "p":
            return PolyCoefficient(self.chart.ring.nvars, {mono[1]: Fraction(1)})
        if kind == "c":
            return trig_cos(self.chart.ring, mono[1])
        return trig_sin(self.chart.ring, mono[1])

    def element(self, label: tuple) -> DifferentialForm:
        (_, (j, mono)) = label
        coeff = self._mono_coefficient(mono)
        if self.fiber is not None:
            vec = self.fiber.primitive_basis(self.degree)[j]
        else:
            vec = {j: Fraction(1)}
        terms = {}
        for pos, q in vec.items():
            terms[self._indices[pos]] = coeff.scale(q)
        return DifferentialForm(self.chart, self.degree, terms, validated=True)

    # -- form -> coordinates ----------------------------------------------------

    def _coeff_blocks(self, coeff: Coefficient) -> dict[Block, dict[tuple, Fraction]]:
        """Split one coefficient into {block: {mono_label: scalar}} pieces."""
        out: dict[Block, dict[tuple, Fraction]] = {}
        if isinstance(coeff, PolyCoefficient):
            weights = self.chart.var_weights()
            for exp, q in coeff.terms.items():
                w = self.degree + self.weight_offset + sum(
                    e * wt for e, wt in zip(exp, weights)
                )
                out.setdefault(("w", w), {})[("p", exp)] = q
        elif isinstance(coeff, TrigCoefficient):
            for mode, part in coeff.mode_split().items():
                coeffs: dict[tuple, Fraction] = {}
                if not any(mode):
                    c0 = part.terms.get(mode)
                    if c0 is not None:
                        if c0.im != 0:
                            raise InternalConsistencyError("nonreal constant mode")
                        coeffs[("c", mode)] = c0.re
                else:
                    mirror = tuple(-x for x in mode)
                    c = part.terms.get(mode)
                    if c is None:
                        c = part.terms[mirror].conj()
                    elif part.terms.get(mirror) != c.conj():
                        raise InternalConsistencyError(
                            f"section is not real at mode {mode}"
                        )
                    a = 2 * c.re
                    b = -2 * c.im
                    if a:
                        coeffs[("c", mode)] = a
                    if b:
                        coeffs[("s", mode)] = b
                if coeffs:
                    out[("m", mode)] = coeffs
        else:
            raise UnsupportedRingOperationError("unknown coefficient type")
        return out

    def coordinates(self, form: DifferentialForm) -> dict[tuple, Fraction]:
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
                    vec[idx] = vec.get(idx, Fraction(0)) + q
        out: dict[tuple, Fraction] = {}
        for (block, mono), vec in sorted(per_block.items()):
            vec = {i: v for i, v in vec.items() if v}
            if not vec:
                continue
            if self.fiber is not None:
                coords = self.fiber.primitive_coords(self.degree, vec)
            else:
                coords = [vec.get(i, Fraction(0)) for i in range(len(self._indices))]
            for j, q in enumerate(coords):
                if q:
                    out[(block, (j, mono))] = q
        return out

    def vector(self, form: DifferentialForm, basis: SectionBasis) -> dict[int, Fraction]:
        """Coordinates of a form over a basis built by this space."""
        return label_vector(self.coordinates(form), basis)


def label_vector(coords: dict[tuple, Fraction], basis: SectionBasis) -> dict[int, Fraction]:
    """Label-keyed coordinates as a vector over ``basis``."""
    position = basis.position
    out: dict[int, Fraction] = {}
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
    entries: dict[tuple[int, int], Fraction] = {}
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
