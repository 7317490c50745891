"""Exact cohomology of the truncated complexes and the long exact sequence.

All operators in scope are homogeneous for the grading, so complexes split
into independent blocks (one per weight, or per Fourier orbit on the
torus); every block is finite-dimensional and all ranks are exact over the
rationals.  Cohomology dimensions, representatives, induced maps on
cohomology, the degreewise splice of de Rham into the total complex, and
the long exact sequence with its connecting map are all computed at the
cochain level and verified node by node.

On the torus, operators have constant coefficients and preserve modes; the
reported cohomology is the constant-mode block, and every sampled nonzero
mode is verified to contribute nothing (an exact rank computation per
mode, not an assumption).  On the affine model a stabilization detector
compares the dimensions reported at the weight bound against the bound
minus two and flags disagreement instead of silently reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .descent import (
    nabla_twisted_d,
    rs_complex,
    total_differential,
    total_element,
)
from .errors import InternalConsistencyError, NotAComplexError
from .forms import wedge, zero_form
from .grading import (
    GradedSpace,
    SectionBasis,
    Truncation,
    mode_truncation,
    sample_modes,
    weight_truncation,
)
from .lefschetz import CsChart, TwistedForm
from .linalg import Echelon, OperatorMatrix, sparse_nullspace, sparse_rank

__all__ = [
    "OperatorMatrix",
    "SectionBasis",
    "Truncation",
    "weight_truncation",
    "mode_truncation",
    "sample_modes",
    "cohomology_dims",
    "CochainQuotient",
    "de_rham_complex",
    "twisted_complex",
    "total_complex",
    "short_exact_splice",
    "les_check",
    "rs_cohomology",
    "CohomologyReport",
]


def cohomology_dims(complex_maps: list[OperatorMatrix], rank_method: str = "exact") -> list[int]:
    """Per-node cohomology dimensions of a finite complex of matrices.

    ``complex_maps`` lists the differentials d_0, ..., d_{m-1}; consecutive
    pairs are verified to compose to zero before any rank is taken.
    """
    if not complex_maps:
        return []
    for i in range(len(complex_maps) - 1):
        if not complex_maps[i + 1].compose(complex_maps[i]).is_zero():
            raise NotAComplexError(i)
    ranks = [m.rank(method=rank_method) for m in complex_maps]
    dims = []
    for i in range(len(complex_maps) + 1):
        if i < len(complex_maps):
            kernel = complex_maps[i].cols.dim - ranks[i]
        else:
            kernel = complex_maps[-1].rows.dim
        incoming = ranks[i - 1] if i > 0 else 0
        dims.append(kernel - incoming)
    return dims


class CochainQuotient:
    """Cohomology at one node, with explicit representative vectors.

    Built from the incoming and outgoing differentials of the node; the
    representatives extend a basis of the image to a basis of the kernel,
    chosen deterministically by leftmost pivoting.  One ``Echelon`` holds
    the image columns followed by the representatives, so class
    coordinates are a single reduction against it.
    """

    def __init__(
        self,
        d_in: OperatorMatrix | None,
        d_out: OperatorMatrix | None,
        space_dim: int,
    ):
        if d_out is not None:
            kernel = d_out.nullspace()
        else:
            kernel = [{i: Fraction(1)} for i in range(space_dim)]
        self._span = Echelon()
        if d_in is not None:
            image_cols: dict[int, dict[int, Fraction]] = {}
            for (r, c), v in d_in.entries.items():
                image_cols.setdefault(c, {})[r] = v
            for c in sorted(image_cols):
                self._span.add(image_cols[c])
        self._image_rank = len(self._span)
        # representatives: kernel vectors independent modulo the image
        self.reps = [vec for vec in kernel if self._span.add(vec)]
        self.dim = len(self.reps)

    def coords(self, vec: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """Class coordinates of a cocycle over the representatives."""
        coords = self._span.coords(vec)
        if coords is None:
            return None
        offset = self._image_rank
        return {j - offset: v for j, v in coords.items() if j >= offset}

    def induced_matrix(self, push, target: "CochainQuotient") -> dict[tuple[int, int], Fraction]:
        """Matrix of a chain map on cohomology (push maps vectors to vectors)."""
        out: dict[tuple[int, int], Fraction] = {}
        for j, rep in enumerate(self.reps):
            image = push(rep)
            coords = target.coords(image)
            if coords is None:
                raise InternalConsistencyError("chain map image is not a cocycle")
            for i, v in coords.items():
                out[(i, j)] = v
        return out


def _in_span(vectors, vec) -> bool:
    return Echelon(vectors).coords(vec) is not None


# -- complex builders -------------------------------------------------------------


def de_rham_complex(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """The truncated de Rham complex of the chart."""
    spaces, bases = _form_spaces(cs, truncation, twist=0)
    mats = []
    for k in range(2 * cs.n):
        mats.append(
            _assemble(spaces[k], spaces[k + 1], bases[k], bases[k + 1], lambda f: f.d())
        )
    return mats


def twisted_complex(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """The twisted de Rham complex (flat derivative on the twisted factor)."""
    spaces, bases = _form_spaces(cs, truncation, twist=1)
    mats = []
    for k in range(2 * cs.n):
        op = lambda f: nabla_twisted_d(cs, TwistedForm(f, 1)).base  # noqa: E731
        mats.append(_assemble(spaces[k], spaces[k + 1], bases[k], bases[k + 1], op))
    return mats


def _form_spaces(cs: CsChart, truncation: Truncation, twist: int):
    spaces = [
        GradedSpace(cs.chart, k, weight_offset=2 * twist, tag=f"forms-tw{twist}")
        for k in range(2 * cs.n + 1)
    ]
    bases = [s.basis(truncation) for s in spaces]
    return spaces, bases


def _assemble(domain, codomain, domain_basis, codomain_basis, op):
    entries: dict[tuple[int, int], Fraction] = {}
    for col, label in enumerate(domain_basis.labels):
        image = op(domain.element(label))
        if image.is_zero():
            continue
        for row, v in codomain.vector(image, codomain_basis).items():
            entries[(row, col)] = v
    return OperatorMatrix(codomain_basis, domain_basis, entries)


class _TotalSpace:
    """Degree-k piece of the sum complex: a k-form slot plus a twisted slot."""

    def __init__(self, cs: CsChart, k: int):
        self.cs = cs
        self.k = k
        self.a = GradedSpace(cs.chart, k, tag="total-a")
        self.b = GradedSpace(cs.chart, k - 1, weight_offset=2, tag="total-b")
        self.key = ("total", cs.chart.coords, k)

    def basis(self, truncation: Truncation) -> SectionBasis:
        a_basis = self.a.basis(truncation)
        b_basis = self.b.basis(truncation)
        labels = [(block, ("a",) + rest) for (block, rest) in a_basis.labels]
        labels += [(block, ("b",) + rest) for (block, rest) in b_basis.labels]
        self._a_basis = a_basis
        self._b_basis = b_basis
        return SectionBasis(key=self.key + (truncation.kind,), labels=tuple(labels))

    def element(self, label):
        block, payload = label
        tag, rest = payload[0], payload[1:]
        if tag == "a":
            phi = self.a.element((block, rest))
            psi = None
        else:
            phi = zero_form(self.cs.chart, self.k)
            psi = TwistedForm(self.b.element((block, rest)), 1)
        return total_element(self.cs, phi, psi)

    def vector(self, elem, basis: SectionBasis) -> dict[int, Fraction]:
        a_dim = self._a_basis.dim
        out: dict[int, Fraction] = {}
        if not elem.phi.is_zero():
            for row, v in self.a.vector(elem.phi, self._a_basis).items():
                out[row] = v
        if elem.psi is not None and not elem.psi.is_zero():
            for row, v in self.b.vector(elem.psi.base, self._b_basis).items():
                out[a_dim + row] = v
        return out


def total_complex(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """The sum complex with differential (phi, psi) -> (d phi + omega ^ psi, -d psi)."""
    spaces = [_TotalSpace(cs, k) for k in range(2 * cs.n + 2)]
    bases = [s.basis(truncation) for s in spaces]
    mats = []
    for k in range(2 * cs.n + 1):
        entries: dict[tuple[int, int], Fraction] = {}
        for col, label in enumerate(bases[k].labels):
            image = total_differential(spaces[k].element(label))
            for row, v in spaces[k + 1].vector(image, bases[k + 1]).items():
                entries[(row, col)] = v
        mats.append(OperatorMatrix(bases[k + 1], bases[k], entries))
    return mats


# -- the degreewise splice ----------------------------------------------------------


@dataclass(frozen=True)
class SpliceReport:
    """Chain maps of the splice plus the verified identities."""

    inclusion_chain_map: bool
    projection_chain_map: bool
    inclusion_then_projection_zero: bool
    exact_at_each_degree: bool
    dims_additive: bool

    @property
    def ok(self) -> bool:
        return (
            self.inclusion_chain_map
            and self.projection_chain_map
            and self.inclusion_then_projection_zero
            and self.exact_at_each_degree
            and self.dims_additive
        )

    def to_json(self) -> dict:
        return {
            "inclusion_chain_map": self.inclusion_chain_map,
            "projection_chain_map": self.projection_chain_map,
            "inclusion_then_projection_zero": self.inclusion_then_projection_zero,
            "exact_at_each_degree": self.exact_at_each_degree,
            "dims_additive": self.dims_additive,
        }


def _splice_maps(cs: CsChart, truncation: Truncation):
    """Spaces, bases and the inclusion/projection matrices of the splice."""
    n = cs.n
    a_spaces, a_bases = _form_spaces(cs, truncation, twist=0)
    w_spaces, w_bases = _form_spaces(cs, truncation, twist=1)
    t_spaces = [_TotalSpace(cs, k) for k in range(2 * n + 2)]
    t_bases = [s.basis(truncation) for s in t_spaces]

    inclusions = []
    projections = []
    for k in range(2 * n + 2):
        a_basis = a_bases[k] if k <= 2 * n else SectionBasis(("empty",), ())
        w_basis = w_bases[k - 1] if k >= 1 else SectionBasis(("empty",), ())
        t_basis = t_bases[k]
        t_position = {label: i for i, label in enumerate(t_basis.labels)}
        inc = {}
        for col, label in enumerate(a_basis.labels):
            block, rest = label
            inc[(t_position[(block, ("a",) + rest)], col)] = Fraction(1)
        inclusions.append(OperatorMatrix(t_basis, a_basis, inc))
        proj = {}
        for row, label in enumerate(w_basis.labels):
            block, rest = label
            proj[(row, t_position[(block, ("b",) + rest)])] = Fraction(1)
        projections.append(OperatorMatrix(w_basis, t_basis, proj))
    return (a_spaces, a_bases, w_spaces, w_bases, t_spaces, t_bases, inclusions, projections)


def short_exact_splice(cs: CsChart, truncation: Truncation) -> SpliceReport:
    """Verify the degreewise splice of complexes at the cochain level."""
    n = cs.n
    data = _splice_maps(cs, truncation)
    (_, a_bases, _, w_bases, _, t_bases, inclusions, projections) = data
    de_rham = de_rham_complex(cs, truncation)
    tw = twisted_complex(cs, truncation)
    tot = total_complex(cs, truncation)

    inclusion_ok = True
    projection_ok = True
    comp_zero = True
    exact = True
    additive = True
    for k in range(2 * n + 2):
        if k < len(de_rham):
            left = tot[k].compose(inclusions[k])
            right = inclusions[k + 1].compose(de_rham[k])
            if left.entries != right.entries:
                inclusion_ok = False
        if 1 <= k <= 2 * n:
            # projection intertwines the total differential with minus the
            # twisted derivative
            left = projections[k + 1].compose(tot[k])
            right = tw[k - 1].compose(projections[k]).scale(Fraction(-1))
            if left.entries != right.entries:
                projection_ok = False
        if projections[k].compose(inclusions[k]).entries:
            comp_zero = False
        a_dim = a_bases[k].dim if k <= 2 * n else 0
        w_dim = w_bases[k - 1].dim if k >= 1 else 0
        if a_dim + w_dim != t_bases[k].dim:
            additive = False
        rank_inc = inclusions[k].rank()
        rank_proj = projections[k].rank()
        if rank_inc != a_dim or rank_proj != w_dim:
            exact = False
        if t_bases[k].dim - rank_proj != rank_inc:
            exact = False
    return SpliceReport(
        inclusion_chain_map=inclusion_ok,
        projection_chain_map=projection_ok,
        inclusion_then_projection_zero=comp_zero,
        exact_at_each_degree=exact,
        dims_additive=additive,
    )


# -- the long exact sequence ----------------------------------------------------------


@dataclass(frozen=True)
class LesBlockResult:
    block: tuple
    de_rham_dims: tuple[int, ...]
    twisted_dims: tuple[int, ...]
    total_dims: tuple[int, ...]
    connecting_ranks: tuple[int, ...]
    exact: bool
    snake_equals_wedge: bool
    failure: str = ""


def _les_on_block(cs: CsChart, block: tuple) -> LesBlockResult:
    truncation = Truncation.single(block)
    n = cs.n
    top = 2 * n + 1
    de_rham = de_rham_complex(cs, truncation)
    tw = twisted_complex(cs, truncation)
    tot = total_complex(cs, truncation)
    for name, mats in (("de-rham", de_rham), ("twisted", tw), ("total", tot)):
        for i in range(len(mats) - 1):
            if not mats[i + 1].compose(mats[i]).is_zero():
                raise NotAComplexError(i, f"{name} complex fails at position {i}")
    data = _splice_maps(cs, truncation)
    (a_spaces, a_bases, w_spaces, w_bases, t_spaces, t_bases, inclusions, projections) = data

    # cohomology at every node of the three complexes
    h_a = []
    for k in range(top + 1):
        d_in = de_rham[k - 1] if 1 <= k <= 2 * n else None
        d_out = de_rham[k] if k < 2 * n else None
        dim = a_bases[k].dim if k <= 2 * n else 0
        h_a.append(CochainQuotient(d_in, d_out, dim))
    h_w = []
    for k in range(top + 1):
        # node k of the shifted twisted complex holds classes of degree k-1
        d_in = tw[k - 2] if 2 <= k <= 2 * n + 1 else None
        d_out = tw[k - 1] if 1 <= k <= 2 * n else None
        dim = w_bases[k - 1].dim if k >= 1 else 0
        h_w.append(CochainQuotient(d_in, d_out, dim))
    h_t = []
    for k in range(top + 1):
        d_in = tot[k - 1] if k >= 1 else None
        d_out = tot[k] if k < top else None
        h_t.append(CochainQuotient(d_in, d_out, t_bases[k].dim))

    # induced maps on cohomology
    inc_maps = [
        h_a[k].induced_matrix(inclusions[k].apply, h_t[k]) for k in range(top + 1)
    ]
    proj_maps = [
        h_t[k].induced_matrix(projections[k].apply, h_w[k]) for k in range(top + 1)
    ]

    # connecting map by the snake construction: lift a twisted class to the
    # twisted slot, apply the total differential, read off the form slot
    snake_maps = []
    wedge_maps = []
    for k in range(top):
        def snake(vec, k=k):
            lifted = {}
            a_dim = a_bases[k].dim if k <= 2 * n else 0
            for i, v in vec.items():
                lifted[a_dim + i] = v
            image = tot[k].apply(lifted) if k < top else {}
            a_next_dim = a_bases[k + 1].dim if k + 1 <= 2 * n else 0
            for pos in image:
                if pos >= a_next_dim:
                    raise InternalConsistencyError("snake image left the form slot")
            return dict(image)

        snake_maps.append(h_w[k].induced_matrix(snake, h_a[k + 1]))

        def wedge_push(vec, k=k):
            payload = zero_form(cs.chart, k - 1)
            for i, v in vec.items():
                payload = payload + w_spaces[k - 1].element(w_bases[k - 1].labels[i]).scale(v)
            image = wedge(cs.omega, payload)
            if image.is_zero():
                return {}
            return a_spaces[k + 1].vector(image, a_bases[k + 1])

        if k >= 1:
            wedge_maps.append(h_w[k].induced_matrix(wedge_push, h_a[k + 1]))
        else:
            wedge_maps.append(snake_maps[-1])

    snake_equals_wedge = all(
        snake_maps[k] == wedge_maps[k] for k in range(1, top)
    )

    # exactness node by node: the composite must vanish and a rank count
    # certifies im = ker; on failure a witness class is serialized
    failure = ""
    exact = True
    _rank = sparse_rank

    def _node_failure(name, k, incoming, outgoing, dim, rank_in):
        nonlocal exact, failure
        if _compose_dicts(outgoing, incoming, dim):
            exact = False
            if not failure:
                failure = f"node {name}[{k}]: composite not zero"
            return
        rank_ker = dim - _rank(outgoing, max(dim, 1), dim)
        if rank_ker == rank_in:
            return
        exact = False
        if failure:
            return
        image_cols = {}
        for (r, c), v in incoming.items():
            image_cols.setdefault(c, {})[r] = v
        cols = [image_cols[c] for c in sorted(image_cols)]
        kernel = sparse_nullspace(outgoing, max(dim, 1), dim)
        witness = next((vec for vec in kernel if not _in_span(cols, vec)), None)
        serialized = (
            {str(i): f"{v.numerator}/{v.denominator}" for i, v in witness.items()}
            if witness
            else {}
        )
        failure = f"node {name}[{k}]: im != ker; counterexample class {serialized}"

    for k in range(top + 1):
        into_t = inc_maps[k]
        out_t = proj_maps[k]
        rank_in = _rank(into_t, h_t[k].dim, h_a[k].dim)
        rank_out = _rank(out_t, h_w[k].dim, h_t[k].dim)
        _node_failure("H_total", k, into_t, out_t, h_t[k].dim, rank_in)
        conn = snake_maps[k] if k < top else {}
        _node_failure("H_twisted", k, out_t, conn, h_w[k].dim, rank_out)
        prev_conn = snake_maps[k - 1] if k >= 1 else {}
        rank_prev = _rank(prev_conn, h_a[k].dim, h_w[k - 1].dim if k >= 1 else 0)
        _node_failure("H_deRham", k, prev_conn, into_t, h_a[k].dim, rank_prev)

    connecting_ranks = tuple(
        _rank(snake_maps[k], h_a[k + 1].dim, h_w[k].dim) for k in range(top)
    )
    return LesBlockResult(
        block=block,
        de_rham_dims=tuple(h.dim for h in h_a),
        twisted_dims=tuple(h.dim for h in h_w),
        total_dims=tuple(h.dim for h in h_t),
        connecting_ranks=connecting_ranks,
        exact=exact,
        snake_equals_wedge=snake_equals_wedge,
        failure=failure,
    )


def _compose_dicts(left, right, inner_dim) -> dict:
    out: dict[tuple[int, int], Fraction] = {}
    by_inner: dict[int, list] = {}
    for (r, c), v in left.items():
        by_inner.setdefault(c, []).append((r, v))
    for (i, c), v in right.items():
        for r, w in by_inner.get(i, ()):  # noqa: B905
            out[(r, c)] = out.get((r, c), Fraction(0)) + w * v
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class LesReport:
    exact: bool
    snake_equals_wedge: bool
    de_rham_dims: tuple[int, ...]
    twisted_dims: tuple[int, ...]
    total_dims: tuple[int, ...]
    connecting_ranks: tuple[int, ...]
    blocks: tuple[LesBlockResult, ...]
    failure: str = ""

    def to_json(self) -> dict:
        return {
            "exact": self.exact,
            "snake_equals_wedge": self.snake_equals_wedge,
            "de_rham_dims": list(self.de_rham_dims),
            "twisted_dims": list(self.twisted_dims),
            "total_dims": list(self.total_dims),
            "connecting_ranks": list(self.connecting_ranks),
            "failure": self.failure,
        }


def les_check(cs: CsChart, truncation: Truncation) -> LesReport:
    """Node-by-node verification of the long exact sequence, per block."""
    results = [_les_on_block(cs, b) for b in truncation.blocks()]
    top = 2 * cs.n + 1
    de_rham = tuple(sum(r.de_rham_dims[k] for r in results) for k in range(top + 1))
    twisted = tuple(sum(r.twisted_dims[k] for r in results) for k in range(top + 1))
    total = tuple(sum(r.total_dims[k] for r in results) for k in range(top + 1))
    connecting = tuple(sum(r.connecting_ranks[k] for r in results) for k in range(top))
    exact = all(r.exact for r in results)
    snake = all(r.snake_equals_wedge for r in results)
    failure = next((r.failure for r in results if r.failure), "")
    return LesReport(
        exact=exact,
        snake_equals_wedge=snake,
        de_rham_dims=de_rham,
        twisted_dims=twisted,
        total_dims=total,
        connecting_ranks=connecting,
        blocks=tuple(results),
        failure=failure,
    )


# -- headline reports ---------------------------------------------------------------


@dataclass
class CohomologyReport:
    model: str
    n: int
    truncation: dict
    dims: dict
    les: dict
    checks: dict
    timing_seconds: float

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "truncation": self.truncation,
            "dims": self.dims,
            "les": self.les,
            "checks": self.checks,
            "timing_seconds": self.timing_seconds,
        }


def _dims_per_block(blocks: list[tuple], builder, rank_method: str) -> dict[tuple, list[int]]:
    return {
        tuple(b): cohomology_dims(builder(Truncation.single(b)), rank_method)
        for b in blocks
    }


def rs_cohomology(
    cs: CsChart,
    truncation: Truncation,
    rank_method: str = "exact",
) -> CohomologyReport:
    """Cohomology dimensions of the intrinsic complex plus the full cross-check."""
    start = time.monotonic()
    blocks = truncation.blocks()
    top = 2 * cs.n + 1

    # ranks of the rs blocks follow rank_method; the LES keeps exact ranks as the oracle
    rs_by_block = _dims_per_block(blocks, lambda t: rs_complex(cs, t), rank_method)
    les = les_check(cs, truncation)
    les_by_block = {r.block: r for r in les.blocks}

    rs_dims = [sum(v[k] for v in rs_by_block.values()) for k in range(top + 1)]
    de_rham_dims = list(les.de_rham_dims[: 2 * cs.n + 1])
    # node k of the shifted complex carries the twisted classes of degree k-1
    twisted_dims = list(les.twisted_dims[1:])
    total_dims = list(les.total_dims)

    checks: dict = {
        "complex_property": True,  # every builder verified d . d = 0 before ranks
        "total_matches_rs": rs_dims == total_dims,
        "euler_rs": sum((-1) ** k * d for k, d in enumerate(rs_dims)),
    }
    if cs.model == "torus":
        zero_block = ("m", (0,) * cs.dim)
        nonzero = [b for b in rs_by_block if b != zero_block]
        checks["sampled_modes_vanish"] = all(
            not any(rs_by_block[b])
            and not any(les_by_block[b].de_rham_dims)
            and not any(les_by_block[b].twisted_dims)
            for b in nonzero
        )
        checks["sampled_mode_count"] = len(nonzero)
        checks["euler_zero"] = checks["euler_rs"] == 0
    if truncation.kind == "weight":
        bound = truncation.max_weight
        stable_bound = max(bound - 2, 0)
        rs_lower = [
            sum(v[k] for b, v in rs_by_block.items() if b[1] <= stable_bound)
            for k in range(top + 1)
        ]
        checks["weight_stable"] = rs_lower == rs_dims
        checks["stability_compared_bounds"] = [stable_bound, bound]

    dims = {
        "rs": rs_dims,
        "deRham": de_rham_dims,
        "twisted": twisted_dims,
        "total": total_dims,
    }
    report = CohomologyReport(
        model=cs.model,
        n=cs.n,
        truncation=truncation.describe(),
        dims=dims,
        les=les.to_json(),
        checks=checks,
        timing_seconds=round(time.monotonic() - start, 3),
    )
    return report
