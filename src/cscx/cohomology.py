"""Exact cohomology of the truncated complexes and the long exact sequence.

All operators in scope are homogeneous for the grading, so complexes split
into independent blocks (one per weight, or per Fourier orbit on the
torus); every block is finite-dimensional and all ranks are exact over the
rationals.  Every check runs in one pass over the blocks: a
``BlockComplexes`` assembles the block's de Rham, twisted and total
complexes and the splice maps once, on the node indexing of the long
exact sequence.  One unit-pivot reduction of each complex
(``linalg.reduced_cohomology_dims``) decides which nodes carry classes;
only those build echelons and representatives, and their count must match
the reduction's.  From the block come cohomology dimensions, representatives,
induced maps on cohomology, the long exact sequence with its connecting
map, and the degreewise splice of de Rham into the total complex, all
computed at the cochain level and verified node by node.  Since every map
is block-diagonal (an image leaving its block fails assembly), a
truncation-wide identity is the conjunction of the per-block ones.

A total cochain is the pair (phi, psi) of ``descent.total_differential``;
both splice maps are read off the total space's slot layout, and every
complex is checked to square to zero by ``first_nonzero_composite``.

On the torus, operators have constant coefficients and preserve modes; the
reported cohomology is the constant-mode block, and every sampled nonzero
mode is verified to contribute nothing (an exact rank computation per
mode, not an assumption).  On the affine model a stabilization detector
compares the dimensions reported at the weight bound against the bound
minus two and flags disagreement instead of silently reporting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .coefficients import Rational
from .descent import nabla_twisted_d, rs_complex, total_differential
from .errors import InternalConsistencyError, NonPrimitiveError, NotAComplexError
from .forms import wedge, zero_form
from .grading import (
    GradedSpace,
    PairSpace,
    SectionBasis,
    Truncation,
    leibniz_table,
    mode_truncation,
    operator_complex,
    operator_entries,
    sample_modes,
    weight_truncation,
)
from .lefschetz import CsChart, TwistedForm
from .linalg import (
    Echelon,
    OperatorMatrix,
    first_nonzero_composite,
    reduced_cohomology_dims,
    sparse_nullspace,
    sparse_rank,
    sparse_rref,
)

__all__ = [
    "OperatorMatrix",
    "SectionBasis",
    "Truncation",
    "weight_truncation",
    "mode_truncation",
    "sample_modes",
    "cohomology_dims",
    "CochainQuotient",
    "total_complex",
    "short_exact_splice",
    "les_check",
    "les_and_splice",
    "BlockComplexes",
    "rs_cohomology",
    "CohomologyReport",
]


def cohomology_dims(complex_maps: list[OperatorMatrix]) -> list[int]:
    """Per-node cohomology dimensions of a finite complex of matrices.

    ``complex_maps`` lists the differentials d_0, ..., d_{m-1}; consecutive
    pairs are verified to compose to zero before any rank is taken.
    """
    if not complex_maps:
        return []
    failure = first_nonzero_composite(complex_maps)
    if failure is not None:
        raise NotAComplexError(failure[0])
    ranks = [m.rank() for m in complex_maps]
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

    ``classes`` is the node's dimension as ``reduced_cohomology_dims``
    decided it.  A node with no class builds no echelon: a vector is a
    cocycle exactly when the outgoing differential ``d_out`` kills it, and
    then its class is zero (``coords`` gives ``{}``).  A node with classes
    builds the column echelon of the incoming differential ``d_in`` (its
    ``sparse_rref``) and extends it by kernel vectors of ``d_out`` (an
    absent or zero outgoing map has the whole space as kernel), chosen
    deterministically by leftmost pivoting, so one ``Echelon`` holds the
    image columns followed by the representatives and class coordinates
    are a single reduction against it.  The representatives must number
    ``classes``, or the two engines disagree and ``InternalConsistencyError``
    names the node (``where``).

    Precondition: the image lies in the kernel (d_out . d_in = 0, verified
    once by ``BlockComplexes``).  Then, once the representatives number
    dim ker - rank d_in, image and representatives span the whole kernel,
    so the remaining kernel vectors are not tested.
    """

    def __init__(
        self,
        d_in: OperatorMatrix | None,
        d_out: OperatorMatrix | None,
        space_dim: int,
        classes: int,
        where: str = "",
    ):
        self._d_out = d_out
        self._span: Echelon | None = None
        self.reps: list[dict[int, Rational]] = []
        self.dim = classes
        if not classes:
            return
        if d_out is not None and not d_out.is_zero():
            kernel = sparse_nullspace(d_out.entries, d_out.cols.dim)
        else:
            kernel = [{i: 1} for i in range(space_dim)]
        image = sparse_rref(d_in.entries, d_in.cols.dim) if d_in is not None else Echelon()
        # the image columns were labelled by column index; classes are read
        # off by kept index
        image.labels = list(range(len(image)))
        self._span = image
        self._image_rank = len(image)
        # representatives: kernel vectors independent modulo the image
        for vec in kernel:
            if len(self.reps) == len(kernel) - self._image_rank:
                break
            if image.add(vec):
                self.reps.append(vec)
        if len(self.reps) != classes:
            raise InternalConsistencyError(
                f"{where}: the unit-pivot reduction gives {classes} classes, "
                f"the quotient {len(self.reps)} representatives"
            )

    def coords(self, vec: dict[int, Rational]) -> dict[int, Rational] | None:
        """Class coordinates of a cocycle over the representatives, None for a non-cocycle."""
        if self._span is None:
            return None if self._d_out is not None and self._d_out.apply(vec) else {}
        coords = self._span.coords(vec)
        if coords is None:
            return None
        offset = self._image_rank
        return {j - offset: v for j, v in coords.items() if j >= offset}

    def induced_matrix(self, push, target: "CochainQuotient") -> dict[tuple[int, int], Rational]:
        """Matrix of a chain map on cohomology (push maps vectors to vectors)."""
        out: dict[tuple[int, int], Rational] = {}
        for j, rep in enumerate(self.reps):
            image = push(rep)
            coords = target.coords(image)
            if coords is None:
                raise InternalConsistencyError("chain map image is not a cocycle")
            for i, v in coords.items():
                out[(i, j)] = v
        return out


def _quotients(maps: list[OperatorMatrix], bases: list[SectionBasis], where: str) -> list[CochainQuotient]:
    """The quotient at every node of a complex; ``maps[k]`` sends node k to node k+1.

    One unit-pivot reduction of the whole complex decides which nodes carry
    classes; only those build an echelon.
    """
    dims = reduced_cohomology_dims([m.entries for m in maps], [b.dim for b in bases])
    return [
        CochainQuotient(
            maps[k - 1] if k else None,
            maps[k] if k < len(maps) else None,
            basis.dim,
            dims[k],
            f"{where} node {k}",
        )
        for k, basis in enumerate(bases)
    ]


def _in_span(span: Echelon, vec) -> bool:
    return span.coords(vec) is not None


# -- complex builders -------------------------------------------------------------


# differential orders of the form-level operators: d and the twisted d (the
# plain d of the base factor) differentiate once, and the total differential
# adds to them only the tensorial omega ^ psi
_DE_RHAM_ORDER = 1
_TWISTED_ORDER = 1
_TOTAL_ORDER = 1


def _form_complex(cs: CsChart, truncation: Truncation, twist: int):
    """Spaces and differentials of the plain (twist 0) or twisted (twist 1) complex."""
    spaces = [
        GradedSpace(cs.chart, k, weight_offset=2 * twist, tag=f"forms-tw{twist}")
        for k in range(2 * cs.n + 1)
    ]
    if twist:
        op = lambda k, f: nabla_twisted_d(cs, TwistedForm(f, 1)).base  # noqa: E731
    else:
        op = lambda k, f: f.d()  # noqa: E731
    name, order = ("twisted", _TWISTED_ORDER) if twist else ("de-rham", _DE_RHAM_ORDER)
    return spaces, operator_complex(cs, name, spaces, op, lambda k: order, truncation)


def _assemble(domain, codomain, domain_basis, codomain_basis, op, table=None):
    # no builder calls this; it stays because the traced benchmark wraps it by name
    entries = operator_entries(domain, codomain, op, domain_basis, codomain_basis, table)
    return OperatorMatrix(codomain_basis, domain_basis, entries)


# kept only because the TARGETS list of perfbench/tracer.py still wraps the
# methods under this name; the alias goes with those entries (ROADMAP item 7)
_TotalSpace = PairSpace


def total_complex(cs: CsChart, truncation: Truncation) -> list[OperatorMatrix]:
    """The sum complex with differential (phi, psi) -> (d phi + omega ^ psi, -d psi)."""
    spaces = [PairSpace(cs.chart, k) for k in range(2 * cs.n + 2)]
    bases = [s.basis(truncation) for s in spaces]
    op = lambda pair: total_differential(cs, *pair)  # noqa: E731
    mats = []
    for k in range(2 * cs.n + 1):
        table = None
        try:
            if bases[k].labels:
                table = leibniz_table(cs, ("total", k), spaces[k], spaces[k + 1], op, _TOTAL_ORDER)
            entries = operator_entries(spaces[k], spaces[k + 1], op, bases[k], bases[k + 1], table)
        except NonPrimitiveError as exc:
            raise InternalConsistencyError(f"operator {('total', k)}: {exc}") from exc
        mats.append(OperatorMatrix(bases[k + 1], bases[k], entries))
    return mats


# -- one grading block ----------------------------------------------------------------


_EMPTY = SectionBasis(("empty",), ())


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
        return all(self.to_json().values())

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def conjunction(reports: list["SpliceReport"]) -> "SpliceReport":
        return SpliceReport(
            *(all(getattr(r, f.name) for r in reports) for f in fields(SpliceReport))
        )


class BlockComplexes:
    """The de Rham, twisted and total complexes of one grading block, built once.

    All three sit on the node indexing of the long exact sequence: node k
    (0 <= k <= 2n+1) holds de Rham degree k, total degree k and twisted
    degree k-1, so de Rham node 2n+1 and twisted node 0 are empty.
    ``de_rham[k]``, ``twisted[k]`` and ``total[k]`` map node k to node k+1
    (zero maps into or out of the empty nodes), and each complex is
    verified to square to zero once, at construction.  ``inclusions[k]``
    puts de Rham node k into the form slot of total node k and
    ``projections[k]`` reads off its twisted slot.
    """

    def __init__(self, cs: CsChart, block: tuple):
        truncation = Truncation.single(block)
        self.cs = cs
        self.block = block
        self.top = 2 * cs.n + 1
        self.forms, de_rham = _form_complex(cs, truncation, twist=0)
        self.twisted_forms, twisted = _form_complex(cs, truncation, twist=1)
        total = total_complex(cs, truncation)
        for name, mats in (("de-rham", de_rham), ("twisted", twisted), ("total", total)):
            failure = first_nonzero_composite(mats)
            if failure is not None:
                raise NotAComplexError(failure[0], f"{name} complex fails at position {failure[0]}")
        self.de_rham = de_rham + [OperatorMatrix(_EMPTY, de_rham[-1].rows, {})]
        self.twisted = [OperatorMatrix(twisted[0].cols, _EMPTY, {})] + twisted
        self.total = total
        self.a_bases = [m.cols for m in self.de_rham] + [_EMPTY]
        self.w_bases = [m.cols for m in self.twisted] + [twisted[-1].rows]
        self.t_bases = [m.cols for m in total] + [total[-1].rows]
        # the slot offsets of PairSpace.basis
        self.inclusions = [
            OperatorMatrix(t, a, {(i, i): 1 for i in range(a.dim)})
            for a, t in zip(self.a_bases, self.t_bases)
        ]
        self.projections = [
            OperatorMatrix(w, t, {(i, a.dim + i): 1 for i in range(w.dim)})
            for a, w, t in zip(self.a_bases, self.w_bases, self.t_bases)
        ]

    def splice(self) -> SpliceReport:
        """The degreewise splice identities at the cochain level."""
        inc, proj = self.inclusions, self.projections
        a, w, t = self.a_bases, self.w_bases, self.t_bases

        def exact_at(k):
            rank_inc, rank_proj = inc[k].rank(), proj[k].rank()
            return rank_inc == a[k].dim and rank_proj == w[k].dim and t[k].dim - rank_proj == rank_inc

        edges, nodes = range(self.top), range(self.top + 1)
        return SpliceReport(
            inclusion_chain_map=all(
                self.total[k].compose(inc[k]).entries
                == inc[k + 1].compose(self.de_rham[k]).entries
                for k in edges
            ),
            # the projection intertwines the total differential with minus
            # the twisted derivative
            projection_chain_map=all(
                proj[k + 1].compose(self.total[k]).entries
                == self.twisted[k].compose(proj[k]).scale(-1).entries
                for k in edges
            ),
            inclusion_then_projection_zero=all(
                proj[k].compose(inc[k]).is_zero() for k in nodes
            ),
            exact_at_each_degree=all(exact_at(k) for k in nodes),
            dims_additive=all(a[k].dim + w[k].dim == t[k].dim for k in nodes),
        )

    def les(self) -> LesReport:
        """Cohomology of the three complexes and the long exact sequence."""
        top = self.top
        a_bases, w_bases, tot = self.a_bases, self.w_bases, self.total

        h_a = _quotients(self.de_rham, a_bases, f"block {self.block} de-rham complex")
        h_w = _quotients(self.twisted, w_bases, f"block {self.block} twisted complex")
        h_t = _quotients(tot, self.t_bases, f"block {self.block} total complex")

        # induced maps on cohomology
        inc_maps = [
            h_a[k].induced_matrix(self.inclusions[k].apply, h_t[k]) for k in range(top + 1)
        ]
        proj_maps = [
            h_t[k].induced_matrix(self.projections[k].apply, h_w[k]) for k in range(top + 1)
        ]

        # connecting map by the snake construction: lift a twisted class to the
        # twisted slot, apply the total differential, read off the form slot
        snake_maps = []
        wedge_maps = []
        for k in range(top):
            def snake(vec, k=k):
                a_dim = a_bases[k].dim
                image = tot[k].apply({a_dim + i: v for i, v in vec.items()})
                if any(pos >= a_bases[k + 1].dim for pos in image):
                    raise InternalConsistencyError("snake image left the form slot")
                return image

            snake_maps.append(h_w[k].induced_matrix(snake, h_a[k + 1]))

            def wedge_push(vec, k=k):
                payload = zero_form(self.cs.chart, k - 1)
                for i, v in vec.items():
                    label = w_bases[k].labels[i]
                    payload = payload + self.twisted_forms[k - 1].element(label).scale(v)
                image = wedge(self.cs.omega, payload)
                if image.is_zero():
                    return {}
                return self.forms[k + 1].vector(image, a_bases[k + 1])

            if k >= 1:
                wedge_maps.append(h_w[k].induced_matrix(wedge_push, h_a[k + 1]))
            else:
                wedge_maps.append(snake_maps[-1])

        snake_equals_wedge = all(
            snake_maps[k] == wedge_maps[k] for k in range(1, top)
        )

        # each map of the sequence is ranked once
        nodes = range(top + 1)
        rank_inc = [sparse_rank(inc_maps[k]) for k in nodes]
        rank_proj = [sparse_rank(proj_maps[k]) for k in nodes]
        connecting_ranks = tuple(sparse_rank(snake_maps[k]) for k in range(top))
        # no connecting map leaves the top node or enters node 0
        rank_conn = connecting_ranks + (0,)

        # exactness node by node: the composite must vanish and a rank count
        # certifies im = ker; on failure a witness class is serialized
        failure = ""
        exact = True

        def _node_failure(name, k, incoming, outgoing, dim, rank_in, rank_out):
            nonlocal exact, failure
            if _compose_dicts(outgoing, incoming):
                exact = False
                if not failure:
                    failure = f"node {name}[{k}]: composite not zero"
                return
            if dim - rank_out == rank_in:
                return
            exact = False
            if failure:
                return
            image_cols = {}
            for (r, c), v in incoming.items():
                image_cols.setdefault(c, {})[r] = v
            span = Echelon([image_cols[c] for c in sorted(image_cols)])
            kernel = sparse_nullspace(outgoing, dim)
            witness = next((vec for vec in kernel if not _in_span(span, vec)), None)
            serialized = (
                {str(i): f"{v.numerator}/{v.denominator}" for i, v in witness.items()}
                if witness
                else {}
            )
            failure = f"node {name}[{k}]: im != ker; counterexample class {serialized}"

        for k in nodes:
            into_t, out_t = inc_maps[k], proj_maps[k]
            conn = snake_maps[k] if k < top else {}
            prev_conn = snake_maps[k - 1] if k >= 1 else {}
            _node_failure("H_total", k, into_t, out_t, h_t[k].dim, rank_inc[k], rank_proj[k])
            _node_failure("H_twisted", k, out_t, conn, h_w[k].dim, rank_proj[k], rank_conn[k])
            _node_failure("H_deRham", k, prev_conn, into_t, h_a[k].dim, rank_conn[k - 1], rank_inc[k])

        return LesReport(
            block=self.block,
            de_rham_dims=tuple(h.dim for h in h_a),
            twisted_dims=tuple(h.dim for h in h_w),
            total_dims=tuple(h.dim for h in h_t),
            connecting_ranks=connecting_ranks,
            exact=exact,
            snake_equals_wedge=snake_equals_wedge,
            failure=failure,
        )


def _compose_dicts(left, right) -> dict:
    out: dict[tuple[int, int], Rational] = {}
    by_inner: dict[int, list] = {}
    for (r, c), v in left.items():
        by_inner.setdefault(c, []).append((r, v))
    for (i, c), v in right.items():
        for r, w in by_inner.get(i, ()):  # noqa: B905
            out[(r, c)] = out.get((r, c), 0) + w * v
    return {k: v for k, v in out.items() if v}


# -- truncation-wide checks -----------------------------------------------------------


@dataclass(frozen=True)
class LesReport:
    """The long exact sequence of one grading ``block``, or summed over a truncation (None)."""

    exact: bool
    snake_equals_wedge: bool
    de_rham_dims: tuple[int, ...]
    twisted_dims: tuple[int, ...]
    total_dims: tuple[int, ...]
    connecting_ranks: tuple[int, ...]
    failure: str = ""
    block: tuple | None = None

    @staticmethod
    def combine(n: int, results: list[LesReport]) -> LesReport:
        """Sum the per-block dimensions and ranks; exact when every block is."""
        top = 2 * n + 1

        def summed(attr, length):
            return tuple(sum(getattr(r, attr)[k] for r in results) for k in range(length))

        return LesReport(
            exact=all(r.exact for r in results),
            snake_equals_wedge=all(r.snake_equals_wedge for r in results),
            de_rham_dims=summed("de_rham_dims", top + 1),
            twisted_dims=summed("twisted_dims", top + 1),
            total_dims=summed("total_dims", top + 1),
            connecting_ranks=summed("connecting_ranks", top),
            failure=next((r.failure for r in results if r.failure), ""),
        )

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
    return LesReport.combine(cs.n, [BlockComplexes(cs, b).les() for b in truncation.blocks()])


def short_exact_splice(cs: CsChart, truncation: Truncation) -> SpliceReport:
    """Verify the degreewise splice at the cochain level, block by block."""
    return SpliceReport.conjunction(
        [BlockComplexes(cs, b).splice() for b in truncation.blocks()]
    )


def les_and_splice(cs: CsChart, truncation: Truncation) -> tuple[LesReport, SpliceReport]:
    """``les_check`` and ``short_exact_splice`` from one build of each block."""
    results, splices = [], []
    for b in truncation.blocks():
        block = BlockComplexes(cs, b)
        results.append(block.les())
        splices.append(block.splice())
    return LesReport.combine(cs.n, results), SpliceReport.conjunction(splices)


# -- headline reports ---------------------------------------------------------------


@dataclass
class CohomologyReport:
    model: str
    n: int
    truncation: dict
    dims: dict
    les: dict
    checks: dict
    # the first false check and its witness, None when every check holds;
    # the CLI prints it on its error line, and the report leaves it out
    first_failure: str | None

    def to_json(self) -> dict:
        out = asdict(self)
        del out["first_failure"]
        return out


def _first_difference(a: list[int], b: list[int]) -> str:
    k = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
    return f"first differ in degree {k} ({a[k]} != {b[k]})"


def rs_cohomology(cs: CsChart, truncation: Truncation) -> CohomologyReport:
    """Cohomology dimensions of the intrinsic complex plus the full cross-check."""
    top = 2 * cs.n + 1

    # one pass over the blocks: the rs dims and the LES of each block
    rs_by_block: dict[tuple, list[int]] = {}
    les_blocks = []
    for block in truncation.blocks():
        rs_by_block[block] = cohomology_dims(rs_complex(cs, Truncation.single(block)))
        les_blocks.append(BlockComplexes(cs, block).les())
    les = LesReport.combine(cs.n, les_blocks)
    les_by_block = {r.block: r for r in les_blocks}

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
        carrying = [
            b for b in nonzero
            if any(rs_by_block[b]) or any(les_by_block[b].de_rham_dims) or any(les_by_block[b].twisted_dims)
        ]
        checks["sampled_modes_vanish"] = not carrying
        checks["sampled_mode_count"] = len(nonzero)
        checks["euler_zero"] = checks["euler_rs"] == 0
    if truncation.kind == "weight":
        # below weight 2 the lower bound is negative, its truncation empty
        bound = truncation.max_weight
        rs_lower = [
            sum(v[k] for b, v in rs_by_block.items() if b[1] <= bound - 2)
            for k in range(top + 1)
        ]
        checks["weight_stable"] = rs_lower == rs_dims
        checks["stability_compared_bounds"] = [bound - 2, bound]

    witnesses = {
        "les.exact": lambda: les.failure,
        "les.snake_equals_wedge": lambda: "a connecting map is not the wedge with omega",
        "total_matches_rs": lambda: "the rs and total dimensions " + _first_difference(rs_dims, total_dims),
        "sampled_modes_vanish": lambda: f"the sampled mode {carrying[0][1]} carries cohomology",
        "euler_zero": lambda: f"the rs Euler characteristic is {checks['euler_rs']}, not 0",
        "weight_stable": lambda: (
            f"the rs dimensions at bounds {bound - 2} and {bound} " + _first_difference(rs_lower, rs_dims)
        ),
    }
    named = {"les.exact": les.exact, "les.snake_equals_wedge": les.snake_equals_wedge, **checks}
    name = next((name for name, v in named.items() if v is False), None)
    first_failure = None if name is None else f"{name} is false: {witnesses[name]()}"

    return CohomologyReport(
        model=cs.model,
        n=cs.n,
        truncation=truncation.describe(),
        dims={"rs": rs_dims, "deRham": de_rham_dims, "twisted": twisted_dims, "total": total_dims},
        les=les.to_json(),
        checks=checks,
        first_failure=first_failure,
    )
