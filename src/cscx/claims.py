"""The paper's identifications, each checked exactly and reported as a verdict.

``cscx claims --n N`` runs six claims on the standard charts of rank n and
reports each as ``{"name", "passed", "witness"}``: the witness is None when
the claim holds and names the first counterexample otherwise.

* ``lefschetz_thresholds`` -- wedging with the structure form is injective
  up to degree n-1 and surjective from degree n-1 on, insertion of its
  inverse bivector is surjective up to degree n+1 and injective from there,
  and the primitive dimensions are C(2n,k) - C(2n,k-2), mirrored above the
  middle.  Every rank is an exact ``sparse_rank``.
* ``lefschetz_decomposition`` -- every fiber basis form is the sum of its
  primitive components re-embedded, and each component is primitive.
* ``descent_isomorphisms`` -- ``iso_down`` inverts ``iso_up`` on every basis
  section of the six rows, every image is invariant along the transversal
  field (``iso_up`` checks it, and a refusal is this claim's witness), and
  the descended complex does not change when that field is rescaled.  The
  maps are linear, so the basis sections cover the span.
* ``lifting`` -- the scaling, pair-swap and shifted-potential substitutions
  lift to maps that rescale the contact form by the stated factor, and
  transporting classes along the lift intertwines the operators in every
  degree.
* ``contact_structure`` -- the Levi form is nondegenerate and equals minus
  d(alpha) on the H-frame, the tensorial map is injective up to degree n
  and surjective from degree n on, and the cohomology bundles of that map
  have the primitive dimensions.
* ``generic_route_upstairs`` -- the generic zig-zag with the contact
  chart's own block form of d reproduces the three-regime operators.

Ranks above ``MAX_N`` are refused (exit 2).  Everything runs on weights
up to ``MAX_WEIGHT``, except that the lifting claim probes the two lowest
weight blocks of each class space: the classes of degree k above the middle
start at weight k+1, past that bound.  ``iso_up``, ``iso_down`` and
``lift_construction`` are looked up on their modules at call time.
"""

from __future__ import annotations

from fractions import Fraction

from . import contact, descent
from .errors import ConfigError, InternalConsistencyError
from .forms import basis_form, exterior_derivative, function_form, multi_indices, restrict_form
from .grading import GradedSpace, Truncation, binomial_primitive_dim, weight_truncation
from .lefschetz import (
    CsChart,
    TwistedForm,
    full_decomposition,
    primitive_projection,
    reassemble_decomposition,
    untwisted,
)
from .linalg import OperatorMatrix, sparse_rank
from .rumin import (
    class_transport,
    generic_zigzag_matrix,
    rumin_apply,
    rumin_complex,
)

# the one truncation of the claims: the weight bound of the acceptance
# suite's descent checks
MAX_WEIGHT = 4

# largest rank the claims admit: their cost grows about 3x per rank, most of
# it the descent round trips over every row and degree.  --n 3 takes 1.2 s,
# --n 4 4.4 s and n = 5, run in-process with this limit lifted, 12 s (2-core
# x86, CPython 3.11.7), so n = 7 would take about two minutes
MAX_N = 4

_XI_SCALES = (2, -3, Fraction(1, 5))


def run_claims(n: int) -> tuple[dict, bool]:
    """Check every claim on the rank-n charts; return (report body, all passed)."""
    if n > MAX_N:
        raise ConfigError(
            f"claims --n {n} is too large: the claims take about 12 s at n = 5 and 3 "
            f"times longer per rank; the limit is n <= {MAX_N}"
        )
    truncation = weight_truncation(MAX_WEIGHT)
    pair = descent.standard_pair(n)
    checks = {
        "lefschetz_thresholds": _lefschetz_thresholds(pair.cs),
        "lefschetz_decomposition": _lefschetz_decomposition(pair.cs),
        "descent_isomorphisms": _descent_isomorphisms(pair, truncation),
        "lifting": _lifting(pair.contact),
        "contact_structure": _contact_structure(pair.contact),
        "generic_route_upstairs": _generic_route_upstairs(pair.contact, truncation),
    }
    claims = []
    for name, witnesses in checks.items():
        # each check is a generator of witnesses; only the first is taken
        witness = next(witnesses, None)
        claims.append({"name": name, "passed": witness is None, "witness": witness})
    return {"claims": claims}, all(claim["passed"] for claim in claims)


def _first_difference(a: OperatorMatrix, b: OperatorMatrix) -> list[int] | None:
    """The first (row, col) at which two matrices differ; None when they agree."""
    if a.entries == b.entries:
        return None
    positions = a.entries.keys() | b.entries.keys()
    return list(min(p for p in positions if a.entries.get(p) != b.entries.get(p)))


def _lefschetz_thresholds(cs: CsChart):
    n, fib = cs.n, cs.fiber
    expected = []  # (map, degree, measured, expected)
    for k in range(2 * n + 1):
        rank = sparse_rank(fib.wedge_map(k))
        if k <= n - 1:
            expected.append(("wedge", k, rank, fib.dim(k)))
        if k >= n - 1:
            expected.append(("wedge", k, rank, fib.dim(k + 2)))
        if k >= 2:
            rank = sparse_rank(fib.insertion_map(k))
            if k <= n + 1:
                expected.append(("insertion", k, rank, fib.dim(k - 2)))
            if k >= n + 1:
                expected.append(("insertion", k, rank, fib.dim(k)))
        expected.append(("primitive_dim", k, fib.primitive_dim(k), binomial_primitive_dim(n, k)))
    for name, k, measured, wanted in expected:
        if measured != wanted:
            yield {"map": name, "degree": k, "measured": measured, "expected": wanted}


def _lefschetz_decomposition(cs: CsChart):
    for k in range(2 * cs.n + 1):
        for key in multi_indices(cs.dim, k):
            phi = untwisted(basis_form(cs.chart, key))
            components = full_decomposition(cs, phi)
            if reassemble_decomposition(cs, components, k) != phi:
                yield {"check": "reassembly", "degree": k, "key": list(key)}
            for i, component in enumerate(components):
                if primitive_projection(cs, component) != component:
                    yield {"check": "primitive", "degree": k, "key": list(key), "component": i}


def _descent_isomorphisms(pair: descent.ChartPair, truncation: Truncation):
    cs = pair.cs
    spaces = [
        (GradedSpace(cs.chart, k), GradedSpace(cs.chart, k, fiber=cs.fiber))
        for k in range(2 * cs.n + 1)
    ]
    for row in descent.ROWS:
        for k, (full, primitive) in enumerate(spaces):
            space = primitive if "0" in row else full
            for label in space.basis(truncation).labels:
                form = space.element(label)
                obj = TwistedForm(form, 1) if row.startswith("ell") else form
                try:
                    # iso_up refuses an image that is not invariant along xi
                    up = descent.iso_up(pair, obj, row)
                except InternalConsistencyError:
                    yield {"check": "invariant", "row": row, "degree": k, "label": label}
                    continue
                if descent.iso_down(pair, up, row) != obj:
                    yield {"check": "round_trip", "row": row, "degree": k, "label": label}
    baseline = descent.descend_complex(pair, truncation)
    for scale in _XI_SCALES:
        scaled = descent.descend_complex(descent.standard_pair(cs.n, xi_scale=scale), truncation)
        for k, (a, b) in enumerate(zip(baseline, scaled)):
            entry = _first_difference(a, b)
            if entry is not None:
                yield {"check": "rescaling", "xi_scale": str(scale), "degree": k, "entry": entry}


def _substitutions(cc: contact.ContactChart):
    """(name, source chart, matrix, expected scale) of the three lifted substitutions."""
    m = 2 * cc.n
    identity = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    scaling = [[Fraction(2 - i % 2 if i == j else 0) for j in range(m)] for i in range(m)]
    # exchange the first two (x, y) pairs
    swap = [identity[(i + 2) % 4] if i < 4 else identity[i] for i in range(m)]
    beta = restrict_form(cc.beta, cc.base)
    x1y1 = cc.base.coord_coeff(0) * cc.base.coord_coeff(1)
    shifted = contact.contactify(cc.n, beta + exterior_derivative(function_form(cc.base, x1y1)))
    return (
        ("scaling", cc, scaling, 2),
        ("pair_swap", cc, swap, 1),
        ("shifted_potential", shifted, identity, 1),
    )


def _lifting(cc: contact.ContactChart):
    dst_struct = cc.two_step
    for name, src, matrix, scale in _substitutions(cc):
        lift = contact.lift_construction(src, cc, matrix)
        if lift.scale != scale:
            yield {"substitution": name, "check": "scale", "scale": str(lift.scale), "expected": scale}
        if lift.pullback(src.alpha) != cc.alpha.scale(lift.scale):
            yield {"substitution": name, "check": "pullback"}
        src_struct = src.two_step
        for k in range(2 * cc.n + 1):
            space = src_struct.class_space(k)
            degree, offset = src_struct.class_degree(k)
            for label in space.basis(weight_truncation(degree + offset + 1)).labels:
                element = space.element(label)
                left = class_transport(lift, k + 1, rumin_apply(src_struct, k, element))
                right = rumin_apply(dst_struct, k, class_transport(lift, k, element))
                if left != right:
                    yield {"substitution": name, "check": "intertwining", "degree": k, "label": label}


def _contact_structure(cc: contact.ContactChart):
    n = cc.n
    levi = contact.levi_form(cc)
    rank = levi.rank()
    if rank != 2 * n:
        yield {"check": "levi_nondegenerate", "rank": rank}
    entry = _first_difference(contact.d_alpha_on_frame(cc), levi.scale(-1))
    if entry is not None:
        yield {"check": "d_alpha_is_minus_levi", "entry": entry}
    for k in range(1, 2 * n + 1):
        tensorial = contact.partial_map(cc, k)
        rank = tensorial.rank()
        if k <= n and rank != tensorial.cols.dim:
            yield {"check": "partial_map_injective", "degree": k, "rank": rank}
        if k >= n and rank != tensorial.rows.dim:
            yield {"check": "partial_map_surjective", "degree": k, "rank": rank}
    for k in range(2 * n + 2):
        dim = contact.h_cohomology_basis(cc, k).dim
        wanted = binomial_primitive_dim(n, k if k <= n else k - 1)
        if dim != wanted:
            yield {"check": "h_cohomology_dim", "degree": k, "dim": dim, "expected": wanted}


def _generic_route_upstairs(cc: contact.ContactChart, truncation: Truncation):
    for k, formula in enumerate(rumin_complex(cc, truncation)):
        # the zig-zag's default pair differential is the structure's block form of d
        generic = generic_zigzag_matrix(cc.two_step, k, truncation)
        entry = _first_difference(generic, formula)
        if entry is not None:
            yield {"degree": k, "entry": entry}
