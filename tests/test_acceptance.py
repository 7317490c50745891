"""Acceptance suite: one test per headline criterion, exact tolerances.

Every check is exact (integer dimensions, exact rational matrix identities);
each test prints its own pass line so a ``pytest -s tests/test_acceptance.py``
run reads as the acceptance checklist.  Criteria 2, 3 and 9 are verdicts of
the ``claims`` report, run once per rank.
"""

from fractions import Fraction
from functools import lru_cache

from cscx.claims import MAX_WEIGHT
from cscx.cli import RunConfig, run_suite
from cscx.cohomology import (
    cohomology_dims,
    les_check,
    mode_truncation,
    rs_cohomology,
    weight_truncation,
)
from cscx.contact import standard_contact_chart
from cscx.descent import descend_complex, rs_complex, ss_fallback, standard_pair
from cscx.grading import sample_modes
from cscx.lefschetz import standard_cs_chart
from cscx.rumin import operator_order, rumin_complex

from helpers import de_rham_complex, dense_rank


def _report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_1_complex_property():
    """D . D = 0 for the contact-chart and quotient complexes, n in {2, 3}."""
    for n, bound in ((2, 6), (3, 4)):
        truncation = weight_truncation(bound)
        contact_ops = rumin_complex(standard_contact_chart(n), truncation)
        for k in range(len(contact_ops) - 1):
            assert contact_ops[k + 1].compose(contact_ops[k]).is_zero(), (
                f"contact complex fails at n={n}, k={k}"
            )
        quotient_ops = rs_complex(standard_cs_chart(n), truncation)
        for k in range(len(quotient_ops) - 1):
            assert quotient_ops[k + 1].compose(quotient_ops[k]).is_zero(), (
                f"quotient complex fails at n={n}, k={k}"
            )
    _report(1, "all composite operators vanish exactly (n=2 w<=6, n=3 w<=4)")


@lru_cache(maxsize=None)
def _claims(n: int) -> dict:
    """The claims of ``cscx claims --n n`` by name."""
    config = RunConfig(pipeline="claims", model="contact-affine", n=n, max_weight=MAX_WEIGHT)
    _, report = run_suite(config)
    return {claim["name"]: claim for claim in report["result"]["claims"]}


def _assert_claim(name: str) -> None:
    for n in (2, 3):
        claim = _claims(n)[name]
        assert claim["passed"], f"n={n}: {name} fails at {claim['witness']}"
        assert claim["witness"] is None


def test_criterion_2_lefschetz_thresholds():
    """Injectivity/surjectivity thresholds and the primitive dimension formula."""
    _assert_claim("lefschetz_thresholds")
    _report(2, "wedge/insertion thresholds and primitive dimensions exact (n=2,3)")


def test_criterion_3_descent_isomorphism_suite():
    """Round trips, invariance of images and transversal-rescaling stability."""
    _assert_claim("descent_isomorphisms")
    _report(3, "descent isomorphisms round-trip; composites ignore the field rescaling")


def test_criterion_4_triple_oracle():
    """Descended, intrinsic and fallback operators agree matrix for matrix."""
    pair = standard_pair(2)
    truncation = weight_truncation(5)
    descended = descend_complex(pair, truncation)
    intrinsic = rs_complex(pair.cs, truncation)
    fallback = ss_fallback(pair.cs, truncation)
    for k, (a, b, c) in enumerate(zip(descended, intrinsic, fallback)):
        assert a.rows.labels == b.rows.labels == c.rows.labels
        assert a.cols.labels == b.cols.labels == c.cols.labels
        assert a.entries == b.entries, f"descended differs from intrinsic at k={k}"
        assert b.entries == c.entries, f"fallback differs from intrinsic at k={k}"
    _report(4, "descended = intrinsic = fallback operators (n=2, all degrees, w<=5)")


def test_criterion_5_contractible_cohomology():
    """The affine quotient has scalar cohomology in degrees 0 and 1 only."""
    report = rs_cohomology(standard_cs_chart(2, "affine"), weight_truncation(6))
    assert report.checks["weight_stable"], "weight range did not stabilize"
    assert report.dims["rs"] == [1, 1, 0, 0, 0, 0]
    _report(5, "affine quotient cohomology is [1, 1, 0, 0, 0, 0] on the stable range")


def test_criterion_6_torus_cohomology():
    """Torus dimensions by the long-exact-sequence oracle, then by direct rank."""
    cs = standard_cs_chart(2, "torus")
    modes = [(0, 0, 0, 0)] + sample_modes(4, 3)
    truncation = mode_truncation(modes)

    # oracle, built before looking at the intrinsic complex: constant-mode
    # de Rham dimensions plus the exact wedge ranks, spliced node by node
    zero_mode = mode_truncation([(0, 0, 0, 0)])
    de_rham_dims = cohomology_dims(de_rham_complex(cs, zero_mode))
    assert de_rham_dims == [1, 4, 6, 4, 1]
    fib = cs.fiber
    wedge_ranks = []
    for j in range(0, 4):
        rows = [[Fraction(0)] * fib.dim(j) for _ in range(fib.dim(j + 2))]
        for (r, c), v in fib.wedge_map(j).items():
            rows[r][c] = v
        wedge_ranks.append(dense_rank(rows) if rows else 0)
    assert wedge_ranks[:3] == [1, 4, 1]

    def dr(k):
        return de_rham_dims[k] if 0 <= k < len(de_rham_dims) else 0

    def conn(j):  # rank of wedging on constant classes of degree j
        return wedge_ranks[j] if 0 <= j < len(wedge_ranks) else 0

    predicted = [dr(k) - conn(k - 2) + dr(k - 1) - conn(k - 1) for k in range(6)]
    assert predicted == [1, 4, 5, 5, 4, 1]

    report = rs_cohomology(cs, truncation)
    assert report.dims["rs"] == predicted
    assert report.checks["sampled_modes_vanish"]
    assert report.checks["sampled_mode_count"] == 3
    _report(6, "torus dimensions [1, 4, 5, 5, 4, 1] match the sequence oracle")


def test_criterion_7_long_exact_sequence():
    """Node-by-node exactness and the connecting map on both models."""
    affine = les_check(standard_cs_chart(2, "affine"), weight_truncation(6))
    assert affine.exact, affine.failure
    assert affine.snake_equals_wedge
    assert all(r == 0 for r in affine.connecting_ranks), "connecting maps must vanish"
    torus = les_check(
        standard_cs_chart(2, "torus"),
        mode_truncation([(0, 0, 0, 0)] + sample_modes(4, 3)),
    )
    assert torus.exact, torus.failure
    assert torus.snake_equals_wedge
    assert list(torus.connecting_ranks) == [0, 1, 4, 1, 0]
    _report(7, "long exact sequence verified node by node on both models")


def test_criterion_8_operator_orders():
    """Every operator has order one except the middle one, which has order two."""
    for n in (2, 3):
        struct = standard_contact_chart(n).two_step
        orders = [operator_order(struct, k) for k in range(2 * n + 1)]
        expected = [2 if k == n else 1 for k in range(2 * n + 1)]
        assert orders == expected, f"n={n}: measured orders {orders}"
    _report(8, "commutator test classifies orders as 1 except 2 in the middle (n=2,3)")


def test_criterion_9_lifting_construction():
    """The three example substitutions lift exactly and intertwine the operators."""
    _assert_claim("lifting")
    _report(9, "lifts rescale the contact form exactly and intertwine the operators")
