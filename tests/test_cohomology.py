import ast
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from cscx import cohomology
from cscx.cli import RunConfig, main, run_suite
from cscx.cohomology import (
    BlockComplexes,
    CochainQuotient,
    Truncation,
    _quotients,
    _TotalSpace,
    cohomology_dims,
    les_and_splice,
    les_check,
    mode_truncation,
    rs_cohomology,
    short_exact_splice,
    total_complex,
    weight_truncation,
)
from cscx.descent import rs_complex
from cscx.errors import CscxError, NotAComplexError
from cscx.grading import (
    GradedSpace,
    contact_section_dim,
    mode_section_dim,
    mode_shells,
    sample_modes,
    weight_section_dim,
)
from cscx.linalg import OperatorMatrix, SectionBasis, reduced_cohomology_dims, sparse_nullspace, sparse_rref
from cscx.rumin import rumin_complex

from helpers import (
    de_rham_complex,
    dense_rank,
    echelon_quotient,
    echelon_quotient_dims,
    image_columns,
    twisted_complex,
)


def _basis(tag, size):
    return SectionBasis(key=(tag,), labels=tuple((("w", 0), (tag, i)) for i in range(size)))


class TestCohomologyDims:
    def test_zero_complex(self):
        mats = [
            OperatorMatrix(_basis("b", 0), _basis("a", 0), {}),
            OperatorMatrix(_basis("c", 0), _basis("b", 0), {}),
        ]
        assert cohomology_dims(mats) == [0, 0, 0]

    def test_rejects_non_complex(self):
        a, b, c = _basis("a", 1), _basis("b", 1), _basis("c", 1)
        mats = [
            OperatorMatrix(b, a, {(0, 0): Fraction(1)}),
            OperatorMatrix(c, b, {(0, 0): Fraction(1)}),
        ]
        with pytest.raises(NotAComplexError) as err:
            cohomology_dims(mats)
        assert err.value.position == 0

    def test_affine_de_rham_is_scalar_in_degree_zero(self, cs_affine2):
        dims = cohomology_dims(de_rham_complex(cs_affine2, weight_truncation(6)))
        assert dims == [1, 0, 0, 0, 0]

    def test_torus_de_rham_constant_mode(self, cs_torus2):
        truncation = mode_truncation([(0, 0, 0, 0)])
        dims = cohomology_dims(de_rham_complex(cs_torus2, truncation))
        assert dims == [1, 4, 6, 4, 1]

    def test_torus_nonzero_modes_contribute_nothing(self, cs_torus2):
        for mode in sample_modes(4, 4, seed="per-mode"):
            truncation = mode_truncation([mode])
            assert cohomology_dims(de_rham_complex(cs_torus2, truncation)) == [0] * 5
            assert cohomology_dims(twisted_complex(cs_torus2, truncation)) == [0] * 5
            assert cohomology_dims(rs_complex(cs_torus2, truncation)) == [0] * 6


class TestRankOracle:
    """The exact sparse rank of every assembled block against the dense oracle."""

    @staticmethod
    def _assert_ranks_match(mats):
        for m in mats:
            rows, cols = m.shape
            dense = [[m.entries.get((i, j), Fraction(0)) for j in range(cols)] for i in range(rows)]
            assert m.rank() == dense_rank(dense)

    @pytest.mark.parametrize("model", ["affine", "torus"])
    @pytest.mark.parametrize(
        "builder", [de_rham_complex, twisted_complex, total_complex, rs_complex],
        ids=["de-rham", "twisted", "total", "rs"],
    )
    def test_cs_complexes(self, cs_affine2, cs_torus2, model, builder):
        if model == "affine":
            cs, truncation = cs_affine2, weight_truncation(3)
        else:
            cs, truncation = cs_torus2, mode_truncation([(0, 0, 0, 0)])
        self._assert_ranks_match(builder(cs, truncation))

    def test_rumin_complex(self, contact2):
        self._assert_ranks_match(rumin_complex(contact2, weight_truncation(3)))


class TestSampleModes:
    def test_every_orbit_then_refuses(self):
        # sup-norm <= 2 in four variables: (5**4 - 1) / 2 = 312 nonzero orbits
        modes = sample_modes(4, 312)
        assert len(set(modes)) == 312
        with pytest.raises(CscxError):
            sample_modes(4, 313)


class TestSectionBudget:
    """The closed-form section dimensions against enumerated bases, and what the budget admits."""

    @staticmethod
    def _enumerated(cs, truncation):
        return sum(
            GradedSpace(cs.chart, k).basis(truncation).dim for k in range(2 * cs.n + 1)
        )

    @pytest.mark.parametrize("max_weight", range(6))
    def test_weight_closed_form(self, cs_affine2, max_weight):
        expected = self._enumerated(cs_affine2, weight_truncation(max_weight))
        assert weight_section_dim(2, max_weight) == expected

    @pytest.mark.parametrize("max_weight", range(6))
    def test_contact_closed_form(self, contact2, max_weight):
        # the contact chart's t coordinate has weight two
        expected = self._enumerated(contact2, weight_truncation(max_weight))
        assert contact_section_dim(2, max_weight) == expected

    @pytest.mark.parametrize("norms", [{0}, {1}, {0, 1}, {2}, {0, 2}], ids=str)
    def test_mode_closed_form(self, cs_torus2, norms):
        truncation = mode_truncation(mode_shells(4, norms))
        assert mode_section_dim(2, norms, 0) == self._enumerated(cs_torus2, truncation)

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig("cohomology", "cs-affine", n=3, max_weight=6),
            RunConfig("cohomology", "cs-affine", n=3, max_weight=8),
            RunConfig("cohomology", "cs-affine", n=4, max_weight=4),
            RunConfig("rumin-verify", "contact-affine", n=3, max_weight=4),
            RunConfig("rumin-verify", "contact-affine", n=2, max_weight=12),
            RunConfig("rs-build", "torus", n=2, mode_norms=(0, 1), sample_count=3),
            RunConfig("rs-build", "torus", n=3, mode_norms=(0,), sample_count=2),
            RunConfig("lefschetz-table", "cs-affine", n=3, max_weight=0),
            RunConfig("cohomology", "cs-affine", n=3, max_weight=10),
            RunConfig("cohomology", "cs-affine", n=5, max_weight=6),
            RunConfig("cohomology", "cs-affine", n=2, max_weight=20),
            RunConfig("rumin-verify", "contact-affine", n=3, max_weight=9),
            RunConfig("rumin-verify", "contact-affine", n=2, max_weight=16),
        ],
        ids=["affine-n3-w6", "affine-n3-w8", "affine-n4-w4", "rumin-n3-w4", "rumin-n2-w12",
             "torus-n2", "torus-n3", "lefschetz-n3", "affine-n3-w10", "affine-n5-w6",
             "affine-n2-w20", "rumin-n3-w9", "rumin-n2-w16"],
    )
    def test_budget_admits(self, config):
        config.validate()


class TestQuotient:
    def test_representatives_and_coords(self):
        # complex 0 -> Q^2 -d-> Q^2 -> 0 with d = [[0,0],[1,0]]
        a, b = _basis("a", 2), _basis("b", 2)
        d = OperatorMatrix(b, a, {(1, 0): Fraction(1)})
        h_a = CochainQuotient(None, d, 2, 1)
        assert h_a.dim == 1 and h_a.reps == [{1: 1}]  # kernel is span(e1)
        h_b = CochainQuotient(d, None, 2, 1)
        assert h_b.dim == 1  # e1 modulo image span(e1)... representative e0
        coords = h_b.coords({0: Fraction(3)})
        assert coords == {0: Fraction(3)}


class TestSplice:
    def test_affine(self, cs_affine2):
        report = short_exact_splice(cs_affine2, weight_truncation(3))
        assert report.ok, report

    def test_torus(self, cs_torus2):
        report = short_exact_splice(
            cs_torus2, mode_truncation([(0, 0, 0, 0), (1, 1, 0, 0)])
        )
        assert report.ok, report


    def test_les_pipeline_reads_both_checks_from_one_build(self, cs_affine2):
        truncation = weight_truncation(3)
        les, splice = les_and_splice(cs_affine2, truncation)
        assert les == les_check(cs_affine2, truncation)
        assert splice == short_exact_splice(cs_affine2, truncation)

    @pytest.mark.parametrize(
        "maps, node, flag",
        [("inclusions", 0, "inclusion_chain_map"), ("projections", 1, "projection_chain_map")],
    )
    def test_corrupted_entry_trips_only_its_flag(self, cs_affine2, maps, node, flag):
        # weight 3: node 0 holds cubic functions, node 1 twisted linear
        # functions, and d is nonzero on every one of them
        block = BlockComplexes(cs_affine2, ("w", 3))
        assert block.splice().ok
        matrix = getattr(block, maps)[node]
        key = next(iter(matrix.entries))
        matrix.entries[key] *= 2
        report = block.splice().to_json()
        assert report.pop(flag) is False
        assert all(report.values()), report


class TestOneBuildPerBlock:
    def test_les_pipeline_assembles_each_total_complex_once(self, cs_affine2, monkeypatch):
        calls = []
        build = cohomology.total_complex

        def counted(cs, truncation):
            calls.append(truncation.blocks())
            return build(cs, truncation)

        monkeypatch.setattr(cohomology, "total_complex", counted)
        code, _ = run_suite(RunConfig(pipeline="les", model="cs-affine", n=2, max_weight=3))
        assert code == 0
        # one total complex per weight block, each over that block alone
        assert calls == [[block] for block in weight_truncation(3).blocks()]

    def test_total_space_vector_reads_the_basis_it_is_given(self, cs_affine2):
        big = _TotalSpace(cs_affine2, 2).basis(weight_truncation(4))
        fresh = _TotalSpace(cs_affine2, 2)
        for i, label in enumerate(big.labels):
            assert fresh.vector(fresh.element(label), big) == {i: Fraction(1)}
        fresh.basis(weight_truncation(2))
        single = fresh.basis(Truncation.single(("w", 4)))
        for i, label in enumerate(single.labels):
            elem = fresh.element(label)
            assert fresh.vector(elem, single) == {i: Fraction(1)}
            assert fresh.vector(elem, big) == {big.position[label]: Fraction(1)}


class TestLes:
    def test_affine_connecting_maps_vanish(self, cs_affine2):
        report = les_check(cs_affine2, weight_truncation(4))
        assert report.exact
        assert report.snake_equals_wedge
        assert all(r == 0 for r in report.connecting_ranks)
        assert list(report.total_dims) == [1, 1, 0, 0, 0, 0]

    def test_torus_connecting_ranks(self, cs_torus2):
        report = les_check(cs_torus2, mode_truncation([(0, 0, 0, 0)]))
        assert report.exact
        assert report.snake_equals_wedge
        assert list(report.connecting_ranks) == [0, 1, 4, 1, 0]
        assert list(report.total_dims) == [1, 4, 5, 5, 4, 1]


_HANDOFF_BLOCKS = [("affine", ("w", w)) for w in range(5)] + [("torus", ("m", (0, 0, 0, 0)))]


def _block_complexes(blocks):
    """The de Rham, twisted and total complexes of a block, each with its name and bases."""
    return [
        ("de-rham", blocks.de_rham, blocks.a_bases),
        ("twisted", blocks.twisted, blocks.w_bases),
        ("total", blocks.total, blocks.t_bases),
    ]


def _non_cocycle(d_out):
    """A unit vector that ``d_out`` does not kill, or None when it is zero."""
    if d_out is None or d_out.is_zero():
        return None
    return {min(c for _, c in d_out.entries): 1}


class TestEchelonHandOff:
    """Quotients decided by the unit-pivot reduction give the echelon
    quotients built afresh: the same representatives and coordinates where
    classes live, and no echelon at a zero node."""

    @pytest.mark.parametrize("model, block", _HANDOFF_BLOCKS, ids=[str(b) for _, b in _HANDOFF_BLOCKS])
    def test_quotients_match_fresh_build(self, cs_affine2, cs_torus2, model, block):
        blocks = BlockComplexes(cs_affine2 if model == "affine" else cs_torus2, block)
        for name, maps, bases in _block_complexes(blocks):
            quotients = _quotients(maps, bases, name)
            assert len(quotients) == len(bases) == len(maps) + 1
            for k, quotient in enumerate(quotients):
                d_in = maps[k - 1] if k else None
                d_out = maps[k] if k < len(maps) else None
                reps, coords = echelon_quotient(d_in, d_out, bases[k].dim)
                assert quotient.reps == reps
                assert quotient.dim == len(reps)
                if not reps:
                    # a zero node: every image column is a cocycle of class zero
                    assert quotient._span is None
                    for vec in image_columns(d_in):
                        assert quotient.coords(vec) == {}
                    outside = _non_cocycle(d_out)
                    if outside is not None:
                        assert quotient.coords(outside) is None
                    continue
                for vec in reps + image_columns(d_in):
                    assert quotient.coords(vec) == coords(vec)
                if d_in is not None:
                    # the span starts with the column echelon of d_in
                    reference = sparse_rref(d_in.entries, d_in.cols.dim)
                    rank = len(reference)
                    assert quotient._span._pivots[:rank] == reference._pivots
                    assert quotient._span._rows[:rank] == reference._rows

    @pytest.mark.parametrize("model, block", _HANDOFF_BLOCKS, ids=[str(b) for _, b in _HANDOFF_BLOCKS])
    def test_nullspace_echelon_is_the_column_echelon(self, cs_affine2, cs_torus2, model, block):
        # the nullspace's free columns are exactly those the column echelon drops
        blocks = BlockComplexes(cs_affine2 if model == "affine" else cs_torus2, block)
        for d in blocks.de_rham + blocks.twisted + blocks.total:
            kernel = sparse_nullspace(d.entries, d.cols.dim)
            pivots = sparse_rref(d.entries, d.cols.dim).labels
            assert sorted(pivots + [max(vec) for vec in kernel]) == list(range(d.cols.dim))
            for vec in kernel:
                assert d.apply(vec) == {}


def _torus_blocks():
    return mode_truncation(list(mode_shells(4, {0, 1}))).blocks()


class TestReductionAgreesWithEchelons:
    """The unit-pivot reduction gives the class count of the echelon
    quotients at every node of every reference block."""

    @pytest.mark.parametrize(
        "model, blocks",
        [("affine", [("w", w) for w in range(7)]), ("torus", _torus_blocks())],
        ids=["affine-w6", "torus-modes-0-1"],
    )
    def test_dims_equal_echelon_quotients(self, cs_affine2, cs_torus2, model, blocks):
        cs = cs_affine2 if model == "affine" else cs_torus2
        for block in blocks:
            for name, maps, bases in _block_complexes(BlockComplexes(cs, block)):
                reduced = reduced_cohomology_dims([m.entries for m in maps], [b.dim for b in bases])
                assert reduced == echelon_quotient_dims(maps, bases), (block, name)


_ZERO_MODE = ("m", (0, 0, 0, 0))


def _sequence_map(push):
    """``(kind, node)`` when push applies the inclusion or projection at a node, else None."""
    matrix = getattr(push, "__self__", None)
    if not isinstance(matrix, OperatorMatrix):
        return None
    if matrix.rows.key[0] == "total":
        return ("inclusion", matrix.rows.key[2])
    if matrix.cols.key[0] == "total":
        return ("projection", matrix.cols.key[2])
    return None


def _corrupt(monkeypatch, which, change):
    """Pass the induced map named ``which`` through ``change``; record the
    induced inclusions and projections as the sequence check sees them."""
    original = CochainQuotient.induced_matrix
    seen = {}

    def patched(self, push, target):
        out = original(self, push, target)
        name = _sequence_map(push)
        if name == which:
            out = change(out)
        if name is not None:
            seen[name] = out
        return out

    monkeypatch.setattr(CochainQuotient, "induced_matrix", patched)
    return seen


def _dense_matrix(entries, nrows, ncols):
    return [[entries.get((r, c), Fraction(0)) for c in range(ncols)] for r in range(nrows)]


def _drop_column_0(out):
    return {key: v for key, v in out.items() if key[1] != 0}


class TestLesWitness:
    """Corrupted induced maps on the torus constant mode fail the exactness
    check, with a witness class where the ranks disagree."""

    @pytest.mark.parametrize(
        "which, change",
        [(("inclusion", 1), lambda out: {}), (("projection", 3), _drop_column_0)],
        ids=["inclusion-1-zero", "projection-3-drops-column-0"],
    )
    def test_witness_is_a_kernel_class_outside_the_image(self, cs_torus2, monkeypatch, which, change):
        block = BlockComplexes(cs_torus2, _ZERO_MODE)
        seen = _corrupt(monkeypatch, which, change)
        result = block.les()
        k = which[1]
        assert not result.exact
        prefix = f"node H_total[{k}]: im != ker; counterexample class "
        assert result.failure.startswith(prefix)
        a_dim, t_dim, w_dim = result.de_rham_dims[k], result.total_dims[k], result.twisted_dims[k]
        witness = [Fraction(0)] * t_dim
        for i, v in ast.literal_eval(result.failure[len(prefix):]).items():
            witness[int(i)] = Fraction(v)
        assert any(witness)
        # in the kernel of the outgoing map
        out_rows = _dense_matrix(seen[("projection", k)], w_dim, t_dim)
        assert dense_rank([[sum(a * b for a, b in zip(row, witness))] for row in out_rows]) == 0
        # outside the image of the incoming one
        in_cols = [list(col) for col in zip(*_dense_matrix(seen[("inclusion", k)], t_dim, a_dim))]
        assert dense_rank(in_cols + [witness]) == dense_rank(in_cols) + 1

    def test_inclusion_hitting_a_projected_class_breaks_the_composite(self, cs_torus2, monkeypatch):
        # the projection is injective on total classes at node 3, so sending
        # a de Rham class onto total class 0 survives the composite
        block = BlockComplexes(cs_torus2, _ZERO_MODE)
        _corrupt(monkeypatch, ("inclusion", 3), lambda out: {(0, 0): 1})
        result = block.les()
        assert not result.exact
        assert result.failure == "node H_total[3]: composite not zero"

    def test_les_command_exits_1_with_the_witness(self, monkeypatch):
        _corrupt(monkeypatch, ("inclusion", 1), lambda out: {})
        result = CliRunner().invoke(main, ["les", "--model", "torus", "--n", "2"])
        assert result.exit_code == 1, result.output
        les = json.loads(result.output)["result"]["les"]
        assert not les["exact"]
        assert les["failure"].startswith("node H_total[1]: im != ker; counterexample class {")


def _one_line_exit_1(result):
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    return lines[0]


class TestTwoEngines:
    """Where the reduction and the echelon quotients part, the run exits 1 with one line."""

    def test_reduction_one_class_short_names_block_complex_and_node(self, monkeypatch):
        reduce = cohomology.reduced_cohomology_dims

        def one_short(maps, dims):
            out = reduce(maps, dims)
            # the first node with most classes; it keeps at least one
            k = out.index(max(out))
            if out[k] >= 2:
                out[k] -= 1
            return out

        monkeypatch.setattr(cohomology, "reduced_cohomology_dims", one_short)
        result = CliRunner().invoke(main, ["les", "--model", "torus", "--n", "2"])
        line = _one_line_exit_1(result)
        # the de Rham complex of the constant mode has dims [1, 4, 6, 4, 1, 0]
        assert line == (
            "error: block ('m', (0, 0, 0, 0)) de-rham complex node 2: the unit-pivot "
            "reduction gives 5 classes, the quotient 6 representatives"
        )

    def test_class_sent_to_a_non_cocycle_of_a_zero_node(self, monkeypatch):
        # de Rham d_0 of block 2 loses the column of its first quadratic
        # function, so the inclusion stops being a chain map: it sends that
        # new class to total node 0, a zero node whose differential is injective
        build = BlockComplexes.__init__

        def corrupted(self, cs, block):
            build(self, cs, block)
            if block == ("w", 2):
                d = self.de_rham[0]
                kept = {key: v for key, v in d.entries.items() if key[1] != 0}
                self.de_rham[0] = OperatorMatrix(d.rows, d.cols, kept)

        monkeypatch.setattr(BlockComplexes, "__init__", corrupted)
        result = CliRunner().invoke(main, ["les", "--model", "affine", "--n", "2", "--max-weight", "2"])
        assert _one_line_exit_1(result) == "error: chain map image is not a cocycle"

    def test_class_hidden_as_a_zero_node_fails_the_sequence(self, monkeypatch):
        # a class the reduction misses builds no echelon, but the rs ranks and
        # the exactness count still see it
        monkeypatch.setattr(cohomology, "reduced_cohomology_dims", lambda maps, dims: [0] * len(dims))
        result = CliRunner().invoke(main, ["cohomology", "--model", "affine", "--n", "2", "--max-weight", "2"])
        assert result.exit_code == 1, result.output
        report = json.loads(result.stdout)
        assert not report["passed"]
        assert not report["result"]["checks"]["total_matches_rs"]


class TestReports:
    def test_affine_report(self, cs_affine2):
        report = rs_cohomology(cs_affine2, weight_truncation(6))
        assert report.dims["rs"] == [1, 1, 0, 0, 0, 0]
        assert report.dims["deRham"] == [1, 0, 0, 0, 0]
        assert report.checks["weight_stable"]
        assert report.checks["total_matches_rs"]
        assert report.les["exact"]

    def test_torus_report(self, cs_torus2):
        modes = [(0, 0, 0, 0)] + sample_modes(4, 3)
        report = rs_cohomology(cs_torus2, mode_truncation(modes))
        assert report.dims["rs"] == [1, 4, 5, 5, 4, 1]
        assert report.dims["deRham"] == [1, 4, 6, 4, 1]
        assert report.checks["sampled_modes_vanish"]
        assert report.checks["euler_zero"]
        assert report.les["exact"]
        assert report.les["connecting_ranks"] == [0, 1, 4, 1, 0]

    def test_euler_identity_from_binomials(self, cs_torus2):
        # alternating sum of the doubled primitive pattern vanishes
        from cscx.grading import binomial_primitive_dim

        n = cs_torus2.n
        fiber_dims = [binomial_primitive_dim(n, k) for k in range(n + 1)]
        fiber_dims += [binomial_primitive_dim(n, k) for k in range(n, 2 * n + 1)]
        assert sum((-1) ** k * d for k, d in enumerate(fiber_dims)) == 0
