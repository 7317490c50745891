from fractions import Fraction

import pytest

from cscx.cli import RunConfig, run_suite
from cscx.cohomology import (
    BlockComplexes,
    CochainQuotient,
    Truncation,
    _TotalSpace,
    cohomology_dims,
    de_rham_complex,
    les_and_splice,
    les_check,
    mode_truncation,
    rs_cohomology,
    short_exact_splice,
    total_complex,
    twisted_complex,
    weight_truncation,
)
from cscx.descent import rs_complex
from cscx.errors import CscxError, NotAComplexError
from cscx.grading import sample_modes
from cscx.linalg import OperatorMatrix, SectionBasis, dense_rank
from cscx.rumin import rumin_complex


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


class TestQuotient:
    def test_representatives_and_coords(self):
        # complex 0 -> Q^2 -d-> Q^2 -> 0 with d = [[0,0],[1,0]]
        a, b = _basis("a", 2), _basis("b", 2)
        d = OperatorMatrix(b, a, {(1, 0): Fraction(1)})
        h_a = CochainQuotient(None, d, 2)
        assert h_a.dim == 1  # kernel is span(e1)
        h_b = CochainQuotient(d, None, 2)
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
        element = _TotalSpace.element

        def counted(self, label):
            calls.append(label)
            return element(self, label)

        monkeypatch.setattr(_TotalSpace, "element", counted)
        code, _ = run_suite(RunConfig(pipeline="les", model="cs-affine", n=2, max_weight=3))
        assert code == 0
        truncation = weight_truncation(3)
        degrees = range(2 * cs_affine2.n + 1)
        domain_dims = [_TotalSpace(cs_affine2, k).basis(truncation).dim for k in degrees]
        assert len(calls) == sum(domain_dims)

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
