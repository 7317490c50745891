import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from cscx import contact, descent
from cscx.claims import MAX_N, MAX_WEIGHT
from cscx.cli import RunConfig, main, run_suite
from cscx.descent import descend_complex, rs_complex, ss_fallback
from cscx.errors import ConfigError, InternalConsistencyError
from cscx.grading import GradedSpace, weight_truncation
from cscx.lefschetz import TwistedForm
from cscx.linalg import OperatorMatrix
from cscx.rumin import rumin_complex


@pytest.fixture
def runner():
    return CliRunner()


def _strip_meta(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    out.get("meta", {}).pop("timestamp", None)
    out.get("meta", {}).pop("elapsed_seconds", None)
    return out


GOOD_BETA = {
    "model": "contact",
    "n": 2,
    "ring": "poly",
    "beta": {
        "degree": 1,
        "terms": [
            {
                "idx": [1],
                "coef": {
                    "ring": "poly",
                    "nvars": 4,
                    "terms": [{"exp": [1, 0, 0, 0], "num": "1", "den": "1"}],
                },
            },
            {
                "idx": [3],
                "coef": {
                    "ring": "poly",
                    "nvars": 4,
                    "terms": [{"exp": [0, 0, 1, 0], "num": "1", "den": "1"}],
                },
            },
        ],
    },
}

BAD_BETA = {
    "model": "contact",
    "n": 2,
    "ring": "poly",
    "beta": {
        "degree": 1,
        "terms": [
            {
                "idx": [1],
                "coef": {
                    "ring": "poly",
                    "nvars": 4,
                    "terms": [{"exp": [1, 0, 0, 0], "num": "1", "den": "1"}],
                },
            }
        ],
    },
}


class TestChartValidate:
    def test_valid_chart(self, runner, tmp_path):
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(GOOD_BETA))
        result = runner.invoke(main, ["chart", "validate", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["valid"]

    def test_degenerate_potential_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad-beta.json"
        path.write_text(json.dumps(BAD_BETA))
        result = runner.invoke(main, ["chart", "validate", str(path)])
        assert result.exit_code == 2
        assert "not a cs potential" in result.output

    def test_malformed_file_exit_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["chart", "validate", str(path)])
        assert result.exit_code == 2


    def _assert_one_line_exit_2(self, runner, path):
        result = runner.invoke(main, ["chart", "validate", str(path)])
        assert result.exit_code == 2
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid chart")
        return lines[0]

    def test_top_level_array_exit_2(self, runner, tmp_path):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([GOOD_BETA]))
        self._assert_one_line_exit_2(runner, path)

    def test_zero_denominator_exit_2(self, runner, tmp_path):
        payload = json.loads(json.dumps(GOOD_BETA))
        payload["beta"]["terms"][0]["coef"]["terms"][0]["den"] = "0"
        path = tmp_path / "zero-den.json"
        path.write_text(json.dumps(payload))
        self._assert_one_line_exit_2(runner, path)

    @pytest.mark.parametrize(
        "path, value, reason",
        [
            (("n",), 2.9, "n must be a JSON integer"),
            (("n",), "2", "n must be a JSON integer"),
            (("n",), True, "n must be a JSON integer"),
            (("beta", "terms", 0, "idx"), [1.0], "index entry must be a JSON integer"),
            (("beta", "degree"), 1.7, "degree must be a JSON integer"),
            (("beta", "terms", 0, "coef", "nvars"), 4.0, "nvars must be a JSON integer"),
            (("beta", "terms", 0, "coef", "terms", 0, "num"), 1.5, "not integer strings"),
            (("ring",), "banana", "ring must be 'poly' or 'trig'"),
            (("ring",), "trig", "the torus has no global contact form"),
            (
                ("beta", "terms", 0, "coef"),
                {"ring": "poly", "nvars": 5, "terms": [{"exp": [1, 0, 0, 0, 0], "num": "1", "den": "1"}]},
                "not in the chart's poly ring",
            ),
        ],
        ids=[
            "n-float", "n-string", "n-bool", "index-float", "degree-float", "nvars-float",
            "num-float", "ring-unknown", "ring-trig-contact", "coefficient-ring-mismatch",
        ],
    )
    def test_malformed_field_exit_2(self, runner, tmp_path, path, value, reason):
        payload = json.loads(json.dumps(GOOD_BETA))
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        chart_file = tmp_path / "field.json"
        chart_file.write_text(json.dumps(payload))
        assert reason in self._assert_one_line_exit_2(runner, chart_file)

    @pytest.mark.parametrize(
        "model, ring", [("cs", "trig"), ("cs-affine", "trig"), ("torus", "poly")]
    )
    def test_model_ring_mismatch_exit_2(self, runner, tmp_path, model, ring):
        path = tmp_path / "cs.json"
        path.write_text(json.dumps({"model": model, "n": 2, "ring": ring}))
        assert "model needs ring" in self._assert_one_line_exit_2(runner, path)

    @pytest.mark.parametrize("power", [-1, 0.5], ids=["negative", "fractional"])
    def test_non_polynomial_exponent_exit_2(self, runner, tmp_path, power):
        # beta = x1 dy1 + x2 dy2 + x1^power dx1
        payload = json.loads(json.dumps(GOOD_BETA))
        payload["beta"]["terms"].append(
            {
                "idx": [0],
                "coef": {
                    "ring": "poly",
                    "nvars": 4,
                    "terms": [{"exp": [power, 0, 0, 0], "num": "1", "den": "1"}],
                },
            }
        )
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(payload))
        self._assert_one_line_exit_2(runner, path)


class TestRunSuite:
    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            run_suite(RunConfig(pipeline="cohomology", model="cs-affine", n=1, max_weight=2))

    def test_rumin_verify_small(self):
        code, report = run_suite(
            RunConfig(pipeline="rumin-verify", model="contact-affine", n=2, max_weight=3)
        )
        assert code == 0
        assert report["passed"]
        assert report["result"]["composites_zero"]
        assert report["result"]["orders"] == [1, 1, 2, 1, 1]

    def test_crosscheck_small(self):
        code, report = run_suite(
            RunConfig(pipeline="rs-crosscheck", model="cs-affine", n=2, max_weight=3)
        )
        assert code == 0
        assert all(report["result"]["descended_equals_intrinsic"])
        assert all(report["result"]["intrinsic_equals_fallback"])

    def test_deterministic_reports(self):
        config = RunConfig(
            pipeline="cohomology", model="torus", n=2, sample_count=2, seed=5
        )
        _, first = run_suite(config)
        _, second = run_suite(config)
        assert _strip_meta(first) == _strip_meta(second)

    def test_thin_adapter_matches_core(self, cs_torus2):
        # the CLI result is exactly the core-module report
        from cscx.cohomology import mode_truncation, rs_cohomology
        from cscx.grading import sample_modes, mode_shells

        config = RunConfig(
            pipeline="cohomology", model="torus", n=2, sample_count=2, seed=5
        )
        _, report = run_suite(config)
        modes = list(mode_shells(4, {0})) + sample_modes(4, 2, seed=5)
        direct = rs_cohomology(cs_torus2, mode_truncation(modes))
        assert report["result"]["dims"] == direct.to_json()["dims"]
        assert report["result"]["les"] == direct.to_json()["les"]


class TestCliCommands:
    def test_cohomology_torus(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "cohomology",
                "--model",
                "torus",
                "--n",
                "2",
                "--modes",
                "0",
                "--sample-modes",
                "2",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["result"]["dims"]["rs"] == [1, 4, 5, 5, 4, 1]

    def test_les_affine(self, runner):
        result = runner.invoke(
            main, ["les", "--model", "affine", "--n", "2", "--max-weight", "3"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["result"]["les"]["exact"]
        assert payload["result"]["splice"]["exact_at_each_degree"]

    def test_lefschetz_table_csv(self, runner, tmp_path):
        result = runner.invoke(main, ["lefschetz", "table", "--n", "2", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "k,total_dim,primitive_dim,summands"
        assert lines[1].startswith("0,1,1,")
        table = tmp_path / "table.csv"
        written = runner.invoke(
            main, ["lefschetz", "table", "--n", "2", "--format", "csv", "--out", str(table)]
        )
        assert written.exit_code == 0
        assert written.stdout == result.stdout
        assert table.read_text() == result.stdout.rstrip("\n") + "\n"

    def test_cohomology_csv_rows_are_the_report_dims(self, runner, tmp_path):
        table = tmp_path / "dims.csv"
        result = runner.invoke(
            main,
            ["cohomology", "--model", "torus", "--n", "2", "--sample-modes", "0",
             "--csv", str(table)],
        )
        assert result.exit_code == 0, result.output
        dims = json.loads(result.stdout)["result"]["dims"]
        header, *rows = [line.split(",") for line in table.read_text().splitlines()]
        assert header == ["degree"] + sorted(dims)
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        for j, key in enumerate(header[1:], start=1):
            assert [int(row[j]) for row in rows if row[j] != ""] == dims[key]

    @pytest.mark.parametrize(
        "argv",
        [
            ["rumin", "verify", "--n", "2", "--max-weight", "2", "--out"],
            ["cohomology", "--model", "affine", "--max-weight", "2", "--csv"],
            ["lefschetz", "table", "--format", "csv", "--out"],
        ],
        ids=["rumin-verify-out", "cohomology-csv", "lefschetz-table-out"],
    )
    def test_output_in_missing_directory_exits_2_before_the_run(
        self, runner, monkeypatch, tmp_path, argv
    ):
        def no_run(config):
            raise AssertionError("the run started before the output path was checked")

        monkeypatch.setattr("cscx.cli.run_suite", no_run)
        result = runner.invoke(main, argv + [str(tmp_path / "missing" / "x")])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot write ")
        assert len(result.stderr.strip().splitlines()) == 1

    def test_rs_build_writes_operators(self, runner, tmp_path):
        out = tmp_path / "ops.json"
        result = runner.invoke(
            main,
            ["rs", "build", "--model", "torus", "--n", "2", "--modes", "0,1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        operators = payload["result"]["operators"]
        assert len(operators) == 5
        assert operators[0]["matrix"]["rows"] > 0

    def test_bad_flags_exit_2(self, runner):
        result = runner.invoke(main, ["cohomology", "--model", "affine", "--n", "1", "--max-weight", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command", [["cohomology"], ["les"], ["rs", "build"]], ids=["cohomology", "les", "rs-build"]
    )
    @pytest.mark.parametrize(
        "modes",
        [["--modes", "a"], ["--modes", "-1", "--sample-modes", "0"], ["--sample-modes", "313"]],
        ids=["unparsable", "empty-truncation", "more-samples-than-orbits"],
    )
    def test_bad_modes_exit_2_with_one_line(self, runner, command, modes):
        result = runner.invoke(main, command + ["--model", "torus", "--n", "2"] + modes)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["rs", "build", "--model", "affine", "--max-weight", "1", "--sample-modes", "3"],
            ["cohomology", "--model", "torus", "--max-weight", "6"],
            ["les", "--model", "affine", "--max-weight", "1", "--modes", "5",
             "--sample-modes", "4", "--seed", "9"],
        ],
        ids=["rs-build-affine-samples", "cohomology-torus-weight", "les-affine-mode-flags"],
    )
    def test_flag_foreign_to_model_exit_2_with_one_line(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command",
        [["rumin", "verify"], ["cohomology", "--model", "affine", "--max-weight", "2"]],
        ids=["rumin-verify", "cohomology"],
    )
    def test_modular_flag_is_gone(self, runner, command):
        result = runner.invoke(main, command + ["--modular"])
        assert result.exit_code == 2


def _bump(matrix: OperatorMatrix, row: int, col: int) -> OperatorMatrix:
    """A copy of ``matrix`` with 1 added to one entry."""
    entries = dict(matrix.entries)
    entries[(row, col)] = entries.get((row, col), 0) + 1
    return OperatorMatrix(matrix.rows, matrix.cols, entries)


class TestFailedChecks:
    """Exit 1 carries a witness, and the witness is checked independently."""

    def test_nonzero_d_squared_exits_1_with_one_line(self, runner, monkeypatch):
        compose = OperatorMatrix.compose

        def broken(self, other):
            out = compose(self, other)
            if out.rows.dim and out.cols.dim:
                return _bump(out, 0, 0)
            return out

        monkeypatch.setattr(OperatorMatrix, "compose", broken)
        result = runner.invoke(main, ["les", "--model", "affine", "--n", "2", "--max-weight", "2"])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == "error: de-rham complex fails at position 0\n"

    def test_internal_consistency_error_exits_1_with_one_line(self, runner, monkeypatch):
        def broken(cc, truncation):
            raise InternalConsistencyError("middle correction failed to cancel")

        monkeypatch.setattr("cscx.cli.rumin_complex", broken)
        result = runner.invoke(main, ["rumin", "verify", "--n", "2", "--max-weight", "2"])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == "error: middle correction failed to cancel\n"

    def test_crosscheck_witness_names_the_disagreeing_pair(self, runner, monkeypatch):
        doctored = []

        def fallback(cs, truncation):
            mats = ss_fallback(cs, truncation)
            (row, col), _ = sorted(mats[1].entries.items())[0]
            mats[1] = _bump(mats[1], row, col)
            doctored.append((cs, truncation, mats))
            return mats

        monkeypatch.setattr("cscx.cli.ss_fallback", fallback)
        result = runner.invoke(main, ["rs", "crosscheck", "--max-weight", "3"])
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert body["first_failure"] == {"pair": "intrinsic-vs-fallback", "degree": 1}
        assert all(body["descended_equals_intrinsic"])
        # the witness is real: degree 0 agrees and degree 1 does not
        (cs, truncation, mats), = doctored
        intrinsic = rs_complex(cs, truncation)
        assert intrinsic[0].entries == mats[0].entries
        assert intrinsic[1].entries != mats[1].entries

    def test_crosscheck_witness_names_a_descended_degree_that_differs(self, runner, monkeypatch):
        doctored = []

        def descended(pair, truncation):
            mats = descend_complex(pair, truncation)
            (row, col), _ = sorted(mats[1].entries.items())[0]
            mats[1] = _bump(mats[1], row, col)
            doctored.append((pair.cs, truncation, mats))
            return mats

        monkeypatch.setattr("cscx.cli.descend_complex", descended)
        result = runner.invoke(main, ["rs", "crosscheck", "--max-weight", "3"])
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert body["first_failure"] == {"pair": "descended-vs-intrinsic", "degree": 1}
        assert all(body["intrinsic_equals_fallback"])
        # the witness is real: degree 0 agrees and degree 1 does not
        (cs, truncation, mats), = doctored
        intrinsic = rs_complex(cs, truncation)
        assert intrinsic[0].entries == mats[0].entries
        assert intrinsic[1].entries != mats[1].entries

    def test_rumin_verify_witness_is_a_nonzero_composite_entry(self, runner, monkeypatch):
        corrupted = []

        def complex_with_bad_entry(cc, truncation):
            mats = rumin_complex(cc, truncation)
            # D1 reads row r of D0; an entry added there in a column of r's
            # block makes D1.D0 nonzero but keeps every matrix block-diagonal
            (_, r), _ = sorted(mats[1].entries.items())[0]
            block = mats[0].rows.labels[r][0]
            col = next(c for c, label in enumerate(mats[0].cols.labels) if label[0] == block)
            mats[0] = _bump(mats[0], r, col)
            corrupted.append(mats)
            return mats

        monkeypatch.setattr("cscx.cli.rumin_complex", complex_with_bad_entry)
        result = runner.invoke(main, ["rumin", "verify", "--n", "2", "--max-weight", "3"])
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert not body["composites_zero"]
        # only the composite flag trips
        assert body["block_diagonal"]
        assert body["orders"] == body["orders_expected"]
        failure = body["first_failure"]
        (mats,) = corrupted
        k = failure["degree"]
        row, col, value = failure["entry"]
        composite = mats[k + 1].compose(mats[k])
        assert composite.entries.get((row, col), 0) != 0
        assert str(composite.entries[(row, col)]) == value

    def test_cohomology_fails_when_total_disagrees_with_rs(self, runner, monkeypatch):
        def broken_rs(cs, truncation):
            mats = rs_complex(cs, truncation)
            if truncation.blocks() == [("m", (0, 0, 0, 0))]:
                # D_0 vanishes on the constant mode; a unit entry drops H^0
                mats[0] = _bump(mats[0], 0, 0)
            return mats

        monkeypatch.setattr("cscx.cohomology.rs_complex", broken_rs)
        argv = ["cohomology", "--model", "torus", "--n", "2", "--modes", "0", "--sample-modes", "1"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        report = json.loads(result.stdout)
        assert report["passed"] is False
        body = report["result"]
        assert body["dims"]["rs"] == [0, 3, 5, 5, 4, 1]
        assert body["dims"]["total"] == [1, 4, 5, 5, 4, 1]
        assert body["les"]["exact"] and body["les"]["snake_equals_wedge"]
        failed = [name for name, v in body["checks"].items() if v is False]
        assert failed == ["total_matches_rs"]

    @pytest.mark.parametrize("max_weight", [0, 1])
    def test_cohomology_below_the_stable_range_is_unstable(self, runner, max_weight):
        # H^1 = 1 appears at weight 2, so bounds 0 and 1 have not stabilized
        argv = ["cohomology", "--model", "affine", "--n", "2", "--max-weight", str(max_weight)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert body["dims"]["rs"] == [1, 0, 0, 0, 0, 0]
        assert body["checks"]["weight_stable"] is False
        assert body["checks"]["stability_compared_bounds"] == [max_weight - 2, max_weight]

    def test_cohomology_in_the_stable_range_passes(self, runner):
        argv = ["cohomology", "--model", "affine", "--n", "2", "--max-weight", "4"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        body = json.loads(result.stdout)["result"]
        assert body["dims"]["rs"] == [1, 1, 0, 0, 0, 0]
        assert body["checks"]["weight_stable"] is True
        assert body["checks"]["stability_compared_bounds"] == [2, 4]


SRC = Path(__file__).resolve().parent.parent / "src"


class TestSizeGuard:
    """An n or a truncation out of reach exits 2 at once, before any build."""

    def _run_cli(self, argv, expected="C(16, 8) = 12870"):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "cscx.cli"] + argv,
            capture_output=True, text=True, env=env, timeout=10,
        )
        elapsed = time.monotonic() - start
        assert result.returncode == 2, result.stderr
        assert elapsed < 2, f"took {elapsed:.1f} s"
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and expected in lines[0]
        return lines[0]

    # 10**306 overflows a float; 10**4300 - 1 has as many digits as an int may
    # be parsed from, and 2n one more than it may be printed with
    SIZES = pytest.mark.parametrize("n", [40, 10**306, 10**4300 - 1], ids=["40", "1e306", "4300-digits"])

    @SIZES
    def test_torus_chart_file_exit_2(self, tmp_path, n):
        path = tmp_path / "torus.json"
        path.write_text('{"model": "torus", "n": %d}' % n)
        assert self._run_cli(["chart", "validate", str(path)]).startswith("invalid chart")

    @SIZES
    def test_affine_cohomology_exit_2(self, n):
        argv = ["cohomology", "--model", "affine", "--n", str(n), "--max-weight", "0"]
        assert self._run_cli(argv).startswith("error: ")

    def test_torus_cohomology_checks_n_first(self):
        # the n guard runs before the sample pool (5^{2n} - 1) / 2 is counted,
        # a power of 5 with 1.4e7 digits here
        argv = ["cohomology", "--model", "torus", "--n", str(10**7)]
        assert self._run_cli(argv).startswith("error: ")

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            ("cohomology --model affine --n 2 --max-weight 40", "1,797,441"),
            ("rs build --model torus --n 7 --modes 3", "at least 10^15"),
            ("cohomology --model torus --n 7 --sample-modes 100000", "3,276,816,384"),
            ("les --model affine --n 2 --max-weight %d" % (10**4300 - 1), "at least 10^15"),
            # the contact chart's t powers push these over; the base count admits them
            ("rumin verify --n 2 --max-weight 14", "60,264"),
            ("rumin verify --n 3 --max-weight 8", "50,445"),
            ("rumin verify --n 2 --max-weight %d" % (10**4300 - 1), "at least 10^15"),
        ],
        ids=["affine-w40", "torus-n7-shell3", "torus-samples", "4300-digit-weight",
             "contact-n2-w14", "contact-n3-w8", "contact-4300-digit-weight"],
    )
    def test_section_budget_exit_2(self, argv, estimate):
        line = self._run_cli(argv.split(), expected="over the budget of 50,000")
        assert line.startswith("error: the truncation spans ") and estimate in line


class TestClaims:
    """``cscx claims``: one verdict per paper claim under the exit-code contract."""

    NAMES = [
        "lefschetz_thresholds",
        "lefschetz_decomposition",
        "descent_isomorphisms",
        "lifting",
        "contact_structure",
        "generic_route_upstairs",
    ]

    def _failing(self, result):
        claims = json.loads(result.stdout)["result"]["claims"]
        return {c["name"]: c["witness"] for c in claims if not c["passed"]}

    def test_every_claim_passes_with_no_witness(self, runner, tmp_path):
        out = tmp_path / "claims.json"
        result = runner.invoke(main, ["claims", "--n", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["passed"] and report["config"]["max_weight"] == MAX_WEIGHT
        claims = report["result"]["claims"]
        assert [c["name"] for c in claims] == self.NAMES
        assert all(c["passed"] and c["witness"] is None for c in claims)
        assert json.loads(out.read_text()) == report

    @pytest.mark.parametrize("n", [1, 8])
    def test_rank_out_of_range_exits_2_with_one_line(self, runner, n):
        result = runner.invoke(main, ["claims", "--n", str(n)])
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_broken_descent_inverse_fails_only_its_claim(self, runner, monkeypatch):
        iso_down = descent.iso_down

        def doubled(pair, obj, kind):
            out = iso_down(pair, obj, kind)
            if isinstance(out, TwistedForm):
                return TwistedForm(out.base.scale(2), out.ell_power)
            return out.scale(2)

        monkeypatch.setattr(descent, "iso_down", doubled)
        result = runner.invoke(main, ["claims", "--n", "2"])
        assert result.exit_code == 1, result.output
        failing = self._failing(result)
        assert list(failing) == ["descent_isomorphisms"]
        # the first row, on its first section: the constant function 1
        pair = descent.standard_pair(2)
        label = GradedSpace(pair.cs.chart, 0).basis(weight_truncation(MAX_WEIGHT)).labels[0]
        assert failing["descent_isomorphisms"] == {
            "check": "round_trip", "row": "h", "degree": 0, "label": json.loads(json.dumps(label)),
        }
        section = GradedSpace(pair.cs.chart, 0).element(label)
        up = descent.iso_up(pair, section, "h")
        assert iso_down(pair, up, "h") == section != doubled(pair, up, "h")

    def test_rank_above_max_n_exits_2_with_one_line(self, runner):
        result = runner.invoke(main, ["claims", "--n", str(MAX_N + 1)])
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: claims --n {MAX_N + 1} is too large")
        assert f"n <= {MAX_N}" in lines[0]

    def test_broken_invariance_names_the_row_and_label(self, runner, monkeypatch):
        promote = descent.promote_form

        def times_t(payload, chart):
            # a lift carrying a factor t is not invariant along the transversal field
            return promote(payload, chart).times(chart.coord_coeff(chart.t_axis))

        monkeypatch.setattr(descent, "promote_form", times_t)
        result = runner.invoke(main, ["claims", "--n", "2"])
        assert result.exit_code == 1, result.output
        failing = self._failing(result)
        assert list(failing) == ["descent_isomorphisms"]
        # the first row, on its first section: the constant function 1
        pair = descent.standard_pair(2)
        label = GradedSpace(pair.cs.chart, 0).basis(weight_truncation(MAX_WEIGHT)).labels[0]
        assert failing["descent_isomorphisms"] == {
            "check": "invariant", "row": "h", "degree": 0, "label": json.loads(json.dumps(label)),
        }

    def test_wrong_lift_scale_fails_only_lifting(self, runner, monkeypatch):
        lift_construction = contact.lift_construction

        def rescaled(chart_a, chart_b, matrix):
            lift = lift_construction(chart_a, chart_b, matrix)
            return dataclasses.replace(lift, scale=3 * lift.scale)

        monkeypatch.setattr(contact, "lift_construction", rescaled)
        result = runner.invoke(main, ["claims", "--n", "2"])
        assert result.exit_code == 1, result.output
        failing = self._failing(result)
        assert list(failing) == ["lifting"]
        assert failing["lifting"] == {
            "substitution": "scaling", "check": "scale", "scale": "6", "expected": 2,
        }


class TestReportFingerprint:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_fingerprint.py"

    def test_missing_reports_exit_1(self, tmp_path):
        # an empty cscx package shadows any installed copy, so no command runs
        (tmp_path / "src" / "cscx").mkdir(parents=True)
        (tmp_path / "src" / "cscx" / "__init__.py").write_text("")
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--root", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1, result.stderr
        lines = result.stdout.strip().splitlines()
        assert lines and all(line.startswith("no-report(exit 1)  ") for line in lines)
