import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from cscx import cli, contact, descent, rumin
from cscx.claims import MAX_N, MAX_WEIGHT
from cscx.cli import RunConfig, main, run_suite
from cscx.descent import descend_complex, rs_complex, ss_fallback
from cscx.errors import ConfigError, InternalConsistencyError
from cscx.forms import basis_form, wedge
from cscx.grading import GradedSpace, weight_truncation
from cscx.lefschetz import TwistedForm, standard_cs_chart
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

    def test_rumin_verify_runs_one_probe_pass(self, monkeypatch):
        # the order tables are the only probe pass: the complex reads their
        # prefixes, and rumin_apply runs again only for the direct column checks
        calls = []
        probes = []
        apply, measure = rumin.rumin_apply, cli.operator_order

        def counting(struct, k, payload):
            calls.append(k)
            return apply(struct, k, payload)

        def measuring(struct, k):
            before = len(calls)
            table = measure(struct, k)
            probes.append(len(calls) - before)
            return table

        monkeypatch.setattr(rumin, "rumin_apply", counting)
        monkeypatch.setattr(cli, "operator_order", measuring)
        code, report = run_suite(
            RunConfig(pipeline="rumin-verify", model="contact-affine", n=2, max_weight=6)
        )
        assert code == 0 and report["result"]["orders"] == [1, 1, 2, 1, 1]
        # the primitive fiber dims 1, 4, 5, 5, 4 times the 56 probes |c| <= 3 on R^5
        assert probes == [56 * dim for dim in (1, 4, 5, 5, 4)] and sum(probes) == 1064
        # plus one direct column per nonempty block of each degree: 23 at w <= 6
        assert len(calls) == 1087

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
        "command", [["cohomology"], ["les"], ["rs", "build"]], ids=["cohomology", "les", "rs-build"]
    )
    @pytest.mark.parametrize("modes", ["", ",", ",,"], ids=["empty", "comma", "commas"])
    def test_empty_mode_list_exit_2_with_one_line(self, runner, command, modes):
        # an empty list must not fall back to the constant shell the report does not name
        argv = command + ["--model", "torus", "--n", "2", "--modes", modes, "--sample-modes", "0"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "names no sup-norm shell" in result.stderr
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
        "command, least",
        [(["rumin", "verify"], 2), (["rs", "crosscheck"], 1)],
        ids=["rumin-verify", "rs-crosscheck"],
    )
    def test_weight_zero_comparison_exit_2_with_one_line(self, runner, command, least):
        # at weight 0 every operator matrix has zero rows: a pass would compare nothing
        result = runner.invoke(main, command + ["--n", "2", "--max-weight", "0"])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert f"--max-weight >= {least}" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_weight_one_rumin_verify_exit_2_with_one_line(self, runner, n):
        # at weight 1 every composite D_(k+1) D_k has zero rows: d∘d would compare nothing
        mats = rumin_complex(contact.standard_contact_chart(n), weight_truncation(1))
        assert all(later.rows.dim == 0 for later in mats[1:])
        result = runner.invoke(main, ["rumin", "verify", "--n", str(n), "--max-weight", "1"])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "--max-weight >= 2" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        # rs crosscheck compares operators, and its degree 0 has rows at weight 1
        assert rs_complex(standard_cs_chart(n), weight_truncation(1))[0].rows.dim > 0
        result = runner.invoke(main, ["rs", "crosscheck", "--n", str(n), "--max-weight", "1"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("modes", ["1", "2,1"])
    def test_torus_cohomology_without_the_constant_mode_exit_2(self, runner, modes):
        # the reported dims are the constant-mode block's: without it they
        # read all zero, a false cohomology of T^4
        result = runner.invoke(main, ["cohomology", "--model", "torus", "--n", "2", "--modes", modes])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "constant mode" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [["les"], ["rs", "build"]], ids=["les", "rs-build"])
    def test_other_torus_pipelines_take_truncations_without_the_constant_mode(
        self, runner, command
    ):
        result = runner.invoke(main, command + ["--model", "torus", "--n", "2", "--modes", "1"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["passed"] and report["config"]["mode_norms"] == [1]

    @pytest.mark.parametrize(
        "command",
        [["rumin", "verify"], ["cohomology", "--model", "affine", "--max-weight", "2"]],
        ids=["rumin-verify", "cohomology"],
    )
    def test_modular_flag_is_gone(self, runner, command):
        result = runner.invoke(main, command + ["--modular"])
        assert result.exit_code == 2


def _without_meta(report: str) -> dict:
    return {key: value for key, value in json.loads(report).items() if key != "meta"}


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

    def test_crosscheck_catches_one_fiber_coordinate_changed_in_rs_apply(self, runner, monkeypatch):
        # the intrinsic operator with fiber coordinate 0 of its degree-1 image
        # doubled: still of order 1, so its table passes the column check,
        # and the descended route, probed through the contact chart, catches it
        apply = descent.rs_apply

        def changed(cs, i, payload):
            image = apply(cs, i, payload)
            if i == 1:
                space = cs.two_step.class_space(2)
                for label, q in space.coordinates(image).items():
                    if label[1][0] == 0:
                        image = image + space.element(label).scale(q)
            return image

        monkeypatch.setattr(descent, "rs_apply", changed)
        result = runner.invoke(main, ["rs", "crosscheck", "--max-weight", "3"])
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert body["first_failure"] == {"pair": "descended-vs-intrinsic", "degree": 1}
        # the witness is real: on fresh charts the descended route agrees with
        # the changed intrinsic one at degree 0, not at degree 1, where it
        # agrees with the zig-zag instead
        truncation = weight_truncation(3)
        cs = standard_cs_chart(2)
        descended = descend_complex(descent.standard_pair(2), truncation)
        intrinsic = rs_complex(cs, truncation)
        fallback = ss_fallback(cs, truncation)
        assert descended[0].entries == intrinsic[0].entries
        assert descended[1].entries != intrinsic[1].entries
        assert descended[1].entries == fallback[1].entries

    def test_crosscheck_catches_a_middle_order_too_low_only_through_the_zigzag(
        self, runner, monkeypatch
    ):
        # the descended and intrinsic tables both read their order from
        # descent.class_operator_order: stated one too low at the middle, they
        # keep the same first differences and agree.  The last column of each
        # block, checked directly, has no second difference (see
        # test_middle_order_too_low_fails_through_the_prefix), so only the
        # zig-zag, assembled column by column from solves, catches it
        stated = descent.class_operator_order
        monkeypatch.setattr(descent, "class_operator_order", lambda n, k: stated(n, k) - (k == n))
        result = runner.invoke(main, ["rs", "crosscheck", "--n", "2", "--max-weight", "5"])
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert body["first_failure"] == {"pair": "intrinsic-vs-fallback", "degree": 2}
        assert all(body["descended_equals_intrinsic"])
        assert body["intrinsic_equals_fallback"] == [True, True, False, True, True]
        # at weights <= 3 a degree-2 section has coefficients of degree
        # <= 1, whose second differences vanish: the order-1 table is exact
        # there, and the mutation passes unseen
        result = runner.invoke(main, ["rs", "crosscheck", "--n", "2", "--max-weight", "3"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "leak, check",
        [
            # the twisted slot at degree 4 gains omega^omega f: no longer a class
            ("b", "output left the class subspace"),
            # the form slot gains dx1^dy1^psi above the middle
            ("a", "primitive class left the filtration"),
            # the twisted slot at degree 4 gains a factor x1: weight w+1
            ("weight", "lies outside the truncation"),
        ],
    )
    def test_zigzag_fault_exits_1_naming_the_degree_and_label(self, runner, monkeypatch, leak, check):
        argv = ["rs", "crosscheck", "--n", "3", "--max-weight", "6"]
        total = descent.total_differential

        def leaking(cs, phi, psi):
            a, b = total(cs, phi, psi)
            if leak == "b" and b.degree == 4 and b.terms:
                f = b.coefficient(min(axes for axes, _ in b.terms))
                b = b + wedge(cs.omega, cs.omega).times(f)
            if leak == "a" and psi is not None and psi.degree >= cs.n:
                a = a + wedge(basis_form(cs.chart, (0, 1)), psi)
            if leak == "weight" and b.degree == 4:
                b = b.times(cs.chart.coord_coeff(0))
            return a, b

        passing = runner.invoke(main, argv)
        assert passing.exit_code == 0, passing.output
        # a wrapper that changes nothing leaves the report bytes as they were
        monkeypatch.setattr(descent, "total_differential", lambda cs, phi, psi: total(cs, phi, psi))
        unchanged = runner.invoke(main, argv)
        assert unchanged.exit_code == 0
        assert _without_meta(unchanged.stdout) == _without_meta(passing.stdout)
        monkeypatch.setattr(descent, "total_differential", leaking)
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        line = result.stderr
        assert line.startswith("error: zig-zag degree 4: ") and line.count("\n") == 1
        assert check in line
        # the witness names a degree-4 class label of the truncation
        classes = standard_cs_chart(3).two_step.class_space(4).basis(weight_truncation(6))
        assert any(f"{label}" in line for label in classes.labels)

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

    def test_middle_order_too_low_fails_through_the_prefix(self, runner, monkeypatch):
        # the complex is read off the order tables' prefixes at the stated
        # orders: stated one too low at the middle, D_2 keeps only the first
        # differences.  The last column of each block, checked directly, is
        # x1^m v for the last primitive frame section v, whose second
        # difference along x1 is zero, so the check stays silent (as it did
        # with a table of its own) and the failure shows in d∘d and the orders
        stated = rumin.class_operator_order
        calls = []
        apply = rumin.rumin_apply
        built = []

        def too_low(n, k):
            return stated(n, k) - (k == n)

        def counting(struct, k, payload):
            calls.append(k)
            return apply(struct, k, payload)

        def keeping(cc, truncation):
            built.append(rumin_complex(cc, truncation))
            return built[-1]

        for module in (rumin, cli):
            monkeypatch.setattr(module, "class_operator_order", too_low)
        monkeypatch.setattr(rumin, "rumin_apply", counting)
        monkeypatch.setattr(cli, "rumin_complex", keeping)
        result = runner.invoke(main, ["rumin", "verify", "--n", "2", "--max-weight", "6"])
        assert result.exit_code == 1, result.output
        body = json.loads(result.stdout)["result"]
        assert body["orders"] == [1, 1, 2, 1, 1]
        assert body["orders_expected"] == [1, 1, 1, 1, 1]
        assert not body["composites_zero"] and body["first_failure"]["degree"] == 1
        # no second probe pass: the order-1 prefix served D_2 ...
        assert len(calls) == 1087
        # ... and it differs from the true D_2 only there
        monkeypatch.setattr(rumin, "class_operator_order", stated)
        (lowered,) = built
        true = rumin_complex(contact.standard_contact_chart(2), weight_truncation(6))
        assert [m.entries == t.entries for m, t in zip(lowered, true)] == [True, True, False, True, True]

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
        assert result.stderr == (
            "error: total_matches_rs is false: the rs and total dimensions first differ in degree 0 (0 != 1)\n"
        )

    def test_cohomology_exit_1_names_the_first_false_check(self, runner, monkeypatch):
        # the rs middle order stated one too low: at w <= 3 the rs dims still
        # read right and only weight_stable trips, so the report alone does
        # not say what differs; the error line names the check and the degree
        argv = ["cohomology", "--model", "affine", "--n", "2", "--max-weight", "3"]
        plain = runner.invoke(main, argv)
        stated = descent.class_operator_order
        monkeypatch.setattr(descent, "class_operator_order", lambda n, k: stated(n, k) - (k == n))
        result = runner.invoke(main, argv)
        assert result.exit_code == plain.exit_code == 1, result.output
        report, unmutated = json.loads(result.stdout), json.loads(plain.stdout)
        # the report bytes are those of the run without the error line
        for r in (report, unmutated):
            del r["meta"]
        assert report == unmutated
        assert [name for name, v in report["result"]["checks"].items() if v is False] == ["weight_stable"]
        line = "error: weight_stable is false: the rs dimensions at bounds 1 and 3 first differ in degree 1 (0 != 1)\n"
        assert result.stderr == plain.stderr == line
        # the witness, read independently: H^1 at bound 1 and at bound 3
        lower = json.loads(runner.invoke(main, argv[:-1] + ["1"]).stdout)["result"]["dims"]["rs"]
        assert (lower[1], report["result"]["dims"]["rs"][1]) == (0, 1)

    def test_cohomology_pass_prints_no_error_line(self, runner):
        result = runner.invoke(main, ["cohomology", "--model", "affine", "--n", "2", "--max-weight", "4"])
        assert result.exit_code == 0 and result.stderr == ""

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
            ("cohomology --model affine --n 4 --max-weight 8", "265,729"),
            # the contact chart's t powers push these over; the base count admits them
            ("rumin verify --n 2 --max-weight 17", "145,521"),
            ("rumin verify --n 3 --max-weight 10", "184,690"),
            ("rumin verify --n 2 --max-weight %d" % (10**4300 - 1), "at least 10^15"),
        ],
        ids=["affine-w40", "torus-n7-shell3", "torus-samples", "4300-digit-weight", "affine-n4-w8",
             "contact-n2-w17", "contact-n3-w10", "contact-4300-digit-weight"],
    )
    def test_section_budget_exit_2(self, argv, estimate):
        line = self._run_cli(argv.split(), expected="over the budget of 135,000")
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


class TestBenchCompare:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"

    def test_stale_bytecode_is_refused_before_anything_runs(self, tmp_path):
        # neither checkout holds BENCHMARK.json or perfbench: any run would fail differently
        parent, change = tmp_path / "parent", tmp_path / "change"
        (parent / "src" / "cscx" / "__pycache__").mkdir(parents=True)
        (change / "src" / "cscx").mkdir(parents=True)
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--parent", str(parent), "--change", str(change),
             "--claim", "contact-verify", "--out", str(tmp_path / "out.json")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert result.returncode != 0
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert str(parent / "src" / "cscx" / "__pycache__") in lines[0]
        assert "PYTHONDONTWRITEBYTECODE" in lines[0]
        assert not (tmp_path / "out.json").exists()
