import json

import pytest
from click.testing import CliRunner

from cscx.cli import RunConfig, main, run_suite
from cscx.errors import ConfigError


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

    def test_lefschetz_table_csv(self, runner):
        result = runner.invoke(main, ["lefschetz", "table", "--n", "2", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "k,total_dim,primitive_dim,summands"
        assert lines[1].startswith("0,1,1,")

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
        "command",
        [["rumin", "verify"], ["cohomology", "--model", "affine", "--max-weight", "2"]],
        ids=["rumin-verify", "cohomology"],
    )
    def test_modular_flag_is_gone(self, runner, command):
        result = runner.invoke(main, command + ["--modular"])
        assert result.exit_code == 2
