"""Command-line front end.

Every subcommand is a thin adapter over the core modules: it parses flags
into a ``RunConfig``, calls ``run_suite`` and serializes the result.  No
mathematical logic lives here.  Exit codes: 0 when every exact check
passes, 1 when a check fails (the first counterexample is serialized into
the report), 2 for invalid configuration or input.

Reports are JSON with sorted keys; the timestamp is isolated in a single
``meta.timestamp`` field so reruns diff cleanly.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
import click
from click.core import ParameterSource

from .coefficients import coefficient_to_json, json_int
from .cohomology import (
    les_and_splice,
    mode_truncation,
    rs_cohomology,
    sample_modes,
    weight_truncation,
)
from .contact import contactify, standard_contact_chart, volume_coefficient
from .descent import descend_complex, rs_complex, ss_fallback, standard_pair
from .errors import ConfigError, CscxError, InternalConsistencyError, NotAComplexError
from .forms import affine_cs_chart, check_base_size, form_from_json
from .grading import (
    Truncation,
    check_section_budget,
    contact_section_dim,
    mode_section_dim,
    mode_shells,
    sample_orbit_count,
    weight_section_dim,
)
from .lefschetz import standard_cs_chart, summand_dimension_table
from .linalg import first_nonzero_composite
from .rumin import class_operator_order, operator_order, rumin_complex

MODELS = ("contact-affine", "cs-affine", "torus")


@dataclass
class RunConfig:
    """Validated configuration of one pipeline run."""

    pipeline: str
    model: str = "cs-affine"
    n: int = 2
    max_weight: int | None = None
    mode_norms: tuple[int, ...] = ()
    sample_count: int = 0
    out: str | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        check_base_size(self.n)
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}")
        if self.model == "torus":
            if self.max_weight is not None:
                raise ConfigError("the torus model is truncated by modes, not weight")
            # a shell of negative sup-norm is empty: alone it would truncate to nothing
            if any(norm < 0 for norm in self.mode_norms):
                raise ConfigError("mode norms must be >= 0 (a negative shell is empty)")
            available = sample_orbit_count(2 * self.n)
            if self.sample_count > available:
                raise ConfigError(
                    f"--sample-modes {self.sample_count} exceeds the {available} nonzero "
                    "mode orbits of sup-norm <= 2"
                )
        else:
            if self.max_weight is None or self.max_weight < 0:
                raise ConfigError("affine truncation needs --max-weight >= 0")
        if self.sample_count < 0:
            raise ConfigError("sample count must be nonnegative")
        if self.model == "torus":
            dim = mode_section_dim(self.n, self._norms(), self.sample_count)
        else:
            dim = weight_section_dim(self.n, self.max_weight)
            if self.model == "contact-affine":
                # the t-free sections bound the contact count below, so a
                # bound refused there is refused before the t powers are summed
                check_section_budget(dim)
                dim = contact_section_dim(self.n, self.max_weight)
        check_section_budget(dim)

    def _norms(self) -> set[int]:
        return set(self.mode_norms) or {0}

    def truncation(self) -> Truncation:
        if self.model == "torus":
            modes = list(mode_shells(2 * self.n, self._norms()))
            modes += sample_modes(2 * self.n, self.sample_count, seed=self.seed)
            return mode_truncation(modes)
        return weight_truncation(self.max_weight)

    def describe(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "model": self.model,
            "n": self.n,
            "ring": "trig" if self.model == "torus" else "poly",
            "max_weight": self.max_weight,
            "mode_norms": list(self.mode_norms),
            "sample_modes": self.sample_count,
            "seed": self.seed,
        }


def run_suite(config: RunConfig) -> tuple[int, dict]:
    """Execute the configured pipeline; return (exit_code, report)."""
    config.validate()
    start = time.monotonic()
    body, passed = _PIPELINES[config.pipeline](config)
    report = {
        "config": config.describe(),
        "passed": passed,
        "result": body,
        "meta": {
            "elapsed_seconds": round(time.monotonic() - start, 3),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    return (0 if passed else 1), report


def _cs_chart(config: RunConfig):
    if config.model == "torus":
        return standard_cs_chart(config.n, "torus")
    return standard_cs_chart(config.n, "affine")


def _pipeline_rumin_verify(config: RunConfig):
    cc = standard_contact_chart(config.n)
    truncation = weight_truncation(config.max_weight)
    mats = rumin_complex(cc, truncation)
    failure = first_nonzero_composite(mats)
    composites_zero = failure is None
    first_failure = None
    if failure is not None:
        k, composite = failure
        (row, col), value = min(composite.entries.items())
        first_failure = {"degree": k, "entry": [row, col, str(value)]}
    orders = [operator_order(cc.two_step, k) for k in range(2 * config.n + 1)]
    expected = [class_operator_order(config.n, k) for k in range(2 * config.n + 1)]
    body = {
        "ranks": [m.rank() for m in mats],
        "shapes": [list(m.shape) for m in mats],
        "composites_zero": composites_zero,
        "orders": orders,
        "orders_expected": expected,
        "first_failure": first_failure,
        "block_diagonal": all(not m.off_block_entries() for m in mats),
    }
    passed = composites_zero and orders == expected and body["block_diagonal"]
    return body, passed


def _pipeline_rs_build(config: RunConfig):
    cs = _cs_chart(config)
    truncation = config.truncation()
    mats = rs_complex(cs, truncation)
    body = {
        "truncation": truncation.describe(),
        "operators": [
            {"degree": i, "matrix": m.to_json()} for i, m in enumerate(mats)
        ],
    }
    return body, True


def _pipeline_rs_crosscheck(config: RunConfig):
    pair = standard_pair(config.n)
    truncation = weight_truncation(config.max_weight)
    descended = descend_complex(pair, truncation)
    intrinsic = rs_complex(pair.cs, truncation)
    fallback = ss_fallback(pair.cs, truncation)
    agree_di = [a.entries == b.entries for a, b in zip(descended, intrinsic)]
    agree_if = [a.entries == b.entries for a, b in zip(intrinsic, fallback)]
    first_failure = None
    for k, ok in enumerate(agree_di):
        if not ok:
            first_failure = {"pair": "descended-vs-intrinsic", "degree": k}
            break
    if first_failure is None:
        for k, ok in enumerate(agree_if):
            if not ok:
                first_failure = {"pair": "intrinsic-vs-fallback", "degree": k}
                break
    body = {
        "descended_equals_intrinsic": agree_di,
        "intrinsic_equals_fallback": agree_if,
        "first_failure": first_failure,
    }
    return body, all(agree_di) and all(agree_if)


def _pipeline_cohomology(config: RunConfig):
    cs = _cs_chart(config)
    report = rs_cohomology(cs, config.truncation())
    # every boolean check counts; euler_rs and the sampled mode count are integers
    checks = [v for v in report.checks.values() if isinstance(v, bool)]
    passed = report.les["exact"] and report.les["snake_equals_wedge"] and all(checks)
    return report.to_json(), passed


def _pipeline_les(config: RunConfig):
    cs = _cs_chart(config)
    les, splice = les_and_splice(cs, config.truncation())
    body = {"les": les.to_json(), "splice": splice.to_json()}
    return body, les.exact and les.snake_equals_wedge and splice.ok


def _pipeline_lefschetz_table(config: RunConfig):
    return summand_dimension_table(config.n), True


def _pipeline_claims(config: RunConfig):
    # imported here: at module level the claims module raises the peak RSS
    # of every other command by about 0.14 MB (CPython 3.11, x86-64)
    from .claims import run_claims

    return run_claims(config.n)


_PIPELINES = {
    "rumin-verify": _pipeline_rumin_verify,
    "rs-build": _pipeline_rs_build,
    "rs-crosscheck": _pipeline_rs_crosscheck,
    "cohomology": _pipeline_cohomology,
    "les": _pipeline_les,
    "lefschetz-table": _pipeline_lefschetz_table,
    "claims": _pipeline_claims,
}


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to ``out`` (when given) and echo it to stdout."""
    if out:
        _atomic_write(out, text + "\n")
    click.echo(text)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_output_path(path: str | None) -> None:
    """Refuse an output path whose directory does not exist, before any run."""
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: directory {directory} does not exist")


def _run(build, extra_out: str | None = None) -> tuple[RunConfig, int, dict]:
    """Build the configuration and run it; an error exits with one line.

    Output paths (the report's and ``extra_out``) are checked first.  A
    check that fails by raising (a nonzero d.d, a broken identity the
    theory guarantees) exits 1; any other toolkit error is bad input, exit 2.
    """
    try:
        config = build()
        _check_output_path(config.out)
        _check_output_path(extra_out)
        code, report = run_suite(config)
    except CscxError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1 if isinstance(exc, (NotAComplexError, InternalConsistencyError)) else 2)
    return config, code, report


def _finish(build) -> None:
    config, code, report = _run(build)
    _emit(_report_text(report), config.out)
    sys.exit(code)


def _parse_norms(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse mode list {text!r}") from exc


def _truncated_config(
    pipeline: str, model: str, n: int, max_weight, modes: str, sample_modes: int, out, seed: int = 0
) -> RunConfig:
    """The ``RunConfig`` of ``rs build``, ``cohomology`` and ``les``.

    Passes on what was typed, so ``RunConfig.validate`` sees a torus
    ``--max-weight``; a torus-only flag typed for the affine model is refused.
    """
    if model == "torus":
        return RunConfig(
            pipeline=pipeline,
            model="torus",
            n=n,
            max_weight=max_weight,
            mode_norms=_parse_norms(modes),
            sample_count=sample_modes,
            seed=seed,
            out=out,
        )
    ctx = click.get_current_context()
    typed = [
        "--" + name.replace("_", "-")
        for name in ("modes", "sample_modes", "seed")
        if ctx.get_parameter_source(name) not in (None, ParameterSource.DEFAULT)
    ]
    if typed:
        raise ConfigError(f"the affine model is truncated by weight; it takes no {', '.join(typed)}")
    return RunConfig(pipeline=pipeline, model="cs-affine", n=n, max_weight=max_weight, out=out)


@click.group()
def main() -> None:
    """Exact exterior calculus on contact and conformally symplectic charts."""


@main.group()
def chart() -> None:
    """Chart configuration utilities."""


@chart.command("validate")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
def chart_validate(config_file: str) -> None:
    """Validate a chart configuration file."""
    try:
        with open(config_file) as handle:
            payload = json.load(handle)
        summary = validate_chart_config(payload)
    except CscxError as exc:
        click.echo(f"invalid chart: {exc}", err=True)
        sys.exit(2)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        click.echo(f"invalid chart file: {exc}", err=True)
        sys.exit(2)
    except ZeroDivisionError:
        click.echo("invalid chart file: a coefficient has a zero denominator", err=True)
        sys.exit(2)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    sys.exit(0)


# the ring each chart model carries; the torus has no global contact form
_CHART_RINGS = {"contact": "poly", "cs": "poly", "cs-affine": "poly", "torus": "trig"}


def validate_chart_config(payload: dict) -> dict:
    """Build and check the chart described by a configuration payload."""
    if not isinstance(payload, dict):
        raise ConfigError("a chart file holds one JSON object")
    model = payload.get("model")
    if model not in _CHART_RINGS:
        raise ConfigError(f"unknown chart model {model!r}")
    n = json_int(payload.get("n", 0), "n", ConfigError)
    ring = payload.get("ring", _CHART_RINGS[model])
    if ring not in ("poly", "trig"):
        raise ConfigError(f"ring must be 'poly' or 'trig', got {ring!r}")
    if ring != _CHART_RINGS[model]:
        if model == "contact":
            raise ConfigError("a contact chart needs ring 'poly': the torus has no global contact form")
        raise ConfigError(f"the {model} model needs ring {_CHART_RINGS[model]!r}")
    if model == "contact":
        base = affine_cs_chart(n)
        beta_payload = payload["beta"]
        if isinstance(beta_payload, list):
            beta_payload = {"degree": 1, "terms": beta_payload}
        beta = form_from_json(beta_payload, base)
        cc = contactify(n, beta)
        return {
            "model": "contact",
            "n": n,
            "ring": ring,
            "coords": list(cc.chart.coords),
            "volume_coefficient": coefficient_to_json(volume_coefficient(cc)),
            "valid": True,
        }
    cs = standard_cs_chart(n, "torus" if model == "torus" else "affine")
    return {
        "model": model,
        "n": n,
        "ring": cs.chart.ring.kind,
        "coords": list(cs.chart.coords),
        "valid": True,
    }


@main.group()
def lefschetz() -> None:
    """Fiberwise decomposition tables."""


@lefschetz.command("table")
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def lefschetz_table(n: int, fmt: str, out: str | None) -> None:
    """Dimension table of all primitive summands for every exterior power."""
    _, code, report = _run(
        lambda: RunConfig(pipeline="lefschetz-table", model="cs-affine", n=n, max_weight=0, out=out)
    )
    if fmt == "csv":
        lines = ["k,total_dim,primitive_dim,summands"]
        for row in report["result"]["table"]:
            summands = ";".join(
                f"{s['primitive_degree']}:{s['twist_step']}:{s['dim']}"
                for s in row["summands"]
            )
            lines.append(
                f"{row['k']},{row['total_dim']},{row['primitive_dim']},{summands}"
            )
        text = "\n".join(lines)
    else:
        text = _report_text(report)
    _emit(text, out)
    sys.exit(code)


@main.group()
def rumin() -> None:
    """The complex on the contact chart."""


@rumin.command("verify")
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--max-weight", type=int, default=6, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def rumin_verify(n: int, max_weight: int, out: str | None) -> None:
    """Verify the complex property, grading and operator orders."""
    _finish(
        lambda: RunConfig(
            pipeline="rumin-verify",
            model="contact-affine",
            n=n,
            max_weight=max_weight,
            out=out,
        )
    )


@main.group()
def rs() -> None:
    """The intrinsic complex on the quotient chart."""


@rs.command("build")
@click.option("--model", type=click.Choice(["affine", "torus"]), default="torus")
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--max-weight", type=int, default=None)
@click.option("--modes", default="0", show_default=True, help="Comma-separated sup-norm shells.")
@click.option("--sample-modes", type=int, default=0)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def rs_build(model, n, max_weight, modes, sample_modes, out) -> None:
    """Serialize the operator matrices of the intrinsic complex."""
    _finish(lambda: _truncated_config("rs-build", model, n, max_weight, modes, sample_modes, out))


@rs.command("crosscheck")
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--max-weight", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def rs_crosscheck(n: int, max_weight: int, out: str | None) -> None:
    """Verify the three-way operator equality on the affine model."""
    _finish(
        lambda: RunConfig(
            pipeline="rs-crosscheck",
            model="cs-affine",
            n=n,
            max_weight=max_weight,
            out=out,
        )
    )


@main.command("cohomology")
@click.option("--model", type=click.Choice(["affine", "torus"]), required=True)
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--max-weight", type=int, default=None)
@click.option("--modes", default="0", show_default=True, help="Comma-separated sup-norm shells.")
@click.option("--sample-modes", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the dimension table as CSV.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cohomology_cmd(model, n, max_weight, modes, sample_modes, seed, csv_path, out) -> None:
    """Cohomology report with the long-exact-sequence verification."""
    config, code, report = _run(
        lambda: _truncated_config(
            "cohomology", model, n, max_weight, modes, sample_modes, out, seed
        ),
        extra_out=csv_path,
    )
    if csv_path:
        dims = report["result"]["dims"]
        lines = ["degree," + ",".join(sorted(dims))]
        length = max(len(v) for v in dims.values())
        for k in range(length):
            row = [str(k)]
            for key in sorted(dims):
                row.append(str(dims[key][k]) if k < len(dims[key]) else "")
            lines.append(",".join(row))
        _atomic_write(csv_path, "\n".join(lines) + "\n")
    _emit(_report_text(report), config.out)
    sys.exit(code)


@main.command("les")
@click.option("--model", type=click.Choice(["affine", "torus"]), required=True)
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--max-weight", type=int, default=None)
@click.option("--modes", default="0", show_default=True)
@click.option("--sample-modes", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def les_cmd(model, n, max_weight, modes, sample_modes, seed, out) -> None:
    """Verify the long exact sequence and the degreewise splice."""
    _finish(
        lambda: _truncated_config("les", model, n, max_weight, modes, sample_modes, out, seed)
    )


@main.command("claims")
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def claims_cmd(n: int, out: str | None) -> None:
    """Check the paper's identifications, one verdict per claim."""
    from .claims import MAX_WEIGHT

    _finish(
        lambda: RunConfig(
            pipeline="claims",
            model="contact-affine",
            n=n,
            max_weight=MAX_WEIGHT,
            out=out,
        )
    )


if __name__ == "__main__":
    main()
