#!/usr/bin/env python3
"""Verdict-time benchmark for the cscx pipelines.

    python3 perfbench/run.py --workload affine-cohomology --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a cscx checkout; it measures the code under
``src/`` of the checkout it lives in.  One parent process runs a workload's
verdicts one at a time (a closed loop with a single client).  Each verdict
runs in a fresh worker process that imports cscx and calls the CLI entry as
``cscx <argv>`` would, then checks the report against a hand-written
reference answer.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced verdicts and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md beside this file for the workloads, metrics and baselines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, doctored, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up probes per run besides the one of every verdict worker, so that the
# set-up median rests on enough samples even for the slowest workload.
SETUP_PROBES = 6
MIN_VERDICTS = 3
VERDICT_TIMEOUT_S = 120
PINNED_ENV = {"CSCX_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return spec


def worker_env() -> dict:
    if not (SRC / "cscx" / "__init__.py").is_file():
        raise BenchError(f"no cscx sources under {SRC}")
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_id() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        **source_id(),
        **PINNED_ENV,
    }


# -- workers -------------------------------------------------------------------


def _launch(env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the time until cscx was imported."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    word, _, module = proc.stdout.readline().strip().partition(" ")
    setup = time.perf_counter() - start
    if word != "ready" or not module.startswith(str(SRC)):
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not import cscx from {SRC} (see stderr)")
    return proc, setup


def _finish(proc: subprocess.Popen, job_line: str) -> str:
    """Send the job, wait for the worker to end and return its output."""
    with proc:
        proc.stdin.write(job_line + "\n")
        proc.stdin.close()
        try:
            proc.wait(timeout=VERDICT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return ""
        return proc.stdout.read()


def probe_setup(env: dict) -> float:
    proc, setup = _launch(env)
    _finish(proc, "")
    return setup


def verdict(env: dict, job: dict) -> tuple[float, dict]:
    proc, setup = _launch(env)
    out = _finish(proc, json.dumps(job))
    lines = out.strip().splitlines()
    try:
        return setup, json.loads(lines[-1])
    except (IndexError, ValueError):
        return setup, {"exit_code": None, "error": "no result (crash or timeout)"}


def failed(result: dict) -> bool:
    return "error" in result or bool(result.get("mismatches"))


# -- one run ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Closed loop over one workload: set-up probes, then verdicts until the deadline."""
    probe_setup(env)  # warms the file cache and the bytecode cache; not counted
    setups = [probe_setup(env) for _ in range(SETUP_PROBES)]
    verdicts: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(verdicts) % 2 == 1
        job = {"workload": workload, "seed": seed, "trace": traced}
        if traced:
            OUT.mkdir(exist_ok=True)
            job["spans"] = str(OUT / f"{workload}.spans.jsonl")
        setup, result = verdict(env, job)
        setups.append(setup)
        verdicts.append((traced, result))
        status = "FAIL " + str(result.get("error") or result.get("mismatches")) if failed(result) else "ok"
        print(
            f"# verdict {len(verdicts)}{' traced' if traced else ''}: setup {setup:.3f} s, "
            f"wall {result.get('verdict_s', float('nan')):.3f} s, "
            f"cpu {result.get('cpu_s', float('nan')):.3f} s, {status}",
            flush=True,
        )
        if "error" in result:
            break
        if len(verdicts) >= MIN_VERDICTS and time.perf_counter() - start >= seconds:
            break
    return {"setups": setups, "verdicts": verdicts}


def _median(values: list[float]) -> float:
    if not values:
        raise BenchError("no verdict was timed")
    return statistics.median(values)


def end_to_end(run: dict) -> dict:
    timed = [r for _, r in run["verdicts"] if "verdict_s" in r]
    return {
        "setup_s": _median(run["setups"]),
        "verdict_s": _median([r["verdict_s"] for r in timed]),
        "verdict_cpu_s": _median([r["cpu_s"] for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
    }


def per_layer(run: dict, names: list[str]) -> dict:
    plain = [r["verdict_s"] for traced, r in run["verdicts"] if not traced and "verdict_s" in r]
    traces = [r for traced, r in run["verdicts"] if traced and r.get("trace")]
    if not traces:
        raise BenchError("no traced verdict completed")
    traced_wall = _median([r["verdict_s"] for r in traces])
    values = {
        "trace.verdict_s": traced_wall,
        "trace.overhead_s": traced_wall - _median(plain),
        "trace.covered_frac": _median(
            [1 - r["trace"]["self_s"].get("cli", 0.0) / sum(r["trace"]["self_s"].values()) for r in traces]
        ),
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            values[name] = _median([r["trace"]["self_s"].get(layer, 0.0) for r in traces])
        else:
            # counts repeat exactly; median_low keeps them whole numbers
            values[name] = statistics.median_low([r["trace"]["counts"].get(name, 0) for r in traces])
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict) -> dict:
    run = measure(workload, seed, seconds, trace, env)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = (per_layer(run, [m["name"] for m in declared]) if trace else end_to_end(run))
    attempted = len(run["verdicts"])
    n_failed = sum(failed(r) for _, r in run["verdicts"])
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is declared but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "attempted": attempted,
        "failed": n_failed,
        "fail_frac": n_failed / attempted,
        "metrics": metrics,
        "traced_shares": _shares(run) if trace else None,
    }


def _shares(run: dict) -> dict:
    last = [r for traced, r in run["verdicts"] if traced and r.get("trace")][-1]["trace"]["self_s"]
    total = sum(last.values())
    return {layer: s / total for layer, s in sorted(last.items(), key=lambda kv: -kv[1])}


def print_table(workload: str, result: dict) -> None:
    print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        value = m["value"]
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"#   {name:28s} {text:>14s} {m['unit']}")
    print(f"#   {'fail_frac':28s} {result['fail_frac']:>14.4f} frac")
    if result["traced_shares"]:
        print("#   self-time share of the last traced verdict:")
        for layer, share in result["traced_shares"].items():
            print(f"#     {layer:26s} {share:7.1%}")


# -- the gate's self-check ---------------------------------------------------------


def self_check(seed: int, env: dict) -> bool:
    """Each workload's true reference passes and every doctored one trips the gate."""
    ok = True
    for workload, wspec in WORKLOADS.items():
        _, result = verdict(env, {"workload": workload, "seed": seed, "trace": False})
        reference = wspec["reference"]
        clean = not failed(result)
        tripped = []
        observed = result.get("observed", {})
        for key, value in reference.items():
            bad = dict(reference, **{key: doctored(value)})
            tripped.append(key in mismatches(bad, observed))
        ok = ok and clean and all(tripped)
        print(
            f"# {workload}: reference {'passes' if clean else 'FAILS ' + str(result.get('mismatches'))}; "
            f"{sum(tripped)}/{len(tripped)} doctored references tripped the gate"
        )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    try:
        spec = load_spec()
        env = worker_env()
        print("# env " + json.dumps(environment()), flush=True)
        if args.self_check:
            ok = self_check(args.seed, env)
            print(json.dumps({"gate_ok": ok}))
            return 0 if ok else 1
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for workload in names:
            print(f"# workload {workload}, seed {args.seed}, {seconds:g} s, trace {args.trace}", flush=True)
            results[workload] = run_workload(workload, args.seed, seconds, bool(args.trace), spec, env)
            print_table(workload, results[workload])
        print("# env after " + json.dumps({"loadavg": [round(x, 2) for x in os.getloadavg()]}))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    n_failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
