"""One verdict in a fresh process.

The worker imports cscx, prints ``ready`` and waits for one job line on
standard input.  An empty line ends it there (a set-up probe).  Otherwise it
calls the CLI entry with the job's arguments, exactly as ``cscx <argv>``
would, checks the JSON report against the workload's reference answer and
prints one JSON result line:

    {"exit_code": 0, "verdict_s": ..., "cpu_s": ..., "peak_rss_mb": ...,
     "mismatches": [], "observed": {...}, "trace": null}

``observed`` holds the values the gate compared, under the reference keys.

With ``"trace": true`` the layer wrappers are installed before the call and
``trace`` holds the layer self times and counts; the spans go to the file
named by the job.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import cscx.cli
from workloads import WORKLOADS, argv_for, mismatches, observe


def run(job: dict) -> dict:
    workload = job["workload"]
    argv = argv_for(workload, job["seed"])
    tracer = None
    call = lambda: cscx.cli.main(argv, prog_name="cscx", standalone_mode=False)  # noqa: E731
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.root(call)
    captured = io.StringIO()
    exit_code = 0
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            call()
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    try:
        report = json.loads(captured.getvalue())
    except json.JSONDecodeError:
        report = None
    observed = observe(workload, report, exit_code)
    out = {
        "exit_code": exit_code,
        "verdict_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mismatches": mismatches(WORKLOADS[workload]["reference"], observed),
        "observed": observed,
        "trace": None,
    }
    if tracer is not None:
        tracer.write_spans(job["spans"])
        out["trace"] = {"self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}
    return out


def main() -> int:
    print("ready", cscx.__file__, flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return 0
    job = json.loads(line)
    try:
        result = run(job)
    except Exception as exc:  # a crash inside cscx is a failed verdict, not a lost run
        result = {"exit_code": None, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
