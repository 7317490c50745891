#!/usr/bin/env python3
"""Compare two cscx checkouts on the benchmark, in alternating pairs.

    python3 scripts/bench_compare.py --parent ../parent --change . \\
        --claim contact-verify --out BENCH_orders.json

``--claim`` names the workload whose ``verdict_s`` gain is claimed; without
it no gain is claimed and every workload gets its pairs on seed 1.

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` inside one checkout, with T the ``run_seconds`` of
BENCHMARK.json; the last line of its output is parsed.  Every workload
gets ten pairs, the claimed one on seeds 1 and 2 and the others on seed 1.
Pair i runs the parent first when i is even and the change first when it
is odd.  Each side then gets one traced run of all workloads
(``--workload all --trace 1``).

For every end-to-end metric the output holds both sides' runs, medians
and quartiles, the change's wins and ties, and its relative change of the
median against the bound declared in BENCHMARK.json.  ``verdict`` is
``better`` or ``worse`` when the medians differ by more than the parent's
interquartile spread and ``unresolved`` otherwise: the runs cannot tell
such a metric apart from noise.  On the claimed workload ``gain`` applies
the rule for claiming a gain: the change wins at least nine tenths of the
pairs and the verdict is ``better``.  When ``PYTHONDONTWRITEBYTECODE`` is
set, a checkout holding ``src/cscx/__pycache__`` is refused (exit 2) before
anything runs.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
CLAIM_SEEDS = (1, 2)


def run_bench(checkout: Path, args: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed in {checkout}: {done.stderr.strip()}")
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env {")), {})
    result = json.loads(lines[-1])
    result["env"] = env
    return result


def stale_bytecode(*checkouts: Path) -> str | None:
    """Why the checkouts cannot be compared, when bytecode writing is off.

    With ``PYTHONDONTWRITEBYTECODE`` set a fresh checkout compiles all of
    ``src/cscx`` on every run, while one holding a ``__pycache__`` does not,
    so ``setup_s`` and ``peak_rss_mb`` would measure compilation.
    """
    if not os.environ.get("PYTHONDONTWRITEBYTECODE"):
        return None
    for checkout in checkouts:
        cache = checkout / "src" / "cscx" / "__pycache__"
        if cache.exists():
            return f"{cache} holds bytecode but PYTHONDONTWRITEBYTECODE is set; delete it first"
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], spec: dict, claimed: bool) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        stats_p, stats_c = quartiles(parent), quartiles(change)
        rel = (stats_c["median"] - stats_p["median"]) / stats_p["median"]
        spread = stats_p["q3"] - stats_p["q1"]
        gap = stats_c["median"] - stats_p["median"]
        if abs(gap) <= spread:
            verdict = "unresolved"
        else:
            verdict = "better" if sign * gap < 0 else "worse"
        row = {
            "unit": metric["unit"],
            "parent": {"runs": parent, **stats_p},
            "change": {"runs": change, **stats_c},
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "median_rel_change": rel,
            "bound": metric["bound"],
            "within_bound": sign * rel <= metric["bound"],
            "parent_spread": spread,
            "verdict": verdict,
        }
        if claimed:
            row["gain"] = wins >= 0.9 * len(pairs) and verdict == "better"
        out[name] = row
    return out


def pairs_for(parent: Path, change: Path, workload: str, seed: int, seconds: float) -> list[dict]:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_bench(parent if side == "parent" else change, args)
            if pair[side]["failed"]:
                raise SystemExit(f"{side} failed a verdict on {workload} seed {seed}")
        m = {s: pair[s]["metrics"]["verdict_s"]["value"] for s in ("parent", "change")}
        print(f"# {workload} seed {seed} pair {i + 1}: verdict_s parent {m['parent']:.3f} change {m['change']:.3f}", flush=True)
        pairs.append(pair)
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--claim", help="workload whose verdict_s gain is claimed (default: none)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    stale = stale_bytecode(args.parent, args.change)
    if stale:
        print(f"error: {stale}", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    claimed = {}
    for seed in CLAIM_SEEDS if args.claim else ():
        pairs = pairs_for(args.parent, args.change, args.claim, seed, seconds)
        claimed[str(seed)] = {"summary": summarize(pairs, spec, True), "runs": pairs}
    others = {}
    for workload in workloads:
        if workload == args.claim:
            continue
        pairs = pairs_for(args.parent, args.change, workload, CLAIM_SEEDS[0], seconds)
        others[workload] = {"seed": CLAIM_SEEDS[0], "summary": summarize(pairs, spec, False), "runs": pairs}
    traced = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        traced[side] = run_bench(checkout, ["--workload", "all", "--seed", str(CLAIM_SEEDS[0]),
                                            "--seconds", str(seconds), "--trace", "1"])
        print(f"# traced all, {side}: failed {traced[side]['failed']}", flush=True)
    counts = {}
    for key, value in traced["parent"]["metrics"].items():
        if value["unit"] == "count":
            counts[key] = {"parent": value["value"], "change": traced["change"]["metrics"][key]["value"]}

    report = {
        "command": " ".join(["python3", "scripts/bench_compare.py"] + sys.argv[1:]),
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "claim": {"workload": args.claim, "metric": "verdict_s", "by_seed": claimed} if args.claim else None,
        "other_workloads": others,
        "traced_all": {"counts": counts, "runs": traced},
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for seed, block in claimed.items():
        row = block["summary"]["verdict_s"]
        print(f"# claim seed {seed}: wins {row['change_wins']}/{row['pairs']}, "
              f"median {row['parent']['median']:.3f} -> {row['change']['median']:.3f} s, gain {row['gain']}")
    for workload, block in others.items():
        for name, row in block["summary"].items():
            print(f"# {workload} {name}: {row['verdict']}, median {row['median_rel_change']:+.1%}, "
                  f"wins {row['change_wins']}/{row['pairs']}, within bound {row['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
