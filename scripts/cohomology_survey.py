#!/usr/bin/env python3
"""Survey the quotient-complex cohomology across truncations.

Sweeps the affine model over a range of weight bounds (showing when the
reported dimensions stabilize) and the torus model over mode samples, and
prints the long-exact-sequence data for both.  Everything is exact; the
table entries are integers certified by rational ranks.

    python scripts/cohomology_survey.py [--max-weight 8] [--samples 4]
"""

import argparse
import time

from cscx.cohomology import mode_truncation, rs_cohomology, weight_truncation
from cscx.grading import sample_modes, sample_orbit_count
from cscx.lefschetz import standard_cs_chart


def affine_sweep(max_weight: int) -> None:
    cs = standard_cs_chart(2, "affine")
    print("affine model, dimensions of the intrinsic complex per weight bound")
    print(f"{'bound':>6} | dims")
    for bound in range(2, max_weight + 1, 2):
        t0 = time.monotonic()
        report = rs_cohomology(cs, weight_truncation(bound))
        dims = report.dims["rs"]
        stable = "stable" if report.checks.get("weight_stable") else "unstable"
        print(f"{bound:>6} | {dims}  ({stable}, {time.monotonic() - t0:.1f}s)")
    # the last report already carries the long exact sequence at its bound
    print(
        f"sequence exact at bound {bound}: {report.les['exact']}; "
        f"connecting ranks: {report.les['connecting_ranks']}"
    )


def torus_sweep(samples: int) -> None:
    cs = standard_cs_chart(2, "torus")
    modes = [(0, 0, 0, 0)] + sample_modes(4, samples)
    print("\ntorus model, constant mode plus sampled nonzero modes")
    print("modes:", modes)
    report = rs_cohomology(cs, mode_truncation(modes))
    print("intrinsic dims:", report.dims["rs"])
    print("de Rham dims:  ", report.dims["deRham"])
    print("connecting ranks:", report.les["connecting_ranks"])
    print("sampled modes vanish:", report.checks["sampled_modes_vanish"])
    print("sequence exact:", report.les["exact"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=8)
    parser.add_argument("--samples", type=int, default=4)
    args = parser.parse_args()
    if args.max_weight < 2:
        parser.error("--max-weight must be at least 2")
    if args.samples > sample_orbit_count(4):
        parser.error(f"--samples may be at most {sample_orbit_count(4)}, the nonzero orbit count")
    affine_sweep(args.max_weight)
    torus_sweep(args.samples)


if __name__ == "__main__":
    main()
