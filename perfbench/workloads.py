"""The benchmark's workloads: the CLI call each one makes and its reference answer.

Every reference answer below is written by hand from the paper's claims and
the acceptance criteria; none was produced by running cscx.

* affine quotient (R^4 with the standard structure form, weights <= 6): the
  intrinsic complex has cohomology [1, 1, 0, 0, 0, 0] (criterion 5), de Rham
  cohomology is that of a contractible space, [1, 0, 0, 0, 0], and every
  connecting map of the long exact sequence vanishes (criterion 7).
* torus T^4: de Rham cohomology is [1, 4, 6, 4, 1] (binomials); the
  connecting map is wedging with the structure form on constant classes,
  of rank [0, 1, 4, 1, 0]; splicing gives the intrinsic dimensions
  [1, 4, 5, 5, 4, 1] (criterion 6).  Nonzero Fourier modes carry no
  cohomology.  ``--modes 0,1`` holds the constant orbit and the
  (3^4 - 1) / 2 = 40 orbits of sup-norm one; the three sampled orbits have
  sup-norm at most two, so a sampled orbit either has sup-norm two and adds
  a block, or coincides with a shell orbit.
* contact chart R^5: the operators have orders [1, 1, 2, 1, 1] (order two at
  the middle degree, criterion 8), the complex property holds, every
  operator is block diagonal in the weight grading, and the cohomology
  read off the reported shapes and ranks is [1, 0, 0, 0, 0, 0] (Poincare
  lemma, criterion 5 upstairs).
* crosscheck: the descended, intrinsic and generic zig-zag operators agree
  in all five degrees, for both pairs (criteria 3 and 4).

``observe`` reads, from one report and exit code, the same keys its
reference lists; ``mismatches`` compares the two.
"""

from __future__ import annotations

TORUS_SHELL_ORBITS = 1 + (3**4 - 1) // 2
TORUS_SAMPLES = 3

WORKLOADS = {
    "affine-cohomology": {
        "argv": ["cohomology", "--model", "affine", "--n", "2", "--max-weight", "6"],
        "reference": {
            "exit_code": 0,
            "dims.rs": [1, 1, 0, 0, 0, 0],
            "dims.deRham": [1, 0, 0, 0, 0],
            "les.connecting_ranks": [0, 0, 0, 0, 0],
            "les.exact": True,
            "les.snake_equals_wedge": True,
        },
    },
    "torus-cohomology": {
        "argv": [
            "cohomology", "--model", "torus", "--n", "2", "--modes", "0,1",
            "--sample-modes", str(TORUS_SAMPLES),
        ],
        "seeded": True,
        "reference": {
            "exit_code": 0,
            "dims.rs": [1, 4, 5, 5, 4, 1],
            "dims.deRham": [1, 4, 6, 4, 1],
            "les.connecting_ranks": [0, 1, 4, 1, 0],
            "les.exact": True,
            "les.snake_equals_wedge": True,
            "checks.sampled_modes_vanish": True,
            "config.sample_modes": TORUS_SAMPLES,
            "truncation.shell_orbits": TORUS_SHELL_ORBITS,
            "truncation.sampled_orbits_consistent": True,
        },
    },
    "contact-verify": {
        "argv": ["rumin", "verify", "--n", "2", "--max-weight", "6"],
        "reference": {
            "exit_code": 0,
            "orders": [1, 1, 2, 1, 1],
            "composites_zero": True,
            "block_diagonal": True,
            "cohomology_from_ranks": [1, 0, 0, 0, 0, 0],
        },
    },
    "routes-crosscheck": {
        "argv": ["rs", "crosscheck", "--n", "2", "--max-weight", "5"],
        "reference": {
            "exit_code": 0,
            "descended_equals_intrinsic": [True] * 5,
            "intrinsic_equals_fallback": [True] * 5,
        },
    },
}


def argv_for(workload: str, seed: int) -> list[str]:
    """CLI arguments of one verdict; the seed picks the sampled torus orbits."""
    spec = WORKLOADS[workload]
    argv = list(spec["argv"])
    if spec.get("seeded"):
        argv += ["--seed", str(seed)]
    return argv


def _dig(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _sup_norm(mode) -> int:
    return max((abs(x) for x in mode), default=0)


def _torus_truncation(report: dict) -> dict:
    modes = _dig(report, "result.truncation.modes") or []
    shell = [m for m in modes if _sup_norm(m) <= 1]
    extra = [m for m in modes if _sup_norm(m) > 1]
    distinct = len({tuple(m) for m in modes}) == len(modes)
    consistent = (
        distinct
        and len(extra) <= TORUS_SAMPLES
        and all(_sup_norm(m) == 2 for m in extra)
        and _dig(report, "result.checks.sampled_mode_count") == len(modes) - 1
    )
    return {
        "truncation.shell_orbits": len(shell),
        "truncation.sampled_orbits_consistent": consistent,
    }


def _cohomology_from_ranks(result: dict):
    """dim C^k - rank D_k - rank D_{k-1}, from the reported shapes and ranks."""
    shapes, ranks = result.get("shapes"), result.get("ranks")
    if not shapes or not ranks or len(shapes) != len(ranks):
        return None
    dims = [cols for _, cols in shapes] + [shapes[-1][0]]
    ranks = [0] + list(ranks) + [0]
    return [dims[k] - ranks[k + 1] - ranks[k] for k in range(len(dims))]


def observe(workload: str, report: dict | None, exit_code) -> dict:
    """The values of one verdict under the keys of the workload's reference."""
    out = {"exit_code": exit_code}
    if report is None:
        return out
    result = report.get("result") or {}
    for key in WORKLOADS[workload]["reference"]:
        if key == "exit_code":
            continue
        if key == "cohomology_from_ranks":
            out[key] = _cohomology_from_ranks(result)
        elif key.startswith("truncation."):
            out[key] = _torus_truncation(report)[key]
        elif key.startswith("config."):
            out[key] = _dig(report, key)
        else:
            out[key] = _dig(result, key)
    return out


def mismatches(reference: dict, observed: dict) -> list[str]:
    """Keys whose observed value differs from the reference."""
    return [key for key, want in reference.items() if observed.get(key) != want]


def doctored(value):
    """A wrong value of the same shape, for the gate's self-check."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [doctored(value[0])] + value[1:] if value else [0]
    raise TypeError(f"cannot doctor {value!r}")
