"""Layer spans for the traced benchmark run.

The wrappers are installed from the benchmark's own files; nothing under
``src/`` knows about them.  cscx modules bind helpers at import time
(``from .linalg import sparse_solve``), so a module-level function is
replaced under every name that refers to it in any loaded ``cscx`` module,
and a method is replaced on its class.

Each call of a wrapped function is one span: its name, its layer, its
start and end, and the span that was open when it started.  Spans stay in
memory until the verdict ends.  A layer's self time is the duration of its
spans minus the time covered by their child spans, so the self times of
all layers add up to the duration of the root span.  A layer's ``calls``
counts entries into the layer from another layer, so recursion and calls
between functions of one layer count once.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict


def _elim_counts(counts, entering, args, result):
    if entering:
        counts["linalg.elim.nnz_in"] += len(args[0])


def _solve_counts(counts, entering, args, result):
    counts["linalg.solve.calls"] += 1
    _elim_counts(counts, entering, args, result)


def _rank_counts(counts, entering, args, result):
    if entering:
        counts["linalg.rank.nnz_in"] += len(args[0])


def _fiber_build_counts(counts, entering, args, result):
    counts["grading.fiber.builds"] += 1


def _assemble_counts(counts, entering, args, result):
    for matrix in result if isinstance(result, list) else [result]:
        counts["grading.assemble.columns"] += matrix.cols.dim
        counts["grading.assemble.nnz_out"] += len(matrix.entries)


# (layer, module, function or Class.method, extra counter)
TARGETS = (
    ("linalg.elim", "cscx.linalg", "sparse_rref", _elim_counts),
    ("linalg.elim", "cscx.linalg", "sparse_solve", _solve_counts),
    ("linalg.elim", "cscx.linalg", "sparse_nullspace", _elim_counts),
    ("linalg.rank", "cscx.linalg", "sparse_rank", _rank_counts),
    ("linalg.rank", "cscx.linalg", "rank_modular", _rank_counts),
    ("linalg.compose", "cscx.linalg", "OperatorMatrix.compose", None),
    ("linalg.compose", "cscx.cohomology", "_compose_dicts", None),
    ("cohomology.quotient", "cscx.cohomology", "CochainQuotient.__init__", None),
    ("cohomology.quotient", "cscx.cohomology", "CochainQuotient.coords", None),
    ("cohomology.quotient", "cscx.cohomology", "_in_span", None),
    ("cohomology.induced", "cscx.cohomology", "CochainQuotient.induced_matrix", None),
    ("cohomology.les", "cscx.cohomology", "rs_cohomology", None),
    ("cohomology.les", "cscx.cohomology", "les_check", None),
    ("cohomology.les", "cscx.cohomology", "short_exact_splice", None),
    ("cohomology.les", "cscx.cohomology", "cohomology_dims", None),
    ("grading.fiber", "cscx.grading", "fiber_from_form", _fiber_build_counts),
    ("grading.fiber", "cscx.grading", "fiber_apply", None),
    ("grading.fiber", "cscx.grading", "FiberCalculus.primitive_coords", None),
    ("grading.fiber", "cscx.grading", "FiberCalculus.pi0", None),
    ("grading.fiber", "cscx.rumin", "_middle_inverse", None),
    ("rumin.apply", "cscx.rumin", "rumin_apply", None),
    ("rumin.orders", "cscx.rumin", "operator_order", None),
    ("rumin.zigzag", "cscx.rumin", "generic_zigzag_matrix", None),
    ("grading.assemble", "cscx.grading", "assemble_operator", _assemble_counts),
    ("grading.assemble", "cscx.cohomology", "_assemble", _assemble_counts),
    ("grading.assemble", "cscx.cohomology", "total_complex", _assemble_counts),
    ("grading.assemble", "cscx.grading", "GradedSpace.element", None),
    ("grading.assemble", "cscx.grading", "GradedSpace.vector", None),
    ("grading.assemble", "cscx.cohomology", "_TotalSpace.element", None),
    ("grading.assemble", "cscx.cohomology", "_TotalSpace.vector", None),
    ("descent.apply", "cscx.descent", "rs_apply", None),
    ("descent.apply", "cscx.descent", "total_differential", None),
    ("descent.apply", "cscx.descent", "nabla_twisted_d", None),
    ("forms", "cscx.forms", "exterior_derivative", None),
    ("forms", "cscx.forms", "horizontal_derivative", None),
    ("forms", "cscx.forms", "wedge", None),
    ("forms", "cscx.forms", "interior_product", None),
    ("forms", "cscx.forms", "t_derivative", None),
)

ROOT_LAYER = "cli"


class Tracer:
    """Span collector; one per traced verdict."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, span id, time covered by children]

    def wrap(self, layer: str, name: str, fn, extra=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        calls_key = f"{layer}.calls"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            entering = parent is None or parent[0] != layer
            span_id = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent[1] if parent else -1)
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_end[span_id] = end
                self.self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
            if entering:
                self.counts[calls_key] += 1
            if extra is not None:
                extra(self.counts, entering, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target in the loaded cscx modules by its wrapper."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cscx" or key.startswith("cscx."))
        ]
        for layer, module_name, attr, extra in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, fn_name, self.wrap(layer, f"{module_name}.{attr}", owner.__dict__[fn_name], extra))
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(layer, f"{module_name}.{attr}", original, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def root(self, fn):
        """Wrap the call that runs a whole verdict as the root span."""
        return self.wrap(ROOT_LAYER, "cscx.cli.main", fn)

    def write_spans(self, path) -> None:
        """Write one JSON line per span: id, parent id, function, start, end."""
        with open(path, "w") as handle:
            for i in range(len(self.span_start)):
                handle.write(json.dumps([
                    i,
                    self.span_parent[i],
                    self.names[self.span_name[i]],
                    round(self.span_start[i] - self.span_start[0], 7),
                    round(self.span_end[i] - self.span_start[0], 7),
                ]) + "\n")
