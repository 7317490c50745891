"""Every function in ``src/cscx`` is run by some command-line invocation.

The invocations below cover every subcommand, the output flags, valid and
invalid chart files and inputs that exit 2.  They run in-process under
``sys.setprofile``, which records every code object entered.  A ``def`` that
none of them enters is either a paper claim still missing from the
verdicts or code to delete, so the test fails on it.

Exempt are dunder methods, the functions the traced benchmark wraps by
name (``TARGETS`` in ``perfbench/tracer.py``, read from that file) and the
short ``ALLOWED`` list below, each entry with its reason.
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cscx
from cscx.cli import main

from test_bench_targets import _targets

SRC = Path(cscx.__file__).resolve().parent

# (module, qualified name) -> why no invocation reaches it
ALLOWED = {
    ("lefschetz", "lefschetz_Lambda"): (
        "reassembles components above the middle degree, which exist from n = 3 "
        "on; claims --n 2 has none"
    ),
    ("lefschetz", "CsChart.inverse_bivector_field"): "called by lefschetz_Lambda alone",
}

_POLY = {"ring": "poly", "nvars": 4}
_HALF = {"num": "1", "den": "2"}
_ZERO = {"num": "0", "den": "1"}
CHARTS = {
    "contact": {
        "model": "contact", "n": 2, "ring": "poly",
        "beta": {"degree": 1, "terms": [
            {"idx": [1], "coef": dict(_POLY, terms=[{"exp": [1, 0, 0, 0], "num": "1", "den": "1"}])},
            {"idx": [3], "coef": dict(_POLY, terms=[{"exp": [0, 0, 1, 0], "num": "1", "den": "1"}])},
        ]},
    },
    "torus": {"model": "torus", "n": 2},
    # cos(x1) dy1: a Fourier coefficient in a contact chart's polynomial ring
    "fourier-potential": {
        "model": "contact", "n": 2, "ring": "poly",
        "beta": {"degree": 1, "terms": [
            {"idx": [1], "coef": {"ring": "trig", "nvars": 4, "terms": [
                {"freq": [1, 0, 0, 0], "re": _HALF, "im": _ZERO},
                {"freq": [-1, 0, 0, 0], "re": _HALF, "im": _ZERO},
            ]}},
        ]},
    },
}

# (arguments, expected exit code); {dir} is a scratch directory
INVOCATIONS = [
    ("chart validate {dir}/contact.json", 0),
    ("chart validate {dir}/torus.json", 0),
    ("chart validate {dir}/fourier-potential.json", 2),
    ("lefschetz table --n 2", 0),
    ("lefschetz table --n 2 --format csv --out {dir}/table.csv", 0),
    ("rumin verify --n 2 --max-weight 3", 0),
    ("rs build --model torus --n 2 --modes 0", 0),
    ("rs build --model affine --max-weight 2", 0),
    ("rs crosscheck --n 2 --max-weight 2", 0),
    ("cohomology --model affine --n 2 --max-weight 4 --csv {dir}/dims.csv", 0),
    ("cohomology --model torus --n 2 --modes 0 --sample-modes 1 --out {dir}/report.json", 0),
    # below the stable range: weight_stable is false, named on the error line
    ("cohomology --model affine --n 2 --max-weight 1", 1),
    ("les --model affine --n 2 --max-weight 2", 0),
    ("les --model torus --n 2 --modes 0", 0),
    ("rumin verify --n 1", 2),
    ("cohomology --model affine --n 2", 2),
    ("les --model torus --n 2 --modes -1", 2),
    ("claims --n 2", 0),
]


def _definitions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualified name) of every def in the package.

    The first line of a decorated function is its first decorator's, as in
    its code object.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    out[(str(path), first)] = (path.stem, name)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def _traced_targets() -> set[tuple[str, str]]:
    """(defining module, qualified name) of what each traced name resolves to.

    A target named through a module that imports it (``cscx.grading``
    names the fiber layer defined in ``cscx.lefschetz``) exempts the
    function where it is defined, which is what the tracer wraps.
    """
    out = set()
    for _, module, attr, _ in _targets():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        out.add((obj.__module__.rpartition(".")[2], obj.__qualname__))
    return out


def _is_dunder(qualname: str) -> bool:
    name = qualname.rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """Exit codes of the invocations and the (file, first line) of every code object they enter."""
    scratch = tmp_path_factory.mktemp("reach")
    for name, payload in CHARTS.items():
        (scratch / f"{name}.json").write_text(json.dumps(payload))
    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runner = CliRunner()
    codes = []
    for command, _ in INVOCATIONS:
        argv = command.format(dir=scratch).split()
        sys.setprofile(profile)
        try:
            result = runner.invoke(main, argv)
        finally:
            sys.setprofile(None)
        codes.append(result.exit_code)
    return codes, entered


def _unreached(entered) -> list[tuple[str, str]]:
    exempt = _traced_targets() | set(ALLOWED)
    return sorted(
        name
        for place, name in _definitions().items()
        if place not in entered and not _is_dunder(name[1]) and name not in exempt
    )


def test_invocations_exit_as_expected(reach):
    codes, _ = reach
    assert codes == [code for _, code in INVOCATIONS]


def test_every_def_is_reached(reach):
    _, entered = reach
    missing = [f"{module}.{name}" for module, name in _unreached(entered)]
    assert not missing, "no command reaches: " + ", ".join(missing)


def test_allowlist_is_short_and_current(reach):
    _, entered = reach
    assert len(ALLOWED) <= 10
    names = _definitions()
    for key in ALLOWED:
        places = [place for place, name in names.items() if name == key]
        assert places, f"{key} is allowed but no longer defined"
        assert all(place not in entered for place in places), f"{key} is allowed but reached"
