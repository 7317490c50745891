"""Operators read off their Leibniz tables equal the per-column assembly.

On the poly ring ``rs_complex``, ``rumin_complex``, ``_form_complex`` and
``total_complex`` assemble each operator from its values on probe sections
(``grading.LeibnizTable``), kept on the chart under ``(operator name, k)``.  The reference applies the same operator to
every basis section (``assemble_operator`` without a table).  The matrices
must agree entry for entry, on the full truncation and on every single
block.
"""

from functools import partial

import pytest
from click.testing import CliRunner

from cscx import cohomology
from cscx.cli import main
from cscx.cohomology import _TotalSpace, _form_complex, total_complex
from cscx.contact import standard_contact_chart
from cscx.descent import nabla_twisted_d, rs_apply, rs_complex, total_differential
from cscx.grading import GradedSpace, Truncation, assemble_operator, weight_truncation
from cscx.lefschetz import TwistedForm, standard_cs_chart
from cscx.rumin import rumin_apply, rumin_complex


def _per_column(spaces, op_of, truncation):
    return [
        assemble_operator(
            spaces[k],
            spaces[k + 1],
            op_of(k),
            spaces[k].basis(truncation),
            spaces[k + 1].basis(truncation),
        )
        for k in range(len(spaces) - 1)
    ]


def _rs(cs, truncation):
    struct = cs.two_step
    spaces = [struct.class_space(k) for k in range(2 * cs.n + 2)]
    reference = _per_column(spaces, lambda k: partial(rs_apply, cs, k), truncation)
    return rs_complex(cs, truncation), reference


def _forms(twist):
    def build(cs, truncation):
        spaces = [
            GradedSpace(cs.chart, k, weight_offset=2 * twist, tag=f"forms-tw{twist}")
            for k in range(2 * cs.n + 1)
        ]
        if twist:
            op = lambda form: nabla_twisted_d(cs, TwistedForm(form, 1)).base  # noqa: E731
        else:
            op = lambda form: form.d()  # noqa: E731
        reference = _per_column(spaces, lambda k: op, truncation)
        return _form_complex(cs, truncation, twist)[1], reference

    return build


def _total(cs, truncation):
    spaces = [_TotalSpace(cs, k) for k in range(2 * cs.n + 2)]
    op = lambda pair: total_differential(cs, *pair)  # noqa: E731
    return total_complex(cs, truncation), _per_column(spaces, lambda k: op, truncation)


def _rumin(cc, truncation):
    struct = cc.two_step
    spaces = [struct.class_space(k) for k in range(2 * cc.n + 2)]
    reference = _per_column(spaces, lambda k: partial(rumin_apply, struct, k), truncation)
    return rumin_complex(cc, truncation), reference


CASES = [
    ("affine", 2, 6, "rs", _rs),
    ("affine", 2, 6, "de-rham", _forms(0)),
    ("affine", 2, 6, "twisted", _forms(1)),
    ("affine", 2, 6, "total", _total),
    ("affine", 3, 4, "rs", _rs),
    ("affine", 3, 4, "de-rham", _forms(0)),
    ("affine", 3, 4, "twisted", _forms(1)),
    ("affine", 3, 4, "total", _total),
    ("contact", 2, 6, "rumin", _rumin),
]


@pytest.mark.parametrize(
    "model, n, max_weight, name, build", CASES, ids=[f"{c[3]}-{c[0]}{c[1]}-w{c[2]}" for c in CASES]
)
def test_expansion_equals_per_column_assembly(model, n, max_weight, name, build):
    chart = standard_contact_chart(n) if model == "contact" else standard_cs_chart(n)
    full = weight_truncation(max_weight)
    for truncation in [full] + [Truncation.single(block) for block in full.blocks()]:
        expanded, reference = build(chart, truncation)
        assert len(expanded) == len(reference) == 2 * n + (name not in ("de-rham", "twisted"))
        for k, (a, b) in enumerate(zip(expanded, reference)):
            assert a.rows.labels == b.rows.labels and a.cols.labels == b.cols.labels
            assert a.entries == b.entries, f"{name} degree {k} on {truncation.describe()}"
    # the expansion ran: the operators' tables are kept on their chart
    assert sorted(k for key, k in chart.tables if key == name) == list(range(len(expanded)))


def test_tables_are_kept_on_the_owner_and_reused():
    cs = standard_cs_chart(2)
    rs_complex(cs, weight_truncation(3))
    tables = dict(cs.tables)
    assert sorted(tables) == [("rs", k) for k in range(5)]
    rs_complex(cs, Truncation.single(("w", 5)))
    assert cs.tables == tables
    assert all(cs.tables[key] is table for key, table in tables.items())


def test_torus_keeps_per_column_assembly():
    cs = standard_cs_chart(2, "torus")
    rs_complex(cs, Truncation.single(("m", (0, 0, 0, 0))))
    assert not cs.tables


def test_wrong_order_is_caught_by_the_column_check(monkeypatch):
    # with order 0 the table holds d(v) = 0 alone, so d(x1) would read as 0
    monkeypatch.setattr(cohomology, "_DE_RHAM_ORDER", 0)
    argv = ["cohomology", "--model", "affine", "--n", "2", "--max-weight", "3"]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: expanded column ")
    assert "disagrees with the operator applied directly" in lines[0]
