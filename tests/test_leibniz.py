"""Operators read off their tables equal the per-column assembly.

``rs_complex``, ``descend_complex``, ``rumin_complex``, ``_form_complex``
and ``total_complex`` assemble each operator from its values on probe
sections, kept on the chart under ``(operator name, k)``: a
``symbols.LeibnizTable`` on the poly ring, a ``symbols.ModeTable`` on the
trig ring; the descended operators' tables are kept on the contact chart
of their pair.  The reference applies the same operator to every basis
section (``assemble_operator`` without a table).  The matrices must agree
entry for entry, on the full truncation and on every single block.  A
fresh table of order ``rumin._MAX_ORDER`` reads each stated order back, so
none is set higher than the operator.
"""

from functools import partial
from itertools import product
from math import comb, factorial, prod

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cscx import cohomology
from cscx.cli import main
from cscx.cohomology import _form_complex, total_complex
from cscx.contact import standard_contact_chart
from cscx.descent import (
    ChartPair,
    descend_complex,
    descend_rumin,
    nabla_twisted_d,
    rs_apply,
    rs_complex,
    total_differential,
)
from cscx.coefficients import TrigCoefficient
from cscx.errors import InternalConsistencyError
from cscx.grading import (
    GradedSpace,
    PairSpace,
    Truncation,
    assemble_operator,
    leibniz_table,
    mode_shells,
    mode_truncation,
    weight_truncation,
)
from cscx.lefschetz import TwistedForm, standard_cs_chart
from cscx.rumin import _MAX_ORDER, class_operator_order, rumin_apply, rumin_complex
from cscx.symbols import (
    LeibnizTable,
    ModeTable,
    generalized_binomial,
    newton_differences,
    probe_modes,
)

from helpers import newton_difference


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


# each builder gives the expanded complex as a function of the truncation,
# the spaces and per-degree operators of the per-column reference, and the
# chart that keeps the tables


def _rs(cs):
    spaces = cs.two_step.class_spaces()
    return partial(rs_complex, cs), spaces, lambda k: partial(rs_apply, cs, k), cs


def _descended(cs):
    # the pair over this cs chart; its operator depends on the contact
    # chart's transversal scale, so the contact chart keeps the tables
    pair = ChartPair(standard_contact_chart(cs.n), cs)
    spaces = cs.two_step.class_spaces()
    return partial(descend_complex, pair), spaces, lambda k: partial(descend_rumin, pair, k), pair.contact


def _forms(twist):
    def build(cs):
        spaces = [
            GradedSpace(cs.chart, k, weight_offset=2 * twist, tag=f"forms-tw{twist}")
            for k in range(2 * cs.n + 1)
        ]
        if twist:
            op = lambda form: nabla_twisted_d(cs, TwistedForm(form, 1)).base  # noqa: E731
        else:
            op = lambda form: form.d()  # noqa: E731
        return lambda truncation: _form_complex(cs, truncation, twist)[1], spaces, lambda k: op, cs

    return build


def _total(cs):
    spaces = [PairSpace(cs.chart, k) for k in range(2 * cs.n + 2)]
    op = lambda pair: total_differential(cs, *pair)  # noqa: E731
    return partial(total_complex, cs), spaces, lambda k: op, cs


def _rumin(cc):
    struct = cc.two_step
    return partial(rumin_complex, cc), struct.class_spaces(), lambda k: partial(rumin_apply, struct, k), cc


def _with_domain(matrices):
    """The degrees whose operator has a domain section, hence a table."""
    return [k for k, matrix in enumerate(matrices) if matrix.cols.dim]


def _view(matrix):
    return matrix.rows.labels, matrix.cols.labels, matrix.entries


def _block_views(matrix):
    """``_view`` of the rows and columns of each block, renumbered from 0, by block."""
    views = {}
    index = {}
    for axis, labels in enumerate((matrix.rows.labels, matrix.cols.labels)):
        for i, label in enumerate(labels):
            view = views.setdefault(label[0], ([], [], {}))
            index[axis, i] = len(view[axis])
            view[axis].append(label)
    for (r, c), v in matrix.entries.items():
        block = matrix.cols.labels[c][0]
        if matrix.rows.labels[r][0] == block:
            views[block][2][(index[0, r], index[1, c])] = v
    return {block: (tuple(rows), tuple(cols), entries) for block, (rows, cols, entries) in views.items()}


CASES = [
    ("torus", 2, (0, 1, 2), "rs", _rs),
    ("torus", 2, (0, 1, 2), "de-rham", _forms(0)),
    ("torus", 2, (0, 1, 2), "twisted", _forms(1)),
    ("torus", 2, (0, 1, 2), "total", _total),
    ("torus", 3, (0, 1), "rs", _rs),
    ("torus", 3, (0, 1), "de-rham", _forms(0)),
    ("torus", 3, (0, 1), "twisted", _forms(1)),
    ("torus", 3, (0, 1), "total", _total),
    ("affine", 2, 6, "rs", _rs),
    ("affine", 2, 6, "de-rham", _forms(0)),
    ("affine", 2, 6, "twisted", _forms(1)),
    ("affine", 2, 6, "total", _total),
    ("affine", 2, 6, "descended", _descended),
    ("affine", 3, 4, "rs", _rs),
    ("affine", 3, 4, "de-rham", _forms(0)),
    ("affine", 3, 4, "twisted", _forms(1)),
    ("affine", 3, 4, "total", _total),
    ("affine", 3, 4, "descended", _descended),
    ("contact", 2, 6, "rumin", _rumin),
]


def _case_id(case):
    model, n, bound, name, _ = case
    if model == "torus":
        return f"{name}-torus{n}-norms{''.join(map(str, bound))}"
    return f"{name}-{model}{n}-w{bound}"


@pytest.mark.parametrize("model, n, bound, name, build", CASES, ids=[_case_id(c) for c in CASES])
def test_expansion_equals_per_column_assembly(model, n, bound, name, build):
    """``bound`` is the weight bound, or on the torus the sup-norms of the mode shells.

    Each single block is compared with its rows and columns of the full
    reference, which equal the per-column assembly on that block alone: the
    operators are block-diagonal and a block's basis labels keep their order.
    """
    if model == "contact":
        chart = standard_contact_chart(n)
    else:
        chart = standard_cs_chart(n, model)
    if model == "torus":
        full = mode_truncation(mode_shells(2 * n, bound))
    else:
        full = weight_truncation(bound)
    expand, spaces, op_of, owner = build(chart)
    reference = _per_column(spaces, op_of, full)
    assert len(reference) == 2 * n + (name not in ("de-rham", "twisted"))
    expanded = expand(full)
    assert [_view(m) for m in expanded] == [_view(m) for m in reference], f"{name} on the full truncation"
    by_block = [_block_views(m) for m in reference]
    for block in full.blocks():
        single = expand(Truncation.single(block))
        for k, (a, views) in enumerate(zip(single, by_block, strict=True)):
            empty = ((), (), {})
            assert _view(a) == views.get(block, empty), f"{name} degree {k} on block {block}"
    # the expansion ran: the tables of the operators with a domain section
    # are kept on their chart, and on no other
    assert sorted(k for key, k in owner.tables if key == name) == _with_domain(expanded)
    if owner is not chart:
        assert not any(key == name for key, _ in chart.tables)


STATED_ORDERS = {
    "rs": class_operator_order,
    "descended": class_operator_order,
    "de-rham": lambda n, k: cohomology._DE_RHAM_ORDER,
    "twisted": lambda n, k: cohomology._TWISTED_ORDER,
    "total": lambda n, k: cohomology._TOTAL_ORDER,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "name, build",
    [
        ("rs", _rs),
        ("descended", _descended),
        ("de-rham", _forms(0)),
        ("twisted", _forms(1)),
        ("total", _total),
    ],
    ids=["rs", "descended", "de-rham", "twisted", "total"],
)
def test_stated_orders_are_tight(name, build, n):
    """A table of order ``_MAX_ORDER`` reads back each stated order in every degree.

    A stated order that is too low fails the column check; one that is too
    high would pass unseen and only cost probes.
    """
    _, spaces, op_of, _ = build(standard_cs_chart(n))
    for k in range(len(spaces) - 1):
        table = LeibnizTable(spaces[k], spaces[k + 1], op_of(k), _MAX_ORDER)
        assert table.measured_order() == STATED_ORDERS[name](n, k), f"{name} degree {k}"


PREFIX_CASES = [
    ("contact", 2, "rumin", _rumin),
    ("contact", 3, "rumin", _rumin),
    ("affine", 2, "rs", _rs),
    ("affine", 3, "rs", _rs),
    ("affine", 2, "total", _total),
    ("affine", 3, "total", _total),
    ("torus", 2, "rs", _rs),
    ("torus", 3, "rs", _rs),
    ("torus", 2, "total", _total),
    ("torus", 3, "total", _total),
]


@pytest.mark.parametrize(
    "model, n, name, build", PREFIX_CASES, ids=[f"{name}-{model}{n}" for model, n, name, _ in PREFIX_CASES]
)
def test_prefix_is_the_fresh_lower_order_table(model, n, name, build):
    """The groups at |c| <= r of an order-R table are the fresh order-r table's rows, in order.

    Delta^c f(0) reads f only at c' <= c, and the simplex |c| <= r is
    downward closed, so cutting needs no probe run.
    """
    chart = standard_contact_chart(n) if model == "contact" else standard_cs_chart(n, model)
    _, spaces, op_of, _ = build(chart)
    table_type = ModeTable if model == "torus" else LeibnizTable
    for k in range(len(spaces) - 1):
        full = table_type(spaces[k], spaces[k + 1], op_of(k), _MAX_ORDER)
        assert any(full.rows.values()), f"{name} degree {k}"
        for r in range(_MAX_ORDER + 1):
            fresh = table_type(spaces[k], spaces[k + 1], op_of(k), r)
            cut = full.prefix(r)
            assert type(cut) is table_type and cut.order == r
            assert (cut.probes, cut.supports) == (fresh.probes, fresh.supports)
            assert list(cut.rows.items()) == list(fresh.rows.items()), f"{name} degree {k} order {r}"
        # cutting copies: the order-R table is left whole
        assert full.order == _MAX_ORDER and full.probes == probe_modes(len(full.probes[0]), _MAX_ORDER)


def test_tables_are_kept_on_the_owner_and_reused():
    cs = standard_cs_chart(2)
    low = _with_domain(rs_complex(cs, weight_truncation(3)))
    tables = dict(cs.tables)
    assert sorted(tables) == [("rs", k) for k in low]
    # block 5 reaches degrees that weights <= 3 leave empty: their tables
    # are added, and the earlier ones are kept as they are
    high = _with_domain(rs_complex(cs, Truncation.single(("w", 5))))
    assert set(high) - set(low)
    assert sorted(cs.tables) == [("rs", k) for k in sorted(set(low) | set(high))]
    assert all(cs.tables[key] is table for key, table in tables.items())


def test_descended_tables_are_kept_per_contact_chart():
    # the descended operator reads the contact chart's transversal scale: a
    # table kept on the shared cs chart would serve the second pair the
    # first pair's probe values, and the rescaling claim would compare a
    # table with itself
    cs = standard_cs_chart(2)
    pairs = [ChartPair(standard_contact_chart(2, scale), cs) for scale in (1, 2)]
    truncation = weight_truncation(5)
    matrices = [descend_complex(pair, truncation) for pair in pairs]
    with_domain = _with_domain(matrices[0])
    assert len(with_domain) == 5
    for pair in pairs:
        assert sorted(pair.contact.tables) == [("descended", k) for k in with_domain]
    assert not cs.tables
    first, second = (pair.contact.tables for pair in pairs)
    assert not {id(t) for t in first.values()} & {id(t) for t in second.values()}
    assert [_view(m) for m in matrices[0]] == [_view(m) for m in matrices[1]]


@pytest.mark.parametrize(
    "build, name",
    [(rs_complex, "rs"), (total_complex, "total"), (lambda cs, t: _form_complex(cs, t, 0)[1], "de-rham")],
    ids=["rs", "total", "de-rham"],
)
def test_no_table_for_an_operator_without_domain_sections(build, name):
    # weights <= 2 leave the upper degrees empty; their operators have no
    # column, so no probe runs for them
    cs = standard_cs_chart(3)
    matrices = build(cs, weight_truncation(2))
    with_domain = _with_domain(matrices)
    assert 0 < len(with_domain) < len(matrices)
    assert sorted(k for key, k in cs.tables if key == name) == with_domain
    assert all(not matrices[k].entries for k in range(len(matrices)) if k not in with_domain)


def test_torus_tables_are_kept_on_the_chart_and_reused():
    cs = standard_cs_chart(2, "torus")
    rs_complex(cs, Truncation.single(("m", (0, 0, 0, 0))))
    tables = dict(cs.tables)
    assert sorted(tables) == [("rs", k) for k in range(5)]
    assert all(isinstance(table, ModeTable) for table in tables.values())
    rs_complex(cs, Truncation.single(("m", (1, -2, 0, 1))))
    rs_complex(cs, mode_truncation(mode_shells(4, (1,))))
    assert cs.tables == tables
    assert all(cs.tables[key] is table for key, table in tables.items())


def test_probe_modes_are_the_lattice_simplex():
    probes = probe_modes(4, 2)
    assert len(probes) == 15 and len(set(probes)) == 15
    assert probes[0] == (0, 0, 0, 0)
    assert all(min(c) >= 0 and sum(c) <= 2 for c in probes)
    assert len(probe_modes(6, 1)) == 7


def test_probe_modes_match_the_box_filter():
    # the simplex is enumerated shell by shell; filtering the whole box
    # (order + 1)^nvars and sorting by (|c|, c) gives the same list
    for nvars in range(1, 7):
        for order in range(4):
            box = (c for c in product(range(order + 1), repeat=nvars) if sum(c) <= order)
            assert probe_modes(nvars, order) == sorted(box, key=lambda c: (sum(c), c))
    assert len(probe_modes(15, 3)) == comb(18, 3)


@pytest.mark.parametrize("m", range(-4, 5))
def test_generalized_binomial(m):
    # C(m, c) agrees with the falling factorial over c!, and with the
    # negation rule C(-m, c) = (-1)^c C(m + c - 1, c)
    for c in range(5):
        falling = 1
        for j in range(c):
            falling *= m - j
        assert generalized_binomial(m, c) * factorial(c) == falling
        if m > 0:
            assert generalized_binomial(-m, c) == (-1) ** c * comb(m + c - 1, c)


def _simplex(draw, nvars, order):
    return probe_modes(draw(st.integers(1, nvars)), draw(st.integers(0, order)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_newton_differences_match_the_definition(data):
    probes = _simplex(data.draw, 4, 3)
    vector = st.dictionaries(st.integers(0, 3), st.integers(-5, 5).filter(bool), max_size=4)
    values = {c: data.draw(vector) for c in probes}
    expected = {c: newton_difference(values, c) for c in probes}
    newton_differences(values)
    assert values == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_newton_expansion_reproduces_a_polynomial(data):
    # sum over c of C(m, c) Delta^c P(0) = P(m) for deg P <= r, m of any sign
    probes = _simplex(data.draw, 4, 3)
    coefficients = {alpha: data.draw(st.integers(-4, 4)) for alpha in probes}

    def poly(m):
        return sum(q * prod(map(pow, m, alpha)) for alpha, q in coefficients.items())

    values = {c: {0: poly(c)} if poly(c) else {} for c in probes}
    newton_differences(values)
    point = st.tuples(*(st.integers(-6, 6) for _ in probes[0]))
    for m in data.draw(st.lists(point, min_size=1, max_size=5)):
        expansion = sum(
            prod(map(generalized_binomial, m, c)) * values[c].get(0, 0) for c in probes
        )
        assert expansion == poly(m)


def test_an_operator_mixing_modes_is_refused_at_the_table():
    # multiplying by cos(theta_1) sends mode c to c + e_1 and c - e_1
    cs = standard_cs_chart(2, "torus")
    cos1 = TrigCoefficient(4, {("c", (1, 0, 0, 0)): 1})
    space = GradedSpace(cs.chart, 1, tag="forms-tw0")
    with pytest.raises(InternalConsistencyError, match="does not preserve modes"):
        leibniz_table(cs, ("cos-multiple", 1), space, space, lambda form: form.times(cos1), 0)
    assert ("cos-multiple", 1) not in cs.tables


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


def test_wrong_order_is_caught_by_the_column_check_on_the_torus(monkeypatch):
    # with order 0 the table holds d(v) = 0 alone, so d(cos(theta_1)) would read as 0
    monkeypatch.setattr(cohomology, "_DE_RHAM_ORDER", 0)
    argv = ["cohomology", "--model", "torus", "--n", "2", "--modes", "0,1"]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: expanded column ")
    assert "disagrees with the operator applied directly" in lines[0]
