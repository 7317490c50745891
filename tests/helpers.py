"""Deterministic random generators and reference implementations shared by the tests.

The references are the dense linear algebra the sparse engine is compared
against, the echelon quotients the unit-pivot reduction is compared
against, the iterated commutator that defines operator orders, the Newton
difference that the probe tables compute in place, cos/sin
built through the JSON boundary, the form operations on ``{axes:
Coefficient}`` dicts that the flat form kernels are compared against (the
pullback along a substitution among them), the form serializer and the
plain and twisted de Rham complexes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, prod

from cscx.cohomology import _form_complex
from cscx.coefficients import (
    PolyCoefficient,
    Rational,
    Ring,
    TrigCoefficient,
    coefficient_from_json,
    coefficient_to_json,
)
from cscx.forms import Chart, DifferentialForm, contract_axes, merge_wedge, multi_indices
from cscx.linalg import Echelon, sparse_nullspace


def rng(*seed) -> random.Random:
    return random.Random(repr(seed))


def random_fraction(r: random.Random) -> Fraction:
    return Fraction(r.randint(-6, 6), r.randint(1, 4))


def random_poly(ring: Ring, r: random.Random, terms: int = 3, max_exp: int = 2) -> PolyCoefficient:
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        exp = tuple(r.randint(0, max_exp) if r.random() < 0.5 else 0 for _ in range(ring.nvars))
        out[exp] = out.get(exp, Fraction(0)) + random_fraction(r)
    return PolyCoefficient(ring.nvars, out)


def trig_from_exponentials(nvars: int, draws) -> TrigCoefficient:
    """The real sum of c e^{ik.theta} + conj(c) e^{-ik.theta} over draws (k, re c, im c).

    Built through the JSON boundary, which stores the complex coefficients.
    """
    out: dict[tuple[int, ...], list[Fraction]] = {}
    for freq, re, im in draws:
        mirror = tuple(-f for f in freq)
        for key, sign in ((freq, 1), (mirror, -1)):
            acc = out.setdefault(key, [Fraction(0), Fraction(0)])
            acc[0] += re
            acc[1] += sign * im
    terms = [
        {"freq": list(key), "re": _frac_json(re), "im": _frac_json(im)}
        for key, (re, im) in out.items()
    ]
    return coefficient_from_json({"ring": "trig", "nvars": nvars, "terms": terms})


def _frac_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def random_trig(ring: Ring, r: random.Random, terms: int = 2, max_freq: int = 2) -> TrigCoefficient:
    draws = []
    for _ in range(terms):
        freq = tuple(r.randint(-max_freq, max_freq) if r.random() < 0.5 else 0 for _ in range(ring.nvars))
        draws.append((freq, random_fraction(r), random_fraction(r)))
    return trig_from_exponentials(ring.nvars, draws)


def random_coefficient(ring: Ring, r: random.Random, terms: int = 3):
    if ring.kind == "poly":
        return random_poly(ring, r, terms=terms)
    return random_trig(ring, r, terms=terms)


def random_form(chart: Chart, degree: int, r: random.Random, terms: int = 3) -> DifferentialForm:
    keys = multi_indices(chart.dim, degree)
    out = {}
    for _ in range(terms):
        key = r.choice(keys)
        coeff = random_coefficient(chart.ring, r, terms=2)
        out[key] = out[key] + coeff if key in out else coeff
    return DifferentialForm.from_coefficients(chart, degree, out)


def random_base_form(chart: Chart, degree: int, r: random.Random, terms: int = 3) -> DifferentialForm:
    """A form using base axes only, with t-independent coefficients."""
    base = chart.base_axes
    keys = multi_indices(len(base), degree)
    out = {}
    for _ in range(terms):
        key = tuple(base[a] for a in r.choice(keys))
        coeff = random_coefficient(chart.ring, r, terms=2)
        if chart.ring.kind == "poly" and chart.t_axis is not None:
            # zero the transversal exponent
            cleaned = {}
            for exp, q in coeff.terms.items():
                exp = exp[: chart.t_axis] + (0,) * (chart.ring.nvars - chart.t_axis)
                cleaned[exp] = cleaned.get(exp, Fraction(0)) + q
            coeff = PolyCoefficient(chart.ring.nvars, cleaned)
        if coeff.is_zero():
            continue
        out[key] = out[key] + coeff if key in out else coeff
    return DifferentialForm.from_coefficients(chart, degree, out)


def trig_cos(ring: Ring, freq) -> TrigCoefficient:
    """cos(k . theta) = (e^{ik.theta} + e^{-ik.theta}) / 2."""
    return trig_from_exponentials(ring.nvars, [(tuple(freq), Fraction(1, 2), Fraction(0))])


def trig_sin(ring: Ring, freq) -> TrigCoefficient:
    """sin(k . theta) = (e^{ik.theta} - e^{-ik.theta}) / 2i."""
    return trig_from_exponentials(ring.nvars, [(tuple(freq), Fraction(0), Fraction(-1, 2))])


def coefficients_of(omega) -> dict:
    """A form or polyvector as ``{axes: Coefficient}``, sorted by axes, built with ``coefficient``."""
    return {key: omega.coefficient(key) for key in sorted({axes for axes, _ in omega.terms})}


def form_to_json(omega: DifferentialForm) -> dict:
    """The serialized form that ``cscx.forms.form_from_json`` reads."""
    return {
        "degree": omega.degree,
        "terms": [
            {"idx": list(key), "coef": coefficient_to_json(coeff)}
            for key, coeff in coefficients_of(omega).items()
        ],
    }


# -- coefficient-object references for the flat form kernels ----------------------
# The forms store one flat map {(axes, term): q} and run the ring kernels
# term_partial and term_product.  These references work on {axes: Coefficient}
# dicts instead, and differentiate and multiply coefficients without the
# kernels: exponents add on the poly ring, and on the trig ring the complex
# coefficients of e^{ik.theta} (the JSON format) multiply and differentiate.


def _exponentials(f: TrigCoefficient) -> dict:
    return {
        tuple(t["freq"]): (Fraction(int(t["re"]["num"]), int(t["re"]["den"])),
                           Fraction(int(t["im"]["num"]), int(t["im"]["den"])))
        for t in coefficient_to_json(f)["terms"]
    }


def _from_exponentials(nvars: int, coeffs: dict) -> TrigCoefficient:
    terms = [
        {"freq": list(k), "re": _frac_json(re), "im": _frac_json(im)}
        for k, (re, im) in coeffs.items()
        if re or im
    ]
    return coefficient_from_json({"ring": "trig", "nvars": nvars, "terms": terms})


def reference_product(f, g):
    """f * g: exponents add (poly); c(k) d(l) lands on e^{i(k+l).theta} (trig)."""
    out: dict = {}
    if f.kind == "poly":
        for ea, qa in f.terms.items():
            for eb, qb in g.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0) + Fraction(qa) * qb
        return PolyCoefficient(f.nvars, out)
    for k, (ar, ai) in _exponentials(f).items():
        for m, (br, bi) in _exponentials(g).items():
            key = tuple(a + b for a, b in zip(k, m))
            re, im = out.get(key, (0, 0))
            out[key] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return _from_exponentials(f.nvars, out)


def reference_partial(f, var: int):
    """d f / d v_var: e x^(e-1) (poly); i k_var c(k) per e^{ik.theta} (trig)."""
    if f.kind == "poly":
        out: dict = {}
        for exp, q in f.terms.items():
            if exp[var]:
                key = exp[:var] + (exp[var] - 1,) + exp[var + 1:]
                out[key] = out.get(key, 0) + exp[var] * q
        return PolyCoefficient(f.nvars, out)
    return _from_exponentials(
        f.nvars, {k: (-k[var] * im, k[var] * re) for k, (re, im) in _exponentials(f).items()}
    )


def kernel_partial(f, var: int):
    """d f / d v_var term by term through the ring's ``term_partial`` kernel."""
    out: dict = {}
    for term, q in f.terms.items():
        hit = f.term_partial(term, var)
        if hit is not None:
            out[hit[0]] = out.get(hit[0], 0) + hit[1] * q
    return type(f)(f.nvars, out)


def _add_to(out: dict, key, coeff) -> None:
    out[key] = out[key] + coeff if key in out else coeff


def _reference_pairs(P, omega, combine, degree):
    out: dict = {}
    for pkey, p in coefficients_of(P).items():
        for key, f in coefficients_of(omega).items():
            hit = combine(pkey, key)
            if hit is not None:
                _add_to(out, hit[1], reference_product(p, f).scale(hit[0]))
    return DifferentialForm.from_coefficients(omega.chart, degree, out)


def reference_wedge(a, b):
    return _reference_pairs(a, b, merge_wedge, a.degree + b.degree)


def reference_interior(P, omega):
    return _reference_pairs(P, omega, lambda pkey, key: contract_axes(key, pkey), omega.degree - P.degree)


def reference_derivative(omega, axes):
    """sum over axes of (d_axis f) dx_axis ^ dx^key, coefficient by coefficient."""
    out: dict = {}
    for key, f in coefficients_of(omega).items():
        for axis in axes:
            hit = merge_wedge((axis,), key)
            if hit is not None:
                _add_to(out, hit[1], reference_partial(f, axis).scale(hit[0]))
    return DifferentialForm.from_coefficients(omega.chart, omega.degree + 1, out)


def reference_t_derivative(omega, scale):
    axis = omega.chart.t_axis
    out = {key: reference_partial(f, axis).scale(scale) for key, f in coefficients_of(omega).items()}
    return DifferentialForm.from_coefficients(omega.chart, omega.degree, out)


def reference_lie(X, omega):
    """Cartan's formula on the references: i_X d omega + d i_X omega."""
    axes = range(omega.chart.dim)
    left = reference_interior(X, reference_derivative(omega, axes))
    if omega.degree == 0:
        return left
    return left + reference_derivative(reference_interior(X, omega), axes)


def reference_pullback(sub, omega):
    """The pullback along a ``forms.LinearSubstitution``, coefficient by coefficient.

    The coordinate images are rebuilt from the substitution's matrix, t
    scale and shift; each coefficient is composed with them one power at a
    time by ``reference_product``, and each dx_i becomes the
    ``reference_derivative`` of its image, wedged on by ``reference_wedge``.
    """
    dst = sub.dst
    nvars = dst.ring.nvars

    def monomial(axis, q):
        return PolyCoefficient(nvars, {tuple(int(i == axis) for i in range(nvars)): q})

    zero = PolyCoefficient(nvars, {})
    images = [sum((monomial(j, q) for j, q in enumerate(row)), zero) for row in sub.matrix]
    if sub.src.t_axis is not None:
        shift = sub.shift.pad(nvars) if sub.shift is not None else zero
        images.append(monomial(dst.t_axis, sub.t_scale) + shift)
    differentials = [
        reference_derivative(DifferentialForm.from_coefficients(dst, 0, {(): f}), range(dst.dim))
        for f in images
    ]
    out: dict = {}
    for key, f in coefficients_of(omega).items():
        composed = zero
        for exp, q in f.terms.items():
            term = PolyCoefficient(nvars, {(0,) * nvars: q})
            for var, power in enumerate(exp):
                for _ in range(power):
                    term = reference_product(term, images[var])
            composed = composed + term
        piece = DifferentialForm.from_coefficients(dst, 0, {(): composed})
        for axis in key:
            piece = reference_wedge(piece, differentials[axis])
        for axes, g in coefficients_of(piece).items():
            _add_to(out, axes, g)
    return DifferentialForm.from_coefficients(dst, omega.degree, out)


def reference_fiber_apply(fib, entries, omega, out_degree):
    out: dict = {}
    for key, f in coefficients_of(omega).items():
        for (row, col), v in entries.items():
            if col == fib.positions(omega.degree)[key]:
                _add_to(out, fib.indices(out_degree)[row], f.scale(v))
    return DifferentialForm.from_coefficients(omega.chart, out_degree, out)


def reference_promote(omega, chart):
    out = {key: f.pad(chart.ring.nvars) for key, f in coefficients_of(omega).items()}
    return DifferentialForm.from_coefficients(chart, omega.degree, out)


def reference_restrict(omega, base):
    out = {}
    for key, f in coefficients_of(omega).items():
        assert omega.chart.t_axis not in key and not any(exp[-1] for exp in f.terms)
        out[key] = PolyCoefficient(base.ring.nvars, {exp[:-1]: q for exp, q in f.terms.items()})
    return DifferentialForm.from_coefficients(base, omega.degree, out)


def de_rham_complex(cs, truncation):
    """The truncated de Rham complex of a cs chart."""
    return _form_complex(cs, truncation, twist=0)[1]


def twisted_complex(cs, truncation):
    """The twisted de Rham complex (flat derivative on the twisted factor)."""
    return _form_complex(cs, truncation, twist=1)[1]


def commutator_word(op, coords: list, payload: DifferentialForm) -> DifferentialForm:
    """Iterated commutator of op with multiplications by coordinate functions.

    ``coords`` is a list of scalar coefficients; an empty list applies op
    itself.  The operator has order <= r exactly when every word of length
    r + 1 vanishes identically.
    """
    if not coords:
        return op(payload)
    head, rest = coords[0], coords[1:]
    left = commutator_word(op, rest, payload.times(head))
    right = commutator_word(op, rest, payload).times(head)
    return left - right


def newton_difference(values: dict, c: tuple[int, ...]) -> dict:
    """Delta^c f(0) = sum over d <= c of (-1)^|c-d| C(c, d) f(d), straight from the definition.

    ``values`` maps lattice points d to sparse vectors ``{item: q}``; the
    result drops zeros.
    """
    out: dict = {}
    for d in product(*(range(ci + 1) for ci in c)):
        weight = (-1) ** (sum(c) - sum(d)) * prod(map(comb, c, d))
        for item, q in values[d].items():
            out[item] = out.get(item, 0) + weight * q
    return {item: q for item, q in out.items() if q}


def contract_axis(key: tuple[int, ...], axis: int) -> tuple[int, tuple[int, ...]] | None:
    """Sign and key for inserting d/d(axis) into the first slot of dx^key; one axis only.

    The reference for ``forms.contract_axes``: a degree-2 contraction is two
    of these in turn, the signs multiplied.
    """
    try:
        pos = key.index(axis)
    except ValueError:
        return None
    sign = -1 if pos % 2 else 1
    return sign, key[:pos] + key[pos + 1 :]


# -- dense linear algebra references ---------------------------------------------


def dense_rref(rows: list[list[Rational]]) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form (copy) and pivot column list."""
    mat = [list(map(Fraction, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1, mat[r][c])
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def dense_rank(rows: list[list[Rational]]) -> int:
    return len(dense_rref(rows)[1])


def dense_nullspace(rows: list[list[Rational]], ncols: int) -> list[list[Rational]]:
    """Deterministic kernel basis (free columns in increasing order)."""
    rref, pivots = dense_rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis: list[list[Rational]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][free]
        basis.append(vec)
    return basis


# -- echelon quotients ---------------------------------------------------------------


def image_columns(d) -> list[dict]:
    """The nonzero columns of a matrix (None: no columns), left to right."""
    cols: dict[int, dict] = {}
    for (r, c), v in (d.entries if d is not None else {}).items():
        cols.setdefault(c, {})[r] = v
    return [cols[c] for c in sorted(cols)]


def echelon_quotient(d_in, d_out, dim):
    """Representatives and class coordinates at one node from echelons alone.

    The image span is built column by column and extended by every kernel
    vector of ``d_out`` (the whole space when it is absent or zero) that is
    independent of it, so no class count is assumed.  Returns the
    representatives and a ``coords`` function as ``CochainQuotient`` has.
    """
    if d_out is not None and not d_out.is_zero():
        kernel = sparse_nullspace(d_out.entries, d_out.cols.dim)
    else:
        kernel = [{i: 1} for i in range(dim)]
    span = Echelon()
    for col in image_columns(d_in):
        span.add(col)
    image_rank = len(span)
    reps = [vec for vec in kernel if span.add(vec)]

    def coords(vec):
        found = span.coords(vec)
        if found is None:
            return None
        return {j - image_rank: v for j, v in found.items() if j >= image_rank}

    return reps, coords


def echelon_quotient_dims(maps, bases) -> list[int]:
    """The number of echelon representatives at every node of a complex."""
    return [
        len(echelon_quotient(maps[k - 1] if k else None, maps[k] if k < len(maps) else None, basis.dim)[0])
        for k, basis in enumerate(bases)
    ]
