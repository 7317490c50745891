"""Deterministic random generators shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from cscx.coefficients import (
    PolyCoefficient,
    Ring,
    TrigCoefficient,
    coefficient_from_json,
)
from cscx.forms import Chart, DifferentialForm
from cscx.grading import multi_indices


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
    return DifferentialForm(chart, degree, out)


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
    return DifferentialForm(chart, degree, out)
