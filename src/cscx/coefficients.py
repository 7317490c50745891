"""Exact scalar rings on charts.

One base and two rings, with exact arithmetic and no floating point
anywhere.  ``_SparseCoefficient`` holds a sparse map ``terms`` from a
ring's term keys to nonzero rationals, and everything that does not depend
on what a key means: the key check, sum, difference, negation, product,
scaling, equality, hashing, the zero test and the constant part.  Each ring
says what its keys mean: their variable vector (``term_vector``), the key of
the function 1 (``unit_term``) and two single-term kernels,

* ``term_partial(term, v)`` -- d/dv of one term, ``(term', factor)``, or
  None when the term does not involve v;
* ``term_product(a, b)`` -- the product of two terms as ``(term, factor)``
  pairs.

The coefficient product runs over ``term_product``, and every operation on
the flat forms of ``forms`` over both kernels: there is no second
arithmetic.  Coefficients stay the type of scalar functions where one is
handed over whole -- chart data, JSON, the images of a substitution,
evaluation -- and a form builds one on demand
(``DifferentialForm.coefficient``).

* ``PolyCoefficient`` -- multivariate polynomials over the rationals, keyed
  by exponent tuples; a product of terms is one pair.  It also evaluates
  and pads.

* ``TrigCoefficient`` -- finite real Fourier sums over ``Z^m``, keyed by
  ``("c", m)`` (cos m.theta) and ``("s", m)`` (sin m.theta), one key per
  mode orbit {m, -m} and function; a product of terms is up to two halves
  (product to sum).  The JSON format keeps the complex coefficients c(k) of
  e^{ik.theta}; ``coefficient_from_json`` checks the reality constraint
  ``c(-k) == conj(c(k))`` and converts them.

A rational is a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise: ``int`` arithmetic is many times cheaper,
and the two compare and hash equal and both expose
``numerator``/``denominator``.  A ``Fraction`` is built only where a
division makes one.  ``canon`` turns an integral one back into an ``int``;
the coefficient and form constructors (and ``linalg.OperatorMatrix``) apply
it to every non-``int`` value they store, because a sum such as 1/2 + 1/2
is an integral ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Union

from .errors import (
    CscxError,
    InvalidAxisError,
    RingMismatchError,
    UnsupportedRingOperationError,
)

Rational = Union[int, Fraction]

Exponent = tuple[int, ...]
Frequency = tuple[int, ...]
TrigTerm = tuple[str, Frequency]  # ("c" | "s", canonical mode)


def canon(q: Rational) -> Rational:
    """The ``int`` of an integral rational; a non-integral ``Fraction`` unchanged."""
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class Ring:
    """Tag for a coefficient ring: kind ('poly' | 'trig') and variable count."""

    kind: str
    nvars: int

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "trig"):
            raise RingMismatchError(f"unknown ring kind {self.kind!r}")
        if self.nvars < 0:
            raise InvalidAxisError("ring needs a nonnegative variable count")

    @property
    def coefficient_type(self) -> type:
        """The coefficient class of this ring, which also holds its term kernels."""
        return PolyCoefficient if self.kind == "poly" else TrigCoefficient

    def unit_term(self):
        """The term key of the constant function 1."""
        return self.coefficient_type.unit_term(self.nvars)

    def one(self) -> "Coefficient":
        return self.const(1)

    def const(self, value: Rational) -> "Coefficient":
        return self.coefficient_type(self.nvars, {self.unit_term(): value})

    def var(self, index: int) -> "PolyCoefficient":
        if self.kind != "poly":
            raise UnsupportedRingOperationError("coordinate monomials exist only in the poly ring")
        if not 0 <= index < self.nvars:
            raise InvalidAxisError(f"variable index {index} out of range for {self.nvars} variables")
        exp = [0] * self.nvars
        exp[index] = 1
        return PolyCoefficient(self.nvars, {tuple(exp): 1})


def poly_ring(nvars: int) -> Ring:
    return Ring("poly", nvars)


def trig_ring(nvars: int) -> Ring:
    return Ring("trig", nvars)


class _SparseCoefficient:
    """Shared storage and arithmetic of both rings; the product runs over ``term_product``."""

    __slots__ = ("nvars", "terms")

    _operands: str  # names the ring in a mismatch message
    _vector: str  # names a key's variable vector in a length message

    def __init__(self, nvars: int, terms: Mapping):
        self.nvars = nvars
        clean = {}
        for term, coeff in terms.items():
            if coeff == 0:
                continue
            if len(self.term_vector(term)) != nvars:
                raise InvalidAxisError(
                    f"{self._vector} vector of length {len(self.term_vector(term))} "
                    f"in a {nvars}-variable ring"
                )
            clean[term] = coeff if type(coeff) is int else canon(coeff)
        self.terms = clean

    def _check(self, other) -> None:
        if type(other) is not type(self) or other.nvars != self.nvars:
            raise RingMismatchError(f"{self._operands} operands from different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return type(self)(self.nvars, out)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        return type(self)(self.nvars, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        product = self.term_product
        out: dict = {}
        for ta, qa in self.terms.items():
            for tb, qb in other.terms.items():
                for term, f in product(ta, tb):
                    out[term] = out.get(term, 0) + qa * qb * f
        return type(self)(self.nvars, out)

    def scale(self, q: Rational):
        # terms are never written to, so scaling by the int 1 can share them
        if q == 1 and type(q) is int:
            return self
        return type(self)(self.nvars, {k: c * q for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_part(self) -> Rational:
        return self.terms.get(self.unit_term(self.nvars), 0)

    def is_constant(self) -> bool:
        return all(not any(self.term_vector(term)) for term in self.terms)


class PolyCoefficient(_SparseCoefficient):
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ()

    kind = "poly"
    _operands = "polynomial"
    _vector = "exponent"

    @staticmethod
    def term_vector(exp: Exponent) -> Exponent:
        return exp

    @staticmethod
    def unit_term(nvars: int) -> Exponent:
        return (0,) * nvars

    @staticmethod
    def term_partial(exp: Exponent, var: int) -> tuple[Exponent, int] | None:
        """d/dv x^e = e_v x^(e - 1_v): the pair ``(exponent, factor)``, None when e_v = 0."""
        e = exp[var]
        if not e:
            return None
        return exp[:var] + (e - 1,) + exp[var + 1 :], e

    @staticmethod
    def term_product(a: Exponent, b: Exponent) -> tuple[tuple[Exponent, int], ...]:
        """x^a x^b = x^(a + b): one pair ``(exponent, factor)``."""
        return ((tuple(map(add, a, b)), 1),)

    def __repr__(self) -> str:
        if not self.terms:
            return "poly(0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"v{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{self.terms[exp]}{'*' + mono if mono else ''}")
        return "poly(" + " + ".join(bits) + ")"

    def evaluate(self, point: Iterable[Rational]) -> Rational:
        pt = [Fraction(p) for p in point]
        if len(pt) != self.nvars:
            raise InvalidAxisError("point length does not match the variable count")
        total = 0
        for exp, coeff in self.terms.items():
            value = coeff
            for base, power in zip(pt, exp):
                if power:
                    value *= base**power
            total += value
        return canon(total)

    def pad(self, nvars: int) -> "PolyCoefficient":
        """Embed into a ring with extra trailing variables."""
        if nvars < self.nvars:
            raise InvalidAxisError("pad target has fewer variables")
        extra = (0,) * (nvars - self.nvars)
        return PolyCoefficient(nvars, {exp + extra: c for exp, c in self.terms.items()})


_HALF = Fraction(1, 2)


class TrigCoefficient(_SparseCoefficient):
    """Finite real Fourier sum, a sparse map from ``(kind, mode)`` to a rational.

    ``("c", m)`` is cos(m . theta) and ``("s", m)`` is sin(m . theta), where m
    is the ``canonical_mode`` representative of its orbit {m, -m}.  The
    constant function is ``("c", 0...0)``; there is no ``("s", 0...0)``.
    """

    __slots__ = ()

    kind = "trig"
    _operands = "trig"
    _vector = "frequency"

    @staticmethod
    def term_vector(term: TrigTerm) -> Frequency:
        return term[1]

    @staticmethod
    def unit_term(nvars: int) -> TrigTerm:
        return ("c", (0,) * nvars)

    @staticmethod
    def term_partial(term: TrigTerm, var: int) -> tuple[TrigTerm, int] | None:
        """d/dv cos(m . theta) = -m_v sin(m . theta), d/dv sin(m . theta) = m_v cos(m . theta)."""
        kind, mode = term
        m = mode[var]
        if not m:
            return None
        return (("s", mode), -m) if kind == "c" else (("c", mode), m)

    @staticmethod
    def term_product(a: TrigTerm, b: TrigTerm) -> tuple[tuple[TrigTerm, Rational], ...]:
        """Product to sum: the modes a + b and a - b, each with a factor of +-1/2.

        A constant factor (the zero mode, a cosine) gives the other term whole.
        """
        (ka, ma), (kb, mb) = a, b
        if not any(ma):
            return ((b, 1),)
        if not any(mb):
            return ((a, 1),)
        plus = tuple(map(add, ma, mb))
        minus = tuple(map(sub, ma, mb))
        if ka == kb:
            # cos a cos b, sin a sin b = (cos(a - b) +- cos(a + b)) / 2
            halves = (("c", minus, _HALF), ("c", plus, _HALF if ka == "c" else -_HALF))
        else:
            # sin a cos b, cos a sin b = (sin(a + b) +- sin(a - b)) / 2
            halves = (("s", plus, _HALF), ("s", minus, _HALF if ka == "s" else -_HALF))
        out = []
        for kind, mode, f in halves:
            # the orbit's representative: cos is even, sin is odd, sin 0 = 0
            canonical = canonical_mode(mode)
            if kind == "s":
                if not any(mode):
                    continue
                if canonical != mode:
                    f = -f
            out.append(((kind, canonical), f))
        return tuple(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "trig(0)"
        bits = [f"{c}*{'cos' if k == 'c' else 'sin'}{m}" for (k, m), c in sorted(self.terms.items())]
        return "trig(" + " + ".join(bits) + ")"


Coefficient = Union[PolyCoefficient, TrigCoefficient]


def canonical_mode(freq: Frequency) -> Frequency:
    """Representative of the orbit {k, -k}: first nonzero entry positive."""
    for f in freq:
        if f > 0:
            return freq
        if f < 0:
            return tuple(-x for x in freq)
    return freq


# -- serialization ----------------------------------------------------------


def _frac_to_json(q: Rational) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _frac_from_json(obj) -> Rational:
    # int() would truncate a JSON float numerator: take integer strings and integers only
    num, den = obj["num"], obj["den"]
    if type(num) not in (str, int) or type(den) not in (str, int):
        raise RingMismatchError(f"num/den {num!r}/{den!r} are not integer strings")
    return Fraction(int(num), int(den))


def coefficient_to_json(f: Coefficient) -> dict:
    if isinstance(f, PolyCoefficient):
        terms = [
            {"exp": list(exp), **_frac_to_json(c)} for exp, c in sorted(f.terms.items())
        ]
        return {"ring": "poly", "nvars": f.nvars, "terms": terms}
    # the format stores c(k) per e^{ik.theta}:
    # a cos(m) + b sin(m) = (a - ib)/2 e^{im} + (a + ib)/2 e^{-im}
    re: dict[Frequency, Rational] = {}
    im: dict[Frequency, Rational] = {}
    for (kind, mode), q in f.terms.items():
        if not any(mode):
            re[mode] = q
            continue
        mirror = tuple(-x for x in mode)
        if kind == "c":
            re[mode] = re[mirror] = Fraction(q, 2)
        else:
            im[mode], im[mirror] = Fraction(-q, 2), Fraction(q, 2)
    terms = [
        {
            "freq": list(freq),
            "re": _frac_to_json(re.get(freq, 0)),
            "im": _frac_to_json(im.get(freq, 0)),
        }
        for freq in sorted(re.keys() | im.keys())
    ]
    return {"ring": "trig", "nvars": f.nvars, "terms": terms}


def json_int(value, what: str, error: type[CscxError] = RingMismatchError) -> int:
    """An integer field read from JSON: a float, a string or a bool is refused."""
    if type(value) is not int:
        raise error(f"{what} must be a JSON integer, got {value!r}")
    return value


def _exponent_from_json(exp) -> Exponent:
    # the input boundary: PolyCoefficient trusts its exponents to be polynomial
    if not all(type(e) is int and e >= 0 for e in exp):
        raise RingMismatchError(f"poly exponent {exp!r} is not a list of nonnegative integers")
    return tuple(exp)


def _trig_from_json(count: int, items: list) -> TrigCoefficient:
    """Read c(k) per e^{ik.theta}, check c(-k) == conj(c(k)), return cos/sin terms."""
    modes: dict[Frequency, tuple[Rational, Rational]] = {}
    for t in items:
        freq = t["freq"]
        if not isinstance(freq, list) or len(freq) != count or any(type(k) is not int for k in freq):
            raise RingMismatchError(f"trig frequency {freq!r} is not a list of {count} integers")
        modes[tuple(freq)] = (_frac_from_json(t["re"]), _frac_from_json(t["im"]))
    terms: dict[TrigTerm, Rational] = {}
    for freq, (re, im) in modes.items():
        mirror = tuple(-k for k in freq)
        if modes.get(mirror, (0, 0)) != (re, -im):
            raise RingMismatchError(f"reality constraint violated at frequency {freq}")
        if canonical_mode(freq) != freq:
            continue
        if any(freq):
            terms[("c", freq)] = 2 * re
            terms[("s", freq)] = -2 * im
        else:
            terms[("c", freq)] = re
    return TrigCoefficient(count, terms)


def coefficient_from_json(obj: dict, nvars: int | None = None) -> Coefficient:
    kind = obj.get("ring")
    count = obj.get("nvars", nvars)
    if count is None:
        raise RingMismatchError("serialized coefficient lacks a variable count")
    json_int(count, "nvars")
    if kind == "poly":
        terms = {
            _exponent_from_json(t["exp"]): _frac_from_json(t)
            for t in obj.get("terms", [])
        }
        return PolyCoefficient(count, terms)
    if kind == "trig":
        return _trig_from_json(count, obj.get("terms", []))
    raise RingMismatchError(f"unknown serialized ring {kind!r}")
