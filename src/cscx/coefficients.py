"""Exact scalar rings on charts.

One base and two rings, with exact arithmetic and no floating point
anywhere.  ``_SparseCoefficient`` holds a sparse map ``terms`` from keys to
nonzero rationals and everything that does not depend on what a key means:
the ring check, sum, difference, negation, scaling, equality, hashing and
the zero test.  Zero terms are pruned eagerly, so equality of canonical
forms is exact equality of values.  Each ring adds its own constructor
(which checks its keys), product, derivative and constant part:

* ``PolyCoefficient`` -- multivariate polynomials over the rationals, keyed
  by exponent tuples; it also evaluates, substitutes, pads and restricts.

* ``TrigCoefficient`` -- finite real Fourier sums over ``Z^m``, keyed by
  ``("c", m)`` (cos m.theta) and ``("s", m)`` (sin m.theta), one key per
  mode orbit {m, -m} and function; products follow the product-to-sum
  rules.  The JSON format keeps the complex coefficients c(k) of
  e^{ik.theta}; ``coefficient_from_json`` checks the reality constraint
  ``c(-k) == conj(c(k))`` and converts them.

A rational is a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise.  Almost every structure constant on the
monomial and Fourier bases is a small integer, and ``int`` arithmetic is
many times cheaper than ``Fraction`` arithmetic; the two compare and hash
equal and both expose ``numerator``/``denominator``, so equality,
dictionary keys and serialization do not see the difference.  A
``Fraction`` is built only where a division makes one.  ``canon`` turns an
integral one back into an ``int``; both coefficient constructors (and
``linalg.OperatorMatrix``) apply it to every non-``int`` value they store,
because a sum such as 1/2 + 1/2 is an integral ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import (
    CscxError,
    InternalConsistencyError,
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

    def zero(self) -> "Coefficient":
        if self.kind == "poly":
            return PolyCoefficient(self.nvars, {})
        return TrigCoefficient(self.nvars, {})

    def one(self) -> "Coefficient":
        return self.const(1)

    def const(self, value: Rational) -> "Coefficient":
        if self.kind == "poly":
            return PolyCoefficient(self.nvars, {(0,) * self.nvars: value})
        return TrigCoefficient(self.nvars, {("c", (0,) * self.nvars): value})

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
    """Shared storage and additive arithmetic of both rings.

    ``terms`` is a sparse map from a ring's keys (exponents or cos/sin
    modes) to nonzero rationals; each ring's constructor checks its keys.
    """

    __slots__ = ("nvars", "terms")

    _operands: str  # names the ring in a mismatch message

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
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out[key] - coeff if key in out else -coeff
        return type(self)(self.nvars, out)

    def __neg__(self):
        return type(self)(self.nvars, {k: -c for k, c in self.terms.items()})

    def scale(self, q: Rational):
        # the int 1, mostly a wedge or contraction sign; terms are never written to
        if q == 1 and type(q) is int:
            return self
        if q == 0:
            return type(self)(self.nvars, {})
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


class PolyCoefficient(_SparseCoefficient):
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ()

    kind = "poly"
    _operands = "polynomial"

    def __init__(self, nvars: int, terms: Mapping[Exponent, Rational]):
        self.nvars = nvars
        clean: dict[Exponent, Rational] = {}
        for exp, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exp) != nvars:
                raise InvalidAxisError(
                    f"exponent vector of length {len(exp)} in a {nvars}-variable ring"
                )
            clean[exp] = coeff if type(coeff) is int else canon(coeff)
        self.terms = clean

    def __mul__(self, other: "PolyCoefficient") -> "PolyCoefficient":
        self._check(other)
        out: dict[Exponent, Rational] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return PolyCoefficient(self.nvars, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "poly(0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"v{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{self.terms[exp]}{'*' + mono if mono else ''}")
        return "poly(" + " + ".join(bits) + ")"

    # -- calculus --------------------------------------------------------

    def partial(self, var: int) -> "PolyCoefficient":
        if not 0 <= var < self.nvars:
            raise InvalidAxisError(f"variable index {var} out of range")
        out: dict[Exponent, Rational] = {}
        for exp, coeff in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff * e
        return PolyCoefficient(self.nvars, out)

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

    def substitute(self, images: list["PolyCoefficient"]) -> "PolyCoefficient":
        """Composition: replace variable i by images[i] (all in the target ring)."""
        if len(images) != self.nvars:
            raise InvalidAxisError("substitution needs one image per variable")
        if not images:
            raise InvalidAxisError("substitution into an empty ring")
        target = images[0].nvars
        result = PolyCoefficient(target, {})
        one = PolyCoefficient(target, {(0,) * target: 1})
        for exp, coeff in self.terms.items():
            term = one.scale(coeff)
            for var, power in enumerate(exp):
                for _ in range(power):
                    term = term * images[var]
            result = result + term
        return result

    def pad(self, nvars: int) -> "PolyCoefficient":
        """Embed into a ring with extra trailing variables."""
        if nvars < self.nvars:
            raise InvalidAxisError("pad target has fewer variables")
        extra = (0,) * (nvars - self.nvars)
        return PolyCoefficient(nvars, {exp + extra: c for exp, c in self.terms.items()})

    def restrict(self, nvars: int) -> "PolyCoefficient":
        """Drop trailing variables; every term must be independent of them."""
        if nvars > self.nvars:
            raise InvalidAxisError("restrict target has more variables")
        out: dict[Exponent, Rational] = {}
        for exp, coeff in self.terms.items():
            if any(exp[nvars:]):
                # callers check invariance first; reaching this is a bug
                raise InternalConsistencyError(
                    f"term {exp} depends on a dropped variable"
                )
            out[exp[:nvars]] = coeff
        return PolyCoefficient(nvars, out)

    def constant_part(self) -> Rational:
        return self.terms.get((0,) * self.nvars, 0)

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)


class TrigCoefficient(_SparseCoefficient):
    """Finite real Fourier sum, a sparse map from ``(kind, mode)`` to a rational.

    ``("c", m)`` is cos(m . theta) and ``("s", m)`` is sin(m . theta), where m
    is the ``canonical_mode`` representative of its orbit {m, -m}.  The
    constant function is ``("c", 0...0)``; there is no ``("s", 0...0)``.
    """

    __slots__ = ()

    kind = "trig"
    _operands = "trig"

    def __init__(self, nvars: int, terms: Mapping[TrigTerm, Rational]):
        self.nvars = nvars
        clean: dict[TrigTerm, Rational] = {}
        for term, coeff in terms.items():
            if coeff == 0:
                continue
            if len(term[1]) != nvars:
                raise InvalidAxisError(
                    f"frequency vector of length {len(term[1])} in a {nvars}-variable ring"
                )
            clean[term] = coeff if type(coeff) is int else canon(coeff)
        self.terms = clean

    def __mul__(self, other: "TrigCoefficient") -> "TrigCoefficient":
        """Product to sum: each pair of terms gives the modes a + b and a - b.

        The products are summed undivided and each sum is halved once.
        """
        self._check(other)
        out: dict[TrigTerm, Rational] = {}
        for (ka, ma), ca in self.terms.items():
            for (kb, mb), cb in other.terms.items():
                prod = ca * cb
                plus = tuple(x + y for x, y in zip(ma, mb))
                minus = tuple(x - y for x, y in zip(ma, mb))
                if ka == kb:
                    # cos a cos b, sin a sin b = (cos(a - b) +- cos(a + b)) / 2
                    _accumulate(out, "c", minus, prod)
                    _accumulate(out, "c", plus, prod if ka == "c" else -prod)
                else:
                    # sin a cos b, cos a sin b = (sin(a + b) +- sin(a - b)) / 2
                    _accumulate(out, "s", plus, prod)
                    _accumulate(out, "s", minus, prod if ka == "s" else -prod)
        return TrigCoefficient(self.nvars, {t: Fraction(v, 2) for t, v in out.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "trig(0)"
        bits = [f"{c}*{'cos' if k == 'c' else 'sin'}{m}" for (k, m), c in sorted(self.terms.items())]
        return "trig(" + " + ".join(bits) + ")"

    def partial(self, var: int) -> "TrigCoefficient":
        """d/dv cos(m . theta) = -m_v sin(m . theta), d/dv sin(m . theta) = m_v cos(m . theta)."""
        if not 0 <= var < self.nvars:
            raise InvalidAxisError(f"variable index {var} out of range")
        out: dict[TrigTerm, Rational] = {}
        for (kind, mode), c in self.terms.items():
            m = mode[var]
            if m:
                if kind == "c":
                    out[("s", mode)] = -m * c
                else:
                    out[("c", mode)] = m * c
        return TrigCoefficient(self.nvars, out)

    def constant_part(self) -> Rational:
        return self.terms.get(("c", (0,) * self.nvars), 0)

    def is_constant(self) -> bool:
        return all(not any(mode) for _, mode in self.terms)


Coefficient = Union[PolyCoefficient, TrigCoefficient]


def canonical_mode(freq: Frequency) -> Frequency:
    """Representative of the orbit {k, -k}: first nonzero entry positive."""
    for f in freq:
        if f > 0:
            return freq
        if f < 0:
            return tuple(-x for x in freq)
    return freq


def _real_term(kind: str, mode: Frequency) -> tuple[TrigTerm, int] | None:
    """Canonical ``(term, sign)`` with kind(mode . theta) = sign * term; None for zero.

    cos is even, sin is odd and sin of the zero mode vanishes.
    """
    for f in mode:
        if f > 0:
            return (kind, mode), 1
        if f < 0:
            return (kind, tuple(-x for x in mode)), (1 if kind == "c" else -1)
    return None if kind == "s" else ((kind, mode), 1)


def _accumulate(out: dict[TrigTerm, Rational], kind: str, mode: Frequency, q: Rational) -> None:
    hit = _real_term(kind, mode)
    if hit is not None:
        term, sign = hit
        q = q if sign > 0 else -q
        out[term] = out[term] + q if term in out else q


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
