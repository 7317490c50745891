"""Exact scalar rings on charts.

Two rings are provided, both with exact arithmetic and no floating point
anywhere:

* ``PolyCoefficient`` -- multivariate polynomials over the rationals,
  stored as a sparse map from exponent tuples to ``Fraction``.  The zero
  polynomial is the empty map; zero terms are pruned eagerly so equality
  of canonical forms is exact equality of values.

* ``TrigCoefficient`` -- finite Fourier sums over ``Z^m`` with
  Gaussian-rational coefficients, stored as a sparse map from frequency
  tuples to ``GaussianRational``.  Real-valued functions on the torus are
  encoded with complex exponentials subject to the reality constraint
  ``c(-k) == conj(c(k))``; products and derivatives are then monomial-like.

``Rational`` is the standard-library ``fractions.Fraction``: it is already
always reduced, keeps a positive denominator and has a canonical zero, so
its invariants match what the rank computations downstream require.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import (
    InternalConsistencyError,
    InvalidAxisError,
    RingMismatchError,
    UnsupportedRingOperationError,
)

Rational = Fraction

Exponent = tuple[int, ...]
Frequency = tuple[int, ...]


@dataclass(frozen=True)
class GaussianRational:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def scale(self, q: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * q, self.im * q)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def times_i(self, k: int) -> "GaussianRational":
        """Multiply by i*k (used by the derivative of a Fourier mode)."""
        return GaussianRational(-k * self.im, k * self.re)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


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
        return self.const(Fraction(1))

    def const(self, value: Fraction | int) -> "Coefficient":
        q = Fraction(value)
        if self.kind == "poly":
            if q == 0:
                return PolyCoefficient(self.nvars, {})
            return PolyCoefficient(self.nvars, {(0,) * self.nvars: q})
        if q == 0:
            return TrigCoefficient(self.nvars, {})
        return TrigCoefficient(self.nvars, {(0,) * self.nvars: GaussianRational(q)})

    def var(self, index: int) -> "PolyCoefficient":
        if self.kind != "poly":
            raise UnsupportedRingOperationError("coordinate monomials exist only in the poly ring")
        if not 0 <= index < self.nvars:
            raise InvalidAxisError(f"variable index {index} out of range for {self.nvars} variables")
        exp = [0] * self.nvars
        exp[index] = 1
        return PolyCoefficient(self.nvars, {tuple(exp): Fraction(1)})


def poly_ring(nvars: int) -> Ring:
    return Ring("poly", nvars)


def trig_ring(nvars: int) -> Ring:
    return Ring("trig", nvars)


class PolyCoefficient:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("nvars", "terms")

    kind = "poly"

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction]):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exp) != nvars:
                raise InvalidAxisError(
                    f"exponent vector of length {len(exp)} in a {nvars}-variable ring"
                )
            clean[exp] = Fraction(coeff)
        self.terms = clean

    # -- ring structure -------------------------------------------------

    def _check(self, other: "PolyCoefficient") -> None:
        if not isinstance(other, PolyCoefficient) or other.nvars != self.nvars:
            raise RingMismatchError("polynomial operands from different rings")

    def __add__(self, other: "PolyCoefficient") -> "PolyCoefficient":
        self._check(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coeff
        return PolyCoefficient(self.nvars, out)

    def __sub__(self, other: "PolyCoefficient") -> "PolyCoefficient":
        self._check(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) - coeff
        return PolyCoefficient(self.nvars, out)

    def __neg__(self) -> "PolyCoefficient":
        return PolyCoefficient(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "PolyCoefficient") -> "PolyCoefficient":
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return PolyCoefficient(self.nvars, out)

    def scale(self, q: Fraction | int) -> "PolyCoefficient":
        q = Fraction(q)
        if q == 0:
            return PolyCoefficient(self.nvars, {})
        return PolyCoefficient(self.nvars, {e: c * q for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyCoefficient)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

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
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff * e
        return PolyCoefficient(self.nvars, out)

    def evaluate(self, point: Iterable[Fraction]) -> Fraction:
        pt = [Fraction(p) for p in point]
        if len(pt) != self.nvars:
            raise InvalidAxisError("point length does not match the variable count")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            value = coeff
            for base, power in zip(pt, exp):
                if power:
                    value *= base**power
            total += value
        return total

    def substitute(self, images: list["PolyCoefficient"]) -> "PolyCoefficient":
        """Composition: replace variable i by images[i] (all in the target ring)."""
        if len(images) != self.nvars:
            raise InvalidAxisError("substitution needs one image per variable")
        if not images:
            raise InvalidAxisError("substitution into an empty ring")
        target = images[0].nvars
        result = PolyCoefficient(target, {})
        one = PolyCoefficient(target, {(0,) * target: Fraction(1)})
        for exp, coeff in self.terms.items():
            term = one.scale(coeff)
            for var, power in enumerate(exp):
                for _ in range(power):
                    term = term * images[var]
            result = result + term
        return result

    def weight_split(self, var_weights: tuple[int, ...]) -> dict[int, "PolyCoefficient"]:
        """Split into weight-homogeneous parts for the given variable weights."""
        buckets: dict[int, dict[Exponent, Fraction]] = {}
        for exp, coeff in self.terms.items():
            w = sum(e * wt for e, wt in zip(exp, var_weights))
            buckets.setdefault(w, {})[exp] = coeff
        return {w: PolyCoefficient(self.nvars, t) for w, t in buckets.items()}

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
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if any(exp[nvars:]):
                # callers check invariance first; reaching this is a bug
                raise InternalConsistencyError(
                    f"term {exp} depends on a dropped variable"
                )
            out[exp[:nvars]] = coeff
        return PolyCoefficient(nvars, out)

    def constant_part(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)


class TrigCoefficient:
    """Finite Fourier sum with Gaussian-rational mode coefficients.

    The reality constraint c(-k) == conj(c(k)) is enforced at construction
    by default; internal single-mode scratch values can opt out via
    ``require_real=False`` (they never escape the public API).
    """

    __slots__ = ("nvars", "terms")

    kind = "trig"

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Frequency, GaussianRational],
        require_real: bool = True,
    ):
        self.nvars = nvars
        clean: dict[Frequency, GaussianRational] = {}
        for freq, coeff in terms.items():
            if coeff.is_zero():
                continue
            if len(freq) != nvars:
                raise InvalidAxisError(
                    f"frequency vector of length {len(freq)} in a {nvars}-variable ring"
                )
            clean[freq] = coeff
        self.terms = clean
        if require_real:
            for freq, coeff in clean.items():
                mirror = tuple(-f for f in freq)
                if clean.get(mirror, GR_ZERO) != coeff.conj():
                    raise RingMismatchError(
                        f"reality constraint violated at frequency {freq}"
                    )

    def _check(self, other: "TrigCoefficient") -> None:
        if not isinstance(other, TrigCoefficient) or other.nvars != self.nvars:
            raise RingMismatchError("trig operands from different rings")

    def __add__(self, other: "TrigCoefficient") -> "TrigCoefficient":
        self._check(other)
        out = dict(self.terms)
        for freq, coeff in other.terms.items():
            out[freq] = out.get(freq, GR_ZERO) + coeff
        return TrigCoefficient(self.nvars, out, require_real=False)

    def __sub__(self, other: "TrigCoefficient") -> "TrigCoefficient":
        self._check(other)
        out = dict(self.terms)
        for freq, coeff in other.terms.items():
            out[freq] = out.get(freq, GR_ZERO) - coeff
        return TrigCoefficient(self.nvars, out, require_real=False)

    def __neg__(self) -> "TrigCoefficient":
        return TrigCoefficient(
            self.nvars, {f: -c for f, c in self.terms.items()}, require_real=False
        )

    def __mul__(self, other: "TrigCoefficient") -> "TrigCoefficient":
        self._check(other)
        out: dict[Frequency, GaussianRational] = {}
        for fa, ca in self.terms.items():
            for fb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(fa, fb))
                out[key] = out.get(key, GR_ZERO) + ca * cb
        return TrigCoefficient(self.nvars, out, require_real=False)

    def scale(self, q: Fraction | int) -> "TrigCoefficient":
        q = Fraction(q)
        return TrigCoefficient(
            self.nvars, {f: c.scale(q) for f, c in self.terms.items()}, require_real=False
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TrigCoefficient)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "trig(0)"
        bits = [f"({c.re}+{c.im}i)e^{{i{f}}}" for f, c in sorted(self.terms.items())]
        return "trig(" + " + ".join(bits) + ")"

    def is_real(self) -> bool:
        return all(
            self.terms.get(tuple(-x for x in f), GR_ZERO) == c.conj()
            for f, c in self.terms.items()
        )

    def partial(self, var: int) -> "TrigCoefficient":
        if not 0 <= var < self.nvars:
            raise InvalidAxisError(f"variable index {var} out of range")
        out = {f: c.times_i(f[var]) for f, c in self.terms.items() if f[var] != 0}
        return TrigCoefficient(self.nvars, out, require_real=False)

    def evaluate(self, point):
        raise UnsupportedRingOperationError("Fourier sums have no exact point evaluation")

    def mode_split(self) -> dict[Frequency, "TrigCoefficient"]:
        """Split by orbit {k, -k}; keys are canonical representatives."""
        buckets: dict[Frequency, dict[Frequency, GaussianRational]] = {}
        for freq, coeff in self.terms.items():
            buckets.setdefault(canonical_mode(freq), {})[freq] = coeff
        return {
            m: TrigCoefficient(self.nvars, t, require_real=False)
            for m, t in buckets.items()
        }

    def constant_part(self) -> Fraction:
        c = self.terms.get((0,) * self.nvars, GR_ZERO)
        return c.re

    def is_constant(self) -> bool:
        return all(not any(freq) for freq in self.terms)


Coefficient = Union[PolyCoefficient, TrigCoefficient]


def canonical_mode(freq: Frequency) -> Frequency:
    """Representative of the orbit {k, -k}: first nonzero entry positive."""
    for f in freq:
        if f > 0:
            return freq
        if f < 0:
            return tuple(-x for x in freq)
    return freq


def trig_cos(ring: Ring, freq: Frequency) -> TrigCoefficient:
    """cos(k . theta) as a real Fourier sum."""
    if ring.kind != "trig":
        raise RingMismatchError("cos lives in the trig ring")
    if not any(freq):
        return TrigCoefficient(ring.nvars, {freq: GR_ONE})
    half = GaussianRational(Fraction(1, 2))
    mirror = tuple(-f for f in freq)
    return TrigCoefficient(ring.nvars, {freq: half, mirror: half})


def trig_sin(ring: Ring, freq: Frequency) -> TrigCoefficient:
    """sin(k . theta) as a real Fourier sum."""
    if ring.kind != "trig":
        raise RingMismatchError("sin lives in the trig ring")
    if not any(freq):
        return TrigCoefficient(ring.nvars, {})
    up = GaussianRational(Fraction(0), Fraction(-1, 2))
    down = GaussianRational(Fraction(0), Fraction(1, 2))
    mirror = tuple(-f for f in freq)
    return TrigCoefficient(ring.nvars, {freq: up, mirror: down})


def trig_mode(ring: Ring, freq: Frequency, coeff: GaussianRational = GR_ONE) -> TrigCoefficient:
    """Single complex exponential; internal scratch value (not real)."""
    return TrigCoefficient(ring.nvars, {freq: coeff}, require_real=False)


# -- named operations ------------------------------------------------------


def ring_multiply(a: Coefficient, b: Coefficient) -> Coefficient:
    """Exact product of two coefficients from the same ring."""
    if type(a) is not type(b):
        raise RingMismatchError("cannot multiply across rings")
    return a * b


def partial_derivative(f: Coefficient, var: int) -> Coefficient:
    """Exact formal partial derivative along the given ring variable."""
    return f.partial(var)


def evaluate(f: Coefficient, point: Iterable[Fraction]) -> Fraction:
    """Exact point evaluation (poly ring only)."""
    return f.evaluate(point)


# -- serialization ----------------------------------------------------------


def _frac_to_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _frac_from_json(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def coefficient_to_json(f: Coefficient) -> dict:
    if isinstance(f, PolyCoefficient):
        terms = [
            {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            for exp, c in sorted(f.terms.items())
        ]
        return {"ring": "poly", "nvars": f.nvars, "terms": terms}
    terms = [
        {"freq": list(freq), "re": _frac_to_json(c.re), "im": _frac_to_json(c.im)}
        for freq, c in sorted(f.terms.items())
    ]
    return {"ring": "trig", "nvars": f.nvars, "terms": terms}


def _exponent_from_json(exp) -> Exponent:
    # the input boundary: PolyCoefficient trusts its exponents to be polynomial
    if not all(type(e) is int and e >= 0 for e in exp):
        raise RingMismatchError(f"poly exponent {exp!r} is not a list of nonnegative integers")
    return tuple(exp)


def coefficient_from_json(obj: dict, nvars: int | None = None) -> Coefficient:
    kind = obj.get("ring")
    count = obj.get("nvars", nvars)
    if count is None:
        raise RingMismatchError("serialized coefficient lacks a variable count")
    if kind == "poly":
        terms = {
            _exponent_from_json(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in obj.get("terms", [])
        }
        return PolyCoefficient(count, terms)
    if kind == "trig":
        terms = {
            tuple(t["freq"]): GaussianRational(_frac_from_json(t["re"]), _frac_from_json(t["im"]))
            for t in obj.get("terms", [])
        }
        return TrigCoefficient(count, terms)
    raise RingMismatchError(f"unknown serialized ring {kind!r}")
