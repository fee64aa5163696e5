"""Exact polynomial arithmetic in q with arbitrary-precision integers.

QPoly is a dense coefficient vector plus a degree offset.  Every closed form
in the package is a BinomialForm q**s * prod_d (q**d - 1)**e_d, with e_d in a
list indexed by d whose entry 0 is 0: a product adds lists.  A form at q**m is
expanded at q, and its coefficients are placed at stride m by the caller.  A
q-hook-length product has e_d = [d <= n] - #{cells with hook length d}, and
expand is the one kernel for such lists.  The forms are palindromic, so it
computes the lower half as a truncated power series and mirrors it.
"""
from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from math import prod
from typing import Iterable, NamedTuple


class NonzeroRemainder(ArithmeticError):
    """A division claimed exact left a remainder."""


def _normalize(offset: int, coeffs: list[int]) -> tuple[int, tuple[int, ...]]:
    lo = 0
    while lo < len(coeffs) and coeffs[lo] == 0:
        lo += 1
    hi = len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return 0, ()
    return offset + lo, tuple(coeffs[lo:hi])


@dataclass(frozen=True)
class QPoly:
    """Polynomial sum(coeffs[i] * q**(offset+i)); zero has empty coeffs."""

    offset: int = 0
    coeffs: tuple[int, ...] = ()

    def __init__(self, offset: int = 0, coeffs: Iterable[int] = ()):
        offset, coeffs = _normalize(operator.index(offset), list(map(operator.index, coeffs)))
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, offset: int, coeffs: tuple[int, ...]) -> "QPoly":
        """Wrap a tuple of ints whose end coefficients are nonzero, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(0, ())

    @staticmethod
    def one() -> "QPoly":
        return QPoly(0, (1,))

    @staticmethod
    def monomial(k: int, coeff: int = 1) -> "QPoly":
        return QPoly(k, (coeff,))

    @staticmethod
    def from_terms(terms: dict) -> "QPoly":
        """Build from a degree -> coefficient mapping."""
        if not terms:
            return QPoly.zero()
        lo, hi = min(terms), max(terms)
        out = [0] * (hi - lo + 1)
        for k, c in terms.items():
            out[k - lo] = c
        return QPoly(lo, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else -1

    def coefficient(self, k: int) -> int:
        i = k - self.offset
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def support(self) -> tuple[int, ...]:
        return tuple(self.offset + i for i, c in enumerate(self.coeffs) if c)

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.offset if self.coeffs else 0

    def eval_at_1(self) -> int:
        return sum(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        off = min(self.offset, other.offset)
        hi = max(self.degree, other.degree)
        out = [0] * (hi - off + 1)
        for i, c in enumerate(self.coeffs):
            out[self.offset - off + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - off + i] += c
        return QPoly(off, out)

    def __neg__(self) -> "QPoly":
        return QPoly(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            return QPoly(self.offset, tuple(other * c for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly.zero()
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a):
                    out[i + j] += ca * cb
        return QPoly(self.offset + other.offset, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero():
            return self
        return QPoly(self.offset + k, self.coeffs)

    def __str__(self) -> str:
        """The terms in ascending degree, e.g. "q^2 + 2*q^3"; "0" for zero."""
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                k = self.offset + i
                base = "1" if k == 0 else ("q" if k == 1 else f"q^{k}")
                terms.append(base if c == 1 and k else (str(c) if k == 0 else f"{c}*{base}"))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"QPoly({self})"

    def to_json(self) -> dict:
        return {"offset": self.offset, "coeffs": [str(c) for c in self.coeffs]}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(obj: dict) -> "QPoly":
        # to_json writes decimal strings; any other entry must be an integer
        return QPoly(obj["offset"], (int(c) if isinstance(c, str) else c for c in obj["coeffs"]))


def substitute_power(p: QPoly, m: int) -> QPoly:
    """Substitute q -> q**m (m >= 1)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1 or p.is_zero():
        return p
    out = [0] * ((len(p.coeffs) - 1) * m + 1)
    for i, c in enumerate(p.coeffs):
        out[i * m] = c
    return QPoly(p.offset * m, out)


def divide_exact_int(p: QPoly, k: int) -> QPoly:
    """Divide every coefficient by the integer k exactly."""
    if k == 0:
        raise ZeroDivisionError
    if any(c % k for c in p.coeffs):
        raise NonzeroRemainder(f"coefficients not all divisible by {k}")
    return QPoly(p.offset, tuple(c // k for c in p.coeffs))


# ---------------------------------------------------------------------------
# binomial forms


class BinomialForm(NamedTuple):
    """q**shift * prod_d (q**d - 1)**e_d, exponents[d] = e_d (any sign; e_0 = 0)."""

    shift: int
    exponents: list[int]


def expand(form: BinomialForm) -> QPoly:
    """Expand q**shift * prod_d (q**d - 1)**e_d, e_d in a list indexed by d.

    With E = sum e_d and L = sum d*e_d the product is (-1)**E times
    P(q) = prod (1 - q**d)**e_d, and q**L P(1/q) = (-1)**E P(q).  So only
    the coefficients of degree < ceil((L+1)/2) are computed, as a power
    series truncated there, and the rest is mirrored.  Factors with d at
    or beyond the truncation are 1 in the series and are skipped.  The
    multiply passes run first, smallest d first, while the nonzero prefix
    is still short; then the divide passes (prefix sums per residue class
    mod d), largest d first, while the coefficients are still small.

    The truncation cannot see a remainder, so the result is checked at
    q = 1 against prod d**e_d (E = 0) or 0 (E > 0); NonzeroRemainder when
    the list is not a polynomial.  ValueError when e_0 is not 0.
    """
    shift, exponents = form
    if not exponents or exponents[0]:
        raise ValueError(f"binomial-form exponent e_0 must be 0: {exponents}")
    exps = [(d, e) for d, e in enumerate(exponents) if e]
    total = sum(e for _, e in exps)
    length = sum(d * e for d, e in exps)
    if total < 0 or length < 0:
        raise NonzeroRemainder(f"{exponents} is not a polynomial")
    half = length // 2 + 1
    c = [1] + [0] * (half - 1)
    hi = 1  # c[hi:] is still zero during the multiply passes
    for d, e in exps:
        if e > 0 and d < half:
            for _ in range(e):
                hi = min(half, hi + d)
                c[d:hi] = [a - b for a, b in zip(c[d:hi], c)]
    for d, e in reversed(exps):
        if e < 0 and d < half:
            for _ in range(-e):
                for r in range(d):
                    c[r::d] = itertools.accumulate(c[r::d])
    # (-1)**E P(q): the lower half takes the sign, the mirrored half P's own
    low = [-x for x in c] if total % 2 else c
    coeffs = tuple(low + c[: length + 1 - half][::-1])
    value = sum(coeffs)
    if total:
        ok = value == 0
    else:
        ok = value * prod(d**-e for d, e in exps if e < 0) == prod(d**e for d, e in exps if e > 0)
    if not ok:
        raise NonzeroRemainder(f"{exponents} is not a polynomial")
    # both ends are +-1, so the tuple is already normal
    return QPoly._trusted(shift, coeffs)


# ---------------------------------------------------------------------------
# q-analogues


def q_int(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    return QPoly(0, (1,) * n)


def multinomial_exponents(n: int, alpha: Iterable[int]) -> list[int]:
    """The exponents e_d of [n]_q! / prod [a]_q!, as a list indexed by d, for
    nonnegative alpha summing to n.  [k]_q! = prod_{j<=k} (q**j - 1) /
    (q - 1)**k, and the (q - 1) powers cancel."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"composition entries must be nonnegative: {alpha}")
    exps = [0] + [1] * n
    for j in (j for a in alpha for j in range(1, a + 1)):
        exps[j] -= 1
    return exps


def q_factorial(n: int) -> QPoly:
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    return q_multinomial(n, (1,) * n)


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial; zero when k is out of range."""
    return q_multinomial(n, (k, n - k))


def q_multinomial(n: int, alpha) -> QPoly:
    """[n]_q! / prod [alpha_i]_q!, with the zero convention for negative
    entries; alpha must sum to n otherwise."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        return QPoly.zero()
    if sum(alpha) != n:
        raise ValueError(f"{alpha} does not sum to {n}")
    return expand(BinomialForm(0, multinomial_exponents(n, alpha)))


# ---------------------------------------------------------------------------
# coefficient-shape predicates


class ShapeFacts(NamedTuple):
    symmetric: bool
    unimodal: bool
    internal_zeros: tuple[int, ...]
    parity_unimodal: bool


def _is_unimodal(seq) -> bool:
    seq = list(seq)
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i + 1 >= len(seq)


def shape_predicates(p: QPoly) -> ShapeFacts:
    """Symmetry, unimodality, internal zero degrees, parity-unimodality."""
    c = p.coeffs
    symmetric = c == tuple(reversed(c))
    unimodal = _is_unimodal(c)
    internal = tuple(p.offset + i for i, x in enumerate(c) if x == 0)
    evens = [x for i, x in enumerate(c) if (p.offset + i) % 2 == 0]
    odds = [x for i, x in enumerate(c) if (p.offset + i) % 2 == 1]
    parity = _is_unimodal(evens) and _is_unimodal(odds)
    return ShapeFacts(symmetric, unimodal, internal, parity)
