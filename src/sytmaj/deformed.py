"""Deformed Gaussian multinomials and partial sum multinomials.

Both are sums of deletion terms q**(alpha_1+...+alpha_{v-1}) [n-1; alpha - e_v]
over the deletion positions v <= k.  Since [n-1; alpha - e_v] is
[n; alpha] [alpha_v]/[n] and those prefix powers times [alpha_v] telescope
to [alpha_1+...+alpha_k], the sum is the one binomial form
[n; alpha] [alpha_1+...+alpha_k]/[n].  The deformed multinomial adds, over
the d rotations beta of alpha, q**b(beta) times that form of beta with
k = m/d, at q**m: one kernel call per rotation, which expands the form at q
and interleaves its coefficients at stride m.  The rational definition and
the deletion-term sum are oracles in `verify`.

Compositions are 1-based: b(alpha) = sum (i-1) alpha_i.
"""
from __future__ import annotations

from operator import add

from .qpolys import BinomialForm, QPoly, expand, multinomial_exponents
from .shapes import DNotDividingM, b_composition


def rotate_right(alpha: tuple[int, ...], steps: int = 1) -> tuple[int, ...]:
    """(alpha_m, alpha_1, ..., alpha_{m-1}) iterated `steps` times."""
    m = len(alpha)
    s = steps % m if m else 0
    return alpha[-s:] + alpha[:-s] if s else alpha


def rotation_class(alpha: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The d rotations of alpha by multiples of m/d (with repetition)."""
    m = len(alpha)
    if d <= 0 or m % d:
        raise DNotDividingM(f"d={d} does not divide m={m}")
    step = m // d
    return [rotate_right(alpha, j * step) for j in range(d)]


def partial_sum_multinomial(alpha, k: int) -> QPoly:
    """Inversion generating function of words of content alpha whose first
    letter is at most k: [n; alpha] [alpha_1+...+alpha_k]/[n]."""
    alpha = tuple(alpha)
    m = len(alpha)
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range 1..{m}")
    if not any(alpha):
        # the empty word has no first letter; the product formula reads 1 at k = m
        return QPoly.one() if k == m else QPoly.zero()
    a = sum(alpha[:k])
    if not a:
        return QPoly.zero()
    n = sum(alpha)
    exps = multinomial_exponents(n, alpha)
    exps[a] += 1
    exps[n] -= 1
    return expand(BinomialForm(0, exps))


def _rotation_sum(alpha: tuple[int, ...], d: int, form: BinomialForm) -> QPoly:
    """Sum over the d rotations beta of alpha of q**(b(beta) + m*s) times
    the exponents E of `form` = (s, E) times [A(beta)]/[n], all at q**m,
    where A(beta) is the sum of the first m/d entries of beta; 1 when n = 0.

    E, a list indexed by d, holds [n; alpha] (times the hook products of a
    block shape), and [n; beta] = [n; alpha], so each rotation adds
    [A(beta)]/[n] to a copy of the one shared list.  Each form is expanded
    at q, and its coefficients are added into the sum at stride m.
    """
    m = len(alpha)
    rotations = rotation_class(alpha, d)
    if not any(alpha):
        return QPoly.one()
    n = sum(alpha)
    shift, common = form
    terms = []
    for beta in rotations:
        a = sum(beta[: m // d])
        if a:
            exps = list(common)
            exps[a] += 1
            exps[n] -= 1
            terms.append((b_composition(beta) + m * shift, expand(BinomialForm(0, exps)).coeffs))
    lo = min(lift for lift, _ in terms)
    out = [0] * (max(lift + m * (len(c) - 1) for lift, c in terms) + 1 - lo)
    for lift, c in terms:
        i = lift - lo
        out[i : i + m * len(c) : m] = map(add, out[i : i + m * len(c) : m], c)
    # each term is a ratio of q-integer products: its end coefficients are 1
    return QPoly._trusted(lo, tuple(out))


def deformed_multinomial(alpha, d: int) -> QPoly:
    """The rotation sum over [d] in q**(nm/d), as the sum over the d
    rotations beta of q**b(beta) [n; alpha] [A(beta)]/[n] at q**m."""
    alpha = tuple(alpha)
    return _rotation_sum(alpha, d, BinomialForm(0, multinomial_exponents(sum(alpha), alpha)))
