"""Deformed Gaussian multinomials and partial sum multinomials.

Both are sums of deletion terms q**(alpha_1+...+alpha_{v-1}) [n-1; alpha - e_v]
over the deletion positions v <= k.  Since [n-1; alpha - e_v] is
[n; alpha] [alpha_v]/[n] and those prefix powers times [alpha_v] telescope
to [alpha_1+...+alpha_k], the sum is the one binomial form
[n; alpha] [alpha_1+...+alpha_k]/[n].  The deformed multinomial adds, over
the d rotations beta of alpha (with repetition), q**b(beta) times that form
of beta with k = m/d, at q**m: one kernel call per rotation, which expands
the form at q and interleaves its coefficients at stride m.  The G(m,d,n)
fake degree in `genfun` runs the same sum over the distinct rotations of a
block sequence.  The rotations themselves live in `shapes`.  The rational
definition and the deletion-term sum are oracles in `verify`.

Compositions are 1-based: b(alpha) = sum (i-1) alpha_i.
"""
from __future__ import annotations

from operator import add

from .qpolys import BinomialForm, QPoly, expand, multinomial_exponents
from .shapes import b_composition, rotation_class


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
    n, a = sum(alpha), sum(alpha[:k])
    exps = multinomial_exponents(n, alpha)  # rejects a negative entry
    if not a:
        return QPoly.zero()
    exps[a] += 1
    exps[n] -= 1
    return expand(BinomialForm(0, exps))


def _rotation_sum(rotations: list[tuple[int, ...]], k: int, form: BinomialForm) -> QPoly:
    """Sum over the compositions beta in `rotations`, each of length m, of
    q**(b(beta) + m*s) times the exponents E of `form` = (s, E) times
    [A(beta)]/[n], all at q**m, where A(beta) is the sum of the first k
    entries of beta; 1 when n = 0.

    E, a list indexed by d, holds [n; alpha] (times the hook products of a
    block shape), and [n; beta] = [n; alpha] for every rotation beta of
    alpha, so each rotation adds [A(beta)]/[n] to a copy of the one shared
    list.  Each form is expanded at q, and its coefficients are added into
    the sum at stride m.
    """
    m, n = len(rotations[0]), sum(rotations[0])
    if not n:
        return QPoly.one()
    shift, common = form
    terms = []
    for beta in rotations:
        a = sum(beta[:k])
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
    return _rotation_sum(rotation_class(alpha, d), len(alpha) // d,
                         BinomialForm(0, multinomial_exponents(sum(alpha), alpha)))
