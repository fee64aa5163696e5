"""Closed-form major-index generating functions and fake-degree polynomials.

Covers the q-hook-length product for a single shape, the multinomial product
for block shapes, coefficient formulas in the hook-multiplicity parameters,
Mahonian counts, and the fake degrees for the groups G(m,d,n).  The wreath
product C_m wr S_n is G(m,1,n), and its fake degree is computed by the same
code.
"""
from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, factorial

from .deformed import _rotation_sum, rotation_class
from .qpolys import (
    BinomialForm,
    QPoly,
    divide_exact_int,
    expand,
    multinomial_exponents,
)
from .shapes import (
    BlockShape,
    Partition,
    b_statistic,
    hook_lengths,
    hook_multiset,
    partitions,
)


def stanley(p: Partition) -> BinomialForm:
    """q**b(lambda) [n]_q! / prod [h_c]_q as a binomial form: the (q - 1)
    powers cancel, leaving e_d = [d <= n] - #{cells with hook length d}."""
    if not p:
        raise ValueError("shape must be nonempty")
    exps = Counter(range(1, p.n + 1))
    exps.subtract(hook_multiset(p))
    return BinomialForm(b_statistic(p), exps)


def syt_count(p: Partition) -> int:
    """Hook-length formula count, in exact integer arithmetic."""
    if not p:
        return 1
    num = factorial(p.n)
    for h in hook_multiset(p):
        num //= h
    return num


def _hook_form(blocks: BlockShape) -> BinomialForm:
    """The product of the nonempty blocks' stanley forms."""
    shift, exps = 0, Counter()
    for b in blocks.blocks:
        if b:
            form = stanley(b)
            shift += form.shift
            exps.update(form.exponents)
    return BinomialForm(shift, exps)


def block_maj_gf(blocks: BlockShape) -> QPoly:
    """Major-index generating function of a block diagonal shape: the
    q-multinomial times the product of the single-shape polynomials."""
    shift, exps = _hook_form(blocks)
    exps.update(multinomial_exponents(blocks.n, blocks.alpha()))
    return expand(BinomialForm(shift, exps))


def generalized_binomial(a: int, k: int) -> int:
    """a(a-1)...(a-k+1)/k! for any integer a (may be negative)."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= a - i
    return num // factorial(k)


@cache
def _mu_profiles(d: int, max_part: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Part-multiplicity profiles of the partitions of d with bounded parts."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(rest: int, cap: int, acc: tuple[tuple[int, int], ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            for mult in range(rest // part, 0, -1):
                rec(rest - mult * part, part - 1, acc + ((part, mult),))

    rec(d, max_part, ())
    return tuple(out)


def coefficient_via_H(p: Partition, d: int) -> int:
    """Coefficient of q**(b(lambda)+d) as a polynomial in the H_i."""
    if d < 0:
        return 0
    n = p.n
    H = [0] * (n + 1)
    for h in hook_lengths(p).values():
        H[h] += 1
    total = 0
    for prof in _mu_profiles(d, n):
        term = 1
        for part, mult in prof:
            term *= generalized_binomial(H[part] + mult - 2, mult)
            if term == 0:
                break
        total += term
    return total


def _distinct_large_parts(mu: Partition) -> bool:
    large = [p for p in mu.parts if p > 1]
    return len(large) == len(set(large))


def mahonian_count(n: int, d: int) -> int:
    """Number of permutations of n with d inversions, via the signed sum
    over partitions of d with bounded first part and distinct parts > 1."""
    if d < 0 or d > comb(n, 2):
        return 0
    total = 0
    for mu in partitions(d, max_part=n):
        if not _distinct_large_parts(mu):
            continue
        m1 = sum(1 for p in mu.parts if p == 1)
        nlarge = len(mu.parts) - m1
        total += (-1) ** nlarge * generalized_binomial(n + m1 - 2, m1)
    return total


def wreath_fake_degree(blocks: BlockShape, m: int) -> QPoly:
    """Fake degree polynomial for C_m wr S_n = G(m,1,n): q**b(alpha) times
    the block generating function evaluated at q**m."""
    return gmdn_fake_degree(blocks, m, 1)


def gmdn_fake_degree(blocks: BlockShape, m: int, d: int) -> QPoly:
    """Fake degree polynomial for G(m,d,n): the deformed multinomial times
    the blocks' hook products at q**m, divided by d/|orbit|.

    Each rotation beta of alpha contributes q**b(beta) [n; alpha]
    [A(beta)]/[n] at q**m, with A(beta) the sum of the first m/d entries of
    beta (its m/d deletion terms, telescoped); times the hook products that
    is one binomial-form expansion per rotation, made at q and interleaved
    into the sum at stride m.
    """
    if blocks.m != m:
        raise ValueError(f"block count {blocks.m} != m={m}")
    poly = _rotation_sum(blocks.alpha(), d, *_hook_form(blocks))
    if not blocks.n:
        return poly  # G(m,d,0) is trivial: one irreducible, fake degree 1
    orbit = len(set(rotation_class(blocks.blocks, d)))
    if d % orbit:
        raise AssertionError("orbit size must divide d")
    t = d // orbit
    return divide_exact_int(poly, t) if t > 1 else poly
