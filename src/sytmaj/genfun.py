"""Closed-form major-index generating functions and fake-degree polynomials.

`stanley` gives the q-hook-length product of a partition or of a block
shape as one binomial form.  For a block shape it is the major-index
generating function [n; alpha] prod SYT(lambda^i)^maj (Lusztig; Stembridge),
and it feeds the fake degrees of the groups G(m,d,n).  The wreath product
C_m wr S_n is G(m,1,n), and its fake degree is computed by the same code.
The coefficient formulas in the hook multiplicities and the Mahonian counts
are oracles in `verify`.
"""
from __future__ import annotations

from math import factorial

from .deformed import _rotation_sum
from .qpolys import BinomialForm, QPoly
from .shapes import BlockShape, Partition, b_statistic, hook_multiset, rotation_class


def stanley(shape: Partition | BlockShape) -> BinomialForm:
    """q**b [n]_q! / prod [h_c]_q over the cells of a partition, or of every
    block of a block shape with b the sum of the blocks' b(lambda), as a
    binomial form: the (q - 1) powers cancel, leaving the list indexed by d
    of e_d = [d <= n] - #{cells with hook length d}.  For blocks this is
    [n; alpha] times the blocks' products, since each block's
    [d <= alpha_i] cancels the multinomial's -[d <= alpha_i]."""
    if isinstance(shape, Partition) and not shape:
        raise ValueError("shape must be nonempty")
    blocks = shape.blocks if isinstance(shape, BlockShape) else (shape,)
    exps = [0] + [1] * shape.n
    for h in (h for b in blocks for h in hook_multiset(b)):
        exps[h] -= 1
    return BinomialForm(sum(map(b_statistic, blocks)), exps)


def syt_count(p: Partition) -> int:
    """Hook-length formula count, in exact integer arithmetic."""
    if not p:
        return 1
    num = factorial(p.n)
    for h in hook_multiset(p):
        num //= h
    return num


def wreath_fake_degree(blocks: BlockShape, m: int) -> QPoly:
    """Fake degree polynomial for C_m wr S_n = G(m,1,n): q**b(alpha) times
    the block generating function evaluated at q**m."""
    return gmdn_fake_degree(blocks, m, 1)


def gmdn_fake_degree(blocks: BlockShape, m: int, d: int) -> QPoly:
    """Fake degree polynomial for G(m,d,n): the sum over the orbit of the
    block sequence under rotation by multiples of m/d (Stembridge).

    Each distinct rotation, with block sizes beta, contributes q**b(beta)
    [n; alpha] [A(beta)]/[n] times the blocks' hook products at q**m, with
    A(beta) the sum of the first m/d entries of beta (its m/d deletion
    terms, telescoped).  That is stanley(blocks) [A(beta)]/[n], one
    binomial-form expansion per orbit member, made at q and interleaved
    into the sum at stride m.  For n = 0 the orbit has one member and the
    fake degree is 1.
    """
    if blocks.m != m:
        raise ValueError(f"block count {blocks.m} != m={m}")
    orbit = [tuple(b.n for b in mu) for mu in dict.fromkeys(rotation_class(blocks.blocks, d))]
    return _rotation_sum(orbit, m // d, stanley(blocks))
