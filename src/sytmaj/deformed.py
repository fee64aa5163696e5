"""Deformed Gaussian multinomials and partial sum multinomials.

The deformed multinomial is defined as a rational expression (rotation-sum
numerator over [d] in a power of q); the summation formula evaluated here is
division-free and doubles as a constructive polynomiality proof, so the
rational path stays available as an independent cross-check.

Compositions are 1-based: b(alpha) = sum (i-1) alpha_i.
"""
from __future__ import annotations

from .qpolys import QPoly, divide_exact, q_binomial, q_multinomial, substitute_power
from .shapes import b_composition
from .tableaux import DNotDividingM


def rotate_right(alpha: tuple[int, ...], steps: int = 1) -> tuple[int, ...]:
    """(alpha_m, alpha_1, ..., alpha_{m-1}) iterated `steps` times."""
    m = len(alpha)
    s = steps % m
    return alpha[-s:] + alpha[:-s] if s else alpha


def rotation_class(alpha: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The d rotations of alpha by multiples of m/d (with repetition)."""
    m = len(alpha)
    if d <= 0 or m % d:
        raise DNotDividingM(f"d={d} does not divide m={m}")
    step = m // d
    return [rotate_right(alpha, j * step) for j in range(d)]


def _dec(alpha: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Decrease entry i (1-based); may go negative, triggering the zero
    convention in the multinomial."""
    return alpha[: i - 1] + (alpha[i - 1] - 1,) + alpha[i:]


def partial_sum_multinomial(alpha, k: int) -> QPoly:
    """Inversion generating function of words of content alpha whose first
    letter is at most k, computed by the q-binomial product formula."""
    alpha = tuple(alpha)
    m = len(alpha)
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range 1..{m}")
    out = QPoly.one()
    acc = 0
    for i, a in enumerate(alpha, 1):
        acc += a
        out = out * (q_binomial(acc, a) if i <= k else q_binomial(acc - 1, a))
        if out.is_zero():
            return out
    return out


def partial_sum_multinomial_by_sum(alpha, k: int) -> QPoly:
    """The defining sum over the first k deletion positions."""
    alpha = tuple(alpha)
    n = sum(alpha)
    out = QPoly.zero()
    prefix = 0
    for i in range(1, k + 1):
        out = out + q_multinomial(n - 1, _dec(alpha, i)).shift(prefix)
        prefix += alpha[i - 1]
    return out


def q_mult_recurrence_check(alpha) -> bool:
    """Deletion recurrence for the q-multinomial: summing the first-letter
    contributions over all positions recovers the full multinomial."""
    alpha = tuple(alpha)
    n = sum(alpha)
    return q_multinomial(n, alpha) == partial_sum_multinomial_by_sum(alpha, len(alpha))


def deformed_multinomial(alpha, d: int) -> QPoly:
    """Division-free summation formula: over the d rotations sigma, add
    q**b(sigma.alpha) times the first m/d deletion terms of the recurrence
    for the multinomial in q**m."""
    alpha = tuple(alpha)
    m = len(alpha)
    if d <= 0 or m % d:
        raise DNotDividingM(f"d={d} does not divide m={m}")
    n = sum(alpha)
    if n == 0:
        return QPoly.one()  # the deletion recurrence needs a letter to delete
    out = QPoly.zero()
    for beta in rotation_class(alpha, d):
        inner = QPoly.zero()
        prefix = 0
        for v in range(1, m // d + 1):
            inner = inner + substitute_power(
                q_multinomial(n - 1, _dec(beta, v)), m
            ).shift(m * prefix)
            prefix += beta[v - 1]
        out = out + inner.shift(b_composition(beta))
    return out


def deformed_multinomial_rational(alpha, d: int) -> QPoly:
    """The defining rational expression, by exact division; raises
    NonzeroRemainder if the division fails."""
    alpha = tuple(alpha)
    m = len(alpha)
    if d <= 0 or m % d:
        raise DNotDividingM(f"d={d} does not divide m={m}")
    n = sum(alpha)
    num = QPoly.zero()
    for beta in rotation_class(alpha, d):
        num = num + QPoly.monomial(b_composition(beta))
    num = num * substitute_power(q_multinomial(n, alpha), m)
    if n == 0:
        den = QPoly(0, (d,))  # [d] at q**0 degenerates to the constant d
    else:
        den = substitute_power(QPoly(0, (1,) * d), n * m // d)  # [d] in q**(nm/d)
    return divide_exact(num, den)


def deformed_binomial(n: int, k: int) -> QPoly:
    """Two-part deformed multinomial at d=2, by the Pascal-type identity."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    if n == 0:
        return QPoly.one()
    return (
        substitute_power(q_binomial(n - 1, k - 1), 2).shift(n - k)
        + substitute_power(q_binomial(n - 1, k), 2).shift(k)
    )


def composition_degree(alpha) -> int:
    """Degree of the q-multinomial for alpha: C(n,2) - sum C(alpha_i,2)."""
    alpha = tuple(alpha)
    n = sum(alpha)
    return n * (n - 1) // 2 - sum(a * (a - 1) // 2 for a in alpha)

