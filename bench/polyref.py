"""Reference integer polynomial arithmetic for the benchmark's output checks.

Polynomials are plain lists of Python ints, index = degree.  Nothing here
imports sytmaj: the checks must hold whatever the program computes.
"""
from __future__ import annotations

from math import comb, factorial


def mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def add_into(acc: list[int], p: list[int], shift: int = 0, scale: int = 1) -> None:
    """acc += scale * q**shift * p, growing acc as needed."""
    need = shift + len(p)
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(p):
        acc[shift + i] += scale * c


def q_int(k: int) -> list[int]:
    return [1] * k


def substitute(p: list[int], m: int) -> list[int]:
    """p(q**m)."""
    if m == 1 or not p:
        return list(p)
    out = [0] * ((len(p) - 1) * m + 1)
    out[::m] = p
    return out


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as tuples, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0])) if parts else ()


def hooks(parts) -> list[int]:
    conj = conjugate(parts)
    return [
        (p - c) + (conj[c - 1] - r) + 1
        for r, p in enumerate(parts, 1)
        for c in range(1, p + 1)
    ]


def b_stat(parts) -> int:
    return sum(i * p for i, p in enumerate(parts))


def hook_count(parts) -> int:
    """Number of standard tableaux, by the hook-length formula."""
    out = factorial(sum(parts))
    for h in hooks(parts):
        out //= h
    return out


def maj_series(n: int, hook_list, terms: int) -> list[int]:
    """First `terms` coefficients of prod_{i<=n}(1-q^i) / prod_h (1-q^h)."""
    out = [1] + [0] * (terms - 1)
    for i in range(1, min(n, terms - 1) + 1):
        for k in range(terms - 1, i - 1, -1):
            out[k] -= out[k - i]
    for h in hook_list:
        for k in range(h, terms):
            out[k] += out[k - h]
    return out


def hook_product(parts) -> list[int]:
    """q**b(lambda) [n]_q! / prod [h]_q, expanded exactly."""
    n = sum(parts)
    hs = hooks(parts)
    degree = comb(n + 1, 2) - sum(hs)
    body = maj_series(n, hs, degree + 1)
    return [0] * b_stat(parts) + body


def maj_from_rows(rows) -> int:
    """Major index of a standard filling given as its rows, top to bottom."""
    row_of = {v: r for r, row in enumerate(rows) for v in row}
    return sum(v for v in range(1, len(row_of)) if row_of[v + 1] > row_of[v])
