#!/usr/bin/env python3
"""Time expand(stanley(p)) on staircase-like shapes of growing size.

stanley(p) is the (q^d - 1) exponent map e_d = [d <= n] - #{hooks = d}, and
expand is the half-plus-mirror kernel that multiplies it out.
The q=1 value is checked against the hook-length count.  The benchmark with
bounds and output checks is bench/run.py.

    PYTHONPATH=src python3 scripts/stanley_bench.py --sizes 50,100,200
"""
import argparse
import time

from sytmaj.genfun import stanley, syt_count
from sytmaj.qpolys import expand
from sytmaj.shapes import Partition


def staircase_like(n: int) -> Partition:
    """A staircase k, k-1, ..., 1 padded with one duplicated part to hit n."""
    k = 1
    while k * (k + 1) // 2 <= n:
        k += 1
    k -= 1
    parts = list(range(k, 0, -1))
    extra = n - k * (k + 1) // 2
    if extra:
        parts.append(extra)
        parts.sort(reverse=True)
    return Partition(parts)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="50,100,200", help="comma list of cell counts")
    args = ap.parse_args()
    for n in (int(s) for s in args.sizes.split(",")):
        p = staircase_like(n)
        t0 = time.perf_counter()
        poly = expand(stanley(p))
        elapsed = time.perf_counter() - t0
        ok = poly.eval_at_1() == syt_count(p)
        print(
            f"n={n:4d} shape={p} degree={poly.degree} "
            f"terms={len(poly.coeffs)} time={elapsed:.3f}s count_check={ok}"
        )


if __name__ == "__main__":
    main()
