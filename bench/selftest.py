#!/usr/bin/env python3
"""Show that the benchmark's output checks catch corrupted outputs.

    python3 bench/selftest.py

Run from the root of a source checkout.  For each case it computes true
outputs on small inputs, confirms that they pass the workload's checks,
then corrupts one value and confirms that the checks fail:

- hook-large: one coefficient of an expanded hook product;
- group-table: one f(1) value (a fake degree gains a term);
- group-table: one Hilbert-series term (a unit of one fake degree moves up a
  degree, so every f(1) still matches and only Stembridge's identity fails);
- oracle-enum: a suite result that reports one case fewer;
- poset-build: one cover edge, redirected to a node two ranks up.

Exits 1 if a corruption goes unnoticed or a true output fails.
"""
from __future__ import annotations

import dataclasses
import sys
from types import SimpleNamespace

from run import use_source_tree


def poly(offset, coeffs):
    return SimpleNamespace(offset=offset, coeffs=tuple(coeffs))


def bump(out, index: int, delta: int):
    coeffs = list(out.coeffs)
    coeffs[index] += delta
    return poly(out.offset, coeffs)


def main() -> int:
    use_source_tree()
    import workloads as wl
    from sytmaj.verify import CheckResult

    def run(items):
        return [op.run() for op in wl.make_ops(items)]

    cases = []

    items = [{"kind": "stanley", "parts": wl.staircase_like(40)}]
    outs = run(items)
    mid = len(outs[0].coeffs) // 2
    cases.append(("hook-large: one coefficient", items, outs, [bump(outs[0], mid, 1)]))

    items = wl.group_irreducibles(4, 2, 3)
    outs = run(items)
    i = max(range(len(outs)), key=lambda k: len(outs[k].coeffs))
    wrong_f1 = outs[:i] + [bump(outs[i], -1, 1)] + outs[i + 1:]
    cases.append(("group-table: one f(1) value", items, outs, wrong_f1))
    c = list(outs[i].coeffs) + [0]
    j = next(k for k, x in enumerate(c) if x)
    c[j] -= 1
    c[j + 1] += 1
    moved = outs[:i] + [poly(outs[i].offset, c)] + outs[i + 1:]
    cases.append(("group-table: one Hilbert-series term", items, outs, moved))

    items = [{"kind": "suite", "suite": "stanley"}]
    outs = run(items)
    results, ok = outs[0]
    fewer = [CheckResult("stanley", f"{wl.suite_cases(results) - 1} checks", True)]
    cases.append(("oracle-enum: one case fewer", items, outs, [(fewer, ok)]))

    items = [{"kind": "poset", "parts": (3, 2, 1)}]
    outs = run(items)
    strong, weak = outs[0]
    majs = [t.maj() for t in strong.elements]
    src, dst = next(
        (i, k) for i, ups in enumerate(strong.covers) if ups
        for k in range(len(majs)) if majs[k] == majs[i] + 2
    )
    covers = list(strong.covers)
    covers[src] = (dst,) + covers[src][1:]
    bad = dataclasses.replace(strong, covers=tuple(covers))
    cases.append(("poset-build: one cover edge", items, outs, [(bad, weak)]))

    failures = 0
    for name, items, good, corrupt in cases:
        clean = wl.check_outputs(items, good)
        caught = wl.check_outputs(items, corrupt)
        ok = not clean and bool(caught)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true outputs {'pass' if not clean else clean}; "
              f"corrupted: {caught[0] if caught else 'not caught'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
