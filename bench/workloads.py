"""The four workloads: seeded inputs, the operations run on them, and the
output checks.

Inputs are plain data made here from the seed, without sytmaj, so that
`setup_s` can time input generation next to the import.  Operations look
their sytmaj functions up on the module at call time, so that the traced run
sees the wrappers.  Checks use `polyref` only.
"""
from __future__ import annotations

import random
import re
from math import comb, factorial
from typing import Any, Callable, NamedTuple

import polyref as ref

SERIES_TERMS = 64  # low coefficients compared against the power series


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]


def _shape_text(parts) -> str:
    return ",".join(map(str, parts))


def _blocks_text(blocks) -> str:
    return "|".join(_shape_text(b) for b in blocks)


# ---------------------------------------------------------------------------
# hook-large: a few large closed forms

# Block shape from the ROADMAP's baseline table, n = 83.
BIG_BLOCKS = ((10, 8, 6, 4, 2), (9, 7, 5, 3, 1), (6, 6, 6), (5, 5))


def staircase_like(n: int) -> tuple[int, ...]:
    """A staircase k, k-1, ..., 1 padded with one part to reach n cells."""
    k = 1
    while (k + 1) * (k + 2) // 2 <= n:
        k += 1
    parts = list(range(k, 0, -1))
    extra = n - k * (k + 1) // 2
    if extra:
        parts.append(extra)
        parts.sort(reverse=True)
    return tuple(parts)


def perturb(parts, rng: random.Random, moves: int) -> tuple[int, ...]:
    """Move `moves` cells, each from a removable corner to an addable cell.

    Ten moves from a staircase keep the expansion cost within a few per
    cent of the staircase's, so seeds change the shapes but not the load.
    """
    parts = list(parts)
    for _ in range(moves):
        corners = [i for i in range(len(parts)) if i == len(parts) - 1 or parts[i] > parts[i + 1]]
        i = rng.choice(corners)
        parts[i] -= 1
        if parts[i] == 0:
            parts.pop()
        addable = [j for j in range(len(parts) + 1) if j == 0 or j == len(parts) or parts[j] < parts[j - 1]]
        j = rng.choice(addable)
        if j == len(parts):
            parts.append(1)
        else:
            parts[j] += 1
    return tuple(parts)


def hook_large_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = [
        {"kind": "stanley", "parts": staircase_like(200)},
        {"kind": "stanley", "parts": perturb(staircase_like(250), rng, 10)},
        {"kind": "stanley", "parts": perturb(staircase_like(300), rng, 10)},
        {"kind": "stanley", "parts": staircase_like(340)},
        {"kind": "gmdn", "blocks": BIG_BLOCKS, "m": 4, "d": 2},
        {"kind": "wreath", "blocks": tuple(rng.sample(BIG_BLOCKS, len(BIG_BLOCKS))), "m": 4, "d": 1},
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# group-table: every irreducible of a few groups G(m, d, n)

GROUPS = ((2, 2, 16), (4, 2, 9), (6, 3, 7), (2, 1, 14))  # (m, d, n)
# G(2,2,0): gmdn_fake_degree divides the constant 1 by d/|orbit| = 2 and
# raises, where the canonical-orbit count gives 1.  Kept as one failing
# operation per round until the program is fixed.
EMPTY_GROUP_CASE = {"kind": "gmdn", "group": (2, 2, 0), "blocks": ((), ()), "m": 2, "d": 2,
                    "orbit": 1, "expect": [1]}


def multipartitions(n: int, m: int):
    """All m-tuples of partitions with n cells in total."""
    if m == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for lam in ref.partitions(first):
            for rest in multipartitions(n - first, m - 1):
                yield (lam,) + rest


def orbit(blocks, d: int) -> set:
    """Distinct rotations of the block sequence by multiples of m/d."""
    m = len(blocks)
    step = m // d
    return {blocks[-s:] + blocks[:-s] if s else blocks for s in range(0, m, step)}


def group_irreducibles(m: int, d: int, n: int) -> list[dict]:
    """One item per rotation orbit, keyed by its smallest member."""
    seen, items = set(), []
    for blocks in multipartitions(n, m):
        orb = orbit(blocks, d)
        rep = min(orb)
        if rep in seen:
            continue
        seen.add(rep)
        items.append({"kind": "gmdn" if d > 1 else "wreath", "group": (m, d, n),
                      "blocks": rep, "m": m, "d": d, "orbit": len(orb)})
    return items


def group_table_inputs(seed: int) -> list[dict]:
    items = [it for g in GROUPS for it in group_irreducibles(*g)] + [dict(EMPTY_GROUP_CASE)]
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# oracle-enum: the verify suites at their default bounds

SUITES = ("stanley", "support-a", "des", "gmdn")


def oracle_enum_inputs(seed: int) -> list[dict]:
    items = [{"kind": "suite", "suite": s} for s in SUITES]
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# poset-build: strong and weak posets of 10-12 cell shapes

# The seed picks one shape of each conjugate pair.  Conjugates have the same
# tableau count, and these two pairs also cost within 10% of each other,
# while other pairs differ by up to 40%.  The pairs are the two cheapest
# operations; the self-conjugate shapes are the middle two (op_p50_ms) and
# the dearest (op_p99_ms), so that no metric moves much with the seed.
POSET_PAIRS = (((5, 2, 2, 1), (4, 3, 1, 1, 1)), ((5, 3, 1, 1), (4, 2, 2, 1, 1)))
POSET_SELF_CONJUGATE = ((4, 3, 2, 1), (4, 3, 3, 1), (6, 2, 1, 1, 1, 1), (4, 4, 2, 2))


def poset_build_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    shapes = [rng.choice(pair) for pair in POSET_PAIRS] + list(POSET_SELF_CONJUGATE)
    items = [{"kind": "poset", "parts": s} for s in shapes]
    rng.shuffle(items)
    return items


INPUTS = {
    "hook-large": hook_large_inputs,
    "group-table": group_table_inputs,
    "oracle-enum": oracle_enum_inputs,
    "poset-build": poset_build_inputs,
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    return INPUTS[workload](seed)


# ---------------------------------------------------------------------------
# operations


def label(item: dict) -> str:
    kind = item["kind"]
    if kind == "suite":
        return f"suite {item['suite']}"
    if kind in ("stanley", "poset"):
        return f"{kind} {_shape_text(item['parts'])}"
    return f"{kind} {_blocks_text(item['blocks'])} m={item['m']} d={item['d']}"


def make_ops(items: list[dict]) -> list[Op]:
    from sytmaj import genfun, mutations, qpolys, shapes, verify

    def op(item: dict) -> Callable[[], Any]:
        kind = item["kind"]
        if kind == "stanley":
            text = _shape_text(item["parts"])
            return lambda: qpolys.expand(genfun.stanley(shapes.parse_partition(text)))
        if kind == "gmdn":
            text, m, d = _blocks_text(item["blocks"]), item["m"], item["d"]
            return lambda: genfun.gmdn_fake_degree(shapes.parse_blocks(text), m, d)
        if kind == "wreath":
            text, m = _blocks_text(item["blocks"]), item["m"]
            return lambda: genfun.wreath_fake_degree(shapes.parse_blocks(text), m)
        if kind == "suite":
            name = item["suite"]
            return lambda: verify.run_suites([name], threads=1)
        if kind == "poset":
            text = _shape_text(item["parts"])

            def build():
                p = shapes.parse_partition(text)
                return mutations.build_poset(p, "strong"), mutations.build_poset(p, "weak")
            return build
        raise ValueError(kind)

    return [Op(label(it), op(it)) for it in items]


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the outputs are right


def _poly(out) -> tuple[int, list[int]]:
    return out.offset, [int(c) for c in out.coeffs]


def _block_dim(blocks) -> int:
    """n!/prod alpha_i! * prod f^{lambda_i}: the wreath-product dimension."""
    alpha = [sum(b) for b in blocks]
    out = factorial(sum(alpha))
    for a in alpha:
        out //= factorial(a)
    for b in blocks:
        out *= ref.hook_count(b)
    return out


def check_stanley(parts, out) -> list[str]:
    name = _shape_text(parts)
    lo, c = _poly(out)
    n = sum(parts)
    probs = []
    if sum(c) != ref.hook_count(parts):
        probs.append(f"stanley {name}: f(1)={sum(c)} != hook count")
    if c != c[::-1]:
        probs.append(f"stanley {name}: not palindromic")
    if lo != ref.b_stat(parts) or lo + len(c) - 1 != comb(n, 2) - ref.b_stat(ref.conjugate(parts)):
        probs.append(f"stanley {name}: degrees {lo}..{lo + len(c) - 1} wrong")
    terms = min(SERIES_TERMS, len(c))
    if c[:terms] != ref.maj_series(n, ref.hooks(parts), terms):
        probs.append(f"stanley {name}: low coefficients differ from the hook series")
    return probs


def check_wreath(blocks, m, out) -> list[str]:
    """q^b(alpha) * S(q^m) with S = q^(sum b) [n]!/prod over all cells [h]."""
    name = _blocks_text(blocks)
    lo, c = _poly(out)
    alpha = [sum(b) for b in blocks]
    n = sum(alpha)
    b_alpha = ref.b_stat(alpha)
    probs = []
    if sum(c) != _block_dim(blocks):
        probs.append(f"wreath {name}: f(1)={sum(c)} != dim")
    if c != c[::-1]:
        probs.append(f"wreath {name}: not palindromic")
    want_lo = b_alpha + m * sum(ref.b_stat(b) for b in blocks)
    want_hi = b_alpha + m * (comb(n, 2) - sum(ref.b_stat(ref.conjugate(b)) for b in blocks if b))
    if lo != want_lo or lo + len(c) - 1 != want_hi:
        probs.append(f"wreath {name}: degrees {lo}..{lo + len(c) - 1} != {want_lo}..{want_hi}")
    all_hooks = [h for b in blocks if b for h in ref.hooks(b)]
    want = ref.substitute(ref.maj_series(n, all_hooks, SERIES_TERMS), m)
    low = c[:len(want)]
    if low != want[:len(low)]:
        probs.append(f"wreath {name}: low coefficients differ from the hook series")
    return probs


def check_gmdn_dim(blocks, m, d, orbit_size, out) -> list[str]:
    lo, c = _poly(out)
    dim = _block_dim(blocks) * orbit_size // d
    if sum(c) != dim or any(x < 0 for x in c):
        return [f"gmdn {_blocks_text(blocks)} m={m} d={d}: f(1)={sum(c)} != dim {dim}"]
    return []


def hilbert_series(m: int, d: int, n: int) -> list[int]:
    """prod_{i<n} [i m]_q * [n m / d]_q, the coinvariant Hilbert series."""
    out = [1]
    for i in range(1, n):
        out = ref.mul(out, ref.q_int(i * m))
    return ref.mul(out, ref.q_int(n * m // d))


def check_group(m: int, d: int, n: int, pairs) -> list[str]:
    """Stembridge's identity and the sum of squared dimensions for one group.

    An orbit of size s restricts to d/s irreducibles of dimension
    dim(blocks) * s / d, all with the same fake degree.
    """
    total: list[int] = []
    squares = 0
    for item, out in pairs:
        lo, c = _poly(out)
        dim_blocks = _block_dim(item["blocks"])
        ref.add_into(total, c, lo, dim_blocks)
        s = item["orbit"]
        squares += (d // s) * (dim_blocks * s // d) ** 2
    while total and total[-1] == 0:
        total.pop()
    probs = []
    if total != hilbert_series(m, d, n):
        probs.append(f"G({m},{d},{n}): sum of dim * fake degree != coinvariant Hilbert series")
    if squares != m ** n * factorial(n) // d:
        probs.append(f"G({m},{d},{n}): sum of squared dimensions {squares} != |G|")
    return probs


def suite_case_count(suite: str) -> int:
    """Cases each verify suite runs at its default bounds, counted here."""
    def n_partitions(n: int) -> int:
        return sum(1 for _ in ref.partitions(n))

    def n_multipartitions(n: int, m: int) -> int:
        return sum(1 for _ in multipartitions(n, m))

    shapes_to_12 = sum(n_partitions(n) for n in range(1, 13))
    if suite in ("stanley", "support-a"):
        return shapes_to_12
    if suite == "des":
        return shapes_to_12 + sum(n_partitions(n) for n in range(1, 11))
    if suite == "gmdn":
        return sum(
            sum(1 for d in range(1, m + 1) if m % d == 0) * n_multipartitions(n, m)
            for n in range(1, 7) for m in range(1, 5)
        )
    raise ValueError(suite)


_CASES = re.compile(r"^(\d+) checks$")


def suite_cases(results) -> int | None:
    """Case count from an aggregated suite result, None if it did not pass."""
    if len(results) != 1 or not results[0].ok:
        return None
    match = _CASES.match(results[0].name)
    return int(match.group(1)) if match else None


def check_suite(name: str, out) -> list[str]:
    results, ok = out
    got = suite_cases(results)
    if not ok or got is None:
        bad = [r.line() for r in results if not r.ok][:3]
        return [f"suite {name}: did not pass: {bad}"]
    want = suite_case_count(name)
    if got != want:
        return [f"suite {name}: ran {got} cases, expected {want}"]
    return []


def _filling_rows(parts, values) -> list[list[int]] | None:
    """Rows of a row-major filling of shape `parts`, None if not standard."""
    rows, i = [], 0
    for p in parts:
        rows.append(list(values[i:i + p]))
        i += p
    if sorted(values) != list(range(1, sum(parts) + 1)):
        return None
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if (c and row[c - 1] >= v) or (r and rows[r - 1][c] >= v):
                return None
    return rows


def check_poset(parts, flavor: str, poset) -> list[str]:
    name = f"{flavor} {_shape_text(parts)}"
    big_rectangle = len(set(parts)) == 1 and len(parts) >= 2 and parts[0] >= 2
    counts = ref.hook_product(parts)
    if big_rectangle:  # the min- and max-maj tableaux are left out
        lo = next(k for k, x in enumerate(counts) if x)
        counts[lo] -= 1
        counts[-1] -= 1
    elems = poset.elements
    if len(elems) != sum(counts):
        return [f"poset {name}: {len(elems)} nodes, expected {sum(counts)}"]
    majs = []
    for t in elems:
        rows = _filling_rows(parts, tuple(t.values))
        if rows is None:
            return [f"poset {name}: node {t.values} is not a standard filling"]
        majs.append(ref.maj_from_rows(rows))
    if len({tuple(t.values) for t in elems}) != len(elems):
        return [f"poset {name}: repeated nodes"]
    probs = []
    has_up = [False] * len(elems)
    has_down = [False] * len(elems)
    bad = [(i, j) for i, ups in enumerate(poset.covers) for j in ups if majs[j] != majs[i] + 1]
    if bad:
        i, j = bad[0]
        probs.append(f"poset {name}: {len(bad)} covers do not raise maj by 1, "
                     f"e.g. {i}->{j} by {majs[j] - majs[i]}")
    for i, ups in enumerate(poset.covers):
        for j in ups:
            has_up[i] = has_down[j] = True
    by_maj = [0] * max(len(counts), max(majs) + 1)
    for x in majs:
        by_maj[x] += 1
    if by_maj != counts + [0] * (len(by_maj) - len(counts)):
        probs.append(f"poset {name}: nodes per maj differ from the hook product")
    want_min = next(k for k, x in enumerate(counts) if x)
    want_max = len(counts) - 1 - next(k for k, x in enumerate(reversed(counts)) if x)
    minima = [majs[i] for i in range(len(elems)) if not has_down[i]]
    maxima = [majs[i] for i in range(len(elems)) if not has_up[i]]
    if minima != [want_min] or maxima != [want_max]:
        probs.append(f"poset {name}: minima at {minima[:4]}, maxima at {maxima[:4]}, "
                     f"expected one each at {want_min} and {want_max}")
    return probs


def check_outputs(items: list[dict], outputs: list) -> list[str]:
    """Check one round's outputs; `outputs[i]` is None where op i failed.

    A group's identities need every irreducible, so a group with a failed
    operation is reported as unchecked.
    """
    probs: list[str] = []
    groups: dict[tuple, list] = {}
    for item, out in zip(items, outputs):
        kind = item["kind"]
        if "expect" in item:
            if out is not None and (out.offset, list(out.coeffs)) != (0, item["expect"]):
                probs.append(f"{label(item)}: got {out!r}, expected {item['expect']}")
            continue
        if kind in ("gmdn", "wreath") and "group" in item:
            groups.setdefault(item["group"], []).append((item, out))
        if out is None:
            continue
        if kind == "stanley":
            probs += check_stanley(item["parts"], out)
        elif kind == "wreath":
            probs += check_wreath(item["blocks"], item["m"], out)
        elif kind == "gmdn":
            orbit_size = item.get("orbit") or len(orbit(item["blocks"], item["d"]))
            probs += check_gmdn_dim(item["blocks"], item["m"], item["d"], orbit_size, out)
        elif kind == "suite":
            probs += check_suite(item["suite"], out)
        elif kind == "poset":
            for flavor, poset in zip(("strong", "weak"), out):
                probs += check_poset(item["parts"], flavor, poset)
    for (m, d, n), pairs in groups.items():
        if any(out is None for _, out in pairs):
            probs.append(f"G({m},{d},{n}): an operation failed, identities unchecked")
        else:
            probs += check_group(m, d, n, pairs)
    return probs
