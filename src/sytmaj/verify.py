"""Enumeration oracles and the verification suites behind `sytmaj verify`.

Every closed formula in the package is re-derived here independently:
standard-filling counts, the first-letter recursion on words, exhaustive
move application, (for the q-hook-length product) cyclotomic factors
multiplied out, or (for the deformed and partial sum multinomials) their
defining sums of deletion terms and the rational definition by exact
division.  `_deletion_sum` is the one sum over first letters i <= k of
q**(alpha_1 + ... + alpha_(i-1)) * W(alpha - e_i): W is the cached inversion
count of a content in the word oracle, which counts each content once and
only adds and shifts, and the cached q-multinomial in the two others.  Two
closed forms live here only as oracles: single coefficients of
SYT(lambda)^maj as polynomials in the hook multiplicities H_i
(`coefficient_via_H`), and the Mahonian counts by a signed sum over
partitions (`mahonian_count`).
The tableau oracles share one count of the standard fillings by (maj, des),
`_corner_counts`, built by placing n, n-1, ..., 1 into the outer corners of
the cells still empty.  It counts each state (bitmask of the empty cells,
row of v+1) once, holding its counts packed in one int with slot
maj*n + des, so it reaches the 20-cell bound on straight shapes; its memory
grows with the number of order ideals of the shape.  It returns one packed
count per corner that n can go into.  `_corner_table` caches those corners,
one table per shape, and `_fillings`, the one reader that every tableau
oracle calls, sums the corners it wants and decodes once.  The G(m,d,n)
oracle lets n go only into the first m/d blocks, so it counts only
canonical orbit representatives; those blocks hold the first cells, so it
sums the corners below a cutoff.  A block shape is keyed by its nonempty
blocks, so a run peels each distinct block sequence once, for every
rotation, every d and every placement of the empty blocks, and a block
shape with one nonempty block reads that partition's table.  One run of the
`stanley`, `support-a` and `des` suites builds 271 tables, one per
partition up to 12 cells, and `gmdn` then adds 212, 483 in all.  With
--threads > 1 each worker process fills its own tables.  `strong_covers`
finds one tableau's strong covers from the strong order's definition, for
the poset suite to compare with `build_poset`'s: it scans the negative
rotations at the tableau itself, and reads the block rules into it at the
transpose off one pass of `block_rule` over the conjugate shape's fillings.

The suites are the rows of one table, `SUITES`.  A bounded row gives its
default size bounds, its case generator and its per-case checks; one runner
caps every n-bound by --max-n, fans the cases out over the worker processes
and reports by one rule: the failing rows in work order, or one `N checks`
row, or `no cases ran`.  The rows with fixed cases, `regression` and
`performance`, report every check.  The CLI prints the rows and fails on
any mismatch.
"""
from __future__ import annotations

import itertools
import struct
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from .deformed import deformed_multinomial, partial_sum_multinomial
from .genfun import gmdn_fake_degree, stanley, syt_count, wreath_fake_degree
from .mutations import (
    block_rule,
    build_poset,
    negative_rotations,
    phi,
    positive_rotations,
    verify_ranked,
)
from .qpolys import (
    NonzeroRemainder,
    QPoly,
    divide_exact_int,
    expand,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
    shape_predicates,
    substitute_power,
)
from .shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    b_composition,
    b_statistic,
    hook_lengths,
    parse_blocks,
    partitions,
    rotation_class,
)
from .tableaux import (
    BoundExceeded,
    Tableau,
    enumerate_tableaux,
    exceptional_set,
    maxmaj_tableau,
    minmaj_tableau,
)
from .zeros import check_parity_unimodal, support_des, support_gmdn, support_type_A, verify_support


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        detail = f"  {self.detail}" if self.detail else ""
        return f"{status} [{self.suite}] {self.name}{detail}"


# ---------------------------------------------------------------------------
# oracles

# (bytes, memoryview format) of the unsigned slot widths `_corner_counts` packs into
_SLOTS = [(struct.calcsize(f), f) for f in "BHIQ"]


def _slot(n: int) -> tuple[int, str]:
    """(bytes, memoryview format) of the narrowest slot that holds n!."""
    return next(s for s in _SLOTS if 8 * s[0] >= factorial(n).bit_length())


def _corner_counts(shape) -> tuple[tuple[int, int], ...]:
    """(cell index, packed counts) for each outer corner of the full shape:
    the standard fillings, by (maj, des), that put n in that corner.

    A standard filling is built by placing n, n-1, ..., 1 in turn into an
    outer corner of the cells still empty: a cell whose south and east
    neighbours are all filled.  v is a descent when v+1 sits in a strictly
    lower row.  So the (maj, des) counts of the ways to fill the empty cells
    with 1..v depend only on the state (bitmask of the empty cells, row of
    v+1), and each state is counted once, as the sum over its outer corners
    of the child states, in a memo local to the call.  Children in rows above
    the row of v+1 gain the descent v, i.e. (maj, des) += (v, 1).

    A state's counts are one int: slot maj*n + des holds its count, in a
    byte-aligned slot wide enough for n! (no count exceeds n!, and des < n,
    so slots neither carry nor collide).  Adding a descent is then one shift,
    and merging the children one add; summed corners decode once, in
    `_decode`.  Memory grows with the number of order ideals of the shape: a
    straight shape at the 20-cell bound is cheap, but one of many small
    blocks is not.
    """
    n = shape.n  # tested before the cells are built
    if n > 20:
        raise BoundExceeded(f"shape has {n} cells, bound is 20")
    cells = shape.cells
    north, west = shape.neighbours
    # each cell with its south and east neighbours: cell i is an outer corner
    # of `mask` when mask & reach[i] == 1 << i
    reach = [1 << i for i in range(n)]
    for i in range(n):
        for j in (north[i], west[i]):
            if j >= 0:
                reach[j] |= 1 << i
    cell_info = [(1 << i, reach[i], r) for i, (r, _) in enumerate(cells)]
    width = 8 * _slot(n)[0]
    memo: dict[int, int] = {}

    def count(mask: int, last: int) -> int:
        if not mask:
            return 1
        key = last << n | mask  # mask < 2**n
        got = memo.get(key)
        if got is None:
            same = down = 0
            for bit, reach, r in cell_info:
                if mask & reach == bit:
                    if last > r:
                        down += count(mask ^ bit, r)
                    else:
                        same += count(mask ^ bit, r)
            got = memo[key] = same + (down << (mask.bit_count() * n + 1) * width)
        return got

    full = (1 << n) - 1
    corners = tuple((i, count(full ^ bit, r)) for i, (bit, reach, r) in enumerate(cell_info)
                    if reach == bit)
    # `count` refers to itself, so without this the memo would outlive the
    # call until the cyclic garbage collector ran
    memo.clear()
    return corners


def _decode(total: int, n: int) -> Counter:
    """The (maj, des) counts packed in a sum of `_corner_counts` of an n-cell
    shape (n >= 1)."""
    slot_bytes, fmt = _slot(n)
    nbytes = -(-total.bit_length() // (8 * slot_bytes)) * slot_bytes
    slots = memoryview(total.to_bytes(nbytes, sys.byteorder)).cast(fmt)
    return Counter({divmod(k, n): c for k, c in enumerate(slots) if c})


@cache
def _corner_table(key) -> tuple[tuple[int, int], ...]:
    """`_corner_counts` of a shape, kept for the whole process: the one table
    that every tableau oracle reads.  A Partition or SkewShape is its own
    key; a block shape is keyed by its nonempty blocks (see `_fillings`).
    Past the 20-cell bound it raises, and a cache stores no exception."""
    return _corner_counts(BlockShape(key) if isinstance(key, tuple) else key)


def _fillings(shape, cut: int | None = None) -> Counter:
    """Count the standard fillings of a shape by (maj, des), without building
    a Tableau or visiting each filling: the sum of the corners of
    `_corner_table` with cell index below `cut` (every corner when `cut` is
    None), decoded once.

    A block shape reads the table of its nonempty blocks, the one Partition
    when only one block is nonempty, else the tuple of them: empty blocks
    hold no cell and add no row or column, so dropping them leaves the cells
    and their order as they are, and G(1,1,n) reads the type-A table.  This
    reads no hook length and does no q-arithmetic: deleting the largest
    entry from an outer corner is the definition of a standard filling, not
    a formula under test, so the oracles stay independent of `stanley` and
    `gmdn_fake_degree`.
    """
    n = shape.n
    if n == 0:
        return Counter({(0, 0): 1})
    if isinstance(shape, BlockShape):
        blocks = tuple(b for b in shape.blocks if b)
        shape = blocks[0] if len(blocks) == 1 else blocks
    return _decode(sum(c for i, c in _corner_table(shape) if cut is None or i < cut), n)


def _maj_terms(fillings: Counter, base: int = 0, m: int = 1) -> Counter:
    """Fillings counted by base + m*maj."""
    out: Counter = Counter()
    for (maj, _), k in fillings.items():
        out[base + m * maj] += k
    return out


def maj_gf_oracle(shape) -> QPoly:
    """Major-index generating function from the count of standard fillings."""
    return QPoly.from_terms(_maj_terms(_fillings(shape)))


def des_gf_oracle(shape) -> QPoly:
    counts: Counter = Counter()
    for (_, des), k in _fillings(shape).items():
        counts[des] += k
    return QPoly.from_terms(counts)


def majdes_values_oracle(shape) -> set[int]:
    return {maj - des for maj, des in _fillings(shape)}


def gmdn_gf_oracle(blocks: BlockShape, m: int, d: int) -> QPoly:
    """Sum of q^(b(alpha) + m*maj) over the canonical tableaux of the rotation
    orbit: those with n in one of the first m/d blocks (see
    `canonical_orbit_tableaux`); at d = 1, every tableau of the shape.

    Blocks run top to bottom, so those tableaux put n in a corner below a
    cutoff cell index."""
    orbit = blocks.orbit(d)
    step = blocks.m // d
    counts: Counter = Counter()
    for mu in orbit:
        fillings = _fillings(mu, sum(mu.alpha()[:step]))
        counts.update(_maj_terms(fillings, mu.b_alpha(), m))
    return QPoly.from_terms(counts)


def divide_exact(num: QPoly, den: QPoly) -> QPoly:
    """Quotient num/den when the division is exact, else NonzeroRemainder."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return QPoly.zero()
    if num.offset < den.offset:
        raise NonzeroRemainder(f"offset {num.offset} < {den.offset}")
    rem = list(num.coeffs)
    d = list(den.coeffs)
    dlead = d[-1]
    qlen = len(rem) - len(d) + 1
    if qlen <= 0:
        raise NonzeroRemainder("numerator degree below denominator degree")
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        top = rem[i + len(d) - 1]
        if top % dlead:
            raise NonzeroRemainder(f"leading coefficient {top} not divisible by {dlead}")
        f = top // dlead
        quot[i] = f
        if f:
            for j, dj in enumerate(d):
                rem[i + j] -= f * dj
    if any(rem):
        raise NonzeroRemainder("nonzero remainder")
    return QPoly(num.offset - den.offset, quot)


@cache
def cyclotomic_polynomial(j: int) -> QPoly:
    """Phi_j(q), by exact division of q^j - 1 by Phi_d for every proper
    divisor d of j."""
    if j < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = QPoly(0, [-1] + [0] * (j - 1) + [1])
    for d in range(1, j):
        if j % d == 0:
            num = divide_exact(num, cyclotomic_polynomial(d))
    return num


def stanley_cyclotomic_oracle(p: Partition) -> QPoly:
    """q**b(lambda) [n]_q! / prod [h_c]_q as q**b(lambda) times
    Phi_j**(floor(n/j) - #{hooks divisible by j}) for 2 <= j <= n, multiplied
    out one factor at a time; independent of the binomial-form kernel."""
    n = p.n
    hooks = list(hook_lengths(p).values())
    out = QPoly.one()
    for j in range(2, n + 1):
        for _ in range(n // j - sum(1 for h in hooks if h % j == 0)):
            out = out * cyclotomic_polynomial(j)
    return out.shift(b_statistic(p))


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


def _deletion_sum(alpha: tuple[int, ...], k: int, weight: Callable) -> QPoly:
    """The sum over the letters i <= k that alpha holds of
    q**(alpha_1 + ... + alpha_(i-1)) * weight(alpha - e_i): the words of
    content alpha that start with i, each weighted by what follows.  k is
    clamped to len(alpha)."""
    out = QPoly.zero()
    prefix = 0
    for i in range(min(k, len(alpha))):
        if alpha[i]:
            rest = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            out = out + weight(rest).shift(prefix)
        prefix += alpha[i]
    return out


@cache
def _inversions(content: tuple[int, ...]) -> QPoly:
    """Inversion generating function of the words of a content: a word that
    starts with i has one inversion for each smaller letter after it."""
    if not any(content):
        return QPoly.one()
    return _deletion_sum(content, len(content), _inversions)


def word_inv_oracle(alpha: tuple[int, ...], k: int) -> QPoly:
    """Inversion generating function of words of content alpha with first
    letter at most k, by the first-letter recursion on words."""
    return _deletion_sum(tuple(alpha), k, _inversions)


@cache
def _multinomial(alpha: tuple[int, ...]) -> QPoly:
    """[n; alpha] for the oracles, once per content."""
    return q_multinomial(sum(alpha), alpha)


def partial_sum_multinomial_by_sum(alpha, k: int) -> QPoly:
    """The defining sum over the first k deletion positions."""
    return _deletion_sum(tuple(alpha), k, _multinomial)


def q_mult_recurrence_check(alpha) -> bool:
    """Deletion recurrence for the q-multinomial: summing the first-letter
    contributions over all positions recovers the full multinomial."""
    alpha = tuple(alpha)
    n = sum(alpha)
    return q_multinomial(n, alpha) == partial_sum_multinomial_by_sum(alpha, len(alpha))


def deformed_multinomial_by_deletion(alpha, d: int) -> QPoly:
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
        inner = substitute_power(partial_sum_multinomial_by_sum(beta, m // d), m)
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
    num = num * substitute_power(_multinomial(alpha), m)
    if n == 0:
        den = QPoly(0, (d,))  # [d] at q**0 degenerates to the constant d
    else:
        den = substitute_power(QPoly(0, (1,) * d), n * m // d)  # [d] in q**(nm/d)
    return divide_exact(num, den)


@cache
def _block_preimages(p: Partition) -> dict[tuple[int, ...], list[Tableau]]:
    """The block covers of every filling t of p, read at the transpose: t's
    values map to each u' whose block rule takes u to t'."""
    out = {}
    for u in enumerate_tableaux(p.conjugate()):
        if (mv := block_rule(u)) is not None:
            out.setdefault(mv.apply(u).transpose().values, []).append(u.transpose())
    return out


def strong_covers(t: Tableau) -> list[Tableau]:
    """Upper covers of t in the strong order, by its definition: s covers t
    when the positive rotations or the block rule take t to s, or take s' to
    t'.  The big-rectangle extremes are left out.  The rotation half still
    scans the negative rotations at t itself, where `build_poset` reads them
    off the positive rotations at t'.  The block half still calls
    `block_rule`, so it stays shared with the build: at t, and once on every
    filling of the conjugate shape (`_block_preimages`) for the rules that
    take some s' to t'."""
    p = t.shape
    excl = {minmaj_tableau(p), maxmaj_tableau(p)} if p.is_big_rectangle() else set()
    moves = positive_rotations(t) + negative_rotations(t) + [block_rule(t)]
    out = {mv.apply(t) for mv in moves if mv is not None}
    out.update(_block_preimages(p).get(t.values, ()))
    return sorted(out - excl, key=lambda y: y.row_reading_word())


def weak_compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, m - 1):
            yield (first,) + rest


def block_shapes(n: int, m: int) -> Iterator[BlockShape]:
    """All sequences of m partitions with n cells total (empties allowed)."""
    for alpha in weak_compositions(n, m):
        pools = [list(partitions(a)) for a in alpha]
        for combo in itertools.product(*pools):
            yield BlockShape(combo)


# ---------------------------------------------------------------------------
# per-shape workers (module level so process pools can pickle them)


def _check_stanley(p: Partition) -> tuple[str, bool, str]:
    got = expand(stanley(p))
    want = maj_gf_oracle(p)
    return str(p), got == want, "" if got == want else f"{got!r} != {want!r}"


def _check_support_a(p: Partition) -> tuple[str, bool, str]:
    pred = support_type_A(p)
    report = verify_support(pred, maj_gf_oracle(p), str(p))
    excl_ok = (
        pred.excluded
        == (frozenset({b_statistic(p) + 1, comb(p.n, 2) - b_statistic(p.conjugate()) - 1})
           if p.is_big_rectangle() else frozenset())
    )
    ok = report.equal and excl_ok
    return str(p), ok, "" if ok else report.to_json_str()


def _check_phi(p: Partition) -> tuple[str, bool, str]:
    exc = exceptional_set(p)
    for t in enumerate_tableaux(p):
        if t in exc:
            continue
        y = phi(t)  # raises PhiBranchError on any gap
        if y.maj() != t.maj() + 1 or y.shape != p:
            return str(p), False, f"bad image for {t.to_text()}"
    return str(p), True, ""


def _check_poset(p: Partition) -> tuple[str, bool, str]:
    problems = []
    strong = build_poset(p, "strong")
    weak = build_poset(p, "weak")
    for poset in (strong, weak):
        rep = verify_ranked(poset)
        if not rep.ok():
            problems.append(f"{poset.flavor}: {rep}")
    if not weak.edge_pairs() <= strong.edge_pairs():
        problems.append("weak covers not among strong covers")
    index = {t.values: i for i, t in enumerate(strong.elements)}
    bad = [t.to_text() for t, ups in zip(strong.elements, strong.covers)
           if sorted(index[y.values] for y in strong_covers(t)) != list(ups)]
    if bad:
        problems.append(f"build_poset's strong covers differ from strong_covers at {bad[:3]}")
    return str(p), not problems, "; ".join(problems)


def _check_des(p: Partition) -> tuple[str, bool, str]:
    want = support_des(p).degrees
    actual = set(des_gf_oracle(p).support())
    ok = actual == want
    return str(p), ok, "" if ok else f"des support {sorted(actual)} != {sorted(want)}"


def _check_majdes(p: Partition) -> tuple[str, bool, str]:
    vals = majdes_values_oracle(p)
    ok = vals == set(range(min(vals), max(vals) + 1))
    return str(p), ok, "" if ok else f"maj-des gap: {sorted(vals)}"


def _check_gmdn_block(arg: tuple[BlockShape, int, int]) -> tuple[str, bool, str]:
    blocks, m, d = arg
    name = f"{blocks} m={m} d={d}"
    got = gmdn_fake_degree(blocks, m, d)
    want = gmdn_gf_oracle(blocks, m, d)
    if got != want:
        return name, False, f"{got!r} != {want!r}"
    if blocks.n >= 1:
        rep = verify_support(support_gmdn(blocks, m, d), got, str(blocks))
        if not rep.equal:
            return name, False, rep.to_json_str()
    return name, True, ""


def _check_composition(alpha: tuple[int, ...]) -> tuple[int, list[tuple[str, bool, str]]]:
    """Every deformed multinomial of alpha against the rational and the
    deletion-term oracles, and every partial sum against the word oracle."""
    m = len(alpha)
    bad = []
    checked = 0
    for d in (d for d in range(1, m + 1) if m % d == 0):
        summ = deformed_multinomial(alpha, d)
        checked += 1
        if not (summ == deformed_multinomial_rational(alpha, d)
                == deformed_multinomial_by_deletion(alpha, d)):
            bad.append((f"alpha={alpha} d={d}", False, "formula mismatch"))
    for k in range(1, m + 1):
        got = partial_sum_multinomial(alpha, k)
        want = word_inv_oracle(alpha, k)
        facts = shape_predicates(got)
        checked += 1
        if got != want or not (facts.symmetric and facts.unimodal):
            bad.append((f"p alpha={alpha} k={k}", False, f"{got!r} != {want!r}"))
    return checked, bad


def _check_bipartition(blocks: BlockShape) -> tuple[int, list[tuple[str, bool, str]]]:
    """The type B and type D fake degrees of lam|mu against their products."""
    lam, mu = blocks.blocks
    okb = type_b_closed_form(lam, mu) == wreath_fake_degree(blocks, 2)
    okd = type_d_closed_form(lam, mu) == gmdn_fake_degree(blocks, 2, 2)
    bad = [] if okb and okd else [(f"({lam})|({mu})", False, f"B ok={okb} D ok={okd}")]
    return 2, bad


# ---------------------------------------------------------------------------
# suites


def _map_maybe_parallel(fn: Callable, items: Iterable, threads: int) -> Iterable:
    """fn of each item in order: lazily here, or from a process pool as a list."""
    if threads > 1 and len(items := list(items)) > 1:
        # imported here: multiprocessing would add some 36 modules to every
        # `import sytmaj.cli`, threaded or not
        from concurrent.futures import ProcessPoolExecutor
        workers = min(threads, len(items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
    return map(fn, items)


def _shapes(max_n: int) -> list[Partition]:
    return [p for n in range(1, max_n + 1) for p in partitions(n)]


def _compositions(max_n: int, max_m: int) -> list[tuple[int, ...]]:
    return [alpha for n in range(1, max_n + 1) for m in range(1, max_m + 1)
            for alpha in weak_compositions(n, m)]


def _gmdn_cases(max_n: int, max_m: int) -> Iterator[tuple[BlockShape, int, int]]:
    return ((blocks, m, d) for n in range(1, max_n + 1) for m in range(1, max_m + 1)
            for d in range(1, m + 1) if m % d == 0 for blocks in block_shapes(n, m))


def _bipartitions(max_n: int) -> list[BlockShape]:
    return [BlockShape((lam, mu)) for n in range(1, max_n + 1) for k in range(n + 1)
            for lam in partitions(k) for mu in partitions(n - k)]


# frozen regression vectors (exact coefficient data for small named cases)
REGRESSION_CASES: dict[str, QPoly] = {
    "stanley 4,2": QPoly(2, (1, 1, 2, 1, 2, 1, 1)),
    "stanley 4,2,1": QPoly(4, (1, 2, 3, 4, 5, 5, 5, 4, 3, 2, 1)),
    "wreath m=2 2|3,1": QPoly.from_terms(
        {6: 1, 8: 2, 10: 4, 12: 5, 14: 7, 16: 7, 18: 7, 20: 5, 22: 4, 24: 2, 26: 1}
    ),
    "wreath m=2 |3,3": QPoly.from_terms({12: 1, 16: 1, 18: 1, 20: 1, 24: 1}),
    "gmdn m=2 d=2 2|3,1": QPoly.from_terms(
        {4: 1, 6: 3, 8: 6, 10: 8, 12: 9, 14: 8, 16: 6, 18: 3, 20: 1}
    ),
    "gmdn m=2 d=2 |3,3": QPoly.from_terms({6: 1, 10: 1, 12: 1, 14: 1, 18: 1}),
    "deformed 2,1,1,1 d=2": QPoly.from_terms(
        {6: 1, 8: 1, 10: 3, 12: 3, 14: 6, 16: 5, 18: 8, 20: 6, 22: 8,
         24: 5, 26: 6, 28: 3, 30: 3, 32: 1, 34: 1}
    ),
    "multinomial 5,(2,1,1,1) in q^4": QPoly.from_terms(
        {0: 1, 4: 3, 8: 6, 12: 9, 16: 11, 20: 11, 24: 9, 28: 6, 32: 3, 36: 1}
    ),
}


def _regression_checks() -> list[tuple[str, bool, str]]:
    rows: list[tuple[str, bool, str]] = []

    def add(name: str, got: QPoly, want: QPoly) -> None:
        rows.append((name, got == want, "" if got == want else f"{got!r} != {want!r}"))

    add("stanley 4,2", expand(stanley(Partition((4, 2)))), REGRESSION_CASES["stanley 4,2"])
    add("stanley 4,2,1", expand(stanley(Partition((4, 2, 1)))), REGRESSION_CASES["stanley 4,2,1"])
    facts42 = shape_predicates(expand(stanley(Partition((4, 2)))))
    rows.append(("4,2 symmetric not unimodal", facts42.symmetric and not facts42.unimodal, ""))
    facts421 = shape_predicates(expand(stanley(Partition((4, 2, 1)))))
    rows.append(("4,2,1 symmetric unimodal", facts421.symmetric and facts421.unimodal, ""))

    b1 = parse_blocks("2|3,1")
    b2 = parse_blocks("|3,3")
    b3 = parse_blocks("3,3|")
    add("wreath 2|3,1", wreath_fake_degree(b1, 2), REGRESSION_CASES["wreath m=2 2|3,1"])
    add("wreath |3,3", wreath_fake_degree(b2, 2), REGRESSION_CASES["wreath m=2 |3,3"])
    add("gmdn 2|3,1", gmdn_fake_degree(b1, 2, 2), REGRESSION_CASES["gmdn m=2 d=2 2|3,1"])
    add("gmdn |3,3", gmdn_fake_degree(b2, 2, 2), REGRESSION_CASES["gmdn m=2 d=2 |3,3"])
    rows.append((
        "gmdn |3,3 differs from wreath |3,3",
        gmdn_fake_degree(b2, 2, 2) != wreath_fake_degree(b2, 2),
        "",
    ))
    rows.append((
        "gmdn |3,3 == gmdn 3,3| == wreath 3,3|",
        gmdn_fake_degree(b2, 2, 2) == gmdn_fake_degree(b3, 2, 2) == wreath_fake_degree(b3, 2),
        "",
    ))

    mult = substitute_power(q_multinomial(5, (2, 1, 1, 1)), 4)
    add("multinomial (2,1,1,1) in q^4", mult, REGRESSION_CASES["multinomial 5,(2,1,1,1) in q^4"])
    den = QPoly.from_terms({0: 1, 10: 1})
    try:
        divide_exact(mult, den)
        rows.append(("undeformed multinomial not divisible by 1+q^10", False, "division succeeded"))
    except NonzeroRemainder:
        rows.append(("undeformed multinomial not divisible by 1+q^10", True, ""))
    num = (QPoly.monomial(6) + QPoly.monomial(8)) * mult
    add("rotation-sum quotient", divide_exact(num, den), REGRESSION_CASES["deformed 2,1,1,1 d=2"])
    add(
        "deformed 2,1,1,1 d=2",
        deformed_multinomial((2, 1, 1, 1), 2),
        REGRESSION_CASES["deformed 2,1,1,1 d=2"],
    )
    dot = build_poset(Partition((3, 2, 1)), "weak").to_dot()
    nodes = dot.count("[maj=")
    rows.append(("3,2,1 weak dot has 16 nodes", nodes == 16, f"nodes={nodes}"))
    return rows


def _hook_quotient_sq(p: Partition) -> QPoly:
    """[n]_{q^2}! / prod [h]_{q^2} computed from primitive q-analogues."""
    out = substitute_power(q_factorial(p.n), 2)
    for h in hook_lengths(p).values():
        out = divide_exact(out, substitute_power(q_int(h), 2))
    return out


def type_b_closed_form(lam: Partition, mu: Partition) -> QPoly:
    """Hyperoctahedral fake degree as a single product formula."""
    n = lam.n + mu.n
    poly = substitute_power(q_binomial(n, lam.n), 2)
    poly = poly * _hook_quotient_sq(lam) * _hook_quotient_sq(mu)
    return poly.shift(mu.n + 2 * b_statistic(lam) + 2 * b_statistic(mu))


def type_d_closed_form(lam: Partition, mu: Partition) -> QPoly:
    """Even-signed-permutation fake degree as a single product formula."""
    n = lam.n + mu.n
    num = (QPoly.monomial(lam.n) + QPoly.monomial(mu.n)) * substitute_power(
        q_binomial(n, lam.n), 2
    )
    poly = divide_exact(num, QPoly.from_terms({0: 1, n: 1}))
    poly = poly * _hook_quotient_sq(lam) * _hook_quotient_sq(mu)
    poly = poly.shift(2 * b_statistic(lam) + 2 * b_statistic(mu))
    return divide_exact_int(poly, 2) if lam == mu else poly


PERF_SHAPE = Partition((19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
PERF_BUDGET_S = 10.0


def _performance_checks() -> list[tuple[str, bool, str]]:
    assert PERF_SHAPE.n == 200
    t0 = time.perf_counter()
    poly = expand(stanley(PERF_SHAPE))
    elapsed = time.perf_counter() - t0
    return [
        (f"expand 200-cell shape in {elapsed:.2f}s", elapsed < PERF_BUDGET_S,
         f"budget {PERF_BUDGET_S}s"),
        ("q=1 matches hook-length count", poly.eval_at_1() == syt_count(PERF_SHAPE), ""),
    ]


@dataclass(frozen=True)
class Suite:
    """One row of `SUITES`.

    A bounded row runs each (check, n) of `checks` on every case of
    `cases(n)`, where n is a default size bound, capped by --max-n.  A row
    without checks has fixed cases: `cases()` returns its (name, ok, detail)
    rows.
    """
    cases: Callable[..., Iterable]
    checks: tuple[tuple[Callable, int], ...] = ()
    unit: str = "checks"  # a passing bounded row reads "N {unit}"


SUITES: dict[str, Suite] = {
    "stanley": Suite(_shapes, ((_check_stanley, 12),)),
    "support-a": Suite(_shapes, ((_check_support_a, 12),)),
    "phi": Suite(_shapes, ((_check_phi, 9),)),
    "poset": Suite(_shapes, ((_check_poset, 8),)),
    "des": Suite(_shapes, ((_check_des, 12), (_check_majdes, 10))),
    "regression": Suite(_regression_checks),
    "deformed": Suite(partial(_compositions, max_m=6), ((_check_composition, 8),),
                      "deformed checks"),
    "gmdn": Suite(partial(_gmdn_cases, max_m=4), ((_check_gmdn_block, 6),)),
    "closed-forms": Suite(_bipartitions, ((_check_bipartition, 6),), "closed-form checks"),
    "performance": Suite(_performance_checks),
    "parity": Suite(_shapes, ((check_parity_unimodal, 20),)),
}


def _run_case(work: tuple[Callable, object]) -> tuple[int, list[tuple[str, bool, str]]]:
    """(number of checks, failing rows) of one case.  A check returns that
    pair, one (name, ok, detail) row, or a bool for a case named by str()."""
    check, case = work
    got = check(case)
    if isinstance(got, bool):
        got = str(case), got, ""
    if isinstance(got[0], str):
        got = 1, [] if got[1] else [got]
    return got


def _run_suite(name: str, max_n: int | None, threads: int) -> list[CheckResult]:
    """Every row of a fixed suite; for a bounded one, its failing rows in
    work order, or one row counting its checks, or `no cases ran`."""
    suite = SUITES[name]
    if not suite.checks:
        return [CheckResult(name, *row) for row in suite.cases()]
    work = ((check, case) for check, n in suite.checks
            for case in suite.cases(n if max_n is None else min(max_n, n)))
    checked, bad = 0, []
    for k, rows in _map_maybe_parallel(_run_case, work, threads):
        checked += k
        bad += (CheckResult(name, *row) for row in rows)
    if bad:
        return bad
    if not checked:
        return [CheckResult(name, "no cases ran", False)]
    return [CheckResult(name, f"{checked} {suite.unit}", True)]


def run_suites(
    names: Iterable[str], max_n: int | None = None, threads: int = 1
) -> tuple[list[CheckResult], bool]:
    results = [r for name in names for r in _run_suite(name, max_n, threads)]
    return results, all(r.ok for r in results)
