"""Tableau mutations: rotation rules, block rules, the maj-increment map,
and the strong/weak ranked poset structures they induce.

All moves act on straight-shape standard tableaux by permuting values; a
forward move raises the major index by exactly one.  `Move.image` is the
one way a move is applied: it maps a values tuple through the successor
map each `Move` builds once, and `Move.apply` checks that the image is a
standard filling.  A rotation's `Move` is cached per (i, k, j) triple, a
block move per parameter tuple.  The rotation scans, the block-rule matchers
and phi's case analysis read each value's row and column from the arrays of
`tableaux.coords`.

A `build_poset` node is its values tuple, sorted with the maj that
`tableaux.fillings` yields.  Both steps return `Move`s, and a cover is a
move's image of a node's values plus one dict lookup.  The ground set is
every standard filling minus, for a big rectangle, the two extremes, so a
lookup that misses and is not one of those two is a filling the move left
non-standard, and it raises.  It is built once per shape (`_ground`) and
shared by the strong and the weak order; only the last shape's is kept.

The negative-rotation conditions are the positive ones on the
anti-transposed filling: rows and columns swapped and each value v read as
n+1-v.  `_negative_rotations` is the positive scan run on that filling, so
the rotation conditions live in one scan.  Its rectangle tests compare
rows, and one compares columns (see `_positive_rotations`).

Each order is one step, taken at t and at its transpose t' (see
`build_poset`): the positive rotations and the block rule for the strong
order, phi for the weak one, which skips the exceptional fillings at t and
at t'.  Transposition complements the descent set, so the positive
rotations at t' read back are the negative rotations into t, and a strong
build never runs the negative scan.  Both steps read only the row and
column arrays, and t' is the same arrays swapped, so no step transposes a
tableau.  On a self-conjugate shape transposition maps the ground set to
itself and reverses maj, so there the step is taken at t alone and each
edge is mirrored.  `verify.strong_covers` finds one tableau's strong
covers from the same definition, scanning the negative rotations at t
itself and running the block rule over the conjugate shape's fillings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from math import comb
from operator import itemgetter
from typing import Iterator

from .shapes import Partition, b_statistic
from .tableaux import Tableau, coords, exceptional_set, fillings


class ExceptionalTableau(ValueError):
    """The maj-increment map is not defined on exceptional tableaux."""


class PhiBranchError(RuntimeError):
    """No branch of the maj-increment case analysis produced a valid move.

    This never fires on standard straight-shape input; it exists so that a
    gap would surface as a loud failure instead of a silent wrong answer.
    """


@dataclass(frozen=True)
class Move:
    """One mutation: a value permutation given as disjoint cycles, where each
    cycle entry maps to its successor (and the last wraps to the first).
    Reversing every cycle gives the inverse move.  The successor map is
    built on first use and is no field: it takes no part in ==, hash or
    repr."""

    kind: str  # positive_rotation | negative_rotation | B1..B5
    cycles: tuple[tuple[int, ...], ...]
    interval: tuple[int, int] | None = None  # rotations: [i, k]
    descent: int | None = None  # rotations: the moving descent j
    params: tuple = ()  # block rules: rule-specific parameters

    @cached_property
    def _successor(self) -> dict[int, int]:
        return {a: b for cyc in self.cycles for a, b in zip(cyc, cyc[1:] + cyc[:1])}

    def image(self, values: tuple[int, ...]) -> tuple[int, ...]:
        """The values with each cycle entry replaced by its successor."""
        succ = self._successor
        return tuple(map(succ.get, values, values))

    def apply(self, t: Tableau) -> Tableau:
        """The move applied to t's values; ValueError unless the result is a
        standard filling of t's shape."""
        return Tableau(t.shape, self.image(t.values))


@cache
def _positive_move(i: int, k: int, j: int) -> Move:
    return Move("positive_rotation", (tuple(range(i, k + 1)),), interval=(i, k), descent=j)


@cache
def _negative_move(i: int, k: int, j: int) -> Move:
    return Move("negative_rotation", (tuple(range(k, i - 1, -1)),), interval=(i, k), descent=j)


# ---------------------------------------------------------------------------
# rotation rules
#
# The scans read each value's row and column from the arrays of
# `tableaux.coords`.  Entries 0 and n+1 hold the sentinel row 0, above every
# row of a filling but below every row of the anti-transposed arrays that
# `_negative_rotations` passes (-c <= -1); each row test of the scan reads a
# sentinel as outside its rectangle in both orientations.


def _positive_rotations(rows: list[int], cols: list[int]) -> list[tuple[int, int, int]]:
    """(i, k, j): interval [i, k] and moving descent j of each positive rotation."""
    n = len(rows) - 2
    moves = []
    # Standard fillings let rows decide all rectangle tests but one.  F1: v
    # below v-1 sits weakly west of it, v weakly above v-1 strictly east.  F2:
    # a strictly north-west of b puts a value between them at (a's row, b's col).
    for j in range(2, n + 1):
        # j-1, j in a common vertical strip
        if rows[j] <= rows[j - 1]:
            continue
        last = j
        while last < n and rows[last + 1] <= rows[last]:
            last += 1
        # The right end k alone decides its condition: k strictly north-east
        # of k-1 with k+1 outside their rectangle, or k = j with k+1 inside.
        # k > j: k+1 weakly above k is east of k (F1); below k and at or above
        # k-1's row, east of k-1.  k = j: k+1 in j-1's row is east of it; below
        # it, east of j (F1), and east of j-1 only if F2 put j in its row.
        rights = [k for k in range(j, last + 1) if (
            rows[k] < rows[k - 1] and not rows[k] < rows[k + 1] <= rows[k - 1]
            if j < k else rows[j - 1] < rows[j + 1] <= rows[j])]
        if not rights:
            continue
        # i = j: j-1 inside the rectangle of j and k.  A k at or above j-1's
        # row is larger, so east of it; this rejects k = j, below j-1.
        moves += [(j, k, j) for k in rights if rows[k] <= rows[j - 1]]
        # i-1, i in a common horizontal strip for first < i < j; the guard
        # first >= 2 is needed, as the anti-transposed sentinel is below all rows
        first = j - 1
        while first >= 2 and rows[first] <= rows[first - 1]:
            first -= 1
        # i < j: i strictly north-east of k (a smaller value east of k is north
        # of it), i-1 outside their rectangle.  i-1 at or below i's row is west
        # of i (F1); west of k too, F2 puts one of i..k-1 at (i-1's row, k's
        # col), but i is east of k, i+1..j-1 above i's row or east of i in it,
        # and j..k-1 west of k (F1).
        moves += [(i, k, j) for i in range(j - 1, first - 1, -1) for k in rights
                  if cols[i] > cols[k] and not rows[i] <= rows[i - 1] < rows[k]]
    return moves


def _negative_rotations(rows: list[int], cols: list[int]) -> list[tuple[int, int, int]]:
    """The positive scan on the anti-transposed filling, where value v
    becomes n+1-v and cell (r, c) becomes (-c, -r); the sentinel 0 stays 0.
    Its forward cycle on [i, k] at descent j is the backward cycle on
    [n+1-k, n+1-i] at descent n+1-j here."""
    m = len(rows) - 1  # n + 1
    mirrored = _positive_rotations([-c for c in reversed(cols)], [-r for r in reversed(rows)])
    return [(m - k, m - i, m - j) for i, k, j in mirrored]


def positive_rotations(t: Tableau) -> list[Move]:
    """All intervals whose forward cycle raises maj by one: the moving
    descent j slides from j-1, with horizontal strips on both sides and
    bounding-rectangle conditions at the ends."""
    return [_positive_move(*r) for r in _positive_rotations(*t.coords())]


def negative_rotations(t: Tableau) -> list[Move]:
    """All intervals whose backward cycle raises maj by one: the positive
    conditions on the anti-transposed filling, so with vertical strips on
    both sides."""
    return [_negative_move(*r) for r in _negative_rotations(*t.coords())]


def _find_rotation(rows: list[int], cols: list[int], i: int, k: int) -> Move | None:
    for scan, move in (_positive_rotations, _positive_move), (_negative_rotations, _negative_move):
        for r in scan(rows, cols):
            if r[:2] == (i, k):
                return move(*r)
    return None


# ---------------------------------------------------------------------------
# block rules


def _holds(rows: list[int], cols: list[int], v: int, r: int, c: int) -> bool:
    """Does value v sit in cell (r, c)?  False past n (the sentinel n+1 has row 0)."""
    return v < len(rows) and rows[v] == r and cols[v] == c


def _abc(rows: list[int], cols: list[int]) -> tuple[int, int, int]:
    """Largest c with the first c values filling an a-wide rectangle row by
    row, where 1..a is the initial run of row 1; returns (a, rows used, c)."""
    n = len(rows) - 2
    a = 0
    while rows[a + 1] == 1:  # row 1 of a standard filling starts 1, 2, ..., a
        a += 1
    if not _holds(rows, cols, a + 1, 2, 1):
        return a, 1, a
    r, col, c = 2, 1, a + 1
    while c < n:
        nr, nc = (r, col + 1) if col < a else (r + 1, 1)
        if _holds(rows, cols, c + 1, nr, nc):
            r, col, c = nr, nc, c + 1
        else:
            break
    return a, r, c


@cache
def _b1_move(a: int, b: int, c: int) -> Move:
    return Move("B1", (tuple(range(2, a + 2)), (c, c + 1)), params=(a, b, c))


@cache
def _b2_move(a: int, b: int, c: int) -> Move:
    seq = (
        list(range(2, a + 1))
        + [i * a for i in range(2, b)]
        + list(range(c, (b - 1) * a, -1))
        + [(b - 1 - i) * a + 1 for i in range(1, b - 1)]
    )
    return Move("B2", (tuple(seq),), params=(a, b, c))


@cache
def _b3_move(a: int, k: int) -> Move:
    return Move("B3", (tuple(range(2, a + 1)) + (a + k + 1, a + 1),), params=(a, k))


@cache
def _b4_move(k: int, l: int) -> Move:
    return Move(
        "B4",
        (tuple(range(k + 1, 1, -1)), tuple(range(k * (l - 1) + 1, k * l + 2))),
        params=(k, l),
    )


@cache
def _b5_move(k: int) -> Move:
    return Move(
        "B5",
        (tuple(range(k, 1, -1)) + tuple(range(k + 1, 2 * k)),),
        params=(k,),
    )


def _match_b1(rows: list[int], cols: list[int], abc: tuple[int, int, int]) -> Move | None:
    a, b, c = abc
    if a < 2 or b < 2 or c != a * b or a >= c - 2:
        return None
    if not (_holds(rows, cols, c + 1, 1, a + 1) and _holds(rows, cols, c + 2, 2, a + 1)):
        return None
    return _b1_move(a, b, c)


def _match_b2(abc: tuple[int, int, int]) -> Move | None:
    a, b, c = abc
    if a < 2 or b < 2 or c >= a * b:
        return None
    # _abc reaches row b only through (b-1)a+1 at (b, 1), and stops at the
    # largest c, so c sits at (b, c - (b-1)a) with c+1 not next to it.
    # Row b with a single cell belongs to the B3/B4/B5 patterns instead.
    if b == 2 and c == a + 1:
        return None
    return _b2_move(a, b, c)


def _match_b3(rows: list[int], cols: list[int], a: int) -> Move | None:
    if a < 3:
        return None
    k = 0
    while _holds(rows, cols, a + 1 + k, 2 + k, 1):
        k += 1
    if k < 2:
        return None
    if not (_holds(rows, cols, a + k + 1, 2, 2) and _holds(rows, cols, a + k + 2, 3, 2)):
        return None
    return _b3_move(a, k)


def _column_run(rows: list[int], cols: list[int]) -> int:
    """Largest r >= 1 with T(1,2) = 2 and T(s,1) = s+1 for s = 2..r; 0 if T(1,2) != 2."""
    if not _holds(rows, cols, 2, 1, 2):
        return 0
    r = 1
    while _holds(rows, cols, r + 2, r + 1, 1):
        r += 1
    return r


def _match_b4(rows: list[int], cols: list[int]) -> Move | None:
    k = _column_run(rows, cols)
    if k < 2:
        return None
    for r in range(2, k + 1):
        if not _holds(rows, cols, k + r, r, 2):
            return None
    l = 2
    while all(_holds(rows, cols, l * k + r, r, l + 1) for r in range(1, k + 1)):
        l += 1
    if l < 3:
        return None
    if not _holds(rows, cols, k * l + 1, k + 1, 1) or _holds(rows, cols, k * l + 2, k + 1, 2):
        return None
    return _b4_move(k, l)


def _match_b5(rows: list[int], cols: list[int]) -> Move | None:
    k = _column_run(rows, cols) + 1
    if k <= 3:
        return None
    for rr in range(2, k):
        if not _holds(rows, cols, k + rr - 1, rr, 2):
            return None
    if not _holds(rows, cols, 2 * k - 1, k, 1) or _holds(rows, cols, 2 * k, k, 2):
        return None
    return _b5_move(k)


def _block_matches(rows: list[int], cols: list[int]) -> Iterator[Move | None]:
    """Each block rule's match, B1 to B5, None where it does not apply: all
    five, where `_block_rule` stops at the first."""
    abc = _abc(rows, cols)
    yield _match_b1(rows, cols, abc)
    yield _match_b2(abc)
    yield _match_b3(rows, cols, abc[0])
    yield _match_b4(rows, cols)
    yield _match_b5(rows, cols)


def _block_rule(rows: list[int], cols: list[int]) -> Move | None:
    """The unique block rule applying to the filling, if any.  The five
    patterns are mutually exclusive.  Every one needs row 1 to start 1..a
    with a >= 2 and a+1 under the 1 (B4 and B5 with a = 2), so a filling
    without both is rejected before any matcher runs."""
    abc = _abc(rows, cols)
    if abc[0] < 2 or abc[1] < 2:
        return None
    return (_match_b1(rows, cols, abc) or _match_b2(abc)
            or _match_b3(rows, cols, abc[0]) or _match_b4(rows, cols) or _match_b5(rows, cols))


def block_rule(t: Tableau) -> Move | None:
    """The unique block rule applying to t, if any."""
    if not isinstance(t.shape, Partition):
        raise ValueError("block rules are defined for straight shapes only")
    return _block_rule(*t.coords())


# ---------------------------------------------------------------------------
# the maj-increment map


def _maxmaj_prefix(rows: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Largest z whose initial values extend to a max-maj filling, and those
    values cut into chunks: successive outermost vertical strips read from
    outside in, each from its bottom value up, the first possibly cut to a
    top segment.

    One scan up from z = 1, where the value 1 is a chunk by itself.  Value
    z+1 extends a valid prefix exactly when it sits one row below z, at the
    bottom of the first chunk, or in row 1 with the first chunk reaching
    the prefix's lowest row, where it starts a new chunk.  The scan stops
    at the first value that does neither: dropping the largest value of a
    valid prefix leaves a valid one, so no longer prefix is valid.
    """
    if rows[1] != 1:  # the empty filling reads the sentinel 0 here
        raise PhiBranchError("no max-maj prefix; tableau is not standard")
    strips = [[1]]  # innermost first, each from its top value down
    lowest = prev = 1
    for v in range(2, len(rows) - 1):
        r = rows[v]
        if r == prev + 1:
            strips[-1].append(v)
        elif r == 1 and prev == lowest:
            strips.append([v])
        else:
            break
        prev, lowest = r, max(lowest, r)
    return strips[-1][-1], [tuple(reversed(s)) for s in reversed(strips)]


def _negrot_from_prefix(rows: list[int]) -> Move:
    """The negative rotation guaranteed by the max-maj prefix analysis."""
    z, chunks = _maxmaj_prefix(rows)
    # the prefix shape: each row's length and the value that ends it
    lengths, ends = [0] * len(rows), [0] * len(rows)
    for v in range(1, z + 1):
        lengths[rows[v]] += 1
        ends[rows[v]] = v
    lowest = max(rows[1:z + 1])
    rz = rows[z]
    if rz < lowest:
        # topmost corner of the prefix shape strictly below z
        for r in range(rz + 1, lowest + 1):
            if lengths[r] > lengths[r + 1]:
                i = ends[r]
                break
        else:  # pragma: no cover - the last row always ends in a corner
            raise PhiBranchError("no corner below z")
        j = next(max(ch) for ch in chunks if i in ch)
    else:
        if z >= len(rows) - 2:
            raise PhiBranchError("max-maj prefix covers the whole tableau")
        r1 = rows[z + 1]
        if r1 < 2:
            raise PhiBranchError("value after the prefix sits in row 1")
        i = ends[r1 - 1]
        j = z
    if not 0 < i < z:
        raise PhiBranchError("prefix analysis produced no interval")
    return _negative_move(i, z, j)


def _require(mv: Move | None, why: str) -> Move:
    if mv is None:
        raise PhiBranchError(why)
    return mv


def phi_move(t: Tableau) -> Move:
    """The specific move the maj-increment map applies to t, a standard
    straight tableau outside the exceptional set (ExceptionalTableau
    otherwise)."""
    if not isinstance(t.shape, Partition):
        raise ValueError("the maj-increment map is defined for straight shapes")
    if t in exceptional_set(t.shape):
        raise ExceptionalTableau(t.to_text())
    return _phi_move(*t.coords())


def _phi_move(rows: list[int], cols: list[int]) -> Move:
    """The move the maj-increment map applies to the filling whose values
    sit at these rows and columns, which must be standard, straight and not
    exceptional.  Every test of the case analysis reads the two arrays: v is
    a descent when rows[v+1] > rows[v], which the sentinel at n+1 rules out
    for v = n, and _holds tells whether v sits in a given cell."""
    n = len(rows) - 2
    if rows[2] > rows[1]:  # 1 is a descent
        return _negrot_from_prefix(rows)

    if rows[3] <= rows[2]:  # 2 is no descent
        abc = a, b, c = _abc(rows, cols)
        if b < 2 or a + 2 > n:
            raise PhiBranchError("degenerate shape outside the exceptional set")
        if _holds(rows, cols, a + 2, 1, a + 1):
            return _negrot_from_prefix(rows)
        if _holds(rows, cols, a + 2, 2, 2):
            if c == a * b:
                if _holds(rows, cols, c + 2, 2, a + 1):
                    return _require(_match_b1(rows, cols, abc), "B1 expected")
                # row b of the rectangle starts with (b-1)a+1
                return _require(_find_rotation(rows, cols, (b - 1) * a + 1, c + 1),
                                "rotation [row-b start, c+1] expected")
            return _require(_match_b2(abc), "B2 expected")
        if _holds(rows, cols, a + 2, 3, 1):
            k3 = 2
            while rows[a + k3 + 1] > rows[a + k3]:
                k3 += 1
            if a + k3 + 1 > n:
                raise PhiBranchError("column chain exhausts the tableau")
            if _holds(rows, cols, a + k3 + 1, 1, a + 1):
                return _negrot_from_prefix(rows)
            if _holds(rows, cols, a + k3 + 1, 2, 2):
                if _holds(rows, cols, a + k3 + 2, 3, 2):
                    return _require(_match_b3(rows, cols, a), "B3 expected")
                return _require(
                    _find_rotation(rows, cols, a + k3, a + k3 + 1), "adjacent swap expected"
                )
        raise PhiBranchError(f"value {a + 2} in unexpected position {(rows[a + 2], cols[a + 2])}")

    # 1 not a descent, 2 a descent
    k = 3
    while rows[k + 1] > rows[k]:
        k += 1
    if k + 1 > n:
        raise PhiBranchError("first-column chain exhausts the tableau")
    if _holds(rows, cols, k + 1, 1, 3):
        return _negrot_from_prefix(rows)
    if not _holds(rows, cols, k + 1, 2, 2):
        raise PhiBranchError(f"value {k + 1} in unexpected position {(rows[k + 1], cols[k + 1])}")
    ell = k + 1
    r = 2
    while _holds(rows, cols, ell + 1, r + 1, 2):
        ell += 1
        r += 1
    if ell < 2 * (k - 1):
        return _require(_find_rotation(rows, cols, k, ell), "negative rotation [k, ell] expected")
    if _holds(rows, cols, ell + 1, 1, 3):
        # walk full columns of height k-1 to the right
        col, p = 3, ell
        while True:
            run = 0
            while run < k - 1 and _holds(rows, cols, p + run + 1, run + 1, col):
                run += 1
            if run == k - 1:
                p += k - 1
                col += 1
                continue
            if run > 0:
                q = p + run
                if k == 3 and col == 3:
                    # Degenerate two-row corner: the cell above the pivot in
                    # column 2 is the 2, so the backward cycle breaks; the
                    # forward cycle on the same interval is the valid move.
                    return _require(
                        _find_rotation(rows, cols, k, q), "positive rotation [k, q] expected"
                    )
                return _require(_find_rotation(rows, cols, p, q),
                                "negative rotation [p, q] expected")
            if _holds(rows, cols, p + 1, k, 1):
                if _holds(rows, cols, p + 2, k, 2):
                    return _require(_find_rotation(rows, cols, p, p + 1), "adjacent swap expected")
                return _require(_match_b4(rows, cols), "B4 expected")
            raise PhiBranchError("rectangle continuation missing")
    if not _holds(rows, cols, ell + 1, k, 1):
        raise PhiBranchError("column-2 block ends unexpectedly")
    if k > 3:
        if _holds(rows, cols, ell + 2, k, 2):
            return _require(_find_rotation(rows, cols, ell, ell + 1), "adjacent swap expected")
        return _require(_match_b5(rows, cols), "B5 expected")
    abc = a2, b2, c2 = _abc(rows, cols)
    if c2 == a2 * b2:
        if _holds(rows, cols, c2 + 2, 2, 3):
            return _require(_match_b1(rows, cols, abc), "B1 expected")
        # The adjacent swap (c, c+1) breaks here: nothing leaves the descent
        # set.  The forward cycle from the start of the bottom row, (b-1)a+1,
        # is the move that works, as in the row-filled rectangle case.
        return _require(_find_rotation(rows, cols, (b2 - 1) * a2 + 1, c2 + 1),
                        "rotation [row-b start, c+1] expected")
    return _require(_match_b2(abc), "B2 expected")


def phi(t: Tableau) -> Tableau:
    """Apply the maj-increment map; total on standard straight tableaux
    outside the exceptional set, raising maj by exactly one."""
    mv = phi_move(t)
    try:
        out = mv.apply(t)
    except ValueError as exc:
        raise PhiBranchError(f"{mv} broke standardness on {t.to_text()}") from exc
    if out.maj() != t.maj() + 1:
        raise PhiBranchError(f"{mv} changed maj by {out.maj() - t.maj()} on {t.to_text()}")
    return out


# ---------------------------------------------------------------------------
# posets


def _forward_moves(rows: list[int], cols: list[int]) -> list[Move]:
    """The strong step: the positive rotations and the block rule of the
    filling whose values sit at these rows and columns."""
    mv = _block_rule(rows, cols)
    return [_positive_move(*r) for r in _positive_rotations(rows, cols)] + ([mv] if mv else [])


@dataclass(frozen=True)
class SytPoset:
    """An order on the ground set, sorted by maj, then by row reading word."""

    flavor: str  # "strong" | "weak"
    shape: Partition
    elements: tuple[Tableau, ...]
    majs: tuple[int, ...]  # majs[i] = maj of element i, from the build
    covers: tuple[tuple[int, ...], ...]  # covers[i] = indices covering element i

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(i, j) for i, ups in enumerate(self.covers) for j in ups}

    def _labels(self) -> list[str]:
        """Each node's row reading word, joined by "-" from n = 10 on."""
        sep = "" if self.shape.n < 10 else "-"
        return [sep.join(map(str, t.row_reading_word())) for t in self.elements]

    def to_dot(self) -> str:
        labels = self._labels()
        lines = ["digraph syt_poset {", "  rankdir=BT;", "  node [shape=box];"]
        by_maj: dict[int, list[str]] = {}
        for label, maj in zip(labels, self.majs):
            lines.append(f'  "{label}" [maj={maj}];')
            by_maj.setdefault(maj, []).append(label)
        for maj in sorted(by_maj):
            names = " ".join(f'"{label}";' for label in by_maj[maj])
            lines.append("  { rank=same; %s }" % names)
        for label, ups in zip(labels, self.covers):
            for j in ups:
                lines.append(f'  "{label}" -> "{labels[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_adjacency(self) -> dict[str, list[str]]:
        labels = self._labels()
        return {label: [labels[j] for j in ups] for label, ups in zip(labels, self.covers)}


# maxsize=1: a shape's two orders are built back to back, and at most one ground set outlives them.
@lru_cache(maxsize=1)
def _ground(p: Partition) -> tuple:
    """The ground set of p for both orders: its values tuples, their majs and
    index, the excluded extremes' majs, each node's transpose index when p is
    self-conjugate, and the elements.  `fillings` runs first, so a shape past
    the cell bound raises before its cells are built."""
    keyed = list(fillings(p))
    word = itemgetter(*p.reading_order) if p.n > 1 else tuple
    keyed.sort(key=lambda f: (f[0], word(f[1])))
    extremes = (keyed.pop(0), keyed.pop()) if p.is_big_rectangle() else ()
    outside = {v: maj for maj, v in extremes}
    majs, ground = tuple(maj for maj, _ in keyed), tuple(v for _, v in keyed)
    index = {v: i for i, v in enumerate(ground)}
    conj, mirror = p.transpose_map
    flip = itemgetter(*mirror) if p.n > 1 else tuple
    tr = tuple(index[flip(v)] for v in ground) if conj == p else ()
    elements = tuple(Tableau(p, v, check=False) for v in ground)
    return ground, majs, index, outside, tr, elements


def build_poset(p: Partition, flavor: str) -> SytPoset:
    """The strong or weak order on the ground set of p.

    Each order has one step, taken at t and at its transpose t': s covers t
    when the step takes t to s, or takes s' to t'.  The strong step is the
    positive rotations and the block rule; the weak step is phi, skipped at
    t when t is exceptional and at t' when t' is.  Transposition complements
    the descent set, so a positive rotation taken at t' and read back is a
    negative rotation into t, and the block rule taken there is an
    inverse-transpose block rule.  Both steps read only each value's row and
    column, so at t' they read t's arrays swapped and transpose no tableau.
    The weak order's two skip sets hold the value tuples of the fillings t
    of p with t exceptional, and with t' exceptional; each is built once per
    build, the second by transposing the exceptional fillings of p'.

    A node is its values tuple; the ground set is the (maj, values) pairs
    of `fillings`, sorted by maj and row reading word, less the first and
    last (the unique min-maj and max-maj fillings) on a big rectangle.
    `_ground` builds it once per shape and keeps only the last shape's, so a
    shape's two orders share their `elements` and `majs`.  Every
    step is a value permutation, and permuting values commutes with
    transposition, so both steps land on `Move.image` of t's own values,
    looked up by value tuple (see the module docstring).  A miss that is not
    an excluded extreme raises, and so does an edge that does not change maj
    by one: ValueError as Move.apply does in the strong order,
    PhiBranchError as phi does in the weak one.

    When p is self-conjugate, t' is node tr[i] of the ground set, so the
    step is taken at t alone and each of its edges (i, j) also gives the
    edge (tr[j], tr[i]) of the step at t'.
    """
    if flavor not in ("strong", "weak"):
        raise ValueError(f"unknown poset flavor {flavor!r}")
    ground, majs, index, outside, tr, elements = _ground(p)
    conj = p.transpose_map[0]
    mirrored = conj == p
    if flavor == "strong":
        step, fault = _forward_moves, ValueError
        skip_up = skip_down = frozenset()
    else:
        fault = PhiBranchError
        skip_up = {e.values for e in exceptional_set(p)}
        skip_down = {e.transpose().values for e in exceptional_set(conj)}

        def step(rows: list[int], cols: list[int]) -> list[Move]:
            return [_phi_move(rows, cols)]

    def land(i: int, mv: Move, rise: int) -> int | None:
        """Index of the node mv takes ground[i] to, None for an excluded
        extreme.  The move acts on ground[i] (rise 1) or on its transpose
        (rise -1), whose maj is C(n,2) less ground[i]'s, so it must change
        ground[i]'s maj by `rise`."""
        key = mv.image(ground[i])
        j = index.get(key)
        maj = majs[j] if j is not None else outside.get(key)
        if maj is not None and rise * (maj - majs[i]) == 1:
            return j
        source = (elements[i] if rise > 0 else elements[i].transpose()).to_text()
        if maj is None:
            raise fault(f"{mv} broke standardness on {source}")
        raise fault(f"{mv} changed maj by {rise * (maj - majs[i])} on {source}")

    covers: list[list[int]] = [[] for _ in ground]
    for i, v in enumerate(ground):
        rows, cols = coords(p.cells, v)  # built once, for both steps
        if v not in skip_up:
            for mv in step(rows, cols):
                if (j := land(i, mv, 1)) is not None:
                    covers[i].append(j)
                    if mirrored:
                        covers[tr[j]].append(tr[i])
        if not mirrored and v not in skip_down:
            for mv in step(cols, rows):
                if (j := land(i, mv, -1)) is not None:
                    covers[j].append(i)
    return SytPoset(flavor, p, elements, majs, tuple(tuple(sorted(set(c))) for c in covers))


@dataclass(frozen=True)
class RankReport:
    flavor: str
    shape: str
    size: int
    ranked: bool
    unique_min: bool
    unique_max: bool
    graded: bool
    maj_min: int | None
    maj_max: int | None
    expected_min: int | None
    expected_max: int | None

    def ok(self) -> bool:
        return self.size == 0 or (
            self.ranked
            and self.maj_min == self.expected_min
            and self.maj_max == self.expected_max
        )


def verify_ranked(poset: SytPoset) -> RankReport:
    """Check unique source and sink, +1 grading on every cover, and the rank
    span implied by the shape (offset 2 inside for big rectangles)."""
    p = poset.shape
    n_cells = p.n
    big = p.is_big_rectangle()
    expected_min = b_statistic(p) + (2 if big else 0)
    expected_max = comb(n_cells, 2) - b_statistic(p.conjugate()) - (2 if big else 0)
    if not poset.elements:
        return RankReport(
            poset.flavor, str(p), 0, True, True, True, True, None, None, None, None
        )
    majs = poset.majs
    indeg = [0] * len(poset.elements)
    graded = True
    for i, ups in enumerate(poset.covers):
        for j in ups:
            indeg[j] += 1
            if majs[j] != majs[i] + 1:
                graded = False
    sources = [i for i, d in enumerate(indeg) if d == 0]
    sinks = [i for i, ups in enumerate(poset.covers) if not ups]
    unique_min, unique_max = len(sources) == 1, len(sinks) == 1
    ranked = unique_min and unique_max and graded
    return RankReport(
        poset.flavor,
        str(p),
        len(poset.elements),
        ranked,
        unique_min,
        unique_max,
        graded,
        min(majs),
        max(majs),
        expected_min,
        expected_max,
    )
