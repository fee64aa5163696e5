"""Standard Young tableaux on straight, skew, and block-diagonal shapes."""
from __future__ import annotations

import operator
from functools import cache
from typing import Iterator

from .shapes import (
    BlockShape,
    Cell,
    Partition,
    Shape,
    b_composition,
)


class BoundExceeded(ValueError):
    """Enumeration requested past the configured size bound."""


class ShapeNotOneRowBlocks(ValueError):
    """The word bijection needs every block to be a single row."""


def _is_bijection(values: tuple[int, ...]) -> bool:
    """Are the values exactly 1..len(values)?"""
    return set(values) == set(range(1, len(values) + 1))


class Tableau:
    """A standard filling of a shape; immutable by convention.

    `values[i]` is the entry in `shape.cells[i]` (cells in row-major order).
    That is the one representation: the value-major view, where each value
    sits, is `coords()`, built on demand and not stored.  With `check=False`
    the caller vouches that the values are integers, a bijection onto 1..n,
    and that the filling is standard; none of this is tested.
    """

    __slots__ = ("shape", "values", "_hash")

    def __init__(self, shape: Shape, values, check: bool = True):
        self.shape = shape
        self.values = values = tuple(map(operator.index, values) if check else values)
        n = len(shape.cells)
        if len(values) != n:
            raise ValueError("value count does not match shape size")
        if check and not _is_bijection(values):
            raise ValueError(f"values must be a bijection onto 1..{n}")
        self._hash = None
        if check and not self._is_standard():
            raise ValueError(f"filling is not standard: {self.values}")

    def _is_standard(self) -> bool:
        north, west = self.shape.neighbours
        v = self.values + (0,)  # index -1, an absent neighbour, reads 0
        return all(v[i] < x and v[j] < x for x, i, j in zip(self.values, north, west))

    @property
    def n(self) -> int:
        return len(self.values)

    def coords(self) -> tuple[list[int], list[int]]:
        """`coords` of this filling's cells and values."""
        return coords(self.shape.cells, self.values)

    def pos(self, v: int) -> Cell:
        """Absolute (row, col) of a value in 1..n."""
        if not 0 < v <= self.n:
            raise ValueError(f"value {v} is outside 1..{self.n}")
        rows, cols = self.coords()
        return rows[v], cols[v]

    def rows(self) -> list[list[int]]:
        """Filled entries grouped by absolute row, left to right."""
        out: dict[int, list[int]] = {}
        for (r, _), v in zip(self.shape.cells, self.values):
            out.setdefault(r, []).append(v)
        return [out[r] for r in sorted(out)]

    def row_reading_word(self) -> tuple[int, ...]:
        """Rows bottom to top, each left to right."""
        return tuple(map(self.values.__getitem__, self.shape.reading_order))

    def descent_set(self) -> frozenset[int]:
        """Values i with i+1 in a strictly lower (absolute) row."""
        rows = self.coords()[0]
        return frozenset(i for i in range(1, self.n) if rows[i + 1] > rows[i])

    def maj(self) -> int:
        """The sum of the descents."""
        rows = self.coords()[0]
        return sum(i for i in range(1, self.n) if rows[i + 1] > rows[i])

    def des(self) -> int:
        return len(self.descent_set())

    def transpose(self) -> "Tableau":
        if not isinstance(self.shape, Partition):
            raise ValueError("transpose is implemented for straight shapes only")
        conj, mirror = self.shape.transpose_map
        return Tableau(conj, tuple(self.values[i] for i in mirror), check=False)

    def to_text(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.rows())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.values == other.values
            and self.shape.cells == other.shape.cells
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.shape.cells, self.values))
        return self._hash

    def __repr__(self) -> str:
        return f"Tableau({self.to_text()})"


def coords(cells, values: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The absolute row and column of every value, as two arrays indexed by
    value, where `values[i]` sits in `cells[i]`.  Entries 0 and n+1 hold the
    sentinel 0, which no cell has."""
    rows, cols = [0] * (len(values) + 2), [0] * (len(values) + 2)
    for (r, c), v in zip(cells, values):
        rows[v] = r
        cols[v] = c
    return rows, cols


def from_rows(rows: list[list[int]]) -> Tableau:
    """Build a straight-shape tableau from its rows."""
    shape = Partition(len(r) for r in rows)
    return Tableau(shape, tuple(v for row in rows for v in row))


def fillings(shape: Shape, limit: int = 20) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Stream (maj, values) for every standard filling exactly once, in the
    deterministic order given by value-ascending backtracking with cells
    tried row-major.  The maj is summed as the values are placed: v-1 is a
    descent when v lands in a lower row than v-1, and 0 sits in row 0."""
    n = shape.n  # tested before the cells are built
    if n > limit:
        raise BoundExceeded(f"shape has {n} cells, bound is {limit}")
    north, west = shape.neighbours
    rows = [r for r, _ in shape.cells]
    values = [0] * n

    def rec(v: int, row: int, maj: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        if v > n:
            yield maj, tuple(values)
            return
        for i in range(n):
            if values[i] == 0 \
                    and (north[i] < 0 or values[north[i]]) \
                    and (west[i] < 0 or values[west[i]]):
                values[i] = v
                yield from rec(v + 1, rows[i], maj + v - 1 if rows[i] > row else maj)
                values[i] = 0

    yield from rec(1, 0, 0)


def enumerate_tableaux(shape: Shape, limit: int = 20) -> Iterator[Tableau]:
    """Every standard filling of the shape as a Tableau, in the order of
    `fillings`."""
    return (Tableau(shape, values, check=False) for _, values in fillings(shape, limit))


def to_word(t: Tableau) -> tuple[int, ...]:
    """The descent-preserving bijection onto words: for a shape whose blocks
    are single rows, letter i is the block of value i counted bottom-up."""
    shape = t.shape
    if not isinstance(shape, BlockShape) or any(len(b) > 1 for b in shape.blocks):
        raise ShapeNotOneRowBlocks(f"{shape} is not a one-row block shape")
    rows, cols = t.coords()
    return tuple(shape.m - shape.block_of_cell(cell) + 1 for cell in zip(rows[1:-1], cols[1:-1]))


def word_descent_set(word) -> frozenset[int]:
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


def word_inv(word) -> int:
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


# ---------------------------------------------------------------------------
# extremal tableaux


def _outer_vertical_strip(p: Partition) -> list[Cell]:
    """Row-end cells (r, p_r), one per row: the outermost maximal vertical strip."""
    return [(r, p.part(r)) for r in range(1, len(p) + 1)]


def maxmaj_tableau(p: Partition) -> Tableau:
    """Fill successive outermost maximal vertical strips with the largest
    remaining values, bottom to top within each strip; on the empty shape,
    the empty filling."""
    fill: dict[Cell, int] = {}
    rows = list(p.parts)
    v = p.n
    while any(rows):
        cur = Partition(rows)
        for cell in sorted(_outer_vertical_strip(cur), key=lambda rc: -rc[0]):
            fill[cell] = v
            v -= 1
            rows[cell[0] - 1] -= 1
    return Tableau(p, tuple(fill[c] for c in p.cells))


def minmaj_tableau(p: Partition) -> Tableau:
    """The transpose of the conjugate's max-maj filling: transposition maps
    maj to C(n,2) - maj, and both extreme fillings are unique."""
    return maxmaj_tableau(p.conjugate()).transpose()


@cache
def exceptional_set(p: Partition) -> frozenset[Tableau]:
    """Tableaux excluded from the maj-increment map: always the max-maj
    tableau; for rectangles also the min-maj tableau; for rectangles with
    at least two rows and columns also the unique tableau of major index
    two below the maximum, obtained from max-maj by cycling 2..length+1."""
    out = {maxmaj_tableau(p)}
    if p.is_rectangle():
        out.add(minmaj_tableau(p))
    if p.is_big_rectangle():
        ell = len(p)
        cyc = {i: i + 1 for i in range(2, ell + 1)} | {ell + 1: 2}
        out.add(Tableau(p, (cyc.get(v, v) for v in maxmaj_tableau(p).values)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# canonical orbit representatives


def canonical_orbit_tableaux(
    blocks: BlockShape, d: int, limit: int = 20
) -> Iterator[tuple[Tableau, int]]:
    """Stream the canonical representatives among the tableaux of all shapes
    in the rotation orbit, each paired with b(alpha) of its shape.

    A tableau is canonical when the block index holding the largest entry is
    minimal within its rotation orbit; rotating by m/d shifts that index by
    m/d mod m, so the canonical ones are exactly those with index <= m/d.
    """
    orbit = blocks.orbit(d)
    step = blocks.m // d
    for mu in orbit:
        ba = b_composition(mu.alpha())
        for t in enumerate_tableaux(mu, limit):
            if t.n == 0 or mu.block_of_cell(t.pos(t.n)) <= step:
                yield t, ba
