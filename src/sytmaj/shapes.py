"""Integer partitions, skew diagrams, and block-diagonal skew diagrams.

Cells are 1-based (row, col) pairs in English notation throughout.  All
shape types are immutable value objects and hash/compare structurally.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator

Cell = tuple[int, int]


class DNotDividingM(ValueError):
    """The rotation order d must divide the number of blocks m."""


class _Cells:
    """Cell lookups shared by the shape types, cached on the shape itself."""

    @cached_property
    def cell_index(self) -> dict[Cell, int]:
        return {cell: i for i, cell in enumerate(self.cells)}

    @cached_property
    def reading_order(self) -> tuple[int, ...]:
        """Cell indices in row reading order: rows bottom to top, each left
        to right."""
        cells = self.cells
        return tuple(sorted(range(len(cells)), key=lambda i: (-cells[i][0], cells[i][1])))

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Indices of the cells north and west of each cell, -1 if absent."""
        index = self.cell_index
        return (tuple(index.get((r - 1, c), -1) for r, c in self.cells),
                tuple(index.get((r, c - 1), -1) for r, c in self.cells))


@dataclass(frozen=True)
class Partition(_Cells):
    """A weakly decreasing tuple of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __init__(self, parts=()):
        parts = tuple(map(operator.index, parts))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def part(self, i: int) -> int:
        """Row length lambda_i with 1-based i; 0 beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        return tuple((r, c) for r, p in enumerate(self.parts, 1) for c in range(1, p + 1))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    @cached_property
    def transpose_map(self) -> tuple["Partition", tuple[int, ...]]:
        """The conjugate, and for each of its cells the index of the mirror
        cell here; cached so that every transposed tableau shares one shape."""
        conj = self.conjugate()
        return conj, tuple(self.cell_index[c, r] for r, c in conj.cells)

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(1, len(other) + 1))

    def is_rectangle(self) -> bool:
        return len(set(self.parts)) <= 1

    def is_big_rectangle(self) -> bool:
        """Rectangle with at least two rows and two columns."""
        return self.is_rectangle() and len(self.parts) >= 2 and self.parts[0] >= 2


def hook_lengths(p: Partition) -> dict[Cell, int]:
    """Hook length arm + leg + 1 for every cell of the diagram."""
    conj = p.conjugate()
    return {
        (r, c): (p.part(r) - c) + (conj.part(c) - r) + 1
        for r, c in p.cells
    }


def hook_multiset(p: Partition) -> tuple[int, ...]:
    """The sorted hook lengths, read from the row and column lengths."""
    parts = p.parts
    cols: list[int] = []  # column lengths, filled from the bottom row up
    for r in range(len(parts), 0, -1):
        cols += [r] * (parts[r - 1] - len(cols))
    return tuple(sorted(
        part - c + cols[c] - r
        for r, part in enumerate(parts, 1)
        for c in range(part)
    ))


def b_statistic(p: Partition) -> int:
    """b(lambda) = sum (i-1) lambda_i, the minimum major index on SYT(lambda)."""
    return sum((i - 1) * part for i, part in enumerate(p.parts, 1))


def b_composition(alpha) -> int:
    """b(alpha) = sum (i-1) alpha_i for a (weak) composition."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"composition entries must be nonnegative: {alpha}")
    return sum((i - 1) * a for i, a in enumerate(alpha, 1))


def rotate_right(alpha: tuple, steps: int = 1) -> tuple:
    """(alpha_m, alpha_1, ..., alpha_{m-1}) iterated `steps` times."""
    m = len(alpha)
    s = steps % m if m else 0
    return alpha[-s:] + alpha[:-s] if s else alpha


def rotation_class(alpha: tuple, d: int) -> list[tuple]:
    """The d rotations of alpha by multiples of m/d (with repetition)."""
    m = len(alpha)
    if d <= 0 or m % d:
        raise DNotDividingM(f"d={d} does not divide m={m}")
    step = m // d
    return [rotate_right(alpha, j * step) for j in range(d)]


def corners_and_notches(p: Partition) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
    """Corners are cells with hook length 1; notches are (i,j) outside the
    diagram with both (i-1,j) and (i,j-1) inside."""
    hooks = hook_lengths(p)
    corners = tuple(sorted(c for c, h in hooks.items() if h == 1))
    notches = tuple(
        (i + 1, p.part(i + 1) + 1)
        for i in range(1, len(p.parts))
        if p.part(i) > p.part(i + 1)
    )
    return corners, notches


@dataclass(frozen=True)
class SkewShape(_Cells):
    """A pair inner <= outer of partitions; cells are the set difference."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        if not self.outer.contains(self.inner):
            raise ValueError(f"{self.inner} not contained in {self.outer}")

    @property
    def n(self) -> int:
        return self.outer.n - self.inner.n

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(
            (r, c)
            for r in range(1, len(self.outer) + 1)
            for c in range(self.inner.part(r) + 1, self.outer.part(r) + 1)
        )

    def max_row_length(self) -> int:
        return max((self.outer.part(r) - self.inner.part(r) for r in range(1, len(self.outer) + 1)), default=0)

    def max_col_length(self) -> int:
        oc, ic = self.outer.conjugate(), self.inner.conjugate()
        return max((oc.part(c) - ic.part(c) for c in range(1, len(oc) + 1)), default=0)

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


@dataclass(frozen=True)
class BlockShape(_Cells):
    """Block diagonal skew shape: partitions translated so that the blocks
    occupy disjoint rows and columns, listed top to bottom.

    Empty blocks are legal; they occupy no rows or columns but keep their
    index in the sequence.
    """

    blocks: tuple[Partition, ...]

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(
            b if isinstance(b, Partition) else Partition(b) for b in blocks
        ))

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(b.n for b in self.blocks)

    def alpha(self) -> tuple[int, ...]:
        """Sequence of block sizes |lambda^(1)|, ..., |lambda^(m)|."""
        return tuple(b.n for b in self.blocks)

    def b_alpha(self) -> int:
        return b_composition(self.alpha())

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(c for cells in block_coordinates(self) for c in cells))

    @cached_property
    def _block_index(self) -> dict[Cell, int]:
        return {c: j for j, cells in enumerate(block_coordinates(self), 1) for c in cells}

    def block_of_cell(self, cell: Cell) -> int:
        """1-based index of the block containing an absolute cell."""
        return self._block_index[cell]

    def orbit(self, d: int) -> tuple["BlockShape", ...]:
        """Distinct shapes under the d rotations by multiples of m/d."""
        return tuple(map(BlockShape, dict.fromkeys(rotation_class(self.blocks, d))))

    def hook_sum(self) -> int:
        """Sum of every hook length over the blocks.  For one block it is
        b(lambda) + b(lambda') + |lambda|, and b(lambda') + |lambda| is the
        sum of C(lambda_i + 1, 2) over the rows."""
        return sum(b_statistic(b) + sum(comb(p + 1, 2) for p in b.parts) for b in self.blocks)

    def b_blocks(self) -> int:
        """Sum of b(lambda^(i)) over the blocks."""
        return sum(b_statistic(b) for b in self.blocks)

    def as_skew(self) -> SkewShape:
        rows: dict[int, tuple[int, int]] = {}
        for cells in block_coordinates(self):
            for r, c in cells:
                lo, hi = rows.get(r, (c, c))
                rows[r] = (min(lo, c), max(hi, c))
        nrows = max(rows, default=0)
        outer = [rows[r][1] for r in range(1, nrows + 1)]
        inner = [rows[r][0] - 1 for r in range(1, nrows + 1)]
        return SkewShape(Partition(outer), Partition(inner))

    def __str__(self) -> str:
        return "|".join(str(b) for b in self.blocks)


def block_coordinates(bs: BlockShape) -> list[list[Cell]]:
    """Absolute cells of each block, in block order.  A block sits below the
    rows of the blocks above it and right of the columns of those below."""
    out, row = [], 0
    col = sum(b.part(1) for b in bs.blocks)
    for b in bs.blocks:
        col -= b.part(1)
        out.append([(row + r, col + c) for r, c in b.cells])
        row += len(b)
    return out


Shape = Partition | SkewShape | BlockShape


def parse_partition(text: str) -> Partition:
    """Parse "6,3,3" (empty string is the empty partition)."""
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(tok) for tok in text.split(","))


def parse_blocks(text: str) -> BlockShape:
    """Parse "3,2|1,1|3"; an empty token is an empty block ("|3,3")."""
    return BlockShape(parse_partition(tok) for tok in text.split("|"))


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield Partition()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first,) + rest.parts)
