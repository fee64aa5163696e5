"""Closed-form nonzero-coefficient classifiers, paired with verification.

Each classifier materializes an explicit finite set of degrees so that
checking against an actual polynomial is a plain set comparison.  The
wreath product C_m wr S_n is G(m,1,n), so one classifier, `support_gmdn`,
covers it and every G(m,d,n).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .genfun import stanley
from .qpolys import QPoly, expand, shape_predicates
from .shapes import (
    BlockShape,
    Partition,
    SkewShape,
    b_statistic,
)


@dataclass(frozen=True)
class SupportPrediction:
    """Predicted nonzero degrees for one polynomial family."""

    family: str  # "A" | "wreath" (G(m,1,n)) | "gmdn" | "des"
    degrees: frozenset[int]
    excluded: frozenset[int] = frozenset()
    interval_verified: bool = True  # False for skew des predictions

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "degrees": sorted(self.degrees),
            "excluded": sorted(self.excluded),
            "interval_verified": self.interval_verified,
        }


def support_type_A(p: Partition) -> SupportPrediction:
    """Nonzero major-index degrees for a straight shape: the full interval
    from b(lambda) to C(n,2)-b(lambda'), with the two degrees adjacent to
    the endpoints removed exactly for rectangles with >= 2 rows and columns."""
    if p.n < 1:
        raise ValueError("shape must be nonempty")
    lo = b_statistic(p)
    hi = comb(p.n, 2) - b_statistic(p.conjugate())
    excluded = frozenset({lo + 1, hi - 1}) if p.is_big_rectangle() else frozenset()
    return SupportPrediction("A", frozenset(range(lo, hi + 1)) - excluded, excluded)


def support_des(shape: Partition | SkewShape) -> SupportPrediction:
    """Descent-count support.  Straight shapes get the full interval from
    (max column length - 1) to (n - max row length); skew shapes only the
    endpoints, flagged unverified."""
    if isinstance(shape, Partition):
        lo = shape.conjugate().part(1) - 1
        hi = shape.n - shape.part(1)
        return SupportPrediction("des", frozenset(range(lo, hi + 1)))
    lo = shape.max_col_length() - 1
    hi = shape.n - shape.max_row_length()
    return SupportPrediction(
        "des", frozenset({lo, hi}), interval_verified=False
    )


def support_gmdn(blocks: BlockShape, m: int, d: int) -> SupportPrediction:
    """Nonzero fake-degree locations for G(m,d,n): the union over orbit
    members with positive mass in the first m/d blocks of a shifted interval,
    minus the rectangle exceptions.  At d = 1, C_m wr S_n, the prediction is
    labelled "wreath"."""
    if blocks.m != m:
        raise ValueError(f"block count {blocks.m} != m={m}")
    orbit = blocks.orbit(d)
    n = blocks.n
    if n < 1:
        raise ValueError("need at least one cell")
    step = m // d
    degrees: set[int] = set()
    for mu in orbit:
        head = sum(mu.alpha()[:step])
        if head == 0:
            continue
        width = head + comb(n, 2) - mu.hook_sum()
        excluded = {1, width - 1} if _big_rectangle_window(mu, head, n) else ()
        base = mu.b_alpha()
        bl = mu.b_blocks()
        degrees.update(
            base + m * (bl + t) for t in range(width + 1) if t not in excluded
        )
    return SupportPrediction("wreath" if d == 1 else "gmdn", frozenset(degrees))


def _big_rectangle_window(mu: BlockShape, head: int, n: int) -> bool:
    """Whether the degree window has holes one step above the bottom and one
    step below the top: exactly when it is carried by the single-shape
    polynomial of a rectangle with >= 2 rows and columns, a block of all n
    cells, or of n-1 cells when the first m/d blocks hold one cell."""
    return any(b.is_big_rectangle() and (b.n == n or (head == 1 and b.n == n - 1))
               for b in mu.blocks)


def check_parity_unimodal(p: Partition) -> bool:
    """Even- and odd-degree coefficient subsequences both unimodal."""
    return shape_predicates(expand(stanley(p))).parity_unimodal


@dataclass(frozen=True)
class SupportReport:
    shape: str
    family: str
    predicted: tuple[int, ...]
    actual: tuple[int, ...]
    equal: bool
    missing: tuple[int, ...] = ()  # predicted but actually zero
    extra: tuple[int, ...] = ()  # nonzero but not predicted

    def to_json(self) -> dict:
        out = {
            "shape": self.shape,
            "family": self.family,
            "predicted": list(self.predicted),
            "actual": list(self.actual),
            "equal": self.equal,
        }
        if not self.equal:
            out["missing"] = list(self.missing)
            out["extra"] = list(self.extra)
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def verify_support(
    predicted: SupportPrediction, actual: QPoly, shape: str = ""
) -> SupportReport:
    """Compare a prediction with the nonzero degrees of a polynomial."""
    act = frozenset(actual.support())
    pred = predicted.degrees
    return SupportReport(
        shape=shape,
        family=predicted.family,
        predicted=tuple(sorted(pred)),
        actual=tuple(sorted(act)),
        equal=pred == act,
        missing=tuple(sorted(pred - act)),
        extra=tuple(sorted(act - pred)),
    )
