"""The enumeration oracles, checked against the Tableau objects they replace
and against a walk that visits every filling."""
from collections import Counter

import pytest

import sytmaj.verify as V
from sytmaj.cli import main
from sytmaj.genfun import gmdn_fake_degree, stanley
from sytmaj.qpolys import BinomialForm, QPoly, expand
from sytmaj.shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    SkewShape,
    parse_blocks,
    partitions,
)
from sytmaj.tableaux import BoundExceeded, canonical_orbit_tableaux, enumerate_tableaux
from sytmaj.verify import (
    _fillings,
    block_shapes,
    des_gf_oracle,
    gmdn_gf_oracle,
    maj_gf_oracle,
    majdes_values_oracle,
)

SKEW_SHAPES = (
    SkewShape(Partition((3, 2)), Partition((1,))),
    SkewShape(Partition((4, 3, 1)), Partition((2, 1))),
    SkewShape(Partition((4, 4, 3, 1)), Partition((3, 1))),
)


def tableau_stats(shape) -> Counter:
    return Counter((t.maj(), t.des()) for t in enumerate_tableaux(shape))


def walk_fillings(shape, top=None) -> Counter:
    """(maj, des) counts by a walk that visits every standard filling once:
    n, n-1, ..., 1 go in turn into an outer corner of the empty cells, and v
    is a descent when v+1 sits in a strictly lower row.  With `top`, n goes
    only into those cell indices."""
    cells = shape.cells
    n = len(cells)
    north, west = shape.neighbours
    below = [0] * n  # unfilled south and east neighbours of each cell
    for j in north + west:
        if j >= 0:
            below[j] += 1
    counts: Counter = Counter()

    def walk(v, corners, choices, last, maj, des):
        for i in choices:
            r = cells[i][0]
            maj_v, des_v = (maj + v, des + 1) if last > r else (maj, des)
            if v == 1:
                counts[maj_v, des_v] += 1
                continue
            rest = [c for c in corners if c != i]
            for j in (north[i], west[i]):
                if j >= 0:
                    below[j] -= 1
                    if not below[j]:
                        rest.append(j)
            walk(v - 1, rest, rest, r, maj_v, des_v)
            for j in (north[i], west[i]):
                if j >= 0:
                    below[j] += 1

    corners = [i for i in range(n) if not below[i]]
    if n == 0:
        counts[0, 0] = 1
    else:
        walk(n, corners, corners if top is None else [i for i in corners if i in top], 0, 0, 0)
    return counts


def gmdn_tops():
    """Every (shape, top) pair that `gmdn_gf_oracle` reads, as the set of cell
    indices below its cutoff, on block shapes with n <= 5 and m <= 4."""
    for n in range(6):
        for m in range(1, 5):
            for bs in block_shapes(n, m):
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    for mu in bs.orbit(d):
                        yield mu, set(range(sum(mu.alpha()[:m // d])))


def test_fillings_match_walk():
    shapes = [p for n in range(11) for p in partitions(n)]
    shapes += [bs for n in range(6) for m in range(1, 4) for bs in block_shapes(n, m)]
    shapes += SKEW_SHAPES
    # rows 35 to 41: row numbers past 31 must not collide with the empty cells
    shapes.append(SkewShape(Partition((2,) * 40 + (1,)), Partition((2,) * 34 + (1,))))
    for shape in shapes:
        assert _fillings(shape) == walk_fillings(shape), str(shape)
        assert _fillings(shape, 0) == walk_fillings(shape, set()), str(shape)
        assert not _fillings(shape, 0) or shape.n == 0, str(shape)
    tops = list(gmdn_tops())
    assert len(tops) > 1000
    for shape, top in tops:
        assert top == set(range(len(top)))
        assert _fillings(shape, len(top)) == walk_fillings(shape, top), (str(shape), top)


def _gmdn_suite_cases() -> list[tuple[str, int, int]]:
    """The cases of the `gmdn` suite at its default bound."""
    suite = V.SUITES["gmdn"]
    [(_, max_n)] = suite.checks
    return suite.cases(max_n)


def test_shared_corner_table_matches_each_orbit_member():
    cases = _gmdn_suite_cases()
    assert cases == V._gmdn_cases(6, 4)
    for shape_str, m, d in cases:
        for mu in parse_blocks(shape_str).orbit(d):
            # the corner table of mu is keyed by its nonempty blocks
            blocks = tuple(b for b in mu.blocks if b)
            key_shape = blocks[0] if len(blocks) == 1 else BlockShape(blocks)
            assert key_shape.cells == mu.cells, str(mu)
            cut = sum(mu.alpha()[:m // d])
            assert _fillings(mu, cut) == walk_fillings(mu, set(range(cut))), (str(mu), m, d)


def test_gmdn_suite_peels_each_block_sequence_once(monkeypatch):
    keys = {tuple(b for b in mu.blocks if b)
            for shape_str, _, d in _gmdn_suite_cases() for mu in parse_blocks(shape_str).orbit(d)}
    peeled = []
    peel = V._corner_counts

    def spy(shape):
        peeled.append(shape)
        return peel(shape)

    monkeypatch.setattr(V, "_corner_counts", spy)
    # the benchmark clears every functools cache it finds in the module
    assert V._corner_table in [f for f in vars(V).values() if hasattr(f, "cache_clear")]
    V._corner_table.cache_clear()
    first = V.run_suites(["gmdn"], threads=1)
    assert first[1] and first[0][0].name == "4100 checks"
    assert len(peeled) == len(keys)
    V._corner_table.cache_clear()
    assert V.run_suites(["gmdn"], threads=1) == first
    assert len(peeled) == 2 * len(keys)


def test_type_a_suites_peel_each_partition_once(monkeypatch):
    peeled = []
    peel = V._corner_counts

    def spy(shape):
        peeled.append(shape)
        return peel(shape)

    monkeypatch.setattr(V, "_corner_counts", spy)
    V._corner_table.cache_clear()
    rows, ok = V.run_suites(["stanley", "support-a", "des"], threads=1)
    assert ok and [r.name for r in rows] == ["271 checks", "271 checks", "409 checks"]
    # one table per partition up to 12 cells, shared by the four oracles
    assert sorted(map(str, peeled)) == sorted(V._shape_strings(12))
    # a block shape whose only nonempty block is a partition reads its table
    lam = Partition((4, 3, 1))
    for mu in (BlockShape((lam,)), BlockShape((Partition(), lam, Partition()))):
        assert _fillings(mu) == _fillings(lam)
        # cell 3 ends the first row: the one corner below the cutoff
        assert _fillings(mu, 4) == _fillings(lam, 4) == walk_fillings(lam, {0, 1, 2, 3})
    assert len(peeled) == 271


def test_a_warm_corner_table_does_not_hide_a_fault(monkeypatch):
    cases = V._gmdn_cases(4, 4)
    assert V.run_suites(["gmdn"], max_n=4, threads=1) == (
        [V.CheckResult("gmdn", f"{len(cases)} checks", True)], True)
    assert V._corner_table.cache_info().currsize > 0
    fake_degree = V.gmdn_fake_degree
    monkeypatch.setattr(V, "gmdn_fake_degree",
                        lambda blocks, m, d: fake_degree(blocks, m, d).shift(1))
    rows, ok = V.run_suites(["gmdn"], max_n=4, threads=1)
    assert not ok and not any(r.ok for r in rows)
    assert [r.name for r in rows] == [f"{s} m={m} d={d}" for s, m, d in cases]
    # the type-A suites read the same table
    V._corner_table.cache_clear()
    shapes = V._shape_strings(5)
    assert V.run_suites(["stanley"], max_n=5, threads=1) == (
        [V.CheckResult("stanley", f"{len(shapes)} checks", True)], True)
    assert V._corner_table.cache_info().currsize == len(shapes)
    form = V.stanley

    def shifted(p):
        shift, exponents = form(p)
        return BinomialForm(shift + 1, exponents)

    monkeypatch.setattr(V, "stanley", shifted)
    rows, ok = V.run_suites(["stanley"], max_n=5, threads=1)
    assert not ok and not any(r.ok for r in rows)
    assert [r.name for r in rows] == shapes


@pytest.mark.parametrize("text", ["6,5,4,3,2", "5,5,5,5", "7,6,4,2,1", "10,10"])
def test_type_a_oracles_at_the_cell_bound(text):
    # 20 cells: up to 1.4e8 fillings, past what the walk can visit
    p = Partition(tuple(int(x) for x in text.split(",")))
    assert p.n == 20
    assert maj_gf_oracle(p) == expand(stanley(p))
    lo, hi = p.conjugate().part(1) - 1, p.n - p.part(1)
    assert set(des_gf_oracle(p).support()) == set(range(lo, hi + 1))


def test_gmdn_oracle_on_a_ten_cell_two_block_shape():
    blocks = parse_blocks("4,3|2,1")
    assert blocks.n == 10
    assert gmdn_gf_oracle(blocks, 2, 2) == gmdn_fake_degree(blocks, 2, 2)


def test_fillings_match_tableaux():
    shapes = [p for n in range(10) for p in partitions(n)]
    shapes += [bs for n in range(6) for m in range(1, 4) for bs in block_shapes(n, m)]
    shapes += SKEW_SHAPES
    for shape in shapes:
        assert _fillings(shape) == tableau_stats(shape), str(shape)


def test_gmdn_oracle_matches_canonical_orbit_tableaux():
    for n in range(6):
        for m in range(1, 5):
            for bs in block_shapes(n, m):
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    want = Counter(ba + m * t.maj() for t, ba in canonical_orbit_tableaux(bs, d))
                    assert gmdn_gf_oracle(bs, m, d) == QPoly.from_terms(want), (str(bs), m, d)


def test_oracles_on_empty_shape():
    empty = Partition()
    assert maj_gf_oracle(empty) == des_gf_oracle(empty) == QPoly.one()
    assert majdes_values_oracle(empty) == {0}
    for blocks in (parse_blocks("|"), parse_blocks("||||")):
        assert gmdn_gf_oracle(blocks, blocks.m, 1) == QPoly.one()
        assert gmdn_gf_oracle(blocks, blocks.m, blocks.m) == QPoly.one()
    # no blocks at all: G(0,1,0), one rotation of the empty sequence
    assert gmdn_gf_oracle(BlockShape(()), 0, 1) == gmdn_fake_degree(BlockShape(()), 0, 1) \
        == QPoly.one()


def test_oracle_errors():
    big = Partition((21,))
    blocks = BlockShape((Partition((11,)), Partition((10,))))
    for oracle in (maj_gf_oracle, des_gf_oracle, majdes_values_oracle):
        with pytest.raises(BoundExceeded):
            oracle(big)
    with pytest.raises(BoundExceeded):
        gmdn_gf_oracle(blocks, 2, 1)
    with pytest.raises(BoundExceeded):
        gmdn_gf_oracle(blocks, 2, 2)
    with pytest.raises(DNotDividingM):
        gmdn_gf_oracle(parse_blocks("2|3,1"), 2, 3)
    with pytest.raises(DNotDividingM):
        gmdn_gf_oracle(parse_blocks("1|1|1"), 3, 2)
    with pytest.raises(SystemExit) as exc:
        main(["support", "--shape", "21", "--verify"])
    assert exc.value.code == 2
