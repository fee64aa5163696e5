"""The enumeration oracles, checked against the Tableau objects they replace."""
from collections import Counter

import pytest

from sytmaj.cli import main
from sytmaj.qpolys import QPoly
from sytmaj.shapes import BlockShape, Partition, SkewShape, parse_blocks, partitions
from sytmaj.tableaux import (
    BoundExceeded,
    DNotDividingM,
    canonical_orbit_tableaux,
    enumerate_tableaux,
)
from sytmaj.verify import (
    _fillings,
    block_shapes,
    des_gf_oracle,
    gmdn_gf_oracle,
    maj_gf_oracle,
    majdes_values_oracle,
    wreath_gf_oracle,
)

SKEW_SHAPES = (
    SkewShape(Partition((3, 2)), Partition((1,))),
    SkewShape(Partition((4, 3, 1)), Partition((2, 1))),
    SkewShape(Partition((4, 4, 3, 1)), Partition((3, 1))),
)


def tableau_stats(shape) -> Counter:
    return Counter((t.maj(), t.des()) for t in enumerate_tableaux(shape))


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
        assert wreath_gf_oracle(blocks, blocks.m) == QPoly.one()
        assert gmdn_gf_oracle(blocks, blocks.m, blocks.m) == QPoly.one()


def test_oracle_errors():
    big = Partition((21,))
    blocks = BlockShape((Partition((11,)), Partition((10,))))
    for oracle in (maj_gf_oracle, des_gf_oracle, majdes_values_oracle):
        with pytest.raises(BoundExceeded):
            oracle(big)
    with pytest.raises(BoundExceeded):
        wreath_gf_oracle(blocks, 2)
    with pytest.raises(BoundExceeded):
        gmdn_gf_oracle(blocks, 2, 2)
    with pytest.raises(DNotDividingM):
        gmdn_gf_oracle(parse_blocks("2|3,1"), 2, 3)
    with pytest.raises(DNotDividingM):
        gmdn_gf_oracle(parse_blocks("1|1|1"), 3, 2)
    with pytest.raises(SystemExit) as exc:
        main(["support", "--shape", "21", "--verify"])
    assert exc.value.code == 2
