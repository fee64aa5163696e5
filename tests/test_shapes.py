from math import comb

import pytest
from hypothesis import given, strategies as st

from sytmaj.shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    SkewShape,
    b_composition,
    b_statistic,
    block_coordinates,
    corners_and_notches,
    hook_lengths,
    hook_multiset,
    parse_blocks,
    parse_partition,
    partitions,
    rotate_right,
    rotation_class,
)

partition_st = st.builds(
    lambda xs: Partition(sorted(xs, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=9), max_size=8),
)


def rows_of_hooks(p):
    hooks = hook_lengths(p)
    return [[hooks[(r, c)] for c in range(1, p.part(r) + 1)] for r in range(1, len(p) + 1)]


def test_partition_basics():
    p = Partition((4, 2))
    assert p.n == 6 and len(p) == 2
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert str(Partition()) == ""
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_parts_must_be_integers():
    # Partition((2.7, 1)) once read as (2, 1), and Partition("32") as (3, 2)
    for parts in ((2.7, 1), (2.0, 1), "32", ("3", "2")):
        with pytest.raises(TypeError):
            Partition(parts)
    p = Partition((True, 1))
    assert p.parts == (1, 1) and str(p) == "1,1"
    assert all(type(x) is int for x in p.parts)
    assert Partition((2, False)).parts == (2,)


def test_parse_roundtrip():
    assert parse_partition("6,3,3").parts == (6, 3, 3)
    assert parse_partition("") == Partition()
    bs = parse_blocks("3,2|1,1|3")
    assert [b.parts for b in bs.blocks] == [(3, 2), (1, 1), (3,)]
    assert parse_blocks("|3,3").blocks[0] == Partition()
    assert str(parse_blocks("|3,3")) == "|3,3"


def test_hook_lengths_examples():
    assert rows_of_hooks(Partition((6, 3, 3))) == [[8, 7, 6, 3, 2, 1], [4, 3, 2], [3, 2, 1]]
    assert hook_multiset(Partition((7,))) == (1, 2, 3, 4, 5, 6, 7)
    assert hook_multiset(Partition((4, 2))) == (1, 1, 2, 2, 4, 5)


def test_hook_multiset_matches_hook_lengths():
    assert hook_multiset(Partition()) == ()
    for n in range(1, 15):
        for p in partitions(n):
            assert hook_multiset(p) == tuple(sorted(hook_lengths(p).values())), p


def test_b_statistic_examples():
    assert b_statistic(Partition((4, 2))) == 2
    assert b_statistic(Partition((4, 2, 1))) == 4
    assert b_statistic(Partition((9,))) == 0
    assert b_statistic(Partition()) == 0


def test_b_composition_examples():
    assert b_composition((2, 1, 1, 1)) == 6
    assert b_composition((0, 0, 0)) == 0
    with pytest.raises(ValueError):
        b_composition((1, -1))


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
def test_b_composition_rotation_increment(alpha):
    # one right-rotation changes b by n - m * (last entry)
    alpha = tuple(alpha)
    m, n = len(alpha), sum(alpha)
    rotated = alpha[-1:] + alpha[:-1]
    assert b_composition(rotated) - b_composition(alpha) == n - m * alpha[-1]


def test_block_coordinates_examples():
    bs = BlockShape((Partition((3, 2)), Partition((1, 1)), Partition((3,))))
    skew = bs.as_skew()
    assert skew.outer.parts == (7, 6, 4, 4, 3)
    assert skew.inner.parts == (4, 4, 3, 3)
    assert parse_blocks("2|2|3").as_skew() == SkewShape(Partition((7, 5, 3)), Partition((5, 3)))
    single = BlockShape((Partition((4, 2)),))
    assert single.cells == Partition((4, 2)).cells
    coords = block_coordinates(bs)
    assert coords[1] == [(3, 4), (4, 4)]


def test_block_of_cell():
    bs = parse_blocks("3,2|1,1||3")
    for j, cells in enumerate(block_coordinates(bs), 1):
        assert all(bs.block_of_cell(c) == j for c in cells)
    with pytest.raises(KeyError):
        bs.block_of_cell((1, 1))


def test_hook_sum_closed_form():
    # hook_sum reads b(lambda) + b(lambda') + |lambda| per block; the oracle
    # adds up the hook lengths.
    for n in range(13):
        for p in partitions(n):
            assert BlockShape((p,)).hook_sum() == sum(hook_lengths(p).values()), p
    for text in ("2|3,1", "|3,3", "4,2,1||1,1|5", "|"):
        bs = parse_blocks(text)
        assert bs.hook_sum() == sum(sum(hook_lengths(b).values()) for b in bs.blocks), text


def test_block_shape_with_empty_blocks():
    bs = parse_blocks("|3,3")
    assert bs.m == 2 and bs.n == 6
    assert bs.alpha() == (0, 6)
    assert bs.b_alpha() == 6
    assert bs.cells == Partition((3, 3)).cells


def test_corners_and_notches_examples():
    corners, notches = corners_and_notches(Partition((6, 3, 3)))
    assert set(corners) == {(3, 3), (1, 6)}
    assert set(notches) == {(2, 4)}
    corners, notches = corners_and_notches(Partition((5,)))
    assert corners == ((1, 5),) and notches == ()
    corners, notches = corners_and_notches(Partition((2, 2)))
    assert corners == ((2, 2),) and notches == ()


@given(partition_st)
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().n == p.n


def test_notches_equal_corner_count_minus_one():
    for n in range(1, 13):
        for p in partitions(n):
            hooks = list(hook_lengths(p).values())
            h1 = sum(1 for h in hooks if h == 1)
            _, notches = corners_and_notches(p)
            assert len(notches) == h1 - 1


def test_maxmaj_degree_identity():
    # C(n,2) - b(conj) = b + C(n+1,2) - sum of hooks
    for n in range(1, 13):
        for p in partitions(n):
            hooks = sum(hook_lengths(p).values())
            assert comb(n, 2) - b_statistic(p.conjugate()) == (
                b_statistic(p) + comb(n + 1, 2) - hooks
            )


def test_block_coordinates_give_valid_skew():
    from sytmaj.verify import block_shapes

    for n in range(0, 11):
        for m in range(1, 5):
            for bs in block_shapes(n, m):
                skew = bs.as_skew()  # SkewShape validates containment
                assert skew.n == bs.n
                assert len(bs.cells) == bs.n


def test_rotation_and_orbit():
    bs = parse_blocks("1|2|3,2|4|5|6,1")
    assert rotate_right(bs.blocks, 3) == bs.blocks[-3:] + bs.blocks[:-3]
    orb = parse_blocks("1|2|3,2|1|2|3,2").orbit(2)
    assert len(orb) == 1
    assert len(parse_blocks("2|3,1").orbit(2)) == 2
    with pytest.raises(DNotDividingM):
        parse_blocks("1|2|3").orbit(2)
    # the empty sequence has one rotation: itself
    empty = BlockShape(())
    for k in (-1, 0, 1, 5):
        assert rotate_right(empty.blocks, k) == ()
    assert empty.orbit(1) == (empty,)


def test_d_not_dividing_m_is_raised_by_every_rotation_user():
    # the check lives in rotation_class alone; every caller must reach it
    # before doing anything else, n = 0 included
    from sytmaj.deformed import deformed_multinomial
    from sytmaj.genfun import gmdn_fake_degree
    from sytmaj.tableaux import canonical_orbit_tableaux
    from sytmaj.verify import gmdn_gf_oracle
    from sytmaj.zeros import support_gmdn

    calls = (
        lambda bs, d: gmdn_fake_degree(bs, bs.m, d),
        lambda bs, d: support_gmdn(bs, bs.m, d),
        lambda bs, d: deformed_multinomial(bs.alpha(), d),
        lambda bs, d: rotation_class(bs.alpha(), d),
        lambda bs, d: bs.orbit(d),
        lambda bs, d: list(canonical_orbit_tableaux(bs, d)),
        lambda bs, d: gmdn_gf_oracle(bs, bs.m, d),
    )
    for text, d in (("2|3,1", 3), ("||", 2), ("2|3,1", 0), ("||", 0), ("||", -3)):
        bs = parse_blocks(text)
        for call in calls:
            with pytest.raises(DNotDividingM):
                call(bs, d)


def test_skew_shape_stats():
    skew = SkewShape(Partition((4, 3, 1)), Partition((2, 1)))
    assert skew.n == 5
    assert skew.max_row_length() == 2
    assert skew.max_col_length() == 2
    with pytest.raises(ValueError):
        SkewShape(Partition((2,)), Partition((3,)))
