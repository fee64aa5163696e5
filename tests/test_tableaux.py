import hashlib
from math import comb

import pytest

from sytmaj.genfun import stanley
from sytmaj.mutations import Move
from sytmaj.qpolys import expand, q_multinomial
from sytmaj.shapes import BlockShape, DNotDividingM, Partition, b_statistic, parse_blocks, partitions
from sytmaj.tableaux import (
    BoundExceeded,
    ShapeNotOneRowBlocks,
    Tableau,
    canonical_orbit_tableaux,
    enumerate_tableaux,
    exceptional_set,
    fillings,
    from_rows,
    maxmaj_tableau,
    minmaj_tableau,
    to_word,
    word_descent_set,
    word_inv,
)


def count_tableaux(shape):
    return sum(1 for _ in enumerate_tableaux(shape))


def one_row_blocks(alpha):
    """Blocks ((alpha_m), ..., (alpha_1)) matching the word bijection."""
    return BlockShape(tuple(Partition((a,)) if a else Partition() for a in reversed(alpha)))


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_descent_examples():
    t = from_rows([[1, 2, 4, 7, 9, 12], [3, 6, 10], [5, 8, 11]])
    assert sorted(t.descent_set()) == [2, 4, 7, 9, 10]
    assert t.maj() == 32
    row = from_rows([[1, 2, 3, 4]])
    assert row.descent_set() == frozenset() and row.maj() == 0


def test_block_tableau_descents():
    bs = parse_blocks("2|2|3")
    fill = {(1, 6): 2, (1, 7): 6, (2, 4): 4, (2, 5): 5, (3, 1): 1, (3, 2): 3, (3, 3): 7}
    t = Tableau(bs, tuple(fill[c] for c in bs.cells))
    assert sorted(t.descent_set()) == [2, 6]
    assert t.maj() == 8
    assert to_word(t) == (1, 3, 1, 2, 2, 3, 1)


def test_tableau_validation_and_text():
    with pytest.raises(ValueError):
        from_rows([[1, 3], [2, 2]])
    with pytest.raises(ValueError):
        from_rows([[2, 1], [3, 4]])
    t = from_rows([[1, 2, 4], [3, 6], [5]])
    assert t.to_text() == "1,2,4/3,6/5"
    assert t.row_reading_word() == (5, 3, 6, 1, 2, 4)
    assert t.rows() == [[1, 2, 4], [3, 6], [5]]


def test_tableau_rejects_non_bijections():
    p = Partition((2, 1))
    for values in ((1, 1, 2), (0, 1, 2), (1, 2, 4)):
        with pytest.raises(ValueError, match=r"^values must be a bijection onto 1\.\.3$"):
            Tableau(p, values)
    with pytest.raises(ValueError, match="^value count does not match shape size$"):
        Tableau(p, (1, 2))
    assert Tableau(p, (1, 2, 3)).values == (1, 2, 3)


def test_tableau_values_must_be_integers():
    # Tableau(Partition((2,)), (1.0, 2.0)) once passed its check, and then
    # maj() raised TypeError on a list index
    p = Partition((2,))
    for values in ((1.0, 2.0), (1, 2.5), ("1", "2")):
        with pytest.raises(TypeError):
            Tableau(p, values)
    t = Tableau(p, (True, 2))
    assert t.values == (1, 2) and all(type(v) is int for v in t.values)
    assert t.maj() == 0


def test_move_apply_rejects_what_is_not_a_standard_filling():
    t = from_rows([[1, 2], [3]])
    for cycles in ((3, 4),), ((3, 0),), ((1, 2),):  # past n, below 1, a row decreases
        with pytest.raises(ValueError):
            Move("B1", cycles).apply(t)
    with pytest.raises(ValueError):  # 2 and 3 both become 3; no Move maps two values to one
        Tableau(t.shape, (1, 3, 3))
    assert Move("B1", ((2, 3),)).apply(t) == from_rows([[1, 3], [2]])
    assert Move("B1", ()).apply(t) == t


def test_pos_rejects_values_outside_1_to_n():
    t = from_rows([[1, 2, 4], [3]])
    assert [t.pos(v) for v in range(1, 5)] == [(1, 1), (1, 2), (2, 1), (1, 3)]
    for v in (0, 5):  # the sentinels of coords() are no cells
        with pytest.raises(ValueError, match=f"^value {v} is outside 1..4$"):
            t.pos(v)


def test_maj_and_descents_match_their_definition_to_n9():
    # i is a descent when i+1 sits in a strictly lower row; read here from
    # the cells and values alone, not from coords().  fillings() sums the
    # maj as it places the values.
    for n in range(10):
        for p in partitions(n):
            for (maj, values), t in zip(fillings(p), enumerate_tableaux(p), strict=True):
                assert t.values == values
                row = {v: r for (r, _), v in zip(p.cells, values)}
                descents = {i for i in range(1, n) if row[i + 1] > row[i]}
                assert t.descent_set() == descents, t.to_text()
                assert t.maj() == maj == sum(descents), t.to_text()


def test_enumerate_counts():
    assert count_tableaux(Partition((4, 2))) == 9
    assert count_tableaux(Partition((1, 1, 1))) == 1
    only = next(enumerate_tableaux(Partition((1, 1, 1))))
    assert only.maj() == 3
    with pytest.raises(BoundExceeded):
        list(enumerate_tableaux(Partition((21,))))


def test_enumerate_large_count():
    assert count_tableaux(Partition((5, 4, 4, 2))) == 81081


def test_enumerate_order_golden_to_n8():
    # sha256 of the values of every tableau of every partition with n <= 8,
    # in enumeration order (the order `sytmaj enumerate` prints), as
    # enumerated before fillings() yielded each maj with its values
    digest = hashlib.sha256()
    count = 0
    for n in range(9):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                digest.update(repr(t.values).encode())
                count += 1
    assert count == 1116
    assert digest.hexdigest() == \
        "8f88dedcfe2bd952f7e45959a946e32e21572c1652f510a30db2b38eaf31badf"


def test_to_word_requires_one_row_blocks():
    with pytest.raises(ShapeNotOneRowBlocks):
        to_word(next(enumerate_tableaux(Partition((2, 1)))))
    bs = BlockShape((Partition((3,)),))
    (t,) = list(enumerate_tableaux(bs))
    assert to_word(t) == (1, 1, 1)


def test_word_bijection_exhaustive():
    for n in range(1, 8):
        for alpha in compositions(n):
            bs = one_row_blocks(alpha)
            words = []
            for t in enumerate_tableaux(bs):
                w = to_word(t)
                assert word_descent_set(w) == t.descent_set()
                assert tuple(sorted(w)) == tuple(
                    i for i, a in enumerate(alpha, 1) for _ in range(a)
                )
                words.append(w)
            assert len(set(words)) == len(words)
            inv_gf = {}
            for w in words:
                inv_gf[word_inv(w)] = inv_gf.get(word_inv(w), 0) + 1
            mult = q_multinomial(n, alpha)
            assert inv_gf == {k: mult.coefficient(k) for k in mult.support()}


def test_minmaj_maxmaj_examples():
    p = Partition((5, 5, 5))
    assert minmaj_tableau(p).rows() == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]]
    assert maxmaj_tableau(p).rows() == [[1, 4, 7, 10, 13], [2, 5, 8, 11, 14], [3, 6, 9, 12, 15]]
    assert minmaj_tableau(p).maj() == 15
    assert maxmaj_tableau(p).maj() == 75


def test_minmaj_maxmaj_values_and_transpose():
    for n in range(1, 13):
        for p in partitions(n):
            assert minmaj_tableau(p).maj() == b_statistic(p)
            assert maxmaj_tableau(p).maj() == comb(n, 2) - b_statistic(p.conjugate())
            poly = expand(stanley(p))
            assert poly.coeffs[0] == 1 and poly.coeffs[-1] == 1
    for n in range(1, 11):
        for p in partitions(n):
            assert maxmaj_tableau(p) == minmaj_tableau(p.conjugate()).transpose()


def test_extreme_tableaux_unique():
    for n in range(1, 11):
        for p in partitions(n):
            lo = [t for t in enumerate_tableaux(p) if t.maj() == b_statistic(p)]
            hi_val = comb(n, 2) - b_statistic(p.conjugate())
            hi = [t for t in enumerate_tableaux(p) if t.maj() == hi_val]
            assert lo == [minmaj_tableau(p)]
            assert hi == [maxmaj_tableau(p)]


def test_exceptional_set():
    assert exceptional_set(Partition((6, 4, 3, 3, 1))) == frozenset(
        {maxmaj_tableau(Partition((6, 4, 3, 3, 1)))}
    )
    e = exceptional_set(Partition((5, 5, 5)))
    assert sorted(t.maj() for t in e) == [15, 73, 75]
    middle = next(t for t in e if t.maj() == 73)
    assert middle.rows() == [[1, 2, 7, 10, 13], [3, 5, 8, 11, 14], [4, 6, 9, 12, 15]]
    assert len(exceptional_set(Partition((6,)))) == 1
    assert len(exceptional_set(Partition((3, 3)))) == 3


def test_canonical_orbit_tableaux():
    bs = parse_blocks("2|3,1")
    # d=1: everything, b(alpha) constant
    d1 = list(canonical_orbit_tableaux(bs, 1))
    assert len(d1) == 45 and {ba for _, ba in d1} == {4}
    # d=2: (#orbit/d) * #SYT = 45
    d2 = list(canonical_orbit_tableaux(bs, 2))
    assert len(d2) == 45
    assert {ba for _, ba in d2} == {4, 2}
    # repeated blocks: orbit of size 1, half the tableaux are canonical
    twin = BlockShape((Partition((2, 1)), Partition((2, 1))))
    full = count_tableaux(twin)
    assert len(list(canonical_orbit_tableaux(twin, 2))) == full // 2
    with pytest.raises(DNotDividingM):
        list(canonical_orbit_tableaux(bs, 3))
    # no blocks: the empty filling of the one rotation of the empty sequence
    assert [(t.n, ba) for t, ba in canonical_orbit_tableaux(BlockShape(()), 1)] == [(0, 0)]


def test_canonical_orbit_with_empty_blocks():
    bs = parse_blocks("|3,3")
    d2 = list(canonical_orbit_tableaux(bs, 2))
    # orbit has two shapes; representative keeps the top entry in block 1
    assert len(d2) == count_tableaux(bs)
    assert all(t.shape.blocks[0] for t, _ in d2)
