import json

import pytest
from hypothesis import given, strategies as st

from sytmaj.genfun import gmdn_fake_degree, stanley, wreath_fake_degree
from sytmaj.qpolys import QPoly, expand, shape_predicates
from sytmaj.shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    SkewShape,
    parse_blocks,
    partitions,
)
from sytmaj.verify import block_shapes, gmdn_gf_oracle, maj_gf_oracle
from sytmaj.zeros import (
    check_parity_unimodal,
    support_des,
    support_gmdn,
    support_type_A,
    verify_support,
)


def test_support_type_A_examples():
    assert support_type_A(Partition((4, 2))).degrees == frozenset(range(2, 9))
    pred22 = support_type_A(Partition((2, 2)))
    assert pred22.degrees == frozenset({2, 4})
    assert pred22.excluded == frozenset({3, 3})
    assert support_type_A(Partition((6,))).degrees == frozenset({0})


def test_support_type_A_matches_oracle():
    for n in range(1, 10):
        for p in partitions(n):
            rep = verify_support(support_type_A(p), maj_gf_oracle(p), str(p))
            assert rep.equal, rep.to_json_str()


def test_support_des_examples():
    assert support_des(Partition((4, 2))).degrees == frozenset({1, 2})
    assert support_des(Partition((1, 1, 1, 1))).degrees == frozenset({3})
    skew = support_des(SkewShape(Partition((3, 2)), Partition((1,))))
    assert not skew.interval_verified
    assert skew.degrees == frozenset({1, 2})
    strip = support_des(SkewShape(Partition((2, 1)), Partition((1,))))
    assert strip.degrees == frozenset({0, 1})


def test_support_des_rejects_empty_shapes():
    # Both once predicted the degrees {-1, 0} for a filling with no cells.
    for shape in (Partition(()), SkewShape(Partition((2, 1)), Partition((2, 1)))):
        with pytest.raises(ValueError, match="nonempty"):
            support_des(shape)


def test_support_wreath_examples():
    # C_m wr S_n is G(m,1,n)
    pred = support_gmdn(parse_blocks("2|3,1"), 2, 1)
    assert pred.family == "wreath" and pred.degrees == frozenset(range(6, 27, 2))
    assert support_gmdn(parse_blocks("|3,3"), 2, 1).degrees == frozenset({12, 16, 18, 20, 24})
    for n in range(1, 7):
        for p in partitions(n):
            assert support_gmdn(BlockShape((p,)), 1, 1).degrees == support_type_A(p).degrees


def test_support_gmdn_examples():
    assert support_gmdn(parse_blocks("2|3,1"), 2, 2).degrees == frozenset(range(4, 21, 2))
    assert support_gmdn(parse_blocks("|3,3"), 2, 2).degrees == frozenset({6, 10, 12, 14, 18})
    bs = parse_blocks("2|3,1")
    assert support_gmdn(bs, 2, 1).degrees == frozenset(gmdn_gf_oracle(bs, 2, 1).support())
    with pytest.raises(DNotDividingM):
        support_gmdn(bs, 2, 3)


def test_support_wreath_matches_polynomials():
    for n in range(1, 7):
        for m in (1, 2, 3):
            for bs in block_shapes(n, m):
                rep = verify_support(
                    support_gmdn(bs, m, 1), wreath_fake_degree(bs, m), str(bs)
                )
                assert rep.equal, rep.to_json_str()


def test_block_gf_internal_zeros_classification():
    for n in range(1, 9):
        for m in (1, 2, 3):
            for bs in block_shapes(n, m):
                nonempty = [b for b in bs.blocks if b]
                has_zero = bool(shape_predicates(expand(stanley(bs))).internal_zeros)
                expect = len(nonempty) == 1 and nonempty[0].is_big_rectangle()
                assert has_zero == expect, bs


def test_check_parity_unimodal():
    assert check_parity_unimodal(Partition((4, 2)))
    assert check_parity_unimodal(Partition((1,)))
    for n in range(1, 13):
        assert check_parity_unimodal(Partition((n, n)))


def test_verify_support_report():
    pred = support_type_A(Partition((3, 1)))
    rep = verify_support(pred, expand(stanley(Partition((3, 1)))), "3,1")
    assert rep.equal
    obj = json.loads(rep.to_json_str())
    assert obj["shape"] == "3,1" and obj["equal"] is True
    bad = verify_support(pred, QPoly.from_terms({1: 1, 2: 1, 6: 1}), "3,1")
    assert not bad.equal
    assert bad.missing == (3,) and bad.extra == (6,)
    assert "missing" in json.loads(bad.to_json_str())


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=3),
)
def test_product_has_no_internal_zeros(fcoeffs, gcoeffs, shift):
    # f positive with no internal zeros and >= 2 terms, g nonneg with no two
    # adjacent internal zeros: the product has no internal zeros
    f = QPoly(shift, fcoeffs)
    g = QPoly(0, gcoeffs)
    if g.is_zero():
        return
    adjacent_zero = any(
        g.coeffs[i] == 0 and g.coeffs[i + 1] == 0 for i in range(len(g.coeffs) - 1)
    )
    if adjacent_zero:
        return
    assert not shape_predicates(f * g).internal_zeros


def test_type_bd_supports_on_bipartitions():
    for n in range(1, 7):
        for k in range(0, n + 1):
            for lam in partitions(k):
                for mu in partitions(n - k):
                    bs = BlockShape((lam, mu))
                    repb = verify_support(
                        support_gmdn(bs, 2, 1), wreath_fake_degree(bs, 2), str(bs)
                    )
                    repd = verify_support(
                        support_gmdn(bs, 2, 2), gmdn_fake_degree(bs, 2, 2), str(bs)
                    )
                    assert repb.equal and repd.equal, (str(bs), repb, repd)
