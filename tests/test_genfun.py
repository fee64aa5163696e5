from collections import Counter
from dataclasses import dataclass
from math import comb

import pytest

from sytmaj.genfun import gmdn_fake_degree, stanley, syt_count, wreath_fake_degree
from sytmaj.qpolys import (
    QPoly,
    divide_exact_int,
    expand,
    multinomial_exponents,
    q_binomial,
    q_int,
    q_multinomial,
    substitute_power,
)
from sytmaj.shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    b_statistic,
    hook_lengths,
    parse_blocks,
    partitions,
    rotate_right,
)
from sytmaj.verify import (
    _distinct_large_parts,
    block_shapes,
    coefficient_via_H,
    deformed_multinomial_by_deletion,
    divide_exact,
    generalized_binomial,
    gmdn_gf_oracle,
    mahonian_count,
    maj_gf_oracle,
)

N83 = "10,8,6,4,2|9,7,5,3,1|6,6,6|5,5"


@dataclass(frozen=True)
class HProfile:
    """Hook-multiplicity vector H_i and part multiplicities of a companion
    partition, the parameters of the coefficient polynomials."""

    H: tuple[int, ...]  # H[i-1] = number of cells with hook length i
    m_mu: tuple[int, ...]

    @staticmethod
    def of(p: Partition, mu: Partition) -> "HProfile":
        n = p.n
        H = [0] * n
        for h in hook_lengths(p).values():
            H[h - 1] += 1
        m = [0] * n
        for part in mu.parts:
            if part <= n:
                m[part - 1] += 1
        return HProfile(tuple(H), tuple(m))


def count_T(d, n):
    """Partitions of d with first part <= n and distinct parts > 1."""
    return sum(1 for mu in partitions(d, max_part=n) if _distinct_large_parts(mu))


def hook_products_at_power(bs, m):
    """The blocks' stanley products at q**m, multiplied out one by one."""
    out = QPoly.one()
    for b in bs.blocks:
        if b:
            out = out * substitute_power(expand(stanley(b)), m)
    return out


def old_block_maj_gf(bs):
    return q_multinomial(bs.n, bs.alpha()) * hook_products_at_power(bs, 1)


def old_gmdn_fake_degree(bs, m, d):
    """Deformed multinomial, as the deletion-term sum, times the hook
    products, over d/|orbit|."""
    out = deformed_multinomial_by_deletion(bs.alpha(), d) * hook_products_at_power(bs, m)
    return divide_exact_int(out, d // len(bs.orbit(d)))


def test_stanley_examples():
    assert expand(stanley(Partition((4, 2)))) == QPoly(2, (1, 1, 2, 1, 2, 1, 1))
    for n in range(1, 8):
        assert expand(stanley(Partition((n, 1)))) == q_int(n).shift(1)
    for n in range(1, 7):
        catalan = divide_exact(q_binomial(2 * n, n), q_int(n + 1))
        assert expand(stanley(Partition((n, n)))) == catalan.shift(n)


def test_stanley_exponents_nonnegative():
    # q**d - 1 = prod_{j | d} Phi_j, so the cyclotomic exponent of Phi_j in
    # the binomial form is E_j = sum_{k >= 1} e_{jk}
    for n in range(1, 15):
        for p in partitions(n):
            exps = stanley(p).exponents
            phi_exps = [sum(exps[j * k] for k in range(1, n // j + 1)) for j in range(1, n + 1)]
            assert phi_exps[0] == 0, p
            assert all(e >= 0 for e in phi_exps[1:]), p


def test_stanley_of_blocks_is_multinomial_times_block_forms():
    # [n; alpha] prod SYT(lambda^i)^maj: each block's [d <= alpha_i] cancels
    # the multinomial's -[d <= alpha_i]; empty blocks add nothing
    for n in range(0, 7):
        for m in (1, 2, 3):
            for bs in block_shapes(n, m):
                form = stanley(bs)
                want = multinomial_exponents(n, bs.alpha())
                for b in bs.blocks:
                    if b:
                        block = stanley(b).exponents
                        want[: len(block)] = [x + y for x, y in zip(want, block)]
                assert form.shift == sum(b_statistic(b) for b in bs.blocks), bs
                assert form.exponents == want, bs
    assert expand(stanley(parse_blocks("||"))) == QPoly.one()
    with pytest.raises(ValueError):
        stanley(Partition())


def test_block_maj_gf():
    p = Partition((3, 2, 1))
    assert expand(stanley(BlockShape((p,)))) == expand(stanley(p))
    # one-row blocks recover the plain q-multinomial
    alpha = (3, 2, 2)
    bs = BlockShape(tuple(Partition((a,)) for a in reversed(alpha)))
    assert expand(stanley(bs)) == q_multinomial(7, alpha)
    bs2 = parse_blocks("2|3,1")
    assert expand(stanley(bs2)) == maj_gf_oracle(bs2)
    assert expand(stanley(bs2)).eval_at_1() == 45


def test_block_maj_gf_matches_enumeration_small():
    for n in range(0, 8):
        for m in (1, 2, 3):
            for bs in block_shapes(n, m):
                assert expand(stanley(bs)) == maj_gf_oracle(bs)
    for n in (8, 9, 10):
        for bs in block_shapes(n, 2):
            assert expand(stanley(bs)) == maj_gf_oracle(bs)


def test_block_forms_match_multiplied_products():
    for n in range(0, 7):
        for m in (1, 2, 3):
            for bs in block_shapes(n, m):
                old = old_block_maj_gf(bs)
                assert expand(stanley(bs)) == old, bs
                want = substitute_power(old, m).shift(bs.b_alpha())
                assert wreath_fake_degree(bs, m) == want, bs
    bs = parse_blocks(N83)
    old = old_block_maj_gf(bs)
    assert expand(stanley(bs)) == old
    assert wreath_fake_degree(bs, 4) == substitute_power(old, 4).shift(bs.b_alpha())


def test_generalized_binomial():
    assert generalized_binomial(-1, 1) == -1
    assert generalized_binomial(-2, 2) == 3
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(3, 0) == 1
    assert generalized_binomial(2, 5) == 0


def test_coefficient_via_H_examples():
    assert coefficient_via_H(Partition((4, 2)), 2) == 2
    for n in range(2, 10):
        for p in partitions(n):
            hooks = HProfile.of(p, Partition())
            notches = hooks.H[0] - 1
            assert coefficient_via_H(p, 1) == notches
            if p.is_rectangle():
                assert coefficient_via_H(p, 1) == 0


def test_coefficient_via_H_explicit_small_orders():
    # closed polynomials in the hook multiplicities for offsets 2, 3, 4
    def binom(a, k):
        return generalized_binomial(a, k)

    for n in range(4, 11):
        for p in partitions(n):
            H = [0] * (n + 1)
            from sytmaj.shapes import hook_lengths

            for h in hook_lengths(p).values():
                H[h] += 1
            h1, h2, h3, h4 = H[1], H[2], H[3], H[4]
            assert coefficient_via_H(p, 2) == binom(h1, 2) + h2 - 1
            assert coefficient_via_H(p, 3) == (
                binom(h1 + 1, 3) + (h1 - 1) * (h2 - 1) + (h3 - 1)
            )
            assert coefficient_via_H(p, 4) == (
                binom(h1 + 2, 4) + binom(h2, 2) + binom(h1, 2) * (h2 - 1)
                + (h1 - 1) * (h3 - 1) + (h4 - 1)
            )


def test_coefficient_via_H_matches_expansion():
    for n in range(1, 11):
        for p in partitions(n):
            poly = expand(stanley(p))
            b = poly.offset
            for d in range(0, comb(n, 2) + 1):
                assert coefficient_via_H(p, d) == poly.coefficient(b + d), (p, d)


def test_hprofile_invariants():
    p = Partition((4, 2, 1))
    prof = HProfile.of(p, Partition((2, 1)))
    assert sum(prof.H) == p.n
    assert prof.H[0] >= 1
    assert prof.m_mu[0] == 1 and prof.m_mu[1] == 1


def test_mahonian_count():
    for n in range(1, 9):
        inv_gf = [0] * (comb(n, 2) + 1)
        for k in range(comb(n, 2) + 1):
            inv_gf[k] = mahonian_count(n, k)
        import itertools

        brute = Counter(
            sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
            for w in itertools.permutations(range(n))
        )
        assert inv_gf == [brute.get(k, 0) for k in range(comb(n, 2) + 1)]
    assert mahonian_count(7, 0) == 1
    assert mahonian_count(4, 3) == 6
    assert mahonian_count(5, comb(5, 2)) == 1


def test_count_T():
    assert count_T(1, 1) == 1
    assert count_T(5, 5) == 6
    for d in range(0, 8):
        assert count_T(d, 1) == 1
    # cross-check against a direct filter
    for d in range(0, 9):
        for n in range(1, 9):
            direct = 0
            for mu in partitions(d, max_part=n):
                large = [x for x in mu.parts if x > 1]
                if len(large) == len(set(large)):
                    direct += 1
            assert count_T(d, n) == direct


def test_wreath_fake_degree_examples():
    assert wreath_fake_degree(parse_blocks("2|3,1"), 2) == QPoly.from_terms(
        {6: 1, 8: 2, 10: 4, 12: 5, 14: 7, 16: 7, 18: 7, 20: 5, 22: 4, 24: 2, 26: 1}
    )
    assert wreath_fake_degree(parse_blocks("|3,3"), 2) == QPoly.from_terms(
        {12: 1, 16: 1, 18: 1, 20: 1, 24: 1}
    )
    p = Partition((3, 2))
    assert wreath_fake_degree(BlockShape((p,)), 1) == expand(stanley(p))
    with pytest.raises(ValueError):
        wreath_fake_degree(parse_blocks("2|3,1"), 3)


def test_gmdn_fake_degree_examples():
    assert gmdn_fake_degree(parse_blocks("2|3,1"), 2, 2) == QPoly.from_terms(
        {4: 1, 6: 3, 8: 6, 10: 8, 12: 9, 14: 8, 16: 6, 18: 3, 20: 1}
    )
    assert gmdn_fake_degree(parse_blocks("|3,3"), 2, 2) == QPoly.from_terms(
        {6: 1, 10: 1, 12: 1, 14: 1, 18: 1}
    )
    bs = parse_blocks("2|3,1")
    assert gmdn_fake_degree(bs, 2, 1) == gmdn_gf_oracle(bs, 2, 1)
    with pytest.raises(DNotDividingM):
        gmdn_fake_degree(bs, 2, 3)


def test_gmdn_equals_rotation_sum_quotient():
    # alternate form: orbit b-of-alpha sum times the block genfun in q^m,
    # divided exactly by [d] in q^(nm/d)
    from sytmaj.qpolys import substitute_power

    for shape_str, m, d in [("2|3,1", 2, 2), ("|3,3", 2, 2), ("1|1|2", 3, 3),
                       ("2,1|2,1", 2, 2), ("1||1,1|", 4, 2)]:
        bs = parse_blocks(shape_str)
        num = QPoly.zero()
        for mu in bs.orbit(d):
            num = num + QPoly.monomial(mu.b_alpha())
        num = num * substitute_power(
            q_multinomial(bs.n, bs.alpha()), m
        )
        for b in bs.blocks:
            if b:
                num = num * substitute_power(expand(stanley(b)), m)
        den = substitute_power(QPoly(0, (1,) * d), bs.n * m // d)
        assert gmdn_fake_degree(bs, m, d) == divide_exact(num, den), (shape_str, m, d)


def test_gmdn_matches_deformed_multinomial_product():
    for n in range(1, 7):
        for m in range(1, 5):
            for d in (d for d in range(1, m + 1) if m % d == 0):
                for bs in block_shapes(n, m):
                    assert gmdn_fake_degree(bs, m, d) == old_gmdn_fake_degree(bs, m, d), (bs, d)
    bs = parse_blocks(N83)
    assert gmdn_fake_degree(bs, 4, 2) == old_gmdn_fake_degree(bs, 4, 2)


def test_gmdn_empty_blocks_is_one():
    # G(m,d,0) is the trivial group; its one irreducible has fake degree 1
    for shape_str in ("|", "||||"):
        bs = parse_blocks(shape_str)
        for d in (d for d in range(1, bs.m + 1) if bs.m % d == 0):
            assert gmdn_fake_degree(bs, bs.m, d) == QPoly.one()
            assert gmdn_gf_oracle(bs, bs.m, d) == QPoly.one()


def test_gmdn_rotation_invariance():
    for shape_str in ("2|3,1", "|3,3", "1,1|2"):
        bs = parse_blocks(shape_str)
        assert gmdn_fake_degree(bs, 2, 2) == gmdn_fake_degree(BlockShape(rotate_right(bs.blocks, 1)), 2, 2)


def test_gmdn_q1_counts():
    # at q=1 the fake degree counts the orbit tableaux
    for shape_str, m, d in [("2|3,1", 2, 2), ("1|1|2", 3, 3), ("2,1|2,1", 2, 2)]:
        bs = parse_blocks(shape_str)
        from sytmaj.tableaux import canonical_orbit_tableaux

        assert gmdn_fake_degree(bs, m, d).eval_at_1() == sum(
            1 for _ in canonical_orbit_tableaux(bs, d)
        )


def test_gmdn_q1_type_d_sanity():
    # at q=1: distinct pair gives the full multinomial-times-counts product,
    # a repeated pair gives half of it
    from math import comb as ncomb

    for lam, mu in [(Partition((2,)), Partition((1, 1))), (Partition((3, 1)), Partition((2,)))]:
        bs = BlockShape((lam, mu))
        want = ncomb(lam.n + mu.n, lam.n) * syt_count(lam) * syt_count(mu)
        assert gmdn_fake_degree(bs, 2, 2).eval_at_1() == want
    for nu in [Partition((2, 1)), Partition((2,))]:
        bs = BlockShape((nu, nu))
        want = ncomb(2 * nu.n, nu.n) * syt_count(nu) ** 2
        assert gmdn_fake_degree(bs, 2, 2).eval_at_1() * 2 == want


def test_syt_count():
    assert syt_count(Partition((4, 2))) == 9
    assert syt_count(Partition((5, 4, 4, 2))) == 81081
    assert syt_count(Partition()) == 1
    assert syt_count(Partition((3, 2, 1))) == 16
