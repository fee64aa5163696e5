import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

import sytmaj.deformed
import sytmaj.genfun
import sytmaj.qpolys
import sytmaj.verify
from sytmaj.deformed import deformed_multinomial, partial_sum_multinomial
from sytmaj.genfun import gmdn_fake_degree
from sytmaj.qpolys import (
    QPoly,
    q_binomial,
    q_multinomial,
    shape_predicates,
    substitute_power,
)
from sytmaj.shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    b_composition,
    parse_blocks,
    rotate_right,
    rotation_class,
)
from sytmaj.tableaux import word_inv
from sytmaj.verify import (
    block_shapes,
    deformed_multinomial_by_deletion,
    deformed_multinomial_rational,
    divide_exact,
    gmdn_gf_oracle,
    partial_sum_multinomial_by_sum,
    q_mult_recurrence_check,
    weak_compositions,
    word_inv_oracle,
)

EX_72 = QPoly.from_terms(
    {6: 1, 8: 1, 10: 3, 12: 3, 14: 6, 16: 5, 18: 8, 20: 6, 22: 8,
     24: 5, 26: 6, 28: 3, 30: 3, 32: 1, 34: 1}
)


def composition_degree(alpha) -> int:
    """Degree of the q-multinomial for alpha: C(n,2) - sum C(alpha_i,2)."""
    alpha = tuple(alpha)
    n = sum(alpha)
    return n * (n - 1) // 2 - sum(a * (a - 1) // 2 for a in alpha)


def deformed_binomial(n: int, k: int) -> QPoly:
    """Two-part deformed multinomial at d=2, by the Pascal-type identity."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    if n == 0:
        return QPoly.one()
    return (
        substitute_power(q_binomial(n - 1, k - 1), 2).shift(n - k)
        + substitute_power(q_binomial(n - 1, k), 2).shift(k)
    )


@dataclass(frozen=True)
class CyclicComposition:
    """A weak composition together with its rotation class of order d."""

    alpha: tuple[int, ...]
    d: int

    def __init__(self, alpha, d: int):
        alpha = tuple(int(a) for a in alpha)
        if any(a < 0 for a in alpha):
            raise ValueError(f"entries must be nonnegative: {alpha}")
        if d <= 0 or len(alpha) % d:
            raise DNotDividingM(f"d={d} does not divide m={len(alpha)}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def n(self) -> int:
        return sum(self.alpha)

    def orbit(self) -> list[tuple[int, ...]]:
        return rotation_class(self.alpha, self.d)

    def degree(self) -> int:
        return composition_degree(self.alpha)

    def deformed(self) -> QPoly:
        return deformed_multinomial(self.alpha, self.d)


def multinomial_int(alpha):
    from math import factorial

    out = factorial(sum(alpha))
    for a in alpha:
        out //= factorial(a)
    return out


def test_rotations():
    assert rotate_right((1, 2, 3, 4)) == (4, 1, 2, 3)
    assert rotate_right((1, 2, 3, 4), 2) == (3, 4, 1, 2)
    assert rotation_class((2, 1, 1, 1), 2) == [(2, 1, 1, 1), (1, 1, 2, 1)]
    with pytest.raises(DNotDividingM):
        rotation_class((1, 2, 3), 2)
    # the empty sequence has one rotation: itself
    for k in (-1, 0, 1, 5):
        assert rotate_right((), k) == ()
    assert rotation_class((), 1) == [()]


def test_partial_sum_multinomial_examples():
    alpha = (2, 1, 1, 1)
    assert partial_sum_multinomial(alpha, 4) == q_multinomial(5, alpha)
    assert partial_sum_multinomial((0, 0, 3), 2).is_zero()
    assert partial_sum_multinomial((2, 1), 1) == QPoly(0, (1, 1))


def test_partial_sum_two_formulas_agree():
    for n in range(1, 7):
        for m in range(1, 5):
            for alpha in weak_compositions(n, m):
                for k in range(1, m + 1):
                    assert partial_sum_multinomial(alpha, k) == \
                        partial_sum_multinomial_by_sum(alpha, k)


def test_partial_sum_matches_word_oracle_small():
    for n in range(1, 7):
        for m in range(1, 4):
            for alpha in weak_compositions(n, m):
                for k in range(1, m + 1):
                    assert partial_sum_multinomial(alpha, k) == word_inv_oracle(alpha, k)


def test_word_oracle_matches_brute_force():
    # every distinct word, counted by inversions; k = 0 admits no word and
    # k > m every word
    for n in range(7):
        for m in range(1, 5):
            for alpha in weak_compositions(n, m):
                content = [i for i, a in enumerate(alpha, 1) for _ in range(a)]
                words = set(itertools.permutations(content))
                for k in range(m + 2):
                    want = Counter(word_inv(w) for w in words if w and w[0] <= k)
                    assert word_inv_oracle(alpha, k) == QPoly.from_terms(want), (alpha, k)


def test_word_oracle_reads_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the word oracle reached the expansion kernel")

    cases = [((2, 1, 1, 1), 4), ((3, 0, 2, 1), 3), ((0, 2, 0, 1), 2), ((4, 1, 0), 3), ((0, 0), 2)]
    want = [word_inv_oracle(a, k) for a, k in cases]
    for obj in vars(sytmaj.verify).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    with monkeypatch.context() as mp:
        for module in (sytmaj.qpolys, sytmaj.verify):
            for name in ("expand", "q_multinomial", "multinomial_exponents"):
                if hasattr(module, name):
                    mp.setattr(module, name, refuse)
        got = [word_inv_oracle(a, k) for a, k in cases]
    assert got == want


def test_partial_sum_shape_facts():
    # constant coefficient 1, stated degree, no internal zeros, when nonzero
    for n in range(1, 8):
        for m in range(1, 5):
            for alpha in weak_compositions(n, m):
                for k in range(1, m + 1):
                    p = partial_sum_multinomial(alpha, k)
                    if sum(alpha[:k]) == 0:
                        assert p.is_zero()
                        continue
                    assert p.offset == 0 and p.coeffs[0] == 1
                    assert p.degree == composition_degree(alpha) - sum(alpha[k:])
                    facts = shape_predicates(p)
                    assert facts.symmetric and facts.unimodal
                    assert not facts.internal_zeros


def test_partial_sum_constancy_cases():
    # zero: empty head
    assert partial_sum_multinomial((0, 5), 1).is_zero()
    # constant 1: head mass one, another entry n-1 beyond the head
    assert partial_sum_multinomial((1, 4), 1) == QPoly.one()
    # constant 1: a full entry inside the head
    assert partial_sum_multinomial((5, 0), 1) == QPoly.one()
    # otherwise non-constant
    assert len(partial_sum_multinomial((2, 3), 1).coeffs) > 1


def test_q_mult_recurrence():
    assert q_mult_recurrence_check((1, 1))
    assert q_mult_recurrence_check((2, 1, 1, 1))
    assert q_mult_recurrence_check((2, 0, 1))
    assert q_multinomial(2, (1, 1)) == QPoly.one() + QPoly.monomial(1)


def test_deformed_multinomial_example():
    assert deformed_multinomial((2, 1, 1, 1), 2) == EX_72
    assert deformed_multinomial_rational((2, 1, 1, 1), 2) == EX_72


def test_deformed_d1_and_q1():
    for alpha in [(2, 1), (3, 0, 1), (1, 1, 1)]:
        m = len(alpha)
        n = sum(alpha)
        want = substitute_power(q_multinomial(n, alpha), m).shift(b_composition(alpha))
        assert deformed_multinomial(alpha, 1) == want
    for alpha, d in [((2, 1, 1, 1), 2), ((3, 1), 2), ((1, 1, 1), 3)]:
        assert deformed_multinomial(alpha, d).eval_at_1() == multinomial_int(alpha)


def test_deformed_rotation_invariance():
    alpha = (2, 0, 3, 1)
    assert deformed_multinomial(alpha, 2) == deformed_multinomial(rotate_right(alpha, 2), 2)


def test_deformed_binomial():
    assert deformed_binomial(2, 1) == QPoly(1, (2,))
    assert deformed_binomial(0, 0) == QPoly.one()
    for n in range(1, 7):
        assert deformed_binomial(n, 0) == QPoly.one()
        for k in range(0, n + 1):
            db = deformed_binomial(n, k)
            assert db == deformed_binomial(n, n - k)
            assert db == deformed_multinomial((k, n - k), 2)
            # the rational Pascal-type form
            num = (QPoly.monomial(k) + QPoly.monomial(n - k)) * substitute_power(
                q_binomial(n, k), 2
            )
            assert db == divide_exact(num, QPoly.from_terms({0: 1, n: 1}))


def test_deformed_chain_with_fake_degrees():
    # the deformed multinomial is d/#orbit times the one-row fake degree
    for alpha, d in [((2, 1, 1, 1), 2), ((2, 2), 2), ((1, 1, 1), 3), ((3, 1), 2)]:
        m = len(alpha)
        blocks = BlockShape(tuple(Partition((a,)) if a else Partition() for a in alpha))
        orbit = len(blocks.orbit(d))
        lhs = deformed_multinomial(alpha, d) * orbit
        rhs = gmdn_fake_degree(blocks, m, d) * d
        assert lhs == rhs


def test_cyclic_composition():
    cc = CyclicComposition((2, 1, 1, 1), 2)
    assert cc.m == 4 and cc.n == 5
    assert cc.orbit() == [(2, 1, 1, 1), (1, 1, 2, 1)]
    assert cc.degree() == 9
    assert cc.deformed() == EX_72
    with pytest.raises(DNotDividingM):
        CyclicComposition((1, 2, 3), 2)
    with pytest.raises(ValueError):
        CyclicComposition((1, -1), 2)


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
)
def test_rotation_b_increment(alpha, d):
    alpha = tuple(alpha)
    m = len(alpha)
    if m % d:
        d = 1
    step = m // d
    tau = rotate_right(alpha, step)
    n = sum(alpha)
    assert b_composition(tau) - b_composition(alpha) == n * step - m * sum(alpha[m - step:])


# sha256 over the to_json_str() lines, taken from the deletion-term sum the
# rotation-sum form replaced; n <= 7 and m <= 5 for the compositions, n <= 5
# and m <= 4 for the block shapes, n = 0 included, every d dividing m
COMPS = [alpha for n in range(8) for m in range(1, 6) for alpha in weak_compositions(n, m)]
GOLDEN = {
    "deformed": "a4ca3ad4a7f86d3fa97dde1ce74f6137542fce496491f2b447fb9207e6c11931",
    "partial": "17fe5488d9afae51a219a791ef92c95c1dd79d0eac0d6e0436d372455b6ee1f7",
    "gmdn": "f927fe99a5474ad1940116094f7ce0cc0d989a75adf551c0c42e4456538b4fd3",
}


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def _sha(polys) -> str:
    return hashlib.sha256("\n".join(p.to_json_str() for p in polys).encode()).hexdigest()


def test_rotation_sum_golden():
    assert len(COMPS) == 1286
    assert _sha(deformed_multinomial(a, d) for a in COMPS for d in _divisors(len(a))) \
        == GOLDEN["deformed"]
    assert _sha(partial_sum_multinomial(a, k) for a in COMPS for k in range(1, len(a) + 1)) \
        == GOLDEN["partial"]
    assert _sha(gmdn_fake_degree(b, m, d) for n in range(6) for m in range(1, 5)
                for d in _divisors(m) for b in block_shapes(n, m)) == GOLDEN["gmdn"]


def test_one_kernel_call_per_rotation(monkeypatch):
    # each form is expanded at q, not at q**m: its exponents run over d <= n
    calls = []
    expand = sytmaj.deformed.expand

    def counting(form):
        calls.append(form)
        return expand(form)

    def indexed_to(n):
        return all(len(form.exponents) == n + 1 for form in calls)

    monkeypatch.setattr(sytmaj.deformed, "expand", counting)
    for alpha in COMPS:
        m, n = len(alpha), sum(alpha)
        for d in _divisors(m):
            calls.clear()
            deformed_multinomial(alpha, d)
            assert len(calls) <= d and indexed_to(n), (alpha, d)
        for k in range(1, m + 1):
            calls.clear()
            partial_sum_multinomial(alpha, k)
            assert len(calls) <= 1 and indexed_to(n), (alpha, k)
    for shape, m, d in [("2|3,1", 2, 2), ("1|1|2", 3, 3), ("1||1,1|", 4, 2), ("2,1|1|1|", 4, 4),
                        ("10,8,6,4,2|9,7,5,3,1|6,6,6|5,5", 4, 2)]:
        calls.clear()
        blocks = parse_blocks(shape)
        gmdn_fake_degree(blocks, m, d)
        assert 0 < len(calls) <= d and indexed_to(blocks.n), shape


def test_gmdn_expands_once_per_orbit_member(monkeypatch):
    # the fake degree sums over the orbit's distinct rotations, so a
    # symmetric block sequence expands fewer forms than d
    calls = []
    expand = sytmaj.deformed.expand
    monkeypatch.setattr(sytmaj.deformed, "expand", lambda form: calls.append(form) or expand(form))
    counts = []
    for shape, m, d in [("2,1|2,1", 2, 2), ("1|1|1", 3, 3), ("1||1|", 4, 2), ("2,1|1", 2, 2)]:
        calls.clear()
        gmdn_fake_degree(parse_blocks(shape), m, d)
        counts.append(len(calls))
    assert counts == [1, 1, 1, 2]


def test_rotation_sum_multiplies_no_polynomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("polynomial arithmetic outside the kernel")

    cases = [((2, 1, 1, 1), 2), ((3, 0, 2, 1), 4), ((0, 2, 0, 1), 2), ((4, 1, 0), 3)]
    blocks = [(parse_blocks("2|3,1"), 2, 2), (parse_blocks("2,1|1|1|"), 4, 2)]
    with monkeypatch.context() as mp:
        for name in ("__mul__", "__rmul__", "__add__"):
            mp.setattr(QPoly, name, refuse)
        for module in (sytmaj.qpolys, sytmaj.deformed, sytmaj.genfun):
            if hasattr(module, "substitute_power"):
                mp.setattr(module, "substitute_power", refuse)
        got = [deformed_multinomial(a, d) for a, d in cases]
        got_p = [partial_sum_multinomial(a, k) for a, _ in cases for k in range(1, len(a) + 1)]
        got_g = [gmdn_fake_degree(b, m, d) for b, m, d in blocks]
    assert got == [deformed_multinomial_by_deletion(a, d) for a, d in cases]
    assert got_p == [partial_sum_multinomial_by_sum(a, k) for a, _ in cases
                     for k in range(1, len(a) + 1)]
    assert got_g == [gmdn_gf_oracle(b, m, d) for b, m, d in blocks]


def test_negative_entries_raise_value_error():
    # both once raised IndexError from multinomial_exponents
    for call in (deformed_multinomial, partial_sum_multinomial):
        with pytest.raises(ValueError, match=r"^composition entries must be nonnegative: \(2, -1\)$"):
            call((2, -1), 1)
    # a partial sum of 0 once returned 0 before the entries were checked
    for alpha, k in (((0, -1), 1), ((-1, 1), 2), ((1, -1), 2)):
        with pytest.raises(ValueError, match="^composition entries must be nonnegative"):
            partial_sum_multinomial(alpha, k)


def test_zero_content_edge_cases():
    assert deformed_multinomial((), 1) == QPoly.one()
    for m in range(1, 5):
        zero = (0,) * m
        for d in _divisors(m):
            assert deformed_multinomial(zero, d) == QPoly.one()
        # the empty word: the product formula gives 1 at k = m, 0 below
        for k in range(1, m):
            assert partial_sum_multinomial(zero, k).is_zero()
        assert partial_sum_multinomial(zero, m) == QPoly.one()
    with pytest.raises(DNotDividingM):
        deformed_multinomial((0, 0, 0), 2)
    with pytest.raises(ValueError):
        partial_sum_multinomial((0, 0), 3)


def test_oracles_live_in_verify():
    import sytmaj

    for name in ("deformed_multinomial_rational", "partial_sum_multinomial_by_sum",
                 "q_mult_recurrence_check", "deformed_multinomial_by_deletion",
                 "composition_degree", "deformed_binomial"):
        assert not hasattr(sytmaj.deformed, name), name
        assert name not in sytmaj.__all__, name
    for name in ("coefficient_via_H", "generalized_binomial", "mahonian_count", "block_maj_gf"):
        assert not hasattr(sytmaj.genfun, name), name
        assert name not in sytmaj.__all__, name
