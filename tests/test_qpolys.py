import random

import pytest
from hypothesis import given, strategies as st

from sytmaj.genfun import stanley, syt_count
from sytmaj.qpolys import (
    BinomialForm,
    NonzeroRemainder,
    QPoly,
    divide_exact_int,
    expand,
    multinomial_exponents,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
    shape_predicates,
    substitute_power,
)
from sytmaj.shapes import BlockShape, Partition, partitions
from sytmaj.verify import (
    block_shapes,
    cyclotomic_polynomial,
    divide_exact,
    stanley_cyclotomic_oracle,
)

qpoly_st = st.builds(
    QPoly,
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=7),
)
nonzero_qpoly_st = qpoly_st.filter(lambda p: not p.is_zero())


def compositions(n, max_parts):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        if max_parts >= 1:
            for rest in compositions(n - first, max_parts - 1):
                yield (first,) + rest


def test_canonical_form():
    assert QPoly(2, (0, 1, 0)).offset == 3
    assert QPoly(0, (0, 0)).is_zero()
    assert QPoly.zero().coeffs == ()
    assert QPoly(1, (2, 3)).degree == 2
    assert QPoly.monomial(4).support() == (4,)


def test_q_analogues():
    assert q_int(3) == QPoly(0, (1, 1, 1))
    assert q_int(0) == QPoly.zero()
    assert q_factorial(3) == QPoly(0, (1, 2, 2, 1))
    assert q_multinomial(2, (1, 1)) == QPoly(0, (1, 1))
    assert q_binomial(4, 2) == QPoly(0, (1, 1, 2, 1, 1))
    assert q_binomial(4, 5).is_zero()
    assert q_multinomial(3, (4, -1)).is_zero()
    with pytest.raises(ValueError):
        q_multinomial(3, (1, 1))
    assert q_multinomial(4, iter((2, 2))) == q_binomial(4, 2)
    assert q_binomial(4, -1).is_zero()


def test_multinomial_substituted_power():
    got = substitute_power(q_multinomial(5, (2, 1, 1, 1)), 4)
    want = QPoly.from_terms(
        {36: 1, 32: 3, 28: 6, 24: 9, 20: 11, 16: 11, 12: 9, 8: 6, 4: 3, 0: 1}
    )
    assert got == want


def test_substitute_power_basics():
    assert substitute_power(QPoly(0, (1, 1)), 2) == QPoly(0, (1, 0, 1))
    assert substitute_power(QPoly(2, (1, 1)), 3).offset == 6
    p = QPoly(1, (2, 0, 3))
    assert substitute_power(p, 1) == p
    with pytest.raises(ValueError):
        substitute_power(p, 0)


@given(qpoly_st, qpoly_st, st.integers(min_value=1, max_value=4))
def test_substitute_power_multiplicative(a, b, m):
    assert substitute_power(a * b, m) == substitute_power(a, m) * substitute_power(b, m)


@given(qpoly_st, qpoly_st, qpoly_st)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_divide_exact_examples():
    onepq = QPoly(0, (1, 1))
    assert divide_exact(onepq * onepq, onepq) == onepq
    with pytest.raises(NonzeroRemainder):
        divide_exact(QPoly(0, (1, 1, 1)), onepq)
    num = (QPoly.monomial(6) + QPoly.monomial(8)) * substitute_power(
        q_multinomial(5, (2, 1, 1, 1)), 4
    )
    got = divide_exact(num, QPoly.from_terms({0: 1, 10: 1}))
    assert got == QPoly.from_terms(
        {6: 1, 8: 1, 10: 3, 12: 3, 14: 6, 16: 5, 18: 8, 20: 6, 22: 8,
         24: 5, 26: 6, 28: 3, 30: 3, 32: 1, 34: 1}
    )


@given(nonzero_qpoly_st, nonzero_qpoly_st)
def test_divide_exact_inverts_mul(a, b):
    assert divide_exact(a * b, b) == a


def test_divide_exact_int():
    assert divide_exact_int(QPoly(1, (2, 4)), 2) == QPoly(1, (1, 2))
    with pytest.raises(NonzeroRemainder):
        divide_exact_int(QPoly(0, (3,)), 2)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == QPoly(0, (-1, 1))
    assert cyclotomic_polynomial(2) == QPoly(0, (1, 1))
    assert cyclotomic_polynomial(6) == QPoly(0, (1, -1, 1))
    for k in range(1, 13):
        prod = QPoly.one()
        for j in range(2, k + 1):
            if k % j == 0:
                prod = prod * cyclotomic_polynomial(j)
        assert prod == q_int(k)


def test_expand_examples():
    form = stanley(Partition((4, 2)))
    assert form.shift == 2
    # q**d - 1 = prod_{j | d} Phi_j, so Phi_j has exponent sum_{j | d} e_d
    phi_exps = {j: sum(form.exponents[j::j]) for j in range(1, 7)}
    assert {j: e for j, e in phi_exps.items() if e} == {3: 2, 6: 1}
    assert expand(form) == QPoly(2, (1, 1, 2, 1, 2, 1, 1))
    assert expand(BinomialForm(0, [0])) == QPoly.one()
    form421 = stanley(Partition((4, 2, 1)))
    assert form421.shift == 4
    assert expand(form421) == q_int(7) * q_int(5) * QPoly.monomial(4)


def test_expand_returns_a_normal_polynomial():
    # expand builds its result unchecked; the public constructor must agree
    # (odd E = sum e_d and a nonzero shift among the last four)
    outs = [expand(stanley(p)) for n in range(1, 11) for p in partitions(n)]
    outs += [q_multinomial(n, a) for n in range(7) for a in compositions(n, 4)]
    outs += [expand(BinomialForm(shift, exps)) for shift, exps in (
        (0, [0]), (5, [0, 1]), (5, [0, 0, 1]), (5, [0, 2, 1]), (3, [0, -1, 2]))]
    for out in outs:
        assert out == QPoly(out.offset, out.coeffs), out
        assert out.coeffs[0] and out.coeffs[-1], out
        assert all(type(c) is int for c in out.coeffs), out
    assert expand(BinomialForm(5, [0, 2, 1])) == QPoly(5, (-1, 2, 0, -2, 1))


def test_expand_fast_matches_direct():
    for n in range(1, 11):
        for p in partitions(n):
            assert expand(stanley(p)) == stanley_cyclotomic_oracle(p)


def test_expand_fast_matches_direct_on_seeded_large_shapes():
    rng = random.Random(1809)
    for n in (30, 35, 40):
        parts = [n]
        while max(parts) > 8:  # split the largest part until it is short
            i = parts.index(max(parts))
            cut = rng.randint(1, parts[i] - 1)
            parts[i : i + 1] = [parts[i] - cut, cut]
        p = Partition(sorted(parts, reverse=True))
        assert expand(stanley(p)) == stanley_cyclotomic_oracle(p)


# (d, d') with d' | d stands for [d/d'] at q**d' = (q^d - 1)/(q^d' - 1)
quotient_st = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.integers(min_value=1, max_value=5).map(lambda dp: (k * dp, dp))
)


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(quotient_st, max_size=5),
    st.lists(st.integers(min_value=1, max_value=6), max_size=3),
)
def test_binomial_form_matches_products(shift, quotients, extras):
    exps = [0] * 31  # d <= 6 * 5
    want = QPoly.monomial(shift)
    for d, dp in quotients:
        exps[d] += 1
        exps[dp] -= 1
        want = want * substitute_power(q_int(d // dp), dp)
    for d in extras:
        exps[d] += 1
        want = want * QPoly.from_terms({0: -1, d: 1})
    assert expand(BinomialForm(shift, exps)) == want


def test_binomial_form_rejects_non_polynomials():
    for exps in ([0, 0, 1, -1], [0, 0, -1, 1], [0, -1], [0, 0, -2, 1, 1], [0, 0, 1, -2, 0, 1]):
        with pytest.raises(NonzeroRemainder):
            expand(BinomialForm(0, exps))
    with pytest.raises(ValueError):
        expand(BinomialForm(0, [1]))


def test_binomial_forms_are_lists_indexed_by_d():
    # e_d for 0 <= d <= n, with e_0 = 0
    def indexed_by_d(exps, n):
        return isinstance(exps, list) and len(exps) == n + 1 and exps[0] == 0

    for n in range(1, 8):
        for p in partitions(n):
            assert indexed_by_d(stanley(p).exponents, n), p
    for n in range(5):
        for m in (1, 2, 3):
            for bs in block_shapes(n, m):
                assert indexed_by_d(stanley(bs).exponents, n), bs
                assert indexed_by_d(multinomial_exponents(n, bs.alpha()), n), bs
    assert stanley(BlockShape(())).exponents == [0]
    assert multinomial_exponents(4, (2, 0, 2)) == [0, -1, -1, 1, 1]
    for exps in ([1], [2, 1], [-1, 0, 1], []):
        with pytest.raises(ValueError):
            expand(BinomialForm(0, exps))


def test_expand_q1_equals_hook_count_to_30():
    for n in range(1, 31):
        for p in partitions(n):
            assert expand(stanley(p)).eval_at_1() == syt_count(p)


def test_shape_predicates_examples():
    f42 = shape_predicates(expand(stanley(Partition((4, 2)))))
    assert f42.symmetric and not f42.unimodal and f42.internal_zeros == ()
    f421 = shape_predicates(expand(stanley(Partition((4, 2, 1)))))
    assert f421.symmetric and f421.unimodal
    f22 = shape_predicates(QPoly.from_terms({2: 1, 4: 1}))
    assert f22.internal_zeros == (3,)
    zero = shape_predicates(QPoly.zero())
    assert zero.symmetric and zero.unimodal and zero.parity_unimodal


def test_multinomials_symmetric_unimodal_no_zeros():
    for n in range(1, 9):
        for alpha in compositions(n, n):
            facts = shape_predicates(q_multinomial(n, alpha))
            assert facts.symmetric and facts.unimodal and not facts.internal_zeros


def test_json_roundtrip():
    p = QPoly(3, (10**30, -2, 0, 5))
    assert QPoly.from_json(p.to_json()) == p
    assert p.to_json()["coeffs"][0] == str(10**30)
    assert QPoly.from_json({"offset": 2, "coeffs": ["1", "1"]}) == QPoly(2, (1, 1))


def test_coefficients_and_offset_must_be_integers():
    # QPoly(0, [0.5, 1.5]) once read as q, truncating each float, and
    # QPoly(0.5, [1]) as q^0.5.
    for coeffs in ([0.5, 1.5], [2.9], [2.0], ["1"]):
        with pytest.raises(TypeError):
            QPoly(0, coeffs)
    for offset in (0.5, 2.0, "1"):
        with pytest.raises(TypeError):
            QPoly(offset, [1])
    p = QPoly(0, [True, False, 1, -(10**30)])
    assert p.coeffs == (1, 0, 1, -(10**30))
    assert all(type(c) is int for c in p.coeffs)
    assert QPoly.from_json(p.to_json()) == p


def test_from_json_rejects_non_integers():
    # {"offset": 1.5, "coeffs": ["1"]} once read as q
    for obj in ({"offset": 1.5, "coeffs": ["1"]}, {"offset": "1", "coeffs": ["1"]},
                {"offset": 0, "coeffs": [1.0]}, {"offset": 0, "coeffs": ["1.5"]}):
        with pytest.raises((TypeError, ValueError)):
            QPoly.from_json(obj)
    assert QPoly.from_json({"offset": True, "coeffs": [2, True, "-3"]}) == QPoly(1, (2, 1, -3))


def test_multinomial_exponents_rejects_negative_entries():
    for n, alpha in ((1, (2, -1)), (0, (-1, 1)), (2, [3, -1])):
        with pytest.raises(ValueError, match="^composition entries must be nonnegative"):
            multinomial_exponents(n, alpha)
    assert multinomial_exponents(3, iter((2, 1))) == [0, -1, 0, 1]  # an iterator is read once


def test_arithmetic_rejects_unsupported_operands():
    # Any operand that was not an int once reached `other.is_zero()` and
    # raised AttributeError.
    p = QPoly(0, [1])
    for op in (lambda: p * 2.5, lambda: 2.5 * p, lambda: p * "a", lambda: "a" * p,
               lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: p + 0.5):
        with pytest.raises(TypeError):
            op()
    q = QPoly(1, (2, -1))
    assert q * 3 == 3 * q == QPoly(1, (6, -3))
    assert q * True == True * q == q
    assert q * False == QPoly.zero()
    assert (q * 2) + q - q == q * 2


def test_eval_int():
    p = QPoly(1, (1, 2, 1))
    assert p.eval_int(2) == 2 + 8 + 8
    assert p.eval_at_1() == 4
