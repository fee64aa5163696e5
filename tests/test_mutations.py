import hashlib
from collections import Counter
from math import comb

import pytest

from sytmaj import mutations
from sytmaj.mutations import (
    ExceptionalTableau,
    Move,
    PhiBranchError,
    _maxmaj_prefix,
    block_rule,
    build_poset,
    negative_rotations,
    phi,
    phi_move,
    positive_rotations,
    verify_ranked,
)
from sytmaj.shapes import Partition, b_statistic, parse_partition, partitions
from sytmaj.tableaux import (
    BoundExceeded,
    Tableau,
    enumerate_tableaux,
    exceptional_set,
    fillings,
    from_rows,
    maxmaj_tableau,
    minmaj_tableau,
)
from sytmaj.verify import _block_preimages, block_shapes, maj_gf_oracle, strong_covers


def oracle_rotations(t, sign):
    """Direct implementation of the rotation definition: apply the cycle and
    demand a single descent slide j-1 -> j."""
    out = []
    n = t.n
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            if sign > 0:
                perm = {v: v + 1 for v in range(i, k)}
                perm[k] = i
            else:
                perm = {v: v - 1 for v in range(i + 1, k + 1)}
                perm[i] = k
            try:
                y = Tableau(t.shape, (perm.get(v, v) for v in t.values))
            except ValueError:  # not a standard filling
                continue
            added = y.descent_set() - t.descent_set()
            removed = t.descent_set() - y.descent_set()
            if len(added) == 1 and len(removed) == 1:
                (j,) = added
                if removed == {j - 1}:
                    out.append(((i, k), j))
    return sorted(out)


def test_positive_rotation_example():
    t = from_rows([[1, 2, 6, 7, 9], [3, 4, 8, 13], [5, 11, 12, 15], [10, 14]])
    assert sorted(mv.interval for mv in positive_rotations(t)) == [
        (5, 6), (8, 9), (8, 10), (8, 11), (9, 13)]


def test_negative_rotation_example():
    t = from_rows([[1, 3, 8, 10, 15], [2, 4, 9, 11], [5, 7, 13, 14], [6, 12]])
    assert sorted(mv.interval for mv in negative_rotations(t)) == [(4, 6), (6, 7), (11, 12)]


def test_no_rotation_examples():
    for rows in (
        [[1, 2, 3, 4, 5], [6, 7, 8, 9], [10, 11, 12, 13], [14, 15]],
        [[1, 2, 3, 8, 12], [4, 6, 9, 13], [5, 7, 10, 14], [11, 15]],
    ):
        t = from_rows(rows)
        assert not positive_rotations(t) and not negative_rotations(t)


def test_extremes_admit_no_rotations():
    assert not positive_rotations(minmaj_tableau(Partition((3, 3))))
    assert not negative_rotations(maxmaj_tableau(Partition((4, 2))))
    row = minmaj_tableau(Partition((5,)))
    assert not positive_rotations(row) and not negative_rotations(row)


def test_rotations_match_definition_oracle():
    for n in range(1, 8):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                got_p = sorted((mv.interval, mv.descent) for mv in positive_rotations(t))
                got_n = sorted((mv.interval, mv.descent) for mv in negative_rotations(t))
                assert got_p == oracle_rotations(t, +1), (p, t.to_text())
                assert got_n == oracle_rotations(t, -1), (p, t.to_text())


def test_rotation_moves_golden_to_n9():
    # sha256 of every tableau's sorted (kind, cycles, interval, descent)
    # rotations for n <= 9, as found by two separately written scans
    digest = hashlib.sha256()
    for n in range(10):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                moves = positive_rotations(t) + negative_rotations(t)
                digest.update(repr(sorted((mv.kind, mv.cycles, mv.interval, mv.descent)
                                          for mv in moves)).encode())
    assert digest.hexdigest() == \
        "49ae9ad92ab933388b91dfdda0fc35c81b8f94df411dba88ae79b806a8e8d8d9"


def test_array_functions_golden_to_n9():
    # sha256 of what the array-level scans, block matchers, block rule and
    # phi return on every filling with 1 <= n <= 9, at its arrays and at the
    # swapped arrays (its transpose); phi is skipped where it is undefined.
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 10):
        for p in partitions(n):
            skip = exceptional_set(p)
            skip_t = {e.transpose().values for e in exceptional_set(p.conjugate())}
            for t in enumerate_tableaux(p):
                rows, cols = t.coords()
                for r, c, ex in ((rows, cols, t in skip), (cols, rows, t.values in skip_t)):
                    count += 1
                    digest.update(repr((
                        mutations._positive_rotations(r, c),
                        mutations._negative_rotations(r, c),
                        list(mutations._block_matches(r, c)),
                        mutations._block_rule(r, c),
                        None if ex else mutations._phi_move(r, c),
                    )).encode())
    assert count == 7470
    assert digest.hexdigest() == \
        "5762be268907766655956c3d33cf933f429898cd9aeb634c05541d402cbe186e"


def cycle_image(mv, values):
    """Each value replaced by its successor in mv's cycles, read off the
    cycles one value at a time."""
    out = []
    for v in values:
        for cyc in mv.cycles:
            if v in cyc:
                v = cyc[(cyc.index(v) + 1) % len(cyc)]
                break
        out.append(v)
    return tuple(out)


def test_move_successor_map_is_invisible():
    # Each Move builds its successor map once, on its first image.  The map
    # gives the cycle definition on every call, and takes no part in ==,
    # hash or repr: error messages print moves, and the inverse-block-move
    # oracle dedupes them by equality.
    for n in range(9):
        for p in partitions(n):
            skip = exceptional_set(p)
            for t in enumerate_tableaux(p):
                moves = positive_rotations(t) + negative_rotations(t)
                moves += [mv for mv in [block_rule(t)] if mv is not None]
                if t not in skip:
                    moves.append(phi_move(t))
                for mv in moves:
                    first = mv.image(t.values)
                    assert mv.image(t.values) == first == cycle_image(mv, t.values), \
                        (t.to_text(), mv)
                    fresh = Move(mv.kind, mv.cycles, mv.interval, mv.descent, mv.params)
                    assert mv == fresh and hash(mv) == hash(fresh), (t.to_text(), mv)
                    assert repr(mv) == repr(fresh), (t.to_text(), mv)


def test_rotation_descent_slide():
    for n in range(2, 8):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                for mv in positive_rotations(t) + negative_rotations(t):
                    y = mv.apply(t)
                    assert y.descent_set() - t.descent_set() == {mv.descent}
                    assert t.descent_set() - y.descent_set() == {mv.descent - 1}
                    assert y.des() == t.des()


def test_rotations_on_skew_shapes():
    # The scan's row tests rest on standardness and on skew convexity, which
    # hold on every skew shape: check each nonempty lambda/mu with |lambda| <= 7
    # and mu nonempty, each block shape of <= 5 cells in 2 or 3 blocks, and
    # two larger skew shapes with |lambda| = 8.
    from sytmaj.shapes import SkewShape
    from sytmaj.tableaux import enumerate_tableaux as enum

    shapes = [SkewShape(lam, mu) for n in range(2, 8) for lam in partitions(n)
              for m in range(1, n) for mu in partitions(m) if lam.contains(mu)]
    shapes += [b for m in (2, 3) for n in range(1, 6) for b in block_shapes(n, m)]
    shapes += [SkewShape(Partition((4, 3, 1)), Partition((2, 1))),
               SkewShape(Partition((3, 3, 2)), Partition((2,)))]
    assert len(shapes) == 628
    checked = 0
    for shape in shapes:
        for t in enum(shape):
            got_p = sorted((mv.interval, mv.descent) for mv in positive_rotations(t))
            got_n = sorted((mv.interval, mv.descent) for mv in negative_rotations(t))
            assert got_p == oracle_rotations(t, +1), (str(shape), t.values)
            assert got_n == oracle_rotations(t, -1), (str(shape), t.values)
            checked += 1
    assert checked == 3445
    with pytest.raises(ValueError):
        block_rule(next(enum(shapes[0])))


def block_rule_all(t):
    """All matching block rules (for the disjointness check)."""
    return [mv for mv in mutations._block_matches(*t.coords()) if mv is not None]


def test_block_rule_small_known_cases():
    cases = [
        ([[1, 2, 3, 7], [4, 5, 6, 8]], "B1", [[1, 3, 4, 6], [2, 5, 7, 8]]),
        ([[1, 2, 3, 4], [5, 6, 7]], "B2", [[1, 3, 4, 7], [2, 5, 6]]),
        ([[1, 2, 3], [4, 6], [5, 7]], "B3", [[1, 3, 6], [2, 4], [5, 7]]),
        ([[1, 2, 7], [3, 5, 8], [4, 6, 9], [10]], "B4", [[1, 4, 8], [2, 5, 9], [3, 6, 10], [7]]),
        ([[1, 2], [3, 5], [4, 6], [7]], "B5", [[1, 5], [2, 6], [3, 7], [4]]),
    ]
    for rows, kind, want in cases:
        t = from_rows(rows)
        mv = block_rule(t)
        assert mv is not None and mv.kind == kind
        out = mv.apply(t)
        assert out.rows() == want
        assert out.maj() == t.maj() + 1


def test_block_rule_larger_known_cases():
    b1 = from_rows([[1, 2, 3, 4, 5, 16], [6, 7, 8, 9, 10, 17], [11, 12, 13, 14, 15]])
    mv = block_rule(b1)
    assert mv.kind == "B1" and mv.params == (5, 3, 15)
    assert mv.apply(b1).rows() == [
        [1, 3, 4, 5, 6, 15], [2, 7, 8, 9, 10, 17], [11, 12, 13, 14, 16]]
    b5 = from_rows([[1, 2], [3, 6], [4, 7], [5, 8], [9]])
    mv = block_rule(b5)
    assert mv.kind == "B5" and mv.params == (5,)
    assert mv.apply(b5).rows() == [[1, 6], [2, 7], [3, 8], [4, 9], [5]]


def test_block_rules_disjoint_and_raise_des():
    for n in range(2, 9):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                rules = block_rule_all(t)
                assert len(rules) <= 1, (p, t.to_text(), [r.kind for r in rules])
                for mv in rules:
                    y = mv.apply(t)
                    assert y.maj() == t.maj() + 1
                    assert y.des() == t.des() + 1
    # _block_rule rejects a filling on _abc before its matchers run, and
    # stops at the first match; it still gives the one rule that matches,
    # at t and at t' (the arrays swapped)
    for n in range(11):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                for arrays in t.coords(), t.coords()[::-1]:
                    rules = [mv for mv in mutations._block_matches(*arrays) if mv is not None]
                    assert mutations._block_rule(*arrays) == (rules[0] if rules else None), \
                        t.to_text()


def test_inverse_block_rule():
    # the block rule takes t to v, so t' is the one block cover of v' read at
    # the transpose, and it raises maj by one
    t = from_rows([[1, 2, 3, 7], [4, 5, 6, 8]])
    v = block_rule(t).apply(t)
    tt, vt = t.transpose(), v.transpose()
    preimages = _block_preimages(vt.shape)
    assert preimages[vt.values] == [tt]
    assert tt.values not in preimages
    assert tt in strong_covers(vt)
    assert tt.maj() == vt.maj() + 1


def test_phi_known_negative_rotation_cases():
    ta = from_rows([[1, 3, 6, 11], [2, 4, 7, 12], [5, 8], [9, 13], [10]])
    mva = phi_move(ta)
    assert mva.kind == "negative_rotation" and mva.interval == (8, 12) and mva.descent == 10
    assert phi(ta).rows() == [[1, 3, 6, 10], [2, 4, 7, 11], [5, 12], [8, 13], [9]]
    tb = from_rows([[1, 3, 6], [2, 4, 7], [5, 8, 11], [9], [10]])
    mvb = phi_move(tb)
    assert mvb.kind == "negative_rotation" and mvb.interval == (7, 10) and mvb.descent == 10
    assert phi(tb).rows() == [[1, 3, 6], [2, 4, 10], [5, 7, 11], [8], [9]]


def test_phi_rejects_exceptional():
    with pytest.raises(ExceptionalTableau):
        phi(maxmaj_tableau(Partition((3, 2))))
    with pytest.raises(ExceptionalTableau):
        phi(minmaj_tableau(Partition((3, 3))))


def test_phi_total_and_increments():
    for n in range(1, 9):
        for p in partitions(n):
            exc = exceptional_set(p)
            for t in enumerate_tableaux(p):
                if t in exc:
                    continue
                y = phi(t)
                assert y.shape == p and y.maj() == t.maj() + 1


def test_phi_iteration_spans_the_range():
    for n in range(1, 9):
        for p in partitions(n):
            if p.is_rectangle():
                continue
            steps = comb(n, 2) - b_statistic(p) - b_statistic(p.conjugate())
            t = minmaj_tableau(p)
            for _ in range(steps):
                t = phi(t)
            assert t == maxmaj_tableau(p)


def ground_set(p):
    """Every standard filling of p by maj, then by row reading word, less
    the min-maj and max-maj fillings of a big rectangle."""
    extremes = {minmaj_tableau(p), maxmaj_tableau(p)} if p.is_big_rectangle() else set()
    return sorted((t for t in enumerate_tableaux(p) if t not in extremes),
                  key=lambda t: (t.maj(), t.row_reading_word()))


def test_poset_ground_sets():
    for shape, size in (("2,2", 0), ("3,2,1", 16), ("5,5", 42 - 2)):
        ground = ground_set(parse_partition(shape))
        assert len(ground) == size, shape
        for flavor in ("strong", "weak"):
            poset = build_poset(parse_partition(shape), flavor)
            assert poset.elements == tuple(ground), (shape, flavor)
            assert poset.majs == tuple(t.maj() for t in ground), (shape, flavor)


def test_poset_structure_321():
    p = Partition((3, 2, 1))
    for flavor in ("strong", "weak"):
        poset = build_poset(p, flavor)
        report = verify_ranked(poset)
        assert report.ok(), report
        assert report.maj_max - report.maj_min == 7
    dot = build_poset(p, "weak").to_dot()
    assert dot.count("[maj=") == 16
    assert dot.startswith("digraph")
    adj = build_poset(p, "weak").to_json_adjacency()
    assert len(adj) == 16


def test_poset_42():
    poset = build_poset(Partition((4, 2)), "weak")
    report = verify_ranked(poset)
    assert report.size == 9 and report.ok()
    assert report.maj_min == 2 and report.maj_max == 8


def test_poset_55_excludes_extremes():
    poset = build_poset(Partition((5, 5)), "weak")
    report = verify_ranked(poset)
    assert report.ok()
    assert report.maj_min == b_statistic(Partition((5, 5))) + 2
    assert report.maj_max == comb(10, 2) - b_statistic(Partition((2,) * 5)) - 2


def test_all_small_posets_ranked():
    for n in range(1, 8):
        for p in partitions(n):
            for flavor in ("strong", "weak"):
                poset = build_poset(p, flavor)
                assert poset.majs == tuple(t.maj() for t in poset.elements), (p, flavor)
                report = verify_ranked(poset)
                assert report.ok(), (p, flavor, report)


def test_weak_covers_inside_strong_covers():
    for n in range(1, 8):
        for p in partitions(n):
            strong = build_poset(p, "strong")
            weak = build_poset(p, "weak")
            assert weak.edge_pairs() <= strong.edge_pairs(), p


def weak_covers(ground, t):
    """Upper covers of t in the weak order, by definition: the image of t
    under the maj-increment map, plus transposed preimages of t's transpose,
    found by scanning the whole ground set."""
    p = t.shape
    gset = set(ground)
    out = []
    if t not in exceptional_set(p):
        y = phi(t)
        if y in gset:
            out.append(y)
    ec = exceptional_set(p.conjugate())
    for y in ground:
        if y.maj() != t.maj() + 1:
            continue
        yt = y.transpose()
        if yt not in ec and phi(yt).transpose() == t and y not in out:
            out.append(y)
    return sorted(out, key=lambda y: y.row_reading_word())


def test_cover_functions_match_posets():
    p = Partition((3, 2, 1))
    ground = ground_set(p)
    strong = build_poset(p, "strong")
    weak = build_poset(p, "weak")
    index = {t: i for i, t in enumerate(ground)}
    for i, t in enumerate(ground):
        assert sorted(index[y] for y in strong_covers(t)) == list(strong.covers[i])
        assert sorted(index[y] for y in weak_covers(ground, t)) == list(weak.covers[i])


def test_strong_poset_matches_per_tableau_covers():
    # build_poset runs each step at every node and at its transpose;
    # strong_covers finds one tableau's covers at the tableau itself, scanning
    # its negative rotations and running the block rule over the conjugate
    # shape's fillings.
    for n in range(1, 10):
        for p in partitions(n):
            poset = build_poset(p, "strong")
            index = {t: i for i, t in enumerate(poset.elements)}
            for i, t in enumerate(poset.elements):
                got = sorted(index[y] for y in strong_covers(t))
                assert got == list(poset.covers[i]), (p, t.to_text())


@pytest.mark.parametrize("shape, flavor, digest", [
    ("4,3,2,1", "strong", "e3416e1be9679b47"),
    ("4,3,2,1", "weak", "ddd0e9321491931a"),
    ("3,3,3", "strong", "db2af9ee5f2b2ed5"),
    ("3,3,3", "weak", "f4e957fe2b26d132"),
    ("5,2,2,1", "strong", "d90a62bb46db8e49"),
    ("5,2,2,1", "weak", "d1a40d02e9945f5d"),
])
def test_poset_dot_golden(shape, flavor, digest):
    dot = build_poset(parse_partition(shape), flavor).to_dot()
    assert hashlib.sha256(dot.encode()).hexdigest()[:16] == digest


def test_poset_dots_golden_to_n9():
    # sha256 of every to_dot() for n <= 9, strong then weak per partition,
    # as built by the transpose-per-node construction
    digest = hashlib.sha256()
    for n in range(10):
        for p in partitions(n):
            for flavor in ("strong", "weak"):
                digest.update(build_poset(p, flavor).to_dot().encode())
    assert digest.hexdigest() == \
        "7ba1d6c02481630eaece3fca6e73271360ca0b36020be704fb77a562077ba4d9"


def test_self_conjugate_poset_dots_golden_n10_to_n12():
    # sha256 of the to_dot() of the seven self-conjugate shapes with
    # 10 <= n <= 12, strong then weak, as built with both rotation scans
    shapes = [p for n in range(10, 13) for p in partitions(n) if p.conjugate() == p]
    assert [str(p) for p in shapes] == ["5,2,1,1,1", "4,3,2,1", "6,1,1,1,1,1", "4,3,3,1",
                                        "6,2,1,1,1,1", "5,3,2,1,1", "4,4,2,2"]
    digest = hashlib.sha256()
    for p in shapes:
        for flavor in ("strong", "weak"):
            digest.update(build_poset(p, flavor).to_dot().encode())
    assert digest.hexdigest() == \
        "f7ce1aebc533cfaa7d0156c955b69153fcdf26474f8811fceeb42ab8693d58f4"


def explicit_edges(p, flavor):
    """The step taken literally, through the public functions on Tableau
    objects: at each node t of a shape's ground set, and at t' read back
    onto t.  Besides the edges of both, it returns, for the strong order,
    the edges of the negative rotations at t and those of the positive
    rotations at t' read back."""
    ground = ground_set(p)
    index = {t.values: i for i, t in enumerate(ground)}
    exc = exceptional_set(p) | exceptional_set(p.conjugate())

    def step(u):
        if flavor == "strong":
            return positive_rotations(u) + ([mv] if (mv := block_rule(u)) else [])
        return [] if u in exc else [phi_move(u)]

    def lands(t, moves):
        for mv in moves:
            if (j := index.get(mv.image(t.values))) is not None:
                yield j

    forward, transposed, negatives, read_back = set(), set(), set(), set()
    for i, t in enumerate(ground):
        u = t.transpose()
        forward |= {(i, j) for j in lands(t, step(t))}
        transposed |= {(j, i) for j in lands(t, step(u))}
        if flavor == "strong":
            negatives |= {(i, j) for j in lands(t, negative_rotations(t))}
            read_back |= {(j, i) for j in lands(t, positive_rotations(u))}
    return ground, index, forward, transposed, negatives, read_back


@pytest.mark.parametrize("flavor", ["strong", "weak"])
def test_self_conjugate_transposed_edges_mirror_forward_edges(flavor):
    shapes = [p for n in range(11) for p in partitions(n) if p.conjugate() == p]
    assert len(shapes) == 13
    for p in shapes:
        ground, index, forward, transposed, negatives, read_back = explicit_edges(p, flavor)
        tr = [index[t.transpose().values] for t in ground]
        assert transposed == {(tr[j], tr[i]) for i, j in forward}, (p, flavor)
        assert negatives == read_back, (p, flavor)
        assert build_poset(p, flavor).edge_pairs() == forward | transposed, (p, flavor)


@pytest.mark.parametrize("flavor", ["strong", "weak"])
def test_posets_take_one_step_at_t_and_at_its_transpose(flavor):
    # The shapes whose posets take the step at t' itself, not by a mirror.
    shapes = [p for n in range(10) for p in partitions(n) if p.conjugate() != p]
    assert len(shapes) == 86
    for p in shapes:
        _, _, forward, transposed, negatives, read_back = explicit_edges(p, flavor)
        # a positive rotation at t' read back is a negative rotation into t
        assert negatives == read_back, (p, flavor)
        assert build_poset(p, flavor).edge_pairs() == forward | transposed, (p, flavor)


def spy_calls(monkeypatch, calls, owner, names):
    """Count the calls of each named attribute of owner in calls."""
    for name in names:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))


def test_strong_posets_read_rows_and_columns_only(monkeypatch):
    # Each node's arrays are built once, from its values tuple, and serve
    # the step at t and at t'; the build asks no Tableau for them or for maj.
    # Each rotation's Move is made once per (i, k, j) triple and then comes
    # from the cache.
    calls, tableau_calls = Counter(), Counter()
    triples = set()
    scan, make_move = mutations._positive_rotations, mutations._positive_move
    monkeypatch.setattr(mutations, "_positive_rotations",
                        lambda rows, cols: triples.update(found := scan(rows, cols)) or found)
    spy_calls(monkeypatch, calls, mutations, ("coords", "_positive_rotations",
                                              "_negative_rotations", "_block_rule"))
    spy_calls(monkeypatch, tableau_calls, Tableau, ("coords", "maj", "transpose"))
    # self-conjugate: the step at t alone, its edges mirrored
    poset = build_poset(parse_partition("4,3,2,1"), "strong")
    nodes = len(poset.elements)
    assert calls == {"coords": nodes, "_positive_rotations": nodes, "_block_rule": nodes}
    # otherwise the step again at t', on the same arrays swapped: no negative
    # scan and no transposed tableau
    calls.clear()
    triples.clear()
    make_move.cache_clear()
    poset = build_poset(parse_partition("5,2,2,1"), "strong")
    nodes = len(poset.elements)
    assert calls == {"coords": nodes, "_positive_rotations": 2 * nodes,
                     "_block_rule": 2 * nodes}
    assert make_move.cache_info().misses == len(triples) > 0
    assert tableau_calls == {}


@pytest.mark.parametrize("shape", ["3,2,1", "4,2,1", "3,3"])
def test_strong_covers_oracle_scans_negative_rotations(shape):
    # The oracle searches every move at t itself, whatever the strong step
    # of build_poset leaves to the transpose.
    ground = ground_set(parse_partition(shape))
    kept = set(ground)
    for t in ground:
        covers = set(strong_covers(t))
        for mv in negative_rotations(t):
            if (y := mv.apply(t)) in kept:
                assert y in covers, (shape, t.to_text(), mv)


def test_posets_take_each_step_once(monkeypatch):
    # The step is taken once at t, and once at t' unless p is self-conjugate.
    # The weak order skips the one exceptional filling on each side: the
    # max-maj filling of p at t, and of p' at t'.  No node transposes a
    # tableau; the weak order's skip set at t' transposes its one filling.
    calls = Counter()
    spy_calls(monkeypatch, calls, mutations, ("_forward_moves", "_phi_move"))
    spy_calls(monkeypatch, calls, Tableau, ("transpose",))
    for shape, sides in ("4,3,2,1", 1), ("5,2,2,1", 2):
        p = parse_partition(shape)
        calls.clear()
        nodes = len(build_poset(p, "strong").elements)
        assert calls == {"_forward_moves": sides * nodes}, shape
        calls.clear()
        build_poset(p, "weak")
        assert calls == {"_phi_move": sides * (nodes - 1), "transpose": 1}, shape


def test_strong_and_weak_builds_share_one_ground_set(monkeypatch):
    # A shape's ground set is built once, for both orders, and only the last
    # shape's is kept.  Cleared first, so no earlier test leaves it warm.
    mutations._ground.cache_clear()
    calls = Counter()
    spy_calls(monkeypatch, calls, mutations, ("fillings",))
    for shape in ("5,2,2,1", "4,3,2,1"):
        p = parse_partition(shape)
        calls.clear()
        strong, weak = build_poset(p, "strong"), build_poset(p, "weak")
        assert calls == {"fillings": 1}, shape
        assert weak.elements is strong.elements and weak.majs is strong.majs, shape
    calls.clear()
    mutations._ground.cache_clear()
    build_poset(p, "weak")
    assert calls == {"fillings": 1}
    build_poset(parse_partition("5,2,2,1"), "strong")
    build_poset(p, "strong")
    assert calls == {"fillings": 3}


def test_ground_set_cache_gives_the_cold_build():
    # 3,2,1 is self-conjugate (the transpose index) and 3,3 a big rectangle
    # (the excluded extremes); 3,2,1 comes back after 3,3 has evicted it.
    shapes = [parse_partition(s) for s in ("3,2,1", "3,3", "3,2,1")]
    warm = [build_poset(p, flavor) for p in shapes for flavor in ("strong", "weak")]
    cold = []
    for p in shapes:
        for flavor in ("strong", "weak"):
            mutations._ground.cache_clear()
            cold.append(build_poset(p, flavor))
    for w, c in zip(warm, cold):
        assert (w.elements, w.majs, w.covers) == (c.elements, c.majs, c.covers), w.shape


def test_unknown_flavor_raises_before_the_ground_set(monkeypatch):
    mutations._ground.cache_clear()
    calls = Counter()
    spy_calls(monkeypatch, calls, mutations, ("fillings",))
    with pytest.raises(ValueError, match="unknown poset flavor 'bogus'"):
        build_poset(parse_partition("3,2,1"), "bogus")
    assert calls == {}


def test_cell_bound_is_tested_before_the_cells_are_built():
    p = Partition((10**6,))
    for call in (lambda: list(fillings(p)), lambda: list(enumerate_tableaux(p)),
                 lambda: build_poset(p, "strong"), lambda: build_poset(p, "weak"),
                 lambda: maj_gf_oracle(p)):
        with pytest.raises(BoundExceeded, match="1000000 cells"):
            call()
    assert "cells" not in p.__dict__ and "reading_order" not in p.__dict__


def test_transpose_swaps_value_coordinates():
    # Both orders take their step at t' on t's arrays swapped.
    for n in range(10):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                assert t.transpose().coords() == t.coords()[::-1], t.to_text()


def test_empty_shape_poset_has_one_node():
    for flavor in ("strong", "weak"):
        poset = build_poset(Partition(), flavor)
        assert len(poset.elements) == 1 and poset.covers == ((),), flavor


def prefix_rows(t, z):
    rows = {}
    for v in range(1, z + 1):
        r = t.pos(v)[0]
        rows[r] = rows.get(r, 0) + 1
    return [rows.get(r, 0) for r in range(1, max(rows) + 1)]


def peel_chunks(t, z):
    """The first z values as outermost vertical strips, outside in, the
    first cut to a top segment; None if they do not peel that way."""
    rows = prefix_rows(t, z)
    chunks = []
    v = z
    first = True
    while v > 0:
        top = t.pos(v)[0] if first else len(rows)
        if top > len(rows):
            return None
        chunk = []
        for row in range(top, 0, -1):
            if v < 1 or t.pos(v) != (row, rows[row - 1]):
                return None
            chunk.append(v)
            rows[row - 1] -= 1
            v -= 1
        while rows and rows[-1] == 0:
            rows.pop()
        chunks.append(tuple(chunk))
        first = False
    return chunks


def maxmaj_prefix_oracle(t):
    """Peel every prefix from z = n down and keep the first that peels."""
    for z in range(t.n, 0, -1):
        chunks = peel_chunks(t, z)
        if chunks is not None:
            return z, chunks
    raise AssertionError("no max-maj prefix")


def test_maxmaj_prefix_matches_downward_peel():
    for n in range(1, 11):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                assert _maxmaj_prefix(t.coords()[0]) == maxmaj_prefix_oracle(t), t.to_text()


# Swapping 1 and 2 never leaves a standard filling; the empty cycle set
# leaves the values, and so maj, as they are.  The strong step's rotation
# moves do the same: the rotation on [1, 2] swaps 1 and 2, and the one on
# [1, 1] fixes every value.
SWAP_1_2 = Move("B1", ((1, 2),))
IDENTITY = Move("B1", ())
ROTATE_1_2 = [mutations._positive_move(1, 2, 2)]
ROTATE_1_1 = [mutations._positive_move(1, 1, 1)]


@pytest.mark.parametrize("shape", ["3,2,1", "3,3"])
@pytest.mark.parametrize("target", ["_forward_moves", "_block_rule"])
def test_strong_poset_raises_on_nonstandard_move(monkeypatch, shape, target):
    fake = (lambda rows, cols: ROTATE_1_2) if target == "_forward_moves" \
        else (lambda rows, cols: SWAP_1_2)
    monkeypatch.setattr(mutations, target, fake)
    with pytest.raises(ValueError, match="broke standardness"):
        build_poset(parse_partition(shape), "strong")


def test_strong_poset_checks_moves_at_the_transpose(monkeypatch):
    # The step is right on the fillings of 4,2, whose values sit in rows 1
    # and 2, and wrong on those of its conjugate, so only the step at t'
    # can raise, and the error names t'.
    real = mutations._forward_moves
    monkeypatch.setattr(mutations, "_forward_moves",
                        lambda rows, cols: real(rows, cols) if max(rows) <= 2 else ROTATE_1_2)
    with pytest.raises(ValueError, match=r"broke standardness on 1,\d/2,\d/"):
        build_poset(parse_partition("4,2"), "strong")


@pytest.mark.parametrize("target", ["_forward_moves", "_block_rule"])
def test_strong_poset_checks_maj_on_every_edge(monkeypatch, target):
    fake = (lambda rows, cols: ROTATE_1_1) if target == "_forward_moves" \
        else (lambda rows, cols: IDENTITY)
    monkeypatch.setattr(mutations, target, fake)
    with pytest.raises(ValueError, match="changed maj by 0"):
        build_poset(parse_partition("3,2,1"), "strong")


@pytest.mark.parametrize("shape", ["3,2,1", "3,3"])
@pytest.mark.parametrize("move, why", [
    (SWAP_1_2, "broke standardness"),
    (IDENTITY, "changed maj by 0"),
])
def test_weak_poset_raises_on_broken_phi_move(monkeypatch, shape, move, why):
    monkeypatch.setattr(mutations, "_phi_move", lambda rows, cols: move)
    with pytest.raises(PhiBranchError, match=why):
        build_poset(parse_partition(shape), "weak")


def test_weak_poset_checks_transposed_phi_moves(monkeypatch):
    # The step is right on the fillings of 4,2, whose values sit in rows 1
    # and 2, and wrong on those of its conjugate 2,2,1,1, so only the step
    # at t' can raise, and the error names t'.
    real = mutations._phi_move
    monkeypatch.setattr(mutations, "_phi_move",
                        lambda rows, cols: real(rows, cols) if max(rows) <= 2 else IDENTITY)
    with pytest.raises(PhiBranchError, match=r"changed maj by 0 on \d,\d/\d,\d/\d/\d$"):
        build_poset(parse_partition("4,2"), "weak")


def test_phi_move_on_tableaux_up_to_two_cells_is_exceptional():
    # Every such filling is exceptional, and phi_move says so before the
    # case analysis reads rows[3], past the arrays of one cell.
    for n in range(3):
        for p in partitions(n):
            for t in enumerate_tableaux(p):
                with pytest.raises(ExceptionalTableau):
                    phi_move(t)


def test_majdes_behavior_of_phi():
    # rotations raise maj-des, block moves fix it; phi covers both
    for p in (Partition((3, 2)), Partition((2, 2, 1)), Partition((4, 3, 1))):
        exc = exceptional_set(p)
        for t in enumerate_tableaux(p):
            if t in exc:
                continue
            mv = phi_move(t)
            y = mv.apply(t)
            if mv.kind.startswith(("positive", "negative")):
                assert y.maj() - y.des() == t.maj() - t.des() + 1
            else:
                assert y.maj() - y.des() == t.maj() - t.des()
