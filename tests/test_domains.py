from fractions import Fraction
from itertools import combinations

import pytest

from lambdapm import corpus
from lambdapm.distance import dyadic, exact
from lambdapm.domains import (CapExceeded, FinitePoset, LazyTop, MonotoneMap,
                              TowerProfile, applicative_metric, build_tower,
                              chain, finite_access_bound,
                              finitary_closeness_check, flat, function_space,
                              p_infinity_prefix, product_metric,
                              quantification_decision, sierpinski,
                              step_function, way_below)
from lambdapm.verify import (negative_control_space, s_metric,
                             sierpinski_space, wb_space)

S = sierpinski()
C3 = chain(3)


def test_poset_validation():
    with pytest.raises(ValueError):  # not transitive
        FinitePoset(((True, True, False),
                     (False, True, True),
                     (False, False, True)), 0)
    with pytest.raises(ValueError):  # no least element
        FinitePoset(((True, False), (False, True)), 0)
    # bounded pair without a least upper bound
    with pytest.raises(ValueError):
        FinitePoset((
            (True, True, True, True, True),
            (False, True, False, True, True),
            (False, False, True, True, True),
            (False, False, False, True, False),
            (False, False, False, False, True)), 0)


def test_poset_json_roundtrip():
    p = chain(3)
    assert FinitePoset.from_json(p.to_json()).leq == p.leq


def directed_subsets(p):
    """All nonempty directed subsets; exponential, only for small posets."""
    els = list(p.elements())
    for r in range(1, len(els) + 1):
        for combo in combinations(els, r):
            if all(any(p.leq[a][c] and p.leq[b][c] for c in combo)
                   for a in combo for b in combo):
                yield frozenset(combo)


def way_below_by_definition(p, x, y):
    """The directed-subset definition of way-below."""
    for delta in directed_subsets(p):
        top = max(delta, key=lambda d: sum(p.leq[e][d] for e in delta))
        # finite directed sets have a maximum
        assert all(p.leq[d][top] for d in delta)
        if p.le(y, top) and not any(p.le(x, d) for d in delta):
            return False
    return True


def test_way_below_on_finite_posets():
    assert way_below(C3, 0, 1)
    assert all(way_below(C3, x, x) for x in C3.elements())
    f2 = flat(2)
    assert not way_below(f2, 1, 2)
    # agrees with the directed-subset definition on small posets
    rng = corpus.rng_for(2)
    for _ in range(12):
        p = corpus.random_bounded_complete_poset(rng, 6)
        for x in p.elements():
            for y in p.elements():
                assert way_below(p, x, y) == way_below_by_definition(p, x, y)


def test_function_space_counts():
    fs, maps = function_space(S, S)
    assert fs.size == 3
    assert {m.table for m in maps} == {(0, 0), (0, 1), (1, 1)}
    fs3, _ = function_space(C3, C3)
    assert fs3.size == 10  # order-preserving endomaps of a 3-chain
    one = FinitePoset(((True,),), 0)
    fs1, maps1 = function_space(S, one)
    assert fs1.size == 1 and maps1[0].table == (0, 0)


def test_function_space_cap(monkeypatch):
    monkeypatch.setenv("LAMBDA_PM_CAP", "5")
    with pytest.raises(CapExceeded):
        function_space(flat(2), flat(2))


def test_monotone_map_validation():
    with pytest.raises(ValueError):
        MonotoneMap(S, S, (1, 0))


def test_step_functions():
    assert step_function(S, S, 1, 1).table == (0, 1)
    assert step_function(S, S, 0, 1).table == (1, 1)
    # joins of steps match tabulated lubs where bounded
    fs, maps = function_space(S, S)
    s1 = step_function(S, S, 1, 1).table
    s2 = step_function(S, S, 0, 0).table
    join = tuple(max(a, b) for a, b in zip(s1, s2))
    assert join in {m.table for m in maps}


def test_product_metric():
    sp = sierpinski_space()
    assert product_metric(sp.d, sp.d, (0, 0), (0, 0)) == exact(1)
    assert product_metric(sp.d, sp.d, (1, 1), (1, 1)) == exact(0)
    assert product_metric(sp.d, sp.d, (0, 1), (1, 1)) == exact(Fraction(1, 2))


def test_applicative_metric_examples():
    base = wb_space(S)
    fs, maps = function_space(S, S)
    ident = next(m for m in maps if m.table == (0, 1))
    cbot = next(m for m in maps if m.table == (0, 0))
    theta = Fraction(1, 2)
    assert applicative_metric(base.d, [0, 1], theta, ident, ident) == \
        exact(Fraction(1, 8))
    assert applicative_metric(base.d, [0, 1], theta, cbot, cbot) == \
        exact(Fraction(3, 16))
    # f <= g pointwise forces p(f, g) = p(f, f)
    for f in maps:
        for g in maps:
            if all(S.le(f(x), g(x)) for x in range(2)):
                assert applicative_metric(base.d, [0, 1], theta, f, g) == \
                    applicative_metric(base.d, [0, 1], theta, f, f)


def test_applicative_metric_rejects_bad_theta():
    base = wb_space(S)
    fs, maps = function_space(S, S)
    with pytest.raises(ValueError):
        applicative_metric(base.d, [0, 1], Fraction(2, 3), maps[0], maps[0])


def test_finite_access_bound_boundaries():
    assert finite_access_bound(Fraction(1, 2), Fraction(1, 8)) == 5
    assert finite_access_bound(Fraction(1, 2), 1) == 2
    assert finite_access_bound(Fraction(1, 3), Fraction(1, 4)) == 2


def test_quantification_decision():
    assert quantification_decision(S, sierpinski_space())["pass"]
    res = quantification_decision(S, negative_control_space())
    assert not res["pass"] and res["balls_not_upper"]


def test_tower_sizes_and_laws():
    tw = build_tower(S, s_metric, 2)
    assert [tw.level(i).poset.size for i in range(3)] == [2, 3, 10]
    assert all(tw.project(0, tw.inject(0, x)) == x for x in range(2))
    assert tw.inject(0, 0) == tw.level(1).poset.bottom
    for n in range(2):
        dn1 = tw.level(n + 1).poset
        for f in range(dn1.size):
            assert dn1.le(tw.inject(n, tw.project(n, f)), f)
    # composites agree with their one-step decomposition
    for x in range(2):
        assert tw.inject_to(0, 2, x) == tw.inject(1, tw.inject(0, x))
        assert tw.project_to(2, 0, tw.inject_to(0, 2, x)) == x


def test_tower_profiles_and_prefix():
    tw = build_tower(S, s_metric, 2)
    top = TowerProfile.from_top(tw, tw.level(2).poset.size - 1)
    bot = TowerProfile.from_top(tw, tw.level(2).poset.bottom)
    top.validate(tw)
    v = p_infinity_prefix(tw, top, bot)
    assert v.lower > 0 and v.upper == v.lower + dyadic(2)


def test_profile_validation_rejects_incoherent_levels():
    tw = build_tower(S, s_metric, 2)
    good = TowerProfile.from_top(tw, 5)
    bad_levels = list(good.levels)
    bad_levels[0] = 1 - bad_levels[0]
    with pytest.raises(ValueError):
        TowerProfile(tuple(bad_levels)).validate(tw)


def test_finitary_closeness_check_top_pair():
    tw = build_tower(S, s_metric, 2)
    top = TowerProfile.from_top(tw, tw.level(2).poset.size - 1)
    res = finitary_closeness_check(tw, top, top, 2)
    assert res["premise"] and res["holds"]


def test_lazy_top_matches_strict_level():
    tw1 = build_tower(S, s_metric, 1)
    lazy = LazyTop(tw1)
    tw2 = build_tower(S, s_metric, 2)
    tables = sorted(lazy.tables())
    assert len(tables) == tw2.level(2).poset.size
    for table in tables:
        # lazy projection agrees with the strict tower's projection
        strict_idx = next(i for i, m in enumerate(tw2.level(2).maps)
                          if m.table == table)
        assert lazy.project(table) == tw2.project(1, strict_idx)
        # lazy metric agrees with the strict level-2 metric
        assert lazy.metric(table, table) == \
            tw2.metric(2)(strict_idx, strict_idx)


def test_lazy_flat2_law_holds_on_every_table():
    """The exhaustive reference for suite_tower's completion check of
    i.j <= id on the flat-2 lazy level (docs/DECISIONS.md D6), and a broken
    projection that both checks must reject."""
    top = LazyTop(build_tower(flat(2), wb_space(flat(2)).d, 1))
    count, holds = 0, True
    for table in top.tables():
        count += 1
        holds = holds and top.le(top.inject_from_below(top.project(table)), table)
    assert (count, holds) == (642723, True)
    completions = list(top.completions())
    assert len(completions) == 197
    # the memos are bounded: one row per element of D_1, one projection key
    # per choice of read values, which is one per least completion
    assert len(top._rows) <= top.poset.size == 11
    assert len(top._projected) == 197
    assert all(top.le(top.inject_from_below(top.project(t)), t)
               for t in completions)

    def overshoot(table):
        """The highest-index element above j(table) instead of j(table)."""
        j = top.project(table)
        return max(k for k in top.poset.elements() if top.poset.le(j, k))
    for tables in (top.tables(), completions):
        assert not all(top.le(top.inject_from_below(overshoot(t)), t)
                       for t in tables)


def test_product_space_axioms_and_order():
    from itertools import product as iproduct
    from lambdapm.pmetric import PartialMetricSpace, check_axioms, induced_order
    sp = sierpinski_space()
    pairs = list(iproduct([0, 1], repeat=2))
    prod = PartialMetricSpace(
        pairs, lambda a, b: product_metric(sp.d, sp.d, a, b).value, "SxS")
    assert check_axioms(prod, "pm") == []
    ind = induced_order(prod)
    for a in pairs:
        for b in pairs:
            componentwise = S.le(a[0], b[0]) and S.le(a[1], b[1])
            assert ((a, b) in ind) == componentwise


def test_p_infinity_bottom_profile_is_prefix_of_self_distances():
    tw = build_tower(S, s_metric, 2)
    bot = TowerProfile.from_top(tw, tw.level(2).poset.bottom)
    expected = (dyadic(1) * tw.metric(1)(bot.levels[1], bot.levels[1])
                + dyadic(2) * tw.metric(2)(bot.levels[2], bot.levels[2]))
    assert p_infinity_prefix(tw, bot, bot).lower == expected
