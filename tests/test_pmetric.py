from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdapm import corpus, resource
from lambdapm.distance import INF, bracket, exact, infinite
from lambdapm.pmetric import (LiftedSet, PartialMetricSpace,
                              WeightedBasisMetric, bound_to_one, check_axioms,
                              hausdorff_plain, hausdorff_star, in_ball,
                              induced_order, symmetrize,
                              weighted_basis_metric)
from lambdapm.resource import bag_leq, r_leq, r_metric
from lambdapm.verify import sierpinski_space


def rdist(a, b):
    return r_metric(a, b).value


def test_sierpinski_is_pm():
    assert check_axioms(sierpinski_space(), "pm") == []
    assert check_axioms(sierpinski_space(), "ppm") == []


def test_constant_zero_violates_p2():
    sp = PartialMetricSpace(["a", "b"], lambda x, y: Fraction(0), "zero")
    bad = check_axioms(sp, "pm")
    assert any(v["axiom"] == "P2" for v in bad)
    assert check_axioms(sp, "ppm") == []


def test_axiom_checker_flags_p1_and_p4u():
    def broken(x, y):
        if x == y:
            return Fraction(1) if x == "a" else Fraction(0)
        return Fraction(1, 2)
    sp = PartialMetricSpace(["a", "b"], broken, "broken")
    bad = check_axioms(sp, "pum")
    assert any(v["axiom"] == "P1" for v in bad)


def test_axiom_checker_flags_p3_on_raw_distances():
    table = {(0, 1): 2, (1, 0): 1, (0, 0): 1, (1, 1): 0}
    sp = PartialMetricSpace([0, 1], lambda x, y: Fraction(table[x, y]), "asymmetric")
    assert check_axioms(sp, "ppm") == [
        {"axiom": "P3", "witnesses": [0, 1], "lhs": "2", "rhs": "1"}]


def test_induced_order_examples():
    assert induced_order(sierpinski_space()) == {(0, 0), (0, 1), (1, 1)}
    disc = PartialMetricSpace([0, 1], lambda x, y: Fraction(0) if x == y
                              else Fraction(1), "discrete")
    assert induced_order(disc) == {(0, 0), (1, 1)}


def test_symmetrize():
    sp = sierpinski_space()
    assert symmetrize(sp, 0, 1) == 1
    assert symmetrize(sp, 0, 0) == 0
    inf_sp = PartialMetricSpace([0, 1], lambda x, y: INF, "inf")
    with pytest.raises(ValueError):
        symmetrize(inf_sp, 0, 1)


def test_bound_to_one():
    assert bound_to_one(exact(3)) == exact(Fraction(3, 4))
    assert bound_to_one(exact(0)) == exact(0)
    assert bound_to_one(infinite()) == exact(1)
    assert bound_to_one(bracket(1, 3)) == bracket(Fraction(1, 2), Fraction(3, 4))


@given(st.fractions(min_value=0, max_value=1000),
       st.fractions(min_value=0, max_value=1000))
@settings(max_examples=80, deadline=None)
def test_bound_to_one_preserves_strict_order(a, b):
    fa, fb = bound_to_one(exact(a)), bound_to_one(exact(b))
    assert (a < b) == (fa.value < fb.value)


def test_in_ball_examples():
    sp = sierpinski_space()
    assert not in_ball(sp, 1, Fraction(1, 2), 0)
    assert in_ball(sp, 0, Fraction(1, 2), 1)
    assert in_ball(sp, 0, Fraction(1, 4), 0)
    assert in_ball(sp, 1, Fraction(1, 4), 1)


def test_weighted_basis_metric_examples():
    wbm = WeightedBasisMetric([0, 1], [Fraction(1, 2), Fraction(1, 4)],
                              lambda b, x: b <= x)
    assert weighted_basis_metric(wbm, 0, 0) == exact(Fraction(1, 4))
    assert weighted_basis_metric(wbm, 1, 1) == exact(0)
    assert weighted_basis_metric(wbm, 0, 1) == exact(Fraction(1, 4))


def test_weighted_basis_metric_validation():
    with pytest.raises(ValueError):
        WeightedBasisMetric([0], [Fraction(2)], lambda b, x: True)
    with pytest.raises(ValueError):
        WeightedBasisMetric([0, 1], [Fraction(1, 2)], lambda b, x: True)


def _ideal(t):
    return frozenset(resource.truncate(t, n)
                     for n in range(1, resource.height(t) + 1))


def test_hausdorff_star_conventions():
    terms = corpus.resource_corpus(6)
    some = LiftedSet(frozenset({terms[0]}), r_leq)
    empty = LiftedSet(frozenset(), r_leq)
    assert hausdorff_star(rdist, empty, some) == exact(1)
    assert hausdorff_star(rdist, some, empty) == exact(1)
    assert hausdorff_star(rdist, empty, empty) == exact(0)


def test_hausdorff_star_singleton_ideal_self_distance():
    t = resource.parse_resource("\\x. x<>")
    single = LiftedSet(frozenset({t}), r_leq)
    assert hausdorff_star(rdist, single, single) == exact(Fraction(1, 2))


def test_hausdorff_star_ideal_self_distance_is_min_self():
    for t in corpus.resource_corpus(8):
        ide = LiftedSet(_ideal(t), r_leq)
        expected = min(rdist(u, u) for u in ide.elements)
        assert hausdorff_star(rdist, ide, ide) == exact(expected)


def test_hausdorff_star_rejects_unbounded_space():
    a = LiftedSet(frozenset({0}), lambda x, y: True)
    with pytest.raises(ValueError):
        hausdorff_star(lambda x, y: Fraction(3), a, a)


def test_hausdorffone_laws_on_arbitrary_finite_sets():
    rng = corpus.rng_for(3)
    pool = corpus.resource_corpus(10)
    sets = []
    for _ in range(7):
        k = rng.randint(0, 4)
        sets.append(LiftedSet(frozenset(rng.sample(pool, k)), bag_leq))
    vals = {}
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            vals[i, j] = hausdorff_star(rdist, a, b).value
    for i in range(len(sets)):
        for j in range(len(sets)):
            assert vals[i, i] <= vals[i, j]          # law 1
            assert vals[i, j] == vals[j, i]          # law 2
            for k in range(len(sets)):
                if sets[k].elements:
                    floor = min(rdist(c, c) for c in sets[k].elements)
                    assert vals[i, j] <= vals[i, k] + vals[k, j] - floor


def test_hausdorff_plain_examples():
    t = corpus.resource_corpus(5)[0]
    assert hausdorff_plain(rdist, {t}, {t}) == exact(rdist(t, t))
    assert hausdorff_plain(rdist, set(), set()) == exact(0)


def ref_hausdorff_plain(dist, els_a, els_b):
    """The classic lifting as its own side loop, the reference for
    hausdorff_plain: sup over one set of the inf over the other, with sup
    over the empty set 0 and inf over the empty set 1."""
    def side(src, dst):
        best = Fraction(0)
        for a in src:
            inner = None
            for b in dst:
                v = dist(a, b)
                if inner is None or v < inner:
                    inner = v
            inner = Fraction(1) if inner is None else inner
            if inner > best:
                best = inner
        return best

    return exact(max(side(els_a, els_b), side(els_b, els_a)))


_PLAIN_POOL = corpus.resource_corpus(12)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(_PLAIN_POOL), max_size=5),
       st.sets(st.sampled_from(_PLAIN_POOL), max_size=5))
def test_hausdorff_plain_matches_side_loop_reference(a, b):
    assert hausdorff_plain(rdist, a, b) == ref_hausdorff_plain(rdist, a, b)
    assert (hausdorff_plain(rdist, LiftedSet(a, r_leq), LiftedSet(b, r_leq))
            == ref_hausdorff_plain(rdist, a, b))


def test_induced_order_of_pm_is_partial_order():
    sp = sierpinski_space()
    order = induced_order(sp)
    for x in sp.carrier:
        assert (x, x) in order
    for x, y in order:
        if (y, x) in order:
            assert x == y
    for x, y in order:
        for y2, z in order:
            if y2 == y:
                assert (x, z) in order


def test_symmetrize_interval_example():
    from lambdapm.intervals import RationalInterval, p_int
    ivs = [RationalInterval(0, 1), RationalInterval(2, 3)]
    sp = PartialMetricSpace(ivs, lambda a, b: p_int(a, b).value, "pint")
    assert symmetrize(sp, ivs[0], ivs[1]) == 4
    assert symmetrize(sp, ivs[0], ivs[0]) == 0


def test_chain_ideals_are_ideals():
    from lambdapm.verify import chain_ideal
    universe = corpus.resource_corpus(10)
    for t in universe:
        ide = LiftedSet(chain_ideal(t), r_leq)
        assert ide.is_ideal(universe=chain_ideal(t) | frozenset(universe))
