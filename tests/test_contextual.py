from fractions import Fraction

import pytest

from lambdapm import contextual
from lambdapm.contextual import (enumerate_context, genericity_violations,
                                 in_ctx_ball, p_ctx_bracket)
from lambdapm.corpus import OMEGA, normalizing_corpus
from lambdapm.lamcalc import alpha_eq, parse, solvability

I = parse("\\x. x")
ETA_I = parse("\\x. \\y. x y")


def test_enumeration_pinned_prefix():
    assert str(enumerate_context(0)) == "[-]"
    assert str(enumerate_context(1)) == "\\x. [-]"
    assert str(enumerate_context(2)) == "[-] x"


def test_enumeration_injective_prefix():
    seen = {str(enumerate_context(n)) for n in range(120)}
    assert len(seen) == 120


def test_enumeration_stable():
    snapshot = [str(enumerate_context(n)) for n in range(30)]
    assert snapshot == [str(enumerate_context(n)) for n in range(30)]


def test_plugging_is_literal():
    ctx = enumerate_context(1)  # \x. [-]
    plugged = ctx.plug(parse("x"))
    # the free x is captured on purpose
    assert alpha_eq(plugged, parse("\\x. x"))


def test_hole_applied_to_divergent_argument():
    # the context [-] Omega: plugging I gives I Omega, certified divergent
    from lambdapm.contextual import HOLE, Context
    from lambdapm.lamcalc import App
    ctx = Context(App(HOLE, OMEGA))
    assert solvability(ctx.plug(I), 50).is_divergent
    assert solvability(ctx.plug(parse("\\x. \\y. y")), 50).kind == "solvable"


def test_p_ctx_bracket_shape_and_symmetry():
    v = p_ctx_bracket(I, ETA_I, 8, 60)
    w = p_ctx_bracket(ETA_I, I, 8, 60)
    assert v == w
    assert 0 <= v.lower <= v.upper <= 2  # weights from index 0 sum to 2


def test_p_ctx_self_bracket_contains_refinement():
    coarse = p_ctx_bracket(I, I, 5, 40)
    fine = p_ctx_bracket(I, I, 10, 80)
    assert coarse.contains(fine)


def test_p_ctx_omega_generic_brackets_overlap():
    # the true distances coincide by genericity, so the sound brackets of
    # (Omega, N) and (Omega, Omega) must overlap, and certified divergence
    # on the N side can only add to the lower bound
    vo = p_ctx_bracket(OMEGA, OMEGA, 7, 60)
    for n in [I, ETA_I, parse("x y")]:
        vn = p_ctx_bracket(OMEGA, n, 7, 60)
        assert vn.lower >= vo.lower
        assert vn.lower <= vo.upper and vo.lower <= vn.upper


def test_in_ctx_ball_examples():
    assert in_ctx_ball(I, I, Fraction(1, 8), 100) == "yes"
    assert in_ctx_ball(I, OMEGA, Fraction(1, 4), 100) == "no"
    for k in (2, 3, 4, 5):
        assert in_ctx_ball(I, ETA_I, Fraction(1, 2 ** k), 200) == "yes"


def test_in_ctx_ball_validates_epsilon():
    with pytest.raises(ValueError):
        in_ctx_ball(I, I, 0, 10)


def test_genericity_semi_test():
    assert genericity_violations(OMEGA, normalizing_corpus(8), 40, 300) == []
    with pytest.raises(ValueError):
        genericity_violations(I, [I], 10, 50)


def test_cold_bracket_enumerates_each_context_once(monkeypatch):
    """A cold bracket at prefix 40 runs each context term once for the
    settled marks, reading it in place off the size batches, and plugs each
    open context once per row; a second call runs the machine zero times."""
    contexts_run, plugged_run = [], []
    status, run = contextual.solvability, contextual._run

    def counted_status(t, fuel):
        contexts_run.append(t)
        return status(t, fuel)

    def counted_run(t, fuel):
        plugged_run.append(t)
        return run(t, fuel)
    monkeypatch.setattr(contextual, "solvability", counted_status)
    monkeypatch.setattr(contextual, "_run", counted_run)
    m, n = parse("\\u. u u"), parse("\\u. \\v. v u")
    contextual._kinds.cache_clear()
    contextual._settled_marks.cache_clear()
    before = p_ctx_bracket(m, n, 40, 17)
    contexts = [enumerate_context(idx).term for idx in range(41)]
    assert len(contexts_run) == 41 and all(a is b for a, b in zip(contexts_run, contexts))
    marks = contextual._settled_marks(17)
    opened = [c for c, settled in zip(contexts, marks) if not settled]
    assert len(marks) == 41 and 0 < len(opened) < 41
    assert plugged_run == [contextual._plug(c, t) for t in (m, n) for c in opened]
    contexts_run.clear()
    plugged_run.clear()
    assert p_ctx_bracket(m, n, 40, 17) == before and contexts_run == plugged_run == []
