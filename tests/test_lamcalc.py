import pytest
from hypothesis import given, settings, strategies as st

from lambdapm.lamcalc import (Abs, App, HeadForm, ParseError, Var, _same_key,
                              alpha_eq, canonical, decompose, free_vars, key,
                              normalize, parse, show, solvability, spine, subst)

I = parse("\\x. x")
OMEGA = parse("(\\x. x x)(\\x. x x)")
OMEGA3 = parse("(\\x. x x x)(\\x. x x x)")


def test_parse_examples():
    assert parse("\\x. x") == Abs("x", Var("x"))
    assert parse("(\\x. x x)(\\x. x x)") == App(
        Abs("x", App(Var("x"), Var("x"))), Abs("x", App(Var("x"), Var("x"))))
    assert parse("\\x.\\y. x y") == Abs("x", Abs("y", App(Var("x"), Var("y"))))


def test_parse_unicode_lambda_and_primes():
    assert parse("λx. x") == I
    assert parse("\\x'. x'") == Abs("x'", Var("x'"))


def test_application_left_associative():
    assert parse("x y z") == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse("\\x.")
    with pytest.raises(ParseError):
        parse("(x")
    with pytest.raises(ParseError):
        parse("x _|_")  # reserved for partial terms


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 1200 + "x" + ")" * 1200)
    # the parser still works after unwinding
    assert parse("((x))") == Var("x")


def test_strict_mode_rejects_free_variables():
    with pytest.raises(ParseError):
        parse("x y", strict=True)
    parse("\\x. x", strict=True)


def test_print_parse_roundtrip():
    for text in ["\\x. x", "(\\x. x x)(\\y. y)", "\\x. \\y. x (y x)",
                 "x (\\y. y y) z"]:
        t = parse(text)
        assert alpha_eq(parse(show(t)), t)


def test_alpha_equivalence():
    assert alpha_eq(parse("\\x. x"), parse("\\y. y"))
    assert not alpha_eq(parse("\\x. y"), parse("\\y. y"))
    assert key(parse("\\a. a b")) == key(parse("\\c. c b"))


def test_substitution_capture_avoiding():
    # (\y. x y)[x := y] must not capture the free y
    t = subst(Abs("y", App(Var("x"), Var("y"))), "x", Var("y"))
    assert isinstance(t, Abs) and t.binder != "y"
    assert alpha_eq(t, parse("\\z. y z"))


# Head reduction on whole terms: the reference for the machine inside
# `solvability` and `normalize`.

def head_form(t):
    """The HeadForm of t if t is head-normal, else None."""
    binders, h, args = decompose(t)
    return HeadForm(binders, h.name, args) if isinstance(h, Var) else None


def head_reduce_step(t):
    """The head reduct of t, or None if t is head-normal."""
    binders, h, args = decompose(t)
    if isinstance(h, Var):
        return None
    return spine(binders, subst(h.body, h.binder, args[0]), args[1:])


def test_head_reduce_examples():
    assert alpha_eq(head_reduce_step(parse("(\\x. x)(\\y. y)")), parse("\\y. y"))
    assert head_reduce_step(I) is None
    assert alpha_eq(head_reduce_step(OMEGA), OMEGA)


def test_head_form():
    hf = head_form(parse("\\a. \\b. a x y"))
    assert hf.binders == ("a", "b") and hf.head == "a" and len(hf.args) == 2
    assert head_form(OMEGA) is None


def test_solvability_examples():
    assert solvability(I, 10).kind == "solvable"
    assert solvability(I, 10).steps == 0
    assert solvability(OMEGA, 10).kind == "divergent"
    st3 = solvability(OMEGA3, 5)
    assert st3.kind == "unknown" and st3.steps == 5


def test_solvability_monotone_in_fuel():
    t = parse("(\\x. x)((\\y. y)(\\z. z))")
    for fuel in (1, 2, 5, 50):
        res = solvability(t, fuel)
        if res.kind == "solvable":
            assert solvability(t, fuel * 3).kind == "solvable"
    assert solvability(OMEGA, 2).kind == "divergent"
    assert solvability(OMEGA, 100).kind == "divergent"


def test_head_reduction_preserves_beta_class():
    t = parse("(\\x. \\y. x y) (\\z. z) w")
    stepped = head_reduce_step(t)
    assert alpha_eq(normalize(t), normalize(stepped))


def test_alpha_stability_of_operations():
    a = parse("(\\x. x x)(\\u. u)")
    b = parse("(\\q. q q)(\\r. r)")
    assert alpha_eq(normalize(a), normalize(b))
    assert solvability(a, 10).kind == solvability(b, 10).kind


names = st.sampled_from(["x", "y", "z"])


@st.composite
def lam_terms(draw, depth=0):
    kind = draw(st.sampled_from(["var"] * 2 + ["abs", "app"] if depth < 4
                                else ["var"]))
    if kind == "var":
        return Var(draw(names))
    if kind == "abs":
        return Abs(draw(names), draw(lam_terms(depth + 1)))
    return App(draw(lam_terms(depth + 1)), draw(lam_terms(depth + 1)))


@given(lam_terms())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(t):
    assert alpha_eq(parse(show(t)), t)


@given(lam_terms())
@settings(max_examples=60, deadline=None)
def test_canonical_preserves_alpha_class(t):
    c = canonical(t)
    assert alpha_eq(c, t)
    assert free_vars(c) == free_vars(t)


# Long application spines: the parser builds them in a loop, and keys,
# hashes, equality and printing walk them in loops too.
SPINE = "x" + " y" * 3000


def test_deep_spine_hashes_and_prints():
    t = parse(SPINE)
    assert isinstance(hash(t), int)
    assert str(t) == SPINE
    assert key(t)[0] == "a"


def test_deep_spine_equality_answers():
    a, b = parse(SPINE), parse(SPINE)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != parse(SPINE + " z")
    assert a != parse("x" + " y" * 2999 + " z")
    assert parse("\\w. " + SPINE) == parse("\\v. " + SPINE)


def test_deep_spine_under_a_binder_keys_and_reduces():
    t = parse("\\f. f" + " y" * 3000)
    assert t == parse("\\g. g" + " y" * 3000)
    redex = App(t, Var("z"))
    assert str(head_reduce_step(redex)) == "z" + " y" * 3000
    assert solvability(redex, 5).head.args == (Var("y"),) * 3000


def nested_arguments(k):
    """x (x (… ((\\w. w) y))) with the redex under k nested arguments."""
    return "x (" * k + "(\\w. w) y" + ")" * k


def test_nested_arguments_print_and_rename_in_loops():
    # 450 nested arguments is about the deepest the parser takes; printing
    # and renaming used to recurse once per level and failed from ~400
    text = nested_arguments(450)
    t = parse(text)
    assert show(t) == text
    assert parse(show(t)) == t
    c = canonical(t)
    assert show(c) == text.replace("\\w. w", "\\x0. x0")
    assert c == t
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(nested_arguments(1000))


def test_very_long_spine_hashes_without_nested_tuples():
    # hashing a key nested 200,000 deep would recurse in C past the stack
    args = [Var("y")] * 200_000
    a, b = spine((), Var("x"), args), spine((), Var("x"), args)
    assert hash(a) == hash(b) and a == b


def deep_term(shape, n):
    """x (x (… y)), \\a. \\a. … a or x (\\a. x (\\a. … a)) with n levels,
    built by constructors: the parser stops far sooner."""
    t = Var("y" if shape == "args" else "a")
    for _ in range(n):
        if shape == "args":
            t = App(Var("x"), t)
        elif shape == "binders":
            t = Abs("a", t)
        else:
            t = App(Var("x"), Abs("a", t))
    return t


@pytest.mark.parametrize("shape", ["args", "binders", "mixed"])
def test_deep_terms_answer_without_recursion(shape):
    # free names and hashes recursed into bodies and arguments, and raised
    # RecursionError from about 165 levels of the mixed shape
    t, fresh = deep_term(shape, 10_000), deep_term(shape, 10_000)
    assert free_vars(t) == {"args": {"x", "y"}, "binders": set(), "mixed": {"x"}}[shape]
    assert hash(t) == hash(fresh)
    assert _same_key(key(t), key(fresh))  # == on the tuples would recurse
    assert t == fresh and t != deep_term(shape, 9_999)
    assert show(t) == show(fresh)
    status = solvability(t, 10)
    assert status.is_solvable and status.steps == 0


@pytest.mark.parametrize("shape", ["binders", "mixed"])
def test_canonical_names_deep_shadowed_binders(shape):
    # every binder is named a and shadows the one above; the names skip the
    # free x and the new names around them: x (or x0), y, y0, y1, ...  Each
    # scan of y0, y1, ... resumes where the binder above stopped
    n = 10_000
    names = ["x0" if shape == "mixed" else "x", "y"] + [f"y{k}" for k in range(n - 2)]
    outer = "x (\\{}. " if shape == "mixed" else "\\{}. "
    text = "".join(outer.format(b) for b in names) + names[-1]
    c = canonical(deep_term(shape, n))
    assert show(c) == text + ")" * (n if shape == "mixed" else 0)
    assert c == deep_term(shape, n)
