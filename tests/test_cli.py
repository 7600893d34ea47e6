import json
import sys
from fractions import Fraction

import pytest

from lambdapm.cli import main
from lambdapm.contextual import p_ctx_bracket
from lambdapm.lamcalc import parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_verb(capsys):
    code, out = run(capsys, "parse", "--term", "\\x. x")
    assert code == 0 and out["term"] == "\\x. x"


def test_parse_strict_rejects_free(capsys):
    code, _ = run(capsys, "parse", "--term", "x y", "--strict")
    assert code == 2


def test_pbohm_report(capsys):
    code, out = run(capsys, "pbohm", "--m", "(\\x.x)(\\y.y)", "--n", "\\y.y",
                    "--depth", "3", "--fuel", "100")
    assert code == 0
    assert out["value"] == {"kind": "exact", "num": 1, "den_pow2": 1}


def test_rreduce_report(capsys):
    code, out = run(capsys, "rreduce", "--term", "(\\x.x<x>)<y,z>")
    assert code == 0 and out == ["y<z>", "z<y>"]


def test_solvable_divergence_certificate(capsys):
    code, out = run(capsys, "solvable", "--term", "(\\x. x x)(\\x. x x)",
                    "--fuel", "10")
    assert code == 0 and out["status"] == "divergent" and "cycle" in out


def test_check_axioms_exit_codes(capsys):
    code, out = run(capsys, "check-axioms", "--space", "sierpinski",
                    "--mode", "pm")
    assert code == 0 and out["violations"] == []


def test_quantify_check_failure_exit(capsys):
    code, out = run(capsys, "quantify-check", "--poset", "sierpinski",
                    "--metric", "basis")
    assert code == 0 and out["pass"]


def test_bad_input_exit_code(capsys):
    code, _ = run(capsys, "pbohm", "--m", "(((", "--n", "x", "--depth", "2")
    assert code == 2


def test_reports_are_byte_stable(capsys):
    main(["enum-isometry", "--a", "x", "--b", "x y", "--prefix", "8"])
    first = capsys.readouterr().out
    main(["enum-isometry", "--a", "x", "--b", "x y", "--prefix", "8"])
    assert capsys.readouterr().out == first


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "identities"])
    captured = capsys.readouterr()
    assert code == 0
    reports = json.loads(captured.out)
    assert reports[0]["passed"] is True


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--output", str(target), "ptree", "--a", "x", "--b", "x"])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["value"] == {"kind": "exact", "num": 1, "den_pow2": 1}


def test_malformed_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_PM_CAP", "abc")
    code = main(["pexp", "--base", "sierpinski", "--f", "0", "--g", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "LAMBDA_PM_CAP" in captured.err and "'abc'" in captured.err


def test_pctx_prints_ends_past_the_int_string_limit(capsys):
    """At prefix 15,000 the exact bracket ends have more than 4,300 digits,
    more than CPython turns into a string by default.  The CLI prints them
    and leaves the limit of the calling process as it was."""
    digits = sys.get_int_max_str_digits()
    code = main(["pctx", "--m", "\\x.x", "--n", "\\x.\\y.x y",
                 "--prefix", "15000", "--fuel", "30"])
    out = capsys.readouterr().out
    assert code == 0 and sys.get_int_max_str_digits() == digits
    val = p_ctx_bracket(parse("\\x.x"), parse("\\x.\\y.x y"), 15000, 30)
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(val.upper.denominator)) > 4300
        data = json.loads(out)
        assert Fraction(data["lower"]) == val.lower
        assert Fraction(data["upper"]) == val.upper
    finally:
        sys.set_int_max_str_digits(digits)


def test_deeply_nested_term_is_a_parse_error(capsys):
    code = main(["parse", "--term", "(" * 1200 + "x" + ")" * 1200])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nope"])
    assert code == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err


S_LEQ = [[True, True], [False, True]]


@pytest.mark.parametrize("poset, message", [
    ({"elements": [0, 1], "leq": S_LEQ}, "'bottom'"),
    ({"elements": [0, 1], "leq": [1, 2], "bottom": 0}, "'leq'"),
    ({"elements": [0, 1], "leq": S_LEQ, "bottom": 5}, "bottom 5"),
    ({"elements": [0, 1], "leq": S_LEQ, "bottom": -2}, "bottom -2"),
], ids=["missing-key", "non-list-rows", "bottom-out-of-range",
        "negative-bottom"])
def test_malformed_poset_file_is_named(tmp_path, capsys, poset, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poset))
    code = main(["quantify-check", "--poset", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_missing_poset_file_is_named(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code = main(["quantify-check", "--poset", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "absent.json" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["pexp", "--base", "flat2", "--f", "99", "--g", "0"], "--f 99"),
    (["pexp", "--base", "flat2", "--f=-1", "--g", "0"], "--f -1"),
    (["pinf", "--base", "sierpinski", "--x", "99", "--y", "0"], "index 99"),
    (["pinf", "--base", "sierpinski", "--x=-1", "--y", "0"], "index -1"),
], ids=["pexp-too-large", "pexp-negative", "pinf-too-large", "pinf-negative"])
def test_out_of_range_element_index_is_named(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("fuel, eps", [("0", "1"), ("-5", "1"), ("0", "1/4")])
def test_ctx_ball_refuses_fuel_below_one(capsys, fuel, eps):
    code = main(["ctx-ball", "--center", "\\x.x", "--cand", "\\x.x x",
                 "--eps", eps, f"--fuel={fuel}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "fuel must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["tower", "--base", "sierpinski", "--depth", "-1"],
    ["pinf", "--base", "sierpinski", "--depth", "-1", "--x", "0", "--y", "0"],
], ids=["tower", "pinf"])
def test_negative_tower_depth_is_refused(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "depth must be >= 0" in captured.err


def test_parse_verb_prints_a_long_spine(capsys):
    term = "x" + " y" * 3000
    code, out = run(capsys, "parse", "--term", term)
    assert code == 0 and out == {"term": term, "canonical": term}


def test_reduce_verb_normalizes_a_long_spine(capsys):
    term = "x" + " y" * 3000
    code, out = run(capsys, "reduce", "--term", term)
    assert code == 0 and out == {"normal_form": term}
    code, out = run(capsys, "reduce", "--term", "(\\z. z) x" + " y" * 3000)
    assert code == 0 and out == {"normal_form": term}


def test_rreduce_verb_prints_a_long_spine(capsys):
    for term in ("x" + "<y>" * 3000, "\\x. x" + "<y>" * 3000):
        code, out = run(capsys, "rreduce", "--term", term)
        assert code == 0 and out == [term]


def test_rreduce_over_the_cap_exits_2_and_names_it(capsys, monkeypatch):
    monkeypatch.delenv("LAMBDA_PM_CAP", raising=False)
    # nine distinct items into nine one-item bags: 9! = 362,880 reducts
    body = "h" + "<x>" * 9
    items = ", ".join(f"y{i}" for i in range(9))
    code = main(["rreduce", "--term", f"(\\x. {body})<{items}>"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cap 100000" in err and "LAMBDA_PM_CAP" in err


def test_commute_is_two_sided_on_nested_copies(capsys):
    """docs/DECISIONS.md D13: the redex's bag is sized by the occurrences of
    its binder, so the up to mult**2 copies of the argument are reached."""
    code = main(["commute", "--term", "(\\x. f (g x)) (z w)", "--mult", "2",
                 "--height", "3"])
    printed = capsys.readouterr().out
    out = json.loads(printed)
    assert code == 0 and '"equal": true' in printed
    assert len(out["lhs"]) == 10 and out["lhs"] == out["rhs"]


def test_parse_verb_prints_abstractions_nested_in_arguments(capsys):
    # free names and hashes recursed once per abstraction and argument, so
    # this exited 2 with "maximum recursion depth exceeded"
    term = "x (\\a. " * 200 + "a" + ")" * 200
    code, out = run(capsys, "parse", "--term", term)
    assert code == 0 and out["term"] == term


def test_resource_verbs_answer_on_nested_bags(capsys):
    # normality, heights and printing recursed once per bag, so both verbs
    # exited 2 with "maximum recursion depth exceeded" from 250 nested bags;
    # 900 is below the parser's limit on every supported Python
    term = "x<" * 900 + "y" + ">" * 900
    code, out = run(capsys, "rreduce", "--term", term)
    assert code == 0 and out == [term]
    code, out = run(capsys, "rmetric", "--a", term, "--b", "x<y>")
    assert code == 0 and out["value"] == {"kind": "exact", "num": 1, "den_pow2": 1}


def test_isometry_verb_at_multiplicity_zero_and_below(capsys):
    # at mult 0 each expansion holds the root with empty bags alone
    code, out = run(capsys, "isometry", "--a", "x (y z)", "--b", "x (y z)",
                    "--mult", "0")
    assert code == 0 and out == {
        "equal": False, "stable": False,
        "lhs": {"kind": "exact", "num": 1, "den_pow2": 1},
        "rhs": {"kind": "exact", "num": 1, "den_pow2": 3}}
    code = main(["isometry", "--a", "x (y z)", "--b", "x (y z)", "--mult", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "mult_bound must be >= 0" in captured.err
