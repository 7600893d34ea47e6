"""Regenerate the golden transcripts in this directory.

    PYTHONPATH=src python tests/golden/regen.py

`cli.json` holds the exact stdout and exit code of the README's CLI examples
plus a few verbs that reach the term printers and rebuilders; `suites.json`
holds each acceptance report, called as tests/test_acceptance.py calls it,
without its `seconds`.  Only regenerate on purpose: the transcripts pin the
program's output, and a refactor must leave them unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from lambdapm import verify
from lambdapm.cli import main

HERE = pathlib.Path(__file__).parent

CLI_EXAMPLES = [
    # the README's examples
    ["pbohm", "--m", "(\\x.x)(\\y.y)", "--n", "\\y.y", "--depth", "3",
     "--fuel", "100"],
    ["rreduce", "--term", "(\\x.x<x>)<y,z>"],
    ["pctx", "--m", "\\x.x", "--n", "\\x.\\y.x y", "--prefix", "8",
     "--fuel", "100"],
    ["ctx-ball", "--center", "\\x.x", "--cand", "\\x.\\y.x y", "--eps",
     "1/2^4", "--fuel", "200"],
    ["isometry", "--a", "x _|_ y", "--b", "x z y", "--mult", "2"],
    ["commute", "--term", "(\\f.\\x. f (f x)) (\\y. y)", "--mult", "2",
     "--height", "4"],
    ["tower", "--base", "sierpinski", "--depth", "2"],
    ["quantify-check", "--poset", "chain3", "--metric", "basis"],
    ["check-axioms", "--space", "ptree", "--mode", "pum"],
    # further verbs over the printers, spine rebuilders and renaming
    ["parse", "--term", "\\x.\\x. x (\\y. y x) z"],
    ["reduce", "--term", "(\\x.\\y. x y) y"],
    ["solvable", "--term", "(\\x. x x)(\\x. x x)", "--fuel", "10"],
    ["solvable", "--term", "\\w. (\\x.\\y. y x) z w", "--fuel", "10"],
    ["approximant", "--term", "\\x. x ((\\y.y y)(\\y.y y)) z"],
    ["bohm", "--term", "\\x. x (\\y. y y) ((\\z.z) x)", "--depth", "3",
     "--fuel", "50"],
    ["ptree", "--a", "x _|_ y", "--b", "x y y"],
    ["rreduce", "--term", "(\\x. \\y. x<y>) <y<>>"],
    ["rmetric", "--a", "\\x. x<y<>, z>", "--b", "\\x. x<z, y<z<>>>"],
    ["taylor", "--term", "\\w. x (y _|_) w", "--partial", "--mult", "2",
     "--height", "3"],
    ["taylor", "--term", "(\\x. x x) y", "--mult", "2", "--height", "3"],
    ["enum-isometry", "--a", "x", "--b", "x y", "--prefix", "8"],
    ["pexp", "--base", "chain3", "--f", "0", "--g", "3"],
    ["pinf", "--base", "sierpinski", "--depth", "2", "--x", "0", "--y", "9"],
    ["pbohm", "--m", "(((", "--n", "x", "--depth", "2"],
    # p_bohm brackets: fuel-unknown subtrees (Omega_3) and the depth horizon
    ["pbohm", "--m", "x ((\\x.x x x)(\\x.x x x))", "--n", "x y", "--depth",
     "3", "--fuel", "10"],
    ["pbohm", "--m", "x z ((\\x.x x x)(\\x.x x x))", "--n", "x y w",
     "--depth", "3", "--fuel", "10"],
    ["pbohm", "--m", "(\\x.x x x)(\\x.x x x)", "--n", "(\\x.x x x)(\\x.x x x)",
     "--depth", "2", "--fuel", "6"],
    ["pbohm", "--m", "x (y (z w))", "--n", "x (y (z w))", "--depth", "2",
     "--fuel", "5"],
]

# Each acceptance report, called with the arguments tests/test_acceptance.py
# uses.
SUITE_CALLS = {
    "axioms": lambda: verify.suite_axioms(seed=7),
    "order-capture": verify.suite_order_capture,
    "identities": verify.suite_identities,
    "isometry": verify.suite_isometry,
    "enum-isometry": lambda: verify.suite_enumeration_isometry(seed=5),
    "commutation": verify.suite_commutation,
    "quantification": lambda: verify.suite_quantification(seed=7),
    "tower": lambda: verify.suite_tower(seed=7),
    "genericity": verify.suite_genericity,
    "brackets": lambda: verify.suite_brackets(seed=13),
}


def run_cli(argv):
    """(exit code, stdout) of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def untimed(report) -> dict:
    """A report without its `seconds`, in the CLI's JSON value space."""
    rep = {k: v for k, v in report.items() if k != "seconds"}
    return json.loads(json.dumps(rep, sort_keys=True, default=str))


def regenerate():
    cli = []
    for argv in CLI_EXAMPLES:
        code, out = run_cli(argv)
        cli.append({"argv": argv, "exit": code, "stdout": out})
    (HERE / "cli.json").write_text(json.dumps(cli, indent=1) + "\n")
    suites = {name: untimed(call()) for name, call in SUITE_CALLS.items()}
    (HERE / "suites.json").write_text(
        json.dumps(suites, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
