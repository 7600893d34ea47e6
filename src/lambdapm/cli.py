"""Command-line front end: every computation as a verb with exact-arithmetic
JSON output, plus a `verify` umbrella running the acceptance suites."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bohm, contextual, corpus, domains, resource, taylor, verify
from .distance import DistanceValue
from .lamcalc import canonical, normalize, parse, show, solvability
from .pmetric import check_axioms


def _emit(obj, args) -> None:
    text = json.dumps(obj, indent=None, sort_keys=True, default=str)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _metric_report(metric: str, value: DistanceValue) -> dict:
    return {"metric": metric, "value": value.to_json()}


def _parse_fraction(text: str) -> Fraction:
    if "/" in text and "2^" in text:
        num, den = text.split("/")
        return Fraction(int(num), 2 ** int(den.split("^")[1]))
    return Fraction(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lambda-pm",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--output", help="write the JSON report to a file")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse and reprint a term")
    p.add_argument("--term", required=True)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("reduce", help="full beta normalization with fuel")
    p.add_argument("--term", required=True)
    p.add_argument("--fuel", type=int, default=1000)

    p = sub.add_parser("solvable", help="head-normalization semi-decision")
    p.add_argument("--term", required=True)
    p.add_argument("--fuel", type=int, default=100)

    p = sub.add_parser("approximant", help="direct approximant of a term")
    p.add_argument("--term", required=True)

    p = sub.add_parser("bohm", help="Boehm tree truncation")
    p.add_argument("--term", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--fuel", type=int, default=100)

    p = sub.add_parser("ptree", help="tree distance between partial terms")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("pbohm", help="Boehm distance between terms")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--fuel", type=int, default=100)

    p = sub.add_parser("pint", help="interval distance")
    p.add_argument("--a", required=True, help="lo,hi with rational endpoints")
    p.add_argument("--b", required=True)

    p = sub.add_parser("pctx", help="contextual distance bracket")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--prefix", type=int, default=8)
    p.add_argument("--fuel", type=int, default=100)

    p = sub.add_parser("ctx-ball", help="finitary contextual ball test")
    p.add_argument("--center", required=True)
    p.add_argument("--cand", required=True)
    p.add_argument("--eps", required=True, help="rational or p/2^k")
    p.add_argument("--fuel", type=int, default=100)

    p = sub.add_parser("rreduce", help="normalize a resource term")
    p.add_argument("--term", required=True)

    p = sub.add_parser("rmetric", help="resource distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("taylor", help="bounded Taylor expansion")
    p.add_argument("--term", required=True)
    p.add_argument("--mult", type=int, default=2)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--partial", action="store_true",
                   help="treat the input as a partial term")

    p = sub.add_parser("isometry", help="Hausdorff-star vs tree distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mult", type=int, default=2)

    p = sub.add_parser("commute", help="bounded commutation check")
    p.add_argument("--term", required=True)
    p.add_argument("--mult", type=int, default=2)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--fuel", type=int, default=300)

    p = sub.add_parser("enum-isometry", help="weighted-series isometry prefix")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--prefix", type=int, default=12)

    p = sub.add_parser("tower", help="build an approximation tower")
    p.add_argument("--base", required=True,
                   help="sierpinski | flat2 | chain3 | a poset JSON file")
    p.add_argument("--depth", type=int, default=2)

    p = sub.add_parser("pexp", help="applicative distance on a function space")
    p.add_argument("--base", required=True, help="sierpinski | flat2 | chain3")
    p.add_argument("--f", type=int, required=True, help="map index")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--theta", default="1/2")

    p = sub.add_parser("pinf", help="tower distance prefix between profiles")
    p.add_argument("--base", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--x", type=int, required=True, help="top-level index of x")
    p.add_argument("--y", type=int, required=True)

    p = sub.add_parser("quantify-check", help="metric vs Scott topology")
    p.add_argument("--poset", required=True,
                   help="sierpinski | chain3 | flat2 | a poset JSON file")
    p.add_argument("--metric", choices=["basis", "applicative"], default="basis")

    p = sub.add_parser("check-axioms", help="exhaustive axiom check")
    p.add_argument("--space", required=True,
                   help="sierpinski | ptree | pint | r | negative-control")
    p.add_argument("--mode", choices=["pm", "ppm", "pum"], default="pm")
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", default="all",
                   help="|".join(["all"] + list(verify.ALL_SUITES)))
    p.add_argument("--seed", type=int, default=7)

    args = ap.parse_args(argv)
    # exact bracket ends can have more digits than CPython (3.10.7 on)
    # turns into a string by default; lifted while the verb runs
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _interval(text: str):
    from .intervals import RationalInterval
    lo, hi = text.split(",")
    return RationalInterval(Fraction(lo), Fraction(hi))


def _named_poset(name: str):
    if name == "sierpinski":
        return domains.sierpinski()
    if name == "flat2":
        return domains.flat(2)
    if name == "chain3":
        return domains.chain(3)
    with open(name) as fh:
        return domains.FinitePoset.from_json(json.load(fh))


def _base_metric(name: str, base):
    """The D_0 metric of a tower over the named base poset."""
    return verify.s_metric if name == "sierpinski" else verify.wb_space(base).d


def _dispatch(args) -> int:
    v = args.verb
    if v == "parse":
        t = parse(args.term, strict=args.strict)
        _emit({"term": show(t), "canonical": show(canonical(t))}, args)
    elif v == "reduce":
        t = normalize(parse(args.term), args.fuel)
        _emit({"normal_form": None if t is None else show(t)}, args)
    elif v == "solvable":
        st = solvability(parse(args.term), args.fuel)
        out = {"status": st.kind, "steps": st.steps}
        if st.head:
            out["head_form"] = show(st.head.to_term())
        if st.certificate:
            out["cycle"] = {"first": st.certificate[0],
                            "again": st.certificate[1],
                            "term": st.certificate[2]}
        _emit(out, args)
    elif v == "approximant":
        _emit({"approximant": str(bohm.direct_approximant(parse(args.term)))},
              args)
    elif v == "bohm":
        tr = bohm.bohm_truncate(parse(args.term), args.depth, args.fuel)
        _emit({"tree": str(tr.tree), "depth": tr.depth,
               "status": "exact" if tr.is_exact else "tentative",
               "tentative_at": [list(p) for p in tr.tentative]}, args)
    elif v == "ptree":
        val = bohm.p_tree(bohm.parse_partial(args.a), bohm.parse_partial(args.b))
        _emit(_metric_report("p_tree", val), args)
    elif v == "pbohm":
        val = bohm.p_bohm(parse(args.m), parse(args.n), args.depth, args.fuel)
        _emit(_metric_report("p_bohm", val), args)
    elif v == "pint":
        from .intervals import p_int
        _emit(_metric_report("p_int", p_int(_interval(args.a),
                                            _interval(args.b))), args)
    elif v == "pctx":
        val = contextual.p_ctx_bracket(parse(args.m), parse(args.n),
                                       args.prefix, args.fuel)
        _emit({"metric": "p_ctx", "lower": str(val.lower),
               "upper": str(val.upper), "value": val.to_json()}, args)
    elif v == "ctx-ball":
        res = contextual.in_ctx_ball(parse(args.center), parse(args.cand),
                                     _parse_fraction(args.eps), args.fuel)
        _emit({"answer": res}, args)
    elif v == "rreduce":
        nf = resource.resource_reduce(resource.parse_resource(args.term))
        _emit(sorted(str(t) for t in nf), args)
    elif v == "rmetric":
        val = resource.r_metric(resource.parse_resource(args.a),
                                resource.parse_resource(args.b))
        _emit(_metric_report("r", val), args)
    elif v == "taylor":
        if args.partial:
            frag = taylor.taylor_expand(bohm.parse_partial(args.term),
                                        args.mult, args.height)
        else:
            frag = taylor.taylor_of_term(parse(args.term), args.mult,
                                         args.height)
        _emit({"elements": sorted(str(t) for t in frag.elements),
               "mult_bound": args.mult, "height_bound": args.height}, args)
    elif v == "isometry":
        res = taylor.isometry_check(bohm.parse_partial(args.a),
                                    bohm.parse_partial(args.b), args.mult)
        _emit({"lhs": res["lhs"].to_json(), "rhs": res["rhs"].to_json(),
               "equal": res["equal"], "stable": res["stable"]}, args)
    elif v == "commute":
        res = taylor.commutation_check(parse(args.term), args.mult,
                                       args.height, args.fuel)
        _emit({"equal": res["equal"],
               "lhs": sorted(str(t) for t in res["lhs"]),
               "rhs": sorted(str(t) for t in res["rhs"])}, args)
    elif v == "enum-isometry":
        res = taylor.enumeration_isometry(bohm.parse_partial(args.a),
                                          bohm.parse_partial(args.b),
                                          args.prefix)
        _emit({"pB": res["pB"].to_json(), "pP": res["pP"].to_json(),
               "gap": str(res["gap"]), "tail": str(res["tail"])}, args)
    elif v == "tower":
        base = _named_poset(args.base)
        tw = domains.build_tower(base, _base_metric(args.base, base), args.depth)
        _emit({"sizes": [tw.level(i).poset.size for i in range(args.depth + 1)]},
              args)
    elif v == "pexp":
        base = _named_poset(args.base)
        fs, maps = domains.function_space(base, base)
        sp = verify.wb_space(base)
        for flag, i in (("--f", args.f), ("--g", args.g)):
            if not 0 <= i < len(maps):
                raise ValueError(f"{flag} {i} is not a map index in 0..{len(maps) - 1}")
        val = domains.applicative_metric(sp.d, list(range(base.size)),
                                         _parse_fraction(args.theta),
                                         maps[args.f], maps[args.g])
        _emit(_metric_report("p_exp", val), args)
    elif v == "pinf":
        base = _named_poset(args.base)
        tw = domains.build_tower(base, _base_metric(args.base, base), args.depth)
        a = domains.TowerProfile.from_top(tw, args.x)
        b = domains.TowerProfile.from_top(tw, args.y)
        _emit(_metric_report("p_inf", domains.p_infinity_prefix(tw, a, b)),
              args)
    elif v == "quantify-check":
        poset = _named_poset(args.poset)
        if args.metric == "basis":
            space = verify.wb_space(poset)
            res = domains.quantification_decision(poset, space)
        else:
            space, order = verify.applicative_space(poset)
            res = domains.quantification_decision(order, space)
        _emit(res, args)
        return 0 if res["pass"] else 1
    elif v == "check-axioms":
        space = _axiom_space(args)
        bad = check_axioms(space, args.mode)
        _emit({"space": space.name, "mode": args.mode, "violations": bad},
              args)
        return 0 if not bad else 1
    elif v == "verify":
        if args.suite == "all":
            reports = verify.run_all(seed=args.seed)
        else:
            reports = [verify.run_suite(args.suite, args.seed)]
        for rep in reports:
            status = "PASS" if rep["passed"] else "FAIL"
            print(f"[{status}] {rep['name']} ({rep['seconds']}s)",
                  file=sys.stderr)
        _emit(reports, args)
        return 0 if all(r["passed"] for r in reports) else 1
    else:  # pragma: no cover
        raise ValueError(f"unhandled verb {v}")
    return 0


def _axiom_space(args):
    if args.space == "sierpinski":
        return verify.sierpinski_space()
    if args.space == "negative-control":
        return verify.negative_control_space()
    if args.space == "ptree":
        return verify.ptree_space(corpus.partial_corpus(3, 4)[:12])
    if args.space == "r":
        return verify.r_space(corpus.resource_corpus(14))
    if args.space == "pint":
        return verify.pint_space(args.seed)
    raise ValueError(f"unknown space {args.space!r}")


if __name__ == "__main__":
    sys.exit(main())
