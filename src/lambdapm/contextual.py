"""Deterministic context enumeration, the contextual distance as a sound
bracket, the finitary ball test and the genericity semi-test."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .distance import DistanceValue, bracket, dyadic
from .lamcalc import (DIVERGENT, SOLVABLE, UNKNOWN, Abs, App, LambdaTerm, Var, _run,
                      _same_state, _start, _unwind, decompose, free_vars, show,
                      solvability)

# The hole is a variable whose name the parser cannot produce, so no term
# contains it; `show` prints a context with the hole as [-].
HOLE = Var("[-]")

_TERM_VARS = ("x", "y", "z")


def _binder_name(depth: int) -> str:
    return _TERM_VARS[depth] if depth < 3 else f"v{depth - 3}"


@lru_cache(maxsize=None)
def _of_size(size: int, depth: int, holes: int) -> tuple:
    """The terms (holes=0) of T ::= x | \\x.T | T T or the contexts (holes=1) of
    C ::= [-] | \\x.C | C T | T C with `size` nodes below `depth` binders, over a
    3-variable alphabet: abstractions first, then applications by the size of the
    function part, a context's hole going left first, then right.  Binders are named by
    nesting depth (x, y, z, v0, ...), so one may shadow a free variable; plugging is
    literal anyway."""
    if size == 1:
        if holes:
            return (HOLE,)
        scope = [_binder_name(d) for d in range(depth)]
        return tuple(Var(v) for v in _TERM_VARS + tuple(n for n in scope if n not in _TERM_VARS))
    out = [Abs(_binder_name(depth), body) for body in _of_size(size - 1, depth + 1, holes)]
    for fun_holes, arg_holes in ((1, 0), (0, 1)) if holes else ((0, 0),):
        for sf in range(1, size):
            for f in _of_size(sf, depth, fun_holes):
                for a in _of_size(size - sf, depth, arg_holes):
                    out.append(App(f, a))
    return tuple(out)


@dataclass(frozen=True)
class Context:
    """A term over the extended grammar with exactly one hole."""

    term: LambdaTerm

    def plug(self, m: LambdaTerm) -> LambdaTerm:
        return _plug(self.term, m)

    def __str__(self):
        return show(self.term)


def _plug(t: LambdaTerm, m: LambdaTerm) -> LambdaTerm:
    """Literal, capture-permitting hole replacement.  Subterms without the
    hole are shared with the context, cached keys included."""
    if HOLE.name not in free_vars(t):
        return t
    if isinstance(t, Var):
        return m
    if isinstance(t, Abs):
        return Abs(t.binder, _plug(t.body, m))
    return App(_plug(t.fun, m), _plug(t.arg, m))


def enumerate_context(n: int) -> Context:
    """The n-th context (0-indexed); injective, total, stable across runs."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return Context(next(_context_terms(n, n + 1)))


def _context_terms(start: int, stop: int):
    """The terms of C_start, ..., C_{stop-1}, read in place off the size
    batches, which are built once."""
    base = 0
    for size in range(1, 13):
        if base >= stop:
            return
        batch = _of_size(size, 0, 1)
        if start < base + len(batch):
            yield from islice(batch, max(start - base, 0), stop - base)
        base += len(batch)
    raise RuntimeError("context index out of supported range")


# ---------------------------------------------------------------------------
# Outcome rows

# Rows hold a byte per context index they reach; past this many, the least
# recently used row is dropped.
_MAX_ROWS = 1024


@lru_cache(maxsize=_MAX_ROWS)
def _kinds(m: LambdaTerm, fuel: int) -> bytearray:
    """The row of m's alpha class at `fuel`: the solvability kinds of C_0[m],
    C_1[m], ... as the machine's kind codes, filled a prefix at a time by
    `_fill`."""
    return bytearray()


def _fill(m: LambdaTerm, fuel: int, idx: int) -> bytearray:
    """The row of m at `fuel`, filled through index idx.  It serves, and may be
    run on, every term alpha-equivalent to m: plugging captures only free names,
    which such terms share, and head reduction commutes with alpha-equivalence
    (docs/DECISIONS.md D7, D27).  Each index follows its route (D30), and no kind
    depends on the order the indices are filled in (D24)."""
    kinds = _kinds(m, fuel)
    start = len(kinds)
    if start <= idx:
        routes, run = _fill_routes(idx, fuel), _runs(m, fuel)
        for i, c in enumerate(_context_terms(start, idx + 1), start):
            route = routes[i]
            kinds.append(SOLVABLE if route is True else run(route, c)[0])
    return kinds


# The cell that a row's own run stands on in place of a context's arguments
# (docs/DECISIONS.md D31); its hash is set, so no run encodes its argument.
_TAIL = [HOLE, None, 0, 0]


def _runs(m: LambdaTerm, fuel: int):
    """run(route, c): the machine's (kind, step) on C[m] at `fuel`, c being a context
    whose route is not True; the route None plugs and runs.  The route (env, spine)
    of \\xs. [-] N1 ... Nk starts the machine at C[m]'s start state without building
    C[m]: m unwound over the cells of N1 ... Nk (docs/DECISIONS.md D28).  No state
    before the boundary, the first one whose head is an abstraction over those cells
    alone, reads them, so m's own run up to there, made over `_TAIL` once per fill,
    answers every context that it decides, and a context with k >= 1 resumes at the
    boundary.  Where m is \\y1 ... yj. h A and h is not bound by its first
    min(j, k) binders, C[m] is solvable at step min(j, k) (D31).  The first step's
    reducts are kept per top argument for the fill."""
    ys, h, _ = decompose(m)
    bound = 0
    if ys and h._kind == "var":  # m is head normal: the position of h's binder
        # in ys, counted from 1 and found innermost first, or past ys if h is free
        bound = next((i for i in range(len(ys), 0, -1) if ys[i - 1] == h.name),
                     len(ys) + 1)
    # the outcome of m's own run where it ends before the boundary, the same
    # for every context: at step 0, with no cell built, where m has a variable
    # head and no binders
    decided = (SOLVABLE, 0, None, None) if not ys and h._kind == "var" else None
    boundary, memo, by_depth = None, {}, {}

    def run(route, c):
        nonlocal decided, boundary
        if route is None:
            return _run(_plug(c, m), fuel)
        if decided:
            return decided
        if boundary is None:  # m's own run, made at the fill's first (env, spine) route
            outcome = _start(*_unwind((), m, _TAIL), fuel, tail=_TAIL)
            if outcome[0] is not None:
                decided = outcome
                return decided
            boundary = outcome[1], outcome[2][1]
            # the states before the boundary, by their depth above _TAIL
            for bucket in outcome[3].values():
                for first, (_, head, cells) in bucket:
                    by_depth.setdefault(cells[2], []).append((first, head, cells))
        env, spine = route
        cells = _unwind(env, spine, None)[2]
        k = cells[2] if cells else 0
        n = k if k < len(ys) else len(ys)  # min(j, k)
        if n < bound:
            return (SOLVABLE, n, None, None) if n <= fuel else (UNKNOWN, fuel, None, None)
        if not k:
            return _start(*_unwind(env, m, None), fuel, memo)
        step, head = boundary
        return _start(env, head, cells, fuel, memo, step, None,
                      _seen(by_depth, env, cells) if by_depth else None)
    return run


def _seen(by_depth, env, cells):
    """seen(state, step) for a run resumed at the boundary over `cells` under
    `env`: the step of the state before the boundary that `state` repeats, each
    state met rebuilt over these cells, or `step` (docs/DECISIONS.md D31)."""
    k = cells[2]

    def seen(state, step):
        if state[0] is env:
            for first, head, above in by_depth.get(state[2][2] - k, ()):
                if _same_state(state, (env, head, _over(above, cells))):
                    return first
        return step
    return seen


def _over(cells, tail):
    """The cells above `_TAIL` in `cells`, pushed in order over `tail`."""
    args = []
    while cells is not _TAIL:
        args.append(cells[0])
        cells = cells[1]
    for a in reversed(args):
        tail = [a, tail, tail[2] + 1, None]
    return tail


@lru_cache(maxsize=_MAX_ROWS)
def _routes(fuel: int) -> list:
    """A route per context index at `fuel`, filled a prefix at a time by
    `_fill_routes`."""
    return []


def _fill_routes(idx: int, fuel: int) -> list:
    """The routes at `fuel`, filled through idx, each read off the run of
    `solvability` on C_i with the hole left free (docs/DECISIONS.md D30): True
    where C_i settles, reaching a head normal form whose head is not the hole, so
    that C_i[m] is solvable for every m (D10); (env, spine) where C_i is head normal
    at step 0 with the hole at the head, which makes it \\xs. [-] N1 ... Nk, with env
    the binders xs innermost first and spine the body [-] N1 ... Nk (D28); None
    elsewhere."""
    routes = _routes(fuel)
    for c in _context_terms(len(routes), idx + 1):
        st = solvability(c, fuel)
        route = None
        if st.is_solvable and st.head.head != HOLE.name:
            route = True
        elif st.is_solvable and not st.steps:
            env = st.head.binders[::-1]
            for _ in env:
                c = c.body
            route = env, c
        routes.append(route)
    return routes


# ---------------------------------------------------------------------------
# Contextual distance

def p_ctx_bracket(m: LambdaTerm, n: LambdaTerm, prefix: int, fuel: int) -> DistanceValue:
    """Sound bracket around the context-counting distance.

    Certified divergences enter the lower bound; unknown solvability and the
    unenumerated tail enter the upper bound only.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    km, kn = _fill(m, fuel, prefix), _fill(n, fuel, prefix)
    # both sums are kept as integer numerators over 2**prefix, where index
    # i weighs 2**(prefix - i) and the tail past the prefix weighs 1
    lower = unknown = 0
    for shift, a, b in zip(range(prefix, -1, -1), km, kn):
        if a == DIVERGENT or b == DIVERGENT:
            lower += 1 << shift
        elif a == UNKNOWN or b == UNKNOWN:
            unknown += 1 << shift
    den = 1 << prefix
    return bracket(Fraction(lower, den), Fraction(lower + unknown + 1, den))


def in_ctx_ball(m: LambdaTerm, candidate: LambdaTerm, epsilon, fuel: int) -> str:
    """Finitary ball test: "yes" | "no" | "unknown".

    The tested indices are those whose weight passes the threshold,
    {i : 2**-(i+1) >= epsilon}; the candidate must converge wherever the
    center does on them.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    k = 0
    while dyadic(k + 1) >= epsilon:
        k += 1
    km = _fill(m, fuel, k - 1)
    # the candidate's kinds are read only where the center does not diverge
    last = max(km.rfind(SOLVABLE, 0, k), km.rfind(UNKNOWN, 0, k))
    pending = False
    for a, b in zip(km[:last + 1], _fill(candidate, fuel, last)):
        if a == DIVERGENT:
            continue  # center fails here; no constraint on the candidate
        if a == SOLVABLE and b == DIVERGENT:
            return "no"
        if a == UNKNOWN or b == UNKNOWN:
            pending = True
    return "unknown" if pending else "yes"


def genericity_violations(unsolvable: LambdaTerm, corpus, max_index: int,
                          fuel: int) -> list:
    """Semi-test of the genericity lemma for a certified-unsolvable term.

    Wherever a context converges on the unsolvable term, it must converge on
    every term; a certified divergence there is a violation.
    """
    st = solvability(unsolvable, fuel)
    if not st.is_divergent:
        raise ValueError("term is not certified unsolvable at this fuel")
    ku = _fill(unsolvable, fuel, max_index)
    # the corpus's kinds are read only where the unsolvable term converges
    last = ku.rfind(SOLVABLE, 0, max_index + 1)
    rows = [(n, _fill(n, fuel, last)) for n in corpus]
    bad = []
    for idx in range(last + 1):
        if ku[idx] != SOLVABLE:
            continue
        for n, kinds in rows:
            if kinds[idx] == DIVERGENT:
                bad.append({"index": idx, "context": str(enumerate_context(idx)),
                            "term": str(n)})
    return bad
