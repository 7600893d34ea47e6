"""Deterministic context enumeration, the contextual distance as a sound
bracket, the finitary ball test and the genericity semi-test."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .distance import DistanceValue, bracket, dyadic
from .lamcalc import (DIVERGENT, SOLVABLE, UNKNOWN, Abs, App, LambdaTerm, Var, _run,
                      _same_state, _start, _unwind, decompose, free_vars, show,
                      solvability, spine)

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
    return _plug_below(t, m)


def _plug_below(t: LambdaTerm, m: LambdaTerm) -> LambdaTerm:
    """`_plug` on a t that holds the hole and whose free names are filled:
    `free_vars` fills a node only after its parts, so every node below t has
    its names too, read off `_fv`."""
    kind = t._kind
    if kind == "var":
        return m
    if kind == "abs":
        return Abs(t.binder, _plug_below(t.body, m))
    f, a = t.fun, t.arg
    return App(_plug_below(f, m) if HOLE.name in f._fv else f,
               _plug_below(a, m) if HOLE.name in a._fv else a)


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

# The template codes of an index whose context has the hole at its start head
# and of every other open one; a settled index holds SOLVABLE, the kind it gives
# every row.  A row copies the template through a table: _KEEP where m's own run
# is open, else the _ANSWER that writes that run's kind at each _HOLE.
_HOLE, _OPEN = 3, 4
_KEEP = bytes(range(256))
_ANSWER = [_KEEP[:_HOLE] + bytes((kind,)) + _KEEP[_HOLE + 1:]
           for kind in (SOLVABLE, DIVERGENT, UNKNOWN)]


@lru_cache(maxsize=_MAX_ROWS)
def _row(m: LambdaTerm, fuel: int) -> tuple:
    """The row of m's alpha class at `fuel`: (kinds, table, run, kind), kinds the
    solvability kinds of C_0[m], C_1[m], ... as the machine's kind codes, filled
    a prefix at a time by `_fill`, and table, run and kind the `_runs(m, fuel)`
    that finds them."""
    return (bytearray(), *_runs(m, fuel))


def _fill(m: LambdaTerm, fuel: int, idx: int) -> bytearray:
    """The row of m at `fuel`, filled through index idx.  It serves, and may be
    run on, every term alpha-equivalent to m: plugging captures only free names,
    which such terms share, and head reduction commutes with alpha-equivalence
    (docs/DECISIONS.md D7, D27).  The fuel's template gives the settled indices,
    and every _HOLE index where m's own run decides (D31); the other indices
    follow their routes (D30, D34).  No kind depends on the order the indices
    are filled in (D24)."""
    if idx < 0:  # no index is read, and making the row runs m (D33)
        return bytearray()
    kinds, table, run, kind = _row(m, fuel)
    start = len(kinds)
    if start <= idx:
        marks, holes, hole_routes, opens, open_routes = _fill_routes(idx, fuel)
        new = marks[start:idx + 1].translate(table)
        if table is _KEEP:
            for j in range(bisect_left(holes, start), bisect_right(holes, idx)):
                new[holes[j] - start] = run(hole_routes[j])[0]
        for j in range(bisect_left(opens, start), bisect_right(opens, idx)):
            new[opens[j] - start] = kind(open_routes[j])
        kinds += new  # last, so a run that raises leaves the row as it was
    return kinds


# The cell that a row's own run stands on in place of a context's arguments
# (docs/DECISIONS.md D31); its hash is set, so no run encodes its argument.
_TAIL = [HOLE, None, 0, 0]


def _runs(m: LambdaTerm, fuel: int):
    """(table, run, kind) for m at `fuel`.  run(c) is the machine's outcome on
    c[m] for a context c = \\xs. [-] N1 ... Nk, whose start state is m unwound
    over the cells of N1 ... Nk under xs (docs/DECISIONS.md D28).  No state
    before the boundary, the first one whose head is an abstraction over those
    cells alone, reads them, so m's own run up to there, made over `_TAIL` once
    per row, answers every such context if it decides, and table then writes its
    kind into the template; else every context resumes at the boundary: with
    k = 0 its binder moves into env, so no later state repeats an earlier one
    (D33).  Where m is \\y1 ... yj. h A and h is not bound by its first min(j, k)
    binders, C[m] is solvable at step min(j, k) (D31).  The first step's reducts
    are kept per top argument for the row.  kind(route) is C[m]'s kind code for
    an _OPEN route: run on a shifted route's reduct, one step on, where m has no
    free name among the route's binder names, else the plugged run (D34)."""
    ys, h, _ = decompose(m)
    bound = 0
    if ys and h._kind == "var":  # m is head normal: the position of h's binder
        # in ys, counted from 1 and found innermost first, or past ys if h is free
        bound = next((i for i in range(len(ys), 0, -1) if ys[i - 1] == h.name),
                     len(ys) + 1)
    own = _start(*_unwind((), m, _TAIL), fuel, tail=_TAIL)
    memo, by_depth, free = {}, {}, free_vars(m)
    if own[0] is None:  # the states before the boundary, by their depth above _TAIL
        for bucket in own[3].values():
            for first, (_, head, cells) in bucket:
                by_depth.setdefault(cells[2], []).append((first, head, cells))

    def run(c):
        if own[0] is not None:
            return own
        env, _, cells = _unwind((), c, None)
        k = cells[2] if cells else 0
        n = k if k < len(ys) else len(ys)  # min(j, k)
        if n < bound:
            return (SOLVABLE, n, None, None) if n <= fuel else (UNKNOWN, fuel, None, None)
        head = own[2][1]  # the boundary's
        return _start(*_unwind(env, head, cells), fuel, memo, own[1], None,
                      _seen(by_depth, env, cells) if by_depth and k else None)

    def kind(route):
        if type(route) is tuple:
            reduct, names, route = route
            if names.isdisjoint(free):
                code, step, _, first = run(reduct)
                if step < fuel:
                    return code
                if code != DIVERGENT or first:  # C[m] meets the fuel first
                    return UNKNOWN  # else it may repeat its own step 0 (D34)
        return _run(_plug(route, m), fuel)[0]
    return (_KEEP if own[0] is None else _ANSWER[own[0]]), run, kind


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
def _routes(fuel: int) -> tuple:
    """The template and the routes of the context indices at `fuel`, filled a
    prefix at a time by `_fill_routes`: (marks, holes, hole_routes, opens,
    open_routes), marks the template, a code per index, holes and opens the
    indices coded _HOLE and _OPEN in order, and hole_routes and open_routes
    their routes."""
    return bytearray(), array("l"), [], array("l"), []


_NAME_SETS: dict = {}  # the shifted routes' binder names, each set kept once


def _fill_routes(idx: int, fuel: int) -> tuple:
    """The template and the routes at `fuel`, filled through idx
    (docs/DECISIONS.md D30, D34).  Where C_i's start state has the hole at its
    head, C_i is \\xs. [-] N1 ... Nk, coded _HOLE, and is its own route (D28,
    D33).  Elsewhere `solvability` runs C_i with the hole left free.  Where C_i
    settles, reaching a head normal form whose head is not the hole, C_i[m] is
    solvable for every m, and the code is SOLVABLE (D10).  Every other index is
    coded _OPEN.  Where C_i is head normal at step 1 with the hole at the head
    and no hole in the arguments, its route is shifted: (reduct, names, C_i),
    the reduct \\xs'. [-] N1' ... Nk' built from that head form, and the binder
    names of C_i and of the reduct, one set per value; elsewhere it is C_i, to
    be plugged."""
    routes = marks, holes, hole_routes, opens, open_routes = _routes(fuel)
    for i, c in enumerate(_context_terms(len(marks), idx + 1), len(marks)):
        if _unwind((), c, None)[1] is HOLE:
            marks.append(_HOLE)
            holes.append(i)
            hole_routes.append(c)
            continue
        st = solvability(c, fuel)
        if st.is_solvable and st.head.head != HOLE.name:
            marks.append(SOLVABLE)
            continue
        if st.is_solvable and st.steps == 1 and not any(HOLE.name in free_vars(a)
                                                         for a in st.head.args):
            reduct = spine(st.head.binders, HOLE, st.head.args)
            names = _binder_names((c, reduct))
            c = reduct, _NAME_SETS.setdefault(names, names), c
        marks.append(_OPEN)  # after the route, so that all three stay in step
        opens.append(i)
        open_routes.append(c)
    return routes


def _binder_names(terms) -> frozenset:
    """The names of the binders in `terms`."""
    names, todo = set(), list(terms)
    while todo:
        u = todo.pop()
        if u._kind == "abs":
            names.add(u.binder)
            todo.append(u.body)
        elif u._kind == "app":
            todo += u.fun, u.arg
    return frozenset(names)


# ---------------------------------------------------------------------------
# Contextual distance

def p_ctx_bracket(m: LambdaTerm, n: LambdaTerm, prefix: int, fuel: int) -> DistanceValue:
    """Sound bracket around the context-counting distance.

    Certified divergences enter the lower bound; unknown solvability and the
    unenumerated tail enter the upper bound only.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
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
