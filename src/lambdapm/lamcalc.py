"""Lambda terms with named variables, on the node base and cache walks that
resource terms share: parsing, printing, substitution, and a head-reduction
machine that runs normalization and a fuelled solvability semi-decision
with cycle certificates."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import lru_cache


# ---------------------------------------------------------------------------
# Terms

def _cache():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False, slots=True)
class Term:
    """A node of a lambda, a resource or a partial term, never changed once
    built but for its caches, whose values never change once filled: here
    the free names and the closed key's hash.  Terms are equal when their
    hashes and then their keys are; a resource key never equals a partial
    one, and lambda terms keep an equality of their own (D18, D22)."""

    _fv: frozenset = _cache()
    _hash: int = _cache()
    _kind = None  # "var", "abs" or "app", or a partial term's "node" or "bot"

    def __str__(self):
        return self._show()

    def __eq__(self, other):
        return self is other or (type(other).__eq__ is Term.__eq__ and hash(self) == hash(other)
                                 and _same_key(key(self), key(other)))

    def __hash__(self):
        h = self._hash
        if h is None:  # kept here for a variable, which no walk stores
            h = self._hash = _encode(self, (), hash)
        return h


@dataclass(eq=False, slots=True)
class LambdaTerm(Term):
    """A lambda term node; equality walks both terms node by node (D18)."""

    def __eq__(self, other):
        return self is other or (isinstance(other, LambdaTerm) and hash(self) == hash(other)
                                 and _alpha_same(self, other, [], None))

    __hash__ = Term.__hash__

    def _show(self):
        return show(self)


@dataclass(eq=False, slots=True)
class Var(LambdaTerm):
    name: str
    _kind = "var"


@dataclass(eq=False, slots=True)
class Abs(LambdaTerm):
    binder: str
    body: LambdaTerm
    _kind = "abs"


@dataclass(eq=False, slots=True)
class App(LambdaTerm):
    fun: LambdaTerm
    arg: LambdaTerm
    _kind = "app"


def _db_index(name: str, env: tuple):
    """The encoder's de Bruijn identity of a name under `env`, innermost first."""
    return ("b", env.index(name)) if name in env else ("f", name)


class _Scope:
    """One side's binders on the path to the node a depth-first walk is at, kept in
    place: `names` lists them outermost first, with what each name meant before, and
    `levels` maps a name to its innermost binder's index, or to itself once unbound."""

    def __init__(self):
        self.names, self.levels = [], {}

    def at(self, k, binders, name):
        """Keep the first k binders, a node's parent's path, enter its `binders`
        and return the identity of its head `name`: a level, or a free name."""
        names, levels = self.names, self.levels
        while len(names) > k:
            b, levels[b] = names.pop()
        for b in binders:
            names.append((b, levels.get(b, b)))
            levels[b] = len(names) - 1
        return levels.get(name, name)


def _same_heads(scopes, k, xs, ys, x, y):
    """Whether heads x, y below binders xs, ys of one count are one de Bruijn index, and
    the depth below.  While both paths bind the same names, k is None and a name is its
    identity; from the first binders that differ on, `scopes` holds one per side (D25)."""
    if k is None:
        if xs == ys:
            return x == y, None
        k = 0
    if not scopes:
        scopes += _Scope(), _Scope()
    return scopes[0].at(k, xs, x) == scopes[1].at(k, ys, y), k + len(xs)


def key(t: Term):
    """Hashable de Bruijn encoding of a term of any family; alpha-equivalent
    terms share keys."""
    return _encode(t, (), tuple)


def _encode(t: Term, env: tuple, seal):
    """The key of t under `env` folded bottom-up through `seal`: with
    `tuple`, which returns a tuple as it is, the key; with `hash` a hash of
    the key built from the hashes of its parts.  A part with no name of its
    environment free has its closed value, a hash kept in `_hash`; any
    other value is kept for the call by node and environment (D18).  A
    partial node's value is ("n", its binder count, its head's index, its
    arguments' values), and a bottom's is ("bot",) (D22)."""
    hashing = seal is hash
    memo, frames, u = {}, [], t
    top = apps = mkey = left = vals = None  # the open frame, with env
    while True:
        if u._kind == "var":
            v = seal(_db_index(u.name, env))
        else:
            closed = not env or (u._fv or free_vars(u)).isdisjoint(env)
            at = (None if hashing else id(u)) if closed else (id(u), env)
            v = u._hash if at is None else memo.get(at)
            if v is None:  # the node gets a frame, with its parts left
                frames.append((top, apps, env, left, vals, mkey))
                top, apps, mkey, vals, left = u, [], at, [], []
                env, kind = () if closed else env, u._kind
                if kind == "abs":
                    env, left = (u.binder,) + env, [u.body]
                elif kind == "app":
                    while True:  # a spine, down to its head or a closed part
                        apps.append(u)
                        left += (u.arg,) if type(u) is App else u.bag
                        u = u.fun
                        if u._kind != "app" or ((u._fv or free_vars(u)).isdisjoint(env)
                                                if env else hashing and u._hash is not None):
                            left.append(u)
                            break
                elif kind == "node":  # a partial node, its first argument on top
                    env, left = u.binders[::-1] + env, list(reversed(u.args))
        if v is not None:
            if not frames:
                return v
            vals.append(v)
        while not left:  # every part of the frame's node has its value
            kind = top._kind
            if kind == "abs":
                v = seal(("l", vals[0]))
            elif kind == "app":
                v, k = vals[0], 1
                for node in reversed(apps):
                    if type(node) is App:
                        part, k = vals[k], k + 1
                    else:  # a bag's part is the sorted tuple of its items' values
                        n = k + len(node.bag)
                        part, k = tuple(sorted(vals[k:n])), n
                    v = _hash_app(v, part) if hashing else ("a", v, part)
            else:  # a partial node or a bottom
                v = seal(("n", len(top.binders), _db_index(top.head, env), tuple(vals))
                         if kind == "node" else ("bot",))
            if mkey is None:
                top._hash = v
            else:
                memo[mkey] = v
            top, apps, env, left, vals, mkey = frames.pop()
            if not frames:
                return v
            vals.append(v)
        u = left.pop()


def _hash_app(h, part):  # an application's hash from its function's and its part
    return hash(("a", h, part))


def _same_key(a, b) -> bool:
    """a == b for keys, also when they nest deeper than the recursion limit
    that tuple comparison observes."""
    try:
        return a == b
    except RecursionError:
        pairs = [(a, b)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if type(x) is not tuple or type(y) is not tuple:
                if x != y:
                    return False
            elif len(x) != len(y):
                return False
            else:
                pairs.extend(zip(x, y))
        return True


def alpha_eq(a: LambdaTerm, b: LambdaTerm) -> bool:
    return a == b


_NAMES: dict = {}  # name -> frozenset({name}), shared by every variable


def free_vars(t: Term) -> frozenset:
    """The free names of t, computed once per node, on a stack where a node
    waits under its unfilled parts; a part's equal set is shared.  The visit
    fills a resource node's height and neutrality too (D12).  A partial
    node's names are its head's and its arguments' less its binders."""
    if t._fv is not None:
        return t._fv
    todo = [t]
    while todo:
        u = todo.pop()
        if u._fv is not None:
            continue
        kind = u._kind
        parts = ((u,) if kind == "var" else (u.body,) if kind == "abs"
                 else (u.fun, u.arg) if type(u) is App else (u.fun, *u.bag) if kind == "app"
                 else u.args if kind == "node" else ())
        n = len(todo)
        for a in parts:  # a variable is filled here, not pushed, and so is t if it is one
            if a._fv is None:
                if a._kind != "var":
                    todo.append(a)
                    continue
                a._fv = _NAMES.get(a.name) or _NAMES.setdefault(a.name, frozenset((a.name,)))
                if type(a) is not Var:
                    a._height, a._neutral = 1, True
        if len(todo) > n:
            todo.insert(n, u)
            continue
        if kind == "abs":
            fv = u.body._fv
            u._fv = fv - _NAMES[u.binder] if u.binder in fv else fv
            if type(u) is not Abs:
                u._height, u._neutral = u.body._height, False
        elif type(u) is App:
            fv, a = u.fun._fv, u.arg._fv
            u._fv = fv if a <= fv else a if fv <= a else fv | a
        elif kind == "app":
            fv, h, neutral = u.fun._fv, u.fun._height, u.fun._neutral
            for a in u.bag:
                s = a._fv
                if not s <= fv:
                    fv = s if fv <= s else fv | s
                if a._height >= h:
                    h = a._height + 1
                if neutral:  # the item must be normal: neutral below its binders
                    while a._kind == "abs":
                        a = a.body
                    neutral = a._neutral
            u._fv, u._height, u._neutral = fv, h, neutral
        elif kind != "var":  # a partial node or a bottom
            u._fv = (frozenset({u.head}.union(*(a._fv for a in parts)).difference(u.binders))
                     if kind == "node" else frozenset())
    return t._fv


def _fresh(base: str, avoid) -> str:
    cand = base
    n = 0
    while cand in avoid:
        cand = f"{base}{n}"
        n += 1
    return cand


def subst(t: LambdaTerm, name: str, repl: LambdaTerm) -> LambdaTerm:
    """Capture-avoiding substitution t[repl/name].  A subterm in which
    `name` is not free comes back as it is, so t and the result share it
    and its caches."""
    if name not in free_vars(t):
        return t
    return _subst(t, name, repl)


def _subst(t: LambdaTerm, name: str, repl: LambdaTerm) -> LambdaTerm:
    """`subst` on a t with `name` free, whose free names are filled:
    `free_vars` fills a node only after its parts, so every node below t has
    its names too, read off `_fv`."""
    kind = t._kind
    if kind == "var":
        return repl
    if kind == "app":
        args = []
        while t._kind == "app" and name in t._fv:
            a = t.arg
            args.append(_subst(a, name, repl) if name in a._fv else a)
            t = t.fun
        if name in t._fv:
            t = _subst(t, name, repl)
        for a in reversed(args):
            t = App(t, a)
        return t
    fv, body = free_vars(repl), t.body
    if t.binder in fv:
        nb = _fresh(t.binder, fv | body._fv | {name})
        body = subst(body, t.binder, Var(nb))
        free_vars(body)  # the renamed body's nodes are new
        return Abs(nb, _subst(body, name, repl))
    return Abs(t.binder, _subst(body, name, repl))


# ---------------------------------------------------------------------------
# Parsing

IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9']*")


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class _Parser:
    """Recursive-descent reader of the lambda grammar.  Subclasses reuse the
    tokenizer and `atom`, and read their own application syntax in `term`."""

    error_type = ParseError
    make_var, make_abs = Var, Abs

    def __init__(self, text: str, allow_bottom: bool = False):
        self.text = text
        self.pos = 0
        self.allow_bottom = allow_bottom

    def error(self, msg):
        raise self.error_type(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, s: str):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error(f"expected {s!r}")
        self.pos += len(s)

    def ident(self) -> str:
        self.skip_ws()
        m = IDENT.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def term(self) -> LambdaTerm:
        parts = [self.atom()]
        while True:
            c = self.peek()
            if c and (c == "(" or c == "\\" or c == "λ" or c.isalpha()
                      or (self.allow_bottom and self.text.startswith("_|_", self.pos))):
                parts.append(self.atom())
            else:
                break
        return spine((), parts[0], parts[1:])

    def atom(self) -> LambdaTerm:
        c = self.peek()
        if c == "(":
            self.eat("(")
            t = self.term()
            self.eat(")")
            return t
        if c == "\\" or c == "λ":
            self.pos += 1
            binder = self.ident()
            self.eat(".")
            return self.make_abs(binder, self.term())
        self.skip_ws()
        if self.text.startswith("_|_", self.pos):
            if not self.allow_bottom:
                self.error("'_|_' is reserved for partial terms")
            self.pos += 3
            return Var("_|_")
        return self.make_var(self.ident())

    def parse(self):
        try:
            t = self.term()
        except RecursionError:
            raise self.error_type("term nested too deeply", self.pos) from None
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return t


def parse(text: str, strict: bool = False) -> LambdaTerm:
    """Parse a lambda term.  With strict=True, free variables are rejected."""
    t = _Parser(text).parse()
    if strict:
        fv = free_vars(t)
        if fv:
            raise ParseError(f"unbound variables: {sorted(fv)}", 0)
    return t


def show(t: LambdaTerm) -> str:
    """Print t; binder chains and application spines are walked in loops,
    and nested subterms through a stack of the pieces left to print."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        while isinstance(t, Abs):
            out.append(f"\\{t.binder}. ")
            t = t.body
        _, head, args = decompose(t)
        pieces = [head.name] if isinstance(head, Var) else ["(", head, ")"]
        for a in args:
            pieces += (" ", a.name) if isinstance(a, Var) else (" (", a, ")")
        todo.extend(reversed(pieces))
    return "".join(out)


_PRETTY = list(string.ascii_lowercase[23:] + string.ascii_lowercase[:23])


def canonical(t: LambdaTerm) -> LambdaTerm:
    """Alpha-canonical renaming: binders renamed to x,y,z,a,b,... skipping
    free names and the new names of the binders around them.  A base's scan
    of base, base0, base1, ... resumes where the nearest binder around with
    that base stopped, as the names before it are taken (D21 point 4)."""
    resume, scopes = {}, []  # base -> next suffix, -1 for the base; (depth, base, old)

    def fresh(env, depth, taken):
        while scopes and scopes[-1][0] >= depth:  # a binder whose scope is done
            _, base, resume[base] = scopes.pop()
        base = _PRETTY[len(env) % len(_PRETTY)]
        n = old = resume.get(base, -1)
        while (cand := f"{base}{n}" if n >= 0 else base) in taken:
            n += 1
        scopes.append((depth, base, old))
        resume[base] = n + 1
        return cand

    return _rename(t, fresh)


def _rename(t: Term, fresh) -> Term:
    """t, of either family, with each binder renamed to fresh(env, depth,
    taken): `env` maps the old names of the binders around it to their new
    names, `depth` counts those binders, and `taken` holds t's free names
    and those binders' new names (docs/DECISIONS.md D21).  A node waits on a
    stack under its parts, whose renamings land on `done` in order."""
    env, taken, depth = {}, set(free_vars(t)), 0
    done, todo = [], [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # (node, the binder's outer new name): its parts are renamed
            u, outer = u
            if u._kind == "abs":  # the binder leaves the scope
                nb, depth = env.pop(u.binder), depth - 1
                taken.remove(nb)
                if outer is not None:
                    env[u.binder] = outer
                done[-1] = type(u)(nb, done[-1])
            elif type(u) is App:
                done[-2:] = [App(done[-2], done[-1])]
            else:  # a bag node, built by its own class
                k = len(done) - len(u.bag)
                done[k - 1:] = [type(u)(done[k - 1], tuple(done[k:]))]
        elif u._kind == "var":
            done.append(type(u)(env[u.name]) if u.name in env else u)
        elif u._kind == "abs":
            todo += (u, env.get(u.binder)), u.body
            env[u.binder] = nb = fresh(env, depth, taken)
            taken.add(nb)
            depth += 1
        else:
            todo.append((u, None))
            todo += reversed((u.fun, u.arg) if type(u) is App else (u.fun, *u.bag))
    return done[0]


# ---------------------------------------------------------------------------
# Head reduction and solvability

@dataclass(frozen=True)
class HeadForm:
    """lambda x1...xm. h a1...an with a variable head."""

    binders: tuple
    head: str
    args: tuple

    def to_term(self) -> LambdaTerm:
        return spine(self.binders, Var(self.head), self.args)


def spine(binders, head: LambdaTerm, args) -> LambdaTerm:
    """lambda binders. head args, the inverse of `decompose`."""
    for a in args:
        head = App(head, a)
    for b in reversed(binders):
        head = Abs(b, head)
    return head


def decompose(t: LambdaTerm):
    """Split t as (binders, head-part, args) with head-part not an App."""
    binders = []
    while isinstance(t, Abs):
        binders.append(t.binder)
        t = t.body
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return tuple(binders), t, tuple(args)


@dataclass(frozen=True)
class SolvabilityStatus:
    kind: str  # "solvable" | "divergent" | "unknown"
    steps: int = 0
    head: HeadForm | None = None
    certificate: tuple = field(default=())  # (first_index, repeat_index, term)

    @property
    def is_solvable(self):
        return self.kind == "solvable"

    @property
    def is_divergent(self):
        return self.kind == "divergent"

    @property
    def is_unknown(self):
        return self.kind == "unknown"


# ---------------------------------------------------------------------------
# The head-reduction machine (docs/DECISIONS.md D15)
#
# A state lambda env. head stack stands for the term `spine(env[::-1], head,
# args)`: `env` lists its binders innermost first, `head` is not an
# application, and the stack is a linked list of cells, first argument on
# top, each the list [argument, cell below or None, depth, hash].  The hash,
# filled on demand, is that of the arguments from the cell down under `env`.
# Binders grow only while the stack is empty, so a cell is only ever read
# under the environment it was pushed under, and cells below the top are
# shared between the states of a run.

def _unwind(env, t: LambdaTerm, stack):
    """The state of lambda env. t stack: t's application arguments pushed,
    and its binders moved into `env` while the stack is empty.  A head step
    pops the top cell of a state with an abstraction head and unwinds the
    substituted body over the cells below."""
    while True:
        while t._kind == "app":
            stack = [t.arg, stack, stack[2] + 1 if stack else 1, None]
            t = t.fun
        if stack or t._kind != "abs":
            return env, t, stack
        env = (t.binder,) + env
        t = t.body


def _args(stack) -> tuple:
    args = []
    while stack:
        args.append(stack[0])
        stack = stack[1]
    return tuple(args)


def _stack_hash(cell, env) -> int:
    """The hash of the arguments from `cell` down under `env`, filling the
    cells that have none yet."""
    cells = []
    while cell and cell[3] is None:
        cells.append(cell)
        cell = cell[1]
    h = cell[3] if cell else 0
    for c in reversed(cells):
        h = c[3] = hash((_encode(c[0], env, hash), h))
    return h


def _state_hash(env, head, stack) -> int:
    return hash((len(env), _encode(head, env, hash), _stack_hash(stack, env)))


def _alpha_same(s, t, scopes, k) -> bool:
    """Whether s extends to t at depth k of `scopes` (`_same_heads`), each bag of s into
    t's bag at its place, node by node: on terms without bags, alpha-equivalence (D27).
    Differing binders wait in `above` until read, as most pairs differ in kind first."""
    pairs = [(s, t, k, None)]
    while pairs:
        s, t, k, above = pairs.pop()
        if s is t and k is None and not above:
            continue
        kind = s._kind
        if kind != t._kind:
            return False
        if above and kind != "app":
            if kind == "var" and k is None:
                # heads right below the first binders that differ, x and y,
                # match iff both are bound there or neither is and their
                # names agree, so no scope is made (D26 point 7)
                (x,), (y,) = above
                a, b = s.name, t.name
                if (a == x) != (b == y) or a != x and a != b:
                    return False
                continue
            k = _same_heads(scopes, k, *above, None, None)[1]
        if kind == "var":
            if not _same_heads(scopes, k, (), (), s.name, t.name)[0]:
                return False
        elif kind == "abs":
            above = None if k is None and s.binder == t.binder else ((s.binder,), (t.binder,))
            pairs.append((s.body, t.body, k, above))
        elif type(s) is App:
            pairs += (s.arg, t.arg, k, above), (s.fun, t.fun, k, above)
        elif len(s.bag) == len(t.bag) == 1:  # the one embedding: the items wait as a pair
            pairs += (s.bag[0], t.bag[0], k, above), (s.fun, t.fun, k, above)
        else:
            if above:  # the items are compared below the pending binders
                k, above = _same_heads(scopes, k, *above, None, None)[1], None
            if len(s.bag) > len(t.bag) or not _embeds(s.bag, t.bag, scopes, k):
                return False
            pairs.append((s.fun, t.fun, k, above))
    return True


def _embeds(small, big, scopes, k) -> bool:
    """Whether the items of bag `small` extend to distinct items of bag `big`, each pair
    walked at depth k of `scopes` once, when first read: a bipartite matching grown by
    augmenting paths (Kuhn 1955), each searched on an explicit stack (D27)."""
    n, owner = len(big), [None] * len(big)  # owner[j]: the item of small matched to big[j]
    edge = lru_cache(maxsize=None)(lambda i, j: _alpha_same(small[i], big[j], scopes, k))

    def edges(i, seen):  # the unseen items of big that small[i] extends to, free ones first
        return (j for j in sorted(range(n), key=lambda j: owner[j] is not None)
                if j not in seen and edge(i, j))

    for i in range(len(small)):
        seen, took = set(), []  # the path is i, took[0], owner[took[0]], took[1], ...
        search = [edges(i, seen)]
        while search:
            j = next(search[-1], None)
            if j is None:  # a dead end: back up
                search.pop()
                del took[-1:]
            elif owner[j] is None:  # a free item: each item of small on the path moves on
                for a, b in zip([i] + [owner[b] for b in took], took + [j]):
                    owner[b] = a
                break
            else:
                seen.add(j)
                took.append(j)
                search.append(edges(owner[j], seen))
        else:
            return False
    return True


def _same_state(a, b) -> bool:
    """Whether two states stand for alpha-equivalent terms.  The heads and
    then the arguments, top first, are compared by `_alpha_same`; a stack
    tail that both share under equal environments is not walked."""
    (env_a, s, stack_a), (env_b, t, stack_b) = a, b
    if len(env_a) != len(env_b):
        return False
    scopes, k = [], None
    if env_a != env_b:
        k = _same_heads(scopes, 0, env_a[::-1], env_b[::-1], None, None)[1]
    while _alpha_same(s, t, scopes, k):
        if stack_a is stack_b and k is None or not (stack_a and stack_b):
            return stack_a is stack_b  # a shared tail, or both stacks done
        s, stack_a, t, stack_b = stack_a[0], stack_a[1], stack_b[0], stack_b[1]
    return False


def _enter(states: dict, key, step: int, state) -> int:
    """The step of the state filed under `key` that equals `state`; if there
    is none, `state` is filed there and `step` returned."""
    bucket = states.setdefault(key, [])
    for first, other in bucket:
        if _same_state(state, other):
            return first
    bucket.append((step, state))
    return step


def _rebuild(env, head, stack) -> LambdaTerm:
    return spine(env[::-1], head, _args(stack))


# States of the steps before this one are filed by binder count and stack
# depth, which equal states share, and compared in a loop that stops at the
# first difference: most runs end sooner, and hash nothing.  From this step
# on, states are filed by hash.
_HASHED = 8


SOLVABLE, DIVERGENT, UNKNOWN = range(3)  # the kind codes of a run's outcome


def solvability(t: LambdaTerm, fuel: int) -> SolvabilityStatus:
    """Head-reduce up to `fuel` steps; certify divergence on an alpha-repeat.

    Each state is looked up at its own step among the earlier states that
    could equal it, so the repeat found is the first one
    (docs/DECISIONS.md D15).  The status, its head form and its
    certificate are built from the run's outcome (D24)."""
    kind, step, state, first = _run(t, fuel)
    if kind == SOLVABLE:
        env, head, stack = state
        return SolvabilityStatus("solvable", steps=step,
                                 head=HeadForm(env[::-1], head.name, _args(stack)))
    if kind == DIVERGENT:
        return SolvabilityStatus("divergent", steps=step, certificate=(
            first, step, show(canonical(_rebuild(*state)))))
    return SolvabilityStatus("unknown", steps=step)


def _run(t: LambdaTerm, fuel: int):
    """The head-reduction machine on t for up to `fuel` steps; its outcome
    is (kind code, step, final state, step of the state it repeats or
    None)."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    return _start(*_unwind((), t, None), fuel)


def _start(env, head, stack, fuel: int, memo=None, step=0, tail=None, seen=None):
    """`_run`'s outcome from the state lambda env. head stack at `step`, for
    fuel >= 1; a variable head is a head normal form there.  `memo`, a dict its
    caller keeps, holds the first step's reducts by top argument: the
    substitution is a pure function of the head and that argument, which the
    entry keeps alive, so that its id stays its own (docs/DECISIONS.md D28).  A
    run over the cell `tail` stops at the first state whose head is an
    abstraction over `tail` alone, before filing it, with the outcome (None,
    step, state, the states filed); `seen(state, step)` is the step of an
    earlier state filed apart that equals `state`, or `step` (D31)."""
    if head._kind == "var":
        return SOLVABLE, step, (env, head, stack), None
    reduct = None
    if memo is not None:
        a = stack[0]
        hit = memo.get(id(a))
        if hit is None or hit[1] is not head:
            hit = memo[id(a)] = a, head, subst(head.body, head.binder, a)
        reduct = hit[2]
    states = {}  # filing key -> [(step, state)]
    while True:
        state = env, head, stack
        if stack is tail:
            return None, step, state, states
        if step < _HASHED:
            first = _enter(states, (len(env), stack[2]), step, state)
        else:
            if step == _HASHED:  # refile the states so far, all distinct
                held, states = states.values(), {}
                for bucket in held:
                    for s, u in bucket:
                        states.setdefault(_state_hash(*u), []).append((s, u))
            first = _enter(states, _state_hash(*state), step, state)
        if seen is not None and first == step:
            first = seen(state, step)
        if first != step:
            return DIVERGENT, step, state, first
        if step == fuel:
            return UNKNOWN, fuel, state, None
        if reduct is None:
            reduct = subst(head.body, head.binder, stack[0])
        env, head, stack = _unwind(env, reduct, stack[1])
        reduct = None
        step += 1
        if head._kind == "var":
            return SOLVABLE, step, (env, head, stack), None


def normalize(t: LambdaTerm, fuel: int = 1000):
    """Full beta-normal form by leftmost-outermost reduction, or None if it
    takes `fuel` steps or more.  The machine runs a term to head normal form
    and then its arguments, left to right, each to normal form; a frame per
    open argument keeps the normal arguments before it and the cells after."""
    budget = fuel - 1
    if budget < 0:
        return None
    frames = []  # (term, env, head, normal args, cells left, reduced)
    while True:
        env, head, stack = _unwind((), t, None)
        reduced = head._kind == "abs"
        while head._kind == "abs":
            if not budget:
                return None
            budget -= 1
            env, head, stack = _unwind(env, subst(head.body, head.binder, stack[0]),
                                       stack[1])
        done = []
        while not stack:  # the term at this level is normal
            nf = spine(env[::-1], head, done) if reduced else t
            if not frames:
                return nf
            changed = nf is not t
            t, env, head, done, stack, reduced = frames.pop()
            done.append(nf)
            reduced = reduced or changed
        frames.append((t, env, head, done, stack[1], reduced))
        t = stack[0]
