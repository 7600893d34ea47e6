"""Resource lambda terms: multiset arguments, linear set-valued reduction,
heights, truncations and the resource partial metric."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice, permutations
from typing import NamedTuple

from .distance import DistanceValue, dyadic, exact
from .lamcalc import (ParseError, Term, _alpha_same, _cache, _fresh, _hash_app, _Parser,
                      _rename, _same_key, free_vars, key)
from .limits import within_cap


@dataclass(eq=False, slots=True)
class ResourceTerm(Term):
    """A resource term node; it also caches whether it is neutral, its
    structural height and the keys of its truncations (docs/DECISIONS.md
    D8, D12, D20); it is equal by key."""

    _neutral: bool = _cache()
    _height: int = _cache()
    _levels: dict = _cache()  # k -> key(truncate(t, k)), as asked (_level)

    def _show(self):
        return show_resource(self)


@dataclass(eq=False, slots=True)
class RVar(ResourceTerm):
    name: str
    _kind = "var"


@dataclass(eq=False, slots=True)
class RAbs(ResourceTerm):
    binder: str
    body: ResourceTerm
    _places: tuple = _cache()  # the plan of the body for the binder (_Plan)
    _kind = "abs"


@dataclass(eq=False, slots=True)
class RApp(ResourceTerm):
    fun: ResourceTerm
    bag: tuple  # multiset of ResourceTerm, order irrelevant
    _kind = "app"


def rsize(t: ResourceTerm) -> int:
    """The number of nodes of t as a tree, counted on an explicit stack."""
    n, todo = 0, [t]
    while todo:
        u = todo.pop()
        n += 1
        if u._kind == "abs":
            todo.append(u.body)
        elif u._kind == "app":
            todo.append(u.fun)
            todo.extend(u.bag)
    return n


free_rvars = free_vars
rkey = key  # a bag's part of the key is the sorted tuple of its items' keys


def gen_height(t: ResourceTerm) -> int:
    """Structural height, filled with the free names; it agrees with
    `height` on normal terms."""
    if t._height is None:
        free_rvars(t)
    return t._height


# ---------------------------------------------------------------------------
# Parsing / printing:  bags are written <t1, t2>, the empty bag <>

def show_resource(t: ResourceTerm) -> str:
    """Print t; binder chains and spines are walked in loops, and a spine
    waits on a stack under its parts, whose strings land on `done` in order."""
    done, todo = [], [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # (binders, head, bags): every part is printed
            binders, head, bags = u
            k = len(done) - 1 - sum(map(len, bags))
            parts = iter(done[k:])
            del done[k:]
            f = next(parts)
            done.append("".join([binders, f"({f})" if type(head) is RAbs else f] + [
                "<" + ", ".join(sorted(islice(parts, len(b)))) + ">" for b in bags]))
            continue
        binders, bags = [], []
        while type(u) is RAbs:
            binders.append(f"\\{u.binder}. ")
            u = u.body
        while type(u) is RApp:
            bags.append(u.bag)
            u = u.fun
        if not bags:  # u is a variable
            done.append("".join(binders) + u.name)
            continue
        todo.append(("".join(binders), u, bags[::-1]))
        for bag in bags:
            todo.extend(reversed(bag))
        todo.append(u)
    return done[0]


class ResourceParseError(ParseError):
    pass


class _ResourceParser(_Parser):
    """The lambda tokenizer and atoms, with `<...>` bags for application."""

    error_type = ResourceParseError
    make_var, make_abs = RVar, RAbs

    def term(self) -> ResourceTerm:
        t = self.atom()
        while self.peek() == "<":
            self.pos += 1
            items = []
            if self.peek() == ">":
                self.pos += 1
            else:
                while True:
                    items.append(self.term())
                    c = self.peek()
                    if c not in (",", ">"):
                        self.error("expected ',' or '>'")
                    self.pos += 1
                    if c == ">":
                        break
            t = RApp(t, tuple(items))
        return t


def parse_resource(text: str) -> ResourceTerm:
    return _ResourceParser(text).parse()


# ---------------------------------------------------------------------------
# Linear reduction

def canonical_binders(t: ResourceTerm) -> ResourceTerm:
    """Rename binders to depth-indexed names, c<depth> plus primes skipping
    free names, so alpha-equivalent subterms at equal depths become
    literally equal."""
    return _rename(t, _depth_name)


def _depth_name(env, depth, taken):
    cand = f"c{depth}"
    while cand in taken:
        cand += "'"
    return cand


class _Plan(NamedTuple):
    """How to rebuild a body with the free occurrences of `name` replaced,
    found by one walk (docs/DECISIONS.md D8, D17).  The occurrences are
    numbered, as places, in the order the items are placed: the function
    before its bag, bag items in tuple order.

    `groups` and `heads` are D8's: the group of each place, and the places
    in head position.  The bare items of one bag form one group, since
    their order in it does not matter; every other occurrence is a group
    of its own.  A bag is told apart by the visit that meets it, not by its
    node, since one node may sit at two places of the body.  `spines[i]`
    holds the sizes of the bags applied to head place `heads[i]`, innermost
    first (D29).

    `steps` rebuild the nodes in which `name` is free, in post-order, each
    into its own slot of a value list whose tail holds the nodes kept as
    they are.  A place is (0, slot, place), an application (1, slot, fun,
    items), and an abstraction (2, slot, node, body, lo, steps, his), with
    `lo` its first place and the steps of its body in a list of their own,
    which a renamed binder skips.  Children are given by their slots.
    `his[i]` is the end of step i's place range.  It never decreases along
    a list, so the steps whose places reach past a prefix of the queue are
    a suffix of it."""
    groups: list
    heads: list
    spines: list
    steps: list
    his: list
    template: list  # the value list, its slots empty and the kept nodes set
    root: int
    name: str


_END = object()  # marks a node whose children are done
_SPINES = {}  # one tuple per distinct spine of bag sizes, shared by the plans


def _places_of(fun: RAbs) -> _Plan:
    """The plan of fun's body for its binder, compiled once per abstraction."""
    plan = fun._places
    if plan is None:
        plan = fun._places = _compile(fun.body, fun.binder)
    return plan


def _occurrences(body: ResourceTerm, name: str) -> int:
    """The free occurrences of `name` in `body`, the places of its plan,
    counted without compiling one: a walk that enters only the subterms in
    which `name` is free."""
    free_rvars(body)  # fills the free names of every node below, read as _fv
    count, todo = 0, [body]
    while todo:
        t = todo.pop()
        if name in t._fv:
            if t._kind == "var":
                count += 1
            elif t._kind == "abs":
                todo.append(t.body)
            else:
                todo.append(t.fun)
                todo += t.bag
    return count


def _compile(body: ResourceTerm, name: str) -> _Plan:
    """The plan of `body` for `name`, in one walk on an explicit stack that
    enters only the subterms in which `name` is free."""
    groups, heads, spines, bag_group = [], [], [], {}
    steps, his, outer, kept, refs = [], [], [], [], []
    visits = slots = 0
    free_rvars(body)  # fills the free names of every node below, read as _fv
    if name not in body._fv:
        return _Plan(groups, heads, spines, steps, his, [body], -1, name)
    # (subterm, visit of the bag holding it, sizes of the bags applied to it)
    todo = [(body, None, ())]
    while todo:
        t, bag, head = todo.pop()
        if bag is _END:  # refs ends with the slots of t's children entered
            if t._kind == "app":
                kids = []
                for u in reversed((t.fun,) + t.bag):
                    if name in u._fv:
                        kids.append(refs.pop())
                    else:
                        kept.append(u)
                        kids.append(-len(kept))
                kids.reverse()
                step = (1, slots, kids[0], tuple(kids[1:]))
            else:  # here head holds the abstraction's first place
                step = (2, slots, t, refs.pop(), head, steps, his)
                steps, his = outer.pop()
        elif t._kind == "var":
            p = len(groups)
            if head:
                heads.append(p)
                spines.append(_SPINES.setdefault(head, head))
            groups.append(p if bag is None else bag_group.setdefault(bag, p))
            step = (0, slots, p)
        elif t._kind == "abs":
            outer.append((steps, his))
            steps, his = [], []
            todo.append((t, _END, len(groups)))
            todo.append((t.body, None, ()))
            continue
        else:
            visits += 1
            todo.append((t, _END, ()))
            for u in reversed(t.bag):
                if name in u._fv:
                    todo.append((u, visits, ()))
            if name in t.fun._fv:
                todo.append((t.fun, None, (len(t.bag),) + head))
            continue
        steps.append(step)
        his.append(len(groups))
        refs.append(slots)
        slots += 1
    return _Plan(groups, heads, spines, steps, his, [None] * slots + kept[::-1],
                 refs[0], name)


def _build(plan: _Plan, queue, base: int = 0, avoid=None) -> ResourceTerm:
    """The body of `plan` with queue[base:] put in its places, every step
    built."""
    vals = plan.template[:]
    _run(plan, plan.steps, plan.his, vals, 0, queue, base, avoid)
    return vals[plan.root]


def _run(plan, steps, his, vals, j, queue, base, avoid):
    """Build into `vals` the steps whose places reach past the first j,
    with queue[base + p] at place p.  The other steps keep the values
    built for an earlier queue that agrees on those j places (D17).  A new
    application stores its hash, as `_hash_app` computes it.  An
    abstraction renames its binder when it would capture a free name of
    the items not yet placed, as D8 states; `avoid[i]` holds the free
    names of queue[i:], built at the first abstraction.  Returns `avoid`."""
    for i in range(bisect_right(his, j), len(steps)):
        s = steps[i]
        kind = s[0]
        if kind == 1:
            f, refs = vals[s[2]], s[3]
            if len(refs) == 1:
                u = vals[refs[0]]
                v = RApp(f, (u,))
                v._hash = _hash_app(f._hash or hash(f), (u._hash or hash(u),))
            else:
                bag, part = [], []
                for r in refs:
                    bag.append(u := vals[r])
                    part.append(u._hash or hash(u))
                part.sort()
                v = RApp(f, tuple(bag))
                v._hash = _hash_app(f._hash or hash(f), tuple(part))
        elif kind == 0:
            v = queue[base + s[2]]
        else:
            node, lo = s[2], base + s[4]
            if avoid is None:
                avoid = _avoid(queue)
            rest = avoid[lo]
            if node.binder in rest:
                nb = _fresh(node.binder, rest | free_rvars(node.body) | {plan.name})
                own = _places_of(node)
                body = _build(own, [RVar(nb)] * len(own.groups))
                v = RAbs(nb, _build(_compile(body, plan.name), queue, lo, avoid))
            else:
                avoid = _run(plan, s[5], s[6], vals, j, queue, base, avoid)
                v = RAbs(node.binder, vals[s[3]])
        vals[s[1]] = v
    return avoid


def _avoid(queue) -> list:
    """avoid[i]: the free names of queue[i:]."""
    avoid = [frozenset()] * (len(queue) + 1)
    for i in range(len(queue) - 1, -1, -1):
        fv = free_rvars(queue[i])
        avoid[i] = avoid[i + 1] if fv <= avoid[i + 1] else avoid[i + 1] | fv
    return avoid


def _assignments(groups: list, members: list):
    """Each distinct assignment of the items to the places, once: a queue
    whose item i goes to place i of the plan (`_places_of`).  `members[c]`
    lists the items of alpha class c as given; the places of a class
    receive its members in that order.  Within a group the classes are
    placed in ascending order, so a group's multiset is yielded once, not
    once per ordering.  Queues that share a prefix come together."""
    n = len(groups)
    if len(members) == n == len(set(groups)):
        # distinct items into groups of one place: the assignments are the
        # permutations, which itertools yields faster than the search below
        yield from permutations([m[0] for m in members])
        return
    last = {}
    prev = []  # the previous place of the same group, or -1
    for p, g in enumerate(groups):
        prev.append(last.get(g, -1))
        last[g] = p
    left = [len(m) for m in members]
    classes = len(members)
    choice = [-1] * n
    p = 0
    while p >= 0:
        c = choice[p]
        if c >= 0:
            left[c] += 1
            c += 1
        else:
            c = choice[prev[p]] if prev[p] >= 0 else 0
        while c < classes and not left[c]:
            c += 1
        if c == classes:
            choice[p] = -1
            p -= 1
            continue
        choice[p] = c
        left[c] -= 1
        if p < n - 1:
            p += 1
            continue
        dealt = [0] * classes
        queue = []
        for c in choice:
            queue.append(members[c][dealt[c]])
            dealt[c] += 1
        yield queue


def _contract(fun: RAbs, items: tuple) -> list:
    """The reducts of (\\x. body)<items> that can reach a normal form: the
    items distributed over the free occurrences of x, one reduct per
    distinct assignment (docs/DECISIONS.md D8) that puts no abstraction at
    a head place whose bags it cannot consume (D29).  Raises CapExceeded
    before building any when there are more than LAMBDA_PM_CAP assignments.
    A reduct rebuilds only the steps whose places reach past the prefix its
    queue shares with the previous one built, and shares the others with
    the reducts before it (D17)."""
    plan = _places_of(fun)
    groups = plan.groups
    if len(groups) != len(items):
        return []
    if not items:
        return [fun.body]
    by_class = {}
    for u in items:
        by_class.setdefault(u, []).append(u)
    queues = within_cap(_assignments(groups, list(by_class.values())),
                        "contraction has more than {cap} distinct reducts, "
                        "exceeds cap {cap} (LAMBDA_PM_CAP)")
    # a reduct is normal when the body and the items are, unless an
    # abstraction lands in head position
    normal = _is_normal(fun.body) and all(map(_is_normal, items))
    checks = list(zip(plan.heads, plan.spines))
    steps, his, root = plan.steps, plan.his, plan.root
    dead = {}  # (id(item), sizes) -> the created redex reduces to nothing
    vals, out, prev = plan.template[:], [], ()
    for queue in queues:
        created = False
        for p, sizes in checks:
            u = queue[p]
            if type(u) is RAbs:
                created = True
                k = (id(u), sizes)
                d = dead.get(k)
                if d is None:
                    d = dead[k] = _dead_at(u, sizes)
                if d:
                    break
        else:
            j = 0  # the length of the prefix shared with the previous queue
            for a, b in zip(queue, prev):
                if a is not b:
                    break
                j += 1
            _run(plan, steps, his, vals, j, queue, 0, None)
            prev = queue
            r = vals[root]
            out.append(r)
            if normal and not created:
                while type(r) is RAbs:
                    r = r.body
                r._neutral = True
    return out


def _dead_at(fun: RAbs, sizes: tuple) -> bool:
    """True when fun, applied to bags of these sizes, innermost first,
    makes a redex whose bag size is not its binder's degree.  A term that
    holds it reduces to nothing, since no step elsewhere changes either
    number (docs/DECISIONS.md D29).  The first degree is read off fun's own
    plan, which contracting the redex uses when it lives."""
    if len(_places_of(fun).groups) != sizes[0]:
        return True
    t = fun.body
    for n in sizes[1:]:
        if type(t) is not RAbs:
            return False
        if _occurrences(t.body, t.binder) != n:
            return True
        t = t.body
    return False


def _is_normal(t: ResourceTerm) -> bool:
    """No redex in t: below its binders, which are walked in a loop, t is
    neutral, a variable applied to bags of normal terms (D12)."""
    while type(t) is RAbs:
        t = t.body
    if t._neutral is None:
        free_rvars(t)
    return t._neutral


def _step(t: ResourceTerm):
    """Contract the leftmost-outermost redex; returns the list of reducts,
    which may repeat, or None if t is normal.  The walk down to the redex
    runs in a loop that keeps each binder, each spine of outer bags and each
    bag slot it passes, and the reducts are rebuilt outward through them."""
    if _is_normal(t):
        return None
    path = []  # (0, binder), (1, bag) or (2, function, items before, items after)
    while True:
        while type(t) is RAbs:
            path.append((0, t.binder))
            t = t.body
        while type(t.fun) is not RAbs and not _is_normal(t.fun):
            path.append((1, t.bag))
            t = t.fun
        if type(t.fun) is RAbs:
            out = _contract(t.fun, t.bag)
            break
        items = t.bag  # t.fun is neutral, so an item holds the redex
        i = next(i for i, u in enumerate(items) if not _is_normal(u))
        path.append((2, t.fun, items[:i], items[i + 1:]))
        t = items[i]
    for c in reversed(path):
        if c[0] == 0:
            out = [RAbs(c[1], u) for u in out]
        elif c[0] == 1:
            out = [RApp(u, c[1]) for u in out]
        else:
            out = [RApp(c[1], c[2] + (u,) + c[3]) for u in out]
    return out


def is_normal(t: ResourceTerm) -> bool:
    """True if t has no redex."""
    return _is_normal(t)


def resource_reduce(t: ResourceTerm) -> frozenset:
    """Full normalization under the linear rule; always terminates, as each
    step shrinks the term.  Each term that is not normal is reduced once,
    however often it is reached."""
    done, todo, queued = set(), [t], set()
    while todo:
        cur = todo.pop()
        nxt = _step(cur)
        if nxt is None:
            done.add(cur)
            continue
        for u in nxt:
            v = u
            while type(v) is RAbs:  # _is_normal(u), read inline
                v = v.body
            if v._neutral if v._neutral is not None else _is_normal(v):
                done.add(u)
            elif u not in queued:
                queued.add(u)
                todo.append(u)
    return frozenset(done)


# ---------------------------------------------------------------------------
# Normal forms: heights, truncations, the metric r

def normal_view(t: ResourceTerm):
    """Split a term into (binders, head, bags); raises ValueError unless the
    head is a variable, as it is in a normal term."""
    binders = []
    while isinstance(t, RAbs):
        binders.append(t.binder)
        t = t.body
    bags = []
    while isinstance(t, RApp):
        bags.append(t.bag)
        t = t.fun
    if not isinstance(t, RVar):
        raise ValueError("term is not in normal form")
    bags.reverse()
    return tuple(binders), t.name, tuple(bags)


def spine(binders, head: ResourceTerm, bags) -> ResourceTerm:
    """lambda binders. head bags, each bag a tuple; `normal_view` inverts it
    for a variable head."""
    for items in bags:
        head = RApp(head, items)
    for b in reversed(binders):
        head = RAbs(b, head)
    return head


def height(t: ResourceTerm) -> int:
    """1 + tallest bag element; a term with all-empty bags has height 1.
    Raises ValueError unless t is normal."""
    while type(t) is RAbs:  # an abstraction has its body's height
        t = t.body
    if not _is_normal(t):
        raise ValueError("term is not in normal form")
    return gen_height(t)


class EmptyMark:
    """The height-0 truncation every term agrees on."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EmptyMark"


EMPTY_MARK = EmptyMark()


def truncate(t: ResourceTerm, n: int):
    """Cut below height n: heads at height n keep their arity, bags emptied.
    A spine waits on a stack under its bag items, whose truncations land on
    `done` in order."""
    if n <= 0:
        return EMPTY_MARK
    done, todo = [], [(t, n)]
    while todo:
        u, k = todo.pop()
        if k == 0:  # u is (binders, head, bags), every bag item cut
            binders, head, bags = u
            at = len(done) - sum(map(len, bags))
            items = iter(done[at:])
            del done[at:]
            done.append(spine(binders, RVar(head),
                              [tuple(islice(items, len(b))) for b in bags]))
            continue
        binders, head, bags = normal_view(u)
        if k == 1:
            done.append(spine(binders, RVar(head), [()] * len(bags)))
            continue
        todo.append(((binders, head, bags), 0))
        for b in reversed(bags):
            todo.extend((v, k - 1) for v in reversed(b))
    return done[0]


def _level(t: ResourceTerm, k: int):
    """key(truncate(t, k)) for a normal t, built on first ask and kept in
    t's `_levels` by k (docs/DECISIONS.md D20)."""
    levels = t._levels
    if levels is None:
        levels = t._levels = {}
    v = levels.get(k)
    if v is None:
        v = levels[k] = key(truncate(t, k))
    return v


def r_metric(t: ResourceTerm, u: ResourceTerm) -> DistanceValue:
    """2**-n for the deepest n with both heights >= n and equal truncations.

    Truncations nest, so the levels that agree are a prefix, and the first
    level that differs is found by bisection, which asks for O(log h)
    levels (D20)."""
    h = min(height(t), height(u))
    level = bisect_left(range(1, h + 1), True,
                        key=lambda k: not _same_key(_level(t, k), _level(u, k)))
    return exact(dyadic(level))


def r_leq(t: ResourceTerm, u: ResourceTerm) -> bool:
    """The order induced by r: t is a full truncation of u.  A normal t is
    its own truncation at its height h, so this compares level h (D20)."""
    h = height(t)
    return height(u) >= h and _same_key(_level(u, h), _level(t, h))


def bag_leq(t: ResourceTerm, u: ResourceTerm) -> bool:
    """Bag-extension order: context closure of  <>  <=  <t1,...,tn>, decided
    by the comparison walk with its bags matched (docs/DECISIONS.md D27)."""
    return _alpha_same(t, u, [], None)
