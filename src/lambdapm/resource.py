"""Resource lambda terms: multiset arguments, linear set-valued reduction,
heights, truncations and the resource partial metric."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .distance import (DistanceValue, agreement_level, dyadic, exact,
                       truncation_below)
from .lamcalc import ParseError, _fresh, _Parser, db_index


class ResourceTerm:
    __slots__ = ()

    def __str__(self):
        return show_resource(self)

    def __eq__(self, other):
        return isinstance(other, ResourceTerm) and rkey(self) == rkey(other)

    def __hash__(self):
        return hash(rkey(self))


@dataclass(frozen=True, eq=False)
class RVar(ResourceTerm):
    name: str


@dataclass(frozen=True, eq=False)
class RAbs(ResourceTerm):
    binder: str
    body: ResourceTerm


@dataclass(frozen=True, eq=False)
class RApp(ResourceTerm):
    fun: ResourceTerm
    bag: tuple  # multiset of ResourceTerm, order irrelevant


def rkey(t: ResourceTerm, env=()):
    """De Bruijn encoding with bags canonically sorted; alpha-stable."""
    if isinstance(t, RVar):
        return db_index(t.name, env)
    if isinstance(t, RAbs):
        return ("l", rkey(t.body, (t.binder,) + env))
    return ("a", rkey(t.fun, env), tuple(sorted(rkey(u, env) for u in t.bag)))


def rsize(t: ResourceTerm) -> int:
    if isinstance(t, RVar):
        return 1
    if isinstance(t, RAbs):
        return 1 + rsize(t.body)
    return 1 + rsize(t.fun) + sum(rsize(u) for u in t.bag)


def free_rvars(t: ResourceTerm, bound=frozenset()) -> frozenset:
    if isinstance(t, RVar):
        return frozenset() if t.name in bound else frozenset([t.name])
    if isinstance(t, RAbs):
        return free_rvars(t.body, bound | {t.binder})
    out = free_rvars(t.fun, bound)
    for u in t.bag:
        out |= free_rvars(u, bound)
    return out


# ---------------------------------------------------------------------------
# Parsing / printing:  bags are written <t1, t2>, the empty bag <>

def show_resource(t: ResourceTerm) -> str:
    if isinstance(t, RVar):
        return t.name
    if isinstance(t, RAbs):
        return f"\\{t.binder}. {show_resource(t.body)}"
    f = show_resource(t.fun)
    if isinstance(t.fun, RAbs):
        f = f"({f})"
    inner = ", ".join(sorted(show_resource(u) for u in t.bag))
    return f"{f}<{inner}>"


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

def _occurrences(t: ResourceTerm, name: str) -> int:
    if isinstance(t, RVar):
        return 1 if t.name == name else 0
    if isinstance(t, RAbs):
        return 0 if t.binder == name else _occurrences(t.body, name)
    return _occurrences(t.fun, name) + sum(_occurrences(u, name) for u in t.bag)


def _subst_assignment(t: ResourceTerm, name: str, queue: list) -> ResourceTerm:
    """Replace occurrences of `name` left-to-right by the terms in `queue`."""
    if isinstance(t, RVar):
        return queue.pop(0) if t.name == name else t
    if isinstance(t, RAbs):
        if t.binder == name:
            return t
        avoid = set()
        for u in queue:
            avoid |= free_rvars(u)
        if t.binder in avoid and _occurrences(t.body, name) > 0:
            nb = _fresh(t.binder, avoid | free_rvars(t.body) | {name})
            body = _subst_assignment(t.body, t.binder,
                                     [RVar(nb)] * _occurrences(t.body, t.binder))
            return RAbs(nb, _subst_assignment(body, name, queue))
        return RAbs(t.binder, _subst_assignment(t.body, name, queue))
    fun = _subst_assignment(t.fun, name, queue)
    return RApp(fun, tuple(_subst_assignment(u, name, queue) for u in t.bag))


def canonical_binders(t: ResourceTerm) -> ResourceTerm:
    """Rename binders to depth-indexed names, so alpha-equivalent subterms at
    equal depths become literally equal."""
    avoid = free_rvars(t)

    def name_for(depth):
        cand = f"c{depth}"
        while cand in avoid:
            cand += "'"
        return cand

    def go(u, depth, env):
        if isinstance(u, RVar):
            return RVar(env.get(u.name, u.name))
        if isinstance(u, RAbs):
            nb = name_for(depth)
            return RAbs(nb, go(u.body, depth + 1, {**env, u.binder: nb}))
        return RApp(go(u.fun, depth, env),
                    tuple(go(v, depth, env) for v in u.bag))

    return go(t, 0, {})


def _contract(fun: RAbs, items: tuple) -> set:
    """All ways of distributing the bag over the occurrences of the binder."""
    n = _occurrences(fun.body, fun.binder)
    if n != len(items):
        return set()
    out = set()
    for perm in set(permutations(items)):
        out.add(_subst_assignment(fun.body, fun.binder, list(perm)))
    return out


def _step(t: ResourceTerm):
    """Contract one redex; returns a set of reducts, or None if normal."""
    if isinstance(t, RVar):
        return None
    if isinstance(t, RAbs):
        inner = _step(t.body)
        if inner is None:
            return None
        return {RAbs(t.binder, u) for u in inner}
    if isinstance(t.fun, RAbs):
        return _contract(t.fun, t.bag)
    inner = _step(t.fun)
    if inner is not None:
        return {RApp(u, t.bag) for u in inner}
    items = list(t.bag)
    for i, u in enumerate(items):
        inner = _step(u)
        if inner is not None:
            out = set()
            for v in inner:
                out.add(RApp(t.fun, tuple(items[:i] + [v] + items[i + 1:])))
            return out
    return None


def is_normal(t: ResourceTerm) -> bool:
    return _step(t) is None


def resource_reduce(t: ResourceTerm) -> frozenset:
    """Full normalization under the linear rule; always terminates."""
    done, todo = set(), [t]
    while todo:
        cur = todo.pop()
        nxt = _step(cur)
        if nxt is None:
            done.add(cur)
        else:
            todo.extend(nxt)
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
    """1 + tallest bag element; a term with all-empty bags has height 1."""
    _, _, bags = normal_view(t)
    sub = [height(u) for b in bags for u in b]
    return 1 + max(sub, default=0)


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
    """Cut below height n: heads at height n keep their arity, bags emptied."""
    if n <= 0:
        return EMPTY_MARK
    binders, head, bags = normal_view(t)
    if n == 1:
        return spine(binders, RVar(head), [() for _ in bags])
    return spine(binders, RVar(head),
                 [tuple(truncate(u, n - 1) for u in b) for b in bags])


def r_metric(t: ResourceTerm, u: ResourceTerm) -> DistanceValue:
    """2**-n for the deepest n with both heights >= n and equal truncations."""
    return exact(dyadic(agreement_level(t, u, height, truncate)))


def r_leq(t: ResourceTerm, u: ResourceTerm) -> bool:
    """The order induced by r: t is a full truncation of u."""
    return truncation_below(t, u, height, truncate)


def bag_leq(t: ResourceTerm, u: ResourceTerm) -> bool:
    """Bag-extension order: context closure of  <>  <=  <t1,...,tn>."""
    return _bag_leq(t, u, (), ())


def _bag_leq(t, u, envt, envu):
    if isinstance(t, RVar) and isinstance(u, RVar):
        return db_index(t.name, envt) == db_index(u.name, envu)
    if isinstance(t, RAbs) and isinstance(u, RAbs):
        return _bag_leq(t.body, u.body, (t.binder,) + envt, (u.binder,) + envu)
    if isinstance(t, RApp) and isinstance(u, RApp):
        if not _bag_leq(t.fun, u.fun, envt, envu):
            return False
        return _bag_embeds(t.bag, u.bag, envt, envu)
    return False


def _bag_embeds(small, big, envt, envu):
    """Multiset embedding: each element of `small` matches a distinct element."""
    if len(small) > len(big):
        return False
    if not small:
        return True
    first, rest = small[0], small[1:]
    for i, cand in enumerate(big):
        if _bag_leq(first, cand, envt, envu):
            if _bag_embeds(rest, big[:i] + big[i + 1:], envt, envu):
                return True
    return False
