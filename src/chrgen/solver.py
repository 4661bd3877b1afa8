"""Sound, incomplete satisfiability and entailment for primitive constraints.

The store keeps equalities in a union-find over terms (decomposing compound
equalities structurally with occurs check), disequalities against class
representatives, and order constraints in a graph whose cycles through a
strict edge signal inconsistency. Anything the store cannot decide is
treated as satisfiable; incompleteness only ever suppresses rule
generation, it cannot let an invalid rule through.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from operator import is_not
from typing import AbstractSet, Container, Iterable, Mapping, Optional

from .terms import (
    NEGATION,
    ORDER_RELATIONS,
    Compound,
    Const,
    Constraint,
    Term,
    Var,
    constraint_key,
    term_vars,
)


class BlowupExceeded(Exception):
    """DNF expansion exceeded the configured conjunct cap."""


def negate(c: Constraint) -> Constraint:
    """Complementary primitive relation; arguments unchanged."""
    if not c.is_primitive:
        raise ValueError(f"cannot negate user-defined constraint {c!r}")
    return Constraint(NEGATION[c.functor], c.args)


def is_ordered_const(t: Term) -> bool:
    """Whether ``t`` is a numeral, the only constants with an order sort.
    Order relations apply only to variables and these."""
    return isinstance(t, Const) and t.name.lstrip("-").isdigit()


def _const_value(t: Term) -> Optional[int]:
    if is_ordered_const(t):
        return int(t.name)
    return None


# Trail entries come in pairs: a variable, then what to undo for it.
_UNBOUND = object()  # the variable was bound
_SEEN = object()  # the variable was added to ``seen_vars``


@dataclass(slots=True)
class Store:
    """A set of primitive constraints with derived eq-classes and order graph.

    Value semantics: ``assert_constraint`` copies, so stores may be shared
    freely. A depth-first search may instead :meth:`begin_trail` on a store
    of its own and change it in place with :func:`assert_all`, going back to
    an earlier :meth:`mark` with :meth:`undo`.

    Every equality is unified under an occurs check that walks the resolved
    term, so its cost is linear in that term: over a derivation whose list
    spine grows by a cell at every level, the checks add up to a cost
    quadratic in the depth.
    """

    parent: dict[Term, Term] = field(default_factory=dict)
    # These three are replaced, never changed in place, so copies share them.
    strict: frozenset[tuple[Term, Term]] = frozenset()  # a < b
    nonstrict: frozenset[tuple[Term, Term]] = frozenset()  # a <= b
    suspended_neqs: tuple[tuple[Term, Term], ...] = ()
    constraints: list[Constraint] = field(default_factory=list)
    seen_vars: set[Var] = field(default_factory=set)
    trail: Optional[list] = None

    def copy(self) -> "Store":
        return Store(
            dict(self.parent),
            self.strict,
            self.nonstrict,
            self.suspended_neqs,
            list(self.constraints),
            set(self.seen_vars),
        )

    # -- in-place changes with undo ----------------------------------------

    def begin_trail(self) -> None:
        """Record every later change, so that :meth:`undo` can revert it.
        Variable chains are no longer compressed from here on."""
        self.trail = []

    def end_trail(self) -> None:
        """Keep the current state as a store with value semantics."""
        self.trail = None

    def mark(self) -> tuple:
        return (
            len(self.trail),
            len(self.constraints),
            self.suspended_neqs,
            self.strict,
            self.nonstrict,
        )

    def undo(self, mark: tuple) -> None:
        """Revert to the state at ``mark``, which must precede the current
        state on the trail."""
        n_trail, n_constraints, neqs, strict, nonstrict = mark
        trail, parent = self.trail, self.parent
        while len(trail) > n_trail:
            what = trail.pop()
            v = trail.pop()
            if what is _UNBOUND:
                del parent[v]
            else:
                self.seen_vars.discard(v)
        del self.constraints[n_constraints:]
        self.suspended_neqs = neqs
        self.strict = strict
        self.nonstrict = nonstrict

    def _see(self, vs: Iterable[Var]) -> None:
        if self.trail is None:
            self.seen_vars.update(vs)
            return
        seen, trail = self.seen_vars, self.trail
        for v in vs:
            if v not in seen:
                seen.add(v)
                trail.extend((v, _SEEN))

    # -- union-find over terms --------------------------------------------

    def walk(self, t: Term) -> Term:
        """Chase variable links only; compound arguments stay unresolved.
        Only variables ever appear as parent keys."""
        return _walk(self.parent, t, self.trail is None)

    def _bind(self, v: Var, t: Term) -> None:
        self.parent[v] = t
        if self.trail is not None:
            self.trail.extend((v, _UNBOUND))

    def _occurs(self, v: Var, t: Term) -> bool:
        """Whether v occurs in t under the current bindings.

        A plain walk, linear in the resolved term: over a derivation whose
        list spine grows by a cell at every level, the checks add up to a
        cost quadratic in the depth. Variable chains are chased inline and
        not compressed. ``v`` is unbound, so it can only end a chain.
        """
        parent = self.parent
        stack = [t]
        while stack:
            t = stack.pop()
            while t.__class__ is Var:
                if t == v:
                    return True
                t = parent.get(t)  # None once the chain ends
            if t.__class__ is Compound:
                stack.extend(t.args)
        return False

    def find(
        self, t: Term, memo: Optional[dict] = None, names: Optional[Mapping[Var, Var]] = None
    ) -> Term:
        """t with every variable resolved under the bindings, down to the
        unbound representatives, each ``r`` of which becomes ``names[r]`` if
        ``names`` is given, asked for in left-to-right order.

        Iterative, so that a long list spine stays within Python's recursion
        limit. ``memo`` caches resolved compounds by identity across calls
        that pass the same ``names``; subterms that do not change are shared.
        """
        parent = self.parent
        memo = {} if memo is None else memo
        # Each frame: a compound, an iterator over its arguments and the
        # arguments resolved so far. The first frame holds t alone.
        stack: list = [(None, iter((t,)), [])]
        while True:
            u, rest, args = stack[-1]
            for a in rest:
                if a.__class__ is Var:
                    while a in parent:
                        a = parent[a]
                        if a.__class__ is not Var:
                            break
                    else:  # an unbound representative
                        a = a if names is None else names[a]
                if a.__class__ is Compound:
                    hit = memo.get(id(a))
                    if hit is None:
                        stack.append((a, iter(a.args), []))
                        break
                    a = hit[1]
                args.append(a)
            else:
                stack.pop()
                if u is None:
                    return args[0]
                r = u
                if any(map(is_not, args, u.args)):
                    r = Compound(u.functor, tuple(args))
                # The compound is kept with its entry, so that its id is not
                # reused while the memo lives.
                memo[id(u)] = (u, r)
                stack[-1][2].append(r)

    def _union(self, a: Term, b: Term, safe: Container[Var] = ()) -> bool:
        """Merge the classes of a and b; False on clash/occurs failure.

        ``safe`` holds variables linear in the constraint and unseen before
        it: where one stands in the constraint itself, not where a binding
        reaches it, it cannot occur inside the other side, so is not checked.
        """
        parent = self.parent
        compress = self.trail is None
        stack: list = []
        a_own = b_own = True  # each side is a part of the constraint itself
        while True:
            if a in parent:
                a = _walk(parent, a, compress)
                a_own = False
            if b in parent:
                b = _walk(parent, b, compress)
                b_own = False
            # A variable never occurs in another variable: the occurs check
            # is only walked for a compound.
            if isinstance(a, Var):
                if isinstance(b, Var):
                    if a != b:
                        self._bind(a, b)
                elif not (a_own and a in safe) and isinstance(b, Compound) and self._occurs(a, b):
                    return False
                else:
                    self._bind(a, b)
            elif isinstance(b, Var):
                if not (b_own and b in safe) and isinstance(a, Compound) and self._occurs(b, a):
                    return False
                self._bind(b, a)
            elif isinstance(a, Compound) and isinstance(b, Compound):
                if a != b:
                    if a.functor != b.functor or len(a.args) != len(b.args):
                        return False
                    # Reversed, so argument pairs are unified left to right.
                    own = itertools.repeat(a_own), itertools.repeat(b_own)
                    stack.extend(reversed(tuple(zip(a.args, b.args, *own))))
            elif a != b:
                return False  # distinct constants, or constant vs compound
            if not stack:
                return True
            a, b, a_own, b_own = stack.pop()


def _walk(parent: dict, t: Term, compress: bool = True) -> Term:
    """Representative of t under the bindings in ``parent``; with
    ``compress``, the variable chain it followed is shortened."""
    if not isinstance(t, Var):
        return t
    if not compress:
        while t in parent:
            t = parent[t]
        return t
    chain = []
    while t in parent:
        chain.append(t)
        t = parent[t]
    for link in chain[:-1]:
        parent[link] = t
    return t


def _count_vars(t: Term, counts: dict[Var, int]) -> None:
    if isinstance(t, Var):
        counts[t] = counts.get(t, 0) + 1
        return
    if not isinstance(t, Compound):
        return
    stack = list(t.args)
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t] = counts.get(t, 0) + 1
        elif isinstance(t, Compound):
            stack.extend(t.args)


def _assert_inplace(s: Store, c: Constraint) -> bool:
    """Record one constraint in the store without propagating; False on an
    immediately detected inconsistency."""
    s.constraints.append(c)
    left, right = c.args
    rel = c.functor
    counts: dict[Var, int] = {}
    _count_vars(left, counts)
    _count_vars(right, counts)
    if rel == "eq":
        seen = s.seen_vars
        safe = [v for v, n in counts.items() if n == 1 and v not in seen]
        if not s._union(left, right, safe):
            s._see(counts)
            return False
    elif rel == "neq":
        s.suspended_neqs += ((left, right),)
    elif rel in ORDER_RELATIONS:
        a, b = left, right
        if rel == "ge":
            a, b, rel = b, a, "le"
        elif rel == "gt":
            a, b, rel = b, a, "lt"
        ra, rb = s.walk(a), s.walk(b)
        va, vb = _const_value(ra), _const_value(rb)
        if va is not None and vb is not None:
            if rel == "le" and not va <= vb:
                return False
            if rel == "lt" and not va < vb:
                return False
        elif rel == "le":
            s.nonstrict |= {(ra, rb)}
        else:
            s.strict |= {(ra, rb)}
    else:
        raise ValueError(f"not a primitive constraint: {c!r}")
    s._see(counts)
    return True


def assert_constraint(s: Store, c: Constraint) -> Optional[Store]:
    """Extended store, or None when inconsistency is detected."""
    return assert_many(s, (c,))


def assert_many(s: Store, cs: Iterable[Constraint]) -> Optional[Store]:
    """Assert a batch of constraints with one copy and one propagation
    pass; None when inconsistency is detected."""
    s = s.copy()
    if not assert_all(s, cs):
        return None
    return s


def assert_all(s: Store, cs: Iterable[Constraint]) -> bool:
    """Assert a batch of constraints into s itself and propagate; False
    when inconsistency is detected, leaving s to be undone or dropped."""
    for c in cs:
        if not _assert_inplace(s, c):
            return False
    return _propagate(s) is not None


def _propagate(s: Store) -> Optional[Store]:
    """Saturate derived structures; None on detected inconsistency."""
    if not s.strict and not s.nonstrict:
        # No order graph: one disequality pass is the whole fixpoint.
        return s if _reduce_neqs(s) else None
    for _ in range(1000):
        changed = False
        # Re-anchor order edges on current representatives, folding in
        # numeric endpoints.
        strict, nonstrict = set(), set()
        for a, b in s.strict:
            ra, rb = s.walk(a), s.walk(b)
            va, vb = _const_value(ra), _const_value(rb)
            if va is not None and vb is not None:
                if not va < vb:
                    return None
                continue
            if ra == rb:
                return None
            strict.add((ra, rb))
        for a, b in s.nonstrict:
            ra, rb = s.walk(a), s.walk(b)
            va, vb = _const_value(ra), _const_value(rb)
            if va is not None and vb is not None:
                if not va <= vb:
                    return None
                continue
            if ra == rb:
                continue
            nonstrict.add((ra, rb))
        if strict != s.strict or nonstrict != s.nonstrict:
            changed = True
        s.strict, s.nonstrict = frozenset(strict), frozenset(nonstrict)

        # Antisymmetry: a<=b and b<=a force a=b.
        for a, b in list(s.nonstrict):
            if (b, a) in s.nonstrict:
                if not s._union(a, b):
                    return None
                s.nonstrict -= {(a, b), (b, a)}
                changed = True

        # Cycle through a strict edge = unsat. Compute reachability over the
        # combined graph, tracking whether a strict edge was used.
        edges: dict[Term, list[tuple[Term, bool]]] = {}
        for a, b in s.nonstrict:
            edges.setdefault(a, []).append((b, False))
        for a, b in s.strict:
            edges.setdefault(a, []).append((b, True))
        for start in list(edges):
            # BFS from start; reaching start again via any strict edge
            # fails, as does reaching a numeric constant the start constant
            # does not actually precede.
            v_start = _const_value(start)
            seen: dict[Term, bool] = {}
            frontier = [(start, False)]
            while frontier:
                node, any_strict = frontier.pop()
                for nxt, is_strict in edges.get(node, ()):
                    flag = any_strict or is_strict
                    if nxt == start:
                        if flag:
                            return None
                        continue
                    if v_start is not None:
                        v_nxt = _const_value(nxt)
                        if v_nxt is not None and not (
                            v_start < v_nxt if flag else v_start <= v_nxt
                        ):
                            return None
                    if seen.get(nxt) is None or (flag and not seen[nxt]):
                        seen[nxt] = flag
                        frontier.append((nxt, flag))

        if not _reduce_neqs(s):
            return None
        if not changed:
            return s
    return s


def _reduce_neqs(s: Store) -> bool:
    """Decide the disequalities that have become decidable; False when one
    is violated. Undecided ones are kept reduced to their undecided
    frontier, so repeated checks on growing structures stay cheap."""
    still: list[tuple[Term, Term]] = []
    for l, r in s.suspended_neqs:
        reduced = _reduce_neq(s, l, r)
        if reduced is _NEQ_UNSAT:
            return False
        if reduced is not None and reduced not in still:
            still.append(reduced)
    s.suspended_neqs = tuple(still)
    return True


_NEQ_UNSAT = object()

_SAME, _DISTINCT, _UNDECIDED = 0, 1, 2


def _neq_status(s: Store, l: Term, r: Term, frontier: list) -> int:
    """One-pass classification of a term pair under the current bindings.
    Undecided variable-level pairs are appended to ``frontier``, left to
    right; its contents are meaningless once the pair is distinct."""
    status = _SAME
    stack = [(l, r)]
    while stack:
        l, r = stack.pop()
        a, b = s.walk(l), s.walk(r)
        if a is b:
            continue
        # Compounds are taken apart, never compared with ``==``, so each
        # cell of a long spine is visited once.
        if isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return _DISTINCT
            stack.extend(reversed(tuple(zip(a.args, b.args))))
        elif a == b:
            continue
        elif isinstance(a, Var) or isinstance(b, Var):
            frontier.append((a, b))
            status = _UNDECIDED
        else:
            return _DISTINCT  # clashing constants, or constant vs compound
    return status


def _reduce_neq(s: Store, l: Term, r: Term):
    """Advance a suspended disequality to its undecided frontier.

    Returns ``_NEQ_UNSAT`` when both sides are equal under the current
    bindings, None when they are decidably distinct (the disequality is
    discharged), and otherwise an equivalent pair to keep suspended. When
    matching compounds disagree in exactly one undecided argument pair, the
    disequality is equivalent to that pair alone, so the kept pair moves to
    it; long equal spines are then never rescanned.
    """
    frontier: list[tuple[Term, Term]] = []
    status = _neq_status(s, l, r, frontier)
    if status == _SAME:
        return _NEQ_UNSAT
    if status == _DISTINCT:
        return None
    if len(frontier) == 1:
        return frontier[0]
    return (s.walk(l), s.walk(r))


def satisfiable(cs: Iterable[Constraint]) -> bool:
    """Build a store from scratch; False only on detected inconsistency."""
    return assert_many(Store(), cs) is not None


def entails(s: Store, c: Constraint) -> bool:
    """True only if the store entails c (sound, incomplete): asserting the
    negation must yield unsat.

    For an equality that assertion only adds a disequality, and every
    disequality already in the (propagated) store stays undecided, so it
    fails exactly when both sides are the same term under the bindings;
    that is read off without copying the store. A store on a trail takes
    the negation in place and is undone back to where it was.
    """
    if c.functor == "eq":
        return _neq_status(s, *c.args, []) == _SAME
    if s.trail is None:
        return assert_constraint(s, negate(c)) is None
    mark = s.mark()
    entailed = not assert_all(s, (negate(c),))
    s.undo(mark)
    return entailed


def store_from(cs: Iterable[Constraint]) -> Optional[Store]:
    return assert_many(Store(), cs)


def _orient(cs: Iterable[Constraint]) -> frozenset[Constraint]:
    """The constraints with each equality and disequality oriented
    older-variable-first, a variable before any other term, inserted in the
    order given."""
    out = []
    for c in cs:
        if c.functor in ("eq", "neq"):
            l, r = c.args
            if r.__class__ is Var and (l.__class__ is not Var or l.id > r.id):
                c = Constraint(c.functor, (r, l))
        out.append(c)
    return frozenset(out)


def simplify(s: Store) -> frozenset[Constraint]:
    """Equivalent, non-redundant constraint set: drop every constraint
    entailed by the remainder; orient equalities older-variable-first."""
    kept: list[Constraint] = []
    remaining = list(dict.fromkeys(s.constraints))
    for i, c in enumerate(remaining):
        others = kept + remaining[i + 1 :]
        base = store_from(others)
        if base is not None and entails(base, c):
            continue
        kept.append(c)
    return _orient(kept)


def project(s: Store, keep: AbstractSet[Var]) -> frozenset[Constraint]:
    """What the store says about the variables in ``keep``, every other
    variable existentially quantified, as a simplified constraint set that
    serves as its own key.

    Read off the union-find. Each unbound class is named by its first kept
    member in name order; every other kept variable is equated with that
    name or with the term its class is bound to. This solved form is only
    oriented, as :func:`simplify` would: each equality binds a variable
    found nowhere else. The disequalities and order edges follow, resolved
    the same way, and are simplified on their own. Other variables remain
    where these need them, named ``_L1``, ``_L2``, ... in order of first
    occurrence, left to right: through the kept variables' terms in name
    order, the disequalities as asserted, then the order edges, sorted by
    their ends as named after the kept terms. So stores that differ only in
    the names of variables reached through the kept terms project to equal
    sets; a variable first met in a disequality or order edge is named by
    assertion order or by its own name, and can make two such projections
    only variants of each other.
    """
    fresh = (v for v in map(Var, map("_L{}".format, itertools.count(1))) if v not in keep)
    # The name of each unbound representative: its class's first kept
    # member, or else, when first met, the next of _L1, _L2, ... not kept.
    names: dict[Var, Var] = defaultdict(fresh.__next__)
    bound = []
    for v in sorted(keep):
        r = s.walk(v)
        if isinstance(r, Var) and r not in names:
            names[r] = v
        else:
            bound.append(v)
    memo: dict = {}
    # In name order, which is also the order of their constraint keys.
    eqs = [Constraint("eq", (v, s.find(v, memo, names))) for v in bound]
    if not (s.suspended_neqs or s.strict or s.nonstrict):
        return _orient(eqs)
    # The edge sets iterate in hash order; an end not named yet sorts by its
    # own name.
    edges = [("lt", *e) for e in s.strict] + [("le", *e) for e in s.nonstrict]
    edges.sort(
        key=lambda e: constraint_key(Constraint(e[0], tuple(names.get(t, t) for t in e[1:])))
    )
    rest = [
        Constraint(rel, (s.find(a, memo, names), s.find(b, memo, names)))
        for rel, a, b in [*(("neq", *p) for p in s.suspended_neqs), *edges]
    ]
    store = store_from(sorted(set(rest), key=constraint_key))
    if store is None:
        # A projection of a consistent store cannot be inconsistent; be
        # safe anyway.
        return frozenset(eqs + rest)
    return _orient(eqs) | simplify(store)


def ground_row(answer: Iterable[Constraint]) -> Optional[dict[Var, Term]]:
    """The bindings of an answer that equates each of its variables, once,
    with a ground term and says nothing else, such as ``X=0, Y=1``; None
    for any other answer."""
    row: dict[Var, Term] = {}
    for c in answer:
        if c.functor != "eq":
            return None
        v, t = c.args
        if v.__class__ is not Var or v in row:
            return None
        if t.__class__ is not Const and (t.__class__ is not Compound or term_vars(t)):
            return None
        row[v] = t
    return row


def dnf_satisfiable(
    pos: list[frozenset[Constraint]],
    neg: list[frozenset[Constraint]],
    cap: int = 10_000,
) -> bool:
    """Satisfiability of (OR pos) AND (AND_j NOT neg_j).

    In DNF, a conjunct is one positive answer plus one negated literal per
    negated answer; raises BlowupExceeded when there would be more than
    ``cap`` conjuncts, whatever the answers are.

    When every answer is a ground row over one set of variables (see
    :func:`ground_row`), two rows exclude each other unless they are equal,
    so the formula holds exactly when some positive row is not a negated
    one: a subset test, with no store.

    Otherwise the conjuncts are searched depth first, one trailed store per
    positive answer, taking one literal of each negated answer in turn; a
    branch is cut as soon as its store is inconsistent (Davis, Logemann and
    Loveland, 1962). An empty negated answer is NOT(true), so no conjunct is
    satisfiable then. Since the store's bindings, disequalities and order
    edges only grow along a branch, a cut branch has no conjunct the store
    would find consistent.
    """
    count = len(pos)
    for b in neg:
        count *= max(len(b), 1)
        if count > cap:
            raise BlowupExceeded(f"{count} conjuncts exceeds cap {cap}")
    rows = [ground_row(a) for a in itertools.chain(pos, neg)]
    if rows and all(r is not None and r.keys() == rows[0].keys() for r in rows):
        return not set(pos) <= set(neg)
    negated = [[negate(c) for c in b] for b in neg]
    for a in pos:
        s = store_from(a)
        if s is None:
            continue
        if not negated:
            return True
        s.begin_trail()
        # One frame per negated answer entered: the mark to retry from and
        # the literals not yet tried.
        stack = [(s.mark(), iter(negated[0]))]
        while stack:
            mark, literals = stack[-1]
            c = next(literals, None)
            if c is None:
                stack.pop()
                continue
            s.undo(mark)
            if assert_all(s, (c,)):
                if len(stack) == len(negated):
                    return True
                stack.append((s.mark(), iter(negated[len(stack)])))
    return False
