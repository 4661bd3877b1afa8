"""Tabled CLP evaluation with call subsumption and a depth bound, plus a
classical depth-first evaluator used when tabling is off.

Each resolution node (remaining user-defined atoms plus the branch's
primitive store) is registered as a table entry. Before expanding a node,
the table is scanned for an earlier entry whose call is more general; if one
is found the node suspends and consumes that entry's answers instead of
unfolding. Answers are propagated through a worklist until the forest
saturates.

Resolution binds by asserting head-argument equalities into the branch
store rather than by substitution, so derivation branches mirror the
constraint-accumulation style of CLP derivation trees. An answer is
recorded only where it can be used: at the nearest ancestor-or-self of the
leaf or consumer that is a registered producer (only producers can ever
have consumers), or else at the root. It is projected once, onto that
entry's variables, by :func:`solver.project`, which reads the branch
store's union-find and names the locals reached through the entry
variables' terms canonically, so an answer is its own key. A producer's
answer is lifted to the next such entry up in the same way.
A clause is renamed apart by a function compiled from it once and kept
on the clause object (:func:`_compile_renamer`).

A caller that keeps answer tables (``evaluate``'s ``tables``) has a goal
decided from the table of its user atoms, evaluated alone once, to
completion: each answer consistent with the goal's primitives is conjoined
with them and projected onto the goal's variables. Only atoms that reach
recursion, or whose table was cut, get a forest per goal.

Where every answer of a table binds each atom variable to a ground term,
as fact tables give (``X=0, Y=1, Z=1``), the table is also a set of rows,
read the way the finite-domain rule generators of Apt and Monfroy (CP 1999)
and Abdennadher and Rigotti (CP 2000) read a constraint: as its tuples. A
goal whose primitives are equalities and disequalities over the row
variables and ground terms, or orders between integers, is then decided
without a store, by ANDing one bit mask of rows per primitive, each
computed once per table. Every other goal is decided on a store.

The classical evaluator keeps the resolvent as an ordered literal sequence
with left-to-right selection: leading primitive constraints are moved into
the store, then the leftmost atom is replaced in place by a clause body.
Constraints written after an atom therefore reach the store only once that
atom is fully resolved, so recursive calls are unfolded without them and
goals that a tabled evaluation finitely fails may run into the depth bound
here. Where such a goal's branch is cut only to probe whether its tree is
finite, the probe ends a path at a state that repeats an ancestor's.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from . import solver
from .program import Clause, Goal, Program, format_constraint, format_constraints
from .solver import Store, assert_all, assert_many, entails, is_ordered_const, store_from
from .terms import (
    ORDER_RELATIONS,
    PRIMITIVE_RELATIONS,
    Compound,
    Const,
    Constraint,
    Subst,
    Var,
    canonical_key,
    constraint_key,
    constraints_vars,
    flat_key,
    fresh_var,
    match_into,
    match_subst_constraint,
    match_subst_constraints,
    renaming_for,
    term_vars,
)

Answer = frozenset  # of primitive Constraint

ANSWER_CAP = 64  # distinct answers per call before an evaluation is cut
STEP_CAP = 200_000  # search steps per evaluation or probe before it is cut


@dataclass(frozen=True)
class Fails:
    pass


@dataclass(frozen=True)
class Answers:
    answers: tuple[Answer, ...]


@dataclass(frozen=True)
class DepthExceeded:
    pass


Outcome = object  # Fails | Answers | DepthExceeded

FAILS = Fails()
DEPTH_EXCEEDED = DepthExceeded()


@dataclass
class _Entry:
    idx: int
    atoms: tuple[Constraint, ...]  # sorted, leftmost selected first
    store: Optional[Store]  # None once no longer needed, see _expand
    depth: int
    atom_vars: frozenset[Var]
    # Store variables added by the resolution step that made this entry
    # (for the root: those of the goal's primitives). The entry's store
    # variables are these plus its parent's.
    new_vars: frozenset[Var]
    functor_key: tuple = ()
    # A call can only subsume others if the matcher, which binds atom
    # variables alone, can cover all of its store variables.
    subsumable: bool = field(init=False, default=False)
    # Most entries get no answers or consumers: an ordered set, a list on first use.
    answers: dict[Answer, None] = ()
    # (consumer entry, sigma mapping producer vars to consumer terms)
    consumers: list[tuple["_Entry", Subst]] = ()
    parent: Optional["_Entry"] = None
    # Where this entry's answers are recorded: itself if it is a producer
    # (a subsumable entry with atoms) or the root, else its parent's target.
    target: "_Entry" = field(init=False)

    def __post_init__(self):
        # Store variables only grow down a derivation, so the test needs no
        # union; it usually fails at the entry's own step.
        e = self
        while e is not None and e.new_vars <= self.atom_vars:
            e = e.parent
        self.subsumable = e is None
        producer = self.subsumable and bool(self.atoms)
        self.target = self if producer or self.parent is None else self.parent.target

    @cached_property
    def store_vars(self) -> frozenset[Var]:
        """Variables of the entry's store constraints; built on demand,
        since deep derivations that never answer or subsume need none."""
        chain = []
        e = self
        while e is not None and "store_vars" not in e.__dict__:
            chain.append(e)
            e = e.parent
        acc = e.store_vars if e is not None else frozenset()
        for e in reversed(chain):
            acc = acc | e.new_vars
            e.__dict__["store_vars"] = acc
        return acc

    @cached_property
    def variables(self) -> frozenset[Var]:
        return self.atom_vars | self.store_vars


class Evaluation:
    """One tabled evaluation forest for a single goal."""

    def __init__(
        self,
        program: Program,
        goal: Goal,
        depth: int = 200,
        answer_cap: int = ANSWER_CAP,
        trace: Optional[Callable[[str], None]] = None,
    ):
        self.program = program
        self.depth = depth
        self.answer_cap = answer_cap
        self.trace = trace
        self.n_entries = 0
        # Entries that may subsume later calls, by functor key, oldest first.
        self.producers: dict[tuple, list[_Entry]] = {}
        self.depth_exceeded = False
        self.cap_exceeded = False
        self.goal = goal
        # Consumed answers' locals are named apart from these.
        self.goal_vars = frozenset(constraints_vars(goal))

    def _log(self, msg: str):
        if self.trace:
            self.trace(msg)

    def run(self, mode: str = "exists") -> Outcome:
        """Evaluate the goal: stop at the first root answer in mode
        ``exists``, else saturate the forest. An all-answers evaluation is
        DEPTH_EXCEEDED once the depth bound or the answer cap is hit, so it
        stops there: its trace ends with the step that logged its first
        ``depth:`` or ``cap:`` line."""
        atoms = tuple(
            sorted((c for c in self.goal if not c.is_primitive), key=constraint_key)
        )
        prims = sorted((c for c in self.goal if c.is_primitive), key=constraint_key)
        store = store_from(prims)
        if store is None:
            self._log("root: primitive store inconsistent")
            return FAILS
        root = _Entry(
            0,
            atoms,
            store,
            self.depth,
            frozenset(constraints_vars(atoms)),
            frozenset(constraints_vars(prims)),
            functor_key=tuple(sorted(a.functor for a in atoms)),
        )
        self._register(root)
        if self.trace:
            self._log(f"call: {self._fmt_entry(root)}")

        work: deque[_Entry] = deque([root])
        answer_work: deque[tuple[_Entry, Answer]] = deque()
        steps = 0
        while work or answer_work:
            steps += 1
            if steps > STEP_CAP:
                self.cap_exceeded = True
                break
            if self._settled(mode, root):
                break
            while answer_work:
                entry, ans = answer_work.popleft()
                for consumer, sigma in list(entry.consumers):
                    self._consume(consumer, ans, sigma, answer_work)
                if entry.parent is not None:
                    self._lift(entry, ans, answer_work)
                if self._settled(mode, root):
                    break
            if self._settled(mode, root):
                break
            if work:
                entry = work.popleft()
                self._expand(entry, work, answer_work)

        if root.answers:
            if mode == "exists":
                return Answers((next(iter(root.answers)),))
            if self.depth_exceeded or self.cap_exceeded:
                return DEPTH_EXCEEDED
            return Answers(tuple(sorted(root.answers, key=_answer_key)))
        if self.depth_exceeded or self.cap_exceeded:
            return DEPTH_EXCEEDED
        return FAILS

    def _settled(self, mode: str, root: _Entry) -> bool:
        """Whether the outcome is fixed: in mode ``exists`` by a root
        answer, else by the depth bound or the answer cap, since neither
        flag is ever cleared."""
        if mode == "exists":
            return bool(root.answers)
        return self.depth_exceeded or self.cap_exceeded

    # -- node processing --------------------------------------------------

    def _fmt_entry(self, e: _Entry) -> str:
        parts = [format_constraint(c) for c in e.atoms]
        parts += [format_constraint(c) for c in sorted(e.store.constraints, key=constraint_key)]
        return ", ".join(parts)

    def _register(self, entry: _Entry) -> None:
        self.n_entries += 1
        if entry.subsumable and entry.atoms:
            self.producers.setdefault(entry.functor_key, []).append(entry)

    def _expand(self, entry: _Entry, work: deque, answer_work: deque):
        if not entry.atoms:
            self._add_answer(entry.target, entry.store, answer_work)
            return
        producer_sigma = self._find_producer(entry)
        if producer_sigma is not None:
            producer, sigma = producer_sigma
            self._log(f"suspend: entry {entry.idx} consumes entry {producer.idx}")
            if not producer.consumers:
                producer.consumers = []
            producer.consumers.append((entry, sigma))
            for ans in list(producer.answers):
                self._consume(entry, ans, sigma, answer_work)
            return
        if entry.depth <= 0:
            self.depth_exceeded = True
            self._log(f"depth: entry {entry.idx} exceeded the bound")
        else:
            selected = entry.atoms[0]
            rest = entry.atoms[1:]
            clauses = self.program.predicates.get((selected.functor, len(selected.args)), [])
            if not entry.subsumable:
                entry.store.begin_trail()
            for n, clause in enumerate(clauses, 1):
                child = self._resolve(entry, selected, rest, clause, n == len(clauses))
                if child is not None:
                    self._register(child)
                    work.append(child)
        # Unfolded or cut, the entry needs its store again only as a
        # producer; dropping it keeps a deep derivation from holding one
        # store per level.
        if not entry.subsumable:
            entry.store = None

    def _resolve(
        self, entry: _Entry, selected: Constraint, rest: tuple, clause: Clause, last: bool
    ) -> Optional[_Entry]:
        rename = clause.__dict__.get("rename") or _compile_renamer(clause)
        head_eqs, body_prim, body_user, head_prim_vars = rename(*selected.args)
        batch = [*head_eqs, *sorted(body_prim, key=constraint_key)]
        store = self._child_store(entry, batch, last)
        if store is None:
            if self.trace:
                self._log(
                    f"resolve: entry {entry.idx} x {format_constraint(clause.head)} -> false"
                )
            return None
        atoms = tuple(sorted((*rest, *body_user), key=constraint_key))
        child = _Entry(
            self.n_entries,
            atoms,
            store,
            entry.depth - 1,
            frozenset(constraints_vars(atoms)),
            head_prim_vars.union(*(term_vars(a) for a in selected.args)),
            functor_key=tuple(sorted(a.functor for a in atoms)),
            parent=entry,
        )
        if self.trace:
            self._log(
                f"resolve: entry {entry.idx} x {format_constraint(clause.head)}"
                f" -> entry {child.idx}: {self._fmt_entry(child)}"
            )
        return child

    def _child_store(self, entry: _Entry, batch: list, last: bool) -> Optional[Store]:
        """Store of a resolvent of ``entry``, or None when inconsistent.

        A producer keeps its store, so its resolvents get copies. Any other
        entry needs its store no longer once unfolded: its resolvents are
        worked out on that store itself, on a trail (see ``_expand``). A
        consistent one is copied off, except the last, which takes the
        store over; so a derivation that goes on through its last clause
        only copies no store at all.
        """
        if entry.subsumable:
            return assert_many(entry.store, batch)
        store = entry.store
        if last:
            entry.store = None
            if not assert_all(store, batch):
                return None
            store.end_trail()
            return store
        mark = store.mark()
        child = store.copy() if assert_all(store, batch) else None
        store.undo(mark)
        return child

    def _find_producer(self, entry: _Entry) -> Optional[tuple[_Entry, Subst]]:
        """Scan earlier entries for one whose call subsumes this one: the
        matcher maps the earlier entry's atoms onto exactly this entry's
        atoms, binds all of its store variables, and under it this entry's
        store entails every constraint of the earlier store. Sound but
        incomplete: a missed subsumption only costs reuse.

        Only producers with the same functor key are scanned, so a long
        chain of non-subsuming calls stays cheap. Candidates are tried
        oldest first.
        """
        single = len(entry.atoms) == 1
        for cand in self.producers.get(entry.functor_key, ()):
            if cand is entry:
                continue
            c_atoms = frozenset(entry.atoms)
            for sigma in match_into(cand.atoms, entry.atoms):
                # With one atom apiece the matcher's image is necessarily
                # the whole current call; larger calls need the check.
                if not single and match_subst_constraints(sigma, cand.atoms) != c_atoms:
                    continue
                if any(v not in sigma for v in cand.store_vars):
                    continue
                if all(
                    entails(entry.store, match_subst_constraint(sigma, c))
                    for c in cand.store.constraints
                ):
                    return cand, sigma
        return None

    # -- answers ----------------------------------------------------------

    def _add_answer(self, entry: _Entry, store: Store, answer_work: deque) -> None:
        """Record the store, projected onto the entry's variables, as an
        answer of the entry unless it has that answer already; the
        projection is canonical, so it is its own key."""
        ans = solver.project(store, entry.variables)
        if ans in entry.answers:
            return
        if len(entry.answers) >= self.answer_cap:
            if self.trace:
                self._log(f"cap: entry {entry.idx} reached the answer cap {self.answer_cap}")
            self.cap_exceeded = True
            return
        if not entry.answers:
            entry.answers = {}
        entry.answers[ans] = None
        if self.trace:
            self._log(f"answer: entry {entry.idx}: {format_constraints(ans)}")
        answer_work.append((entry, ans))

    def _lift(self, entry: _Entry, ans: Answer, answer_work: deque):
        # A producer's answer is an answer of the next entry up that records
        # answers, once projected onto that entry's variables.
        store = store_from(sorted(ans, key=constraint_key))
        self._add_answer(entry.parent.target, store, answer_work)

    def _consume(self, consumer: _Entry, ans: Answer, sigma: Subst, answer_work: deque):
        # The answer's locals get fresh names; its call variables map onto
        # the consumer's terms.
        local_ren = renaming_for(constraints_vars(ans) - set(sigma), "_L", self.goal_vars)
        mapped = match_subst_constraints({**local_ren, **sigma}, ans)
        store = assert_many(consumer.store, sorted(mapped, key=constraint_key))
        if store is None:
            return
        self._add_answer(consumer.target, store, answer_work)


def _answer_key(a: Answer) -> tuple:
    return tuple(sorted(constraint_key(c) for c in a))


def _compile_renamer(clause: Clause) -> Callable[..., tuple]:
    """The clause's renaming function, compiled the first time the clause
    is resolved and kept on the clause object, so it lives as long as the
    program that holds the clause.

    Called with the arguments of the selected atom, it takes one fresh
    variable per clause variable, in the order of their names, and returns
    the equalities between those arguments and the renamed head arguments,
    the renamed body primitives and body atoms (each sorted as in the
    clause), and the frozenset of fresh variables in the head and the body
    primitives. Ground subterms are shared with the clause rather than
    rebuilt.
    """
    body_prim = tuple(sorted(clause.body_prim, key=constraint_key))
    body_user = tuple(sorted(clause.body_user, key=constraint_key))
    variables = sorted(
        constraints_vars([clause.head, *body_prim, *body_user]), key=lambda v: v.id
    )
    slot = {v: f"v{i}" for i, v in enumerate(variables)}
    shared: list = []

    def term(t) -> str:
        if isinstance(t, Var):
            return slot[t]
        if isinstance(t, Compound) and term_vars(t):
            return f"Compound({t.functor!r}, {args(t.args)})"
        shared.append(t)
        return f"shared[{len(shared) - 1}]"

    def args(ts) -> str:
        return "(" + "".join(f"{term(t)}, " for t in ts) + ")"

    def constraints(cs) -> str:
        return "(" + "".join(f"Constraint({c.functor!r}, {args(c.args)}), " for c in cs) + ")"

    selected = [f"a{i}" for i in range(len(clause.head.args))]
    head_eqs = "".join(
        f"Constraint('eq', ({a}, {term(t)})), " for a, t in zip(selected, clause.head.args)
    )
    head_prim_vars = constraints_vars([clause.head, *body_prim])
    source = (
        f"def rename({', '.join(selected)}):\n"
        + "".join(f"    {slot[v]} = fresh_var()\n" for v in variables)
        + f"    return ({head_eqs}), {constraints(body_prim)}, {constraints(body_user)},"
        + f" frozenset({args(sorted(head_prim_vars, key=lambda v: v.id))})\n"
    )
    namespace = {
        "Compound": Compound,
        "Constraint": Constraint,
        "fresh_var": fresh_var,
        "shared": tuple(shared),
    }
    exec(source, namespace)
    rename = clause.__dict__["rename"] = namespace["rename"]
    return rename


def _resolve_seq(
    selected: Constraint, rest: tuple, clause: Clause
) -> tuple[Constraint, ...]:
    """Resolvent sequence obtained by replacing the selected atom with a
    renamed clause body: head equalities, then the body constraints."""
    rename = clause.__dict__.get("rename") or _compile_renamer(clause)
    head_eqs, body_prim, body_user, _ = rename(*selected.args)
    return head_eqs + body_prim + body_user + rest


def _classical(
    program: Program,
    goal: Goal,
    depth: int,
    mode: str,
    answer_cap: int,
    trace: Optional[Callable[[str], None]],
) -> Outcome:
    """Depth-first left-to-right resolution over an ordered resolvent; no
    tabling, so recursion is unfolded until the depth bound.

    The resolvent semantics keep the goal's own primitive constraints after
    its atoms, so they reach the store only once the atoms are resolved and
    cannot stop recursive unfolding. For speed they are still asserted
    eagerly into a shadow store: a branch whose shadow store turns
    inconsistent cannot produce answers and is cut. The cut branch may hide
    an infinite classical subtree, so when the verdict comes down to
    fails-versus-depth-exceeded those branches are re-expanded without the
    goal constraints just to probe finiteness (:func:`_classical_finite`).
    This search itself runs every path to the bound: most of its paths grow
    a list at every level, so keying their states costs more than it saves,
    and a cut there would move the exists-mode witness and the trace.

    The search keeps one shadow store on a trail: each stack entry holds
    the mark of its parent's state, which is restored when it is popped.
    """
    atoms = tuple(sorted((c for c in goal if not c.is_primitive), key=constraint_key))
    prims = tuple(sorted((c for c in goal if c.is_primitive), key=constraint_key))
    variables = frozenset(constraints_vars(goal))
    shadow = assert_many(Store(), prims)
    if shadow is None:
        # No leaf can be consistent; only the tree shape remains to decide.
        finite = _classical_finite(program, Store(), atoms, depth, trace)
        return FAILS if finite else DEPTH_EXCEEDED
    answers: dict[Answer, None] = {}
    depth_exceeded = False
    # Only the shadow store rides along; the classical store of a branch is
    # its constraint list minus the goal primitives seeded at the root, so
    # it is rebuilt on demand at the rare prune events.
    n_seeded = len(shadow.constraints)
    shadow.begin_trail()
    stack: list[tuple[tuple, tuple[Constraint, ...], int]] = [
        (shadow.mark(), atoms, depth)
    ]
    pruned: list[tuple[Store, tuple[Constraint, ...], int]] = []
    steps = 0
    while stack:
        steps += 1
        if steps > STEP_CAP:
            depth_exceeded = True
            break
        mark, seq, d = stack.pop()
        shadow.undo(mark)
        split = _leading_primitives(seq)
        if split:
            batch = seq[:split]
            seq = seq[split:]
            n_before = len(shadow.constraints)
            if not assert_all(shadow, batch):
                if not seq:
                    # A leaf asserts the goal primitives too, so this is a
                    # plain classical failure.
                    if trace:
                        trace("classical: leaf inconsistent")
                    continue
                store = store_from(shadow.constraints[n_seeded:n_before] + list(batch))
                if store is None:
                    if trace:
                        trace("classical: branch inconsistent")
                    continue
                # Consistent classically, but no answer can follow.
                pruned.append((store, seq, d))
                if trace:
                    trace("classical: branch cut, no consistent leaf below")
                continue
        if not seq:
            # The shadow store holds the leaf constraints plus the goal's
            # trailing primitives, exactly what the leaf would assert.
            ans = solver.project(shadow, variables)
            if ans in answers:
                continue
            answers[ans] = None
            if trace:
                trace(f"classical answer: {format_constraints(ans)}")
            if mode == "exists":
                return Answers((ans,))
            if len(answers) >= answer_cap:
                depth_exceeded = True
                break
            continue
        if d <= 0:
            depth_exceeded = True
            if trace:
                trace("classical: depth bound exceeded")
            if mode != "exists":
                break  # the verdict is DEPTH_EXCEEDED whatever follows
            continue
        # Reversed so the textually first clause is explored first.
        stack.extend(reversed(_unfold(program, shadow.mark(), seq, d)))
    if not depth_exceeded:
        for store, seq, d in pruned:
            if not _classical_finite(program, store, seq, d, trace):
                depth_exceeded = True
                break
    if answers:
        if depth_exceeded:
            return DEPTH_EXCEEDED
        return Answers(tuple(sorted(answers, key=_answer_key)))
    if depth_exceeded:
        return DEPTH_EXCEEDED
    return FAILS


def _leading_primitives(seq: tuple[Constraint, ...]) -> int:
    split = 0
    while split < len(seq) and seq[split].functor in PRIMITIVE_RELATIONS:
        split += 1
    return split


def _unfold(program: Program, mark: tuple, seq: tuple[Constraint, ...], d: int) -> list:
    """Stack entries for the resolvents of the leftmost atom of ``seq``,
    one per clause in program order, to be resumed from ``mark``."""
    selected, rest = seq[0], seq[1:]
    clauses = program.predicates.get((selected.functor, len(selected.args)), [])
    return [(mark, _resolve_seq(selected, rest, clause), d - 1) for clause in clauses]


def _classical_finite(
    program: Program,
    store: Store,
    seq: tuple[Constraint, ...],
    depth: int,
    trace: Optional[Callable[[str], None]],
) -> bool:
    """Whether the classical tree under the given resolvent is finite
    within the depth budget; answers are irrelevant here. The store is
    used up: the search changes it in place on a trail.

    A node whose state is a variant of an ancestor's on its path repeats
    the steps between them forever, so the tree is infinite there and the
    depth bound would end that path anyway: the variant loop check of Bol,
    Apt and Klop (TCS 1991). Where the atoms reach recursion, states are
    compared at 0, 1, 2, 4, ... levels below the start, so a path that
    never repeats keys only O(log depth) nodes; each stack entry carries
    the keys of those ancestors."""
    loops = _reaches_recursion(program, frozenset(c for c in seq if not c.is_primitive))
    store.begin_trail()
    stack = [(store.mark(), seq, depth, ())]
    steps = 0
    while stack:
        steps += 1
        if steps > STEP_CAP:
            return False
        mark, seq, d, keys = stack.pop()
        store.undo(mark)
        split = _leading_primitives(seq)
        if split:
            if not assert_all(store, seq[:split]):
                continue
            seq = seq[split:]
        if not seq:
            continue
        if d <= 0:
            if trace:
                trace("classical: cut branch runs into the depth bound")
            return False
        level = depth - d
        if loops and level & (level - 1) == 0:
            key = _state_key(store, seq)
            if key in keys:
                if trace:
                    trace("classical: cut branch repeats an earlier state")
                return False
            keys = (*keys, key)
        stack.extend((m, s, e, keys) for m, s, e in _unfold(program, store.mark(), seq, d))
    return True


def _state_key(store: Store, seq: tuple[Constraint, ...]) -> tuple:
    """A key that two classical states share only if they are variants:
    the resolvent, each literal tagged with its position, and the store
    projected onto the resolvent's variables, renamed together. Flat, so
    that comparing keys of deep terms does not recurse."""
    tagged = [
        Constraint("@", (Const(str(i)), Compound(c.functor, c.args))) for i, c in enumerate(seq)
    ]
    return flat_key(canonical_key([*tagged, *solver.project(store, constraints_vars(seq))]))


def _reaches_recursion(program: Program, atoms: frozenset) -> bool:
    """Whether the atoms reach a predicate on a cycle of the call graph.
    The predicates they reach are dropped, those that call none of the rest
    first, for as long as one can be; whatever is left reaches a cycle."""
    calls: dict[tuple[str, int], set] = {}
    todo = [(a.functor, len(a.args)) for a in atoms]
    while todo:
        p = todo.pop()
        if p not in calls:
            calls[p] = {
                (a.functor, len(a.args))
                for clause in program.predicates.get(p, ())
                for a in clause.body_user
            }
            todo.extend(calls[p])
    while calls:
        sinks = [p for p, callees in calls.items() if calls.keys().isdisjoint(callees)]
        if not sinks:
            return True
        for p in sinks:
            del calls[p]
    return False


def _table(
    program: Program,
    atoms: frozenset,
    depth: int,
    answer_cap: int,
    trace: Optional[Callable[[str], None]],
    tables: dict,
) -> Optional[_Table]:
    """The completed answer table of the user atoms, built on first use
    and kept in ``tables``, with its ground rows if its answers are all
    such (see :class:`_Table`). None when the atoms reach recursion, or
    when their evaluation hit the depth bound or the answer cap, so that no
    table can stand in for a forest."""
    key = (atoms, depth, answer_cap)
    if key in tables:
        return tables[key]
    table = None
    if _reaches_recursion(program, atoms):
        if trace:
            trace(f"table: none for {format_constraints(atoms)}: it reaches recursion")
    else:
        out = Evaluation(program, atoms, depth, answer_cap, trace).run("all_answers")
        if isinstance(out, DepthExceeded):
            if trace:
                trace(f"table: none for {format_constraints(atoms)}: bound or cap hit")
        else:
            answers = out.answers if isinstance(out, Answers) else ()
            table = _Table(answers, constraints_vars(atoms))
            if trace:
                trace(f"table: {format_constraints(atoms) or 'true'}: {len(answers)} answers")
    tables[key] = table
    return table


class _Table:
    """The completed answer table of a set of user atoms.

    ``answers`` holds its answers in the order of the evaluation that built
    it, each with its locals renamed apart from the atoms' variables and
    sorted by constraint key, and ``locals`` the set of those locals.

    When every answer binds each atom variable to a ground term and says
    nothing else, the answers are also kept as ``rows`` of those bindings,
    with each answer as a frozenset in ``row_answers``, and ``masks``
    memoises per primitive the bit mask of the rows on which it holds, bit
    ``i`` for row ``i`` (see :func:`_row_mask`). The table lives and dies
    with the caller's ``tables`` dict.
    """

    __slots__ = ("answers", "locals", "atom_vars", "rows", "row_answers", "masks")

    def __init__(self, answers: tuple[Answer, ...], atom_vars: set):
        self.answers = tuple(_renamed_apart(a, atom_vars, atom_vars) for a in answers)
        self.locals = constraints_vars(itertools.chain(*self.answers)) - atom_vars
        self.atom_vars = atom_vars
        rows = [solver.ground_row(a) for a in self.answers]
        self.rows = self.row_answers = None
        if all(r is not None and r.keys() == atom_vars for r in rows):
            self.rows = rows
            self.row_answers = [frozenset(a) for a in self.answers]
            self.masks: dict[Constraint, Optional[int]] = {}

    def matching_rows(self, prims: list[Constraint], mode: str) -> Optional[list[Answer]]:
        """The answers of the rows on which every primitive holds, in table
        order, only the first of them in mode ``exists``. None when the
        table has no rows, or when one of the primitives is not decided on
        them alone."""
        if self.rows is None:
            return None
        hits = (1 << len(self.rows)) - 1
        for c in prims:
            if c not in self.masks:
                self.masks[c] = _row_mask(c, self.rows, self.atom_vars)
            mask = self.masks[c]
            if mask is None:
                return None
            hits &= mask
        found = []
        while hits:
            low = hits & -hits
            found.append(self.row_answers[low.bit_length() - 1])
            if mode == "exists":
                break
            hits ^= low
        return found


_ROW_TESTS = {
    "eq": operator.eq, "neq": operator.ne,
    "lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def _row_mask(c: Constraint, rows: list[dict], row_vars: set) -> Optional[int]:
    """Bit mask of the rows on which the primitive holds, bit ``i`` for row
    ``i``. Each argument must be a row variable or a ground term, and an
    order must compare integers on every row; otherwise None, since then the
    store decides the primitive by rules a row cannot reproduce."""
    if not all(t in row_vars if t.__class__ is Var else not term_vars(t) for t in c.args):
        return None
    test = _ROW_TESTS[c.functor]
    order = c.functor in ORDER_RELATIONS
    mask = 0
    for i, row in enumerate(rows):
        a, b = (row[t] if t.__class__ is Var else t for t in c.args)
        if order:
            if not (is_ordered_const(a) and is_ordered_const(b)):
                return None
            a, b = int(a.name), int(b.name)
        if test(a, b):
            mask |= 1 << i
    return mask


def _renamed_apart(answer: Answer, kept: set, avoid: set) -> tuple[Constraint, ...]:
    """The answer with fresh names, none of them in ``avoid``, for its
    variables outside ``kept``, sorted by constraint key."""
    ren = renaming_for(constraints_vars(answer) - kept, "_L", avoid)
    return tuple(sorted(match_subst_constraints(ren, answer), key=constraint_key))


def _from_table(
    program: Program,
    goal: Goal,
    depth: int,
    mode: str,
    answer_cap: int,
    trace: Optional[Callable[[str], None]],
    tables: dict,
) -> Optional[Outcome]:
    """The outcome of a goal ``U + P`` (user atoms ``U``, primitives ``P``)
    read off the table of ``U``: an answer of ``U`` consistent with ``P``,
    conjoined with it and projected onto the goal's variables, is an answer
    of the goal, and every answer of the goal is one of these. In mode
    ``exists`` the first one is the witness. The table of no atoms holds
    one empty answer. None, for a forest to decide the goal, only when
    ``U`` has no table.

    Where the table has ground rows and each primitive of ``P`` is decided
    on them (:meth:`_Table.matching_rows`), the goal's answers are the rows
    left by ANDing the primitives' masks: ``P`` binds no variable the rows
    do not, so each is its row's own answer, and table order is the answer
    order. Any other goal asserts each answer in turn on a trailed store of
    ``P``. When tracing, a goal that no row satisfies also gets a store of
    ``P``, to tell whether its primitives alone are inconsistent."""
    atoms = frozenset(c for c in goal if not c.is_primitive)
    table = _table(program, atoms, depth, answer_cap, trace, tables)
    if table is None:
        return None
    prims = [c for c in goal if c.is_primitive]
    found = table.matching_rows(prims, mode)
    if found is None or (trace and not found):
        store = store_from(sorted(prims, key=constraint_key))
        if store is None:
            if trace:
                trace(f"table: {format_constraints(goal)} fails: its primitives are inconsistent")
            return FAILS
        if found is None:
            found = _answers_on_store(store, table, goal, mode)
    if trace:
        trace(
            f"table: {format_constraints(goal)} decided from the table of"
            f" {format_constraints(atoms) or 'true'}: {len(found)} answers"
        )
    return Answers(tuple(found)) if found else FAILS


def _answers_on_store(store: Store, table: _Table, goal: Goal, mode: str) -> list[Answer]:
    """The goal's answers from its primitives' store: each table answer in
    turn on that store, on a trail, projected onto the goal's variables, in
    answer order; only the first in mode ``exists``. The table holds at
    most the answer cap's count of answers, so the goal does too."""
    answers = table.answers
    goal_vars = constraints_vars(goal)
    if not table.locals.isdisjoint(goal_vars):
        answers = [_renamed_apart(a, table.atom_vars, goal_vars) for a in answers]
    store.begin_trail()
    mark = store.mark()
    found: dict[Answer, None] = {}
    for a in answers:
        store.undo(mark)
        if not assert_all(store, a):
            continue
        found[solver.project(store, goal_vars)] = None
        if mode == "exists":
            break
    return sorted(found, key=_answer_key)


def evaluate(
    program: Program,
    goal: Goal,
    depth: int = 200,
    mode: str = "exists",
    tabling: bool = True,
    answer_cap: int = ANSWER_CAP,
    trace: Optional[Callable[[str], None]] = None,
    *,
    tables: Optional[dict] = None,
) -> Outcome:
    """Evaluate a goal against a program.

    mode="exists" returns FAILS, Answers with one witness, or
    DEPTH_EXCEEDED; mode="all_answers" returns the saturated answer set or
    DEPTH_EXCEEDED when the bound or the answer cap was hit. With
    ``tabling=False`` the classical ordered depth-first scheme is used
    instead of the tabled forest. In mode "all_answers" each answer's locals
    come back under fresh names, apart from the goal's, since answers of
    different goals meet when compared; an "exists" witness is returned as
    found.

    ``tables`` is the caller's store of answer tables, kept across calls.
    With it, a tabled evaluation is read off the completed all-answers
    table of the goal's user atoms (see :func:`_from_table`), built within
    the first call that needs it; a goal gets a forest of its own only
    when its atoms reach recursion or their table was cut.
    """
    out = None
    if not tabling:
        out = _classical(program, goal, depth, mode, answer_cap, trace)
    elif tables is not None:
        out = _from_table(program, goal, depth, mode, answer_cap, trace, tables)
    if out is None:
        out = Evaluation(program, goal, depth, answer_cap, trace).run(mode)
    if mode == "exists" or not isinstance(out, Answers):
        return out
    goal_vars = constraints_vars(goal)
    answers = []
    for a in out.answers:
        # An answer without locals, such as a ground row, is kept as it is.
        local = constraints_vars(a) - goal_vars
        answers.append(match_subst_constraints(renaming_for(local, "_L", goal_vars), a)
                       if local else a)
    return Answers(tuple(answers))
