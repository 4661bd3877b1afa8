"""Minimal CHR / CHR-or fixpoint runtime for validating generated solvers
on ground and partially-ground goals.

A state is taken up once: the rules are tried on it in order, one step per
rule tried, and the first rule that fires replaces it by its successors. The
heads go to distinct active user constraints in increasing id order, their
arguments are matched against the primitive store's representatives, and
the guard must be entailed by the store. A propagation history keeps a
propagation rule from refiring on the same constraint tuple. A rule with one
body fires on the state itself; only the alternatives of a splitting rule
copy it, one copy each. The run returns every consistent leaf.

Each rule is compiled, the first time it is tried, into one Python try
function, which is kept on the rule object (a splitting rule also gets one
function per alternative). It has one loop per head, nested in head order,
over the active constraints with the head's functor and arity; each head
pattern is unfolded into tests on the matched arguments, and the guard and
the body constraints are built directly from them.

The heads are matched against an index kept on the state: the active user
constraints under their signatures, each with its arguments under the
store. A firing keeps the index up to date: a simplification removes its
heads from it, and an added user constraint is appended, its arguments
needing no resolving, since they are built from indexed ones and fresh
variables. A primitive going into the store makes the index stale, so it is
rebuilt when the state is next taken up; a splitting copy starts without
one.

A run stops with StepLimitExceeded, as at the step limit, as soon as a
state taken up again repeats an earlier take-up of the same state object
(Brent's cycle detection, see ``_check_repeat``): from there it would loop
forever. A splitting copy starts a lineage of its own, and a state whose
store grew in between is never compared, so a loop that asserts a
primitive again on each round still runs to the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterable, Optional

from .emit import ChrRule
from .solver import Store, assert_all, entails, store_from
from .terms import Compound, Const, Constraint, Var, constraint_key, fresh_var, term_vars

# (functor, arity) -> (id, arguments under the store) of each active user
# constraint with that signature, in id order.
_Index = dict[tuple[str, int], list[tuple[int, tuple]]]


class StepLimitExceeded(Exception):
    pass


# The repeat check starts at this take-up of a state, a power of two, so
# that the many short runs pay no more than a count per take-up.
_FIRST_SAVE = 16


@dataclass
class State:
    """One branch of a CHR-or execution."""

    user: dict[int, Constraint]  # id -> active user constraint, in id order
    store: Store
    history: set[tuple]  # (rule index, matched constraint ids)
    next_id: int
    # None until built, and again once a primitive has gone into the store.
    index: Optional[_Index] = field(default=None, repr=False, compare=False)
    # The repeat check: how often run has taken this state up, and
    # (take-up, sizes, key) as saved at the last power-of-two take-up.
    taken: int = field(default=0, repr=False, compare=False)
    saved: Optional[tuple] = field(default=None, repr=False, compare=False)

    def copy(self) -> "State":
        return State(dict(self.user), self.store.copy(), set(self.history), self.next_id)

    @property
    def primitive_constraints(self) -> frozenset[Constraint]:
        return frozenset(self.store.constraints)

    @property
    def user_constraints(self) -> frozenset[Constraint]:
        return frozenset(self.user.values())


def _index(state: State) -> _Index:
    # Ids are handed out in increasing order and ``user`` keeps insertion
    # order, so each list comes out sorted by id.
    find = state.store.find
    index: _Index = {}
    for cid, c in state.user.items():
        index.setdefault((c.functor, len(c.args)), []).append(
            (cid, tuple(a if a.__class__ is Const else find(a) for a in c.args))
        )
    return index


def _compile(rule: ChrRule) -> Callable[[State, int], Optional[list[State]]]:
    """The rule's try function, compiled once and kept on the rule object.

    Called with a state whose index is up to date and the rule's position in
    the rule list, it fires the rule on the first match and returns the
    successor states, or None when nothing matched. A pattern is checked
    against its constraint's argument by the tests ``match_term`` makes:
    functor and arity of a compound, and equality, in the same operand
    order, for a constant, a ground subterm or a repeated variable. Functors
    enter the source only through ``repr``; constants, ground subterms and
    variables no head binds only through the ``shared`` tuple.
    """
    shared: list = []
    names = (f"t{i}" for i in count())
    bound: dict[Var, str] = {}  # head variable -> local holding its match
    lines: list[str] = []

    def emit(depth: int, line: str) -> None:
        lines.append("    " * depth + line)

    def share(t) -> str:
        shared.append(t)
        return f"shared[{len(shared) - 1}]"

    def match(pat, target: str, depth: int) -> None:
        # Depth first, left to right, as match_term walks the pattern.
        stack = [(pat, target)]
        while stack:
            pat, target = stack.pop()
            if pat.__class__ is Var and pat not in bound:
                bound[pat] = target
            elif pat.__class__ is Var:
                emit(depth, f"if {bound[pat]} != {target}: continue")
            elif pat.__class__ is Compound and term_vars(pat):
                emit(
                    depth,
                    f"if {target}.__class__ is not Compound or {target}.functor != "
                    f"{pat.functor!r} or len({target}.args) != {len(pat.args)}: continue",
                )
                subs = [next(names) for _ in pat.args]
                emit(depth, f"{', '.join(subs)}, = {target}.args")
                stack.extend(reversed(list(zip(pat.args, subs))))
            else:
                emit(depth, f"if {share(pat)} != {target}: continue")

    def build(args: tuple, slots: dict[Var, str], depth: int) -> str:
        """Source of the tuple of the terms ``args`` under ``slots``. Each
        compound with variables is built into a local of its own first,
        innermost first, so that no expression nests deeply."""
        built: dict[int, str] = {}

        def term(t) -> str:
            if t.__class__ is Var and t in slots:
                return slots[t]
            return built.get(id(t)) or share(t)

        stack = [t for t in args if t.__class__ is Compound and term_vars(t)]
        while stack:
            t = stack[-1]
            inner = [
                a
                for a in t.args
                if a.__class__ is Compound and id(a) not in built and term_vars(a)
            ]
            if inner:
                stack.extend(inner)
                continue
            stack.pop()
            if id(t) not in built:
                built[id(t)] = name = next(names)
                emit(depth, f"{name} = Compound({t.functor!r}, {_tuple_of(map(term, t.args))})")
        return _tuple_of(map(term, args))

    def fire(body: tuple, local_vars: tuple, depth: int, fail: str, indexed: bool) -> None:
        """Fresh variables for the locals, then each body constraint in
        order; ``fail`` leaves on an inconsistent primitive. With
        ``indexed``, the state's index is kept up to date."""
        slots = dict(bound)
        for v in local_vars:
            slots[v] = name = next(names)
            emit(depth, f"{name} = fresh_var('_R')")
        if not all(c.is_primitive for c in body):
            emit(depth, "user = state.user")
        for c in body:
            args = build(c.args, slots, depth)
            if c.is_primitive:
                if indexed:
                    emit(depth, "state.index = None")
                    indexed = False
                c_src = f"Constraint({c.functor!r}, {args})"
                emit(depth, f"if not assert_all(state.store, ({c_src},)):")
                emit(depth + 1, fail)
                continue
            emit(depth, f"args = {args}")
            emit(depth, f"c = Constraint({c.functor!r}, args)")
            emit(depth, "if c not in user.values():")
            emit(depth + 1, "user[state.next_id] = c")
            if indexed:
                sig = (c.functor, len(c.args))
                emit(depth + 1, f"index.setdefault({sig!r}, []).append((state.next_id, args))")
            emit(depth + 1, "state.next_id += 1")

    alternatives = rule.alternatives
    split = len(alternatives) > 1
    lines.append("def try_rule(state, idx):")
    emit(1, "index = state.index")
    depth = 1
    for j, (head, sig) in enumerate(zip(rule.heads, rule.signature)):
        emit(depth, f"for id{j}, args{j} in index.get({sig!r}, ()):")
        depth += 1
        same = [f"id{i}" for i in range(j) if rule.signature[i] == sig]
        if same:
            emit(depth, f"if id{j} in {_tuple_of(same)}: continue")
        subs = [next(names) for _ in head.args]
        if subs:
            emit(depth, f"{', '.join(subs)}, = args{j}")
        for pat, target in zip(head.args, subs):
            match(pat, target, depth)
    ids = _tuple_of(f"id{j}" for j in range(len(rule.heads)))
    matches = "".join(f"{name}, " for name in bound.values())
    if rule.keeps_heads:
        emit(depth, f"if (idx, {ids}) in state.history: continue")
    for g in rule.guard:
        args = build(g.args, bound, depth)
        emit(depth, f"if not entails(state.store, Constraint({g.functor!r}, {args})): continue")
    if rule.kind == "failure":
        emit(depth, "return []")  # matched lhs with guard entailed: inconsistent leaf
    elif not split:
        # The one body fires on the state itself, which run drops or takes up
        # again as the successor.
        if rule.kind == "simplification":
            for j, sig in enumerate(rule.signature):
                emit(depth, f"del state.user[id{j}]")
                emit(depth, f"index[{sig!r}].remove((id{j}, args{j}))")
        else:
            emit(depth, f"state.history.add((idx, {ids}))")
        fire(*alternatives[0], depth, "return []", indexed=True)
        emit(depth, "return [state]")
    else:
        # Each alternative fires on a copy, in a function of its own that
        # takes the head matches.
        alts = _tuple_of(f"alternative{k}" for k in range(len(alternatives)))
        simplification = rule.kind == "simplification"
        emit(depth, f"return _split(state, (idx, {ids}), {alts}, ({matches}), {simplification})")
    emit(1, "return None")
    for k, (body, local_vars) in enumerate(alternatives if split else ()):
        lines.append(f"def alternative{k}(state, {matches}):")
        fire(body, local_vars, 1, "return False", indexed=False)
        emit(1, "return True")
    namespace = {
        "Compound": Compound,
        "Constraint": Constraint,
        "_split": _split,
        "assert_all": assert_all,
        "entails": entails,
        "fresh_var": fresh_var,
        "shared": tuple(shared),
    }
    exec("\n".join(lines) + "\n", namespace)
    try_rule = rule.__dict__["try_rule"] = namespace["try_rule"]
    return try_rule


def _split(
    state: State, key: tuple, alternatives: tuple, matches: tuple, simplification: bool
) -> list[State]:
    """Fire each alternative of a splitting rule on a copy of the state;
    the consistent copies, in order. ``key`` is (rule index, head ids)."""
    branches = []
    for alternative in alternatives:
        branch = state.copy()
        if simplification:
            for cid in key[1]:
                del branch.user[cid]
        else:
            branch.history.add(key)
        if alternative(branch, *matches):
            branches.append(branch)
    return branches


def _tuple_of(items: Iterable[str]) -> str:
    return "(" + "".join(f"{s}, " for s in items) + ")"


def _check_repeat(state: State, step_limit: int) -> None:
    """Raise StepLimitExceeded when the state repeats one it was in at an
    earlier take-up, by Brent's method: the saved take-up moves to each
    power of two from ``_FIRST_SAVE`` on, and every take-up since is
    compared with it.

    A state is taken up again only after a rule with one body fired on it
    in place. Two take-ups with the same store constraint count have the
    same store, since a store only grows, and the same user constraints in
    id order and the same history on live ids, up to the order-preserving
    renaming of ids by rank, have the same future under that renaming: the
    run is deterministic there and hands out new ids above every live one.
    So the state repeats forever, and the run would exceed any step limit.
    Sizes are compared first, so a state that grew is never keyed again.
    """
    taken = state.taken
    sizes = (len(state.store.constraints), len(state.user), len(state.history))
    saved = state.saved
    key = None
    if saved is not None and saved[1] == sizes:
        key = _repeat_key(state)
        if key == saved[2]:
            raise StepLimitExceeded(
                f"the state at take-up {taken} repeats the one at take-up {saved[0]},"
                f" so the run would exceed {step_limit} rule-match steps"
            )
    if taken & (taken - 1) == 0:
        state.saved = (taken, sizes, key or _repeat_key(state))


def _repeat_key(state: State) -> tuple:
    """The user constraints in id order, and the history entries on live
    ids, each id replaced by its rank among the live ones."""
    rank = {cid: i for i, cid in enumerate(state.user)}
    history = frozenset(
        (idx, tuple(rank[cid] for cid in ids))
        for idx, ids in state.history
        if all(cid in rank for cid in ids)
    )
    return tuple(state.user.values()), history


def run(
    chr_rules: list[ChrRule], goal: Iterable[Constraint], step_limit: int = 10_000
) -> list[State]:
    """Run the encoded rules on a goal to fixpoint; returns the consistent
    leaf states (empty when every branch failed). Raises StepLimitExceeded
    after ``step_limit`` rule-match steps, or as soon as a state taken up
    again repeats an earlier one (see :func:`_check_repeat`)."""
    goal = sorted(goal, key=constraint_key)
    store = store_from([c for c in goal if c.is_primitive])
    if store is None:
        return []
    users = {i: c for i, c in enumerate(c for c in goal if not c.is_primitive)}
    leaves: list[State] = []
    pending = [State(users, store, set(), len(users))]
    steps = 0
    while pending:
        state = pending.pop()
        state.taken += 1
        if state.taken >= _FIRST_SAVE:
            _check_repeat(state, step_limit)
        if state.index is None:
            state.index = _index(state)
        for idx, rule in enumerate(chr_rules):
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(f"exceeded {step_limit} rule-match steps")
            branches = (rule.__dict__.get("try_rule") or _compile(rule))(state, idx)
            if branches is not None:
                pending.extend(branches)
                break
        else:
            leaves.append(state)
    return leaves
