"""Minimal CHR / CHR-or fixpoint interpreter for validating generated
solvers on ground and partially-ground goals.

A state is taken up once: the rules are tried on it in order, one step per
rule, and the first rule that fires replaces it by its successors. Head
matching looks only at the active user constraints with the head's functor
and arity, indexed once per state; the heads go to distinct constraints in
increasing id order, their arguments are matched against the primitive
store's representatives, and the guard must be entailed by the store. A
propagation history keeps a propagation rule from refiring on the same
constraint tuple. A rule with one body fires on the state itself; only the
alternatives of a splitting rule copy it, one copy each. The run returns
every consistent leaf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .emit import ChrRule
from .solver import Store, assert_all, entails, store_from
from .terms import (
    Const,
    Constraint,
    Subst,
    Var,
    constraint_key,
    fresh_var,
    match_subst_constraint,
    match_term,
)

# (functor, arity) -> (id, arguments under the store) of each active user
# constraint with that signature, in id order.
_Index = dict[tuple[str, int], list[tuple[int, tuple]]]


class StepLimitExceeded(Exception):
    pass


@dataclass
class State:
    """One branch of a CHR-or execution."""

    user: dict[int, Constraint]  # id -> active user constraint, in id order
    store: Store
    history: set[tuple]  # (rule index, matched constraint ids)
    next_id: int

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


def _match_args(pats: tuple, args: tuple, sigma: Subst) -> Optional[Subst]:
    for pat, arg in zip(pats, args):
        sigma = match_term(pat, arg, sigma)
        if sigma is None:
            return None
    return sigma


def _match_heads(rule: ChrRule, index: _Index) -> Iterator[tuple[tuple[int, ...], Subst]]:
    """All (constraint ids, matcher) pairs assigning the rule heads to
    distinct active user constraints, modulo store equalities, in the
    lexicographic order of the ids."""
    if len(rule.heads) == 1:
        pats = rule.heads[0].args
        for cid, args in index.get(rule.signature[0], ()):
            sigma = _match_args(pats, args, {})
            if sigma is not None:
                yield (cid,), sigma
        return
    pools = [index.get(sig, ()) for sig in rule.signature]
    for combo in itertools.product(*pools):
        ids = tuple(cid for cid, _ in combo)
        if len(set(ids)) < len(ids):
            continue
        sigma: Optional[Subst] = {}
        for head, (_, args) in zip(rule.heads, combo):
            sigma = _match_args(head.args, args, sigma)
            if sigma is None:
                break
        if sigma is not None:
            yield ids, sigma


def _apply_body(
    rule: ChrRule,
    idx: int,
    ids: tuple[int, ...],
    sigma: Subst,
    body: tuple[Constraint, ...],
    local_vars: tuple[Var, ...],
    state: State,
) -> bool:
    """Fire one body of a matched rule on ``state`` itself; False when a
    body primitive is inconsistent with the store."""
    if rule.kind == "simplification":
        for cid in ids:
            del state.user[cid]
    else:
        state.history.add((idx, ids))
    if local_vars:
        sigma = sigma | {v: fresh_var("_R") for v in local_vars}
    user, store = state.user, state.store
    for c in body:
        inst = match_subst_constraint(sigma, c)
        if inst.is_primitive:
            if not assert_all(store, (inst,)):
                return False
        elif inst not in user.values():
            user[state.next_id] = inst
            state.next_id += 1
    return True


def _fire(rule: ChrRule, idx: int, state: State, index: _Index) -> Optional[list[State]]:
    """Try to fire one rule once; None when nothing matched. A single body
    fires on ``state`` itself, which the caller then drops or takes up
    again as the successor."""
    for ids, sigma in _match_heads(rule, index):
        if rule.keeps_heads and (idx, ids) in state.history:
            continue
        if not all(
            entails(state.store, match_subst_constraint(sigma, g)) for g in rule.guard
        ):
            continue
        if rule.kind == "failure":
            return []  # matched lhs with guard entailed: inconsistent leaf
        alternatives = rule.alternatives
        if len(alternatives) == 1:
            body, local_vars = alternatives[0]
            return [state] if _apply_body(rule, idx, ids, sigma, body, local_vars, state) else []
        branches: list[State] = []
        for body, local_vars in alternatives:
            branch = state.copy()
            if _apply_body(rule, idx, ids, sigma, body, local_vars, branch):
                # The copied-from store served the occurs check while the
                # body went in, as in solver.assert_many.
                branch.store.base = None
                branches.append(branch)
        return branches
    return None


def run(
    chr_rules: list[ChrRule], goal: Iterable[Constraint], step_limit: int = 10_000
) -> list[State]:
    """Run the encoded rules on a goal to fixpoint; returns the consistent
    leaf states (empty when every branch failed)."""
    goal = sorted(goal, key=constraint_key)
    store = store_from([c for c in goal if c.is_primitive])
    if store is None:
        return []
    users = {i: c for i, c in enumerate(c for c in goal if not c.is_primitive)}
    initial = State(users, store, set(), len(users))
    leaves: list[State] = []
    pending = [initial]
    steps = 0
    while pending:
        state = pending.pop()
        index = _index(state)
        for idx, rule in enumerate(chr_rules):
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(f"exceeded {step_limit} rule-match steps")
            branches = _fire(rule, idx, state, index)
            if branches is not None:
                pending.extend(branches)
                break
        else:
            leaves.append(state)
    return leaves
