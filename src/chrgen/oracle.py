"""Brute-force ground oracle: exhaustive enumeration over a bounded term
alphabet, used to independently verify rule validity and engine soundness.

Everything here is deliberately independent of the tabled engine and the
miner: primitive constraints are checked directly on ground terms, and
user-defined constraints against a bottom-up fixpoint of the program over
the finite universe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .program import Program, format_constraint
from .rules import Rule
from .terms import (
    Const,
    Constraint,
    Subst,
    Term,
    constraint_key,
    constraints_vars,
    make_list,
    subst_constraint,
    unify,
)


def universe(constants: Sequence[str], list_depth: int = 0) -> list[Term]:
    """All ground terms of the alphabet: the constants themselves plus, when
    list_depth > 0, lists over them of length up to list_depth."""
    consts: list[Term] = [Const(c) for c in constants]
    out = list(consts)
    if list_depth > 0:
        for n in range(list_depth + 1):
            for combo in itertools.product(consts, repeat=n):
                out.append(make_list(combo))
    # The empty list appears once.
    seen = set()
    uniq = []
    for t in out:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq


def _order_value(t: Term) -> Optional[int]:
    if isinstance(t, Const) and t.name.lstrip("-").isdigit():
        return int(t.name)
    return None


def ground_holds(c: Constraint, facts: Optional[set] = None) -> bool:
    """Truth of a ground constraint; user-defined atoms are looked up in the
    fact set. Ill-sorted order comparisons count as false."""
    if not c.is_primitive:
        if facts is None:
            raise ValueError(f"no fact set for user-defined {c!r}")
        return c in facts
    left, right = c.args
    if c.functor == "eq":
        return left == right
    if c.functor == "neq":
        return left != right
    a, b = _order_value(left), _order_value(right)
    if a is None or b is None:
        return False
    return {"le": a <= b, "lt": a < b, "ge": a >= b, "gt": a > b}[c.functor]


def _in_universe(t: Term, terms: set) -> bool:
    return t in terms


def success_set(program: Program, terms: Sequence[Term], max_rounds: int = 100) -> set[Constraint]:
    """Least fixpoint of the program over the universe: every derivable
    ground user atom whose arguments stay inside the universe."""
    term_set = set(terms)
    facts: set[Constraint] = set()
    for _ in range(max_rounds):
        added = False
        for clause in program.clauses:
            for sigma in _clause_groundings(clause, facts, terms):
                head = subst_constraint(sigma, clause.head)
                if all(_in_universe(a, term_set) for a in head.args) and head not in facts:
                    facts.add(head)
                    added = True
        if not added:
            return facts
    return facts


def _clause_groundings(clause, facts: set, terms: Sequence[Term]):
    body_user = sorted(clause.body_user, key=constraint_key)
    body_prim = sorted(clause.body_prim, key=constraint_key)
    facts_by_pred: dict[tuple, list[Constraint]] = {}
    for f in facts:
        facts_by_pred.setdefault((f.functor, len(f.args)), []).append(f)

    def match_atoms(i: int, sigma: Subst):
        if i == len(body_user):
            yield from bind_prims(sigma)
            return
        atom = body_user[i]
        for fact in facts_by_pred.get((atom.functor, len(atom.args)), ()):
            s: Optional[Subst] = dict(sigma)
            for pa, fa in zip(atom.args, fact.args):
                s = unify(pa, fa, s)
                if s is None:
                    break
            if s is not None:
                yield from match_atoms(i + 1, s)

    def bind_prims(sigma: Subst):
        # Equalities may determine further variables via unification.
        s: Optional[Subst] = sigma
        for c in body_prim:
            if c.functor == "eq":
                s = unify(c.args[0], c.args[1], s)
                if s is None:
                    return
        free = sorted(
            {
                v
                for c in [clause.head, *body_user, *body_prim]
                for v in constraints_vars([subst_constraint(s, c)])
            },
            key=lambda v: v.id,
        )
        for combo in itertools.product(terms, repeat=len(free)):
            full = dict(s)
            full.update(zip(free, combo))
            if all(ground_holds(subst_constraint(full, c)) for c in body_prim):
                yield full

    yield from match_atoms(0, {})


@dataclass
class CounterExample:
    assignment: dict
    rule: Rule

    def __str__(self):
        binds = ", ".join(f"{v.id}={t!r}" for v, t in sorted(self.assignment.items(), key=lambda kv: kv[0].id))
        return f"counterexample [{binds}] to {format_constraint(next(iter(self.rule.lhs)))}-rule"


def check_rule(
    rule: Rule, facts: set[Constraint], terms: Sequence[Term]
) -> Optional[CounterExample]:
    """Ground validity of a rule over the universe; None when no
    counterexample exists."""
    lhs_vars = sorted(constraints_vars(rule.lhs), key=lambda v: v.id)
    rhs_locals = sorted(
        constraints_vars(rule.rhs) - set(lhs_vars), key=lambda v: v.id
    )
    for combo in itertools.product(terms, repeat=len(lhs_vars)):
        theta = dict(zip(lhs_vars, combo))
        if not all(
            ground_holds(subst_constraint(theta, c), facts) for c in rule.lhs
        ):
            continue
        if rule.kind == "failure":
            return CounterExample(theta, rule)
        if rule.kind == "splitting":
            if any(ground_holds(subst_constraint(theta, d), facts) for d in rule.rhs):
                continue
            return CounterExample(theta, rule)
        witnessed = False
        for w in itertools.product(terms, repeat=len(rhs_locals)):
            full = dict(theta)
            full.update(zip(rhs_locals, w))
            if all(ground_holds(subst_constraint(full, c), facts) for c in rule.rhs):
                witnessed = True
                break
        if not witnessed:
            return CounterExample(theta, rule)
    return None


def goal_has_ground_solution(
    goal: Iterable[Constraint], facts: set[Constraint], terms: Sequence[Term]
) -> bool:
    """Direct check whether some ground instantiation of the goal holds."""
    goal = list(goal)
    gvars = sorted(constraints_vars(goal), key=lambda v: v.id)
    for combo in itertools.product(terms, repeat=len(gvars)):
        theta = dict(zip(gvars, combo))
        if all(ground_holds(subst_constraint(theta, c), facts) for c in goal):
            return True
    return False
