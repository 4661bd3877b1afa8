"""Ground oracle: rule validity and engine soundness decided on ground terms
over a bounded alphabet, the universe.

Everything here is deliberately independent of the tabled engine, the
solver and the miner. Primitive constraints are checked directly on ground
terms, and user-defined atoms against the success set: the least fixpoint
of the program over the universe, computed bottom up. The fixpoint is
semi-naive (Bancilhon and Ramakrishnan, 1986): each evaluation of a clause
builds only the groundings that use at least one fact derived since that
clause's previous evaluation.

Rule and goal checks enumerate only the assignments the facts allow. A
constraint is checked as soon as it is ground, a user atom is joined
against the facts of its predicate, and an equality with one ground side
is matched; only a variable that none of these determine is enumerated
over the universe. Every value bound lies in the universe, so the verdicts
are those of trying every assignment of universe terms to the variables,
and a counterexample is the first such assignment in that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .program import Clause, Program, format_term
from .rules import Rule, format_rule
from .terms import (
    Const,
    Constraint,
    Subst,
    Term,
    apply_subst,
    constraint_key,
    constraint_vars,
    constraints_vars,
    make_list,
    match_term,
    subst_constraint,
    term_vars,
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


def _match(pairs: Iterable[tuple[Term, Term]], s: Subst) -> Optional[Subst]:
    """s extended so that each pattern becomes its ground value, or None."""
    for pattern, value in pairs:
        s = match_term(pattern, value, s)
        if s is None:
            return None
    return s


def success_set(program: Program, terms: Sequence[Term], max_rounds: int = 100) -> set[Constraint]:
    """Least fixpoint of the program over the universe: every derivable
    ground user atom whose arguments stay inside the universe.

    Each round evaluates the clauses in order, each against the facts known
    when its evaluation starts. An evaluation builds only the groundings
    that use a fact derived since the clause's previous evaluation; the
    others were built then, so the facts after each evaluation, and after
    ``max_rounds`` rounds, are those of building every grounding each time.
    """
    term_set = set(terms)
    facts: set[Constraint] = set()
    derived: dict[tuple, list[Constraint]] = {}  # per predicate, in order derived
    clauses = [
        (
            clause,
            sorted(clause.body_user, key=constraint_key),
            sorted(clause.body_prim, key=constraint_key),
        )
        for clause in program.clauses
    ]
    previous: list[Optional[dict]] = [None] * len(clauses)
    for _ in range(max_rounds):
        added = False
        for i, (clause, body_user, body_prim) in enumerate(clauses):
            now = {key: len(found) for key, found in derived.items()}
            for head in _clause_heads(
                clause, body_user, body_prim, derived, previous[i], now, terms
            ):
                if head not in facts and all(a in term_set for a in head.args):
                    facts.add(head)
                    derived.setdefault((head.functor, len(head.args)), []).append(head)
                    added = True
            previous[i] = now
        if not added:
            return facts
    return facts


def _clause_heads(
    clause: Clause,
    body_user: list[Constraint],
    body_prim: list[Constraint],
    derived: dict[tuple, list[Constraint]],
    previous: Optional[dict],
    now: dict,
    terms: Sequence[Term],
):
    """The clause's head under each of its groundings whose body atoms
    match facts derived before ``now``, at least one of them since
    ``previous`` (any of them when the clause was not evaluated before).
    ``now`` and ``previous`` give the number of facts of each predicate at
    the two evaluations. Variables left in the head are bound by matching
    its arguments against the universe terms; only those that occur in no
    head argument are enumerated over the universe."""
    term_set = set(terms)
    keys = [(atom.functor, len(atom.args)) for atom in body_user]
    if previous is None:
        plans = [[(0, now.get(key, 0)) for key in keys]]
    else:
        # Atom i takes the new facts, the atoms before it only old ones and
        # the atoms after it any: each grounding is built once.
        plans = []
        for i, key in enumerate(keys):
            old, new = previous.get(key, 0), now.get(key, 0)
            if old == new:
                continue
            plans.append(
                [(0, previous.get(k, 0)) for k in keys[:i]]
                + [(old, new)]
                + [(0, now.get(k, 0)) for k in keys[i + 1 :]]
            )

    def match_atoms(plan, i: int, sigma: Subst):
        if i == len(body_user):
            yield from bind_prims(sigma)
            return
        atom = body_user[i]
        found = derived.get(keys[i], ())
        lo, hi = plan[i]
        for fact in itertools.islice(found, lo, hi):
            # The facts are ground, so matching binds as unifying would.
            s = _match(zip(atom.args, fact.args), sigma)
            if s is not None:
                yield from match_atoms(plan, i + 1, s)

    def bind_prims(sigma: Subst):
        # Equalities may determine further variables via unification. The
        # unifier makes them hold, so only the other primitives are checked.
        s: Optional[Subst] = sigma
        for c in body_prim:
            if c.functor == "eq":
                s = unify(c.args[0], c.args[1], s)
                if s is None:
                    return
        head = subst_constraint(s, clause.head)
        rest = [subst_constraint(s, c) for c in body_prim if c.functor != "eq"]
        head_vars = constraint_vars(head)
        # The body atoms matched ground facts: only primitives keep variables.
        free = sorted(
            constraints_vars(subst_constraint(s, c) for c in body_prim) - head_vars,
            key=lambda v: v.id,
        )
        patterns = [(arg, vs) for arg in head.args if (vs := term_vars(arg))]
        for sigma in match_head(patterns, 0, {}):
            for combo in itertools.product(terms, repeat=len(free)):
                theta = dict(sigma)
                theta.update(zip(free, combo))
                if all(ground_holds(subst_constraint(theta, c)) for c in rest):
                    yield subst_constraint(theta, head)

    def match_head(patterns, i: int, sigma: Subst):
        # A head is kept only when its arguments lie in the universe, so
        # each head argument with variables is matched against the universe
        # terms; a value bound this way must lie in the universe too.
        if i == len(patterns):
            yield sigma
            return
        arg, arg_vars = patterns[i]
        for t in terms:
            s = match_term(arg, t, sigma)
            if s is not None and all(s[v] in term_set for v in arg_vars if v not in sigma):
                yield from match_head(patterns, i + 1, s)

    for plan in plans:
        yield from match_atoms(plan, 0, {})


class _Ground:
    """The facts and the universe that rule and goal checks read, with the
    facts indexed by predicate."""

    def __init__(self, facts: set[Constraint], terms: Sequence[Term]):
        self.facts = facts
        self.terms = terms
        self.term_set = set(terms)
        self.by_pred: dict[tuple, list[Constraint]] = {}
        for f in facts:
            self.by_pred.setdefault((f.functor, len(f.args)), []).append(f)

    @staticmethod
    def pending(constraints: Iterable[Constraint]) -> list[tuple]:
        """The constraints to satisfy, each with its variables and, for an
        equality, the variables of each side."""
        return [
            (c, constraint_vars(c), [term_vars(a) for a in c.args] if c.functor == "eq" else ())
            for c in sorted(constraints, key=constraint_key)
        ]

    def solutions(self, pending: list[tuple], theta: Subst) -> Iterator[Subst]:
        """Every extension of the ground assignment ``theta`` to the
        variables of ``pending``, with values in the universe, under which
        all of its constraints hold."""
        bound = theta.keys()
        rest = []
        for entry in pending:
            c, cvars, _ = entry
            if bound >= cvars:
                if not ground_holds(subst_constraint(theta, c), self.facts):
                    return
            else:
                rest.append(entry)
        if not rest:
            yield theta
            return
        for c, cvars, sides in rest:
            for i, side in enumerate(sides):
                if bound >= side:
                    value = apply_subst(theta, c.args[i])
                    yield from self._bind(rest, theta, cvars, [(c.args[1 - i], value)])
                    return
        for c, cvars, _ in rest:
            if not c.is_primitive:
                for fact in self.by_pred.get((c.functor, len(c.args)), ()):
                    yield from self._bind(rest, theta, cvars, zip(c.args, fact.args))
                return
        var = min((v for _, cvars, _ in rest for v in cvars - bound), key=lambda v: v.id)
        for t in self.terms:
            yield from self.solutions(rest, {**theta, var: t})

    def _bind(self, pending, theta: Subst, cvars, pairs) -> Iterator[Subst]:
        """Solutions once each pattern is matched against its ground value,
        when every variable this binds lands in the universe."""
        s = _match(pairs, theta)
        if s is not None and all(s[v] in self.term_set for v in cvars if v not in theta):
            yield from self.solutions(pending, s)


@dataclass
class CounterExample:
    assignment: dict
    rule: Rule

    def __str__(self):
        binds = ", ".join(
            f"{v.id}={format_term(t)}"
            for v, t in sorted(self.assignment.items(), key=lambda kv: kv[0].id)
        )
        return f"counterexample [{binds}] to {format_rule(self.rule)}"


def check_rule(
    rule: Rule, facts: set[Constraint], terms: Sequence[Term]
) -> Optional[CounterExample]:
    """Ground validity of a rule over the universe; None when no
    counterexample exists. Of several, the one returned is the first in
    the order of ``terms``, with the lhs variables taken by name."""
    ground = _Ground(facts, terms)
    lhs_vars = sorted(constraints_vars(rule.lhs), key=lambda v: v.id)
    rhs = ground.pending(rule.rhs)
    position: dict[Term, int] = {}
    for i, t in enumerate(terms):
        position.setdefault(t, i)
    first = None  # (position key, assignment) of the first counterexample
    for theta in ground.solutions(ground.pending(rule.lhs), {}):
        key = [position[theta[v]] for v in lhs_vars]
        if first is not None and key >= first[0]:
            continue
        if rule.kind == "splitting":
            if any(ground_holds(subst_constraint(theta, d), facts) for d in rule.rhs):
                continue
        elif rule.kind != "failure":
            if next(ground.solutions(rhs, theta), None) is not None:
                continue
        first = (key, theta)
    if first is None:
        return None
    return CounterExample({v: first[1][v] for v in lhs_vars}, rule)


def goal_has_ground_solution(
    goal: Iterable[Constraint], facts: set[Constraint], terms: Sequence[Term]
) -> bool:
    """Direct check whether some ground instantiation of the goal holds."""
    ground = _Ground(facts, terms)
    return next(ground.solutions(ground.pending(goal), {}), None) is not None
