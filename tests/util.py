"""Small helpers shared by the test modules."""

from chrgen.resolution import FAILS, Answers, _answers_on_store
from chrgen.rules import RuleSet, format_rule
from chrgen.solver import simplify, store_from
from chrgen.terms import Constraint, Term, Var, constraint_key


def atom(functor: str, *args: Term) -> Constraint:
    """A user-defined constraint ``functor(args...)``."""
    return Constraint(functor, tuple(args))


def decided_on_store(goal, mode: str, table):
    """The outcome of a goal read off its answer table by the store path
    alone: each answer on a store of the goal's primitives."""
    store = store_from(sorted((c for c in goal if c.is_primitive), key=constraint_key))
    if store is None:
        return FAILS
    found = _answers_on_store(store, table, goal, mode)
    return Answers(tuple(found)) if found else FAILS


def rule_lines(rs: RuleSet) -> set[str]:
    """The formatted rules of a set, as a set of one-line strings."""
    return {format_rule(r) for r in rs.rules}


def canonical_keys(rs: RuleSet) -> set[tuple]:
    return {r.canonical_key() for r in rs.rules}


class OwnNames(dict):
    """A renaming for Store.find under which a representative not entered
    keeps its own name."""

    def __missing__(self, r):
        return r


def project_by_simplify(s, keep, names):
    """Reference projection of a store onto ``keep``: the residue read off
    its union-find, built into a store from scratch and simplified.

    ``names`` is the renaming that :meth:`Store.find` applies to unbound
    representatives; the kept ones are entered into it here, and it decides
    what the others are called.
    """
    bound = []
    for v in sorted(keep):
        r = s.walk(v)
        if isinstance(r, Var) and r not in names:
            names[r] = v
        else:
            bound.append(v)
    memo = {}
    residue = {Constraint("eq", (v, s.find(v, memo, names))) for v in bound}
    for rel, pairs in (("neq", s.suspended_neqs), ("lt", s.strict), ("le", s.nonstrict)):
        for l, r in pairs:
            residue.add(Constraint(rel, (s.find(l, memo, names), s.find(r, memo, names))))
    store = store_from(sorted(residue, key=constraint_key))
    if store is None:
        return frozenset(residue)
    return simplify(store)
