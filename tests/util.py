"""Small helpers shared by the test modules."""

from chrgen.resolution import FAILS, Answers, _answers_on_store, _leading_primitives, _unfold
from chrgen.rules import RuleSet, format_rule
from chrgen.solver import assert_all, simplify, store_from
from chrgen.terms import PRIMITIVE_RELATIONS, Constraint, Term, Var, constraint_key


def atom(functor: str, *args: Term) -> Constraint:
    """A user-defined constraint ``functor(args...)``."""
    return Constraint(functor, tuple(args))


def prim(rel: str, left: Term, right: Term) -> Constraint:
    """A primitive constraint ``rel(left, right)``."""
    assert rel in PRIMITIVE_RELATIONS
    return Constraint(rel, (left, right))


def decided_on_store(goal, mode: str, table):
    """The outcome of a goal read off its answer table by the store path
    alone: each answer on a store of the goal's primitives."""
    store = store_from(sorted((c for c in goal if c.is_primitive), key=constraint_key))
    if store is None:
        return FAILS
    found = _answers_on_store(store, table, goal, mode)
    return Answers(tuple(found)) if found else FAILS


def classical_finite_by_depth(program, store, seq, depth) -> bool:
    """Reference for ``resolution._classical_finite``: the same depth-first
    search without the loop check, which finds an infinite tree only by
    running a path into the depth bound or the step cap."""
    store.begin_trail()
    stack = [(store.mark(), seq, depth)]
    steps = 0
    while stack:
        steps += 1
        if steps > 200_000:
            return False
        mark, seq, d = stack.pop()
        store.undo(mark)
        split = _leading_primitives(seq)
        if split:
            if not assert_all(store, seq[:split]):
                continue
            seq = seq[split:]
        if not seq:
            continue
        if d <= 0:
            return False
        stack.extend(_unfold(program, store.mark(), seq, d))
    return True


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
