"""Interpreter for the emitted rules: head matching, guard checks,
simplification versus propagation firing, and splitting branches."""

import pytest

from chrgen import runtime
from chrgen.emit import encode_rule
from chrgen.program import format_constraint, parse_goal
from chrgen.rules import parse_rules
from chrgen.terms import Var


def _rules(text):
    return [encode_rule(r) for r in parse_rules(text).rules]


def _leaf_strings(leaves):
    out = []
    for leaf in leaves:
        out.append(sorted(
            format_constraint(c)
            for c in leaf.user_constraints | leaf.primitive_constraints
        ))
    return sorted(out)


MIN_RULES = """
min(X,Y,Z), X#=<Y <=> Z=X, X#=<Y.
min(X,Y,Z), Y#=<X <=> Z=Y, Y#=<X.
min(X,Y,Z) ==> Z#=<X, Z#=<Y.
"""


def test_min_simplification_fires():
    leaves = runtime.run(_rules(MIN_RULES), parse_goal("min(1,2,Z)"))
    assert _leaf_strings(leaves) == [["Z=1"]]


def test_guard_blocks_wrong_branch():
    leaves = runtime.run(_rules(MIN_RULES), parse_goal("min(5,3,Z)"))
    assert _leaf_strings(leaves) == [["Z=3"]]


def test_propagation_adds_but_keeps_head():
    leaves = runtime.run(_rules("min(X,Y,Z) ==> Z#=<X, Z#=<Y."), parse_goal("min(A,B,C)"))
    (leaf,) = leaves
    assert any(not c.is_primitive for c in leaf.user_constraints)
    assert len(leaf.primitive_constraints) == 2


def test_propagation_fires_once_per_match():
    # without the once-per-match bookkeeping this would loop forever
    leaves = runtime.run(_rules("p(X) ==> X#=<X."), parse_goal("p(A)"))
    assert len(leaves) == 1


def test_failure_rule_prunes():
    rules = _rules("p(X), X=a ==> false.")
    assert runtime.run(rules, parse_goal("p(a)")) == []
    leaves = runtime.run(rules, parse_goal("p(b)"))
    assert len(leaves) == 1


def test_splitting_rule_branches():
    rules = _rules("p(X,Y) ==> X=a ; Y=a.")
    leaves = runtime.run(rules, parse_goal("p(U,V)"))
    assert len(leaves) == 2
    flat = _leaf_strings(leaves)
    assert any("U=a" in leaf for leaf in flat)
    assert any("V=a" in leaf for leaf in flat)


def test_splitting_branch_inconsistent_with_store_dies():
    rules = _rules("p(X,Y) ==> X=a ; Y=a.")
    leaves = runtime.run(rules, parse_goal("p(U,V), U=b"))
    # only the second alternative survives U=b
    assert len(leaves) == 1
    assert ["U=b", "V=a", "p(U,V)"] in _leaf_strings(leaves) or len(_leaf_strings(leaves)[0]) == 3


def test_inconsistent_goal_has_no_leaves():
    assert runtime.run(_rules(MIN_RULES), parse_goal("min(1,2,Z), Z=5")) == []


def test_step_limit():
    with pytest.raises(runtime.StepLimitExceeded):
        runtime.run(_rules(MIN_RULES), parse_goal("min(1,2,Z)"), step_limit=0)


CHAIN_RULES = """
p(X) <=> q(X).
q(X) <=> r(X).
r(X) ==> s(X).
"""


def test_step_limit_boundary_is_exact():
    # Attempts: p: rule 1 fires (1); q: 1, 2 fires (3); r: 1, 2, 3 fires (6);
    # r, s: 1, 2, and 3 blocked by the history (9), a leaf.
    rules, goal = _rules(CHAIN_RULES), parse_goal("p(A)")
    assert _leaf_strings(runtime.run(rules, goal, step_limit=9)) == [["r(A)", "s(A)"]]
    with pytest.raises(runtime.StepLimitExceeded):
        runtime.run(rules, goal, step_limit=8)


def test_splitting_branches_stay_independent():
    rules = _rules("""
p(X) ==> X=a ; X=b.
p(X), X=a ==> q(X).
p(X), X=b ==> r(X).
""")
    leaves = runtime.run(rules, parse_goal("p(U)"))
    got = sorted(
        (
            [format_constraint(c) for c in leaf.user.values()],
            [format_constraint(c) for c in leaf.store.constraints],
            sorted(leaf.history),
            leaf.next_id,
        )
        for leaf in leaves
    )
    assert got == [
        (["p(U)", "q(a)"], ["U=a"], [(0, (0,)), (1, (0,))], 2),
        (["p(U)", "r(b)"], ["U=b"], [(0, (0,)), (2, (0,))], 2),
    ]


def test_inconsistent_single_body_leaves_no_leaf():
    assert runtime.run(_rules("p(X) <=> X=a."), parse_goal("p(U), U=b")) == []
    # The user constraint added before the clash goes with the state.
    assert runtime.run(_rules("p(X) ==> q(X), X=a."), parse_goal("p(b)")) == []


def test_body_locals_are_fresh_per_firing():
    leaves = runtime.run(_rules("p(X) ==> q(X,W)."), parse_goal("p(A), p(B)"))
    (leaf,) = leaves
    qs = sorted((c for c in leaf.user.values() if c.functor == "q"), key=str)
    assert [q.args[0] for q in qs] == [Var("A"), Var("B")]
    w1, w2 = (q.args[1] for q in qs)
    assert isinstance(w1, Var) and isinstance(w2, Var)
    assert w1 != w2 and {w1, w2}.isdisjoint({Var("A"), Var("B"), Var("W")})
