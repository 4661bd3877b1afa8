"""Runtime for the emitted rules: head matching, guard checks,
simplification versus propagation firing, and splitting branches; and the
compiled rules against the interpreter they replaced."""

import itertools
import re
from pathlib import Path

import pytest

from chrgen import runtime, terms
from chrgen.emit import ChrRule, encode_rule
from chrgen.program import format_constraint, parse_goal
from chrgen.rules import parse_rules
from chrgen.solver import assert_all, entails, store_from
from chrgen.terms import (
    Const,
    Constraint,
    Var,
    constraint_key,
    fresh_var,
    match_subst_constraint,
    match_term,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


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


# ---------------------------------------------------------------------------
# The compiled rules against the interpreter they replaced
# ---------------------------------------------------------------------------
#
# The reference below matches every rule on every step through the generic
# ``match_term``, rebuilds the constraint index each time a state is taken
# up, and builds each body constraint with ``match_subst_constraint``.


def _ref_index(state):
    find = state.store.find
    index = {}
    for cid, c in state.user.items():
        index.setdefault((c.functor, len(c.args)), []).append(
            (cid, tuple(a if a.__class__ is Const else find(a) for a in c.args))
        )
    return index


def _ref_match_args(pats, args, sigma):
    for pat, arg in zip(pats, args):
        sigma = match_term(pat, arg, sigma)
        if sigma is None:
            return None
    return sigma


def _ref_match_heads(rule, index):
    pools = [index.get(sig, ()) for sig in rule.signature]
    for combo in itertools.product(*pools):
        ids = tuple(cid for cid, _ in combo)
        if len(set(ids)) < len(ids):
            continue
        sigma = {}
        for head, (_, args) in zip(rule.heads, combo):
            sigma = _ref_match_args(head.args, args, sigma)
            if sigma is None:
                break
        if sigma is not None:
            yield ids, sigma


def _ref_apply_body(rule, idx, ids, sigma, body, local_vars, state):
    if rule.kind == "simplification":
        for cid in ids:
            del state.user[cid]
    else:
        state.history.add((idx, ids))
    if local_vars:
        sigma = sigma | {v: fresh_var("_R") for v in local_vars}
    for c in body:
        inst = match_subst_constraint(sigma, c)
        if inst.is_primitive:
            if not assert_all(state.store, (inst,)):
                return False
        elif inst not in state.user.values():
            state.user[state.next_id] = inst
            state.next_id += 1
    return True


def _ref_fire(rule, idx, state, index):
    for ids, sigma in _ref_match_heads(rule, index):
        if rule.keeps_heads and (idx, ids) in state.history:
            continue
        if not all(entails(state.store, match_subst_constraint(sigma, g)) for g in rule.guard):
            continue
        if rule.kind == "failure":
            return []
        if len(rule.alternatives) == 1:
            body, local_vars = rule.alternatives[0]
            ok = _ref_apply_body(rule, idx, ids, sigma, body, local_vars, state)
            return [state] if ok else []
        branches = []
        for body, local_vars in rule.alternatives:
            branch = state.copy()
            if _ref_apply_body(rule, idx, ids, sigma, body, local_vars, branch):
                branches.append(branch)
        return branches
    return None


def _ref_run(chr_rules, goal, step_limit=10_000):
    goal = sorted(goal, key=constraint_key)
    store = store_from([c for c in goal if c.is_primitive])
    if store is None:
        return []
    users = {i: c for i, c in enumerate(c for c in goal if not c.is_primitive)}
    leaves, pending, steps = [], [runtime.State(users, store, set(), len(users))], 0
    while pending:
        state = pending.pop()
        index = _ref_index(state)
        for idx, rule in enumerate(chr_rules):
            steps += 1
            if steps > step_limit:
                raise runtime.StepLimitExceeded(f"exceeded {step_limit} rule-match steps")
            branches = _ref_fire(rule, idx, state, index)
            if branches is not None:
                pending.extend(branches)
                break
        else:
            leaves.append(state)
    return leaves


STEP_LIMITS = (1, 2, 3, 5, 8, 13, 37, 101, 1000)


def _outcome(run, rules, goal, step_limit, monkeypatch):
    """The leaves, with ids, store order, history and next id, or the
    step-limit message. Fresh variables are numbered from 1 on each run."""
    monkeypatch.setattr(terms, "_counter", itertools.count(1))
    try:
        leaves = run(rules, goal, step_limit=step_limit)
    except runtime.StepLimitExceeded as exc:
        return str(exc)
    return [
        (list(leaf.user.items()), list(leaf.store.constraints), sorted(leaf.history), leaf.next_id)
        for leaf in leaves
    ]


def _assert_matches_reference(rules, goals, monkeypatch, step_limits=STEP_LIMITS):
    """The same outcome as the reference at each step limit; where the
    runtime stops a run at a repeated state, the reference must run into
    the step limit instead. Returns how often the repeat check fired."""
    repeats = 0
    for text in goals:
        goal = parse_goal(text)
        for limit in step_limits:
            got = _outcome(runtime.run, rules, goal, limit, monkeypatch)
            want = _outcome(_ref_run, rules, goal, limit, monkeypatch)
            if isinstance(got, str) and " repeats " in got:
                repeats += 1
                assert want == f"exceeded {limit} rule-match steps", (text, limit)
            else:
                assert got == want, (text, limit)
    return repeats


def _ground_prefix_goals(functor, values):
    """Every goal ``functor(A,B,C)`` with each argument a value or its own
    variable."""
    choices = [(*values, v) for v in ("X", "Y", "Z")]
    return [f"{functor}({','.join(args)})" for args in itertools.product(*choices)]


def test_compiled_min_solver_matches_reference(monkeypatch):
    # The min --mode all transform: splitting, propagation and
    # simplification rules over one predicate.
    rules = _rules((GOLDEN / "min_all_transform.txt").read_text())
    goals = _ground_prefix_goals("min", ("0", "1", "2")) + [
        "min(X,Y,Z), X#=<Y",
        "min(X,Y,Z), Z=X, Y\\=Z",
        "min(X,Y,Z), min(Y,X,W)",
    ]
    _assert_matches_reference(rules, goals, monkeypatch)


@pytest.mark.parametrize(
    "name", ["and_min", "and_split", "bool_full", "min_split", "min_sym", "xor"]
)
def test_compiled_bool_solvers_match_reference(name, monkeypatch):
    # The transforms of the six bool specs; the xor and min_sym solvers swap
    # arguments forever, and so run into every step limit.
    rules = _rules((DATA / "chr" / f"{name}.rules").read_text())
    functors = sorted({h.functor for r in rules for h in r.heads})
    goals = [g for f in functors for g in _ground_prefix_goals(f, ("0", "1"))]
    goals += [f"{f}(X,Y,Z), {f}(Y,X,Z), Z=1" for f in functors]
    repeats = _assert_matches_reference(rules, goals, monkeypatch)
    assert (repeats > 0) == (name in ("min_sym", "xor"))


@pytest.mark.parametrize("name, functor", [("xor", "xor"), ("min_sym", "min")])
def test_swapping_solvers_stop_at_the_first_repeat(name, functor):
    # Both solvers begin with an unconditional argument swap, so every
    # ground goal cycles through at most two states: the run stops two
    # take-ups after the check starts, not at the step limit.
    rules = _rules((DATA / "chr" / f"{name}.rules").read_text())
    for args in itertools.product("01", repeat=3):
        with pytest.raises(runtime.StepLimitExceeded) as exc:
            runtime.run(rules, parse_goal(f"{functor}({','.join(args)})"))
        message = str(exc.value)
        assert re.fullmatch(
            r"the state at take-up 1[78] repeats the one at take-up 16,"
            r" so the run would exceed 10000 rule-match steps",
            message,
        ), message


def test_a_long_run_through_new_states_is_not_stopped(monkeypatch):
    # Every take-up has the same sizes, one user constraint and an empty
    # history and store, but a different user constraint: no repeat.
    rules = _rules("c(s(X)) <=> c(X).")
    text = f"c({'s(' * 40}0{')' * 40})"
    assert _assert_matches_reference(rules, [text], monkeypatch) == 0
    (leaf,) = runtime.run(rules, parse_goal(text))
    assert list(leaf.user.values()) == list(parse_goal("c(0)"))


def test_a_state_whose_store_grows_runs_to_the_limit():
    # Each firing asserts an entailed primitive again, so the store grows
    # and the state is never compared: the run ends at the step limit.
    rules = _rules("p(X) <=> X=0, p(X).")
    with pytest.raises(runtime.StepLimitExceeded, match=r"^exceeded 1000 rule-match steps$"):
        runtime.run(rules, parse_goal("p(A)"), step_limit=1000)


def test_compiled_append_solver_matches_reference(monkeypatch):
    rules = _rules((DATA / "chr" / "append.rules").read_text())
    goals = [
        "append([],Y,Z)",
        "append(X,[],Z)",
        "append(X,Y,[])",
        "append([a],[b],Z)",
        "append(X,Y,Z), X=Z",
        "append([a|T],Y,[b|W])",
        "append(X,Y,Z), append(Z,Y,X), Y\\=[]",
    ]
    _assert_matches_reference(rules, goals, monkeypatch, STEP_LIMITS + (10_000,))


HAND_RULES = """
p(X,Y), q(Y,Z) ==> r(X,Z).
r(X,[H|T]) <=> s(H), r(X,T).
r(X,[]), s(X) <=> done(X).
s(X), X#=<1 ==> t(X).
s(X), X#=<V ==> u(X,V).
t(X), X=1 ==> false.
w(X,X) <=> w(X).
w(f(a),Y) <=> Y=b.
p(X,Y), p(Y,X) <=> X=Y, p(X,X).
q(X,Y) ==> Y=W ; v(X,W).
"""


def test_compiled_hand_written_rules_match_reference(monkeypatch):
    # Heads sharing a variable, a list pattern, a ground compound pattern, a
    # repeated variable, two heads of one predicate, guards (one with a
    # variable no head binds), a failure rule, a propagation rule refiring
    # on each new tuple, and a splitting rule with a local in its bodies.
    rules = _rules(HAND_RULES)
    # A splitting alternative of several constraints, one of them fresh,
    # with the user constraint before and after the primitive.
    (split,) = _rules("z(X,Y) ==> a(X).")
    rules.append(ChrRule(
        "splitting",
        split.heads,
        (),
        (tuple(parse_goal("y(X,W), W=Y, y(W,X)")), tuple(parse_goal("X=Y"))),
    ))
    goals = [
        "p(a,b), q(b,c), q(b,d), p(e,b)",
        "p(A,B), p(B,A)",
        "p(A,B), q(B,C), B=b",
        "r(0,[2,3,0])",
        "r(X,[0,1]), s(2)",
        "r(X,L), L=[2,0|T], T=[]",
        "w(U,U), w(f(a),V)",
        "w(f(A),B), A=a",
        "s(0), s(V), V#=<1",
        "z(A,B), z(B,A)",
        "z(A,B), A=c, B=d",
        "q(A,B), z(A,B)",
    ]
    _assert_matches_reference(rules, goals, monkeypatch, STEP_LIMITS + (10_000,))


def test_input_text_never_becomes_source():
    # Functors reach the compiled source only through repr, and constants
    # only through the shared tuple, whatever characters they hold.
    functor, const = "p') or 1/0 or ('\n", Const("a'); raise SystemExit; ('")
    rule = ChrRule(
        "simplification",
        (Constraint(functor, (const, Var("X"))),),
        (),
        ((Constraint('q"\n', (Var("X"), const)),),),
    )
    (leaf,) = runtime.run([rule], [Constraint(functor, (const, Const("b")))])
    assert list(leaf.user.values()) == [Constraint('q"\n', (Const("b"), const))]


def test_deep_list_patterns_compile_and_run():
    # The compiled source stays flat however deep the patterns are: a head
    # pattern is unfolded one line per list cell, and a body list is built
    # innermost cell first.
    n = 1000
    cells = ",".join(["a"] * n)
    rules = _rules(f"p([{cells}|T]) <=> q([{cells}|T], T).")
    (leaf,) = runtime.run(rules, parse_goal(f"p([{cells},b])"))
    (q,) = leaf.user.values()
    assert {q} == parse_goal(f"q([{cells},b], [b])")
