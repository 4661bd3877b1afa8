"""Goal evaluation: tabled resolution with call subsumption versus the
classical ordered depth-first scheme.

The headline behavior: recursive goals that diverge classically terminate
under tabling because a subsumed call waits for its producer's answers
instead of unfolding.
"""

import itertools
import re
import time

from chrgen import oracle
from chrgen.program import parse_goal, parse_program
from chrgen.resolution import (
    Answers,
    DepthExceeded,
    Evaluation,
    Fails,
    evaluate,
)
from chrgen.solver import entails, store_from
from chrgen.terms import Const, constraints_vars, prim, subst_constraint


# ---------------------------------------------------------------------------
# Call subsumption  [PAPER]
# ---------------------------------------------------------------------------


def test_call_subsumption_append_example(append_program):
    # the recursive subgoal of append is subsumed by the initial goal: it
    # suspends on the root, and the root never consumes the deeper call
    lines = []
    goal = parse_goal("append(A,B,C), B=[], A\\=C")
    assert isinstance(evaluate(append_program, goal, trace=lines.append), Fails)
    suspends = [line for line in lines if line.startswith("suspend:")]
    assert suspends == ["suspend: entry 1 consumes entry 0"]


# ---------------------------------------------------------------------------
# Tabled evaluation on append  [PAPER]
# ---------------------------------------------------------------------------


def test_append_y_nil_x_neq_z_fails_tabled(append_program):
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    assert isinstance(evaluate(append_program, goal, tabling=True), Fails)


def test_append_goals_behind_the_four_rules(append_program):
    # each failing goal certifies one of the published append rules
    for text in (
        "append(X,Y,Z), Y=[], X\\=Z",
        "append(X,Y,Z), X=Z, Y\\=[]",
        "append(X,Y,Z), Y\\=[], X=Z",
        "append(X,Y,Z), X\\=[], Z=[]",
    ):
        assert isinstance(evaluate(append_program, parse_goal(text), tabling=True), Fails), text


def test_append_satisfiable_goal_answers(append_program):
    goal = parse_goal("append(X,Y,Z), X=[a]")
    out = evaluate(append_program, goal, mode="all_answers", tabling=True)
    assert isinstance(out, Answers)
    # every answer forces Z = [a|Y]
    tie = parse_goal("Z=[a|Y]")
    for answer in out.answers:
        s = store_from(answer)
        assert s is not None
        assert all(entails(s, c) for c in tie)


def test_append_ground_answer(append_program):
    goal = parse_goal("append([a],[b],Z)")
    out = evaluate(append_program, goal, mode="all_answers", tabling=True)
    assert isinstance(out, Answers) and len(out.answers) == 1
    (answer,) = out.answers
    s = store_from(answer)
    assert all(entails(s, c) for c in parse_goal("Z=[a,b]"))


# ---------------------------------------------------------------------------
# Where answers are recorded and projected  [DERIVED]
# ---------------------------------------------------------------------------


def test_answers_are_recorded_only_at_the_root_or_producers(append_program):
    # Only producers can ever have consumers, so an answer goes straight to
    # the nearest producer above its leaf, or to the root.
    lines = []
    goal = parse_goal("append(X,Y,Z), X\\=[], Z\\=[]")
    ev = Evaluation(append_program, goal, depth=20, trace=lines.append)
    assert isinstance(ev.run("all_answers"), DepthExceeded)
    producers = {e.idx for entries in ev.producers.values() for e in entries}
    answered = {
        int(re.match(r"answer: entry (\d+):", line).group(1))
        for line in lines
        if line.startswith("answer:")
    }
    assert answered and answered <= producers | {0}


def test_all_answers_to_depth_40_is_fast(append_program):
    # Each answer is projected once, not again at every ancestor.
    goal = parse_goal("append(X,Y,Z), X\\=[], Z\\=[]")
    start = time.perf_counter()
    out = evaluate(append_program, goal, depth=40, mode="all_answers")
    assert isinstance(out, DepthExceeded)
    assert time.perf_counter() - start < 5.0


def test_finite_append_answer_sets_match_oracle(append_program):
    terms = oracle.universe(["a", "b"], list_depth=3)
    facts = oracle.success_set(append_program, terms)
    for text in (
        "append(X,Y,[a,b])",
        "append(X,[b],Z), X=[a]",
        "append(X,Y,[a,U]), U\\=a",
    ):
        goal = parse_goal(text)
        out = evaluate(append_program, goal, mode="all_answers", tabling=True)
        assert isinstance(out, Answers), text
        variables = sorted(constraints_vars(goal))
        # a ground instance satisfies some answer iff it is a solution
        for combo in itertools.product(terms, repeat=len(variables)):
            theta = dict(zip(variables, combo))
            instance = [subst_constraint(theta, c) for c in goal]
            expected = oracle.goal_has_ground_solution(instance, facts, terms)
            bindings = [prim("eq", v, t) for v, t in theta.items()]
            got = any(store_from(list(answer) + bindings) is not None for answer in out.answers)
            assert got == expected, (text, combo)


def test_answer_cap_is_traced(append_program):
    # X=Z, Y=[] has an answer for every list length; the cap ends it.
    lines = []
    goal = parse_goal("append(X,Y,Z), X=Z, Y=[]")
    out = evaluate(append_program, goal, mode="all_answers", answer_cap=8, trace=lines.append)
    assert isinstance(out, DepthExceeded)
    assert "cap: entry 0 reached the answer cap 8" in lines
    assert sum(line.startswith("answer:") for line in lines) == 8


def test_all_answers_stop_once_the_bound_or_the_cap_is_hit(append_program):
    # Neither flag is ever cleared, so the verdict is DEPTH_EXCEEDED from
    # the first depth: or cap: event on, and the evaluation makes no entry
    # after it.
    events = []
    goal = parse_goal("append(X,Y,Z), append(Y,X,W)")
    ev = Evaluation(append_program, goal, depth=12, answer_cap=40)

    def trace(line):
        if line.startswith(("depth:", "cap:")):
            events.append(ev.n_entries)

    ev.trace = trace
    assert isinstance(ev.run("all_answers"), DepthExceeded)
    assert events == [ev.n_entries]
    # The classical scheme stops at its first depth event the same way.
    lines = []
    out = evaluate(append_program, goal, depth=8, mode="all_answers", tabling=False,
                   trace=lines.append)
    assert isinstance(out, DepthExceeded)
    assert lines.count("classical: depth bound exceeded") == 1
    assert lines[-1] == "classical: depth bound exceeded"

def test_deep_answers_reach_the_answer_cap(append_program):
    # Each answer is one list element longer than the last; the 350th
    # binds X to 349 elements, which must hash and compare without running
    # into Python's recursion limit.
    goal = parse_goal("append(X,Y,Z), X=Z, Y=[]")
    out = evaluate(append_program, goal, mode="all_answers", answer_cap=350)
    assert isinstance(out, DepthExceeded)


# ---------------------------------------------------------------------------
# Classical scheme: divergence where tabling terminates  [PAPER]
# ---------------------------------------------------------------------------


def test_classical_diverges_on_trailing_constraints(append_program):
    # classically the recursion unfolds forever: the disequality trails the
    # derivation and never prunes it
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    out = evaluate(append_program, goal, depth=200, tabling=False)
    assert isinstance(out, DepthExceeded)


def test_classical_agrees_on_ground_failure(append_program):
    goal = parse_goal("append([a],[b],[b])")
    assert isinstance(evaluate(append_program, goal, tabling=False), Fails)


def test_classical_goal_primitives_do_not_prune(append_program):
    # a goal is a set, so its primitive part trails the recursion and the
    # classical scheme cannot use it to cut the infinite unfolding
    goal = parse_goal("append(X,Y,Z), X=[], Y=[a], Z=[b]")
    assert isinstance(evaluate(append_program, goal, tabling=False), DepthExceeded)
    assert isinstance(evaluate(append_program, goal, tabling=True), Fails)


def test_classical_agrees_on_ground_success(append_program):
    goal = parse_goal("append([a],[b],Z)")
    out = evaluate(append_program, goal, mode="all_answers", tabling=False)
    assert isinstance(out, Answers) and len(out.answers) == 1


def test_depth_bound_reported(append_program):
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    assert isinstance(evaluate(append_program, goal, depth=5, tabling=True), Fails)
    assert isinstance(evaluate(append_program, goal, depth=5, tabling=False), DepthExceeded)


def test_deep_spine_reaches_the_depth_bound(append_program):
    # at every level clause 1 equates the list's tail with the list itself;
    # the occurs check rejects that at the end of an ever longer spine, and
    # must do so without running out of stack
    goal = parse_goal("append(X,Y,Z), Y=Z, X\\=[]")
    for tabling in (True, False):
        out = evaluate(append_program, goal, depth=400, tabling=tabling)
        assert isinstance(out, DepthExceeded)


# ---------------------------------------------------------------------------
# Finite domains: both schemes match the ground oracle  [DERIVED]
# ---------------------------------------------------------------------------


def test_ground_queries_match_oracle(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    for functor, arity in (("neg", 2), ("xor", 3), ("and", 3), ("min", 3)):
        for combo in itertools.product("01", repeat=arity):
            args = ",".join(combo)
            goal = parse_goal(f"{functor}({args})")
            expected = oracle.goal_has_ground_solution(goal, facts, terms)
            for tabling in (True, False):
                out = evaluate(bool_program, goal, tabling=tabling)
                got = isinstance(out, Answers)
                assert got == expected, (functor, combo, tabling)


def test_free_query_answer_sets_match_oracle(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    goal = parse_goal("xor(X,Y,Z)")
    out = evaluate(bool_program, goal, mode="all_answers", tabling=True)
    assert isinstance(out, Answers)
    # a ground triple satisfies some answer iff it is a fact
    for combo in itertools.product(terms, repeat=3):
        fact = parse_goal(f"xor({','.join(t.name for t in combo)})")
        expected = oracle.goal_has_ground_solution(fact, facts, terms)
        got = any(
            store_from(list(answer) + [c for c in _bindings(combo)]) is not None
            for answer in out.answers
        )
        assert got == expected, combo


def _bindings(combo):
    from chrgen.terms import Var, prim

    return [prim("eq", Var(n), t) for n, t in zip(("X", "Y", "Z"), combo)]


# ---------------------------------------------------------------------------
# Trace output
# ---------------------------------------------------------------------------


def test_trace_reports_subsumption(append_program):
    lines = []
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    evaluate(append_program, goal, tabling=True, trace=lines.append)
    text = "\n".join(lines)
    assert "suspend" in text or "consume" in text
