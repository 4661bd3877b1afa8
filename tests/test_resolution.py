"""Goal evaluation: tabled resolution with call subsumption versus the
classical ordered depth-first scheme.

The headline behavior: recursive goals that diverge classically terminate
under tabling because a subsumed call waits for its producer's answers
instead of unfolding.
"""

import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import chrgen
from chrgen import miner, oracle, resolution, solver, terms, transform
from chrgen.program import format_constraints, parse_goal, parse_program, parse_spec
from chrgen.resolution import (
    ANSWER_CAP,
    FAILS,
    Answers,
    DepthExceeded,
    Evaluation,
    Fails,
    _classical_finite,
    _from_table,
    _reaches_recursion,
    evaluate,
)
from chrgen.rules import parse_rules
from chrgen.solver import Store, entails, project, store_from
from chrgen.terms import (
    NIL,
    ORDER_RELATIONS,
    Compound,
    Const,
    Var,
    cons,
    constraint_key,
    constraints_vars,
    match_subst_constraint,
    match_subst_constraints,
    renaming_for,
    subst_constraint,
)

from conftest import DATA
from util import (
    OwnNames,
    atom,
    classical_finite_by_depth,
    decided_on_store,
    prim,
    project_by_simplify,
)


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
# Clause renaming
# ---------------------------------------------------------------------------


def test_each_parsed_clause_compiles_its_own_renamer_once():
    # The renamer lives on the clause object: two parses of one program
    # compile one renamer per clause each, though their clauses are equal,
    # and a clause resolved again, tabled or classically, compiles nothing.
    # One compile sets both functions, the tabled ``rename`` and the
    # classical ``bind``.
    text = (DATA / "append.clp").read_text()
    goal = parse_goal("append(X,Y,Z), X\\=[]")
    first, second = parse_program(text), parse_program(text)
    assert first.clauses == second.clauses
    with mock.patch.object(
        resolution, "_compile_renamer", wraps=resolution._compile_renamer
    ) as compile_renamer:

        def compiled():
            return [id(call.args[0]) for call in compile_renamer.call_args_list]

        evaluate(first, goal, depth=5, mode="all_answers")
        assert sorted(compiled()) == sorted(map(id, first.clauses))
        assert all({"rename", "bind"} <= c.__dict__.keys() for c in first.clauses)
        evaluate(first, goal, depth=5, mode="all_answers")
        evaluate(first, goal, depth=5, mode="all_answers", tabling=False)
        assert len(compiled()) == 2
        evaluate(second, goal, depth=5, mode="all_answers", tabling=False)
        assert sorted(compiled()[2:]) == sorted(map(id, second.clauses))
    for a, b in zip(first.clauses, second.clauses):
        assert a.__dict__["rename"] is not b.__dict__["rename"]
        assert a.__dict__["bind"] is not b.__dict__["bind"]


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
# One canonical answer form  [DERIVED]
# ---------------------------------------------------------------------------


def _project_store(store, variables):
    """Reference: an answer as it was built before projections were
    canonical. The store is projected with its own names for the locals,
    which are then renamed apart with fresh ``_L`` names."""
    projected = project_by_simplify(store, variables, OwnNames())
    ren = renaming_for(constraints_vars(projected) - variables, prefix="_L")
    return frozenset(subst_constraint(ren, c) for c in projected)


def _answer_canonical(a, keep):
    """Reference: the key under which such an answer was recorded."""
    mapping = {}
    ordered = sorted(a, key=constraint_key)
    for c in ordered:
        for v in sorted(constraints_vars([c]), key=lambda v: v.id):
            if v not in keep and v not in mapping:
                mapping[v] = Var(f"_C{len(mapping) + 1}")
    return tuple(sorted(constraint_key(subst_constraint(mapping, c)) for c in ordered))


def _reference_key(store, keep):
    # Fresh names of one width, so that their string order is the order
    # in which they were made.
    with mock.patch.object(terms, "_counter", itertools.count(10_000)):
        return _answer_canonical(_project_store(store, keep), keep)


def _recorded_answers(run):
    """(entry, store, variables) at every answer that ``run()`` records,
    with fresh variables named as in a fresh process."""
    records = []
    add_answer = Evaluation._add_answer

    def record(self, entry, store, answer_work):
        records.append((entry, store, entry.variables))
        return add_answer(self, entry, store, answer_work)

    with mock.patch.object(Evaluation, "_add_answer", record), \
            mock.patch.object(terms, "_counter", itertools.count(1)):
        run()
    return records


def _groups(keys):
    """Each key replaced by the index of its first occurrence."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def _transform_append():
    rules = parse_rules((DATA / "append.rules").read_text())
    transform.to_simplification(rules, None, parse_program((DATA / "append.clp").read_text()))


def _mine_bool_general():
    program = parse_program((DATA / "bool.clp").read_text())
    for name in ("and_min", "and_split", "bool_full", "min_split", "min_sym", "xor"):
        spec = parse_spec((DATA / f"{name}.spec").read_text(), mode="general")
        miner.mine_general(program, spec, miner.MinerOptions())


def test_answers_group_as_the_reference_keys_on_recorded_answers():
    # Within each entry, the canonical answers must identify exactly the
    # answers that the reference keys identify: the answer cap counts
    # distinct answers, so a coarser or a finer key would move verdicts.
    # The bool programs are fact tables, so general mining builds one forest
    # per answer table (54 answers), not one per goal (434 answers).
    for run, n in ((_transform_append, 133), (_mine_bool_general, 54)):
        records = _recorded_answers(run)
        assert len(records) == n
        answers = [(id(e), project(s, keep)) for e, s, keep in records]
        references = [(id(e), _reference_key(s, keep)) for e, s, keep in records]
        assert _groups(answers) == _groups(references)


def test_stores_that_differ_only_in_their_locals_project_to_equal_answers():
    X, Y, Z = Var("X"), Var("Y"), Var("Z")

    def store(a, b, c):
        return store_from([
            prim("eq", X, cons(a, b)), prim("eq", Y, cons(b, c)),
            prim("neq", a, c), prim("le", c, Z),
        ])

    # The same store, with its locals made in the opposite order, and with
    # names that sort differently as strings than as numbers.
    first = store(Var("_G1"), Var("_G2"), Var("_G3"))
    second = store(Var("_G9"), Var("_G8"), Var("_G7"))
    third = store(Var("_G10"), Var("_G9"), Var("_G11"))
    L1, L2, L3 = Var("_L1"), Var("_L2"), Var("_L3")
    assert project(first, {X, Y, Z}) == project(second, {X, Y, Z}) == project(third, {X, Y, Z}) == {
        prim("eq", X, cons(L1, L2)), prim("eq", Y, cons(L2, L3)),
        prim("neq", L1, L3), prim("le", L3, Z),
    }


def test_answer_locals_are_named_apart_from_the_goal(monkeypatch):
    # The clause takes _G1 to _G3, so the all-answers renaming's first
    # local would be _L4, the goal's own second variable: the answer would
    # read X = f(_L4). With or without answer tables, the local gets
    # another name.
    program = parse_program("p(X, Y) :- X = f(A).")
    for tables in (None, {}):
        monkeypatch.setattr(terms, "_counter", itertools.count(1))
        out = evaluate(program, parse_goal("p(X, _L4)"), mode="all_answers", tables=tables)
        ((eq,),) = out.answers
        assert eq.functor == "eq" and eq.args[0] == Var("X")
        (local,) = eq.args[1].args
        assert eq.args[1].functor == "f" and local not in (Var("X"), Var("_L4"))


def test_consumed_answer_locals_are_named_apart_from_the_goal(monkeypatch):
    # r(Y, X) consumes the answer X=f(_L1) of r(X, Y); with fresh names
    # counted from 1 its local is renamed _L6 or _L7 on the way, which a
    # goal may name its own second variable. The answers must not move.
    program = parse_program("r(X, Y) :- X = f(A).\nr(X, Y) :- r(Y, X).")
    for name in ("Y", "_L6", "_L7"):
        monkeypatch.setattr(terms, "_counter", itertools.count(1))
        out = Evaluation(program, parse_goal(f"r(X, {name})")).run("all_answers")
        ren = {Var(name): Var("Y")}
        assert sorted(format_constraints(match_subst_constraints(ren, a)) for a in out.answers) == [
            "X=f(_L1)", "Y=f(_L1)"
        ], name


def test_locals_are_not_named_like_a_kept_variable():
    # A goal may name a variable _L1 itself; a local is then named _L2.
    program = parse_program("p(X, Y) :- X = f(A).")
    out = Evaluation(program, parse_goal("p(X, _L1)")).run("all_answers")
    assert out.answers == ({prim("eq", Var("X"), Compound("f", (Var("_L2"),)))},)


_SEED_PROGRAM = """\
p(X) :- X = f(A, B), A #< B.
p(X) :- X = g(A), A \\= a.
p(X) :- X = h(A), B #< A, C #< B.
p(X) :- X = [A|T], q(T, A).
q(T, A) :- T = [], A = b.
q(T, A) :- T = [B], B #=< A.
"""

_SEED_SCRIPT = f"""
from chrgen.program import format_constraint, parse_goal, parse_program
from chrgen.resolution import evaluate
program = parse_program({_SEED_PROGRAM!r})
for tabling in (True, False):
    out = evaluate(program, parse_goal("p(X)"), mode="all_answers", tabling=tabling)
    for answer in out.answers:
        print(sorted(format_constraint(c) for c in answer))
"""


def test_answers_and_their_order_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(chrgen.__file__).parent.parent)}
        run = subprocess.run([sys.executable, "-c", _SEED_SCRIPT],
                             capture_output=True, env=env, check=False)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 10
    assert re.search(rb"\['X=f\((_L\d+),(_L\d+)\)', '\1#<\2'\]", outputs[0])


def test_answers_leave_evaluate_with_locals_of_their_own():
    # The answer-set test puts answers of two goals into one store, so no
    # two answers that evaluate returns may share a local.
    program = parse_program(_SEED_PROGRAM)
    seen = []
    for tabling in (True, False):
        out = evaluate(program, parse_goal("p(X)"), mode="all_answers", tabling=tabling)
        assert len(out.answers) == 5
        seen += [constraints_vars(a) - {Var("X")} for a in out.answers]
    assert sum(map(len, seen)) == len(set().union(*seen)) == 16


_KEEP = frozenset({Var("X"), Var("Y"), Var("Z")})
_LOCALS = [Var(f"_A{i}") for i in range(1, 5)]


def _terms(leaves):
    return st.recursive(st.sampled_from(leaves), lambda inner: st.builds(cons, inner, inner),
                        max_leaves=4)


# Disequalities and order edges mention one local only: a local met first
# there is named in the order the disequalities were asserted, or the edges'
# sort order, which two variant stores need not share.
_EDGE_ENDS = [*sorted(_KEEP), _LOCALS[0], Const("0"), Const("1"), Const("2")]
_CONSTRAINT = st.one_of(
    st.builds(lambda l, r: prim("eq", l, r),
              _terms([*sorted(_KEEP), *_LOCALS, Const("a"), NIL]),
              _terms([*sorted(_KEEP), *_LOCALS, Const("a"), NIL])),
    st.builds(lambda l, r: prim("neq", l, r),
              _terms([*sorted(_KEEP), _LOCALS[0], Const("a"), NIL]),
              _terms([*sorted(_KEEP), _LOCALS[0], Const("a"), NIL])),
    st.builds(prim, st.sampled_from(["le", "lt"]), st.sampled_from(_EDGE_ENDS),
              st.sampled_from(_EDGE_ENDS)),
)


def _renamed(cs, order):
    """The constraints with their locals renamed, in the given order."""
    ren = {v: Var(f"_B{i}") for v, i in zip(_LOCALS, order)}
    return [match_subst_constraint(ren, c) for c in cs]


@settings(max_examples=150, deadline=None)
@given(st.lists(_CONSTRAINT, max_size=6), st.permutations(range(1, 5)))
def test_projection_does_not_depend_on_the_names_of_locals(cs, order):
    s = store_from(cs)
    if s is None:
        return
    assert project(s, _KEEP) == project(store_from(_renamed(cs, order)), _KEEP)


def _variants(a, b, keep):
    """Whether the answers are equal up to a renaming of their locals."""
    la = sorted(constraints_vars(a) - keep)
    lb = sorted(constraints_vars(b) - keep)
    return len(la) == len(lb) and any(
        solver._orient(match_subst_constraints(dict(zip(la, p)), a)) == solver._orient(b)
        for p in itertools.permutations(lb)
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_CONSTRAINT, max_size=5), min_size=2, max_size=4),
       st.permutations(range(1, 5)))
def test_answers_never_split_what_the_reference_keys_join(specs, order):
    # Each answer is the reference's projection up to the names of its
    # locals, and answers that the reference keys join are equal. The
    # converse does not hold on any store: the reference keys of
    # X=[A|B] and X=[B|A] differ.
    stores = [s for cs in specs for s in (store_from(cs), store_from(_renamed(cs, order)))
              if s is not None]
    answers = [project(s, _KEEP) for s in stores]
    for s, answer in zip(stores, answers):
        assert _variants(answer, project_by_simplify(s, _KEEP, OwnNames()), _KEEP)
    references = [_reference_key(s, _KEEP) for s in stores]
    for (i, ai), (j, aj) in itertools.combinations(enumerate(answers), 2):
        if references[i] == references[j]:
            assert ai == aj


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
    # classical scheme cannot use it to cut the infinite unfolding; the
    # finiteness probe of the cut branch sees its state repeat
    goal = parse_goal("append(X,Y,Z), X=[], Y=[a], Z=[b]")
    lines = []
    out = evaluate(append_program, goal, tabling=False, trace=lines.append)
    assert isinstance(out, DepthExceeded)
    assert "classical: cut branch repeats an earlier state" in lines
    assert "classical: cut branch runs into the depth bound" not in lines
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


# The probe of a cut classical branch ends a path at a state that repeats an
# ancestor's up to renaming; it must agree with the depth-only reference.
LOOPS = parse_program(
    """
    member(X, [X|T]).
    member(X, [H|T]) :- member(X, T).
    even([]).
    even([H|T]) :- odd(T).
    odd([H|T]) :- even(T).
    grow(X) :- grow(f(X)).
    a(Y) :- a(Z), b(W).
    b(X).
    """
)
REPEATS = "classical: cut branch repeats an earlier state"
BOUND = "classical: cut branch runs into the depth bound"


def _probe(program, seq, depth=200):
    """The probe's verdict and trace on a resolvent over an empty store,
    checked against the depth-only reference."""
    lines = []
    finite = _classical_finite(program, Store(), seq, depth, lines.append)
    assert finite == classical_finite_by_depth(program, Store(), seq, depth)
    return finite, lines


def test_the_probe_stops_at_a_repeated_state():
    # member repeats after one step, even/odd after two; a ground list
    # ends the recursion, and no state repeats on the way
    for goal in ("member(X, L)", "member(X, [a|L])", "even(L)", "odd(L)"):
        assert _probe(LOOPS, tuple(parse_goal(goal))) == (False, [REPEATS]), goal
    for goal in ("member(X, [a,b])", "even([a,b,c])", "odd([a,b])"):
        assert _probe(LOOPS, tuple(parse_goal(goal))) == (True, []), goal


def test_a_growing_state_still_runs_into_the_depth_bound():
    # the term grows at every level, so no state is a variant of another
    for goal in ("grow(a)", "grow(X)"):
        assert _probe(LOOPS, tuple(parse_goal(goal))) == (False, [BOUND]), goal


def test_atoms_back_in_another_order_are_no_repeat():
    # b(X), a(Y) comes back as a(Z), b(W) two levels down: the same atoms
    # as a set, not as a resolvent, whose leftmost atom is resolved next
    X, Y = Var("X"), Var("Y")
    assert _probe(LOOPS, (atom("b", X), atom("a", Y))) == (False, [BOUND])


def test_the_probe_keeps_the_reference_verdict_on_append(append_program):
    # calls whose list arguments are open repeat; a ground list ends them
    for goal in ("append(X,Y,Z)", "append([a|X],Y,Z)", "append(X,[],X)"):
        assert _probe(append_program, tuple(parse_goal(goal))) == (False, [REPEATS]), goal
    for goal in ("append([a,b],Y,Z)", "append(X,Y,[a,b])"):
        finite, lines = _probe(append_program, tuple(parse_goal(goal)))
        assert finite and not lines, goal


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
    return [prim("eq", Var(n), t) for n, t in zip(("X", "Y", "Z"), combo)]


# ---------------------------------------------------------------------------
# Trace output
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Answer tables
# ---------------------------------------------------------------------------


def test_goals_are_decided_from_one_table_per_set_of_user_atoms(bool_program):
    tables, lines = {}, []
    goals = ["and(X,Y,Z)", "and(X,Y,Z), Z=1", "and(X,Y,Z), X=0, Z=1",
             "and(X,Y,Z), Z=W", "and(X,Y,Z), neg(X,W)", "X=Y, Y\\=1",
             "and(X,Y,Z), X=0, X=1"]
    for text in goals:
        for mode in ("exists", "all_answers"):
            got = evaluate(bool_program, parse_goal(text), mode=mode, answer_cap=64,
                           tables=tables, trace=lines.append)
            want = evaluate(bool_program, parse_goal(text), mode=mode, answer_cap=64)
            assert type(got) is type(want), (text, mode)
            if mode == "all_answers" and isinstance(want, Answers):
                assert len(got.answers) == len(want.answers), text
    # One table per set of user atoms, the empty one included, and every
    # goal decided from one, or failed at once on its primitives.
    assert [line for line in lines if line.startswith("table: ") and "decided" not in line] == [
        "table: and(X,Y,Z): 4 answers",
        "table: and(X,Y,Z), neg(X,W): 4 answers",
        "table: true: 1 answers",
        "table: X=0, X=1, and(X,Y,Z) fails: its primitives are inconsistent",
        "table: X=0, X=1, and(X,Y,Z) fails: its primitives are inconsistent",
    ]
    assert sum("decided from the table" in line for line in lines) == 2 * (len(goals) - 1)
    assert set(tables) == {
        (frozenset(parse_goal(t)), 200, 64) for t in ("and(X,Y,Z)", "and(X,Y,Z), neg(X,W)")
    } | {(frozenset(), 200, 64)}
    # The only forests are those that fill the tables.
    assert sum(line.startswith("call: ") for line in lines) == len(tables)


def test_a_table_answers_as_a_fresh_forest_does(bool_program):
    # The answers of an all-answers goal, and the failure of an exists-mode
    # goal, read off the table of and(X,Y,Z).
    tables = {}
    goal = parse_goal("and(X,Y,Z), Z=0, Y\\=1")
    out = evaluate(bool_program, goal, mode="all_answers", tables=tables)
    assert out == Evaluation(bool_program, goal).run("all_answers")
    assert {frozenset(map(str, a)) for a in out.answers} == {
        frozenset({"X=0", "Y=0", "Z=0"}),
        frozenset({"X=1", "Y=0", "Z=0"}),
    }
    assert evaluate(bool_program, parse_goal("and(X,Y,Z), Z=1, X=0"), tables=tables) is FAILS


_FACT_ROWS = list(itertools.product("01", repeat=3))
_RV = {n: Var(n) for n in "XYZW"}
_RC = {n: Const(n) for n in ("0", "1", "2", "a")}
# Terms that no order decides: a constant that is not an integer, and
# compounds over the row variables.
_UNORDERED = [_RC["a"], Compound("f", (_RV["X"],)), Compound("f", (_RV["Y"],))]
_ROW_ATOMS = [
    atom("p", _RV["X"], _RV["Y"], _RV["Z"]),
    atom("q", _RV["X"], _RV["Y"], _RV["Z"]),
    atom("p", _RV["Y"], _RV["X"], _RV["Z"]),
    atom("q", _RV["Z"], _RV["Z"], _RV["X"]),
    atom("p", _RV["X"], _RC["0"], _RV["Y"]),
]
# W stands in no atom and 2 in no row; an order on a, and any primitive on
# f(X) or f(Y), is left to the store.
_ROW_TERMS = [*_RV.values(), *_RC.values(), *_UNORDERED[1:]]
_ROW_PRIMS = st.builds(
    prim,
    st.sampled_from(["eq", "neq", "le", "lt", "ge", "gt"]),
    st.sampled_from(_ROW_TERMS),
    st.sampled_from(_ROW_TERMS),
)
_ROW_GOALS = st.lists(
    st.tuples(st.frozensets(st.sampled_from(_ROW_ATOMS), max_size=2),
              st.frozensets(_ROW_PRIMS, max_size=3)),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(_FACT_ROWS), min_size=1),
       st.sets(st.sampled_from(_FACT_ROWS), min_size=1),
       _ROW_GOALS)
@example({("0", "0", "1"), ("0", "1", "1")}, {("1", "1", "1")}, [
    (frozenset(_ROW_ATOMS[:1]), frozenset({prim("eq", *_UNORDERED[1:])})),
    (frozenset(_ROW_ATOMS[3:4]), frozenset({prim("le", _RV["X"], _RC["a"])})),
])
def test_row_masks_agree_with_the_store_and_the_oracle(p_rows, q_rows, goals):
    # Random p/3 and q/3 fact tables over {0,1}: every goal read off their
    # tables gets the same outcome from the rows as from the store, with
    # the same answers in the same order, and its verdict is the ground
    # oracle's wherever the oracle applies.
    text = "".join(f"{f}({','.join(row)}).\n" for f, rows in (("p", p_rows), ("q", q_rows))
                   for row in sorted(rows))
    program = parse_program(text)
    universe = [_RC["0"], _RC["1"]]
    facts = oracle.success_set(program, universe)
    tables = {}
    for atoms, prims in goals:
        goal = atoms | prims
        table = None
        for mode in ("exists", "all_answers"):
            out = _from_table(program, goal, 200, mode, ANSWER_CAP, None, tables)
            table = tables[(atoms, 200, ANSWER_CAP)]
            assert out == decided_on_store(goal, mode, table), (text, goal, mode)
        # The oracle ranges each variable over {0,1} and holds an order only
        # between integers, where the store keeps it, so it applies where
        # every variable stands in an atom and every order is on integers.
        if constraints_vars(prims) <= constraints_vars(atoms) and not any(
            c.functor in ORDER_RELATIONS and t in _UNORDERED for c in prims for t in c.args
        ):
            tabled = isinstance(evaluate(program, goal, tables=tables), Answers)
            assert tabled == oracle.goal_has_ground_solution(goal, facts, universe), (text, goal)


def test_recursive_goals_get_a_forest_of_their_own(append_program):
    tables, lines = {}, []
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    assert isinstance(evaluate(append_program, goal, tables=tables, trace=lines.append), Fails)
    assert lines[0] == "table: none for append(X,Y,Z): it reaches recursion"
    assert "suspend" in "\n".join(lines)
    assert tables == {(frozenset(parse_goal("append(X,Y,Z)")), 200, 64): None}


def test_recursion_is_found_through_any_call_chain():
    program = parse_program("""
        a(X) :- b(X), c(X).
        b(X) :- X = 0.
        c(X) :- d(X).
        d(X) :- e(X).
        e(X) :- c(X).
        f(X) :- b(X).
    """)
    assert _reaches_recursion(program, parse_goal("a(X)"))
    assert _reaches_recursion(program, parse_goal("f(X), e(Y)"))
    assert not _reaches_recursion(program, parse_goal("f(X), b(Y)"))


def test_a_table_cut_by_the_answer_cap_decides_nothing(bool_program):
    # and(X,Y,Z) has 4 answers: a cap of 3 leaves the table out, and the
    # forest of the goal reports the cap.
    tables = {}
    goal = parse_goal("and(X,Y,Z)")
    out = evaluate(bool_program, goal, mode="all_answers", answer_cap=3, tables=tables)
    assert isinstance(out, DepthExceeded)
    assert tables == {(frozenset(goal), 200, 3): None}


def test_trace_reports_subsumption(append_program):
    lines = []
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    evaluate(append_program, goal, tabling=True, trace=lines.append)
    text = "\n".join(lines)
    assert "suspend" in text or "consume" in text
