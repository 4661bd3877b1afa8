"""Exhaustive ground oracle: universes, bottom-up success sets, and rule
checking. These tests pin the oracle itself down with hand-computed facts
so the rest of the suite can lean on it."""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrgen import oracle
from chrgen.miner import mine_primitive, mine_splitting
from chrgen.program import format_constraint, parse_goal, parse_program, parse_spec
from chrgen.rules import Rule, format_rule, parse_rules
from chrgen.terms import (
    Const,
    constraint_key,
    constraints_vars,
    make_list,
    subst_constraint,
    unify,
)

from conftest import DATA, GOLDEN


def test_universe_constants_only():
    assert oracle.universe(["0", "1"]) == [Const("0"), Const("1")]


def test_universe_with_lists():
    terms = oracle.universe(["a"], list_depth=2)
    assert Const("a") in terms
    assert make_list([]) in terms
    assert make_list([Const("a")]) in terms
    assert make_list([Const("a"), Const("a")]) in terms
    # length is bounded by the requested depth
    assert make_list([Const("a")] * 3) not in terms


def test_ground_holds_primitives():
    assert oracle.ground_holds(parse_goal("1#=<2").__iter__().__next__())
    (c,) = parse_goal("2#<1")
    assert not oracle.ground_holds(c)
    (c,) = parse_goal("[a]=[a]")
    assert oracle.ground_holds(c)
    (c,) = parse_goal("[a]\\=[b]")
    assert oracle.ground_holds(c)


def test_success_set_boolean_tables(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    fact_strings = {str(f) for f in facts}
    # ten table facts plus the derived boolean minimum
    assert "and(1, 1, 1)" in fact_strings
    assert "xor(1, 1, 0)" in fact_strings
    assert "min(0, 1, 0)" in fact_strings
    assert "min(1, 1, 1)" in fact_strings
    assert "min(1, 0, 1)" not in fact_strings
    assert len([f for f in facts if f.functor == "min"]) == 4


def test_success_set_append():
    program = parse_program(
        "append(X,Y,Z) :- X=[], Y=Z.\n"
        "append(X,Y,Z) :- X=[H|X1], Z=[H|Z1], append(X1,Y,Z1).\n"
    )
    terms = oracle.universe(["a", "b"], list_depth=2)
    facts = oracle.success_set(program, terms)
    a, b = Const("a"), Const("b")
    has = lambda x, y, z: any(
        f.functor == "append" and f.args == (x, y, z) for f in facts
    )
    assert has(make_list([]), make_list([a]), make_list([a]))
    assert has(make_list([a]), make_list([b]), make_list([a, b]))
    assert not has(make_list([a]), make_list([a]), make_list([a, b]))


def test_check_rule_accepts_valid(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    rule = parse_rules("and(X,Y,Z), Z=1 ==> X=1, Y=1.").rules[0]
    assert oracle.check_rule(rule, facts, terms) is None


def test_check_rule_finds_counterexample(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    wrong = parse_rules("and(X,Y,Z), Z=0 ==> X=0.").rules[0]
    cex = oracle.check_rule(wrong, facts, terms)
    assert cex is not None  # and(1,0,0) breaks the claim


def test_check_rule_kinds(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    good_split = parse_rules("and(X,Y,Z), Z=0 ==> X=0 ; Y=0.").rules[0]
    assert oracle.check_rule(good_split, facts, terms) is None
    bad_split = parse_rules("and(X,Y,Z) ==> X=1 ; Y=1.").rules[0]
    assert oracle.check_rule(bad_split, facts, terms) is not None
    good_failure = parse_rules("and(X,Y,Z), X=0, Z=1 ==> false.").rules[0]
    assert oracle.check_rule(good_failure, facts, terms) is None
    bad_failure = parse_rules("and(X,Y,Z), X=1 ==> false.").rules[0]
    assert oracle.check_rule(bad_failure, facts, terms) is not None


def test_check_rule_rhs_locals_are_existential(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    # W appears only on the rhs: one witness per lhs instantiation suffices
    rule = parse_rules("and(X,Y,Z) ==> min(X,Y,W).").rules[0]
    assert oracle.check_rule(rule, facts, terms) is None


def test_goal_has_ground_solution(bool_program):
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(bool_program, terms)
    assert oracle.goal_has_ground_solution(parse_goal("and(X,Y,1)"), facts, terms)
    assert not oracle.goal_has_ground_solution(
        parse_goal("and(X,Y,1), X=0"), facts, terms
    )


# ---------------------------------------------------------------------------
# Equivalence with the brute-force oracle
#
# The reference below is the oracle's first version: it tries every tuple
# of universe terms for the variables and re-derives every grounding in
# every round. The oracle must give the same fact sets, the same verdicts
# and the same counterexample assignments.
# ---------------------------------------------------------------------------


def _brute_success_set(program, terms, max_rounds=100):
    term_set = set(terms)
    facts = set()
    for _ in range(max_rounds):
        added = False
        for clause in program.clauses:
            for sigma in _brute_groundings(clause, facts, terms):
                head = subst_constraint(sigma, clause.head)
                if all(a in term_set for a in head.args) and head not in facts:
                    facts.add(head)
                    added = True
        if not added:
            return facts
    return facts


def _brute_groundings(clause, facts, terms):
    body_user = sorted(clause.body_user, key=constraint_key)
    body_prim = sorted(clause.body_prim, key=constraint_key)
    facts_by_pred = {}
    for f in facts:
        facts_by_pred.setdefault((f.functor, len(f.args)), []).append(f)

    def match_atoms(i, sigma):
        if i == len(body_user):
            yield from bind_prims(sigma)
            return
        atom = body_user[i]
        for fact in facts_by_pred.get((atom.functor, len(atom.args)), ()):
            s = dict(sigma)
            for pa, fa in zip(atom.args, fact.args):
                s = unify(pa, fa, s)
                if s is None:
                    break
            if s is not None:
                yield from match_atoms(i + 1, s)

    def bind_prims(sigma):
        s = sigma
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
            if all(oracle.ground_holds(subst_constraint(full, c)) for c in body_prim):
                yield full

    yield from match_atoms(0, {})


def _holds(c, theta, facts):
    return oracle.ground_holds(subst_constraint(theta, c), facts)


def _brute_check_rule(rule, facts, terms):
    """The first counterexample assignment in product order, or None."""
    lhs_vars = sorted(constraints_vars(rule.lhs), key=lambda v: v.id)
    rhs_locals = sorted(constraints_vars(rule.rhs) - set(lhs_vars), key=lambda v: v.id)
    for combo in itertools.product(terms, repeat=len(lhs_vars)):
        theta = dict(zip(lhs_vars, combo))
        if not all(_holds(c, theta, facts) for c in rule.lhs):
            continue
        if rule.kind == "failure":
            return theta
        if rule.kind == "splitting":
            if any(_holds(d, theta, facts) for d in rule.rhs):
                continue
            return theta
        if not any(
            all(_holds(c, {**theta, **dict(zip(rhs_locals, w))}, facts) for c in rule.rhs)
            for w in itertools.product(terms, repeat=len(rhs_locals))
        ):
            return theta
    return None


def _brute_goal_has_ground_solution(goal, facts, terms):
    goal = list(goal)
    gvars = sorted(constraints_vars(goal), key=lambda v: v.id)
    return any(
        all(_holds(c, dict(zip(gvars, combo)), facts) for c in goal)
        for combo in itertools.product(terms, repeat=len(gvars))
    )


def _dropped_variants(rules):
    """Each rule with one lhs constraint left out, for every choice."""
    return [
        Rule(r.kind, r.lhs - {c}, r.rhs)
        for r in rules
        if len(r.lhs) > 1
        for c in sorted(r.lhs, key=constraint_key)
    ]


def _assert_same_verdicts(rules, facts, terms):
    """Counts of the unsound rules, after comparing each with the
    reference: the verdict, the exact assignment and the goal check of its
    lhs."""
    unsound = 0
    for rule in rules:
        expected = _brute_check_rule(rule, facts, terms)
        cex = oracle.check_rule(rule, facts, terms)
        assert (cex and cex.assignment) == expected, format_rule(rule)
        assert oracle.goal_has_ground_solution(rule.lhs, facts, terms) == (
            _brute_goal_has_ground_solution(rule.lhs, facts, terms)
        ), format_rule(rule)
        unsound += cex is not None
    return unsound


@pytest.fixture(scope="module")
def rule_families(bool_program, min_program, append_program):
    """(name, program, universe, rules) for the golden general rules and the
    mined min, bool and append rule sets."""
    def spec(name):
        return parse_spec((DATA / name).read_text(), mode="primitive")

    bits = [Const("0"), Const("1")]
    families = [
        (path.stem, bool_program, bits, parse_rules(path.read_text()).rules)
        for path in sorted(GOLDEN.glob("*.txt"))
    ]
    families.append((
        "min", min_program, [Const("0"), Const("1"), Const("2")],
        mine_primitive(min_program, spec("min.spec")).rules,
    ))
    families.append((
        "bool", bool_program, bits,
        mine_primitive(bool_program, spec("bool_full.spec")).rules
        + mine_splitting(bool_program, spec("and_split.spec")).rules
        + mine_splitting(bool_program, spec("min_split.spec")).rules,
    ))
    families.append((
        "append", append_program, oracle.universe(["a", "b"], list_depth=2),
        mine_primitive(append_program, spec("append.spec")).rules,
    ))
    return families


def test_success_sets_match_brute_force(rule_families):
    seen = set()
    for _, program, terms, _ in rule_families:
        if id(program) not in seen:
            seen.add(id(program))
            assert oracle.success_set(program, terms) == _brute_success_set(program, terms)


def test_mined_rules_match_brute_force(rule_families):
    for name, program, terms, rules in rule_families:
        facts = _brute_success_set(program, terms)
        assert _assert_same_verdicts(rules, facts, terms) == 0, name


def test_dropped_lhs_variants_match_brute_force(rule_families):
    unsound = 0
    for _, program, terms, rules in rule_families:
        facts = _brute_success_set(program, terms)
        unsound += _assert_same_verdicts(_dropped_variants(rules), facts, terms)
    assert unsound >= 10  # the comparison covers real counterexamples


BIT_POOL = sorted(
    parse_goal(
        "X=0, X=1, Y=0, Y=1, Z=0, Z=1, X=Y, X=Z, Y=Z, X\\=Y, Y\\=Z, X#=<Y, Y#<Z, "
        "q(X,W), q(W,Z), p(Z,Y,W), r(Y,X), path(Z,W), W=X, W\\=Y"
    ),
    key=constraint_key,
)
BIT_PAIRS = [(x, y) for x in (0, 1) for y in (0, 1)]
BIT_TRIPLES = [(x, y, z) for x, y in BIT_PAIRS for z in (0, 1)]


@settings(max_examples=80, deadline=None)
@given(
    p_rows=st.lists(st.sampled_from(BIT_TRIPLES), min_size=1, max_size=6, unique=True),
    q_rows=st.lists(st.sampled_from(BIT_PAIRS), min_size=1, max_size=4, unique=True),
    lhs=st.lists(st.sampled_from(BIT_POOL), max_size=3, unique=True),
    rhs=st.lists(st.sampled_from(BIT_POOL), min_size=1, max_size=2, unique=True),
    kind=st.sampled_from(["failure", "propagation", "splitting"]),
)
def test_small_table_rules_match_brute_force(p_rows, q_rows, lhs, rhs, kind):
    # p/3 and q/2 are fact tables over {0,1}; r/2 is derived from both, s/2
    # has a variable only a disequality constrains, and path/2 is the
    # transitive closure of q, defined before its base case.
    text = "".join(f"p({x},{y},{z}).\n" for x, y, z in p_rows)
    text += "".join(f"q({x},{y}).\n" for x, y in q_rows)
    text += (
        "r(X,Y) :- p(X,Y,Z), q(Z,X).\n"
        "s(X,W) :- q(X,Y), Y\\=W.\n"
        "path(X,Y) :- q(X,Z), path(Z,Y).\n"
        "path(X,Y) :- q(X,Y).\n"
    )
    program = parse_program(text)
    terms = [Const("0"), Const("1")]
    facts = oracle.success_set(program, terms)
    assert facts == _brute_success_set(program, terms)
    if kind == "splitting" and len(rhs) != 2:
        kind = "propagation"
    rule = Rule(
        kind,
        frozenset(parse_goal("p(X,Y,Z)")) | frozenset(lhs),
        () if kind == "failure" else tuple(rhs),
    )
    _assert_same_verdicts([rule], facts, terms)


def test_bindings_stay_in_the_universe(append_program, rule_families):
    # The facts come from a larger universe, and the universe lacks the
    # one-element lists, so joins and equalities meet values outside it.
    a, b = Const("a"), Const("b")
    terms = [a, b, make_list([]), make_list([a, b]), make_list([b, a])]
    facts = oracle.success_set(append_program, oracle.universe(["a", "b"], list_depth=3))
    (rules,) = [rules for name, _, _, rules in rule_families if name == "append"]
    rules = rules + parse_rules(
        "append(X,Y,Z), X=[H|T] ==> Z=[H|W].\n"
        "append(X,Y,Z), Z=[H|T] ==> false.\n"
    ).rules
    unsound = _assert_same_verdicts(rules + _dropped_variants(rules), facts, terms)
    assert unsound >= 10


def test_success_set_body_equality_binds_outside_the_universe():
    # Y is bound to f(X), which is not in the universe; the clause still
    # fires, since only head arguments are checked against the universe.
    program = parse_program(
        "q(a).\nq(b).\n"
        "p(X) :- Y=f(X), q(X).\n"
        "s(Y) :- Y=f(X), q(X).\n"
    )
    terms = [Const("a"), Const("b")]
    facts = oracle.success_set(program, terms)
    assert facts == _brute_success_set(program, terms)
    assert {str(f) for f in facts} == {"q(a)", "q(b)", "p(a)", "p(b)"}


def test_success_set_binds_head_variables_inside_list_cells():
    # H and K occur only in the head, inside list cells; a body disequality
    # reads H, and W occurs in no head argument, so it is enumerated.
    program = parse_program(
        "q(a).\nq(b).\n"
        "p([H|T]) :- q(T).\n"
        "r([H,Y], [K]) :- q(Y), H\\=Y.\n"
        "s(X) :- q(X), W\\=X.\n"
    )
    terms = oracle.universe(["a", "b"], list_depth=2)
    facts = oracle.success_set(program, terms)
    assert facts == _brute_success_set(program, terms)
    # [H|a] is no list of the universe, so p has no fact.
    assert not [f for f in facts if f.functor == "p"]
    assert {format_constraint(f) for f in facts if f.functor == "r"} == {
        f"r([{h},{y}],[{k}])" for h, y in (("a", "b"), ("b", "a")) for k in "ab"
    }
    assert {format_constraint(f) for f in facts if f.functor == "s"} == {"s(a)", "s(b)"}


def test_success_set_round_cap_cuts_the_same_facts():
    program = parse_program(
        "below(X,Z) :- succ(X,Y), below(Y,Z).\n"
        "below(X,Y) :- succ(X,Y).\n"
        "succ(0,1).\nsucc(1,2).\nsucc(2,3).\nsucc(3,4).\nsucc(4,5).\n"
    )
    terms = [Const(str(i)) for i in range(6)]
    full = oracle.success_set(program, terms)
    assert len([f for f in full if f.functor == "below"]) == 15
    for cap in (1, 2, 3):
        capped = oracle.success_set(program, terms, max_rounds=cap)
        assert capped == _brute_success_set(program, terms, max_rounds=cap)
        assert capped < full


def test_oracle_imports_no_engine_module():
    # The oracle is the independent reference for the engine, so it must
    # not share code with it.
    engine = {"solver", "resolution", "miner", "transform", "runtime"}
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & engine
