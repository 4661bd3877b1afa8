"""Rule mining: primitive propagation and failure rules, splitting rules,
general rules with user-defined right hand sides, redundancy
simplification, and the three optimization switches."""

import pytest

from chrgen.miner import (
    MinerOptions,
    _Engine,
    mine_general,
    mine_primitive,
    mine_splitting,
    simplify_ruleset,
)
from chrgen.program import parse_goal, parse_program, parse_spec
from chrgen.rules import RuleSet, format_rule, parse_rules

from conftest import DATA
from util import canonical_keys, rule_lines


NO_OPTS = MinerOptions(opt1=False, opt2=False, opt3=False)


@pytest.fixture(scope="module")
def min_rules(min_program, min_spec):
    return mine_primitive(min_program, min_spec)


@pytest.fixture(scope="module")
def and_spec():
    return parse_spec((DATA / "and_split.spec").read_text(), mode="primitive")


# ---------------------------------------------------------------------------
# Primitive mining on the minimum relation  [PAPER]
# ---------------------------------------------------------------------------


def test_min_propagation_rules(min_rules):
    lines = rule_lines(min_rules)
    assert "min(X,Y,Z) ==> Z#=<X, Z#=<Y." in lines
    # the merged rhs of each guarded rule pins the minimum
    assert "min(X,Y,Z), X#=<Y ==> Z#=<X, Z#=<Y, Z=X." in lines
    assert "min(X,Y,Z), Y#=<X ==> Z#=<X, Z#=<Y, Z=Y." in lines


def test_min_failure_rule(min_program, min_spec):
    # with the optimizations off, contradictory left hand sides surface as
    # failure rules; with them on the same rules are silenced as trivially
    # redundant next to min(X,Y,Z) ==> Z#=<X, Z#=<Y
    rs = mine_primitive(min_program, min_spec, NO_OPTS)
    lines = rule_lines(rs)
    assert "min(X,Y,Z), Z#>X ==> false." in lines
    assert "min(X,Y,Z), Z#>Y ==> false." in lines


def test_rhs_merged_per_lhs(min_rules):
    seen = set()
    for r in min_rules.rules:
        key = frozenset(r.lhs)
        assert (r.kind, key) not in seen, "two rules share an lhs"
        seen.add((r.kind, key))


def test_failure_lhs_antichain(min_rules):
    fails = [r.lhs for r in min_rules.rules if r.kind == "failure"]
    for i, one in enumerate(fails):
        for j, other in enumerate(fails):
            assert i == j or not one < other


# ---------------------------------------------------------------------------
# Optimizations
# ---------------------------------------------------------------------------


def test_optimizations_do_not_change_simplified_rules(min_program, min_spec):
    eng_on = _Engine(min_program, MinerOptions())
    on = mine_primitive(min_program, min_spec, engine=eng_on)
    eng_off = _Engine(min_program, NO_OPTS)
    off = mine_primitive(min_program, min_spec, NO_OPTS, engine=eng_off)
    assert canonical_keys(simplify_ruleset(on)) == canonical_keys(simplify_ruleset(off))
    assert eng_on.stats.evaluations < eng_off.stats.evaluations


def test_opt1_suppresses_trivially_redundant_failures(min_program, min_spec):
    off = mine_primitive(min_program, min_spec, NO_OPTS)
    on = mine_primitive(min_program, min_spec)
    fails_off = {r.canonical_key() for r in off.rules if r.kind == "failure"}
    fails_on = {r.canonical_key() for r in on.rules if r.kind == "failure"}
    assert fails_on < fails_off  # some failure rules were recognized as noise
    props_off = {r.canonical_key() for r in off.rules if r.kind == "propagation"}
    props_on = {r.canonical_key() for r in on.rules if r.kind == "propagation"}
    assert props_on <= props_off


def test_opt3_reuses_goal_evaluations(min_program, min_spec):
    eng = _Engine(min_program, MinerOptions())
    mine_primitive(min_program, min_spec, engine=eng)
    assert eng.stats.skipped_opt3 > 0


# ---------------------------------------------------------------------------
# Splitting rules  [PAPER]
# ---------------------------------------------------------------------------


def test_and_splitting_rule(bool_program, and_spec):
    rs = mine_splitting(bool_program, and_spec)
    assert "and(X,Y,Z), Z=0 ==> X=0 ; Y=0." in rule_lines(rs)


def test_min_splitting_rule(bool_program):
    spec = parse_spec((DATA / "min_split.spec").read_text(), mode="primitive")
    rs = mine_splitting(bool_program, spec)
    assert "min(X,Y,Z) ==> X=Z ; Y=Z." in rule_lines(rs)


def test_prior_rule_suppresses_subsumed_pairs(bool_program, and_spec):
    prior = parse_rules("and(X,Y,Z), X=1, Y=1 ==> Z=1.")
    prior_rule = prior.rules[0]
    eng = _Engine(bool_program, MinerOptions())
    rs = mine_splitting(bool_program, and_spec, prior=prior, engine=eng)
    assert eng.stats.skipped_redundant_splitting > 0
    subsumed = [
        r for r in rs.rules
        if prior_rule.lhs <= r.lhs and any(d in prior_rule.rhs for d in r.rhs)
    ]
    assert subsumed == []
    # the skip avoids the goal evaluation itself
    eng_free = _Engine(bool_program, MinerOptions())
    mine_splitting(bool_program, and_spec, engine=eng_free)
    assert eng.stats.evaluations < eng_free.stats.evaluations


# ---------------------------------------------------------------------------
# General rules  [PAPER]
# ---------------------------------------------------------------------------


def test_and_implies_min(bool_program):
    spec = parse_spec((DATA / "and_min.spec").read_text(), mode="general")
    rs = mine_general(bool_program, spec)
    assert "and(X,Y,Z) ==> min(X,Y,Z)." in rule_lines(rs)


def test_min_symmetry(bool_program):
    spec = parse_spec((DATA / "min_sym.spec").read_text(), mode="general")
    rs = mine_general(bool_program, spec)
    assert "min(X,Y,Z) ==> min(Y,X,Z)." in rule_lines(rs)


def test_xor_general_rules(bool_program):
    spec = parse_spec((DATA / "xor.spec").read_text(), mode="general")
    rs = mine_general(bool_program, spec)
    lines = rule_lines(rs)
    assert "xor(X,Y,Z), X=1 ==> neg(Y,Z), xor(Y,X,Z)." in lines
    assert "xor(X,Y,Z), Y=1 ==> neg(X,Z), xor(Y,X,Z)." in lines
    assert "xor(X,Y,Z), Z=1 ==> neg(X,Y), xor(Y,X,Z)." in lines
    assert "xor(X,Y,Z) ==> xor(Y,X,Z)." in lines


def test_general_rules_never_emit_invalid(bool_program):
    # and(X,Y,Z) does not imply xor symmetry of its arguments with neg
    text = "base: and(X,Y,Z)\ncand_lhs:\ncand_rhs: neg(X,Y), xor(X,Y,Z)"
    spec = parse_spec(text, mode="general")
    rs = mine_general(bool_program, spec)
    assert rule_lines(rs) == set()


# ---------------------------------------------------------------------------
# Redundancy simplification  [PAPER]
# ---------------------------------------------------------------------------


def test_three_rule_example():
    rs = parse_rules(
        """
        p(X) ==> r(X).
        p(X), q(X) ==> r(X).
        s(X,Y) ==> X=Y, X=a, Y=a.
        """
    )
    out = simplify_ruleset(rs)
    assert rule_lines(out) == {"p(X) ==> r(X).", "s(X,Y) ==> X=a, Y=a."}


def test_singleton_unchanged():
    rs = parse_rules("p(X) ==> q(X).")
    assert rule_lines(simplify_ruleset(rs)) == {"p(X) ==> q(X)."}


def test_duplicate_variants_collapse():
    rs = RuleSet()
    for text in ("p(X), X=a ==> q(X).", "p(Y), Y=a ==> q(Y)."):
        for r in parse_rules(text).rules:
            rs.rules.append(r)  # bypass the dedup in add()
    out = simplify_ruleset(rs)
    assert len(out) == 1


def test_rhs_local_variables_stay_apart_from_the_closure():
    # Y in the first rule's rhs is existential: saturating p(X), r(Y) with
    # it adds q(X,_), not q(X,Y), so the second rule is not redundant.
    rs = parse_rules(
        """
        p(X) ==> q(X,Y).
        p(X), r(Y) ==> q(X,Y).
        """
    )
    assert rule_lines(simplify_ruleset(rs)) == {
        "p(X) ==> q(X,Y).", "p(X), r(Y) ==> q(X,Y)."
    }


def test_empty_rhs_dropped():
    rs = parse_rules(
        """
        p(X) ==> X=a.
        p(X), q(X) ==> X=a.
        """
    )
    out = simplify_ruleset(rs)
    assert rule_lines(out) == {"p(X) ==> X=a."}
