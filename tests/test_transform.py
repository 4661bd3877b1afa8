"""Turning propagation rules into simplification rules.

A rule C ==> D may be rewritten to C <=> D + E for the smallest proper
subset E of C (base atoms excluded) such that D + E ==> C is valid too.
"""

import itertools

from chrgen import miner
from chrgen.miner import MinerOptions, _Engine
from chrgen.program import parse_goal, parse_program
from chrgen.rules import parse_rules
from chrgen.transform import TransformReport, to_simplification
from chrgen.resolution import Answers, Fails

from util import rule_lines


def test_append_rule_becomes_simplification(append_program):
    rs = parse_rules("append(X,Y,Z), X=[] ==> Y=Z.")
    report = TransformReport()
    out = to_simplification(rs, None, append_program, report=report)
    (rule,) = out.rules
    assert rule.kind == "simplification"
    assert rule.lhs == rs.rules[0].lhs
    assert set(rule.rhs) == set(parse_goal("X=[], Y=Z"))
    assert report.transformed == 1


def test_append_rejections_logged(append_program):
    rs = parse_rules("append(X,Y,Z), X=[] ==> Y=Z.")
    report = TransformReport()
    to_simplification(rs, None, append_program, report=report)
    # E = {} fails validity: Y=Z alone does not force the append atom
    assert any("E = {}" in note and "not valid" in note for note in report.rejected)
    # E = {append(X,Y,Z)} would move the whole base to the rhs
    assert any("append" in note and "base" in note for note in report.rejected)


def test_transform_evaluates_each_goal_once(append_program, monkeypatch):
    # Every candidate E asks for the answers of the rule's lhs plus E; a
    # goal that several candidates share, here X=Z, Y=[], append(X,Y,Z),
    # which runs into the depth bound, is evaluated only once.
    calls = []
    evaluate = miner.evaluate

    def counted(program, goal, **kwargs):
        calls.append(goal)
        return evaluate(program, goal, **kwargs)

    monkeypatch.setattr(miner, "evaluate", counted)
    rs = parse_rules("append(X,Y,Z), Y=[] ==> X=Z.")
    out = to_simplification(rs, None, append_program)
    assert frozenset(parse_goal("append(X,Y,Z), X=Z, Y=[]")) in calls
    assert len(calls) == len(set(calls))
    stats = out.stats["transform"]
    assert (stats["evaluations"], stats["depth_exceeded"]) == (len(calls), 1)


def test_min_rule_becomes_simplification(min_program):
    rs = parse_rules("min(X,Y,Z), Y#=<X ==> Z=Y.")
    out = to_simplification(rs, None, min_program)
    assert rule_lines(out) == {"min(X,Y,Z), Y#=<X <=> Z=Y, Y#=<X."}


def test_unrewritable_rule_unchanged(append_program):
    # no subset E makes X=Z, E imply the unconstrained append atom
    rs = parse_rules("append(X,Y,Z), X=Z ==> Y=[].")
    report = TransformReport()
    out = to_simplification(rs, None, append_program, report=report)
    (rule,) = out.rules
    assert rule.kind == "propagation"
    assert report.unchanged == 1


def test_failure_and_splitting_rules_pass_through(bool_program):
    rs = parse_rules(
        """
        and(X,Y,Z), X=0, Z=1 ==> false.
        and(X,Y,Z), Z=0 ==> X=0 ; Y=0.
        """
    )
    out = to_simplification(rs, None, bool_program)
    assert rule_lines(out) == rule_lines(rs)


def test_empty_base_rejects_every_subset(min_program):
    # an empty mandatory core makes every candidate E a superset of the
    # base, so the guard rejects all of them and the rule stays put
    rs = parse_rules("min(X,Y,Z), Y#=<X ==> Z=Y.")
    report = TransformReport()
    out = to_simplification(rs, frozenset(), min_program, report=report)
    (rule,) = out.rules
    assert rule.kind == "propagation"
    assert report.transformed == 0
    assert all("base" in note for note in report.rejected)


def test_chosen_subset_is_minimal(bool_program):
    # [DERIVED] exhaustive re-check: no strictly smaller valid E exists
    rs = parse_rules("min(X,Y,Z), Y#=<X ==> Z=Y.")
    out = to_simplification(rs, None, bool_program)
    (rule,) = out.rules
    assert rule.kind == "simplification"
    extra = set(rule.rhs) - set(rs.rules[0].rhs)
    engine = _Engine(bool_program, MinerOptions())

    def valid(lhs, rhs_set):
        if rhs_set <= lhs:
            return True
        out = engine.goal_answers(frozenset(lhs))
        ext = engine.goal_answers(frozenset(lhs) | frozenset(rhs_set))
        if not isinstance(out, (Answers, Fails)) or not isinstance(ext, (Answers, Fails)):
            return False
        from chrgen.solver import dnf_satisfiable

        pos = list(out.answers) if isinstance(out, Answers) else []
        neg = list(ext.answers) if isinstance(ext, Answers) else []
        return not dnf_satisfiable(pos, neg)

    base_atoms = {c for c in rule.lhs if not c.is_primitive}
    for size in range(len(extra)):
        for smaller in itertools.combinations(sorted(rule.lhs, key=repr), size):
            e = set(smaller)
            if base_atoms <= e:
                continue
            assert not valid(set(rs.rules[0].rhs) | e, set(rule.lhs)), (
                f"smaller subset {e} would already validate the rewrite"
            )
