"""Rule mining: primitive propagation and failure rules, splitting rules,
general rules with user-defined right hand sides, redundancy
simplification, and the three optimization switches."""

import importlib.util
import itertools
from collections import Counter
from pathlib import Path

import pytest

from chrgen import miner, resolution, terms
from chrgen.cli import main
from chrgen.miner import (
    MinerOptions,
    _Engine,
    mine_general,
    mine_primitive,
    mine_splitting,
    simplify_ruleset,
)
from chrgen.program import parse_goal, parse_program, parse_spec
from chrgen.resolution import ANSWER_CAP, FAILS, Answers, DepthExceeded, Evaluation, _from_table
from chrgen.rules import KINDS, Rule, RuleSet, format_rule, parse_rules
from chrgen.solver import entails, negate, satisfiable, store_from
from chrgen.terms import canonical_key
from chrgen.transform import to_simplification

from conftest import DATA
from util import canonical_keys, classical_finite_by_depth, decided_on_store, rule_lines


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


def test_a_given_engine_sets_every_option(min_program, min_spec):
    # The opts argument only configures an engine the miner builds itself.
    own = mine_primitive(min_program, min_spec, engine=_Engine(min_program, MinerOptions()))
    mixed = mine_primitive(
        min_program, min_spec, MinerOptions(opt1=False, opt2=False),
        engine=_Engine(min_program, MinerOptions()),
    )
    assert list(map(format_rule, mixed.rules)) == list(map(format_rule, own.rules))
    assert mixed.stats == own.stats
    assert own.stats["skipped_opt1"] > 0 and own.stats["skipped_opt2"] > 0


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


def test_rules_over_deep_lists_that_differ_near_the_end_are_sorted():
    # Comparing the two lhs keys as nested tuples would recurse once per
    # list cell, past Python's recursion limit.
    items = ",".join(["a"] * 1199)
    rs = parse_rules(f"p(X), X=[{items},b] ==> q(X).\np(X), X=[{items},a] ==> q(X).\n")
    out = simplify_ruleset(rs)
    assert [format_rule(r)[-12:] for r in out.rules] == ["a] ==> q(X).", "b] ==> q(X)."]


# ---------------------------------------------------------------------------
# Per-lhs bookkeeping against the per-rule references
# ---------------------------------------------------------------------------
#
# The references below do the bookkeeping once per rule or per pair: the
# sort key of every rule is computed from scratch, every rule closes its
# lhs again, and every (lhs, pair) scans all prior rules.


def _ref_simplify_ruleset(rs):
    def sort_key(rule):
        return (
            len(rule.lhs),
            canonical_key(rule.lhs),
            KINDS.index(rule.kind),
            rule.canonical_key(),
        )

    kept = []
    out = RuleSet(stats=dict(rs.stats))
    for rule in sorted(rs.rules, key=sort_key):
        closure = miner._closure(rule.lhs, kept)
        if closure is None:
            continue
        if rule.kind == "failure":
            out.add(rule)
            kept.append(miner._closure_entry(rule))
            continue
        if rule.kind == "splitting":
            if any(d in closure for d in rule.rhs):
                continue
            ctx = store_from([c for c in closure if c.is_primitive])
            if ctx is not None and any(
                d.is_primitive and entails(ctx, d) for d in rule.rhs
            ):
                continue
            out.add(rule)
            continue
        rhs = miner._simplify_rhs(rule, closure)
        if not rhs:
            continue
        new_rule = Rule(rule.kind, rule.lhs, rhs, rule.provenance)
        if out.add(new_rule):
            kept.append(miner._closure_entry(new_rule))
    return out


def _ref_mine_splitting(program, spec, prior=None, opts=None, engine=None):
    engine = engine or _Engine(program, opts or MinerOptions())
    rs = RuleSet()
    prior_rules = list(prior.rules) if prior else []
    pairs = [
        (d1, d2, not satisfiable([negate(d1), negate(d2)]))
        for d1, d2 in itertools.combinations(miner._primitive_rhs(spec), 2)
    ]

    def redundant(lhs, d1, d2):
        return any(
            r.kind in ("propagation", "simplification")
            and r.lhs <= lhs
            and (d1 in r.rhs or d2 in r.rhs)
            for r in prior_rules
        )

    for c_lhs in miner._ordered_subsets(spec.cand_lhs):
        lhs = spec.base_lhs | c_lhs
        if any(r.kind == "failure" and r.lhs <= lhs for r in prior_rules):
            continue
        for d1, d2, tautology in pairs:
            if d1 in lhs or d2 in lhs:
                continue
            if redundant(lhs, d1, d2):
                engine.stats.skipped_redundant_splitting += 1
                continue
            if tautology:
                continue
            goal = lhs | {negate(d1), negate(d2)}
            if isinstance(engine.goal_fails(goal), miner.Fails):
                rs.add(Rule("splitting", lhs, (d1, d2),
                            (f"goal failed: {miner.format_constraints(goal)}",)))
    rs.stats = engine.stats.as_dict()
    return rs


def _records(rs):
    """Everything of a rule set that the output shows: its rules in order,
    with provenance, and its statistics."""
    return [(r.kind, r.lhs, r.rhs, r.provenance) for r in rs.rules], rs.stats


def _mine(monkeypatch, program, steps, splitting=mine_splitting, opts=MinerOptions()):
    """The raw rules that generate mines, all steps on one engine; each step
    is a miner name with its spec. Fresh variables are numbered from 1."""
    monkeypatch.setattr(terms, "_counter", itertools.count(1))
    engine = _Engine(program, opts)
    rs = RuleSet()
    for name, spec in steps:
        if name == "primitive":
            part = mine_primitive(program, spec, engine=engine)
        elif name == "splitting":
            part = splitting(program, spec, prior=rs, engine=engine)
        else:
            part = mine_general(program, spec, engine=engine)
        for r in part:
            rs.add(r)
    rs.stats = engine.stats.as_dict()
    return rs


def _simplified(monkeypatch, simplify, rs):
    monkeypatch.setattr(terms, "_counter", itertools.count(1))
    return _records(simplify(rs))


def _assert_matches_references(monkeypatch, program, steps):
    raw = _mine(monkeypatch, program, steps)
    if any(name == "splitting" for name, _ in steps):
        ref = _mine(monkeypatch, program, steps, splitting=_ref_mine_splitting)
        assert _records(raw) == _records(ref)
    assert _simplified(monkeypatch, simplify_ruleset, raw) == _simplified(
        monkeypatch, _ref_simplify_ruleset, raw
    )
    return raw


def _all_modes(spec):
    return [("primitive", spec), ("splitting", spec), ("general", spec)]


def test_min_all_matches_references(monkeypatch, min_program):
    spec = parse_spec((DATA / "min.spec").read_text(), mode="general")
    raw = _assert_matches_references(monkeypatch, min_program, _all_modes(spec))
    assert len(raw) == 2161


@pytest.mark.parametrize(
    "name", ["and_min", "and_split", "bool_full", "min_split", "min_sym", "xor"]
)
def test_bool_specs_match_references(monkeypatch, bool_program, name):
    spec = parse_spec((DATA / f"{name}.spec").read_text(), mode="general")
    _assert_matches_references(monkeypatch, bool_program, _all_modes(spec))
    _assert_matches_references(monkeypatch, bool_program, [("general", spec)])


def test_append_primitive_matches_reference(monkeypatch, append_program, append_spec):
    raw = _assert_matches_references(monkeypatch, append_program, [("primitive", append_spec)])
    assert raw.stats["depth_exceeded"] > 0


P3_TABLES = [
    "p(0,0,0). p(1,1,1).",
    "p(0,0,1). p(0,1,0). p(1,0,0). p(1,1,1).",
    "p(0,1,1). p(1,0,1). p(1,1,0).",
    "p(0,0,0). p(0,1,0). p(1,0,0). p(1,1,1). p(1,1,0).",
]


@pytest.mark.parametrize("table", P3_TABLES)
def test_fact_tables_match_references(monkeypatch, table):
    # As the benchmark's fact-table items: primitive and splitting rules
    # over the argument values, general rules with q/3 and a permuted p/3.
    program = parse_program(table + " q(0,0,0). q(1,0,1).")
    cands = "X=0, X=1, Y=0, Y=1, Z=0, Z=1"
    prim = parse_spec(f"base: p(X,Y,Z)\ncand_lhs: {cands}\ncand_rhs: cand_lhs\n",
                      mode="primitive")
    gen = parse_spec(f"base: p(X,Y,Z)\ncand_lhs: {cands}\ncand_rhs: q(X,Y,Z), p(Y,X,Z)\n")
    _assert_matches_references(
        monkeypatch, program, [("primitive", prim), ("splitting", prim), ("general", gen)]
    )


def test_splitting_with_every_kind_of_prior_rule_matches_reference(
    monkeypatch, bool_program, and_spec
):
    # A failure rule skips its lhs and supersets; the rhs of a propagation
    # or simplification rule makes pairs redundant, a splitting rhs does not.
    prior = parse_rules(
        """
        and(X,Y,Z), X=1, Y=0 ==> false.
        and(X,Y,Z), X=1, Y=1 ==> Z=1.
        and(X,Y,Z), Z=1 <=> X=1, Y=1.
        and(X,Y,Z), X=0 ==> Y=0 ; Z=0.
        and(X,Y,Z), Y=0 ==> Z=0 ; Z=1.
        """
    )
    outcomes = []
    for splitting in (mine_splitting, _ref_mine_splitting):
        monkeypatch.setattr(terms, "_counter", itertools.count(1))
        outcomes.append(_records(splitting(bool_program, and_spec, prior=prior)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["skipped_redundant_splitting"] > 0


def test_closure_runs_once_per_lhs_until_a_rule_is_kept(monkeypatch, min_program):
    spec = parse_spec((DATA / "min.spec").read_text(), mode="general")
    raw = _mine(monkeypatch, min_program, _all_modes(spec))
    calls = []
    closure = miner._closure

    def counted(lhs, kept, *args):
        calls.append((lhs, len(kept)))
        return closure(lhs, kept, *args)

    monkeypatch.setattr(miner, "_closure", counted)
    simplify_ruleset(raw)
    assert max(Counter(calls).values()) == 1
    assert len(calls) < len(raw)


def test_candidate_subsets_are_ordered_once_per_engine(monkeypatch, capsys):
    calls = []
    ordered = miner._ordered_subsets

    def counted(cands):
        calls.append(cands)
        return ordered(cands)

    monkeypatch.setattr(miner, "_ordered_subsets", counted)
    rc = main(["generate", str(DATA / "min.clp"), str(DATA / "min.spec"), "--mode", "all"])
    assert rc == 0
    assert "==>" in capsys.readouterr().out
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Answer tables against fresh forests, and tabled against classical verdicts
# ---------------------------------------------------------------------------


def _load_bool_family():
    """The benchmark's generator of fact-table programs (it imports no
    chrgen)."""
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bool_family


def _evaluated(monkeypatch, program, steps, transform=False):
    """(goal, keyword arguments, outcome) of every evaluation the miners
    make while mining the steps on one engine, and with ``transform`` also
    of those that transforming the simplified rules makes."""
    calls = []
    evaluate = miner.evaluate

    def recorded(program, goal, **kwargs):
        out = evaluate(program, goal, **kwargs)
        calls.append((goal, kwargs, out))
        return out

    monkeypatch.setattr(miner, "evaluate", recorded)
    rs = _mine(monkeypatch, program, steps)
    if transform:
        to_simplification(simplify_ruleset(rs), None, program)
    monkeypatch.setattr(miner, "evaluate", evaluate)
    return calls


def _non_recursive_runs():
    """Every non-recursive spec in tests/data, in mode all, and the 40
    fact-table programs of the benchmark's bool-family workload."""
    min_program = parse_program((DATA / "min.clp").read_text())
    bool_program = parse_program((DATA / "bool.clp").read_text())
    runs = [(min_program, _all_modes(parse_spec((DATA / "min.spec").read_text())))]
    for name in ("and_min", "and_split", "bool_full", "min_split", "min_sym", "xor"):
        runs.append((bool_program, _all_modes(parse_spec((DATA / f"{name}.spec").read_text()))))
    for item in _load_bool_family()(0, 40):
        prim = parse_spec(item["prim.spec"], mode="primitive")
        runs.append((parse_program(item["clp"]), [
            ("primitive", prim), ("splitting", prim), ("general", parse_spec(item["gen.spec"]))
        ]))
    return runs


def test_tables_decide_as_fresh_forests(monkeypatch):
    # Every goal that mining and the transform evaluate, with or without
    # user atoms, is decided from a table, with the verdict type of a forest
    # of its own, and in all-answers mode the same answers, byte for byte,
    # before evaluate renames their locals.
    decided = 0
    for program, steps in _non_recursive_runs():
        tables = {}
        for goal, kw, _ in _evaluated(monkeypatch, program, steps, transform=True):
            depth, mode, cap = kw["depth"], kw["mode"], kw["answer_cap"]
            forest = Evaluation(program, goal, depth, cap).run(mode)
            table = _from_table(program, goal, depth, mode, cap, None, tables)
            assert table is not None, goal
            decided += 1
            assert type(table) is type(forest), goal
            if mode == "all_answers":
                assert table == forest, goal
    assert decided > 10_000


def test_row_masks_decide_as_the_store_does(monkeypatch, bool_program):
    # Every table decision that mining the six bool specs in every mode and
    # transforming their rules makes: where the rows decide a goal, the store
    # of its primitives, on the same table, gives the same outcome type and
    # the same answers in the same order.
    from_table = resolution._from_table
    decided = Counter()

    def checked(program, goal, depth, mode, answer_cap, trace, tables):
        out = from_table(program, goal, depth, mode, answer_cap, trace, tables)
        table = tables[(frozenset(c for c in goal if not c.is_primitive), depth, answer_cap)]
        prims = [c for c in goal if c.is_primitive]
        by_rows = table.matching_rows(prims, mode) is not None
        decided[by_rows] += 1
        if by_rows:
            assert out == decided_on_store(goal, mode, table), (goal, mode)
        return out

    monkeypatch.setattr(resolution, "_from_table", checked)
    for name in ("and_min", "and_split", "bool_full", "min_split", "min_sym", "xor"):
        spec = parse_spec((DATA / f"{name}.spec").read_text())
        to_simplification(simplify_ruleset(_mine(monkeypatch, bool_program, _all_modes(spec))),
                          None, bool_program)
    # Nearly every decision takes the rows (621 of 662 when this was
    # written); the table of min(X,Y,Z) holds order constraints, not rows.
    assert decided[True] > 600
    assert decided[True] > 10 * decided[False]


def test_both_modes_of_an_engine_share_one_table(bool_program):
    # Exists-mode and all-answers goals over the same atoms are read off one
    # table, keyed by the engine's one answer cap.
    for opts in (MinerOptions(), MinerOptions(answer_cap=5)):
        engine = _Engine(bool_program, opts)
        assert engine.goal_fails(frozenset(parse_goal("and(X,Y,Z), Z=1, X=0"))) is FAILS
        assert isinstance(engine.goal_answers(frozenset(parse_goal("and(X,Y,Z), Z=0"))), Answers)
        assert list(engine._tables) == [(frozenset(parse_goal("and(X,Y,Z)")), 200, opts.answer_cap)]
    assert MinerOptions().answer_cap == ANSWER_CAP


def test_tabled_verdicts_agree_with_classical_ones(monkeypatch):
    # Wherever classical evaluation decides a goal that the miners evaluate,
    # the tabled verdict, now mostly read off answer tables, is the same,
    # with as many answers in all-answers mode.
    min_program = parse_program((DATA / "min.clp").read_text())
    bool_program = parse_program((DATA / "bool.clp").read_text())
    runs = []
    for program, name in [(min_program, "min")] + [
        (bool_program, name)
        for name in ("and_min", "and_split", "bool_full", "min_split", "min_sym", "xor")
    ]:
        spec = parse_spec((DATA / f"{name}.spec").read_text())
        runs += [(program, name, _all_modes(spec)), (program, name, [("general", spec)])]
    # On append most goals run into the depth bound classically; those
    # that do not are compared too (150 of 231 when this was written).
    append_program = parse_program((DATA / "append.clp").read_text())
    append_spec = parse_spec((DATA / "append.spec").read_text(), mode="primitive")
    runs.append((append_program, "append", [("primitive", append_spec)]))
    decided = Counter()
    for program, name, steps in runs:
        for goal, kw, tabled in _evaluated(monkeypatch, program, steps):
            classical = miner.evaluate(program, goal, **{**kw, "tabling": False})
            if isinstance(classical, DepthExceeded):
                continue
            decided[name] += 1
            assert type(tabled) is type(classical), (name, goal)
            if isinstance(classical, Answers) and kw["mode"] == "all_answers":
                assert len(tabled.answers) == len(classical.answers), (name, goal)
    assert sum(decided.values()) - decided["append"] > 1000
    assert decided["append"] > 100


def test_the_loop_check_keeps_every_classical_probe_verdict(monkeypatch, append_program):
    # Mining append classically in all three modes probes cut branches for
    # finiteness (176 times when this was written, each ending at a
    # repeated state); the depth-only reference agrees on every probe.
    probe = resolution._classical_finite
    verdicts = []

    def checked(program, store, seq, depth, trace):
        expected = classical_finite_by_depth(program, store.copy(), seq, depth)
        verdicts.append((probe(program, store, seq, depth, trace), expected))
        return verdicts[-1][0]

    monkeypatch.setattr(resolution, "_classical_finite", checked)
    spec = parse_spec((DATA / "append.spec").read_text(), mode="general")
    rs = _mine(monkeypatch, append_program, _all_modes(spec), opts=MinerOptions(tabling=False))
    assert rs.stats["depth_exceeded"] == 381
    assert len(verdicts) > 100
    assert all(got == expected for got, expected in verdicts)
