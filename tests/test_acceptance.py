"""Acceptance gate: the ten headline behaviors, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Everything is generated from the data files under tests/data; the
expensive artifacts are built once in a module fixture and shared.
"""

import itertools
import time
from types import SimpleNamespace

import pytest

from chrgen import oracle
from chrgen.cli import main
from chrgen.emit import emit
from chrgen.miner import (
    MinerOptions,
    _Engine,
    mine_general,
    mine_primitive,
    mine_splitting,
    simplify_ruleset,
)
from chrgen.program import parse_goal, parse_program, parse_spec
from chrgen.rules import Rule, format_rule, parse_rules
from chrgen.solver import negate
from chrgen.terms import Const
from chrgen.transform import TransformReport, to_simplification

from conftest import DATA, GOLDEN
from util import canonical_keys, rule_lines


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """Build every pipeline artifact once, with timings."""
    tmp = tmp_path_factory.mktemp("acceptance")
    ns = SimpleNamespace()

    # -- min pipeline (criterion 1) ----------------------------------------
    t0 = time.monotonic()
    raw = tmp / "min_all.rules"
    simp = tmp / "min_all.simp"
    chr_out = tmp / "min_all.chr"
    assert main(["generate", str(DATA / "min.clp"), str(DATA / "min.spec"),
                 "--mode", "all", "--out", str(raw)]) == 0
    assert main(["transform", str(raw), str(DATA / "min.clp"),
                 "--out", str(simp)]) == 0
    assert main(["emit", str(simp), "--no-header", "--out", str(chr_out)]) == 0
    ns.min_elapsed = time.monotonic() - t0
    ns.min_rules = parse_rules(raw.read_text())
    ns.min_transformed = parse_rules(simp.read_text())
    ns.min_chr = chr_out.read_text()

    # -- append mining, tabled and classical (criterion 2) ------------------
    program = parse_program((DATA / "append.clp").read_text())
    spec = parse_spec((DATA / "append.spec").read_text(), mode="primitive")
    t0 = time.monotonic()
    ns.append_tab = mine_primitive(program, spec, MinerOptions(tabling=True))
    ns.append_tab_simplified = simplify_ruleset(ns.append_tab)
    ns.append_tab_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    ns.append_notab = mine_primitive(program, spec, MinerOptions(tabling=False))
    ns.append_notab_elapsed = time.monotonic() - t0
    ns.append_program = program
    ns.append_spec = spec

    # -- general rules (criterion 3) ----------------------------------------
    t0 = time.monotonic()
    ns.general_files = {}
    for name, spec_file in (
        ("xor_general", "xor.spec"),
        ("and_min_general", "and_min.spec"),
        ("min_sym_general", "min_sym.spec"),
    ):
        out = tmp / f"{name}.txt"
        assert main(["generate", str(DATA / "bool.clp"), str(DATA / spec_file),
                     "--mode", "general", "--no-simplify", "--out", str(out)]) == 0
        ns.general_files[name] = out.read_text()
    ns.general_elapsed = time.monotonic() - t0

    # -- splitting rules (criterion 4) ---------------------------------------
    bool_program = parse_program((DATA / "bool.clp").read_text())
    and_spec = parse_spec((DATA / "and_split.spec").read_text(), mode="primitive")
    min_split_spec = parse_spec((DATA / "min_split.spec").read_text(), mode="primitive")
    ns.bool_program = bool_program
    ns.and_split_spec = and_spec
    ns.and_split = mine_splitting(bool_program, and_spec)
    ns.min_split = mine_splitting(bool_program, min_split_spec)

    # -- transformation (criterion 5) ----------------------------------------
    ns.transform_report = TransformReport()
    ns.transform_out = to_simplification(
        parse_rules("append(X,Y,Z), X=[] ==> Y=Z."),
        None,
        program,
        report=ns.transform_report,
    )
    return ns


def test_criterion_1_min_pipeline(art):
    expected = parse_rules(
        """
        min(X,Y,Z), X#=<Y <=> Z=X, X#=<Y.
        min(X,Y,Z), Y#=<X <=> Z=Y, Y#=<X.
        min(X,Y,Z) ==> Z#=<X, Z#=<Y.
        """
    )
    have = canonical_keys(art.min_transformed)
    ok = canonical_keys(expected) <= have
    chr_ok = (
        "min(X,Y,Z) <=> X=<Y | Z=X." in art.min_chr
        and "min(X,Y,Z) <=> Y=<X | Z=Y." in art.min_chr
        and "min(X,Y,Z) ==> Z=<X, Z=<Y." in art.min_chr
    )
    fast = art.min_elapsed < 5.0
    _report(1, "min pipeline", ok and chr_ok and fast,
            f"{art.min_elapsed:.2f}s")


APPEND_TARGETS = """
append(X,Y,Z), Y=[] ==> X=Z.
append(X,Y,Z), X=Z ==> Y=[].
append(X,Y,Z), Y\\=[] ==> X\\=Z.
append(X,Y,Z), X\\=[] ==> Z\\=[].
"""


def test_criterion_2_append_tabling(art):
    target_rules = parse_rules(APPEND_TARGETS).rules
    names = {r.canonical_key(): format_rule(r) for r in target_rules}
    targets = set(names)

    def covered(rs):
        have = set()
        for r in rs.rules:
            if r.kind != "propagation":
                continue
            for d in r.rhs:
                have.add(Rule("propagation", r.lhs, (d,)).canonical_key())
        return have

    with_tabling = covered(art.append_tab)
    without = covered(art.append_notab)
    ok_tab = targets <= with_tabling
    ok_notab = not (targets & without)
    depth_hits = art.append_notab.stats.get("depth_exceeded", 0)
    fast = art.append_tab_elapsed + art.append_notab_elapsed < 10.0
    failed = []
    if not ok_tab:
        missing = sorted(names[k] for k in targets - with_tabling)
        failed.append(f"tabled rules miss {missing}")
    if not ok_notab:
        held = sorted(names[k] for k in targets & without)
        failed.append(f"classical rules hold {held}")
    if depth_hits < 4:
        failed.append(f"classical depth_exceeded {depth_hits} < 4")
    if not fast:
        total = art.append_tab_elapsed + art.append_notab_elapsed
        failed.append(f"tabled + classical {total:.2f}s >= 10s")
    _report(
        2, "append tabling",
        ok_tab and ok_notab and depth_hits >= 4 and fast,
        f"tabled {art.append_tab_elapsed:.2f}s, classical "
        f"{art.append_notab_elapsed:.2f}s, depth_exceeded {depth_hits}"
        + "".join(f"; {f}" for f in failed),
    )


def test_criterion_3_general_rules(art):
    ok = True
    for name, text in art.general_files.items():
        golden = (GOLDEN / f"{name}.txt").read_text()
        ok = ok and text == golden
    xor_lines = set(art.general_files["xor_general"].splitlines())
    ok = ok and {
        "xor(X,Y,Z), X=1 ==> neg(Y,Z), xor(Y,X,Z).",
        "xor(X,Y,Z), Y=1 ==> neg(X,Z), xor(Y,X,Z).",
        "xor(X,Y,Z), Z=1 ==> neg(X,Y), xor(Y,X,Z).",
        "xor(X,Y,Z) ==> xor(Y,X,Z).",
    } <= xor_lines
    ok = ok and "and(X,Y,Z) ==> min(X,Y,Z)." in art.general_files["and_min_general"]
    ok = ok and "min(X,Y,Z) ==> min(Y,X,Z)." in art.general_files["min_sym_general"]
    fast = art.general_elapsed < 10.0
    _report(3, "general rules vs goldens", ok and fast,
            f"{art.general_elapsed:.2f}s")


def test_criterion_4_splitting(art):
    ok = "and(X,Y,Z), Z=0 ==> X=0 ; Y=0." in rule_lines(art.and_split)
    ok = ok and "min(X,Y,Z) ==> X=Z ; Y=Z." in rule_lines(art.min_split)

    # inject a prior propagation rule and verify the subsumed pair rules
    # are gone without their goals ever reaching the evaluator
    prior = parse_rules("and(X,Y,Z), X=1, Y=1 ==> Z=1.")
    prior_rule = prior.rules[0]
    engine = _Engine(art.bool_program, MinerOptions())
    evaluated_goals = []
    original = engine.goal_fails

    def spy(constraints):
        evaluated_goals.append(constraints)
        return original(constraints)

    engine.goal_fails = spy
    rs = mine_splitting(art.bool_program, art.and_split_spec, prior=prior,
                        engine=engine)
    subsumed_rules = [
        r for r in rs.rules
        if prior_rule.lhs <= r.lhs and any(d in prior_rule.rhs for d in r.rhs)
    ]
    skipped = engine.stats.skipped_redundant_splitting
    # no evaluated goal corresponds to a pair the prior rule covers
    spec = art.and_split_spec
    banned = 0
    for goal in evaluated_goals:
        if prior_rule.lhs <= goal:
            negs = goal - prior_rule.lhs
            if any(negate(d) in negs for d in prior_rule.rhs):
                banned += 1
    _report(
        4, "splitting with prior-rule skip",
        ok and not subsumed_rules and skipped > 0 and banned == 0,
        f"skipped {skipped}, banned goal evaluations {banned}",
    )


def test_criterion_5_transformation(art):
    (rule,) = art.transform_out.rules
    ok = rule.kind == "simplification"
    ok = ok and rule.lhs == frozenset(parse_goal("append(X,Y,Z), X=[]"))
    ok = ok and set(rule.rhs) == set(parse_goal("X=[], Y=Z"))
    notes = art.transform_report.rejected
    ok = ok and any("E = {}" in n and "not valid" in n for n in notes)
    ok = ok and any("append" in n and "base" in n for n in notes)
    _report(5, "propagation to simplification", ok)


def test_criterion_6_emission():
    and_text = emit(parse_rules("and(X,Y,Z), Z=1 <=> X=1, Y=1, Z=1."),
                    header=False).text
    min_text = emit(parse_rules("min(X,Y,Z), X#=<Y <=> Z=X, X#=<Y."),
                    header=False).text
    ok = and_text == "and(X,Y,1) <=> X=1, Y=1.\n"
    ok = ok and min_text == "min(X,Y,Z) <=> X=<Y | Z=X.\n"
    _report(6, "byte-exact emission", ok)


def test_criterion_7_redundancy():
    rs = parse_rules(
        """
        p(X) ==> r(X).
        p(X), q(X) ==> r(X).
        s(X,Y) ==> X=Y, X=a, Y=a.
        """
    )
    out = simplify_ruleset(rs)
    ok = rule_lines(out) == {"p(X) ==> r(X).", "s(X,Y) ==> X=a, Y=a."}
    _report(7, "redundancy simplification", ok)


def test_criterion_8_soundness(art):
    t0 = time.monotonic()
    bool_terms = [Const("0"), Const("1")]
    bool_facts = oracle.success_set(art.bool_program, bool_terms)
    min_program = parse_program((DATA / "min.clp").read_text())
    min_terms = [Const("0"), Const("1"), Const("2")]
    min_facts = oracle.success_set(min_program, min_terms)
    append_terms = oracle.universe(["a", "b"], list_depth=3)
    append_facts = oracle.success_set(art.append_program, append_terms)

    batches = [
        (art.min_rules, min_facts, min_terms),
        (art.min_transformed, min_facts, min_terms),
        (art.append_tab, append_facts, append_terms),
        (art.append_notab, append_facts, append_terms),
        (art.and_split, bool_facts, bool_terms),
        (art.min_split, bool_facts, bool_terms),
        (art.transform_out, append_facts, append_terms),
    ]
    for name, text in art.general_files.items():
        batches.append((parse_rules(text), bool_facts, bool_terms))

    total = 0
    violations = []
    for rs, facts, terms in batches:
        for rule in rs.rules:
            total += 1
            cex = oracle.check_rule(rule, facts, terms)
            if cex is not None:
                violations.append(str(cex))
    elapsed = time.monotonic() - t0
    _report(
        8, "ground-oracle soundness",
        not violations and total >= 100 and elapsed < 60.0,
        f"{total} rules, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_9_oracle_equivalence(art):
    bool_terms = [Const("0"), Const("1")]
    facts = oracle.success_set(art.bool_program, bool_terms)
    mismatches = []
    opts = MinerOptions(opt1=False, opt2=False)
    # only the fact-defined predicates: a clause body with order
    # primitives (like the boolean min) lets the resolution engine range
    # over all integers, so the ground {0,1} oracle is not the right
    # reference for it
    for base_text, arity in (
        ("and(X,Y,Z)", 3), ("xor(X,Y,Z)", 3), ("neg(X,Y)", 2),
    ):
        names = "XYZ"[:arity]
        cand = ", ".join(f"{v}={b}" for v in names for b in "01")
        spec = parse_spec(
            f"base: {base_text}\ncand_lhs: {cand}\ncand_rhs: cand_lhs",
            mode="primitive",
        )
        rs = mine_primitive(art.bool_program, spec, opts)

        emitted_props = set()
        emitted_fails = set()
        for r in rs.rules:
            if r.kind == "failure":
                emitted_fails.add(r.lhs)
            else:
                for d in r.rhs:
                    emitted_props.add((r.lhs, d))

        base = spec.base_lhs
        subsets = []
        for size in range(len(spec.cand_lhs) + 1):
            subsets.extend(
                frozenset(c) for c in itertools.combinations(spec.cand_lhs, size)
            )

        def sat(lhs):
            return oracle.goal_has_ground_solution(lhs, facts, bool_terms)

        predicted_props = set()
        predicted_fails = set()
        for c_lhs in subsets:
            lhs = base | c_lhs
            if not sat(lhs):
                if all(
                    sat(base | frozenset(sub))
                    for size in range(len(c_lhs))
                    for sub in itertools.combinations(c_lhs, size)
                ):
                    predicted_fails.add(lhs)
                continue
            for d in spec.cand_rhs:
                if d in lhs:
                    continue
                if not oracle.goal_has_ground_solution(
                    lhs | {negate(d)}, facts, bool_terms
                ):
                    predicted_props.add((lhs, d))

        if emitted_props != predicted_props or emitted_fails != predicted_fails:
            mismatches.append(base_text)
    _report(9, "finite-domain oracle equivalence", not mismatches,
            f"mismatches: {mismatches}" if mismatches else "3 predicates")


def test_criterion_10_optimization_neutrality(art):
    opts_on = MinerOptions()
    opts_off = MinerOptions(opt1=False, opt2=False, opt3=False)
    same = True
    strictly_fewer = True
    details = []

    min_program = parse_program((DATA / "min.clp").read_text())
    min_spec = parse_spec((DATA / "min.spec").read_text(), mode="primitive")
    runs = [
        ("min primitive", min_program, min_spec, mine_primitive),
        ("append primitive", art.append_program, art.append_spec, mine_primitive),
        ("and splitting", art.bool_program, art.and_split_spec, mine_splitting),
        ("min general", art.bool_program,
         parse_spec((DATA / "min_sym.spec").read_text(), mode="general"),
         mine_general),
    ]
    for name, program, spec, miner_fn in runs:
        eng_on = _Engine(program, opts_on)
        eng_off = _Engine(program, opts_off)
        if miner_fn is mine_splitting:
            on = miner_fn(program, spec, opts=opts_on, engine=eng_on)
            off = miner_fn(program, spec, opts=opts_off, engine=eng_off)
        else:
            on = miner_fn(program, spec, opts_on, engine=eng_on)
            off = miner_fn(program, spec, opts_off, engine=eng_off)
        if canonical_keys(simplify_ruleset(on)) != canonical_keys(simplify_ruleset(off)):
            same = False
            details.append(f"{name}: rule sets differ")
        if eng_on.stats.evaluations > eng_off.stats.evaluations:
            strictly_fewer = False
            details.append(f"{name}: more evaluations with optimizations on")
        if miner_fn is mine_primitive and not (
            eng_on.stats.evaluations < eng_off.stats.evaluations
        ):
            strictly_fewer = False
            details.append(f"{name}: no strict decrease")
    _report(10, "optimization neutrality", same and strictly_fewer,
            "; ".join(details) if details else "4 runs compared")
