"""Transformation of propagation rules into simplification rules.

For a valid propagation rule C ==> D, search for a proper subset E of C,
not covering the whole mandatory base, such that D + E ==> C is valid as
well; then C may be rewritten to D + E outright. The smallest such E (by
constraint count, canonical order breaking ties) is chosen so the
simplification removes as much as possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .miner import MinerOptions, _Engine, _ordered_subsets
from .program import Program, format_constraints
from .rules import Rule, RuleSet
from .terms import canonical_key


@dataclass
class TransformReport:
    transformed: int = 0
    unchanged: int = 0
    rejected: list[str] = field(default_factory=list)


def to_simplification(
    rs: RuleSet,
    base_lhs: Optional[frozenset] = None,
    program: Program = None,
    opts: Optional[MinerOptions] = None,
    report: Optional[TransformReport] = None,
) -> RuleSet:
    """Rewrite each propagation rule of rs whose body can absorb its head.

    When base_lhs is None the mandatory core of every rule defaults to its
    user-defined atoms, so a plain constraint like X=[] may stay behind
    while append(X,Y,Z) itself must not move to the rhs wholesale.
    """
    opts = opts or MinerOptions()
    engine = _Engine(program, opts)
    report = report if report is not None else TransformReport()
    out = RuleSet(stats=dict(rs.stats))
    for rule in rs.rules:
        if rule.kind != "propagation":
            out.add(rule)
            continue
        base = base_lhs
        if base is None:
            base = frozenset(c for c in rule.lhs if not c.is_primitive)
        e = _find_subset(engine, rule, base, report)
        if e is None:
            report.unchanged += 1
            out.add(rule)
            continue
        report.transformed += 1
        rhs = tuple(rule.rhs) + tuple(sorted(e, key=lambda c: canonical_key([c])))
        out.add(
            Rule(
                "simplification",
                rule.lhs,
                rhs,
                rule.provenance + (f"kept on rhs: {format_constraints(e) or 'nothing'}",),
            )
        )
    out.stats["transform"] = {
        "transformed": report.transformed,
        "unchanged": report.unchanged,
        "rejected": report.rejected,
        "evaluations": engine.stats.evaluations,
        "depth_exceeded": engine.stats.depth_exceeded,
    }
    return out


def _find_subset(engine, rule: Rule, base_lhs, report) -> Optional[frozenset]:
    lhs = tuple(sorted(rule.lhs, key=lambda c: canonical_key([c])))
    for e in _ordered_subsets(lhs)[:-1]:  # proper subsets only
        if base_lhs <= e:
            report.rejected.append(
                f"E = {{{format_constraints(e)}}} rejected for"
                f" {format_constraints(rule.lhs)}: whole base would move to the rhs"
            )
            continue
        if engine.answers_imply(frozenset(rule.rhs) | e, rule.lhs):
            return e
        report.rejected.append(
            f"E = {{{format_constraints(e)}}} rejected for"
            f" {format_constraints(rule.lhs)}:"
            f" {format_constraints(frozenset(rule.rhs) | e)} ==>"
            f" {format_constraints(rule.lhs)} is not valid"
        )
    return None
