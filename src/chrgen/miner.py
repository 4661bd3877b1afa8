"""Mining of failure, propagation, splitting, and general propagation rules,
plus redundancy simplification of the resulting rule set.

The primitive miner enumerates candidate left hand sides smallest first,
prunes supersets of failing ones, and asks the tabled engine one
fail/succeed question per (lhs, rhs-candidate) pair. The general miner
replaces the negated-goal test by an answer-set comparison so user-defined
constraints may appear on the right hand side.

The bookkeeping around those questions is done once per lhs, not once per
rule or pair. An engine orders the candidate subsets once for the miners
that share it. The splitting miner checks each pair against what the prior
rules imply for its lhs, collected once per lhs. ``simplify_ruleset`` keys
each lhs once, and closes it once under the kept rules, until the next rule
is kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import solver
from .program import CandidateSpec, Program, format_constraints
from .resolution import ANSWER_CAP, FAILS, Answers, DepthExceeded, Fails, evaluate
from .rules import KINDS, Rule, RuleSet
from .solver import BlowupExceeded, dnf_satisfiable, negate, store_from
from .terms import (
    Constraint,
    canonical_key,
    constraint_key,
    constraints_vars,
    flat_key,
    match_into,
    match_subst_constraints,
    renaming_for,
    subst_constraint,
)


@dataclass
class MinerOptions:
    depth: int = 200
    tabling: bool = True
    opt1: bool = True  # skip trivially redundant failure rules
    opt2: bool = True  # skip lhs supersets of C1+{d} once C1 ==> d exists
    opt3: bool = True  # reuse failed goal evaluations (contrapositive rules)
    dnf_cap: int = 10_000
    answer_cap: int = ANSWER_CAP
    trace: Optional[object] = None


@dataclass
class MinerStats:
    evaluations: int = 0
    depth_exceeded: int = 0
    skipped_opt1: int = 0
    skipped_opt2: int = 0
    skipped_opt3: int = 0
    skipped_redundant_splitting: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Engine:
    """Shared goal-evaluation plumbing with a verdict cache.

    Each goal set is evaluated at most once per mode (the exists-mode cache
    only with ``opt3``), and every evaluation counts in ``evaluations``.
    Tabled evaluations in both modes share the engine's answer tables,
    keyed by its one answer cap (see :func:`resolution.evaluate`). With
    tabling off every goal is evaluated classically.
    """

    def __init__(self, program: Program, opts: MinerOptions):
        self.program = program
        self.opts = opts
        self.stats = MinerStats()
        self._fail_cache: dict[frozenset, object] = {}
        self._answers_cache: dict[frozenset, object] = {}
        self._subsets: dict[tuple, list[frozenset]] = {}
        self._tables: dict = {}  # see resolution.evaluate

    def ordered_subsets(self, cands: tuple[Constraint, ...]) -> list[frozenset]:
        """:func:`_ordered_subsets` of a candidate list, computed once per
        engine and shared by the miners that run on it."""
        subsets = self._subsets.get(cands)
        if subsets is None:
            subsets = self._subsets[cands] = _ordered_subsets(cands)
        return subsets

    def _evaluate(self, constraints: frozenset, mode: str):
        outcome = evaluate(
            self.program,
            constraints,
            depth=self.opts.depth,
            mode=mode,
            tabling=self.opts.tabling,
            answer_cap=self.opts.answer_cap,
            trace=self.opts.trace,
            tables=self._tables,
        )
        self.stats.evaluations += 1
        if isinstance(outcome, DepthExceeded):
            self.stats.depth_exceeded += 1
        return outcome

    def goal_fails(self, constraints: frozenset):
        """Outcome of an exists-mode evaluation, cached per goal set."""
        if constraints in self._fail_cache:
            self.stats.skipped_opt3 += 1
            return self._fail_cache[constraints]
        if store_from([c for c in constraints if c.is_primitive]) is None:
            # The primitive part alone is unsatisfiable; no resolution needed.
            outcome = FAILS
        else:
            outcome = self._evaluate(constraints, "exists")
        if self.opts.opt3:
            self._fail_cache[constraints] = outcome
        return outcome

    def goal_answers(self, constraints: frozenset):
        """Outcome of an all-answers evaluation, cached per goal set."""
        if constraints not in self._answers_cache:
            self._answers_cache[constraints] = self._evaluate(constraints, "all_answers")
        return self._answers_cache[constraints]

    def answers_imply(self, lhs: frozenset, rhs: frozenset) -> bool:
        """Validity of lhs ==> rhs, with rhs one jointly quantified set, by
        the answer-set test: no answer of lhs lies outside every answer of
        lhs + rhs. False when either evaluation is cut or the comparison
        blows up."""
        if rhs <= lhs:
            return True
        pos_out = self.goal_answers(lhs)
        if not isinstance(pos_out, (Answers, Fails)):
            return False
        ext_out = self.goal_answers(lhs | rhs)
        if not isinstance(ext_out, (Answers, Fails)):
            return False
        pos = list(pos_out.answers) if isinstance(pos_out, Answers) else []
        ext = list(ext_out.answers) if isinstance(ext_out, Answers) else []
        try:
            return not dnf_satisfiable(pos, ext, cap=self.opts.dnf_cap)
        except BlowupExceeded:
            return False


def _ordered_subsets(cands: tuple[Constraint, ...]) -> list[frozenset]:
    """All subsets of the candidate list, cardinality ascending, ties in
    canonical lexicographic order (compatible with subset partial order)."""
    out = []
    for size in range(len(cands) + 1):
        layer = [frozenset(c) for c in itertools.combinations(cands, size)]
        layer.sort(key=canonical_key)
        out.extend(layer)
    return out


def _primitive_rhs(spec: CandidateSpec) -> list[Constraint]:
    """The rhs candidates the primitive and splitting miners test, by
    failure of the goal with their negation; user-defined ones are left to
    the general miner."""
    return [d for d in spec.cand_rhs if d.is_primitive]


def mine_primitive(
    program: Program,
    spec: CandidateSpec,
    opts: Optional[MinerOptions] = None,
    engine: Optional[_Engine] = None,
) -> RuleSet:
    opts = opts or MinerOptions()
    engine = engine or _Engine(program, opts)
    rs = RuleSet()
    base = spec.base_lhs
    cand_lhs_set = frozenset(spec.cand_lhs)
    cand_rhs = _primitive_rhs(spec)

    failure_filters: list[frozenset] = []  # emitted failure lhs (candidate part)
    silent_failures: list[frozenset] = []  # opt1: known failing, never emitted
    opt2_blocks: list[tuple[frozenset, Constraint]] = []

    for c_lhs in engine.ordered_subsets(spec.cand_lhs):
        if any(f <= c_lhs for f in failure_filters):
            continue
        if opts.opt1 and any(f <= c_lhs for f in silent_failures):
            engine.stats.skipped_opt1 += 1
            continue
        if opts.opt2 and any(c1 < c_lhs and d in c_lhs for c1, d in opt2_blocks):
            engine.stats.skipped_opt2 += 1
            continue
        lhs = base | c_lhs
        outcome = engine.goal_fails(lhs)
        if isinstance(outcome, Fails):
            failure_filters.append(c_lhs)
            if opts.opt1 and store_from(c_lhs) is None:
                # The candidate part alone is unsatisfiable: the failure
                # rule would be trivially redundant. Keep the filter only.
                engine.stats.skipped_opt1 += 1
                continue
            rs.add(
                Rule(
                    "failure",
                    lhs,
                    (),
                    (f"goal failed: {format_constraints(lhs)}",),
                )
            )
            continue
        if isinstance(outcome, DepthExceeded):
            continue
        rhs: list[Constraint] = []
        notes: list[str] = []
        for d in cand_rhs:
            if d in lhs:
                # Trivially valid; only worth noting that C+{not(d)} would
                # be a trivially redundant failure rule.
                if negate(d) in cand_lhs_set:
                    silent_failures.append(c_lhs | {negate(d)})
                continue
            goal = lhs | {negate(d)}
            d_outcome = engine.goal_fails(goal)
            if isinstance(d_outcome, Fails):
                rhs.append(d)
                notes.append(f"goal failed: {format_constraints(goal)}")
                if negate(d) in cand_lhs_set:
                    # The later lhs C+{not(d)} would only yield a trivially
                    # redundant failure rule.
                    silent_failures.append(c_lhs | {negate(d)})
                if d in cand_lhs_set:
                    opt2_blocks.append((c_lhs, d))
        if rhs:
            rs.add(Rule("propagation", lhs, tuple(rhs), tuple(notes)))
    rs.stats = engine.stats.as_dict()
    return rs


def mine_splitting(
    program: Program,
    spec: CandidateSpec,
    prior: Optional[RuleSet] = None,
    opts: Optional[MinerOptions] = None,
    engine: Optional[_Engine] = None,
) -> RuleSet:
    """Primitive splitting rules lhs ==> d1 ; d2, skipping pairs already
    implied by a prior propagation rule (the validity test itself is
    avoided in that case). The prior rules are read once per lhs: a
    failure rule among those that apply skips it, and the rhs constraints
    of the others are what each pair is checked against."""
    opts = opts or MinerOptions()
    engine = engine or _Engine(program, opts)
    rs = RuleSet()
    base = spec.base_lhs
    prior_rules = list(prior.rules) if prior else []
    # A pair whose negations contradict each other outright gives the
    # tautology d1 ; d2, not worth emitting; that depends on the pair only.
    pairs = [
        (d1, d2, not solver.satisfiable([negate(d1), negate(d2)]))
        for d1, d2 in itertools.combinations(_primitive_rhs(spec), 2)
    ]

    for c_lhs in engine.ordered_subsets(spec.cand_lhs):
        lhs = base | c_lhs
        applicable = [r for r in prior_rules if r.lhs <= lhs]
        if any(r.kind == "failure" for r in applicable):
            continue
        implied = {
            d
            for r in applicable
            if r.kind in ("propagation", "simplification")
            for d in r.rhs
        }
        for d1, d2, tautology in pairs:
            if d1 in lhs or d2 in lhs:
                continue
            if d1 in implied or d2 in implied:
                engine.stats.skipped_redundant_splitting += 1
                continue
            if tautology:
                continue
            goal = lhs | {negate(d1), negate(d2)}
            outcome = engine.goal_fails(goal)
            if isinstance(outcome, Fails):
                rs.add(
                    Rule(
                        "splitting",
                        lhs,
                        (d1, d2),
                        (f"goal failed: {format_constraints(goal)}",),
                    )
                )
    rs.stats = engine.stats.as_dict()
    return rs


def mine_general(
    program: Program,
    spec: CandidateSpec,
    opts: Optional[MinerOptions] = None,
    engine: Optional[_Engine] = None,
) -> RuleSet:
    """Propagation rules whose rhs may contain user-defined constraints,
    validated by comparing the answer sets of lhs and lhs+{d}."""
    opts = opts or MinerOptions()
    engine = engine or _Engine(program, opts)
    rs = RuleSet()
    base = spec.base_lhs
    failure_filters: list[frozenset] = []

    for c_lhs in engine.ordered_subsets(spec.cand_lhs):
        if any(f <= c_lhs for f in failure_filters):
            continue
        lhs = base | c_lhs
        outcome = engine.goal_fails(lhs)
        if isinstance(outcome, Fails):
            rs.add(Rule("failure", lhs, (), (f"goal failed: {format_constraints(lhs)}",)))
            failure_filters.append(c_lhs)
            continue
        if isinstance(outcome, DepthExceeded):
            continue
        rhs: list[Constraint] = []
        notes: list[str] = []
        for d in spec.cand_rhs:
            if d in lhs:
                continue
            valid = None
            if d.is_primitive:
                neg_outcome = engine.goal_fails(lhs | {negate(d)})
                if isinstance(neg_outcome, Fails):
                    valid = True
                    notes.append(
                        f"goal failed: {format_constraints(lhs | {negate(d)})}"
                    )
                elif isinstance(neg_outcome, Answers):
                    valid = False
                # DepthExceeded: fall through to the answer-set test.
            if valid is None:
                valid = engine.answers_imply(lhs, frozenset((d,)))
                if valid:
                    notes.append(
                        f"answer sets coincide: {format_constraints(lhs)} vs"
                        f" {format_constraints(lhs | {d})}"
                    )
            if valid:
                rhs.append(d)
        if rhs:
            rs.add(Rule("propagation", lhs, tuple(rhs), tuple(notes)))
    rs.stats = engine.stats.as_dict()
    return rs


# ---------------------------------------------------------------------------
# Redundancy simplification
# ---------------------------------------------------------------------------


def _closure(
    lhs: frozenset, kept: Iterable[tuple[Rule, list[Constraint]]], rounds: int = 10
) -> Optional[frozenset]:
    """Saturate a constraint set under the kept rules (propagation reading),
    each given with its lhs sorted by constraint key. Returns None when the
    closure turns inconsistent.

    The rules are not renamed apart from the set. Matching is one-way: a
    matcher binds only the rule's lhs variables, to terms of the set, and
    is never applied to the set, so a name the two share means nothing.
    The matcher replaces every lhs variable in the rhs; the rhs variables
    it leaves alone were renamed apart once, when the rule was kept.
    """
    current = set(lhs)
    for _ in range(rounds):
        added = False
        for r, r_lhs in kept:
            for sigma in match_into(r_lhs, current):
                if r.kind == "failure":
                    return None
                for c in match_subst_constraints(sigma, r.rhs):
                    if c not in current:
                        current.add(c)
                        added = True
                break  # one matcher per rule per round keeps this bounded
        if store_from([c for c in current if c.is_primitive]) is None:
            return None
        if not added or len(current) > 200:
            break
    return frozenset(current)


def _closure_entry(rule: Rule) -> tuple[Rule, list[Constraint]]:
    """A kept rule as :func:`_closure` reads it: the rule, with the rhs
    variables that its lhs does not bind renamed apart, and its lhs sorted
    by constraint key."""
    local = constraints_vars(rule.rhs) - constraints_vars(rule.lhs)
    if local:
        ren = renaming_for(local, prefix="_S")
        rule = Rule(
            rule.kind, rule.lhs, tuple(subst_constraint(ren, c) for c in rule.rhs),
            rule.provenance,
        )
    return rule, sorted(rule.lhs, key=constraint_key)


def simplify_ruleset(rs: RuleSet) -> RuleSet:
    """Order rules most-general-lhs first, simplify every rhs against the
    primitive solver and the already-kept rules, and drop rules whose rhs
    becomes empty or whose lhs is inconsistent with the kept rules.
    Splitting rules are kept in the output but never saturate a closure.

    Rules that share an lhs share its canonical key, its closure and the
    primitive store of that closure; the last two hold until the next rule
    is kept, since only the kept rules change a closure."""
    lhs_keys: dict[frozenset, tuple] = {}

    def order(rule: Rule) -> tuple:
        # (len(lhs), lhs key, kind index, rule key), flattened, so that
        # sorting deep keys does not recurse.
        key = lhs_keys.get(rule.lhs)
        if key is None:
            key = lhs_keys[rule.lhs] = flat_key(canonical_key(rule.lhs))
        return (len(rule.lhs), *key, KINDS.index(rule.kind), *rule.sort_key())

    kept: list[tuple[Rule, list[Constraint]]] = []
    closures: dict[frozenset, Optional[frozenset]] = {}
    contexts: dict[frozenset, Optional[solver.Store]] = {}

    def keep(rule: Rule) -> None:
        kept.append(_closure_entry(rule))
        closures.clear()
        contexts.clear()

    out = RuleSet(stats=dict(rs.stats))
    for rule in sorted(rs.rules, key=order):
        if rule.lhs not in closures:
            closures[rule.lhs] = _closure(rule.lhs, kept)
        closure = closures[rule.lhs]
        if closure is None:
            continue  # lhs unsatisfiable given kept rules: rule is vacuous
        if rule.kind == "failure":
            out.add(rule)
            keep(rule)
            continue
        if rule.kind == "splitting":
            if any(d in closure for d in rule.rhs):
                continue
            if rule.lhs not in contexts:
                contexts[rule.lhs] = store_from([c for c in closure if c.is_primitive])
            ctx = contexts[rule.lhs]
            if ctx is not None and any(
                d.is_primitive and solver.entails(ctx, d) for d in rule.rhs
            ):
                continue
            out.add(rule)
            continue
        rhs = _simplify_rhs(rule, closure)
        if not rhs:
            continue
        new_rule = Rule(rule.kind, rule.lhs, rhs, rule.provenance)
        if out.add(new_rule):
            keep(new_rule)
    return out


def _simplify_rhs(rule: Rule, closure: frozenset) -> tuple[Constraint, ...]:
    ctx_prims = [c for c in closure if c.is_primitive]
    remaining = sorted(set(rule.rhs), key=constraint_key)
    kept: list[Constraint] = []
    for i, c in enumerate(remaining):
        others = kept + remaining[i + 1 :]
        if not c.is_primitive:
            if c in closure:
                continue
            kept.append(c)
            continue
        base = store_from(ctx_prims + [x for x in others if x.is_primitive])
        if base is not None and solver.entails(base, c):
            continue
        kept.append(c)
    # Restore the original rhs order for the survivors.
    order = {constraint_key(c): i for i, c in enumerate(rule.rhs)}
    kept.sort(key=lambda c: order.get(constraint_key(c), len(order)))
    return tuple(kept)
