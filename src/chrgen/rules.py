"""Rule and rule-set model with text and JSON serialization.

Text format, one rule per line:

    min(X,Y,Z), Y#=<X ==> Z=Y.          % propagation
    p(X), q(X) ==> false.               % failure
    and(X,Y,Z), Z=0 ==> X=0 ; Y=0.      % splitting
    min(X,Y,Z), Y#=<X <=> Z=Y, Y#=<X.   % simplification
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .program import _Parser, format_constraint
from .terms import Constraint, canonical_key, constraint_key, flat_key

KINDS = ("failure", "propagation", "splitting", "simplification")


@dataclass(frozen=True)
class Rule:
    kind: str
    lhs: frozenset[Constraint]
    rhs: tuple[Constraint, ...]
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        assert self.kind in KINDS
        if self.kind == "failure":
            assert not self.rhs
        if self.kind == "splitting":
            assert len(self.rhs) == 2 and self.rhs[0] != self.rhs[1]

    def canonical_key(self) -> tuple:
        # One canonical form over lhs and rhs together so shared variables
        # stay aligned; the marker constant separates the two sides.
        marked = list(self.lhs) + [
            Constraint(f"$rhs_{i}_{c.functor}", c.args) for i, c in enumerate(self.rhs)
        ]
        return (self.kind, canonical_key(marked))

    def sort_key(self) -> tuple:
        """The canonical key as a :func:`terms.flat_key`, cached: variant
        rules over a deep term then compare and sort without recursion."""
        key = self.__dict__.get("_key")
        if key is None:
            key = flat_key(self.canonical_key())
            object.__setattr__(self, "_key", key)
        return key


@dataclass
class RuleSet:
    rules: list[Rule] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self._keys = {r.sort_key() for r in self.rules}

    def add(self, rule: Rule) -> bool:
        """Append unless a variant rule is already present."""
        key = rule.sort_key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.rules.append(rule)
        return True

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def format_rule(rule: Rule, provenance: bool = False) -> str:
    lhs = ", ".join(
        format_constraint(c) for c in sorted(rule.lhs, key=_lhs_order)
    )
    if rule.kind == "failure":
        body = "false"
    elif rule.kind == "splitting":
        body = f"{format_constraint(rule.rhs[0])} ; {format_constraint(rule.rhs[1])}"
    else:
        body = ", ".join(format_constraint(c) for c in rule.rhs)
    arrow = "<=>" if rule.kind == "simplification" else "==>"
    line = f"{lhs} {arrow} {body}."
    if provenance and rule.provenance:
        line += "".join(f"\n  % {note}" for note in rule.provenance)
    return line


def _lhs_order(c: Constraint) -> tuple:
    # User-defined atoms before primitive constraints, as CHR heads are
    # conventionally written.
    return (c.is_primitive, constraint_key(c))


def format_ruleset(rs: RuleSet, provenance: bool = False) -> str:
    return "\n".join(format_rule(r, provenance) for r in rs.rules) + ("\n" if rs.rules else "")


def ruleset_to_json(rs: RuleSet) -> str:
    records = []
    for r in rs.rules:
        records.append(
            {
                "kind": r.kind,
                "lhs": sorted(format_constraint(c) for c in r.lhs),
                "rhs": [format_constraint(c) for c in r.rhs],
                "provenance": list(r.provenance),
            }
        )
    return json.dumps({"rules": records, "stats": rs.stats}, indent=2) + "\n"


def parse_rules(text: str) -> RuleSet:
    rs = RuleSet()
    for raw in text.splitlines():
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        p = _Parser(line)
        lhs = frozenset(c for c, _ in p.constraint_list())
        arrow = p.eat(kind="op").text
        if arrow not in ("==>", "<=>"):
            p.error(f"expected ==> or <=>, found {arrow!r}")
        if p.cur.text == "false":
            p.eat()
            p.eat(".")
            rs.rules.append(Rule("failure", lhs, ()))
            continue
        first = p.constraint()
        if p.cur.text == ";":
            p.eat(";")
            second = p.constraint()
            p.eat(".")
            rs.rules.append(Rule("splitting", lhs, (first, second)))
            continue
        rhs = [first]
        while p.cur.text == ",":
            p.eat(",")
            rhs.append(p.constraint())
        p.eat(".")
        kind = "simplification" if arrow == "<=>" else "propagation"
        rs.rules.append(Rule(kind, lhs, tuple(rhs)))
    return rs
