"""Encoding of generated rules as CHR / CHR-or source.

Left-hand-side equalities are inlined as substitutions over the whole rule,
remaining lhs primitives whose relation is declared built in move into a
guard, and the rule prints with ``==>`` / ``<=>`` (``;`` separating
splitting alternatives). The structured :class:`ChrRule` form feeds the
validation runtime; :func:`emit` renders it as source text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from . import __version__
from .program import format_term
from .rules import Rule, RuleSet
from .terms import (
    Const,
    Constraint,
    Var,
    constraint_key,
    constraints_vars,
    key_text,
    subst_constraint,
    unify,
)

_GUARD_SYMBOL = {"le": "=<", "lt": "<", "ge": ">=", "gt": ">", "neq": "\\=="}
_BODY_SYMBOL = {"eq": "=", "neq": "\\==", "le": "=<", "lt": "<", "ge": ">=", "gt": ">"}

DEFAULT_BUILTINS = frozenset({"eq", "neq", "le", "lt", "ge", "gt"})


class UnencodableRule(Exception):
    """An lhs primitive is neither an equality nor a declared builtin."""

    def __init__(self, rule: Rule, constraint: Constraint):
        super().__init__(f"cannot encode {constraint!r} in rule {rule}")
        self.rule = rule
        self.constraint = constraint


@dataclass(frozen=True)
class ChrRule:
    """A rule in encoded form: multiset of head atoms, a primitive guard,
    and one body per splitting alternative (a single body otherwise)."""

    kind: str  # failure | propagation | splitting | simplification
    heads: tuple[Constraint, ...]
    guard: tuple[Constraint, ...]
    bodies: tuple[tuple[Constraint, ...], ...]

    # What the runtime needs of a rule on every step, worked out once per
    # rule object. The runtime keeps the rule's compiled try function beside
    # these, under ``try_rule``.

    @cached_property
    def keeps_heads(self) -> bool:
        return self.kind in ("propagation", "splitting", "failure")

    @cached_property
    def signature(self) -> tuple[tuple[str, int], ...]:
        """(functor, arity) of each head."""
        return tuple((h.functor, len(h.args)) for h in self.heads)

    @cached_property
    def alternatives(self) -> tuple[tuple[tuple[Constraint, ...], tuple[Var, ...]], ...]:
        """Each body with the variables in it that no head binds, sorted by
        name: a firing gives each of them a fresh variable, in that order.
        A rule without bodies has one empty alternative."""
        head_vars = constraints_vars(self.heads)
        return tuple(
            (body, tuple(sorted(constraints_vars(body) - head_vars, key=lambda v: v.id)))
            for body in self.bodies or ((),)
        )


@dataclass
class EmitResult:
    text: str
    chr_rules: list[ChrRule] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)


def _inline_equalities(
    lhs: list[Constraint], rhs: list[Constraint]
) -> Optional[tuple[list[Constraint], list[Constraint]]]:
    """Repeatedly remove one lhs equality, turning it into a substitution
    over both sides. None when an equality is ununifiable (lhs unsat)."""
    while True:
        eq = next((c for c in lhs if c.functor == "eq"), None)
        if eq is None:
            return lhs, rhs
        lhs = [c for c in lhs if c is not eq]
        sigma = unify(eq.args[0], eq.args[1])
        if sigma is None:
            return None
        lhs = [subst_constraint(sigma, c) for c in lhs]
        rhs = [subst_constraint(sigma, c) for c in rhs]


def _trivially_true(c: Constraint) -> bool:
    if not c.is_primitive:
        return False
    left, right = c.args
    if c.functor == "eq" and left == right:
        return True
    if isinstance(left, Const) and isinstance(right, Const):
        try:
            a, b = int(left.name), int(right.name)
        except ValueError:
            return False
        return {
            "eq": a == b,
            "neq": a != b,
            "le": a <= b,
            "lt": a < b,
            "ge": a >= b,
            "gt": a > b,
        }[c.functor]
    return False


def encode_rule(rule: Rule, builtins: frozenset[str] = DEFAULT_BUILTINS) -> Optional[ChrRule]:
    """Encoded form of a rule, or None when inlining proves the lhs
    unsatisfiable. Raises UnencodableRule when an lhs primitive can be
    neither inlined nor guarded."""
    lhs = sorted(rule.lhs, key=lambda c: (c.is_primitive, constraint_key(c)))
    rhs = list(rule.rhs)
    inlined = _inline_equalities(lhs, rhs)
    if inlined is None:
        return None
    lhs, rhs = inlined
    heads = tuple(c for c in lhs if not c.is_primitive)
    guard = []
    for c in lhs:
        if not c.is_primitive:
            continue
        if c.functor not in builtins:
            raise UnencodableRule(rule, c)
        guard.append(c)
    if not heads:
        raise UnencodableRule(rule, lhs[0] if lhs else Constraint("true", ()))
    if rule.kind == "splitting":
        bodies = tuple((c,) for c in rhs)
    else:
        # Inlining can make rhs constraints trivial (1=1) or identical to a
        # guard constraint; both disappear from the body.
        bodies = (tuple(c for c in rhs if not _trivially_true(c) and c not in guard),)
    return ChrRule(rule.kind, heads, tuple(guard), bodies)


def format_chr_rule(rule: ChrRule) -> str:
    head_txt = ", ".join(_format_user(c) for c in rule.heads)
    guard_txt = ", ".join(_format_prim(c, _GUARD_SYMBOL) for c in rule.guard)
    arrow = "<=>" if rule.kind == "simplification" else "==>"
    if rule.kind == "failure":
        body_txt = "false"
    elif rule.kind == "splitting":
        body_txt = " ; ".join(
            ", ".join(_format_body_constraint(c) for c in body) for body in rule.bodies
        )
    else:
        body_txt = ", ".join(_format_body_constraint(c) for c in rule.bodies[0]) or "true"
    line = f"{head_txt} {arrow} "
    if guard_txt:
        line += f"{guard_txt} | "
    return line + f"{body_txt}."


def _format_prim(c: Constraint, table: dict) -> str:
    return f"{format_term(c.args[0])}{table[c.functor]}{format_term(c.args[1])}"


def _format_user(c: Constraint) -> str:
    if not c.args:
        return c.functor
    return f"{c.functor}({','.join(format_term(a) for a in c.args)})"


def _format_body_constraint(c: Constraint) -> str:
    if c.is_primitive:
        return _format_prim(c, _BODY_SYMBOL)
    return _format_user(c)


def emit(
    rs: RuleSet,
    builtins: Iterable[str] = DEFAULT_BUILTINS,
    header: bool = True,
) -> EmitResult:
    builtins = frozenset(builtins)
    lines = []
    chr_rules: list[ChrRule] = []
    dropped: list[str] = []
    if header:
        digest = hashlib.sha256(
            "\n".join(sorted(key_text(r.canonical_key()) for r in rs.rules)).encode()
        ).hexdigest()[:16]
        lines.append(f"% generated by chrgen {__version__}; ruleset {digest}")
    for rule in rs.rules:
        try:
            encoded = encode_rule(rule, builtins)
        except UnencodableRule as exc:
            dropped.append(f"dropped rule: {exc}")
            continue
        if encoded is None:
            dropped.append(f"dropped rule with unsatisfiable lhs: {rule}")
            continue
        chr_rules.append(encoded)
        lines.append(format_chr_rule(encoded))
    return EmitResult("\n".join(lines) + "\n", chr_rules, dropped)
