"""Parsing and modelling of constraint logic programs, goals, and
candidate-constraint specifications.

Concrete syntax is Prolog-flavoured:

    min(X,Y,Z) :- X #=< Y, Z = X.
    and(0,0,0).

with ``#=<``, ``#<``, ``#>``, ``#>=`` for order constraints and ``=`` /
``\\=`` for Herbrand equality and disequality. Lists use ``[]``,
``[H|T]``, ``[a,b]``. Variables start with an uppercase letter or ``_``;
``_G``, ``_R`` or ``_S`` followed by digits only are rejected, since
those are the names of the fresh variables that clause renaming, the CHR
runtime and rule simplification make.
Order constraints take variables and integers only. Directives
(``:- ...``) are rejected.

Spec files hold three labelled sections of comma-separated constraints:

    base: append(X,Y,Z)
    cand_lhs: X=[], Y=[], X=Z
    cand_rhs: cand_lhs
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .terms import (
    NIL,
    ORDER_RELATIONS,
    Compound,
    Const,
    Constraint,
    Term,
    Var,
    cons,
)
from .solver import is_ordered_const


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Clause:
    head: Constraint
    body_user: frozenset[Constraint]
    body_prim: frozenset[Constraint]

    # Resolution keeps the clause's compiled renaming function on the
    # clause object, under ``rename``.


@dataclass
class Program:
    clauses: list[Clause]
    predicates: dict[tuple[str, int], list[Clause]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.predicates:
            for cl in self.clauses:
                key = (cl.head.functor, len(cl.head.args))
                self.predicates.setdefault(key, []).append(cl)

    def defines(self, functor: str, arity: int) -> bool:
        return (functor, arity) in self.predicates


Goal = frozenset  # of Constraint


@dataclass
class CandidateSpec:
    base_lhs: frozenset[Constraint]
    cand_lhs: tuple[Constraint, ...]
    cand_rhs: tuple[Constraint, ...]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<op>:-|==>|<=>|\#=<|\#<|\#>=|\#>|\\=|=|;|\[|\]|\||\(|\)|,|\.)
  | (?P<name>[a-z][A-Za-z0-9_]*|-?\d+)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

# Names of fresh variables (terms.fresh_var): a goal variable named so would
# be identified with a renamed clause variable.
_RESERVED_VAR_RE = re.compile(r"_[GRS]\d+")

_REL_TOKENS = {"=": "eq", "\\=": "neq", "#=<": "le", "#<": "lt", "#>=": "ge", "#>": "gt"}
_REL_SYMBOLS = {v: k for k, v in _REL_TOKENS.items()}


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def error(self, msg: str):
        raise ParseError(msg, self.cur.line, self.cur.col)

    def eat(self, text: Optional[str] = None, kind: Optional[str] = None) -> _Tok:
        tok = self.cur
        if text is not None and tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        if kind is not None and tok.kind != kind:
            self.error(f"expected {kind}, found {tok.text!r}")
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind != "eof"

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        tok = self.cur
        if tok.kind == "var":
            if _RESERVED_VAR_RE.fullmatch(tok.text):
                self.error(f"variable name {tok.text!r} is reserved for fresh variables")
            self.eat()
            return Var(tok.text)
        if tok.kind == "name":
            self.eat()
            if self.at("("):
                self.eat("(")
                args = [self.term()]
                while self.at(","):
                    self.eat(",")
                    args.append(self.term())
                self.eat(")")
                return Compound(tok.text, tuple(args))
            return Const(tok.text)
        if self.at("["):
            return self.list_term()
        self.error(f"expected a term, found {tok.text!r}")

    def list_term(self) -> Term:
        self.eat("[")
        if self.at("]"):
            self.eat("]")
            return NIL
        items = [self.term()]
        while self.at(","):
            self.eat(",")
            items.append(self.term())
        tail: Term = NIL
        if self.at("|"):
            self.eat("|")
            tail = self.term()
        self.eat("]")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out

    # -- constraints ------------------------------------------------------

    def constraint(self) -> Constraint:
        left = self.term()
        tok = self.cur
        if tok.text in _REL_TOKENS:
            self.eat()
            rel = _REL_TOKENS[tok.text]
            right = self.term()
            c = Constraint(rel, (left, right))
            if rel in ORDER_RELATIONS:
                for side in (left, right):
                    if not (isinstance(side, Var) or is_ordered_const(side)):
                        raise ParseError(
                            f"order constraint over non-ordered term {side!r}",
                            tok.line,
                            tok.col,
                        )
            return c
        if isinstance(left, Compound):
            return Constraint(left.functor, left.args)
        if isinstance(left, Const):
            return Constraint(left.name, ())
        self.error(f"expected a constraint, found bare term {left!r}")

    def constraint_list(self, seps: tuple[str, ...] = (",",)) -> list[tuple[Constraint, _Tok]]:
        """Constraints separated by any of ``seps``, each with its first
        token, so that errors found later can point at it."""
        out = []
        while True:
            tok = self.cur
            out.append((self.constraint(), tok))
            if not any(self.at(sep) for sep in seps):
                return out
            self.eat()


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def parse_program(text: str) -> Program:
    p = _Parser(text)
    clauses: list[Clause] = []
    calls: list[tuple[Constraint, _Tok]] = []  # body atoms, in textual order
    arities: dict[str, int] = {}

    def note_arity(c: Constraint, line: int, col: int):
        if c.is_primitive:
            return
        seen = arities.get(c.functor)
        if seen is not None and seen != len(c.args):
            raise ParseError(
                f"{c.functor} used with arity {len(c.args)} and {seen}", line, col
            )
        arities[c.functor] = len(c.args)

    while p.cur.kind != "eof":
        if p.at(":-"):
            line, col = p.cur.line, p.cur.col
            p.eat(":-")
            d = p.constraint()
            raise ParseError(f"unsupported directive {d.functor}/{len(d.args)}", line, col)
        line, col = p.cur.line, p.cur.col
        head = p.constraint()
        if head.is_primitive:
            raise ParseError("clause head must be user-defined", line, col)
        note_arity(head, line, col)
        body: list[tuple[Constraint, _Tok]] = []
        if p.at(":-"):
            p.eat(":-")
            body = p.constraint_list()
        p.eat(".")
        for c, tok in body:
            note_arity(c, tok.line, tok.col)
        calls.extend((c, tok) for c, tok in body if not c.is_primitive)
        clauses.append(
            Clause(
                head,
                frozenset(c for c, _ in body if not c.is_primitive),
                frozenset(c for c, _ in body if c.is_primitive),
            )
        )

    prog = Program(clauses)
    for c, tok in calls:
        if not prog.defines(c.functor, len(c.args)):
            raise ParseError(f"undefined predicate {c.functor}/{len(c.args)}", tok.line, tok.col)
    return prog


def parse_goal(text: str) -> Goal:
    p = _Parser(text)
    cs = p.constraint_list()
    if p.at("."):
        p.eat(".")
    if p.cur.kind != "eof":
        p.error("trailing input after goal")
    return frozenset(c for c, _ in cs)


# ---------------------------------------------------------------------------
# Candidate specs
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^(base|cand_lhs|cand_rhs)\s*:\s*(.*)$")


def parse_spec(text: str, mode: str = "general") -> CandidateSpec:
    """Parse a three-section spec file. ``mode='primitive'`` additionally
    rejects user-defined constraints in cand_rhs."""
    # Each section as (line number, column, text) fragments of the file.
    sections: dict[str, list[tuple[int, int, str]]] = {"base": [], "cand_lhs": [], "cand_rhs": []}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.split("%", 1)[0]
        line = code.strip()
        if not line:
            continue
        col = len(code) - len(code.lstrip()) + 1
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            rest = m.group(2).strip()
            if rest:
                sections[current].append((lineno, col + m.start(2), rest))
        elif current is None:
            raise ParseError("constraints before any section label", lineno, 1)
        else:
            sections[current].append((lineno, col, line))

    def parse_section(name: str) -> list[tuple[Constraint, _Tok]]:
        # The fragments are laid out at their own lines and columns, so
        # that token positions are positions in the spec file.
        body, at = "", 1
        for lineno, col, fragment in sections[name]:
            body += "\n" * (lineno - at) + " " * (col - 1) + fragment
            at = lineno
        body = body.rstrip().rstrip(",.")
        if not body.strip():
            return []
        # Constraints in a section may be separated by commas or periods.
        p = _Parser(body)
        out = p.constraint_list(seps=(",", "."))
        if p.cur.kind != "eof":
            p.error(f"trailing input in section {name!r}")
        return out

    base = frozenset(c for c, _ in parse_section("base"))
    cand_lhs = parse_section("cand_lhs")
    if " ".join(fragment for _, _, fragment in sections["cand_rhs"]) == "cand_lhs":
        cand_rhs = list(cand_lhs)
    else:
        cand_rhs = parse_section("cand_rhs")

    if mode == "primitive":
        for c, tok in cand_rhs:
            if not c.is_primitive:
                raise ParseError(
                    f"user-defined constraint {c!r} in cand_rhs (primitive mode)",
                    tok.line,
                    tok.col,
                )
    return CandidateSpec(
        base,
        tuple(_dedup(c for c, _ in cand_lhs)),
        tuple(_dedup(c for c, _ in cand_rhs)),
    )


def _dedup(cs: Iterable[Constraint]) -> list[Constraint]:
    # Spec variables are shared across sections, so duplicates are detected
    # syntactically; X=<Y and Y=<X are distinct candidates.
    seen = set()
    out = []
    for c in cs:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Printing (round-trip stable)
# ---------------------------------------------------------------------------


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.id
    if isinstance(t, Const):
        return "[]" if t == NIL else t.name
    if t.functor == "cons":
        items = []
        cur: Term = t
        while isinstance(cur, Compound) and cur.functor == "cons":
            items.append(format_term(cur.args[0]))
            cur = cur.args[1]
        if cur == NIL:
            return f"[{','.join(items)}]"
        return f"[{','.join(items)}|{format_term(cur)}]"
    return f"{t.functor}({','.join(format_term(a) for a in t.args)})"


def format_constraint(c: Constraint) -> str:
    if c.is_primitive:
        return f"{format_term(c.args[0])}{_REL_SYMBOLS[c.functor]}{format_term(c.args[1])}"
    if not c.args:
        return c.functor
    return f"{c.functor}({','.join(format_term(a) for a in c.args)})"


def format_constraints(cs: Iterable[Constraint]) -> str:
    return ", ".join(format_constraint(c) for c in sorted(cs, key=format_constraint))
