"""Terms, substitutions, unification and theta-subsumption.

Terms are immutable: variables, constants, and compound terms. Lists are
built from the functor ``cons`` with the constant ``nil`` as terminator.
Constraint sets are frozensets of :class:`Constraint` objects (primitive
relations or user-defined atoms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Union

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Var(tuple):
    """A logic variable, identified by its name.

    A one-element tuple holding the name. Hashing and equality then run in
    the interpreter's own code, which the store's union-find and every
    substitution rely on in their innermost loops. The hash is
    ``hash((name,))``; for a given hash seed it fixes the iteration order of
    sets of variables, on which some output orderings depend. A variable
    never equals a :class:`Const` or :class:`Compound`; code keeps
    variables apart from plain tuples.
    """

    __slots__ = ()

    def __new__(cls, id: str):
        return tuple.__new__(cls, (id,))

    id = property(itemgetter(0), doc="The name.")

    def __repr__(self):
        return self[0]


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self):
        return self.name


class _Frozen:
    """Immutable record with slots: fields are set once, in ``__init__``.
    Slotted, so that each term is one object for the garbage collector,
    not two."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_init = object.__setattr__


class Compound(_Frozen):
    __slots__ = ("functor", "args", "_hash")

    def __init__(self, functor: str, args: tuple["Term", ...]):
        _init(self, "functor", functor)
        _init(self, "args", args)

    def __eq__(self, other):
        # Iterative, so that a long list spine compares within Python's
        # recursion limit. Hashes are cached on every subterm once the
        # outer ones are taken, so unequal subterms usually differ there.
        if self is other:
            return True
        if not isinstance(other, Compound):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is Compound:
                    if y.__class__ is not Compound or hash(x) != hash(y):
                        return False
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # Deeply nested terms get hashed a lot; compute once. The value is
        # hash((functor, args)); uncached compound arguments are hashed
        # bottom-up first, so that the tuple hash never recurses deeply.
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            t = stack[-1]
            deeper = [
                a for a in t.args if a.__class__ is Compound and not hasattr(a, "_hash")
            ]
            if deeper:
                stack.extend(deeper)
                continue
            stack.pop()
            _init(t, "_hash", hash((t.functor, t.args)))
        return self._hash

    def __repr__(self):
        return f"{self.functor}({', '.join(map(repr, self.args))})"


Term = Union[Var, Const, Compound]

NIL = Const("nil")


def cons(head: Term, tail: Term) -> Compound:
    return Compound("cons", (head, tail))


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


def term_vars(t: Term) -> set[Var]:
    # Iterative, so that a long list spine stays within the recursion limit.
    out: set[Var] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t)
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return out


def occurs(v: Var, t: Term, s: Optional[Mapping[Var, Term]] = None) -> bool:
    """Whether v occurs in t; with s, bound variables are read through s.
    Iterative, like :func:`term_vars`."""
    stack = [t]
    seen: set[Var] = set()
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t == v:
                return True
            if s and t not in seen:
                seen.add(t)
                bound = s.get(t)
                if bound is not None:
                    stack.append(bound)
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return False


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

#: Primitive relation names, paired with their negations.
NEGATION = {"eq": "neq", "neq": "eq", "le": "gt", "gt": "le", "lt": "ge", "ge": "lt"}
PRIMITIVE_RELATIONS = frozenset(NEGATION)
ORDER_RELATIONS = frozenset({"le", "lt", "ge", "gt"})


class Constraint(_Frozen):
    """A primitive constraint (relation in PRIMITIVE_RELATIONS, arity 2) or a
    user-defined atom (any other functor)."""

    __slots__ = ("functor", "args", "_hash")

    def __init__(self, functor: str, args: tuple[Term, ...]):
        _init(self, "functor", functor)
        _init(self, "args", args)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Constraint:
            return NotImplemented
        return self.functor == other.functor and self.args == other.args

    def __hash__(self):
        # Constraints live in frozensets and dict keys throughout; compute
        # once, as for Compound.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.functor, self.args))
            _init(self, "_hash", h)
            return h

    @property
    def is_primitive(self) -> bool:
        return self.functor in PRIMITIVE_RELATIONS

    def __repr__(self):
        if self.is_primitive:
            sym = {"eq": "=", "neq": "!=", "le": "=<", "lt": "<", "ge": ">=", "gt": ">"}[
                self.functor
            ]
            return f"{self.args[0]!r}{sym}{self.args[1]!r}"
        if not self.args:
            return self.functor
        return f"{self.functor}({', '.join(map(repr, self.args))})"


def prim(rel: str, left: Term, right: Term) -> Constraint:
    assert rel in PRIMITIVE_RELATIONS
    return Constraint(rel, (left, right))


def constraint_vars(c: Constraint) -> set[Var]:
    out: set[Var] = set()
    for a in c.args:
        out |= term_vars(a)
    return out


def constraints_vars(cs: Iterable[Constraint]) -> set[Var]:
    out: set[Var] = set()
    for c in cs:
        out |= constraint_vars(c)
    return out


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

Subst = dict[Var, Term]


def _walk(s: Mapping[Var, Term], t: Term) -> Term:
    """t with its binding chain in s followed, at the top only."""
    while isinstance(t, Var):
        bound = s.get(t)
        if bound is None or bound == t:
            break
        t = bound
    return t


def apply_subst(s: Mapping[Var, Term], t: Term) -> Term:
    """t under s; subterms that s leaves unchanged are returned as they are.

    Bound variables are followed through s, so application is idempotent on
    composed substitutions. Iterative, so that a long list spine stays
    within the recursion limit: each stack frame holds a compound subterm,
    an iterator over its arguments and the arguments rebuilt so far.
    """
    t = _walk(s, t)
    if not s or t.__class__ is not Compound:
        return t
    stack = [(t, iter(t.args), [])]
    while True:
        term, rest, args = stack[-1]
        for a in rest:
            if a.__class__ is Var:
                a = _walk(s, a)
            if a.__class__ is Compound:
                stack.append((a, iter(a.args), []))
                break
            args.append(a)
        else:
            stack.pop()
            if any(new is not old for new, old in zip(args, term.args)):
                term = Compound(term.functor, tuple(args))
            if not stack:
                return term
            stack[-1][2].append(term)


def apply_match(s: Mapping[Var, Term], t: Term) -> Term:
    """Apply a matching substitution: pattern variables are replaced by
    their bindings verbatim, with no substitution inside the replacement.
    Pattern and target may share variable names. Subterms that s leaves
    unchanged are returned as they are. Iterative, like :func:`apply_subst`."""
    if t.__class__ is Var:
        return s.get(t, t)
    if t.__class__ is not Compound:
        return t
    stack = [(t, iter(t.args), [])]
    while True:
        term, rest, args = stack[-1]
        for a in rest:
            if a.__class__ is Var:
                a = s.get(a, a)
            elif a.__class__ is Compound:
                stack.append((a, iter(a.args), []))
                break
            args.append(a)
        else:
            stack.pop()
            if any(new is not old for new, old in zip(args, term.args)):
                term = Compound(term.functor, tuple(args))
            if not stack:
                return term
            stack[-1][2].append(term)


def match_subst_constraint(s: Mapping[Var, Term], c: "Constraint") -> "Constraint":
    return Constraint(c.functor, tuple(apply_match(s, a) for a in c.args))


def match_subst_constraints(
    s: Mapping[Var, Term], cs: Iterable["Constraint"]
) -> frozenset["Constraint"]:
    return frozenset(match_subst_constraint(s, c) for c in cs)


def subst_constraint(s: Mapping[Var, Term], c: Constraint) -> Constraint:
    args = tuple(apply_subst(s, a) for a in c.args)
    if all(new is old for new, old in zip(args, c.args)):
        return c
    return Constraint(c.functor, args)


def unify(t1: Term, t2: Term, s: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier of ``t1`` and ``t2`` extending ``s``, or None.

    Occurs check is always performed; failure is returned as None, never
    raised.
    """
    s = dict(s) if s else {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        # Only the top of each side is resolved; bindings stay triangular
        # until the end, so a long list is not walked again at each cell.
        a = _walk(s, a)
        b = _walk(s, b)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs(a, b, s):
                return None
            s[a] = b
        elif isinstance(b, Var):
            if occurs(b, a, s):
                return None
            s[b] = a
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
        else:
            return None
    # Normalize to a fully-applied (idempotent) map.
    return {v: apply_subst(s, t) for v, t in s.items()}


# ---------------------------------------------------------------------------
# Fresh variables and renaming
# ---------------------------------------------------------------------------

_counter = itertools.count(1)
_make_var = tuple.__new__


def fresh_var(prefix: str = "_G") -> Var:
    # Var(name) without the Python-level __new__: resolution makes one per
    # clause variable per step.
    return _make_var(Var, (f"{prefix}{next(_counter)}",))


def renaming_for(
    vars_: Iterable[Var], prefix: str = "_G", avoid: AbstractSet[Var] = frozenset()
) -> Subst:
    """Fresh variables for ``vars_``, taken in name order, none of them in
    ``avoid``: a goal may name its own variables like fresh ones."""
    ren = {}
    for v in sorted(set(vars_), key=lambda v: v.id):
        w = fresh_var(prefix)
        while w in avoid:
            w = fresh_var(prefix)
        ren[v] = w
    return ren


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _term_key(t: Term) -> tuple:
    """Sort key of a term: ``(0, name)`` for a variable, ``(1, name)`` for a
    constant and ``(2, functor, argument keys)`` for a compound. Iterative,
    so that a long list spine stays within the recursion limit; each stack
    frame holds a compound, an iterator over its arguments and their keys
    so far."""
    cls = t.__class__
    if cls is Var:
        return (0, t[0])
    if cls is Const:
        return (1, t.name)
    stack = [(t, iter(t.args), [])]
    while True:
        term, rest, keys = stack[-1]
        for a in rest:
            cls = a.__class__
            if cls is Var:
                keys.append((0, a[0]))
            elif cls is Const:
                keys.append((1, a.name))
            else:
                stack.append((a, iter(a.args), []))
                break
        else:
            stack.pop()
            key = (2, term.functor, tuple(keys))
            if not stack:
                return key
            stack[-1][2].append(key)


def constraint_key(c: Constraint) -> tuple:
    return (c.functor, tuple([_term_key(a) for a in c.args]))


def canonical_key(cs: Iterable[Constraint]) -> tuple:
    """Canonical key of a constraint set: the sorted constraint keys, with
    variables renumbered V1, V2, ... in first-occurrence order over them.

    Two sets are variants (equal up to renaming) iff their keys are equal,
    and the keys are totally ordered. Sorting happens before renumbering, so
    the result is order independent; renumbering can move a constraint in
    the sort order, so it is repeated until it renames nothing, or at most
    ``3 + len(set(cs))`` times. Each constraint's key is computed once; the
    renumbering works on the keys themselves and keeps every part of a key
    that it does not rename, so that the fixpoint test compares no deep
    keys.
    """
    keys = sorted([constraint_key(c) for c in frozenset(cs)])
    for _ in range(3 + len(keys)):
        names: dict[str, tuple] = {}
        renamed = [_renumbered(key, names) for key in keys]
        if all(new is old for new, old in zip(renamed, keys)):
            break
        renamed.sort()
        keys = renamed
    return tuple(keys)


def key_text(key: tuple) -> str:
    """``str(key)`` of a nested key tuple, built iteratively, so that a long
    list spine stays within the recursion limit: one frame per open tuple."""
    parts = ["("]
    stack = [(iter(key), len(key))]
    while stack:
        items, n = stack[-1]
        for item in items:
            if parts[-1] != "(":
                parts.append(", ")
            if item.__class__ is tuple:
                parts.append("(")
                stack.append((iter(item), len(item)))
                break
            parts.append(repr(item))
        else:
            stack.pop()
            parts.append(",)" if n == 1 else ")")
    return "".join(parts)


class _End:
    """Closes a tuple in :func:`flat_key`: less than every other item."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not self

    def __gt__(self, other):
        return False


_END = _End()


def flat_key(key: tuple) -> tuple:
    """The items of the nested key tuple in order, each tuple closed by an
    item less than any other. Flat keys compare as the nested keys do,
    wherever those compare at all, but without recursion however long a
    list spine they hold."""
    out: list = []
    stack = [iter(key)]
    while stack:
        for item in stack[-1]:
            if item.__class__ is tuple:
                stack.append(iter(item))
                break
            out.append(item)
        else:
            stack.pop()
            out.append(_END)
    return tuple(out)


def _renumbered(key: tuple, names: dict[str, tuple]) -> tuple:
    """A constraint or term key with its variables renamed through
    ``names``, which maps each variable name met so far to its new key: V1,
    V2, ... in left-to-right first-occurrence order, and gains the
    variables met for the first time. The key itself is returned, and so is
    every subterm key, when nothing in it is renamed. Iterative, so that a
    long list spine stays within the recursion limit: each stack frame
    holds a key, an iterator over its argument keys (its last item) and the
    new argument keys so far."""
    stack = [(key, iter(key[-1]), [])]
    while True:
        term, rest, new = stack[-1]
        for a in rest:
            tag = a[0]
            if tag == 0:
                renamed = names.get(a[1])
                if renamed is None:
                    name = f"V{len(names) + 1}"
                    renamed = names[a[1]] = a if a[1] == name else (0, name)
                a = renamed
            elif tag == 2:
                stack.append((a, iter(a[2]), []))
                break
            new.append(a)
        else:
            stack.pop()
            for n, o in zip(new, term[-1]):
                if n is not o:
                    term = (*term[:-1], tuple(new))
                    break
            if not stack:
                return term
            stack[-1][2].append(term)


# ---------------------------------------------------------------------------
# Theta-subsumption
# ---------------------------------------------------------------------------


def match_term(pat: Term, t: Term, s: Subst) -> Optional[Subst]:
    """One-way matching: extend s so that pat.s == t (t is not instantiated).

    Bindings map pattern variables to target terms; target terms are never
    substituted, so shared variable names across the two sides are harmless.
    A pattern variable that is already bound must match its binding verbatim.
    s itself is returned when nothing new is bound, and is never changed.
    Iterative, depth first and left to right, so that a long list spine stays
    within the recursion limit: the stack holds an iterator over the argument
    pairs of each compound being matched.
    """
    cls = pat.__class__
    if cls is Var:
        bound = s.get(pat)
        if bound is None:
            out = dict(s)
            out[pat] = t
            return out
        return s if bound == t else None
    if cls is Const:
        return s if pat == t else None
    if t.__class__ is not Compound or pat.functor != t.functor or len(pat.args) != len(t.args):
        return None
    extended = False
    stack = [zip(pat.args, t.args)]
    while stack:
        for pat, t in stack[-1]:
            cls = pat.__class__
            if cls is Var:
                bound = s.get(pat)
                if bound is None:
                    if not extended:
                        s, extended = dict(s), True
                    s[pat] = t
                elif not bound == t:
                    return None
            elif cls is Const:
                if not pat == t:
                    return None
            elif (
                t.__class__ is Compound
                and pat.functor == t.functor
                and len(pat.args) == len(t.args)
            ):
                stack.append(zip(pat.args, t.args))
                break
            else:
                return None
        else:
            stack.pop()
    return s


def match_into(
    pattern: Iterable[Constraint], target: Iterable[Constraint], s: Optional[Subst] = None
) -> Iterator[Subst]:
    """All substitutions sigma with pattern.sigma a subset of target."""
    return _match_from(list(pattern), list(target), 0, dict(s) if s else {})


def _match_from(
    pattern: list[Constraint], target: list[Constraint], i: int, s: Subst
) -> Iterator[Subst]:
    """Extensions of s that match pattern[i:] into target."""
    if i == len(pattern):
        yield s
        return
    p = pattern[i]
    for t in target:
        if t.functor != p.functor or len(t.args) != len(p.args):
            continue
        s2: Optional[Subst] = s
        for pa, ta in zip(p.args, t.args):
            s2 = match_term(pa, ta, s2)
            if s2 is None:
                break
        if s2 is not None:
            yield from _match_from(pattern, target, i + 1, s2)

