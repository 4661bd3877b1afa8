"""Terms, unification, canonical keys, and theta-subsumption.

The subsumption oracle enumerates every mapping from pattern variables to
subterms of the target, so `match_into` can be cross-checked without
relying on the matcher under test. Canonical keys are cross-checked against
a reference that renames constraints rather than keys.
"""

import gc
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from chrgen.program import parse_spec
from chrgen.rules import Rule, RuleSet, parse_rules
from chrgen.terms import (
    Compound,
    Const,
    Constraint,
    Var,
    apply_match,
    apply_subst,
    canonical_key,
    cons,
    constraint_key,
    constraint_vars,
    constraints_vars,
    flat_key,
    key_text,
    make_list,
    match_into,
    match_term,
    occurs,
    term_vars,
    unify,
    NIL,
)

from conftest import DATA, GOLDEN
from util import atom, prim

X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")
a, b = Const("a"), Const("b")


def f(*args):
    return Compound("f", args)


# ---------------------------------------------------------------------------
# Construction and basic queries  [TRIVIAL]
# ---------------------------------------------------------------------------


def test_make_list_roundtrip():
    t = make_list([a, b])
    assert t == cons(a, cons(b, NIL))
    assert make_list([]) == NIL


def test_term_vars():
    assert term_vars(f(X, f(Y, a))) == {X, Y}
    assert term_vars(a) == set()
    assert constraint_vars(prim("eq", X, f(Y, Z))) == {X, Y, Z}
    assert constraints_vars([atom("p", X), atom("q", W)]) == {X, W}


def test_occurs():
    assert occurs(X, f(a, f(X)))
    assert not occurs(X, f(Y, a))


# ---------------------------------------------------------------------------
# Unification  [TRIVIAL] plus the occurs-check case
# ---------------------------------------------------------------------------


def test_unify_basic():
    s = unify(f(X, a), f(b, Y))
    assert s is not None
    assert apply_subst(s, X) == b
    assert apply_subst(s, Y) == a


def test_unify_clash_and_occurs():
    assert unify(f(a), f(b)) is None
    assert unify(X, f(X)) is None  # occurs check


def test_unify_shared_variable():
    s = unify(f(X, X), f(Y, a))
    assert s is not None
    assert apply_subst(s, Y) == a


@given(st.sampled_from([a, b, X, Y, f(X), f(a, Y), f(f(X), b)]))
def test_unify_reflexive(t):
    # [DERIVED] any term unifies with itself under the empty substitution
    s = unify(t, t)
    assert s is not None
    assert apply_subst(s, t) == t


# ---------------------------------------------------------------------------
# Canonical keys, against a reference that renames constraints  [DERIVED]
# ---------------------------------------------------------------------------


def _rename_term(s, t):
    if isinstance(t, Var):
        return s.get(t, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_rename_term(s, a) for a in t.args))
    return t


def _numbering(cs):
    mapping = {}
    for c in cs:
        stack = list(reversed(c.args))
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                if t not in mapping:
                    mapping[t] = Var(f"V{len(mapping) + 1}")
            elif isinstance(t, Compound):
                stack.extend(reversed(t.args))
    return mapping


def reference_canonical(cs):
    """Canonical form of a constraint set: variables renumbered V1, V2, ...
    in first-occurrence order over the sorted constraints, renaming and
    re-sorting the constraints themselves to a fixpoint."""
    current = tuple(sorted(set(cs), key=constraint_key))
    for _ in range(3 + len(current)):
        mapping = _numbering(current)
        if all(old == new for old, new in mapping.items()):
            return current
        renamed = tuple(
            sorted(
                (Constraint(c.functor, tuple(_rename_term(mapping, a) for a in c.args))
                 for c in current),
                key=constraint_key,
            )
        )
        if renamed == current:
            return current
        current = renamed
    return current


def reference_key(cs):
    return tuple(constraint_key(c) for c in reference_canonical(cs))


def test_canonical_is_renaming_invariant():
    cs1 = [atom("p", X, Y), prim("eq", X, a)]
    cs2 = [atom("p", Z, W), prim("eq", Z, a)]
    assert reference_canonical(cs1) == reference_canonical(cs2)
    assert canonical_key(cs1) == canonical_key(cs2)


def test_canonical_distinguishes_sharing():
    assert canonical_key([atom("p", X, X)]) != canonical_key([atom("p", X, Y)])
    assert reference_canonical([atom("p", X, X)]) != reference_canonical([atom("p", X, Y)])


def test_canonical_order_independent():
    cs = [atom("p", X), atom("q", X, Y), prim("neq", Y, a)]
    for perm in itertools.permutations(cs):
        assert canonical_key(perm) == canonical_key(cs)


@settings(max_examples=60)
@given(
    st.lists(
        st.sampled_from(
            [atom("p", X), atom("p", Y), atom("q", X, Y), atom("q", Y, Z),
             prim("eq", X, a), prim("neq", Z, b), atom("r", f(X, Y))]
        ),
        max_size=4,
    )
)
def test_canonical_fixpoint(cs):
    # [DERIVED] canonicalizing twice changes nothing
    once = reference_canonical(cs)
    assert reference_canonical(once) == once
    assert canonical_key(once) == canonical_key(cs) == reference_key(cs)


def test_canonical_and_match_into_leave_no_cyclic_garbage():
    # Both run on every miner step; reference counting alone must free
    # what a call leaves behind, or the cyclic collector has to.
    cs = [atom("q", X, f(Y, X)), prim("neq", Y, a), atom("p", Z)]
    gc.collect()
    gc.disable()
    try:
        canonical_key(cs)
        assert len(list(match_into([atom("p", W)], cs))) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def _specs():
    for path in sorted(DATA.glob("*.spec")):
        yield path.name, parse_spec(path.read_text(), mode="general")


def _subsets(cands):
    for size in range(len(cands) + 1):
        yield from itertools.combinations(cands, size)


def _marked(lhs, rhs):
    # The list Rule.canonical_key canonicalizes: lhs and rhs together, the
    # rhs constraints marked with their position.
    return list(lhs) + [
        Constraint(f"$rhs_{i}_{c.functor}", c.args) for i, c in enumerate(rhs)
    ]


def test_canonical_key_matches_reference_on_every_spec_subset():
    checked = 0
    for name, spec in _specs():
        for subset in _subsets(spec.cand_lhs):
            for cs in (subset, spec.base_lhs | set(subset)):
                assert canonical_key(cs) == reference_key(cs), (name, subset)
                checked += 1
            rhs = tuple(d for d in spec.cand_rhs if d not in subset)
            marked = _marked(spec.base_lhs | set(subset), rhs)
            assert canonical_key(marked) == reference_key(marked), (name, subset)
    assert checked > 2 * (4096 + 1024)


def test_rule_keys_match_reference_on_golden_rules():
    for path in sorted(GOLDEN.glob("*.txt")):
        for rule in parse_rules(path.read_text()).rules:
            marked = _marked(rule.lhs, rule.rhs)
            assert rule.canonical_key() == (rule.kind, reference_key(marked))
            assert canonical_key(rule.lhs) == reference_key(rule.lhs)


def test_key_text_is_the_str_of_the_key():
    keys = [(), (1,), ((),), ((1,),), ("a'b", ('"',)), (1, (2, (3,), ()))]
    for path in [*sorted(GOLDEN.glob("*.txt")), *sorted((DATA / "chr").glob("*.rules"))]:
        keys += [rule.canonical_key() for rule in parse_rules(path.read_text()).rules]
    assert len(keys) > 200
    for key in keys:
        assert key_text(key) == str(key)


_NAMES = ["X", "Y", "Z", "V1", "V2", "V3", "V10"]
_terms = st.recursive(
    st.one_of(st.sampled_from([Var(n) for n in _NAMES]), st.sampled_from([a, b, NIL])),
    lambda sub: st.one_of(
        st.builds(cons, sub, sub),
        st.builds(lambda xs: Compound("f", tuple(xs)), st.lists(sub, min_size=1, max_size=3)),
    ),
    max_leaves=6,
)
_constraints = st.one_of(
    st.builds(prim, st.sampled_from(["eq", "neq", "le"]), _terms, _terms),
    st.builds(lambda fn, xs: Constraint(fn, tuple(xs)), st.sampled_from(["p", "q"]),
              st.lists(_terms, max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_constraints, max_size=5))
def test_canonical_key_matches_reference(cs):
    assert canonical_key(cs) == reference_key(cs)


def _sign(x, y):
    return (x > y) - (x < y)


@settings(max_examples=300, deadline=None)
@given(st.lists(_constraints, max_size=3), st.lists(_constraints, max_size=3))
def test_flat_key_sorts_as_the_nested_key(cs, ds):
    # the union shares constraints, and so key prefixes, with both parts
    keys = [canonical_key(cs), canonical_key(ds), canonical_key(cs + ds)]
    for k, l in itertools.combinations(keys, 2):
        assert _sign(flat_key(k), flat_key(l)) == _sign(k, l)
        assert (flat_key(k) == flat_key(l)) == (k == l)


# ---------------------------------------------------------------------------
# Theta-subsumption, cross-checked against exhaustive enumeration  [DERIVED]
# ---------------------------------------------------------------------------


def _subterms(t):
    yield t
    if isinstance(t, Compound):
        for arg in t.args:
            yield from _subterms(arg)


def _subsumes_oracle(pattern, target):
    """Exhaustive search for a substitution mapping pattern into target."""
    pattern = list(pattern)
    target = frozenset(target)
    pool = {s for c in target for arg in c.args for s in _subterms(arg)}
    pool |= {a, b}  # a couple of spare constants cannot help but keep it honest
    pvars = sorted(constraints_vars(pattern), key=lambda v: v.id)
    for combo in itertools.product(sorted(pool, key=repr), repeat=len(pvars)):
        sigma = dict(zip(pvars, combo))
        image = {
            Constraint(c.functor, tuple(apply_match(sigma, t) for t in c.args))
            for c in pattern
        }
        if image <= target:
            return True
    return not pvars and all(c in target for c in pattern)


CONSTRAINT_POOL = [
    atom("p", X), atom("p", Y), atom("p", a),
    atom("q", X, Y), atom("q", X, X), atom("q", a, b),
    prim("eq", X, a), prim("eq", Y, b),
    atom("r", f(X), b), atom("r", f(a), b),
]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(CONSTRAINT_POOL), min_size=1, max_size=3),
    st.lists(st.sampled_from(CONSTRAINT_POOL), min_size=1, max_size=3),
)
def test_theta_subsumes_matches_oracle(pattern, target):
    assert _subsumes(pattern, target) == _subsumes_oracle(pattern, target)


def test_theta_subsumes_examples():
    # more general set subsumes the instance, not the other way round
    assert _subsumes([atom("p", X)], [atom("p", a)])
    assert not _subsumes([atom("p", a)], [atom("p", X)])
    # shared variables must map consistently
    assert not _subsumes([atom("q", X, X)], [atom("q", a, b)])
    assert _subsumes([atom("q", X, X)], [atom("q", a, a)])


def _subsumes(pattern, target):
    """Whether some substitution maps pattern into a subset of target."""
    return next(match_into(pattern, target), None) is not None


def test_match_term_one_way():
    s = match_term(f(X, a), f(b, a), {})
    assert s == {X: b}
    # matching never instantiates the target side
    assert match_term(f(a), f(Y), {}) is None


# ---------------------------------------------------------------------------
# Deep terms: hashing and equality without recursion  [DERIVED]
# ---------------------------------------------------------------------------


class _Hashed:
    """Stands in for a term inside a tuple: the tuple hash reads only the
    hashes of its elements."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _reference_hash(t):
    # The documented value, hash((functor, args)), computed recursively.
    if not isinstance(t, Compound):
        return hash(t)
    return hash((t.functor, tuple(_Hashed(_reference_hash(x)) for x in t.args)))


def test_compound_hash_is_the_tuple_hash_of_functor_and_args():
    # Set orders, and so outputs, depend on these values.
    terms = [
        f(X),
        f(a, X, NIL),
        make_list([a, b, X], Y),
        f(make_list([f(a), X]), f(f(f(Y)))),
        make_list([f(Z, make_list([a] * 5))] * 40),
    ]
    for t in terms:
        assert hash(t) == _reference_hash(t)


def test_deep_terms_hash_and_compare_without_recursion():
    n = 5000
    left, right = make_list([a] * n, X), make_list([a] * n, X)
    assert hash(left) == hash(right)
    assert left == right and not left != right
    assert make_list([a] * n, Y) != left
    assert make_list([a] * (n - 1) + [b], X) != left
    assert len({prim("eq", Z, left), prim("eq", Z, right)}) == 1


def test_deep_terms_unify_and_collect_variables_without_recursion():
    n = 3000
    cells = [Var(f"X{i}") for i in range(n)]
    open_list = make_list(cells, Y)
    ground = make_list([a] * n)
    assert constraints_vars([prim("eq", Z, open_list)]) == {Z, Y, *cells}
    assert occurs(Y, open_list) and not occurs(W, open_list)
    s = unify(open_list, ground)
    assert s == {**{v: a for v in cells}, Y: NIL}
    assert unify(Z, ground) == {Z: ground}
    # A binding made deep in one list is read back through another.
    s = unify(f(make_list([X] * n, Y), X), f(make_list([b] * n, Z), W))
    assert s == {X: b, Y: Z, W: b}
    assert unify(f(open_list, Y), f(Z, open_list)) is None  # occurs check



def test_deep_lists_match_without_recursion():
    n = 3000
    cells = [Var(f"X{i}") for i in range(n)]
    pattern = make_list(cells, Y)
    target = make_list([f(a, Z)] * n, make_list([b] * n))
    s = match_term(pattern, target, {W: a})
    assert s == {W: a, **{v: f(a, Z) for v in cells}, Y: make_list([b] * n)}
    # A variable repeated at both ends of the spine must match itself.
    assert match_term(make_list([X] * n, X), make_list([a] * n, a), {}) == {X: a}
    assert match_term(make_list([X] * n, X), make_list([a] * n, b), {}) is None
    assert match_term(pattern, make_list([a] * (n - 1)), {}) is None
    base = {X: a}
    assert match_term(make_list([a] * n), make_list([a] * n), base) is base


def test_deep_lists_apply_a_match_without_recursion():
    n = 3000
    cells = [Var(f"X{i}") for i in range(n)]
    s = {v: f(Y, a) for v in cells}
    s[Y] = b  # the replacement is taken verbatim, not substituted into
    out = apply_match(s, f(make_list(cells, Y), Z))
    assert out == f(make_list([f(Y, a)] * n, b), Z)
    # What the matcher leaves unchanged is shared, not rebuilt.
    ground = make_list([a] * n)
    out = apply_match(s, f(ground, cells[0]))
    assert out == f(ground, f(Y, a)) and out.args[0] is ground


def _list_tail(key, n):
    """The tail key of an n-cell list of a's, walked down its spine;
    comparing deep keys whole would recurse."""
    for _ in range(n):
        assert key[:2] == (2, "cons") and key[2][0] == (1, "a")
        key = key[2][1]
    return key


def test_deep_terms_keyed_without_recursion():
    n = 3000
    c = prim("eq", Z, make_list([a] * n, Y))
    key = constraint_key(c)
    assert key[0] == "eq" and key[1][0] == (0, "Z")
    assert _list_tail(key[1][1], n) == (0, "Y")
    for cs in (
        [c, prim("eq", Z, make_list([a] * n, Y)), atom("p", Y)],
        [prim("eq", W, make_list([a] * n, X)), atom("p", X)],
    ):
        canon = canonical_key(cs)
        assert len(canon) == 2 and canon[1] == ("p", ((0, "V2"),))
        assert canon[0][0] == "eq" and canon[0][1][0] == (0, "V1")
        assert _list_tail(canon[0][1][1], n) == (0, "V2")


def test_variant_rules_over_deep_lists_are_one_rule():
    # Comparing the two deep keys as tuples would recurse once per cell.
    n = 1200

    def rule(v):
        lhs = frozenset({atom("p", v), prim("eq", v, make_list([a] * n))})
        return Rule("propagation", lhs, (atom("q", v),))

    rs = RuleSet()
    assert rs.add(rule(X))
    assert not rs.add(rule(Y))
    assert len(RuleSet([rule(X), rule(Y)])._keys) == 1
    assert key_text(rule(Y).canonical_key()).count("'cons'") == n
