"""Terms, unification, canonical forms, and theta-subsumption.

The subsumption oracle enumerates every mapping from pattern variables to
subterms of the target, so `match_into` can be cross-checked without
relying on the matcher under test.
"""

import gc
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from chrgen.terms import (
    Compound,
    Const,
    Constraint,
    Var,
    apply_match,
    apply_subst,
    atom,
    canonical,
    canonical_key,
    cons,
    constraint_vars,
    constraints_vars,
    make_list,
    match_into,
    match_term,
    occurs,
    prim,
    term_vars,
    unify,
    NIL,
)

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
# Canonical forms
# ---------------------------------------------------------------------------


def test_canonical_is_renaming_invariant():
    cs1 = [atom("p", X, Y), prim("eq", X, a)]
    cs2 = [atom("p", Z, W), prim("eq", Z, a)]
    assert canonical(cs1) == canonical(cs2)
    assert canonical_key(cs1) == canonical_key(cs2)


def test_canonical_distinguishes_sharing():
    assert canonical([atom("p", X, X)]) != canonical([atom("p", X, Y)])


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
    once = canonical(cs)
    assert canonical(once) == once


def test_canonical_and_match_into_leave_no_cyclic_garbage():
    # Both run on every miner step; reference counting alone must free
    # what a call leaves behind, or the cyclic collector has to.
    cs = [atom("q", X, f(Y, X)), prim("neq", Y, a), atom("p", Z)]
    gc.collect()
    gc.disable()
    try:
        canonical(cs)
        assert len(list(match_into([atom("p", W)], cs))) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


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
