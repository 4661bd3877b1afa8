"""Primitive constraint store: satisfiability, entailment, negation,
simplification, and DNF satisfiability.

The solver is sound but allowed to be incomplete, so the oracle checks run
one-directional: whenever the solver reports unsat (or an entailment), an
exhaustive ground enumeration must agree; a ground witness forces the
solver to report satisfiable.
"""

import contextlib
from collections import defaultdict
import io
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chrgen import miner, solver
from chrgen.cli import main
from chrgen.solver import (
    BlowupExceeded,
    Store,
    assert_all,
    assert_constraint,
    assert_many,
    dnf_satisfiable,
    entails,
    negate,
    project,
    satisfiable,
    simplify,
    store_from,
)
from chrgen.terms import (
    Compound,
    Const,
    Var,
    apply_match,
    cons,
    make_list,
    match_subst_constraint,
    match_subst_constraints,
    occurs,
    unify,
    NIL,
)

from conftest import DATA
from util import atom, prim, project_by_simplify

X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")
a, b = Const("a"), Const("b")
c0, c1, c2 = Const("0"), Const("1"), Const("2")


# ---------------------------------------------------------------------------
# Negation  [TRIVIAL]
# ---------------------------------------------------------------------------


def test_negate_is_involution():
    for rel in ("eq", "neq", "le", "gt", "lt", "ge"):
        c = prim(rel, X, Y)
        assert negate(negate(c)) == c
        assert negate(c).args == c.args


def test_negate_pairs():
    assert negate(prim("eq", X, a)).functor == "neq"
    assert negate(prim("le", X, Y)).functor == "gt"
    assert negate(prim("lt", X, Y)).functor == "ge"


# ---------------------------------------------------------------------------
# Satisfiability basics  [TRIVIAL] / [PAPER]
# ---------------------------------------------------------------------------


def test_constant_clash():
    assert not satisfiable([prim("eq", X, a), prim("eq", X, b)])


def test_list_constructor_clash():
    # the two clause branches of append are mutually exclusive on X
    assert not satisfiable([prim("eq", X, cons(Y, Z)), prim("eq", X, NIL)])


def test_occurs_check_unsat():
    assert not satisfiable([prim("eq", X, cons(a, X))])


def test_occurs_check_on_long_spine():
    # a list spine built cell by cell through bindings, as resolution builds
    # one; equating its tail to its head closes a cycle that the occurs
    # check must find at the far end, walking without recursion
    cells = [Var(f"T{i}") for i in range(2001)]
    spine = [prim("eq", cells[i], cons(a, cells[i + 1])) for i in range(2000)]
    assert store_from(spine) is not None
    assert store_from(spine + [prim("eq", cells[2000], cells[0])]) is None


def test_occurs_check_on_copied_and_trailed_stores_at_every_spine_length():
    # a spine grows one cell per store, copied (as tabled resolution does)
    # and on a trail (as the classical search does); at every length one
    # sibling closes the cycle and one binds a variable from outside the
    # spine to it, so the occurs check must answer both yes and no
    Q, L = Var("Q"), Var("L")
    root = [prim("neq", Q, a), prim("eq", L, cons(a, Var("T0")))]
    copied = store_from(root)
    trailed = store_from(root)
    trailed.begin_trail()
    for i in range(1, 100):
        tail = Var(f"T{i - 1}")
        for c, ok in ((prim("eq", tail, L), False), (prim("eq", Q, L), True)):
            assert (assert_many(copied, [c]) is not None) == ok
            mark = trailed.mark()
            assert assert_all(trailed, [c]) == ok
            trailed.undo(mark)
        grow = prim("eq", tail, cons(a, Var(f"T{i}")))
        copied = assert_many(copied, [grow])
        assert assert_all(trailed, [grow])


def test_trail_undo_restores_the_store():
    s = store_from([prim("eq", X, cons(a, Y)), prim("neq", Z, b), prim("le", W, c1)])

    def state():
        return (
            dict(s.parent), list(s.constraints), set(s.seen_vars),
            s.suspended_neqs, s.strict, s.nonstrict,
        )

    before = state()
    s.begin_trail()
    mark = s.mark()
    assert assert_all(s, [prim("eq", Y, Z), prim("lt", c0, W), prim("neq", Y, a)])
    assert entails(s, prim("eq", X, cons(a, Z)))
    s.undo(mark)
    assert state() == before
    assert not assert_all(s, [prim("eq", Y, cons(a, X))])  # occurs check
    s.undo(mark)
    assert not assert_all(s, [prim("eq", Z, b)])
    s.undo(mark)
    assert state() == before
    assert not entails(s, prim("eq", X, cons(a, Z)))


UNIFY_VARS = [Var(n) for n in "ABCD"]
A, B, C, D = UNIFY_VARS
UNIFY_TERMS = st.recursive(
    st.sampled_from(UNIFY_VARS + [a, b, NIL]),
    lambda inner: st.builds(cons, inner, inner)
    | st.builds(lambda l, r: Compound("f", (l, r)), inner, inner),
    max_leaves=4,
)


def _unifiable(batch) -> bool:
    """Whether folding the substitution unifier over the equalities
    succeeds: an oracle independent of the store's union-find."""
    s = {}
    for c in batch:
        s = unify(*c.args, s)
        if s is None:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(lambda l, r: prim("eq", l, r), UNIFY_TERMS, UNIFY_TERMS), max_size=6))
# cycles that close only through earlier bindings
@example([prim("eq", A, cons(a, B)), prim("eq", B, Compound("f", (C, A)))])
@example([prim("eq", A, cons(B, C)), prim("eq", C, cons(a, D)), prim("eq", D, A)])
@example([prim("eq", A, B), prim("eq", B, C), prim("eq", C, cons(a, A))])
# a variable linear in its constraint but seen in an earlier one
@example([prim("eq", A, cons(a, B)), prim("eq", B, cons(C, A))])
def test_unification_agrees_with_the_substitution_unifier(batch):
    # in one batch
    assert (store_from(batch) is None) == (not _unifiable(batch))
    # one constraint at a time, on copies
    s = Store()
    for i, c in enumerate(batch):
        s = assert_many(s, [c])
        assert (s is None) == (not _unifiable(batch[: i + 1]))
        if s is None:
            break
    # on a trail: a constraint that fails is undone, and the rest go on
    trailed = Store()
    trailed.begin_trail()
    kept = []
    for c in batch:
        mark = trailed.mark()
        ok = assert_all(trailed, [c])
        assert ok == _unifiable(kept + [c])
        if ok:
            kept.append(c)
        else:
            trailed.undo(mark)


def _store_of(batch, trailed: bool) -> Store:
    """A store of the equalities of the batch that can be added in turn,
    on a trail or not; on a trail, one that fails is undone."""
    s = Store()
    if trailed:
        s.begin_trail()
    for c in batch:
        if trailed:
            mark = s.mark()
            if not assert_all(s, [c]):
                s.undo(mark)
        else:
            s = assert_many(s, [c]) or s
    return s


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(lambda l, r: prim("eq", l, r), UNIFY_TERMS, UNIFY_TERMS), max_size=6),
    UNIFY_TERMS,
    st.booleans(),
)
@example([prim("eq", A, cons(a, B)), prim("eq", B, C)], cons(D, A), False)
@example([prim("eq", A, B), prim("eq", B, Compound("f", (C, D)))], A, True)
def test_occurs_reads_bindings_as_the_substitution_check_does(batch, t, trailed):
    # The store's occurs check, which chases variable chains inline, says
    # of every unbound variable what terms.occurs says through the store's
    # bindings.
    s = _store_of(batch, trailed)
    for v in UNIFY_VARS:
        if v not in s.parent:
            assert s._occurs(v, t) == occurs(v, t, s.parent), (v, t)


def test_occurs_walks_a_long_spine_on_stores_with_and_without_a_trail():
    # A 2000-cell spine built through bindings, whose tail is the variable
    # looked for; another variable does not occur in it.
    cells = [Var(f"T{i}") for i in range(2001)]
    spine = [prim("eq", cells[i], cons(a, cells[i + 1])) for i in range(2000)]
    for trailed in (False, True):
        s = _store_of(spine, trailed)
        for v in (cells[2000], Var("Q")):
            assert s._occurs(v, cells[0]) == occurs(v, cells[0], s.parent) == (v == cells[2000])


def test_transitive_equality():
    s = store_from([prim("eq", X, Y), prim("eq", Y, Z)])
    assert s is not None
    assert entails(s, prim("eq", X, Z))


def test_disequality_propagation():
    assert not satisfiable([prim("eq", X, Y), prim("neq", X, Y)])
    assert satisfiable([prim("neq", X, Y)])


def test_disequality_over_structures():
    # cons(a,X) != cons(a,Y) reduces to X != Y
    s = store_from([prim("neq", cons(a, X), cons(a, Y))])
    assert s is not None
    assert assert_constraint(s, prim("eq", X, Y)) is None


def test_order_constraints():
    assert not satisfiable([prim("le", X, c1), prim("gt", X, c2)])
    assert satisfiable([prim("le", X, c1), prim("le", c1, X)])
    s = store_from([prim("le", X, Y), prim("le", Y, X)])
    assert s is not None
    assert entails(s, prim("eq", X, Y))


def test_strict_order_cycle():
    assert not satisfiable([prim("lt", X, Y), prim("lt", Y, X)])
    assert not satisfiable([prim("lt", X, X)])


# ---------------------------------------------------------------------------
# Ground oracle for entailment and satisfiability  [DERIVED]
# ---------------------------------------------------------------------------

HERBRAND_POOL = [
    prim("eq", X, Y), prim("eq", X, a), prim("eq", Y, b), prim("eq", Y, Z),
    prim("neq", X, Y), prim("neq", X, a), prim("neq", Y, Z),
    prim("eq", X, cons(a, Z)), prim("neq", Z, NIL),
]

ORDER_POOL = [
    prim("le", X, Y), prim("le", Y, X), prim("le", X, c1), prim("le", c1, X),
    prim("lt", X, Y), prim("lt", Y, Z), prim("ge", Z, c2), prim("gt", X, Z),
    prim("eq", X, Y), prim("neq", Y, Z), prim("eq", Z, c0),
]

_REL_CHECK = {
    "eq": lambda l, r: l == r,
    "neq": lambda l, r: l != r,
    "le": lambda l, r: l <= r,
    "lt": lambda l, r: l < r,
    "ge": lambda l, r: l >= r,
    "gt": lambda l, r: l > r,
}


def _ground_value(t):
    if isinstance(t, Const):
        return int(t.name) if t.name.lstrip("-").isdigit() else t.name
    if isinstance(t, Compound):
        return (t.functor, tuple(_ground_value(x) for x in t.args))
    raise AssertionError(f"non-ground term {t!r}")


def _holds(c, sigma):
    l, r = (apply_match(sigma, t) for t in c.args)
    return _REL_CHECK[c.functor](_ground_value(l), _ground_value(r))


def _ground_witness(cs, universe):
    vars_ = sorted({v for c in cs for t in c.args for v in _tvars(t)}, key=lambda v: v.id)
    for combo in itertools.product(universe, repeat=len(vars_)):
        sigma = dict(zip(vars_, combo))
        if all(_holds(c, sigma) for c in cs):
            return sigma
    return None


def _tvars(t):
    if isinstance(t, Var):
        yield t
    elif isinstance(t, Compound):
        for x in t.args:
            yield from _tvars(x)


HERBRAND_UNIVERSE = [a, b, NIL, make_list([a]), make_list([b, a])]
ORDER_UNIVERSE = [c0, c1, c2]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(HERBRAND_POOL), max_size=4))
def test_unsat_sound_on_herbrand(cs):
    # a ground witness refutes any unsat verdict
    if _ground_witness(cs, HERBRAND_UNIVERSE) is not None:
        assert satisfiable(cs)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(ORDER_POOL), max_size=4))
def test_unsat_sound_on_orders(cs):
    if _ground_witness(cs, ORDER_UNIVERSE) is not None:
        assert satisfiable(cs)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.sampled_from(ORDER_POOL), max_size=3),
    st.sampled_from(ORDER_POOL),
)
def test_entails_sound_on_orders(cs, c):
    s = store_from(cs)
    if s is None or not entails(s, c):
        return
    # every ground model of the store must satisfy the entailed constraint
    assert _ground_witness(cs + [negate(c)], ORDER_UNIVERSE) is None


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.sampled_from(HERBRAND_POOL), max_size=3),
    st.sampled_from(HERBRAND_POOL),
)
def test_entails_sound_on_herbrand(cs, c):
    s = store_from(cs)
    if s is None or not entails(s, c):
        return
    assert _ground_witness(cs + [negate(c)], HERBRAND_UNIVERSE) is None


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def test_simplify_drops_redundant():
    s = store_from([prim("eq", X, Y), prim("eq", Y, Z), prim("eq", X, Z)])
    out = simplify(s)
    assert len(out) == 2  # one of the three equalities is implied


def test_simplify_equivalent():
    # [DERIVED] the simplified set keeps the store's meaning: mutual entailment
    cs = [prim("le", X, Y), prim("le", Y, X), prim("eq", Z, c1)]
    s = store_from(cs)
    out = simplify(s)
    s2 = store_from(out)
    assert all(entails(s2, c) for c in cs)
    assert all(entails(s, c) for c in out)


def test_project_names_each_class_by_its_first_kept_variable():
    A, B, C, D = Var("A"), Var("B"), Var("C"), Var("D")
    s = store_from([prim("eq", B, A), prim("eq", C, B), prim("eq", D, cons(C, NIL))])
    # B is eliminated; C joins A's class, and D's term names that class A
    assert project(s, {A, C, D}) == {prim("eq", A, C), prim("eq", D, cons(A, NIL))}


def test_project_resolves_disequalities_and_order_edges():
    H, T, L = Var("H"), Var("T"), Var("L")
    s = store_from([
        prim("eq", X, cons(H, T)), prim("eq", T, NIL), prim("eq", Y, H),
        prim("neq", H, a), prim("le", Z, L), prim("eq", L, c2),
    ])
    assert project(s, {X, Y, Z}) == {
        prim("eq", X, cons(Y, NIL)), prim("neq", Y, a), prim("le", Z, c2),
    }


def test_project_keeps_what_it_cannot_eliminate():
    L = Var("L")
    s = store_from([prim("le", X, L), prim("le", L, Y), prim("neq", L, c1)])
    out = project(s, {X, Y})
    # sound: the projection says no more than the store; the local stays,
    # named _L1
    named = {L: Var("_L1")}
    s2 = store_from(out)
    assert all(entails(s2, match_subst_constraint(named, c)) for c in s.constraints)
    assert all(entails(store_from(match_subst_constraints(named, s.constraints)), c) for c in out)


def test_occurs_check_sees_a_variable_bound_within_the_same_equality():
    # [X,X|X] = [Y|X] binds X to Y, then needs Y = [X|X]: Y occurs once in
    # the equality, but through X it occurs in [X|X] too. Skipping the
    # occurs check for Y left a cyclic store, on which find never ends.
    assert store_from([prim("eq", cons(X, cons(X, X)), cons(Y, X))]) is None
    assert store_from([prim("eq", cons(Y, X), cons(X, cons(X, X)))]) is None
    # Here X = [Y|Z] first, so X = [X|X] reaches Y through X's binding.
    assert store_from([prim("eq", cons(X, X), cons(cons(Y, Z), cons(X, X)))]) is None


def test_find_resolves_a_long_chain_without_recursion():
    n = 3000
    vs = [Var(f"V{i}") for i in range(n + 1)]
    s = store_from([prim("eq", vs[i], cons(a, vs[i + 1])) for i in range(n)])
    assert s.find(vs[0]) == make_list([a] * n, vs[n])


def _project_by_simplify(s, keep):
    """Reference: the projection that builds a store from the whole residue
    and simplifies it, with the locals named as :func:`project` names them."""
    fresh = (v for v in map(Var, map("_L{}".format, itertools.count(1))) if v not in keep)
    return project_by_simplify(s, keep, defaultdict(fresh.__next__))


EQ_VARS = [Var(n) for n in "ABCDEF"]
EQ_TERMS = st.recursive(
    st.sampled_from(EQ_VARS + [a, b, NIL]),
    lambda inner: st.builds(cons, inner, inner),
    max_leaves=5,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.builds(lambda l, r: prim("eq", l, r), EQ_TERMS, EQ_TERMS), max_size=5),
    st.sets(st.sampled_from(EQ_VARS)),
)
def test_project_of_equalities_matches_the_simplified_residue(cs, keep):
    s = store_from(cs)
    if s is None:
        return
    expected = _project_by_simplify(s, keep)
    # A store of equalities projects to a solved form, which is not
    # simplified again; its constraints come in the same order.
    with mock.patch.object(solver, "simplify", side_effect=AssertionError("simplified")):
        got = project(s, keep)
    assert got == expected
    assert list(got) == list(expected)


@pytest.mark.parametrize("extra", [prim("neq", Y, a), prim("le", Y, Z)])
def test_project_simplifies_with_disequalities_or_order_edges(extra):
    s = store_from([prim("eq", X, cons(Y, Z)), extra])
    with mock.patch.object(solver, "simplify", wraps=solver.simplify) as spy:
        got = project(s, {X, Y, Z})
    assert spy.call_count == 1
    assert got == _project_by_simplify(s, {X, Y, Z})


# ---------------------------------------------------------------------------
# DNF satisfiability  [DERIVED]
# ---------------------------------------------------------------------------


def _dnf_ground_truth(pos, neg, universe):
    """(OR pos) AND (AND_j NOT neg_j) has a ground model."""
    all_cs = [c for grp in pos + neg for c in grp]
    vars_ = sorted({v for c in all_cs for t in c.args for v in _tvars(t)},
                   key=lambda v: v.id)
    for combo in itertools.product(universe, repeat=len(vars_)):
        sigma = dict(zip(vars_, combo))
        if not any(all(_holds(c, sigma) for c in grp) for grp in pos):
            continue
        if any(all(_holds(c, sigma) for c in grp) for grp in neg):
            continue
        return True
    return False


ANSWER_POOL = [
    frozenset({prim("eq", X, c0)}),
    frozenset({prim("eq", X, c1)}),
    frozenset({prim("eq", X, c0), prim("eq", Y, c1)}),
    frozenset({prim("neq", X, Y)}),
    frozenset({prim("eq", X, Y)}),
    frozenset({prim("eq", Y, c1)}),
]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(ANSWER_POOL), max_size=3),
    st.lists(st.sampled_from(ANSWER_POOL), max_size=3),
)
def test_dnf_satisfiable_vs_ground_enumeration(pos, neg):
    got = dnf_satisfiable(pos, neg)
    truth = _dnf_ground_truth(pos, neg, [c0, c1])
    if truth:
        # a ground witness over {0,1} is also a Herbrand witness
        assert got
    if not got:
        assert not truth


def test_dnf_empty_positive_is_unsat():
    assert not dnf_satisfiable([], [frozenset({prim("eq", X, c0)})])


def test_dnf_negated_true_is_unsat():
    # an empty negated answer means NOT(true)
    assert not dnf_satisfiable([frozenset({prim("eq", X, c0)})], [frozenset()])


def test_dnf_blowup_cap():
    big = [frozenset({prim("eq", Var(f"V{i}"), c0), prim("eq", Var(f"W{i}"), c1)})
           for i in range(6)]
    with pytest.raises(BlowupExceeded):
        dnf_satisfiable([frozenset({prim("eq", X, c0)})], big, cap=10)


def _dnf_by_expansion(pos, neg, cap=10_000):
    """Reference: the full DNF expansion, one store built from scratch per
    conjunct."""
    count = len(pos)
    for b in neg:
        count *= max(len(b), 1)
        if count > cap:
            raise BlowupExceeded(f"{count} conjuncts exceeds cap {cap}")
    if not pos:
        return False

    def expand(j, acc):
        if j == len(neg):
            return satisfiable(acc)
        return any(expand(j + 1, acc + [negate(c)]) for c in neg[j])

    return any(satisfiable(a) and expand(0, list(a)) for a in pos)


def _same_dnf_verdict(pos, neg, cap=10_000):
    """Both give the same verdict, or both raise BlowupExceeded."""
    try:
        expected = _dnf_by_expansion(pos, neg, cap)
    except BlowupExceeded:
        with pytest.raises(BlowupExceeded):
            dnf_satisfiable(pos, neg, cap)
        return
    assert dnf_satisfiable(pos, neg, cap) == expected


DNF_TERMS = st.recursive(
    st.sampled_from([X, Y, Z, a, c0, c1, c2, NIL]),
    lambda inner: st.builds(cons, inner, inner),
    max_leaves=3,
)
DNF_CONSTRAINTS = st.builds(
    lambda rel, l, r: prim(rel, l, r),
    st.sampled_from(["eq", "neq", "le", "lt"]),
    DNF_TERMS,
    DNF_TERMS,
)
# An empty negated answer decides the test at once; the fixed tests above
# cover it.
DNF_ANSWERS = st.lists(st.frozensets(DNF_CONSTRAINTS, min_size=1, max_size=3), max_size=4)


@settings(max_examples=300, deadline=None)
@given(DNF_ANSWERS, DNF_ANSWERS, st.sampled_from([8, 10_000]))
def test_dnf_search_matches_full_expansion(pos, neg, cap):
    _same_dnf_verdict(pos, neg, cap)


def test_dnf_search_matches_full_expansion_on_mined_answer_sets():
    # Every answer-set comparison that general mining of the bool specs
    # makes, recorded from the command line.
    calls = []

    def record(pos, neg, cap=10_000):
        calls.append((pos, neg, cap))
        return dnf_satisfiable(pos, neg, cap)

    with mock.patch.object(miner, "dnf_satisfiable", record):
        for spec in ("and_min", "and_split", "bool_full", "min_split", "min_sym", "xor"):
            argv = ["generate", str(DATA / "bool.clp"), str(DATA / f"{spec}.spec"),
                    "--mode", "general"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    assert len(calls) >= 90
    for pos, neg, cap in calls:
        _same_dnf_verdict(pos, neg, cap)


def test_dnf_search_cuts_a_branch_once_it_is_inconsistent():
    # X=0,Y=0,Z=0, X#=<Y against the eight rows of {0,1}^3, the row X=0,
    # Y=0, Z=0 first: each negated literal of that row contradicts the
    # positive answer at once. The order edge keeps the positive answer from
    # being a ground row, so the search runs. The full expansion builds one
    # store per conjunct, 3^8 of them.
    rows = sorted(itertools.product((c0, c1), repeat=3), key=lambda row: row != (c0,) * 3)
    neg = [frozenset(prim("eq", v, t) for v, t in zip((X, Y, Z), row)) for row in rows]
    pos = [neg[0] | {prim("le", X, Y)}]
    with mock.patch.object(solver, "assert_all", wraps=solver.assert_all) as spy:
        assert not dnf_satisfiable(pos, neg)
    assert spy.call_count == 4  # the positive answer, then one per literal


GROUND_ROWS = [
    frozenset(prim("eq", v, t) for v, t in zip((X, Y), row))
    for row in itertools.product((c0, c1, Compound("f", (a,))), repeat=2)
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GROUND_ROWS), max_size=4),
       st.lists(st.sampled_from(GROUND_ROWS), max_size=5))
def test_ground_rows_are_compared_by_subset(pos, neg):
    # Answer sets of ground rows over one set of variables are compared
    # without a store, and agree with the full expansion.
    with mock.patch.object(solver, "assert_all", wraps=solver.assert_all) as spy:
        got = dnf_satisfiable(pos, neg)
    assert spy.call_count == 0
    assert got == (not set(pos) <= set(neg))
    _same_dnf_verdict(pos, neg)


def test_ground_rows_past_the_cap_still_raise():
    # The conjunct count, 1 * 2^4 = 16, is checked before the subset test.
    rows = GROUND_ROWS[:5]
    assert dnf_satisfiable(rows[:1], rows[1:], cap=16) is True
    with pytest.raises(BlowupExceeded):
        dnf_satisfiable(rows[:1], rows[1:], cap=10)


def test_rows_over_different_variables_are_searched():
    # X=0 and X=0, Y=1 are ground rows, but over different variables: the
    # store search decides, and the positive answer satisfies NOT(X=0, Y=1).
    x0 = frozenset({prim("eq", X, c0)})
    with mock.patch.object(solver, "assert_all", wraps=solver.assert_all) as spy:
        assert dnf_satisfiable([x0], [x0 | {prim("eq", Y, c1)}])
    assert spy.call_count > 0


def test_disequality_over_long_lists_is_decided_in_linear_time():
    # Two 1200-element lists that differ in their last cell: each spine
    # cell is walked once, and no compound pair is compared with ==, which
    # made one Compound.__eq__ call per cell.
    n = 1200
    left = make_list([a] * n)
    right = make_list([a] * (n - 1) + [c0])
    s = store_from([prim("eq", X, left)])
    calls = defaultdict(int)
    walk, eq = solver._walk, Compound.__eq__

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    def counted_eq(self, other):
        calls["eq"] += 1
        return eq(self, other)

    with mock.patch.object(solver, "_walk", counted_walk), \
            mock.patch.object(Compound, "__eq__", counted_eq):
        assert not entails(s, prim("eq", X, right))
        assert entails(s, prim("eq", X, make_list([a] * n)))
    assert calls["eq"] == 0
    assert calls["walk"] <= 2 * 2 * (2 * n + 1)
