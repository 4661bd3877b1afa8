"""Parsing of programs, goals and candidate specs, and formatting."""

import pytest

from chrgen.program import (
    ParseError,
    format_constraint,
    format_constraints,
    parse_goal,
    parse_program,
    parse_spec,
)
from chrgen.terms import Compound, Const, Var, constraints_vars


def test_parse_append_program(append_program):
    # [PAPER] the two append clauses, the second one recursive
    assert len(append_program.clauses) == 2
    first, second = append_program.clauses
    assert first.head.functor == "append"
    assert not first.body_user
    assert any(c.functor == "append" for c in second.body_user)


def test_parse_empty_program():
    assert parse_program("").clauses == []
    assert parse_program("% only a comment\n").clauses == []


def test_parse_facts(bool_program):
    facts = [c for c in bool_program.clauses if not c.body_user and not c.body_prim]
    assert len(facts) == 10  # neg/2, xor/3, and/3 tables


def test_parse_goal_relations():
    goal = parse_goal("append(X,Y,Z), Y=[], X\\=Z")
    rels = sorted(c.functor for c in goal)
    assert rels == ["append", "eq", "neq"]


def test_parse_goal_order_relations():
    goal = parse_goal("X#=<Y, Y#<Z, Z#>=W, W#>V")
    assert sorted(c.functor for c in goal) == ["ge", "gt", "le", "lt"]


def test_parse_list_sugar():
    (c,) = parse_goal("X=[a,b|T]")
    lst = c.args[1]
    assert isinstance(lst, Compound) and lst.functor == "cons"
    assert lst.args[0] == Const("a")


def test_shared_variable_names_are_one_variable():
    goal = parse_goal("p(X), q(X)")
    assert len(constraints_vars(goal)) == 1


def test_parse_spec_append():
    # [PAPER] base of one atom, nine lhs candidates, cand_rhs = cand_lhs
    text = """
    base: append(X,Y,Z)
    cand_lhs: X=[], Y=[], Z=[], X=Y, X=Z, Y=Z, X\\=Y, X\\=Z, Y\\=Z
    cand_rhs: cand_lhs
    """
    spec = parse_spec(text, mode="primitive")
    assert len(spec.base_lhs) == 1
    assert len(spec.cand_lhs) == 9
    assert set(spec.cand_rhs) == set(spec.cand_lhs)


def test_parse_spec_shares_variables():
    spec = parse_spec("base: p(X)\ncand_lhs: X=a\ncand_rhs: X=b", mode="primitive")
    base_vars = constraints_vars(spec.base_lhs)
    assert constraints_vars(spec.cand_lhs) == base_vars
    assert constraints_vars(spec.cand_rhs) == base_vars


def test_parse_spec_primitive_mode_rejects_user_rhs():
    text = "base: p(X)\ncand_lhs: X=a\ncand_rhs: q(X)"
    with pytest.raises(ParseError):
        parse_spec(text, mode="primitive")
    # general mode accepts user-defined rhs candidates
    spec = parse_spec(text, mode="general")
    assert spec.cand_rhs[0].functor == "q"


def test_parse_error_positions():
    with pytest.raises(ParseError):
        parse_program("append(X,Y Z) :- X=[].")
    with pytest.raises(ParseError):
        parse_goal("p(X), ")


def test_undefined_predicate_is_reported_where_it_is_called():
    text = "p(X) :- X=a.\n\nq(X) :- X=b,\n    r(X).\n"
    with pytest.raises(ParseError, match="undefined predicate r/1") as err:
        parse_program(text)
    assert (err.value.line, err.value.col) == (4, 5)


def test_user_defined_rhs_in_primitive_mode_is_reported_where_it_is_written():
    text = "base: p(X)\ncand_lhs: X=a  % first\ncand_rhs: X=a,\n   q(X)\n"
    with pytest.raises(ParseError, match="q") as err:
        parse_spec(text, mode="primitive")
    assert (err.value.line, err.value.col) == (4, 4)
    # a syntax error in a section points into the file as well
    with pytest.raises(ParseError, match="trailing input") as err:
        parse_spec("base: p(X)\ncand_lhs:\n  X=a X=b\n")
    assert (err.value.line, err.value.col) == (3, 7)


def test_fresh_variable_names_are_rejected_where_written():
    # _G, _R and _S with digits name the fresh variables of clause renaming,
    # the CHR runtime and rule simplification; a goal variable so named
    # would be identified with one of them.
    for name in ("_G1", "_R23", "_S4"):
        with pytest.raises(ParseError, match=f"'{name}' is reserved") as err:
            parse_goal(f"p(X,\n  {name}), {name} = c")
        assert (err.value.line, err.value.col) == (2, 3)
    with pytest.raises(ParseError, match="'_G7' is reserved") as err:
        parse_program("p(X) :- q(X).\nq(_G7).\n")
    assert (err.value.line, err.value.col) == (2, 3)
    with pytest.raises(ParseError, match="'_S1' is reserved"):
        parse_spec("base: p(X)\ncand_lhs: X=_S1\ncand_rhs: cand_lhs\n")
    # Other names that start the same way stay ordinary variables, and _L1
    # is one: answer locals are never named like a goal variable.
    for name in ("_G", "_Gx1", "_G1x", "__G1", "_L1", "_g1", "G1"):
        (c,) = parse_goal(f"p({name})")
        assert c.args == (Var(name),)


def test_parse_goal_reads_a_long_list():
    items = ",".join(["a"] * 1000)
    (c,) = parse_goal(f"X=[{items}]")
    (again,) = parse_goal(f"X=[{items}]")
    assert c == again and hash(c) == hash(again)


def test_format_constraint_symbols():
    (c,) = parse_goal("X#=<Y")
    assert format_constraint(c) == "X#=<Y"
    (c,) = parse_goal("X\\=[]")
    assert format_constraint(c) == "X\\=[]"


def test_format_constraints_sorted_deterministic():
    goal = parse_goal("q(X), p(X), X=a")
    assert format_constraints(goal) == format_constraints(sorted(goal, key=repr))


def test_directives_are_rejected():
    # Declared external, q would have no clauses: the engine would read
    # q(X) as false and mine the unsound p(X) ==> X=b from this program.
    with pytest.raises(ParseError, match="external/2"):
        parse_program(":- external(q,1). p(X) :- q(X), X=a. p(X) :- X=b.")
    with pytest.raises(ParseError, match="ordered/1"):
        parse_program(":- ordered(lo).")


def test_parsing_a_program_leaves_the_order_sort_unchanged():
    # Order constraints take numerals only, whatever was parsed before.
    try:
        parse_program(":- ordered(lo).\np(X) :- X #=< lo.")
    except ParseError:
        pass
    with pytest.raises(ParseError, match="non-ordered"):
        parse_goal("X #=< lo")
