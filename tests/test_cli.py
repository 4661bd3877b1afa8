"""End-to-end command line runs, driven through cli.main directly."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chrgen
from chrgen.cli import main

from conftest import DATA, GOLDEN


def test_generate_min_text(capsys):
    rc = main(["generate", str(DATA / "min.clp"), str(DATA / "min.spec"),
               "--mode", "primitive"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "min(X,Y,Z) ==> Z#=<X, Z#=<Y." in out


def test_generate_machine_format(tmp_path, capsys):
    out_file = tmp_path / "rules.json"
    rc = main(["generate", str(DATA / "min.clp"), str(DATA / "min.spec"),
               "--mode", "primitive", "--format", "machine",
               "--out", str(out_file)])
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["rules"]
    assert "stats" in payload


def test_transform_command(tmp_path, capsys):
    rules = tmp_path / "in.rules"
    rules.write_text("append(X,Y,Z), X=[] ==> Y=Z.\n")
    rc = main(["transform", str(rules), str(DATA / "append.clp")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "<=>" in captured.out
    assert "rejected" in captured.err
    # The machine format reports what the transform's engine evaluated:
    # Y=Z, X=[], Y=Z and X=[], Y=Z, append(X,Y,Z), each once.
    rc = main(["transform", str(rules), str(DATA / "append.clp"), "--format", "machine"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)["stats"]["transform"]
    assert (stats["evaluations"], stats["depth_exceeded"]) == (3, 0)


def test_emit_command(tmp_path, capsys):
    rules = tmp_path / "in.rules"
    rules.write_text("and(X,Y,Z), Z=1 <=> X=1, Y=1, Z=1.\n")
    rc = main(["emit", str(rules), "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "and(X,Y,1) <=> X=1, Y=1.\n"


def test_validate_command(tmp_path, capsys):
    rules = tmp_path / "in.rules"
    rules.write_text("and(X,Y,Z), Z=1 ==> X=1, Y=1.\n")
    rc = main(["validate", str(rules), "--program", str(DATA / "bool.clp")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations: 0" in out


def test_validate_flags_bad_rule(tmp_path, capsys):
    rules = tmp_path / "in.rules"
    rules.write_text("and(X,Y,Z), Z=0 ==> X=0.\n")
    rc = main(["validate", str(rules), "--program", str(DATA / "bool.clp")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "VIOLATION" in out


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    rules = tmp_path / "in.rules"
    rules.write_text(
        "append(X,Y,Z), Y\\=[] ==> X=Z.\n"
        "append(X,Y,Z), X=[] ==> Y=Z.\n"
        "append(X,Y,Z), Y=[] ==> X\\=Z ; Z=[].\n"
    )
    src = str(Path(chrgen.__file__).parent.parent)
    outputs = []
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-m", "chrgen", "validate", str(rules),
             "--program", str(DATA / "append.clp"),
             "--constants", "a,b", "--list-depth", "2"],
            capture_output=True, env=env, check=False,
        )
        assert run.returncode == 1, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert (
        b"VIOLATION: counterexample [X=[], Y=a, Z=a] to "
        b"append(X,Y,Z), Y\\=[] ==> X=Z.\n"
    ) in outputs[0]
    assert b"[X=[a], Y=[], Z=[a]]" in outputs[0]


def test_min_pipeline_output_bytes(tmp_path):
    # The README pipeline under a fixed hash seed: generate in mode all,
    # then transform its output; both stdouts must match the goldens byte
    # for byte.
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(chrgen.__file__).parent.parent)}

    def chrgen_stdout(*args):
        run = subprocess.run([sys.executable, "-m", "chrgen", *args],
                             capture_output=True, env=env, check=False)
        assert run.returncode == 0, run.stderr
        return run.stdout

    mined = chrgen_stdout("generate", str(DATA / "min.clp"), str(DATA / "min.spec"),
                          "--mode", "all")
    assert mined == (GOLDEN / "min_all.txt").read_bytes()
    rules = tmp_path / "min.rules"
    rules.write_bytes(mined)
    simplified = chrgen_stdout("transform", str(rules), str(DATA / "min.clp"))
    assert simplified == (GOLDEN / "min_all_transform.txt").read_bytes()


def test_min_all_machine_output_bytes():
    # The same generate run in --format machine: its rules with provenance
    # and its verdict and skip counters must match the golden byte for byte.
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(chrgen.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-m", "chrgen", "generate", str(DATA / "min.clp"),
         str(DATA / "min.spec"), "--mode", "all", "--format", "machine"],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "min_all.json").read_bytes()


def test_append_primitive_classical_machine_output_bytes():
    # Classical mining of append runs most goals into the depth bound, and
    # probes cut branches for finiteness: its verdict and skip counters
    # must match the golden byte for byte. CI diffs mode all the same way.
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(chrgen.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-m", "chrgen", "generate", str(DATA / "append.clp"),
         str(DATA / "append.spec"), "--mode", "primitive", "--no-tabling",
         "--format", "machine"],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "append_primitive_classical.json").read_bytes()


def test_append_transform_output_bytes():
    # The all-answers path on a recursive program: transform of the five
    # append rules under a fixed hash seed. The golden holds its stdout,
    # then its `rejected:` lines from stderr.
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(chrgen.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-m", "chrgen", "transform", str(DATA / "append.rules"),
         str(DATA / "append.clp")],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    rejected = [line for line in run.stderr.splitlines(keepends=True)
                if line.startswith(b"rejected: ")]
    assert run.stdout + b"".join(rejected) == (GOLDEN / "append_transform.out").read_bytes()


def test_validate_runs_goals(tmp_path, capsys):
    rules = tmp_path / "in.rules"
    rules.write_text(
        "min(X,Y,Z), X#=<Y <=> Z=X, X#=<Y.\n"
        "min(X,Y,Z), Y#=<X <=> Z=Y, Y#=<X.\n"
    )
    goals = tmp_path / "goals.txt"
    goals.write_text("min(0,1,Z)\n")
    rc = main(["validate", str(rules), "--program", str(DATA / "bool.clp"),
               "--goals", str(goals)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 consistent final store" in out
    assert "Z=0" in out


def test_validate_goals_drops_a_rule_without_user_defined_head(tmp_path, capsys):
    # Such a rule cannot be run by the CHR runtime: it is left out of the
    # goal runs with the same note that `emit` prints, not a traceback.
    rules = tmp_path / "in.rules"
    rules.write_text("X=0 ==> X\\=1.\nmin(X,Y,Z), X#=<Y <=> Z=X, X#=<Y.\n")
    goals = tmp_path / "goals.txt"
    goals.write_text("min(0,1,Z)\n")
    rc = main(["validate", str(rules), "--program", str(DATA / "min.clp"),
               "--goals", str(goals)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "goal 'min(0,1,Z)': 1 consistent final store(s)" in captured.out
    assert captured.err.startswith("dropped rule: ")
    assert "X=0" in captured.err


def test_oracle_command(capsys):
    rc = main(["oracle", str(DATA / "bool.clp")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "and(1,1,1)" in out
    assert "min(0,1,0)" in out


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.clp"
    bad.write_text("p(X :- q.")
    rc = main(["generate", str(bad), str(DATA / "min.spec")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_goal_variable_named_like_a_fresh_variable_is_rejected(tmp_path, capsys):
    # The clause variable A of p/2 is renamed _G1 in a fresh process, so
    # this goal would fail although p(X,Y), Y=c has two answers.
    prog = tmp_path / "fresh.clp"
    prog.write_text("p(X, Y) :- X = f(A), q(A).\nq(A) :- A = a.\nq(A) :- A = b.\n")
    spec = tmp_path / "fresh.spec"
    spec.write_text("base: p(X, _G1)\ncand_lhs: _G1 = c\ncand_rhs: X = f(a)\n")
    rc = main(["generate", str(prog), str(spec)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "1:12: variable name '_G1' is reserved" in captured.err
    assert "==>" not in captured.out


def test_program_with_external_directive_is_rejected(tmp_path, capsys):
    # Mining this program with q/1 read as false gives p(X) ==> X=b,
    # which does not follow from it.
    prog = tmp_path / "ext.clp"
    prog.write_text(":- external(q,1).\np(X) :- q(X), X=a.\np(X) :- X=b.\n")
    spec = tmp_path / "ext.spec"
    spec.write_text("base: p(X)\ncand_lhs: X=a, X=b\ncand_rhs: cand_lhs\n")
    rc = main(["generate", str(prog), str(spec)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "external/2" in captured.err
    assert "==>" not in captured.out


def test_deep_input_ends_as_depth_exceeded(tmp_path, capsys):
    # Every term walk on the way is iterative, so a 1200-element list no
    # longer hits Python's recursion limit: its goals run into the depth
    # bound instead, and are reported as such.
    spec = tmp_path / "deep.spec"
    items = ",".join(["a"] * 1200)
    spec.write_text(f"base: append(X,Y,Z)\ncand_lhs: X=[{items}], Y=[]\ncand_rhs: cand_lhs\n")
    rc = main(["generate", str(DATA / "append.clp"), str(spec)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "depth_exceeded verdicts: 2" in captured.err
    assert "limit exceeded" not in captured.err


def test_deep_rule_emits(tmp_path, capsys):
    # Inlining the equality and keying the rule for the header digest both
    # walk the 1200-element list without recursion.
    rules = tmp_path / "deep.rules"
    items = ",".join(["a"] * 1200)
    rules.write_text(f"p(X), X=[{items}] ==> q(X).\n")
    rc = main(["emit", str(rules)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    header, line = captured.out.splitlines()
    assert header.startswith("% generated by chrgen") and "ruleset" in header
    assert line == f"p([{items}]) ==> q([{items}])."


def test_step_limit_exits_with_limit_code(tmp_path, capsys):
    # A swap repeats its state, and stops there; a rule that asserts a
    # primitive again on each firing grows the store, and runs to the limit.
    goals = tmp_path / "swap.goals"
    goals.write_text("min(A,B,C)\n")
    for body, message in (
        ("min(Y,X,Z)", "the state at take-up 18 repeats the one at take-up 16,"
                       " so the run would exceed 100 rule-match steps"),
        ("Z#=<X, min(Y,X,Z)", "exceeded 100 rule-match steps"),
    ):
        rules = tmp_path / "swap.rules"
        rules.write_text(f"min(X,Y,Z) <=> {body}.\n")
        rc = main(["validate", str(rules), "--program", str(DATA / "min.clp"),
                   "--constants", "0,1", "--goals", str(goals), "--step-limit", "100"])
        assert rc == 2
        assert capsys.readouterr().err == f"limit exceeded: {message}\n"


@pytest.mark.parametrize("name, functor", [("xor", "xor"), ("min_sym", "min")])
def test_swapping_solvers_exit_with_limit_code_at_the_repeat(name, functor, tmp_path, capsys):
    goals = tmp_path / "ground.goals"
    goals.write_text("".join(
        f"{functor}({','.join(args)})\n" for args in itertools.product("01", repeat=3)
    ))
    rc = main(["validate", str(DATA / "chr" / f"{name}.rules"), "--program",
               str(DATA / "bool.clp"), "--goals", str(goals)])
    assert rc == 2
    assert re.fullmatch(
        r"limit exceeded: the state at take-up 1[78] repeats the one at take-up 16,"
        r" so the run would exceed 10000 rule-match steps\n",
        capsys.readouterr().err,
    )


def test_dnf_cap_leaves_a_general_rule_unmined(capsys):
    # Past --dnf-cap the answer-set comparison counts as not valid: the
    # run still exits 0, without the symmetry rule.
    argv = ["generate", str(DATA / "bool.clp"), str(DATA / "xor.spec"), "--mode", "general"]
    symmetry = "xor(X,Y,Z) ==> xor(Y,X,Z)."
    assert main(argv) == 0
    assert symmetry in capsys.readouterr().out.splitlines()
    assert main(argv + ["--dnf-cap", "1"]) == 0
    captured = capsys.readouterr()
    assert symmetry not in captured.out.splitlines()
    assert "limit exceeded" not in captured.err


def test_missing_file_exit_code(capsys):
    rc = main(["emit", "/nonexistent/rules.txt"])
    assert rc == 1


def test_no_tabling_reports_depth_exceeded(capsys):
    rc = main(["generate", str(DATA / "append.clp"), str(DATA / "append.spec"),
               "--mode", "primitive", "--no-tabling", "--no-simplify"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "depth_exceeded" in captured.err


def test_removed_miner_flags_are_rejected(capsys):
    # --jobs and --seed did nothing; argparse now refuses them (exit 2).
    for flag in ("--jobs", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["generate", str(DATA / "min.clp"), str(DATA / "min.spec"), flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_optimization_flags_belong_to_generate(tmp_path, capsys):
    # transform compares answer sets only, which no --opt flag touches, so
    # it offers none of them.
    rules = tmp_path / "in.rules"
    rules.write_text("append(X,Y,Z), X=[] ==> Y=Z.\n")
    for flag in ("--opt1", "--no-opt1", "--opt2", "--no-opt2", "--opt3", "--no-opt3"):
        with pytest.raises(SystemExit) as exc:
            main(["transform", str(rules), str(DATA / "append.clp"), flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    rc = main(["generate", str(DATA / "min.clp"), str(DATA / "min.spec"),
               "--mode", "primitive", "--format", "machine", "--no-opt3"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["evaluations"] > 0 and stats["skipped_opt3"] == 0


@pytest.mark.parametrize("spec", ["xor.spec", "and_min.spec", "min_sym.spec"])
def test_generate_all_modes_with_user_defined_rhs(tmp_path, capsys, spec):
    # User-defined rhs candidates go to the general miner only; the
    # primitive and splitting phases cannot negate them.
    out = tmp_path / "rules.txt"
    rc = main(["generate", str(DATA / "bool.clp"), str(DATA / spec), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    printed = [line for line in out.read_text().splitlines() if line.strip()]
    assert printed
    rc = main(["validate", str(out), "--program", str(DATA / "bool.clp")])
    report = capsys.readouterr().out
    assert rc == 0
    assert report.count("ok: ") == len(printed)
    assert "violations: 0" in report
