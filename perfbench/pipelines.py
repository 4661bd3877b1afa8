"""One pass of each workload through chrgen's public entry points, with the
correctness references the benchmark checks the outputs against.

A pass calls chrgen only through module attributes (``miner.mine_primitive``
rather than a name imported here), so the tracer's wrappers see every call.
Every operation is counted in a :class:`Ledger`; a failed correctness
reference or counter check also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import statistics
import time
from pathlib import Path

from chrgen import cli, emit, miner, oracle, program, resolution, rules, runtime, terms, transform

# README quick start: the three CHR lines `emit` prints for min.
README_MIN_LINES = (
    "min(X,Y,Z) <=> X=<Y | Z=X.",
    "min(X,Y,Z) <=> Y=<X | Z=Y.",
    "min(X,Y,Z) ==> Z=<X, Z=<Y.",
)

# Acceptance criterion 2: found with tabling, missed without it.
APPEND_TARGETS = """\
append(X,Y,Z), Y=[] ==> X=Z.
append(X,Y,Z), X=Z ==> Y=[].
append(X,Y,Z), Y\\=[] ==> X\\=Z.
append(X,Y,Z), X\\=[] ==> Z\\=[].
"""
MIN_CLASSICAL_DEPTH_EXCEEDED = 4

# Acceptance criterion 5: the transform of append(X,Y,Z), X=[] ==> Y=Z.
APPEND_SIMPLIFICATION = "append(X,Y,Z), X=[] <=> X=[], Y=Z."

# Timings of each goal set per pass; chr_run_s sums their medians.
CHR_SAMPLES = 10

APPEND_UNIVERSE = (("a", "b"), 3)
MIN_UNIVERSE = (("0", "1", "2"), 0)
BOOL_UNIVERSE = (("0", "1"), 0)


class Ledger:
    """Operations attempted and failed, and the correctness checks run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, int] = {}  # message -> times seen
        self.checks: dict[str, list[int]] = {}  # name -> [run, failed]

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            message = f"{name}: {detail}".rstrip(": ")
            if message in self.failures or len(self.failures) < 20:
                self.failures[message] = self.failures.get(message, 0) + 1
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """An operation that is also a correctness reference."""
        counts = self.checks.setdefault(name, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            self.correct = False
        return self.op(name, ok, detail)


class EvaluateCounter:
    """Counts the miner's evaluate calls and depth-exceeded verdicts, for
    comparison with the miner's own statistics."""

    def __init__(self):
        self.calls = 0
        self.depth = 0
        self._inner = None

    def install(self) -> None:
        self._inner = inner = miner.evaluate

        def counted(*args, **kwargs):
            outcome = inner(*args, **kwargs)
            self.calls += 1
            if type(outcome).__name__ == "DepthExceeded":
                self.depth += 1
            return outcome

        miner.evaluate = counted

    def uninstall(self) -> None:
        miner.evaluate = self._inner

    def snapshot(self) -> tuple[int, int]:
        return self.calls, self.depth


class Runner:
    """State of one run shared by its passes."""

    def __init__(self, workload: str, inputs: Path, work: Path, ledger: Ledger,
                 counter: EvaluateCounter):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.ledger = ledger
        self.counter = counter
        self.item_s: list[float] = []  # bool-family: one sample per program
        self.chr_s: list[float] = []  # one sample per untraced pass
        self.untimed_s = 0.0  # time a pass spends taking chr samples
        self.fingerprint_parts: list[str] = []
        # goal set -> completed (chr rules, goal) pairs, and their samples
        self.goal_sets: dict[str, list[tuple]] = {}
        self.goal_samples: dict[str, list[float]] = {}
        self.tracer = None
        self.run_id = ""

    # -- helpers -------------------------------------------------------------

    def cli(self, *argv) -> tuple[int | None, str]:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        code: int | None = None
        detail = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a failed operation
                detail = f"{type(exc).__name__}: {exc}"
        if code != 0 and not detail:
            detail = f"exit {code}: {err.getvalue().strip()[-200:]}"
        self.ledger.op(f"chrgen {argv[0]}", code == 0, detail)
        return code, out.getvalue()

    def agree(self, before: tuple[int, int], stats: dict, what: str) -> None:
        calls, depth = self.counter.snapshot()
        calls, depth = calls - before[0], depth - before[1]
        self.ledger.check(
            "counter agreement",
            (calls, depth) == (stats.get("evaluations"), stats.get("depth_exceeded")),
            f"{what}: counted {calls} evaluations / {depth} depth-exceeded,"
            f" miner reports {stats.get('evaluations')} / {stats.get('depth_exceeded')}",
        )

    def soundness(self, rs, facts, universe) -> None:
        for rule in rs.rules:
            cex = oracle.check_rule(rule, facts, universe)
            self.ledger.check("oracle soundness", cex is None,
                              f"{rules.format_rule(rule)} {cex}")

    def run_goals(self, name: str, rs, goals, facts, universe) -> None:
        """Emit the rule set and run the goal set on the emitted program
        without its splitting (CHR-or) rules, then time it. A goal that hits
        the step limit is a failed operation; a goal with a ground solution
        that the solver fails breaks the ground-model reference."""
        chr_rules = [r for r in emit.emit(rs).chr_rules if r.kind != "splitting"]
        completed = self.goal_sets[name] = []
        for goal in goals:
            try:
                leaves = runtime.run(chr_rules, goal)
            except runtime.StepLimitExceeded as exc:
                self.ledger.op("runtime goal", False, f"step limit: {exc}")
                continue
            completed.append((chr_rules, goal))
            has_solution = oracle.goal_has_ground_solution(goal, facts, universe)
            self.ledger.check("runtime vs ground model", bool(leaves) or not has_solution,
                              f"solver fails a goal with a ground solution: {sorted(map(str, goal))}")
        self.time_goals(name)

    def time_goals(self, name: str) -> None:
        """Take CHR_SAMPLES timings of the completed goals of a goal set,
        each goal from a fresh process state. Untraced runs only; the time
        is left out of the pass and item times. Sampling right after each
        goal set spreads the samples over the pass: the machine's speed
        drifts, and samples from one moment vary more between runs."""
        if self.tracer is not None:
            return
        begin = time.perf_counter()
        for _ in range(CHR_SAMPLES):
            gc.collect()
            start = time.perf_counter()
            for chr_rules, goal in self.goal_sets[name]:
                fresh_process_state()
                runtime.run(chr_rules, goal)
            self.goal_samples.setdefault(name, []).append(time.perf_counter() - start)
        self.untimed_s += time.perf_counter() - begin


    def fingerprint(self, *parts) -> None:
        self.fingerprint_parts.extend(str(p) for p in parts)

    def read_goals(self, path: Path) -> list:
        return [program.parse_goal(line) for line in path.read_text().splitlines() if line.strip()]

    # -- workloads -----------------------------------------------------------

    def run(self, run_id: str) -> None:
        self.run_id = run_id
        if self.tracer is not None:
            self.tracer.run_id = run_id
        self.goal_sets, self.goal_samples = {}, {}
        self.untimed_s = 0.0
        self.fingerprint_parts = []
        fresh_process_state()
        getattr(self, self.workload.replace("-", "_"))()
        if self.goal_samples:
            self.chr_s.append(sum(statistics.median(v) for v in self.goal_samples.values()))

    def min_pipeline(self) -> None:
        d, w = self.inputs, self.work
        self.cli("generate", d / "min.clp", d / "min.spec", "--mode", "all", "--out", w / "min.rules")
        self.cli("transform", w / "min.rules", d / "min.clp", "--out", w / "min.simp")
        self.cli("emit", w / "min.simp", "--out", w / "min.chr")
        _, out = self.cli("validate", w / "min.simp", "--program", d / "min.clp",
                          "--constants", "0,1,2", "--goals", d / "min.goals")
        for line in out.splitlines():
            if line.startswith(("ok: ", "VIOLATION: ")):
                self.ledger.check("oracle soundness", line.startswith("ok: "), line)
        chr_text = _read(w / "min.chr")
        for line in README_MIN_LINES:
            self.ledger.check("expected rule", line in chr_text.splitlines(), line)
        simp = rules.parse_rules(_read(w / "min.simp"))
        constants, depth = MIN_UNIVERSE
        universe = oracle.universe(list(constants), depth)
        facts = oracle.success_set(program.parse_program(_read(d / "min.clp")), universe)
        self.run_goals("min", simp, self.read_goals(d / "min.goals"), facts, universe)
        self.fingerprint(_read(w / "min.rules"), _read(w / "min.simp"), chr_text)

    def append_mine(self) -> None:
        d, w = self.inputs, self.work
        prog = program.parse_program(_read(d / "append.clp"))
        constants, list_depth = APPEND_UNIVERSE
        universe = oracle.universe(list(constants), list_depth)
        facts = oracle.success_set(prog, universe)
        mined = {}
        for name, flags in (("tabled", ()), ("classical", ("--no-tabling",))):
            before = self.counter.snapshot()
            out = w / f"append.{name}.json"
            self.cli("generate", d / "append.clp", d / "append.spec", "--mode", "primitive",
                     "--format", "machine", "--out", out, *flags)
            data = json.loads(_read(out) or '{"rules": [], "stats": {}}')
            self.agree(before, data["stats"], f"generate append ({name})")
            mined[name] = (rules.parse_rules(_json_rules_text(data)), data["stats"])
            self.fingerprint(f"{name}\n{_json_rules_text(data)}{sorted(data['stats'].items())}")
            if name == "tabled":
                self.run_goals(name, mined[name][0], self.read_goals(d / "append.goals"),
                               facts, universe)
        targets = {r.canonical_key() for r in rules.parse_rules(APPEND_TARGETS).rules}
        tabled, classical = (_covered(mined[k][0]) for k in ("tabled", "classical"))
        for key in sorted(targets):
            self.ledger.check("expected rule", key in tabled, f"tabled output lacks {key}")
            self.ledger.check("tabling matters", key not in classical,
                              f"classical output has {key}")
        depth = mined["classical"][1].get("depth_exceeded", 0)
        self.ledger.check("tabling matters", depth >= MIN_CLASSICAL_DEPTH_EXCEEDED,
                          f"classical depth_exceeded {depth}")
        for name in ("tabled", "classical"):
            self.soundness(mined[name][0], facts, universe)
        # A second set of goal-set timings, taken a pass-length after the first.
        self.time_goals("tabled")

    def append_answers(self) -> None:
        d, w = self.inputs, self.work
        self.cli("transform", d / "append.rules", d / "append.clp", "--out", w / "append.simp")
        self.cli("emit", w / "append.simp", "--out", w / "append.chr")
        simp = rules.parse_rules(_read(w / "append.simp"))
        want = rules.parse_rules(APPEND_SIMPLIFICATION).rules[0]
        found = any((r.kind, r.lhs, set(r.rhs)) == (want.kind, want.lhs, set(want.rhs))
                    for r in simp.rules)
        self.ledger.check("expected rule", found, APPEND_SIMPLIFICATION)
        prog = program.parse_program(_read(d / "append.clp"))
        constants, list_depth = APPEND_UNIVERSE
        universe = oracle.universe(list(constants), list_depth)
        facts = oracle.success_set(prog, universe)
        self.soundness(simp, facts, universe)
        self.run_goals("append", simp, self.read_goals(d / "append.goals"), facts, universe)
        self.fingerprint(_read(w / "append.simp"), _read(w / "append.chr"))

    def bool_family(self) -> None:
        for clp in sorted(self.inputs.glob("item*.clp")):
            stem = clp.name[: -len(".clp")]
            if self.tracer is not None:
                self.tracer.run_id = f"{self.run_id}/{stem}"
            start, untimed = time.perf_counter(), self.untimed_s
            fresh_process_state()
            self.bool_item(stem)
            self.item_s.append(time.perf_counter() - start - (self.untimed_s - untimed))

    def bool_item(self, stem: str) -> None:
        d = self.inputs
        try:
            prog = program.parse_program(_read(d / f"{stem}.clp"))
            prim = program.parse_spec(_read(d / f"{stem}.prim.spec"), mode="primitive")
            gen = program.parse_spec(_read(d / f"{stem}.gen.spec"))
            opts = miner.MinerOptions()
            engine = miner._Engine(prog, opts)
            before = self.counter.snapshot()
            rs = rules.RuleSet()
            for r in miner.mine_primitive(prog, prim, opts, engine=engine):
                rs.add(r)
            for r in miner.mine_splitting(prog, prim, prior=rs, opts=opts, engine=engine):
                rs.add(r)
            for r in miner.mine_general(prog, gen, opts, engine=engine):
                rs.add(r)
            rs.stats = engine.stats.as_dict()
            self.agree(before, rs.stats, f"{stem} mining")
            rs = miner.simplify_ruleset(rs)
            self.ledger.op("mine", True)
            out = transform.to_simplification(rs, None, prog, opts)
            self.ledger.op("transform", True)
        except Exception as exc:  # a traceback is a failed operation
            self.ledger.op(f"{stem} pipeline", False, f"{type(exc).__name__}: {exc}")
            return
        constants, depth = BOOL_UNIVERSE
        universe = oracle.universe(list(constants), depth)
        facts = oracle.success_set(prog, universe)
        self.soundness(out, facts, universe)
        self.run_goals(stem, out, self.read_goals(d / f"{stem}.goals"), facts, universe)
        self.fingerprint(rules.format_ruleset(out) + str(sorted(rs.stats.items())))

    def fingerprint_digest(self) -> str:
        """Digest of the pass's rule sets and verdict counts, independent of
        the order in which the items ran."""
        return hashlib.sha256("\n".join(sorted(self.fingerprint_parts)).encode()).hexdigest()[:16]


def fresh_process_state() -> None:
    """Reset chrgen's process-wide state to what a fresh process starts
    with, as each CLI invocation does. Variable names come from a global
    counter, and set and dict order, and so the work done, depend on them;
    without the reset, a program's cost would depend on what ran before it
    in the same process."""
    if hasattr(terms, "_counter"):
        terms._counter = itertools.count(1)
    if hasattr(resolution, "_clause_parts"):
        resolution._clause_parts.cache_clear()


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def _json_rules_text(data: dict) -> str:
    """The rules of a ``--format machine`` file in the text rule format."""
    lines = []
    for r in data["rules"]:
        lhs = ", ".join(r["lhs"])
        if r["kind"] == "failure":
            body, arrow = "false", "==>"
        elif r["kind"] == "splitting":
            body, arrow = " ; ".join(r["rhs"]), "==>"
        else:
            body = ", ".join(r["rhs"])
            arrow = "<=>" if r["kind"] == "simplification" else "==>"
        lines.append(f"{lhs} {arrow} {body}.")
    return "\n".join(lines) + "\n"


def _covered(rs) -> set:
    """Canonical keys of the single-constraint propagation rules that the
    rule set states, one per rhs constraint."""
    return {
        rules.Rule("propagation", r.lhs, (c,)).canonical_key()
        for r in rs.rules if r.kind == "propagation" for c in r.rhs
    }


