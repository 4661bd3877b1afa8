"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at its smallest size, untraced and traced, and
asserts that every metric is printed with its unit, that the JSON line
carries the metrics BENCHMARK.json names, and that the workload's
correctness checks ran. Then checks that the benchmark refuses to run in a
directory without chrgen sources. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

E2E = {
    "wall_s": "s", "setup_s": "s", "item_p50_s": "s", "item_p90_s": "s",
    "chr_run_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio",
}


def _expand(pattern: str) -> list[str]:
    """Names of a pattern with {a,b} groups, as the metric list writes them."""
    if "{" not in pattern:
        return [pattern]
    head, rest = pattern.split("{", 1)
    group, tail = rest.split("}", 1)
    return [n for alt in group.split(",") for n in _expand(head + alt + tail)]


LAYER_PATTERNS = (
    "resolution.exists.{tabled,classical}.{fails,answers,depth}.{n,s}",
    "resolution.depth_time_share", "resolution.self_s",
    "resolution.all_answers.{fails,answers,depth}.{n,s}",
    "solver.assert_many.{n,s}", "solver.assert_many.store_len_mean",
    "solver.simplify.{n,s}", "solver.{entails,store_from,dnf_satisfiable}.{n,s}",
    "miner.{primitive,splitting,general,simplify_ruleset,ordered_subsets}.s",
    "miner.self_s", "terms.canonical_key.{n,s}",
    "miner.{evaluations,depth_exceeded,skipped_opt1,skipped_opt2,skipped_opt3}",
    "miner.skipped_redundant_splitting", "miner.opt3_hit_ratio",
    "miner.rules_raw", "miner.rules_kept",
    "transform.{s,self_s,transformed,unchanged,rejected}",
    "runtime.run.{n,s}", "runtime.step_limit.n", "runtime.leaves",
    "oracle.success_set.s", "oracle.check_rule.{n,s}", "oracle.violations",
    "program.parse.{n,s}",
    "emit.{s,rules_encoded,rules_dropped,bytes}", "rules.io.s",
    "cli.{generate,transform,emit,validate}.s",
    "trace.overhead_s",
)
LAYERS = [n for p in LAYER_PATTERNS for n in _expand(p)]

CHECKS = {
    "min-pipeline": ("oracle soundness", "expected rule", "runtime vs ground model"),
    "append-mine": ("counter agreement", "expected rule", "tabling matters",
                    "oracle soundness", "runtime vs ground model"),
    "append-answers": ("expected rule", "oracle soundness", "runtime vs ground model"),
    "bool-family": ("counter agreement", "oracle soundness", "runtime vs ground model"),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--items", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int, spec: dict) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    units = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload:
            units[parts[1]] = parts[3]
    wanted = {n: E2E[n] for n in E2E} if not trace else {n: None for n in LAYERS}
    for name, unit in wanted.items():
        assert name in units, f"{workload} trace {trace}: no row for {name}"
        assert unit is None or units[name] == unit, f"{name}: unit {units[name]}, want {unit}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }, f"{workload}: JSON metrics differ from BENCHMARK.json"
    checks_line = next(line for line in lines if "checks passed:" in line)
    for check in CHECKS[workload]:
        assert f" {check} " in checks_line, f"{workload}: check {check!r} did not run"
    print(f"ok: {workload} trace {trace} ({result['attempted']} operations)")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run(bare, "min-pipeline", 0)
    assert proc.returncode != 0, "benchmark ran without chrgen sources"
    assert not proc.stdout.strip(), "benchmark printed a result without chrgen sources"
    shutil.rmtree(bare)
    print("ok: refuses a directory without chrgen sources")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(CHECKS)
    for workload in CHECKS:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_bare_directory()


if __name__ == "__main__":
    main()
