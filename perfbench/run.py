"""chrgen benchmark: one workload per invocation, in fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chrgen checkout. Workloads: min-pipeline,
append-mine, append-answers, bool-family (see perfbench/README.md).
With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the layers are timed through wrappers and the per-layer metrics reported.
Every metric is printed as a row; the last line is one JSON object with
the metrics named in BENCHMARK.json. The exit code is 0 when every
correctness reference and counter check held, 1 when one failed or the
run broke, and 2 when the checkout has no chrgen sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import BOOL_ITEMS, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# Set-up is measured in this many fresh processes after one warm-up, half
# before the workload runs and half after, so that the median spans the run.
SETUP_REPEATS = 8
TIME_LIMIT_S = 170.0  # the whole invocation must end well within 180 s

E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "item_p50_s": "s", "item_p90_s": "s",
    "chr_run_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("store_len_mean"):
        return "constraints"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return None


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = max(deadline - time.monotonic(), 1.0)
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )


def fail(message: str, code: int = 1) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=BOOL_ITEMS,
                        help="programs in the bool-family (default %(default)s)")
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S

    if not (ROOT / "src" / "chrgen" / "__init__.py").is_file():
        fail(f"no chrgen sources under {ROOT / 'src'}; run from a chrgen checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, work = run_dir / "inputs", run_dir / "work"
    work.mkdir(parents=True)
    write_inputs(args.workload, args.seed, args.items, inputs)

    def set_up(times: int) -> list[float]:
        out = []
        for _ in range(times):
            proc = worker(["setup", args.workload, str(inputs)], deadline)
            if proc.returncode != 0:
                fail(f"set-up failed:\n{proc.stderr}")
            out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        return out

    result_path = run_dir / "result.json"
    try:
        setup_s = set_up(1 + SETUP_REPEATS // 2)[1:]
        proc = worker(["run", args.workload, str(inputs), str(work), str(args.seconds),
                       str(args.trace), str(result_path)], deadline)
        if proc.returncode != 0:
            fail(f"worker failed:\n{proc.stderr}")
        setup_s += set_up(SETUP_REPEATS - len(setup_s))
    except subprocess.TimeoutExpired:
        fail(f"a worker process did not finish within {TIME_LIMIT_S:.0f} s")
    result = json.loads(result_path.read_text())

    rows: list[tuple[str, float, str, str]] = []  # name, value, unit, note
    if args.trace:
        layers = result["layers"]
        for name, value in layers.items():
            rows.append((name, value, layer_unit(name), ""))
        shares = ", ".join(f"{k} {v:.0%}" for k, v in result["self_shares"].items())
        notes = [f"self-time shares: {shares}", f"spans: {result['spans']}"]
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: {"value": layers[n], "unit": layer_unit(n)} for n in names}
    else:
        samples = result["samples"]
        items = samples["item_s"]
        values = {
            "wall_s": samples["wall_s"],
            "setup_s": setup_s,
            "item_p50_s": [percentile(items, 50)],
            "item_p90_s": [percentile(items, 90)],
            "chr_run_s": samples["chr_run_s"],
            "peak_rss_mb": [result["peak_rss_mb"]],
            "failed_ratio": [result["failed"] / max(result["attempted"], 1)],
        }
        for name, vals in values.items():
            note = f"n={len(vals)}"
            if name.startswith("item_"):
                note = f"n={len(items)} items"
            elif len(vals) > 1 and tail(vals):
                pct, val = tail(vals)
                note += f" {pct}={val:.6g}"
            rows.append((name, statistics.median(vals), E2E_UNITS[name], note))
        notes = []
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {r[0]: {"value": r[1], "unit": r[2]} for r in rows if r[0] in names}

    known = json.loads((HERE / "fingerprints.json").read_text())
    ref = known.get(args.workload) if args.items == BOOL_ITEMS else None
    status = "no reference" if ref is None else ("unchanged" if ref == result["fingerprint"] else "changed")
    notes.append(f"rule sets and verdict counts: {status} (fingerprint {result['fingerprint']})")
    checks = ", ".join(f"{k} {v[0] - v[1]}/{v[0]}" for k, v in result["checks"].items())
    notes.append(f"checks passed: {checks}")
    notes.append(f"operations: {result['attempted']} attempted, {result['failed']} failed,"
                 f" {result['passes']} passes")
    notes.extend(f"failure ({n}x): {f}" for f, n in result["failures"].items())

    print(f"{'workload':<15} {'metric':<44} {'value':>14} {'unit':<12} note")
    for name, value, unit, note in rows:
        print(f"{args.workload:<15} {name:<44} {value:>14.6g} {unit:<12} {note}")
    for note in notes:
        print(f"{args.workload:<15} {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
