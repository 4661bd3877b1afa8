"""Worker process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py setup WORKLOAD INPUTS
        imports chrgen, parses the workload's input files and prints the
        time that took as JSON.
    python3 perfbench/worker.py run WORKLOAD INPUTS WORK SECONDS TRACE RESULT
        runs passes of the workload for SECONDS and writes metrics, checks
        and counts to the RESULT file.

chrgen is imported from the ``src`` directory next to this directory.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_chrgen() -> None:
    sys.path.insert(0, str(SRC))
    import chrgen.cli

    if SRC.resolve() not in Path(chrgen.__file__).resolve().parents:
        raise SystemExit(f"chrgen was imported from {chrgen.__file__}, not from {SRC}")


def setup(workload: str, inputs: Path) -> None:
    start = time.perf_counter()
    import_chrgen()
    from chrgen import program, rules

    for path in sorted(inputs.iterdir()):
        text = path.read_text()
        if path.suffix == ".clp":
            program.parse_program(text)
        elif path.suffix == ".spec":
            program.parse_spec(text)
        elif path.suffix == ".rules":
            rules.parse_rules(text)
        elif path.suffix == ".goals":
            for line in text.splitlines():
                if line.strip():
                    program.parse_goal(line)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run(workload: str, inputs: Path, work: Path, seconds: float, trace: bool,
        result_path: Path) -> None:
    import_chrgen()
    from pipelines import EvaluateCounter, Ledger, Runner
    from tracer import Tracer

    ledger = Ledger()
    counter = EvaluateCounter()
    runner = Runner(workload, inputs, work, ledger, counter)
    counter.install()
    deadline = time.perf_counter() + seconds
    untraced_s: list[float] = []
    tracer = None
    if trace:
        # One untraced pass gives the base for trace.overhead_s.
        untraced_s.append(_timed(runner, "untraced"))
        counter.uninstall()
        tracer = runner.tracer = Tracer()
        tracer.install()
        counter.install()
    pass_s: list[float] = []
    layer_passes: list[dict] = []
    shares: dict = {}
    fingerprint = None
    while True:
        if tracer is not None:
            tracer.reset_totals()
        took = _timed(runner, f"pass{len(pass_s)}")
        pass_s.append(took)
        fingerprint = fingerprint or runner.fingerprint_digest()
        if tracer is not None:
            layer_passes.append(tracer.pass_metrics())
            shares = tracer.self_shares()
        if time.perf_counter() + took > deadline:
            break
    counter.uninstall()

    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "correct": ledger.correct,
        "failures": ledger.failures,
        "checks": ledger.checks,
        "fingerprint": fingerprint,
        "passes": len(pass_s),
        "samples": {"wall_s": pass_s, "item_s": runner.item_s or pass_s, "chr_run_s": runner.chr_s},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        layers["trace.overhead_s"] = statistics.median(pass_s) - statistics.median(untraced_s)
        result["layers"] = layers
        result["self_shares"] = shares
        spans = work / "spans.jsonl"
        tracer.write_spans(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    result_path.write_text(json.dumps(result))


def _timed(runner, run_id: str) -> float:
    """Pass time, without the time spent taking chr_run_s samples."""
    start = time.perf_counter()
    runner.run(run_id)
    return time.perf_counter() - start - runner.untimed_s


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        setup(argv[1], Path(argv[2]))
    elif argv[0] == "run":
        workload, inputs, work, seconds, trace, result = argv[1:7]
        run(workload, Path(inputs), Path(work), float(seconds), trace == "1", Path(result))
    else:
        raise SystemExit(f"unknown worker command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
