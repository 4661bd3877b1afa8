"""Layer tracing from outside the program.

The tracer replaces public chrgen functions at every name under which a
chrgen module holds them (``resolution.evaluate`` is also
``miner.evaluate``, ``solver.assert_many`` is also
``resolution.assert_many``, and so on), so that calls are timed wherever
their callers import them from. Each call opens a frame on a stack; on
return its duration is added to the enclosing frame, so a layer's self time
is its duration minus the time its children cover.

Spans (id, name, start, end, parent span, run id) are kept in memory and
written out by :meth:`Tracer.write_spans`. The hottest leaf calls (solver
and term functions, called up to millions of times) are summed into their
layer totals and their parent's child time instead of being kept one span
each, which bounds the tracer's memory.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

Classifier = Callable[[tuple, dict, object, Optional[BaseException], dict], str]

VERDICTS = {"Fails": "fails", "Answers": "answers", "DepthExceeded": "depth"}


def _arg(args: tuple, kwargs: dict, index: int, name: str, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _evaluate_label(args, kwargs, result, exc, extra) -> str:
    mode = _arg(args, kwargs, 3, "mode", "exists")
    verdict = "error" if exc is not None else VERDICTS.get(type(result).__name__, "other")
    if mode == "all_answers":
        return f"resolution.all_answers.{verdict}"
    tabling = _arg(args, kwargs, 4, "tabling", True)
    return f"resolution.exists.{'tabled' if tabling else 'classical'}.{verdict}"


def _assert_many_label(args, kwargs, result, exc, extra) -> str:
    extra["solver.assert_many.store_len"] += len(args[0].constraints)
    return "solver.assert_many"


def _simplify_ruleset_label(args, kwargs, result, exc, extra) -> str:
    extra["miner.rules_raw"] += len(args[0].rules)
    if result is not None:
        extra["miner.rules_kept"] += len(result.rules)
    return "miner.simplify_ruleset"


def _transform_label(args, kwargs, result, exc, extra) -> str:
    if result is not None:
        report = result.stats.get("transform", {})
        extra["transform.transformed"] += report.get("transformed", 0)
        extra["transform.unchanged"] += report.get("unchanged", 0)
        extra["transform.rejected"] += len(report.get("rejected", ()))
    return "transform"


def _emit_label(args, kwargs, result, exc, extra) -> str:
    if result is not None:
        extra["emit.rules_encoded"] += len(result.chr_rules)
        extra["emit.rules_dropped"] += len(result.dropped)
        extra["emit.bytes"] += len(result.text.encode())
    return "emit"


def _runtime_label(args, kwargs, result, exc, extra) -> str:
    if exc is not None and type(exc).__name__ == "StepLimitExceeded":
        extra["runtime.step_limit.n"] += 1
    elif result is not None:
        extra["runtime.leaves"] += len(result)
    return "runtime.run"


def _check_rule_label(args, kwargs, result, exc, extra) -> str:
    if result is not None:
        extra["oracle.violations"] += 1
    return "oracle.check_rule"


def _fixed(label: str) -> Classifier:
    return lambda args, kwargs, result, exc, extra: label


# (module, function, classifier, keep one span per call)
TARGETS: list[tuple[str, str, Classifier, bool]] = [
    ("program", "parse_program", _fixed("program.parse"), True),
    ("program", "parse_spec", _fixed("program.parse"), True),
    ("program", "parse_goal", _fixed("program.parse"), True),
    ("rules", "parse_rules", _fixed("rules.io"), True),
    ("rules", "format_ruleset", _fixed("rules.io"), True),
    ("rules", "ruleset_to_json", _fixed("rules.io"), True),
    ("resolution", "evaluate", _evaluate_label, True),
    ("solver", "assert_many", _assert_many_label, False),
    ("solver", "simplify", _fixed("solver.simplify"), False),
    ("solver", "entails", _fixed("solver.entails"), False),
    ("solver", "store_from", _fixed("solver.store_from"), False),
    ("solver", "dnf_satisfiable", _fixed("solver.dnf_satisfiable"), False),
    ("terms", "canonical_key", _fixed("terms.canonical_key"), False),
    ("miner", "mine_primitive", _fixed("miner.primitive"), True),
    ("miner", "mine_splitting", _fixed("miner.splitting"), True),
    ("miner", "mine_general", _fixed("miner.general"), True),
    ("miner", "simplify_ruleset", _simplify_ruleset_label, True),
    ("miner", "_ordered_subsets", _fixed("miner.ordered_subsets"), True),
    ("transform", "to_simplification", _transform_label, True),
    ("emit", "emit", _emit_label, True),
    ("runtime", "run", _runtime_label, True),
    ("oracle", "success_set", _fixed("oracle.success_set"), True),
    ("oracle", "check_rule", _check_rule_label, True),
    ("cli", "cmd_generate", _fixed("cli.generate"), True),
    ("cli", "cmd_transform", _fixed("cli.transform"), True),
    ("cli", "cmd_emit", _fixed("cli.emit"), True),
    ("cli", "cmd_validate", _fixed("cli.validate"), True),
]

ENGINE_COUNTERS = (
    "evaluations",
    "depth_exceeded",
    "skipped_opt1",
    "skipped_opt2",
    "skipped_opt3",
    "skipped_redundant_splitting",
)


def _chrgen_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.startswith("chrgen") and m]


class Tracer:
    """Installs timing wrappers and turns the recorded calls into layer
    totals, one set of totals per pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.totals: dict[str, list] = {}  # label -> [calls, total ns, self ns]
        self.extra: dict[str, int] = defaultdict(int)
        self.engines: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, func_name, classify, keep in TARGETS:
            module = sys.modules[f"chrgen.{module_name}"]
            original = getattr(module, func_name)
            self._replace(original, self._wrap(original, classify, keep))
        miner = sys.modules["chrgen.miner"]
        self._replace(miner._Engine, self._engine_class(miner._Engine))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _replace(self, original, replacement) -> None:
        for module in _chrgen_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, replacement)

    def _engine_class(self, base):
        engines = self.engines

        class TracedEngine(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        TracedEngine.__name__ = base.__name__
        return TracedEngine

    def _wrap(self, fn, classify: Classifier, keep: bool):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0, 0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, clock(), classify(args, kwargs, None, exc, self.extra), keep)
                raise
            self._close(frame, clock(), classify(args, kwargs, result, None, self.extra), keep)
            return result

        return traced

    def _close(self, frame: list, end: int, label: str, keep: bool) -> None:
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        total = self.totals.get(label)
        if total is None:
            total = self.totals[label] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if keep:
            parent_id = parent[0] if parent is not None else None
            self.spans.append((span_id, label, start, end, parent_id, self.run_id))

    # -- per-pass totals -----------------------------------------------------

    def reset_totals(self) -> None:
        self.totals = {}
        self.extra = defaultdict(int)
        self.engines.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        totals = self.totals
        extra = self.extra

        def n(label):
            return totals.get(label, (0, 0, 0))[0]

        def s(label):
            return totals.get(label, (0, 0, 0))[1] / 1e9

        def self_s(prefix):
            return sum(v[2] for k, v in totals.items() if k.startswith(prefix)) / 1e9

        m: dict[str, float] = {}
        for kind in ("tabled", "classical"):
            for verdict in ("fails", "answers", "depth"):
                label = f"resolution.exists.{kind}.{verdict}"
                m[f"{label}.n"] = n(label)
                m[f"{label}.s"] = s(label)
        for verdict in ("fails", "answers", "depth"):
            label = f"resolution.all_answers.{verdict}"
            m[f"{label}.n"] = n(label)
            m[f"{label}.s"] = s(label)
        evaluate_s = sum(v[1] for k, v in totals.items() if k.startswith("resolution.")) / 1e9
        depth_s = sum(v[1] for k, v in totals.items()
                      if k.startswith("resolution.") and k.endswith(".depth")) / 1e9
        m["resolution.depth_time_share"] = depth_s / evaluate_s if evaluate_s else 0.0
        m["resolution.self_s"] = self_s("resolution.")
        for name in ("assert_many", "simplify", "entails", "store_from", "dnf_satisfiable"):
            m[f"solver.{name}.n"] = n(f"solver.{name}")
            m[f"solver.{name}.s"] = s(f"solver.{name}")
        calls = n("solver.assert_many")
        m["solver.assert_many.store_len_mean"] = (
            extra["solver.assert_many.store_len"] / calls if calls else 0.0
        )
        for name in ("primitive", "splitting", "general", "simplify_ruleset", "ordered_subsets"):
            m[f"miner.{name}.s"] = s(f"miner.{name}")
        m["miner.self_s"] = self_s("miner.")
        m["terms.canonical_key.n"] = n("terms.canonical_key")
        m["terms.canonical_key.s"] = s("terms.canonical_key")
        for counter in ENGINE_COUNTERS:
            m[f"miner.{counter}"] = sum(getattr(e.stats, counter) for e in self.engines)
        hits, evals = m["miner.skipped_opt3"], m["miner.evaluations"]
        m["miner.opt3_hit_ratio"] = hits / (hits + evals) if hits + evals else 0.0
        m["miner.rules_raw"] = extra["miner.rules_raw"]
        m["miner.rules_kept"] = extra["miner.rules_kept"]
        m["transform.s"] = s("transform")
        m["transform.self_s"] = self_s("transform")
        for key in ("transformed", "unchanged", "rejected"):
            m[f"transform.{key}"] = extra[f"transform.{key}"]
        m["runtime.run.n"] = n("runtime.run")
        m["runtime.run.s"] = s("runtime.run")
        m["runtime.step_limit.n"] = extra["runtime.step_limit.n"]
        m["runtime.leaves"] = extra["runtime.leaves"]
        m["oracle.success_set.s"] = s("oracle.success_set")
        m["oracle.check_rule.n"] = n("oracle.check_rule")
        m["oracle.check_rule.s"] = s("oracle.check_rule")
        m["oracle.violations"] = extra["oracle.violations"]
        m["program.parse.n"] = n("program.parse")
        m["program.parse.s"] = s("program.parse")
        m["emit.s"] = s("emit")
        for key in ("rules_encoded", "rules_dropped", "bytes"):
            m[f"emit.{key}"] = extra[f"emit.{key}"]
        m["rules.io.s"] = s("rules.io")
        for cmd in ("generate", "transform", "emit", "validate"):
            m[f"cli.{cmd}.s"] = s(f"cli.{cmd}")
        return m

    def self_shares(self) -> dict[str, float]:
        """Share of all traced self time per layer (first name part)."""
        by_layer: dict[str, int] = {}
        for label, (_, _, own) in self.totals.items():
            layer = label.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0) + own
        whole = sum(by_layer.values()) or 1
        return {k: v / whole for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}

    def write_spans(self, path: Path) -> None:
        with path.open("w") as out:
            for span_id, name, start, end, parent, run_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": run_id,
                }) + "\n")
