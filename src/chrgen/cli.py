"""Command-line driver: generate rules, transform them, emit CHR source,
validate rule sets, and dump ground success sets."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import emit as emit_mod
from . import miner, oracle, runtime, transform
from .program import ParseError, format_constraint, parse_goal, parse_program, parse_spec
from .resolution import ANSWER_CAP
from .rules import RuleSet, format_ruleset, parse_rules, ruleset_to_json


def _miner_options(args, **optimizations) -> miner.MinerOptions:
    return miner.MinerOptions(
        depth=args.depth,
        tabling=not args.no_tabling,
        dnf_cap=args.dnf_cap,
        answer_cap=args.answers_cap,
        **optimizations,
    )


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    program = parse_program(Path(args.program).read_text())
    spec = parse_spec(
        Path(args.spec).read_text(),
        mode="primitive" if args.mode == "primitive" else "general",
    )
    opts = _miner_options(args, opt1=args.opt1, opt2=args.opt2, opt3=args.opt3)
    engine = miner._Engine(program, opts)
    rs = RuleSet()
    if args.mode in ("primitive", "all"):
        part = miner.mine_primitive(program, spec, engine=engine)
        for r in part:
            rs.add(r)
    if args.mode in ("splitting", "all"):
        part = miner.mine_splitting(program, spec, prior=rs, engine=engine)
        for r in part:
            rs.add(r)
    if args.mode in ("general", "all"):
        part = miner.mine_general(program, spec, engine=engine)
        for r in part:
            rs.add(r)
    rs.stats = engine.stats.as_dict()
    if not args.no_simplify:
        rs = miner.simplify_ruleset(rs)
    if rs.stats.get("depth_exceeded"):
        print(
            f"depth_exceeded verdicts: {rs.stats['depth_exceeded']}",
            file=sys.stderr,
        )
    text = ruleset_to_json(rs) if args.format == "machine" else format_ruleset(rs)
    _write_output(text, args.out)
    return 0


def cmd_transform(args) -> int:
    program = parse_program(Path(args.program).read_text())
    rs = parse_rules(Path(args.rules).read_text())
    base = parse_goal(args.base) if args.base else None
    opts = _miner_options(args)
    report = transform.TransformReport()
    out = transform.to_simplification(rs, base, program, opts, report)
    for note in report.rejected:
        print(f"rejected: {note}", file=sys.stderr)
    text = ruleset_to_json(out) if args.format == "machine" else format_ruleset(out)
    _write_output(text, args.out)
    return 0


def cmd_emit(args) -> int:
    rs = parse_rules(Path(args.rules).read_text())
    builtins = _builtin_names(args.builtins)
    result = emit_mod.emit(rs, builtins=builtins, header=not args.no_header)
    for note in result.dropped:
        print(note, file=sys.stderr)
    _write_output(result.text, args.out)
    return 0


_BUILTIN_ALIASES = {
    "eq": "eq", "=": "eq", "neq": "neq", "\\=": "neq",
    "le": "le", "=<": "le", "lt": "lt", "<": "lt",
    "ge": "ge", ">=": "ge", "gt": "gt", ">": "gt",
}


def _builtin_names(spec: str) -> frozenset[str]:
    names = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in _BUILTIN_ALIASES:
            raise ValueError(f"unknown builtin relation {part!r}")
        names.append(_BUILTIN_ALIASES[part])
    return frozenset(names)


def cmd_validate(args) -> int:
    program = parse_program(Path(args.program).read_text())
    rs = parse_rules(Path(args.rules).read_text())
    terms = oracle.universe(args.constants.split(","), args.list_depth)
    facts = oracle.success_set(program, terms)
    violations = 0
    for rule in rs.rules:
        cex = oracle.check_rule(rule, facts, terms)
        if cex is None:
            print(f"ok: {format_ruleset(RuleSet([rule])).strip()}")
        else:
            violations += 1
            print(f"VIOLATION: {cex}")
    if args.goals:
        encoded = emit_mod.emit(rs)
        for note in encoded.dropped:
            print(note, file=sys.stderr)
        for raw in Path(args.goals).read_text().splitlines():
            line = raw.split("%", 1)[0].strip()
            if not line:
                continue
            goal = parse_goal(line)
            leaves = runtime.run(encoded.chr_rules, goal, step_limit=args.step_limit)
            print(f"goal {line!r}: {len(leaves)} consistent final store(s)")
            for leaf in leaves:
                parts = sorted(
                    [format_constraint(c) for c in leaf.user_constraints]
                    + [format_constraint(c) for c in leaf.primitive_constraints]
                )
                print("  " + ", ".join(parts))
    print(f"violations: {violations}")
    return 0 if violations == 0 else 1


def cmd_oracle(args) -> int:
    program = parse_program(Path(args.program).read_text())
    terms = oracle.universe(args.constants.split(","), args.list_depth)
    facts = oracle.success_set(program, terms)
    for fact in sorted(facts, key=format_constraint):
        print(format_constraint(fact))
    return 0


def _add_engine_flags(p: argparse.ArgumentParser):
    p.add_argument("--depth", type=int, default=200, help="resolution depth bound")
    p.add_argument("--no-tabling", action="store_true", help="disable call tabling")
    p.add_argument("--dnf-cap", type=int, default=10_000)
    p.add_argument("--answers-cap", type=int, default=ANSWER_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chrgen")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="mine rules from a program and a spec")
    g.add_argument("program")
    g.add_argument("spec")
    g.add_argument("--mode", choices=("primitive", "splitting", "general", "all"),
                   default="all")
    g.add_argument("--no-simplify", action="store_true",
                   help="skip redundancy simplification of the rule set")
    g.add_argument("--out")
    g.add_argument("--format", choices=("text", "machine"), default="text")
    g.add_argument("--opt1", action=argparse.BooleanOptionalAction, default=True,
                   help="skip trivially redundant failure rules")
    g.add_argument("--opt2", action=argparse.BooleanOptionalAction, default=True,
                   help="skip lhs supersets once a covering rule exists")
    g.add_argument("--opt3", action=argparse.BooleanOptionalAction, default=True,
                   help="reuse failed goal evaluations")
    _add_engine_flags(g)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("transform", help="turn propagation rules into simplification rules")
    t.add_argument("rules")
    t.add_argument("program")
    t.add_argument("--base", default="",
                   help="mandatory lhs core, e.g. 'append(X,Y,Z)'")
    t.add_argument("--out")
    t.add_argument("--format", choices=("text", "machine"), default="text")
    _add_engine_flags(t)
    t.set_defaults(func=cmd_transform)

    e = sub.add_parser("emit", help="encode a rule file as CHR source")
    e.add_argument("rules")
    e.add_argument("--builtins", default="eq,neq,le,lt,ge,gt")
    e.add_argument("--no-header", action="store_true")
    e.add_argument("--out")
    e.set_defaults(func=cmd_emit)

    v = sub.add_parser("validate", help="check rules against the ground oracle")
    v.add_argument("rules")
    v.add_argument("--program", required=True)
    v.add_argument("--goals")
    v.add_argument("--constants", default="0,1")
    v.add_argument("--list-depth", type=int, default=0)
    v.add_argument("--step-limit", type=int, default=10_000)
    v.set_defaults(func=cmd_validate)

    o = sub.add_parser("oracle", help="dump the ground success set of a program")
    o.add_argument("program")
    o.add_argument("--constants", default="0,1")
    o.add_argument("--list-depth", type=int, default=0)
    o.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (runtime.StepLimitExceeded, RecursionError) as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
