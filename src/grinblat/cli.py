"""Command-line surface.

Subcommands: solve, exact, verify, gen, search, experiment.  Instances
travel over stdin/stdout in the text format of the formats module.
Exit codes: 0 success/matched, 1 proven-none/none-found, 2 error
(including any unexpected internal exception), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .construct import Telemetry, solve
from .core import verify_matching
from .errors import GrinblatError, ParseError
from .experiment import ExperimentConfig, run_experiment
from .formats import parse_instance, parse_matching, write_instance, write_matching
from .gen import gen_lower_bound_family, gen_planted_concentrated, gen_random_hypothesis
from .oracle import exact_solve, search_unmatchable

EXIT_OK = 0
EXIT_NONE = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _budget(text: str) -> int:
    """A --budget value: a count of nodes, so never negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative budget {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="grinblat", description="Rainbow matching solver suite")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="constructive solver")
    sp.add_argument("instance", nargs="?", help="instance file (default: stdin)")
    sp.add_argument("--c", type=int, default=5000)
    sp.add_argument("--nmin", type=int, default=30)
    sp.add_argument("--telemetry", action="store_true", help="phase log to stderr")

    sp = sub.add_parser("exact", help="exact backtracking solver")
    sp.add_argument("instance", nargs="?")
    sp.add_argument("--budget", type=_budget, default=None)

    sp = sub.add_parser("verify", help="check a matching file against an instance")
    sp.add_argument("instance")
    sp.add_argument("matching")

    sp = sub.add_parser("gen", help="instance generators")
    sp.add_argument("family", choices=["lower-bound", "random", "planted"])
    sp.add_argument("n", type=int)
    sp.add_argument("--c", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--slack", type=int, default=0)
    sp.add_argument("--sub", help="write the planted sub-matching to this file")

    sp = sub.add_parser("search", help="search for unmatchable witnesses")
    sp.add_argument("n", type=int)
    sp.add_argument("kernel_target", type=int)
    sp.add_argument("max_ground", type=int)
    sp.add_argument("--budget", type=_budget, default=10**8)

    sp = sub.add_parser("experiment", help="run a sweep from a JSON config")
    sp.add_argument("config")
    return p


def _read(path: Optional[str]) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    inst.validate()
    tel = Telemetry() if args.telemetry else None
    res = solve(inst, c=args.c, n_min=args.nmin, telemetry=tel)
    if tel is not None:
        for event in tel.events:
            print(json.dumps(event), file=sys.stderr)
    if res.outcome == "matched":
        sys.stdout.buffer.write(write_matching(res.matching))
        return EXIT_OK
    if res.outcome == "proven-none":
        print("proven-none", file=sys.stderr)
        return EXIT_NONE
    print(f"search gave up: {res.outcome}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_exact(args) -> int:
    inst = parse_instance(_read(args.instance))
    inst.validate()
    res = exact_solve(inst, budget=args.budget)
    if res.outcome == "matched":
        sys.stdout.buffer.write(write_matching(res.matching))
        return EXIT_OK
    if res.outcome == "proven-none":
        print(f"proven-none nodes={res.nodes}", file=sys.stderr)
        return EXIT_NONE
    print(f"budget exhausted nodes={res.nodes}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    inst.validate()
    m = parse_matching(_read(args.matching))
    report = verify_matching(inst, m)
    if report.valid:
        print("valid")
        return EXIT_OK
    where = "" if report.index is None else f" at relation {report.index}"
    print(f"invalid{where}: {report.violation}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_gen(args) -> int:
    if args.family == "lower-bound":
        inst = gen_lower_bound_family(args.n)
    elif args.family == "random":
        inst = gen_random_hypothesis(args.n, args.c, args.seed, args.slack)
    else:
        inst, sub = gen_planted_concentrated(args.n, args.c, args.seed)
        if args.sub:
            with open(args.sub, "w", encoding="utf-8") as fh:
                for i in sorted(sub):
                    a, b = sub[i]
                    fh.write(f"{i} {a} {b}\n")
    sys.stdout.buffer.write(write_instance(inst))
    return EXIT_OK


def _cmd_search(args) -> int:
    res = search_unmatchable(args.n, args.kernel_target, args.max_ground, budget=args.budget)
    if res.witness is not None:
        sys.stdout.buffer.write(write_instance(res.witness))
        print(f"witness ground={res.ground_size} nodes={res.nodes}", file=sys.stderr)
        return EXIT_OK
    print(
        f"none-found nodes={res.nodes} exhausted={res.exhausted}", file=sys.stderr
    )
    return EXIT_NONE


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(_read(args.config))
    sys.stdout.write(run_experiment(cfg))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "search": _cmd_search,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, GrinblatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an uncaught exception would exit 1, which means proven-none
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
