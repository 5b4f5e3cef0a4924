"""Command-line front end: one verb per library module.

Exit codes are a stable contract: 0 success, 1 verification or
operation failure, 2 usage error, 3 checkpoint error.  The verbs only
raise; ``main`` alone maps their errors to exit codes.  InvariantError and
FamilyError are bugs, not usage errors: they propagate as a traceback
(Python's exit 1).
"""

from __future__ import annotations

import argparse
import sys

from .corpus import (
    builtin_corpora,
    format_report,
    load_corpus,
    verify_corpus,
    write_records,
    write_rows,
)
from .factoring import FactorBudgetError, factor_quotient
from .families import FamilyError, family, gen_bijective_square, gen_fibonacci_family, is_admissible
from .search import CheckpointError, search_range
from .triples import F_value, Triple
from .words import System, render_word, to_bijective, to_canonical, to_zeckendorf


def _parse_triple(text: str) -> Triple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected Q,N,L")
    try:
        return Triple(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cmd_search(args) -> int:
    cp = search_range(
        Triple(args.q, args.n, args.l),
        args.b_lo,
        args.b_hi,
        args.checkpoint,
        workers=args.workers,
        factor_budget_ms=args.factor_budget,
    )
    write_records(cp.solutions, args.format)
    for b in cp.unresolved:
        print(f"warning: base {b} unresolved (factoring budget exhausted)", file=sys.stderr)
    return 0


def _cmd_generate(args) -> int:
    t: Triple = args.triple
    count = args.count
    if count < 1:
        raise ValueError("--count must be >= 1")

    if args.system == "bijective":
        # one square family member per base, at the requested word length
        if (t.q, t.n) != (2, 2) or t.l < 2:
            raise ValueError("bijective generation needs --triple 2,2,L with L >= 2")
        rows = [(b, t.l, *gen_bijective_square(b, t.l)) for b in range(2, count + 2)]
        write_rows(("b", "l", "y", "w"), rows, args.format)
        return 0

    if args.system == "fibonacci":
        if (t.q, t.n) != (2, 2):
            raise ValueError("fibonacci generation needs --triple 2,2,L")
        rows = [(k, *gen_fibonacci_family(k)) for k in range(1, count + 1)]
        write_rows(("param", "y", "w"), rows, args.format)
        return 0

    generate = family(t)
    if generate is None:
        raise ValueError(f"no infinite family exists for triple {t.q},{t.n},{t.l}")
    write_records(generate(count), args.format)
    return 0


def _cmd_classify(args) -> int:
    t = Triple(args.q, args.n, args.l)
    verdict = "admissible" if is_admissible(t) else "inadmissible"
    print(f"{verdict} F={F_value(t)}")
    return 0


def _cmd_verify(args) -> int:
    names = [args.corpus] if args.corpus else list(builtin_corpora())
    failed = False
    for name in names:
        corpus = load_corpus(name)
        report = verify_corpus(corpus, pattern_n_max=args.pattern_n_max)
        print(format_report(report))
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_factor(args) -> int:
    f = factor_quotient(args.b, args.n, args.l, budget_ms=args.budget)
    print(" * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors))
    return 0


def _cmd_repr(args) -> int:
    system = System.ZECKENDORF if args.system == "fibonacci" else System(args.system)
    if args.x < 0:
        raise ValueError("--x must be >= 0")
    if system is System.ZECKENDORF:
        if args.base not in (None, 2):
            raise ValueError("the Fibonacci system has no base parameter")
        word = to_zeckendorf(args.x)
    else:
        if args.base is None or args.base < 2:
            raise ValueError("--base must be >= 2")
        if system is System.CANONICAL:
            word = to_canonical(args.x, args.base)
        else:
            word = to_bijective(args.x, args.base)
    print(render_word(word))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repwords",
        description="find, generate, and verify powers whose digits repeat a word",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="scan a base range for solutions of one triple")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--b-lo", type=int, required=True)
    p.add_argument("--b-hi", type=int, required=True)
    p.add_argument(
        "--workers", type=int, default=1,
        help="number of processes that scan, counting this one (default 1); "
        "the others start only once this one's pace projects more scanning "
        "left than starting them costs",
    )
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--factor-budget", type=int, default=None, metavar="MS")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("generate", help="emit members of an infinite solution family")
    p.add_argument("--triple", type=_parse_triple, required=True, metavar="Q,N,L")
    p.add_argument("--count", type=int, required=True, metavar="K")
    p.add_argument(
        "--system",
        choices=["canonical", "bijective", "fibonacci"],
        default="canonical",
    )
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("classify", help="admissibility and the sign witness F")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="recheck a solution table row by row")
    p.add_argument("--corpus", default=None, help="bundled name or CSV path")
    p.add_argument("--pattern-n-max", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("factor", help="factor (b^(n*l)-1)/(b^l-1)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, metavar="MS")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("repr", help="digit word of an integer in one system")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--base", type=int, default=None)
    p.add_argument(
        "--system",
        choices=["canonical", "bijective", "zeckendorf", "fibonacci"],
        default="canonical",
    )
    p.set_defaults(func=_cmd_repr)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except FactorBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FamilyError:
        raise  # a ValueError, but a generator broke its own invariant: a bug
    except ValueError as exc:  # a bad argument, or a MalformedCorpusError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
