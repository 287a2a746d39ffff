"""Command-line front end: counting, board statistics, coefficient
tables, RSK traces, truncated expansions, and the verification suites.

Exit codes: 0 on success (and on passing suites), 1 on a failing suite,
2 on usage errors, 141 (as for SIGPIPE) when the reader closes stdout
early (`qyt ... | head`).  All results go to stdout; diagnostics to stderr.
Every subcommand takes --format {text,json,csv}; output is deterministic
for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from itertools import chain, islice
from typing import Callable, Iterator

#: Largest board size n that `board --hits` and `board --q-hits` accept
#: unless --limit raises it.  The library itself takes any size.
BOARD_SIZE_CAP = 9


# Every command is a fresh process, so this module imports only the
# standard library: each command imports the qyt modules it uses, and json
# and csv are imported only where a JSON, CSV or counterexample line is
# written.
def _json_text(blob) -> str:
    import json

    return json.dumps(blob, sort_keys=True)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(args, payload: Callable[[], object], text: Callable[[], str],
          header: list[str], rows: Callable[[], list[list]]) -> None:
    """Print the output in args.format.  payload, text and rows are
    zero-argument callables, so only the requested form is built."""
    if args.format == "json":
        print(_json_text(payload()))
    elif args.format == "csv":
        print(_csv_text(header, rows()))
    else:
        print(text())


#: Items per write in `_write_joined`.
_CHUNK = 4096


def _write_joined(head: str, items: Iterator[str], sep: str, foot: str) -> None:
    """Write head + sep.join(items) + foot to stdout, `_CHUNK` items per
    write.  The output is never held as one string, nor written an item
    at a time: with stdout unbuffered, each write is a system call."""
    write = sys.stdout.write
    write(head + sep.join(islice(items, _CHUNK)))
    while chunk := list(islice(items, _CHUNK)):
        write(sep + sep.join(chunk))
    write(foot)


def _shape(text: str):
    from .partition import Partition

    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cmd_count(args) -> int:
    from .tableau import qyt_count_exact, qyt_counts

    shape = args.shape
    if args.exact_entry is not None:
        mode, arg = "exact-entry", args.exact_entry
        value = qyt_count_exact(shape, args.exact_entry)
    elif args.max_entry is not None:
        mode, arg = "max-entry", args.max_entry
        value = sum(c for m, c in enumerate(qyt_counts(shape)) if m <= args.max_entry)
    elif args.ssyt is not None:
        mode, arg = "ssyt", args.ssyt
        value = shape.hook_content_count(args.ssyt)
    else:
        mode, arg = "syt", None
        value = shape.hook_length_count()
    _emit(args,
          lambda: {"shape": str(shape), "mode": mode, "arg": arg, "count": value},
          lambda: str(value),
          ["shape", "mode", "arg", "count"],
          lambda: [[str(shape), mode, "" if arg is None else arg, value]])
    return 0


def _cmd_board(args) -> int:
    from .board import FerrersBoard

    if args.limit is not None and not (args.hits or args.q_hits):
        raise ValueError("--limit applies only with --hits or --q-hits")
    board = FerrersBoard.from_partition(args.shape)
    if args.plus_one:
        board = board.plus_one()
    cap = BOARD_SIZE_CAP if args.limit is None else args.limit
    if (args.hits or args.q_hits) and board.n > cap:
        raise ValueError(f"board size {board.n} exceeds the cap {cap}; "
                         "pass a larger limit explicitly to override")
    payload = board.to_json()
    payload["shape"] = str(args.shape)
    if args.hits:
        numbers = board.hit_numbers()
        _emit(args, lambda: {**payload, "hit_numbers": numbers},
              lambda: ",".join(str(v) for v in numbers),
              ["k", "count"],
              lambda: [[k, v] for k, v in enumerate(numbers)])
    elif args.q_hits:
        from .qpoly import Packed

        width, values = board.q_hit_numbers()
        polys = [Packed(v, width) for v in values]
        _emit(args, lambda: {**payload, "q_hit_numbers": [p.pairs() for p in polys]},
              lambda: "\n".join(f"T_{k} = {p}" for k, p in enumerate(polys)),
              ["k", "q_degree", "coeff"],
              lambda: [[k, d, c] for k, p in enumerate(polys) for d, c in p.pairs()])
    else:
        _emit(args, lambda: payload,
              lambda: ",".join(str(h) for h in board.heights),
              ["column", "height"],
              lambda: [[i, h] for i, h in enumerate(board.heights, 1)])
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES

    if args.seed is not None and args.suite not in ("lattice", "all"):
        raise ValueError("--seed applies only to the lattice suite")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bounds = {} if args.max_n is None else {"max_n": args.max_n}
    seed = {} if args.seed is None else {"seed": args.seed}
    reports = [SUITES[name](**bounds, **(seed if name == "lattice" else {}))
               for name in names]

    def text() -> str:
        lines = []
        for r in reports:
            bounds = ", ".join(f"{k}={v}" for k, v in r.bounds.items())
            lines.append(f"{r.suite}: {r.status} ({bounds}; {r.ms} ms)")
            if r.counterexample is not None:
                lines.append(_json_text(r.counterexample))
        return "\n".join(lines)

    def payload():
        blobs = [r.to_json() for r in reports]
        return blobs if len(blobs) > 1 else blobs[0]

    def rows() -> list[list]:
        return [
            [r.suite, r.status, r.ms,
             "" if r.counterexample is None else _json_text(r.counterexample)]
            for r in reports
        ]

    _emit(args, payload, text, ["suite", "status", "ms", "counterexample"], rows)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_table(args) -> int:
    from .pnk import a_table

    table = a_table(args.n)

    def text() -> str:
        lines = ["k\\m " + " ".join(f"{m:>6}" for m in range(args.n + 1))]
        for k, row in enumerate(table):
            lines.append(f"{k:>3} " + " ".join(f"{c:>6}" for c in row))
        return "\n".join(lines)

    _emit(args, lambda: {"n": args.n, "a": table}, text,
          ["k"] + [f"m{m}" for m in range(args.n + 1)],
          lambda: [[k] + row for k, row in enumerate(table)])
    return 0


def _cmd_rsk(args) -> int:
    from .perm import format_word, parse_word
    from .symfun import rsk

    word = parse_word(args.word)
    if not word or min(word) < 1:
        raise ValueError(f"not a word over positive integers: {args.word!r}")
    P, Q = rsk(word)
    shape = P.shape
    des_q = sorted(Q.descent_set())
    des_p = sorted(P.descent_set())
    _emit(args,
          lambda: {
              "word": format_word(word),
              "shape": str(shape),
              "P": str(P),
              "Q": str(Q),
              "des_P": des_p,
              "des_Q": des_q,
          },
          lambda: "\n".join([
              f"shape: {shape}",
              f"P: {P}",
              f"Q: {Q}",
              f"Des(P): {{{','.join(str(d) for d in des_p)}}}",
              f"Des(Q): {{{','.join(str(d) for d in des_q)}}}",
          ]),
          ["word", "shape", "P", "Q", "des_P", "des_Q"],
          lambda: [[format_word(word), str(shape), str(P), str(Q),
                    " ".join(str(d) for d in des_p), " ".join(str(d) for d in des_q)]])
    return 0


def _cmd_expand(args) -> int:
    # the options that only the other expansion reads
    if args.what == "schur":
        other, foreign = "genfun", {"--n": args.n is not None, "--no-q": args.no_q}
    else:
        other, foreign = "schur", {"--shape": args.shape is not None,
                                   "--vars": args.vars is not None}
    for option, given in foreign.items():
        if given:
            raise ValueError(f"{option} applies only to expand {other}")
    if args.what == "schur":
        from .symfun import expand_monomials, schur_truncated

        if args.shape is None:
            raise ValueError("expand schur requires --shape")
        n_vars = args.vars if args.vars is not None else args.shape.size
        coeffs = schur_truncated(args.shape, n_vars)
        # the shape is digits and commas and every value an int, so the
        # JSON is written as text with nothing to escape
        if args.format == "json":
            terms = (f'{{"coeff": {c}, "exponents": [{exps}]}}'
                     for exps, c in expand_monomials(coeffs, n_vars, ", "))
            _write_joined(f'{{"shape": "{args.shape}", "terms": [', terms, ", ",
                          f'], "vars": {n_vars}}}\n')
        elif args.format == "csv":
            rows = (f"{exps},{c}" for exps, c in expand_monomials(coeffs, n_vars, " "))
            _write_joined("", chain(["exponents,coeff"], rows), "\n", "\n")
        else:
            lines = (f"{exps}: {c}" for exps, c in expand_monomials(coeffs, n_vars))
            _write_joined("", lines, "\n", "\n")
        return 0
    from .symfun import gen_fn

    if args.n is None:
        raise ValueError("expand genfun requires --n")
    expansion = gen_fn(args.n, with_q=not args.no_q)
    if args.format == "json":
        # partitions are digits and commas and every value an int or a
        # bool, so the JSON is written as text with nothing to escape; a
        # list of ints prints as its JSON
        terms = (f'{{"coeff": {coeff.triples()}, "partition": "{shape}"}}'
                 for shape, coeff in expansion.items())
        _write_joined(f'{{"n": {args.n}, "q": {"false" if args.no_q else "true"}, "schur": [',
                      terms, ", ", "]}\n")
    elif args.format == "csv":
        print(_csv_text(["partition", "q_degree", "t_degree", "coeff"],
                        [[str(shape), q, t, c] for shape, coeff in expansion.items()
                         for q, t, c in coeff.triples()]))
    else:
        print("\n".join(f"{shape}: {coeff}" for shape, coeff in expansion.items()))
    return 0


def _configure_count(p) -> None:
    p.add_argument("--shape", type=_shape, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact-entry", type=int, metavar="K",
                       help="quasi-Yamanouchi fillings with largest entry exactly K")
    group.add_argument("--max-entry", type=int, metavar="K",
                       help="quasi-Yamanouchi fillings with largest entry at most K")
    group.add_argument("--ssyt", type=int, metavar="M",
                       help="semistandard fillings with entries at most M")
    group.add_argument("--syt", action="store_true", help="standard fillings")


def _configure_board(p) -> None:
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--plus-one", action="store_true",
                   help="raise every column by one")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--hits", action="store_true", help="hit numbers h_0..h_n")
    group.add_argument("--q-hits", action="store_true", help="q-hit numbers T_0..T_n")
    p.add_argument("--limit", type=int, default=None,
                   help=f"raise the cap on the board size n (default {BOARD_SIZE_CAP})")


def _configure_verify(p) -> None:
    from .pnk import DEFAULT_SEED
    from .verify import SUITES

    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-n", type=int, default=None,
                   help="override the suite bound")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed for sampled evaluation points (default {DEFAULT_SEED})")


def _configure_table(p) -> None:
    p.add_argument("what", choices=("a-coeffs",))
    p.add_argument("--n", type=int, required=True)


def _configure_rsk(p) -> None:
    p.add_argument("word", help='permutation or multiset word, e.g. "45312" or "1,1,2"')


def _configure_expand(p) -> None:
    p.add_argument("what", choices=("schur", "genfun"))
    p.add_argument("--shape", type=_shape, default=None, help="shape for schur")
    p.add_argument("--vars", type=int, default=None, help="number of variables")
    p.add_argument("--n", type=int, default=None, help="degree for genfun")
    p.add_argument("--no-q", action="store_true", help="drop the q-grading")


#: (name, help, configure, run) for each command, in `qyt --help` order.
_COMMANDS = (
    ("count", "count tableaux of a shape", _configure_count, _cmd_count),
    ("board", "board heights and hit statistics", _configure_board, _cmd_board),
    ("verify", "run a verification suite", _configure_verify, _cmd_verify),
    ("table", "coefficient tables", _configure_table, _cmd_table),
    ("rsk", "row-insert a word", _configure_rsk, _cmd_rsk),
    ("expand", "truncated expansions", _configure_expand, _cmd_expand),
)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every command is listed, with its help, but
    only the invoked one gets its arguments: the first token that does
    not start with "-", since the top-level parser has no option that
    takes a value."""
    parser = argparse.ArgumentParser(
        prog="qyt",
        description="Exact counting and verification for quasi-Yamanouchi tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, help_text, configure, run in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == invoked:
            configure(p)
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")
            p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python's recipe for a closed pipe: stdout goes to devnull, so
        # that the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def run() -> None:
    """The process entry point.  On every way out of main, argparse's
    SystemExit included, the heap is frozen, so that the shutdown
    collections skip it: its memory goes back to the system with the
    process, and qyt has no __del__ for a collection to run.  atexit
    handlers and the flush of stdout and stderr still run."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
