"""Command line front end.

Subcommands: ``run`` (the basis pipeline), ``dualize`` (raw hypergraph
dualization), ``arrows`` (render the arrow table of the reduced
context), and ``concepts`` (enumerate closed sets; small tables only).

Rules go to stdout, the run summary and timing to stderr, so piping
the rules somewhere keeps them clean.  Exit codes: 0 success, 2 bad
input or bad option values, 3 unknown target attribute, 4 input too
large for an exact enumeration subcommand.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import closing
from pathlib import Path

from .basis import (BASIS_KINDS, RENDER_SLICE, BasisStream, RuleQuery,
                    leave_k_out_count, leave_k_out_groups, line_renderer)
from .context import OracleSizeError, ParseError, _reduce, parse_context
from .dualization import dualize, format_edge_list, parse_edge_list
from .lattice import render_arrow_table


def _read(path: str) -> bytes:
    """The file or stdin (``-``) as bytes, whatever the locale says."""
    return sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """The ``run`` subcommand on parsed arguments.

    Both modes print each conclusion's rules as their generator yields
    them; the summary follows on stderr, its cover counts read from the
    stream.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    k = args.leave_out
    if k and (args.workers != 1 or args.full_binary):
        raise ValueError("--workers and --full-binary do not apply to "
                         "leave-K-out (--leave-out)")
    started = time.perf_counter()
    ctx = parse_context(_read(args.table), args.format)
    query = RuleQuery(target=args.target, min_support=args.min_support,
                      basis_kind=args.basis)
    jsonl = args.output == "jsonl"
    summary = [f"table: {len(ctx.objects)} objects x "
               f"{len(ctx.attributes)} attributes"]
    if k:
        print(f"leave-{k}-out: {leave_k_out_count(ctx, k, query)} sub-tables",
              file=err)
        groups = leave_k_out_groups(ctx, k, query)
    else:
        stream = BasisStream(ctx, query, worker_count=args.workers,
                             full_binary=args.full_binary)
        groups = iter(stream)
    render = line_renderer(ctx.attributes, ctx.column_masks, jsonl)
    emitted = 0
    with closing(groups):
        for group in groups:
            # one write per slice of lines; an empty group writes nothing
            for i in range(0, len(group), RENDER_SLICE):
                out.write("\n".join(render(group[i:i + RENDER_SLICE])) + "\n")
            emitted += len(group)
    if k:
        summary.append(f"rules emitted: {emitted} (leave-{k}-out)")
    else:
        summary.append(f"reduced: {len(stream.reduced.objects)} objects x "
                       f"{len(stream.reduced.attributes)} attributes")
        summary += [f"sector {b}: {n} covers"
                    for b, n in stream.sector_counts.items()]
        covers, refined = stream.candidate_count, stream.refined_count
        summary.append(f"minimal covers: {covers} (d-basis {covers - refined},"
                       f" refined away {refined})")
        summary.append(f"rules emitted: {emitted}")
    for line in summary:
        print(line, file=err)
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=err)
    return 0


def _cmd_dualize(args: argparse.Namespace) -> int:
    # a table's bytes go to parse_context, which decodes them; an edge
    # list is decoded here, its byte-order mark dropped
    h = parse_edge_list(_read(args.edges).decode("utf-8").removeprefix("\ufeff"))
    sys.stdout.write(format_edge_list(dualize(h)))
    return 0


def _cmd_arrows(args: argparse.Namespace) -> int:
    ctx = parse_context(_read(args.table), args.format)
    reduced, arrows = _reduce(ctx)[:2]
    print(render_arrow_table(reduced, arrows))
    return 0


def _cmd_concepts(args: argparse.Namespace) -> int:
    # the brute-force oracle, imported here so no other subcommand loads it
    from .oracle import enumerate_concepts
    ctx = parse_context(_read(args.table), args.format)
    for concept in enumerate_concepts(ctx):
        extent = " ".join(sorted(concept.extent, key=ctx.object_index.__getitem__))
        intent = " ".join(sorted(concept.intent, key=ctx.attribute_index.__getitem__))
        print(f"{{{extent}}}\t{{{intent}}}")
    return 0


def _add_table_args(p: argparse.ArgumentParser):
    p.add_argument("table", help="input table path, or - for stdin")
    p.add_argument("--format", choices=("dense-csv", "fimi-transactions", "fimi"),
                   default="dense-csv", help="input format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbasis",
        description="implication bases of a binary table via dualization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="extract a rule basis from a table")
    _add_table_args(p)
    p.add_argument("--target", default=None,
                   help="only rules concluding this attribute")
    p.add_argument("--basis", choices=BASIS_KINDS, default="d-basis",
                   help="which rule set to emit")
    p.add_argument("--min-support", type=int, default=0,
                   help="drop rules below this support (also prunes the search)")
    p.add_argument("--leave-out", type=int, default=0, metavar="K",
                   help="leave-K-out high-confidence mode (K <= 3)")
    p.add_argument("--output", choices=("text", "jsonl"), default="text",
                   help="rule output format")
    p.add_argument("--workers", type=int, default=1,
                   help="sector dualization processes (0 = cpu count)")
    p.add_argument("--full-binary", action="store_true",
                   help="emit all binary order pairs, not just covers")
    p.set_defaults(func=run)

    p = sub.add_parser("dualize", help="minimal transversals of an edge list")
    p.add_argument("edges", help="edge list path, or - for stdin")
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("arrows", help="arrow table of the reduced context")
    _add_table_args(p)
    p.set_defaults(func=_cmd_arrows)

    p = sub.add_parser("concepts", help="closed sets of a small table")
    _add_table_args(p)
    p.set_defaults(func=_cmd_concepts)

    return parser


def main(argv: list[str] | None = None) -> int:
    # rules, tables and transversals go out as UTF-8 whatever the locale
    # says, as they are read in
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away (``dbasis run ... | head``), which is not an
        # error; stdout goes to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"dbasis: {exc}", file=sys.stderr)
        return 2
    except OracleSizeError as exc:
        print(f"dbasis: {exc}", file=sys.stderr)
        return 4
    except KeyError as exc:
        print(f"dbasis: {exc.args[0]}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"dbasis: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
