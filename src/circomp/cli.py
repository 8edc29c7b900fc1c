"""Command-line front end: counting, listing, converting, exporting, verifying.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
or parse errors and on results too large to build. All output is
deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from typing import Iterator, Sequence, TextIO

from .compositions import parse_composition
from .circulant import (
    CirculantDigraph,
    ConnectionSet,
    build_digraph,
    build_graph,
    parse_connection_set,
)
from .bijections import (
    gap_composition,
    prefix_sum_set,
    connected_set_of,
    aperiodic_palindrome_of,
)
from . import counting


def handle_count(args: argparse.Namespace) -> int:
    print(counting._printed_count(args.n, args.family.replace("-", "_")))
    return 0


def handle_list(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    json_rows = args.format == "json"
    blocks = _list_blocks(args.n, args.family.replace("-", "_"), json_rows)
    # Text is one line per member; JSON is the bytes of json.dumps(list),
    # whose "[" waits for the first block, so a failing order prints nothing.
    joiner = ", " if json_rows else ""
    lead, left, more = "[" if json_rows else "", args.limit, False
    for block in blocks:
        if left is not None:
            if len(block) >= left:
                more = not json_rows and (len(block) > left or any(blocks))
                block = block[:left]
            left -= len(block)
        if block:
            sys.stdout.write(lead + joiner.join(block))
            lead = joiner
        if left == 0:
            break
    if json_rows:
        print("[]" if lead == "[" else "]")
    elif more:
        print("…truncated")
    return 0


def _list_blocks(n: int, family: str, json_rows: bool) -> Iterator[list[str]]:
    """The family's members at order n as text lines or JSON rows, in blocks.

    Every family's blocks are spelled by the two closures below, low
    for the numbers ahead of the block kernel's boundary and rest for
    the others: the dense families one block per high half of the mask,
    the palindromic ones whole, 2^10 to a block. handle_list stops
    reading at --limit, so at most one block past the cut is built.
    """
    sets = family.endswith("connection_sets")
    head, sep, end = ("[", ", ", "]") if json_rows else (f"{n}: " if sets else "", ",", "\n")

    def low(nums: tuple[int, ...]) -> str:
        return head + "".join(f"{x}{sep}" for x in nums)

    def rest(nums: tuple[int, ...]) -> str:
        return sep.join(map(str, nums)) + end

    return counting._listed(n, family).blocks(n, family, (low, rest))


def handle_convert(args: argparse.Namespace) -> int:
    payload = " ".join(args.payload)
    if args.direction == "to-set":
        print(prefix_sum_set(parse_composition(payload)))
    elif args.direction == "to-composition":
        print(gap_composition(parse_connection_set(payload)))
    elif args.direction == "tau":
        print(connected_set_of(parse_composition(payload)))
    else:
        print(aperiodic_palindrome_of(parse_connection_set(payload)))
    return 0


def handle_graph(args: argparse.Namespace) -> int:
    try:
        members = [int(tok) for tok in args.members.split(",")]
    except ValueError:
        raise ValueError(f"bad member list: {args.members!r}") from None
    connection = ConnectionSet.from_members(args.n, members)
    graph = build_digraph(connection) if args.mode == "digraph" else build_graph(connection)
    render = render_dot if args.format == "dot" else render_edgelist
    render(graph, sys.stdout)
    return 0


def handle_table(args: argparse.Namespace) -> int:
    columns = ["n", *counting._COUNTED]
    rows = map(operator.attrgetter(*columns), counting._decimal_rows(args.max_n))
    if args.format == "json":
        import json

        # The bytes of json.dumps(list of row dicts), written row by row.
        row = "{{" + ", ".join(f"{json.dumps(col)}: {{}}" for col in columns) + "}}"
        lead = "["
        for values in rows:
            sys.stdout.write(lead + row.format(*map(str, values)))
            lead = ", "
        print("]")
        return 0
    # Held as numbers, spelled as printed: a Decimal keeps 19 digits in 8 bytes.
    rows = list(rows)
    header = [col.replace("_", "-") for col in columns]
    widths = [max(len(name), len(str(max(column)))) for name, column in zip(header, zip(*rows))]
    print("  ".join(map(str.rjust, header, widths)))
    for values in rows:
        print("  ".join(map(str.rjust, map(str, values), widths)))
    return 0


def handle_verify(args: argparse.Namespace) -> int:
    # Imported here, so that no other command loads the suites and the process pool.
    from .verify import run_suites

    results = run_suites(max_n=args.max_n, workers=args.workers)
    for r in results:
        if r.passed:
            line = f"PASS {r.name} ({r.checked} checks)"
        else:
            line = f"FAIL {r.name} ({r.checked} checks): first counterexample: {r.counterexample}"
        if r.detail:
            line += f": {r.detail}"
        print(line)
    return 0 if all(r.passed for r in results) else 1


def render_dot(graph: CirculantDigraph, out: TextIO) -> None:
    """Write Graphviz text: vertex lines first, then sorted arc or edge lines."""
    keyword, joiner = ("digraph", "->") if graph.directed else ("graph", "--")
    out.write(f"{keyword} {{\n")
    for lo in range(0, graph.order, _CHUNK):
        out.write("".join(map("  {};\n".format, range(lo, min(lo + _CHUNK, graph.order)))))
    _write_runs(graph, f"  {{0}} {joiner} {{1}};\n", out)
    out.write("}\n")


def render_edgelist(graph: CirculantDigraph, out: TextIO) -> None:
    """Write one "i j" line per arc (digraph) or per unordered edge (graph)."""
    _write_runs(graph, "{0} {1}\n", out)


_CHUNK = 1 << 14  # lines per write, unless one vertex has more
# Offsets above which a vertex's lines are joined, not spelled by a template.
# Measured in ns per arc, template/join, on runs of 64 and of 1 vertices: at
# 3 offsets 230/406 and 1352/1195; at 16, 182/209 and 540/334; from 32 on,
# within 15% of each other on runs of 16 or more, while the join is 1.4x-2.3x
# faster on runs of 4 or fewer (the complete digraph has runs of 1). Python
# 3.11, Xeon, 2 vCPUs.
_WIDE = 16


def _write_runs(graph: CirculantDigraph, pair: str, out: TextIO) -> None:
    """Write the arcs (digraph) or edges (graph), each spelled by `pair` from {0} and {1}.

    Every vertex of a run has the same ascending target offsets. With
    few offsets, one template with a field per offset spells all of a
    vertex's lines, mapped over ranges of sources and targets. With
    many, runs are short, a range per offset and run costs more than
    it saves, and each vertex joins the digits of its targets instead. No
    Python code runs per line, and a write holds whole vertices: at most
    _CHUNK lines, unless one vertex has more.
    """
    head, tail = pair.split("{1}")
    for vertices, offsets in graph._runs(pairs=not graph.directed):
        if not offsets:
            continue
        wide = len(offsets) > _WIDE
        if not wide:
            spell = "".join(pair.format("{0}", f"{{{k}}}") for k in range(1, len(offsets) + 1)).format
        step = max(1, _CHUNK // len(offsets))
        for lo in range(vertices.start, vertices.stop, step):
            hi = min(lo + step, vertices.stop)
            if wide:
                starts = map(head.format, range(lo, hi))
                lines = (s + (tail + s).join(map(str, map(i.__add__, offsets))) + tail
                         for i, s in zip(range(lo, hi), starts))
            else:
                targets = map(range, map(lo.__add__, offsets), map(hi.__add__, offsets))
                lines = map(spell, range(lo, hi), *targets)
            out.write("".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circomp",
        description=(
            "Compositions of n and circulant (di)graphs of order n: exact counts, "
            "streaming enumeration, conversions between the two representations, "
            "graph export, and exhaustive self-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print the exact size of a family at order n")
    p.add_argument("family", choices=sorted(name.replace("_", "-") for name in counting._COUNTED))
    p.add_argument("n", type=int)
    p.set_defaults(handler=handle_count)

    p = sub.add_parser("list", help="stream the members of a family at order n")
    p.add_argument("family", choices=sorted(name.replace("_", "-") for name in counting.FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=None, help="stop after this many members")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=handle_list)

    p = sub.add_parser(
        "convert",
        help="map between composition and connection-set representations",
        description=(
            "Directions: to-set (composition to its prefix-sum connection set), "
            "to-composition (connection set to its gap composition), tau "
            "(aperiodic palindrome to the connection set of a connected circulant "
            "graph), tau-inv (symmetric generating set back to its aperiodic "
            "palindrome). Compositions are written 2,1,2 and connection sets "
            "'5: 0,2,3'."
        ),
    )
    p.add_argument("direction", choices=("to-set", "to-composition", "tau", "tau-inv"))
    p.add_argument("payload", nargs="+", help="composition or connection-set literal")
    p.set_defaults(handler=handle_convert)

    p = sub.add_parser("graph", help="emit a circulant (di)graph as DOT or an edge list")
    p.add_argument("n", type=int)
    p.add_argument("members", help="comma-separated connection set, e.g. 0,1,7")
    p.add_argument("--mode", choices=("digraph", "graph"), default="digraph")
    p.add_argument("--format", choices=("dot", "edgelist"), default="dot")
    p.set_defaults(handler=handle_graph)

    p = sub.add_parser("table", help="print the five-family count table for n = 1..MAX_N")
    p.add_argument("max_n", type=int, metavar="MAX_N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=handle_table)

    p = sub.add_parser("verify", help="run the exhaustive self-check suites")
    p.add_argument("--max-n", type=int, default=None, help="lower every suite ceiling to this order")
    p.add_argument("--workers", type=int, default=1, help="processes for the per-order units (1: run them here)")
    p.set_defaults(handler=handle_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Counts print exactly at any size: lift CPython's int -> str digit limit
    # (0 where the runtime has none) while the command runs.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader stopped on purpose (`| head`). Send what is still buffered
        # to the null device, so that the flush at shutdown cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        print("error: the result is too large to build", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
