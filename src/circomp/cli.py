"""Command-line front end: counting, listing, converting, exporting, verifying.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
or parse errors and on results too large to build. All output is
deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import itertools
import json
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
from .verify import run_suites


def handle_count(args: argparse.Namespace) -> int:
    print(counting._FAMILY_TABLE[args.family.replace("-", "_")].count(args.n))
    return 0


def handle_list(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    json_rows = args.format == "json"
    blocks = _list_blocks(args.n, args.family.replace("-", "_"), json_rows, args.limit)
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


def _list_blocks(n: int, family: str, json_rows: bool, limit: int | None) -> Iterator[list[str]]:
    """The family's members at order n as text lines or JSON rows, in blocks.

    The dense families are spelled straight from the block kernel's
    string tables, one block per high half of the mask. The palindromic
    ones are spelled member by member, at most limit + 1 of them (enough
    to tell whether the limit cuts the list), 2^14 to a block.
    """
    sets = family.endswith("connection_sets")
    head, sep, end = ("[", ", ", "]") if json_rows else (f"{n}: " if sets else "", ",", "\n")

    def low(nums: tuple[int, ...]) -> str:
        return head + "".join(f"{x}{sep}" for x in nums)

    def high(nums: tuple[int, ...]) -> str:
        return "".join(f"{sep}{x}" for x in nums) + end

    if counting._listed(n, family).dense:
        return counting._dense_blocks(n, family, (low, str, high))
    members = itertools.islice(counting.iter_family(n, family), None if limit is None else limit + 1)
    nums = (x.elements if sets else x.parts for x in members)
    rows = (low(m[:-1]) + str(m[-1]) + high(()) for m in nums)
    return iter(lambda: list(itertools.islice(rows, 1 << 14)), [])


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
    rows = [vars(row) for row in counting.count_table(args.max_n)]
    if args.format == "json":
        print(json.dumps(rows))
        return 0
    cells = [[col.replace("_", "-") for col in rows[0]]]
    cells += [[str(value) for value in row.values()] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for line in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return 0


def handle_verify(args: argparse.Namespace) -> int:
    results = run_suites(max_n=args.max_n, workers=args.workers)
    for r in results:
        if r.passed:
            line = f"PASS {r.name} ({r.checked} checks)"
        else:
            line = f"FAIL {r.name} ({r.checked} checks): first counterexample: {r.counterexample}"
        if r.detail:
            line += f": {r.detail}" if r.passed else f" [{r.detail}]"
        print(line)
    return 0 if all(r.passed for r in results) else 1


def render_dot(graph: CirculantDigraph, out: TextIO) -> None:
    """Write Graphviz text: vertex lines first, then sorted arc or edge lines."""
    keyword, joiner = ("digraph", "->") if graph.directed else ("graph", "--")
    pairs = graph.arcs() if graph.directed else graph.edges()
    _write_chunked(itertools.chain(
        [f"{keyword} {{\n"],
        (f"  {v};\n" for v in range(graph.order)),
        (f"  {i} {joiner} {j};\n" for i, j in pairs),
        ["}\n"],
    ), out)


def render_edgelist(graph: CirculantDigraph, out: TextIO) -> None:
    """Write one "i j" line per arc (digraph) or per unordered edge (graph)."""
    pairs = graph.arcs() if graph.directed else graph.edges()
    _write_chunked((f"{i} {j}\n" for i, j in pairs), out)


def _write_chunked(lines: Iterator[str], out: TextIO) -> None:
    """Write the lines 2^14 at a time: bounded memory, one write per chunk."""
    while chunk := "".join(itertools.islice(lines, 1 << 14)):
        out.write(chunk)


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
    p.add_argument("family", choices=sorted(
        name.replace("_", "-") for name, family in counting._FAMILY_TABLE.items() if family.count
    ))
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
    p.add_argument("--workers", type=int, default=1, help="shard suites across processes")
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
        return args.handler(args)
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
