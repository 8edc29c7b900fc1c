"""Command-line front end: counting, listing, converting, exporting, verifying.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
or parse errors and on results too large to build. All output is
deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator, Sequence

# Annotations are never evaluated (PEP 563), so the `TextIO` they name is not
# imported: loading `typing` would add to the start of every command.

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
    # A block is written with one join, its rest after every piece; every
    # block has a piece, so any(blocks) tells whether members remain.
    joiner = ", " if json_rows else ""
    lead, left, more = "[" if json_rows else "", args.limit, False
    for pieces, rest in blocks:
        if left is not None:
            if len(pieces) >= left:
                more = not json_rows and (len(pieces) > left or any(blocks))
                pieces = pieces[:left]
            left -= len(pieces)
        sys.stdout.write(lead + (rest + joiner).join(pieces) + rest)
        lead = joiner
        if left == 0:
            break
    if json_rows:
        print("[]" if lead == "[" else "]")
    elif more:
        print("…truncated")
    return 0


def _list_blocks(n: int, family: str, json_rows: bool) -> Iterator[tuple[Sequence[str], str]]:
    """The family's members at order n as text lines or JSON rows, in blocks (pieces, rest).

    Every family's blocks are spelled by the two closures below, low
    for the numbers ahead of the block kernel's boundary and rest for
    the others: the dense families one block per boundary class of the
    mask's low bits, each member a piece + rest; the palindromic ones
    whole, 2^10 members to a block with an empty rest. A piece is joined
    from one cell per number, each spelled once here. handle_list stops
    reading at --limit, so at most one block past the cut is built.
    """
    sets = family.endswith("connection_sets")
    head, sep, end = ("[", ", ", "]") if json_rows else (f"{n}: " if sets else "", ",", "\n")
    cells = [f"{x}{sep}" for x in range(counting._LOW_BITS + 1)]  # low's numbers are at most 10

    def low(nums: tuple[int, ...]) -> str:
        return head + "".join([cells[x] for x in nums])

    def rest(nums: tuple[int, ...]) -> str:
        return sep.join(map(str, nums)) + end

    return counting._listed(n, family).blocks(n, family, (low, rest))


# The most elements `convert tau` builds: a word's image has part_count * gcd of
# them. The one-part word n maps to all of Z_n, peaking at 128 MB for 10^6, 243 MB
# for 2*10^6 and 473 MB for 4*10^6 (Python 3.11, Xeon).
_TAU_MAX_SIZE = 4_000_000


def handle_convert(args: argparse.Namespace) -> int:
    payload = " ".join(args.payload)
    if args.direction == "to-set":
        print(prefix_sum_set(parse_composition(payload)))
    elif args.direction == "to-composition":
        print(gap_composition(parse_connection_set(payload)))
    elif args.direction == "tau":
        word = parse_composition(payload)
        size = word.part_count * word.gcd()
        if size > _TAU_MAX_SIZE:
            raise ValueError(f"tau builds images of up to {_TAU_MAX_SIZE} elements, got {size}")
        print(connected_set_of(word))
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
    rows, columns = counting._decimal_rows(args.max_n), counting.CountRow._fields
    if args.format == "json":
        # The bytes of json.dumps(list of row dicts), written row by row. The
        # keys are ASCII identifiers, which json.dumps spells in plain quotes.
        row = "{{" + ", ".join(f'"{col}": {{}}' for col in columns) + "}}"
        lead = "["
        for values in rows:
            sys.stdout.write(lead + row.format(*map(str, values)))
            lead = ", "
        print("]")
        return 0
    # count_row gives rows N - 1 and N, which hold every column's widest cell, so
    # the sieve's rows stream: n, 2^(n-1) and 2^floor(n/2) never decrease;
    # the prime count grows from n = 2, as the disconnected count stays below
    # 2^(n/2); the aperiodic count stays within 2^(n/4+1) of 2^floor(n/2); and the
    # disconnected count is below 2^(n/3+1) at an odd order, while at an even order
    # it is led by the prime count of n/2, which grows. Tier-1 checks the rule at
    # every order up to _TABLE_MAX_N.
    header = [col.replace("_", "-") for col in columns]
    orders = range(max(1, args.max_n - 1), args.max_n + 1)
    last = zip(*(vars(counting.count_row(n)).values() for n in orders))
    widths = [max(len(name), *map(len, map(str, cells))) for name, cells in zip(header, last)]
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
        hi = min(lo + _CHUNK, graph.order)
        out.write("  %d;\n" * (hi - lo) % tuple(range(lo, hi)))
    _write_runs(graph, f"  %d {joiner} %d;\n", out)
    out.write("}\n")


def render_edgelist(graph: CirculantDigraph, out: TextIO) -> None:
    """Write one "i j" line per arc (digraph) or per unordered edge (graph)."""
    _write_runs(graph, "%d %d\n", out)


_CHUNK = 1 << 14  # lines per write, unless one vertex has more
# Offsets above which a vertex's lines are joined, not spelled by the template.
# Measured in ns per arc, template/join, at k offsets: on long runs 150/205 at
# k = 16, 150/173 at 32 and 155/164 at 64; on runs of 1 vertex 870/297 at 16
# and 820/225 at 32. A digraph has k + 1 runs, so the template's loss on short
# runs is bounded by k(k + 1) arcs, while its gain grows with the order.
# Python 3.11, Xeon, 2 vCPUs.
_WIDE = 32


def _write_runs(graph: CirculantDigraph, pair: str, out: TextIO) -> None:
    """Write the arcs (digraph) or edges (graph), each spelled by `pair` from two %d.

    Every vertex of a run has the same ascending target offsets. With
    few offsets, each chunk of a run is one % format: `pair` repeated
    once per offset and vertex, applied to the sources and targets
    interleaved in one flat tuple, which slice assignment fills from
    ranges. With many, runs tend to be short, two slices per offset and
    chunk cost more than they save, and each vertex joins the digits of
    its targets instead. No Python code runs per line, and a write holds
    whole vertices: at most _CHUNK lines, unless one vertex has more.
    """
    head, _, tail = pair.rpartition("%d")
    for vertices, offsets in graph._runs(pairs=not graph.directed):
        if not offsets:
            continue
        wide, width = len(offsets) > _WIDE, 2 * len(offsets)
        step = max(1, _CHUNK // len(offsets))
        for lo in range(vertices.start, vertices.stop, step):
            hi = min(lo + step, vertices.stop)
            if wide:
                starts = map(head.__mod__, range(lo, hi))
                text = "".join(s + (tail + s).join(map(str, map(i.__add__, offsets))) + tail
                               for i, s in zip(range(lo, hi), starts))
            else:
                fields = [0] * (width * (hi - lo))
                for k, offset in enumerate(offsets):
                    fields[2 * k::width] = range(lo, hi)
                    fields[2 * k + 1::width] = range(lo + offset, hi + offset)
                text = pair * (len(fields) // 2) % tuple(fields)
            out.write(text)


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
