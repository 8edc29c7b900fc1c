import argparse
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from circomp import cli, counting, verify
from circomp.circulant import CirculantDigraph, ConnectionSet, build_digraph, build_graph
from circomp.compositions import Composition
from circomp.cli import build_parser, main, render_dot, render_edgelist
from references import all_sets, arc_rule, edge_rule, low_masks, many_step_sets


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCount:
    @pytest.mark.parametrize(
        "family,n,expected",
        [
            ("prime-compositions", "12", "2010"),
            ("palindromes", "8", "16"),
            ("aperiodic-palindromes", "8", "12"),
            ("compositions", "72", "2361183241434822606848"),
            ("disconnected", "10", "17"),
            ("palindromes", "1", "1"),
        ],
    )
    def test_examples(self, family, n, expected):
        code, out, _ = run_cli("count", family, n)
        assert code == 0
        assert out == expected + "\n"

    def test_out_of_domain_order(self):
        code, _, err = run_cli("count", "aperiodic-palindromes", "1")
        assert code == 2
        assert err.strip()

    def test_unknown_family(self):
        code, _, _ = run_cli("count", "partitions", "5")
        assert code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit"
    )
    def test_exact_past_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli("count", "compositions", "20000")
        assert code == 0
        assert len(out.strip()) == 6021
        assert int(out.strip()[-30:]) == pow(2, 19999, 10**30)
        assert sys.get_int_max_str_digits() == limit


class TestTooLarge:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "compositions", "100000000000000000000"),
            ("list", "compositions", "100000000000000000000", "--limit", "2"),
            ("list", "compositions", "1000000000000", "--limit", "1"),
            ("list", "prime-compositions", "1000000000000", "--limit", "1"),
            ("list", "connection-sets", "1000000000000", "--limit", "1"),
            # Every family fails at the call, before any row: the palindromic
            # ones in the block kernel at order ceil(n/2).
            ("list", "palindromes", "100000000000000000000", "--format", "json"),
            ("list", "aperiodic-palindromes", "100000000000000000000"),
            ("list", "symmetric-connection-sets", "100000000000000000000"),
            ("count", "palindromes", "100000000000000000000"),
            # A prime order: the count fails before n is trial-divided.
            ("count", "prime-compositions", "1000000000000000003"),
            ("count", "disconnected", "1000000000000000003"),
            ("count", "aperiodic-palindromes", "1000000000000000003"),
            # Just above the order `count` prints: refused before any work.
            ("count", "compositions", str(counting._COUNT_MAX_N + 1)),
        ],
    )
    def test_exits_2_with_one_line(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1


def subcommand_choices(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == "family")


def test_family_choices_are_pinned():
    assert subcommand_choices("count") == [
        "aperiodic-palindromes", "compositions", "disconnected", "palindromes",
        "prime-compositions",
    ]
    assert subcommand_choices("list") == [
        "aperiodic-palindromes", "compositions", "connection-sets", "palindromes",
        "prime-compositions", "symmetric-connection-sets",
    ]


class TestList:
    def test_truncation_marker(self):
        code, out, _ = run_cli("list", "compositions", "5", "--limit", "3")
        assert code == 0
        assert out == "5\n1,4\n2,3\n…truncated\n"

    def test_no_marker_when_stream_fits(self):
        code, out, _ = run_cli("list", "aperiodic-palindromes", "4")
        assert code == 0
        assert out == "4\n1,2,1\n"
        code, out, _ = run_cli("list", "compositions", "1")
        assert code == 0
        assert out == "1\n"

    def test_limit_equal_to_length_has_no_marker(self):
        code, out, _ = run_cli("list", "compositions", "3", "--limit", "4")
        assert code == 0
        assert "truncated" not in out

    def test_json_compositions(self):
        code, out, _ = run_cli("list", "compositions", "5", "--format", "json", "--limit", "3")
        assert code == 0
        assert json.loads(out) == [[5], [1, 4], [2, 3]]

    @pytest.mark.parametrize("n,limit", [(15, None), (16, 16384), (16, 16385), (16, None)])
    def test_json_across_the_2_14_row_chunks(self, n, limit):
        argv = ["list", "compositions", str(n), "--format", "json"]
        code, out, _ = run_cli(*argv, *([] if limit is None else ["--limit", str(limit)]))
        rows = [list(c.parts) for c in counting.iter_family(n, "compositions")][:limit]
        assert code == 0
        assert out == json.dumps(rows) + "\n"

    def test_json_connection_sets(self):
        code, out, _ = run_cli("list", "connection-sets", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[0], [0, 1], [0, 2], [0, 1, 2]]

    def test_text_connection_sets_carry_modulus(self):
        code, out, _ = run_cli("list", "symmetric-connection-sets", "4")
        assert code == 0
        assert out == "4: 0\n4: 0,2\n4: 0,1,3\n4: 0,1,2,3\n"

    def test_palindromic_family_rejects_order_one(self):
        code, _, err = run_cli("list", "palindromes", "1")
        assert code == 2
        assert "n >= 2" in err

    def test_bad_limit(self):
        code, _, _ = run_cli("list", "compositions", "5", "--limit", "0")
        assert code == 2

    def test_deterministic(self):
        first = run_cli("list", "palindromes", "9")
        second = run_cli("list", "palindromes", "9")
        assert first == second


DENSE = ("compositions", "prime-compositions", "connection-sets")
PALINDROMIC = ("palindromes", "aperiodic-palindromes", "symmetric-connection-sets")
ORDERS = {**dict.fromkeys(DENSE, range(1, 17)), **dict.fromkeys(PALINDROMIC, range(2, 25))}


def rendered(family, n, fmt, limit=None):
    """The list output built from iter_family's objects: str(x) lines or json.dumps."""
    members = list(counting.iter_family(n, family.replace("-", "_")))
    shown = members[:limit]
    if fmt == "json":
        rows = [list(x.parts if isinstance(x, Composition) else x.elements) for x in shown]
        return json.dumps(rows) + "\n"
    return "".join(f"{x}\n" for x in shown) + ("…truncated\n" if len(shown) < len(members) else "")


class TestDenseRendering:
    """The list output of all six families, which share one block interface."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("family", DENSE + PALINDROMIC)
    def test_block_rendering_matches_the_objects(self, family, fmt):
        for n in ORDERS[family]:
            assert run_cli("list", family, str(n), "--format", fmt) == (0, rendered(family, n, fmt), "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("family", DENSE)
    @pytest.mark.parametrize(
        "n,limit", [(11, 1023), (11, 1024), (11, 1025), (12, 1023), (12, 1024), (12, 1025),
                    (15, 16384), (16, 16383), (16, 16384), (16, 16385)],
    )
    def test_limits_at_block_and_chunk_edges(self, family, fmt, n, limit):
        argv = ("list", family, str(n), "--format", fmt, "--limit", str(limit))
        assert run_cli(*argv) == (0, rendered(family, n, fmt, limit), "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("family", PALINDROMIC)
    @pytest.mark.parametrize("limit", [1023, 1024, 1025, 2048, 2049])
    def test_palindromic_limits_at_block_edges(self, family, fmt, limit):
        # At n = 24 each palindromic family has more than 2049 members.
        argv = ("list", family, "24", "--format", fmt, "--limit", str(limit))
        assert run_cli(*argv) == (0, rendered(family, 24, fmt, limit), "")

    def test_huge_order_prints_the_first_rows(self):
        code, out, err = run_cli("list", "compositions", "1000000", "--limit", "2")
        assert (code, out, err) == (0, "1000000\n1,999999\n…truncated\n", "")


class TestConvert:
    def test_to_set(self):
        code, out, _ = run_cli("convert", "to-set", "2,1,2")
        assert code == 0
        assert out == "5: 0,2,3\n"

    def test_tau(self):
        code, out, _ = run_cli("convert", "tau", "2,4,2")
        assert code == 0
        assert out == "8: 0,1,3,4,5,7\n"

    def test_tau_inv(self):
        code, out, _ = run_cli("convert", "tau-inv", "8: 0,1,7")
        assert code == 0
        assert out == "1,6,1\n"

    def test_tau_inv_unquoted_payload(self):
        code, out, _ = run_cli("convert", "tau-inv", "8:", "0,1,7")
        assert code == 0
        assert out == "1,6,1\n"

    def test_text_round_trip(self):
        _, set_text, _ = run_cli("convert", "to-set", "2,1,2")
        code, out, _ = run_cli("convert", "to-composition", set_text.strip())
        assert code == 0
        assert out == "2,1,2\n"

    @pytest.mark.parametrize(
        "direction,payload",
        [
            ("tau", "1,4"),       # not a palindrome
            ("tau", "2,2"),       # periodic
            ("tau-inv", "8: 0,4"),  # does not generate
            ("to-set", "junk"),
            ("to-composition", "8 0,1"),
        ],
    )
    def test_errors_exit_2(self, direction, payload):
        code, _, err = run_cli("convert", direction, payload)
        assert code == 2
        assert err.startswith("error:")


class TestGraph:
    def test_digraph_edgelist(self):
        code, out, _ = run_cli("graph", "5", "0,1", "--mode", "digraph", "--format", "edgelist")
        assert code == 0
        assert out == "0 1\n1 2\n2 3\n3 4\n4 0\n"

    def test_graph_edgelist(self):
        code, out, _ = run_cli("graph", "8", "0,4", "--mode", "graph", "--format", "edgelist")
        assert code == 0
        assert out == "0 4\n1 5\n2 6\n3 7\n"

    def test_missing_zero_exits_2(self):
        code, _, err = run_cli("graph", "5", "1,2", "--mode", "digraph", "--format", "edgelist")
        assert code == 2
        assert "0" in err

    def test_graph_mode_rejects_asymmetric(self):
        code, _, _ = run_cli("graph", "5", "0,1", "--mode", "graph")
        assert code == 2

    def test_dot_digraph(self):
        code, out, _ = run_cli("graph", "3", "0,1", "--format", "dot")
        assert code == 0
        assert out == "digraph {\n  0;\n  1;\n  2;\n  0 -> 1;\n  1 -> 2;\n  2 -> 0;\n}\n"

    def test_dot_graph(self):
        code, out, _ = run_cli("graph", "4", "0,2", "--mode", "graph")
        assert code == 0
        assert out == "graph {\n  0;\n  1;\n  2;\n  3;\n  0 -- 2;\n  1 -- 3;\n}\n"

    def test_dot_deterministic(self):
        assert run_cli("graph", "9", "0,2,7") == run_cli("graph", "9", "0,2,7")

    @pytest.mark.parametrize("render", [render_dot, render_edgelist])
    def test_renders_in_bounded_chunks(self, render):
        graph = build_digraph(ConnectionSet(20000, (0, 1, 5)))
        out = WriteLog()
        render(graph, out)
        assert len(out.writes) > 1
        assert max(chunk.count("\n") for chunk in out.writes) <= 1 << 14
        whole = io.StringIO()
        render(graph, whole)
        assert "".join(out.writes) == whole.getvalue()
        assert whole.getvalue().count("\n") == 40000 + (20002 if render is render_dot else 0)


class WriteLog:
    """Text sink that keeps every write separately."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def rule_text(render, graph):
    """What a renderer must write, from the arc rule i -> i + s."""
    n, arcs = graph.order, arc_rule(graph)
    pairs = arcs if graph.directed else edge_rule(graph)
    if render is render_edgelist:
        return "".join(f"{i} {j}\n" for i, j in pairs)
    keyword, joiner = ("digraph", "->") if graph.directed else ("graph", "--")
    return (f"{keyword} {{\n" + "".join(f"  {v};\n" for v in range(n))
            + "".join(f"  {i} {joiner} {j};\n" for i, j in pairs) + "}\n")


def both_modes(s):
    yield build_digraph(s)
    if s.is_symmetric():
        yield build_graph(s)


def rendered_text(render, graph):
    out = io.StringIO()
    render(graph, out)
    return out.getvalue()


class TestRenderedRuns:
    @pytest.mark.parametrize("render", [render_dot, render_edgelist])
    def test_every_set_to_10_in_both_modes(self, render):
        for n in range(1, 11):
            for s in all_sets(n):
                for graph in both_modes(s):
                    assert rendered_text(render, graph) == rule_text(render, graph)

    @pytest.mark.parametrize("render", [render_dot, render_edgelist])
    def test_random_sets_with_many_steps_to_300(self, render):
        for s in many_step_sets(6, seed=11):
            for graph in both_modes(s):
                assert rendered_text(render, graph) == rule_text(render, graph)

    @pytest.mark.parametrize("render", [render_dot, render_edgelist])
    def test_single_vertex_and_empty_steps(self, render):
        for s in (ConnectionSet(1, (0,)), ConnectionSet(4, (0,))):
            for graph in both_modes(s):
                assert rendered_text(render, graph) == rule_text(render, graph)

    @pytest.mark.parametrize("render", [render_dot, render_edgelist])
    @pytest.mark.parametrize("steps", [(1, 5), tuple(range(1, 40, 2))])
    def test_writes_hold_whole_vertices_up_to_the_chunk(self, monkeypatch, render, steps):
        # 2 offsets take the template route, 20 the joined one.
        monkeypatch.setattr(cli, "_CHUNK", 7)
        graph = build_digraph(ConnectionSet(50, (0, *steps)))
        out = WriteLog()
        render(graph, out)
        assert "".join(out.writes) == rule_text(render, graph)
        arc_writes = [w for w in out.writes if "->" in w or render is render_edgelist]
        assert all(w.count("\n") % len(steps) == 0 for w in arc_writes)
        assert max(w.count("\n") for w in out.writes) <= max(7, len(steps))


class TestTable:
    def test_known_rows(self):
        code, out, _ = run_cli("table", "15")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "n", "compositions", "prime-compositions", "disconnected",
            "palindromes", "aperiodic-palindromes",
        ]
        assert lines[1].split() == ["1", "1", "1", "0", "1", "1"]
        assert lines[15].split() == ["15", "16384", "16365", "19", "128", "123"]

    def test_json_row_24(self):
        code, out, _ = run_cli("table", "24", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[23]["n"] == 24
        assert rows[23]["prime_compositions"] == 8386440
        for row in rows:
            assert row["prime_compositions"] + row["disconnected"] == row["compositions"]

    def test_rejects_nonpositive(self):
        code, _, _ = run_cli("table", "0")
        assert code == 2

    # 293 is prime, so its row's disconnected cell has 1 digit; 292's is the widest.
    @pytest.mark.parametrize("max_n", [1, 2, 293, 300])
    def test_bytes_match_the_int_table(self, max_n):
        json_text, text = int_table_bytes(max_n)
        assert run_cli("table", str(max_n), "--format", "json") == (0, json_text, "")
        assert run_cli("table", str(max_n)) == (0, text, "")

    def test_rows_need_no_factorisation_and_no_count_row(self, monkeypatch):
        json_text, text = int_table_bytes(300)

        def moebius_route(*args, **kwargs):
            raise AssertionError("the table took the Moebius route")

        monkeypatch.setattr(counting, "_factorize", moebius_route)
        monkeypatch.setattr(counting, "count_row", moebius_route)
        assert run_cli("table", "300", "--format", "json") == (0, json_text, "")
        assert run_cli("table", "300") == (0, text, "")

    @pytest.mark.parametrize("max_n", [counting._TABLE_MAX_N + 1, 10**9])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_an_order_above_the_ceiling_is_refused_before_any_row(self, monkeypatch, max_n, fmt):
        def rows(*args):
            raise AssertionError("rows were built past the ceiling")

        # Without the check, these orders would stream for hours or exhaust memory.
        monkeypatch.setattr(counting, "_rows", rows)
        error = f"error: table prints orders up to {counting._TABLE_MAX_N}, got {max_n}\n"
        assert run_cli("table", str(max_n), "--format", fmt) == (2, "", error)

    def test_the_ceiling_itself_is_accepted(self):
        rows = counting._decimal_rows(counting._TABLE_MAX_N)  # lazy: no row is built yet
        assert next(rows) == counting.CountRow(1, 1, 1, 0, 1, 1)

    def test_json_writes_nothing_before_an_error(self):
        assert run_cli("table", "0", "--format", "json") == (2, "", "error: order must be >= 1, got 0\n")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit"
    )
    def test_json_table_past_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit; 2^2199 has 662 digits
        try:
            code, out, _ = run_cli("table", "2200", "--format", "json")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert json.loads(out)[-1]["compositions"] == 1 << 2199


def int_table_bytes(max_n):
    """`table max_n` as JSON and as text, spelled from the int count_table."""
    rows = [vars(row) for row in counting.count_table(max_n)]
    cells = [[col.replace("_", "-") for col in rows[0]]]
    cells += [[str(value) for value in row.values()] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    text = "".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n" for line in cells)
    return json.dumps(rows) + "\n", text


def child(*args, **kwargs):
    """Start python with args, circomp importable, as a fresh process."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs
    )


class TestFreshProcess:
    @pytest.mark.parametrize(
        "argv",
        [
            ("list", "compositions", "22"),
            ("list", "palindromes", "30"),
            ("graph", "1000000", "0,1", "--format", "edgelist"),
        ],
    )
    def test_a_reader_that_stops_early_gets_exit_0_and_no_traceback(self, argv):
        proc = child("-m", "circomp.cli", *argv)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_import_loads_no_suites_pool_or_json(self):
        def loaded(code):
            proc = child("-c", f"{code}; import sys; print(*sys.modules)", text=True)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            return set(out.split())

        bare = loaded("pass")
        added = loaded("import circomp.cli") - bare
        assert "circomp.cli" in added
        guarded = ("circomp.verify", "concurrent.futures", "multiprocessing", "json")
        assert [m for m in added for g in guarded if m == g or m.startswith(g + ".")] == []

    def test_import_loads_no_dataclasses(self):
        # -S skips the host's site hooks, which may import dataclasses themselves.
        code = "import sys, circomp.cli; print('dataclasses' in sys.modules)"
        proc = child("-S", "-c", code, text=True)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out == "False\n"

    def test_verify_still_loads_its_suites(self):
        proc = child("-m", "circomp.cli", "verify", "--max-n", "4", text=True)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS ") for line in lines)


def circomp_bindings():
    """Every attribute of the circomp modules and of the traced classes, by owner and name."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "circomp"]
    owners += [Composition, ConnectionSet, CirculantDigraph]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


class TestBenchmarkTraceHooks:
    def test_the_tracer_finds_every_name_it_wraps_and_restores_it(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        layers = importlib.import_module("layers")
        importlib.import_module("circomp.verify")  # the tracer wraps it, so snapshot it too
        before = circomp_bindings()
        tracer = layers.Tracer()
        try:
            tracer.install()
            wrapped = {key for key, value in circomp_bindings().items() if value is not before[key]}
        finally:
            tracer.remove()
        names = {f"{owner.__name__}.{attr}" for owner, attr in wrapped}
        for name in ("divisors", "moebius", "count_row", "count_table", "iter_family"):
            assert f"circomp.counting.{name}" in names
        assert {"circomp.verify.SUITES", "circomp.cli.main", "Composition.__init__"} <= names
        after = circomp_bindings()
        assert after.keys() == before.keys()
        assert [key for key, value in before.items() if after[key] is not value] == []


@pytest.fixture
def oracle(monkeypatch):
    """The benchmark's output oracle, perfbench/oracle.py, which is written without circomp."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    return importlib.import_module("oracle")


class TestBenchmarkOracle:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_verify_output_passes_the_benchmark_oracle(self, oracle, workers):
        code, out, _ = run_cli("verify", "--max-n", "9", "--workers", workers)
        assert code == 0
        assert oracle.check_verify(out.encode(), 9, oracle.Sieve(72)) is None

    def test_the_suite_registry_matches_the_oracle(self, oracle):
        # The order-72 suite has no ranged ceiling in the oracle.
        assert [name for name, _, _ in verify.SUITES] == [name for name, _, _ in oracle.SUITES]
        assert [c for _, _, c in verify.SUITES[:-1]] == [c for _, c, _ in oracle.SUITES[:-1]]


class TestVerify:
    def test_small_run_passes(self):
        code, out, _ = run_cli("verify", "--max-n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS ") for line in lines)

    def test_order_72_line_reports_recomputed_values(self):
        code, out, _ = run_cli("verify", "--max-n", "2")
        assert code == 0
        line = next(l for l in out.splitlines() if "order-72" in l)
        assert "2361183241400454481920" in line
        assert "34368124928" in line

    def test_rejects_max_n_below_two(self):
        code, _, _ = run_cli("verify", "--max-n", "1")
        assert code == 2

    def test_failure_prints_the_first_counterexample_and_exits_1(self, monkeypatch):
        monkeypatch.setattr(counting, "_palindromes", low_masks)
        code, out, _ = run_cli("verify", "--max-n", "8")
        assert code == 1
        assert (
            "FAIL count formulas vs enumeration (7 checks): first counterexample: "
            "n=3: palindrome stream gives 1,2 where the scan gives 1,1,1"
        ) in out.splitlines()


# Argument values that are not what the parser or the handlers expect. None
# reads as an integer above 12 (so no order is large) or starts "-h" (so
# argparse never prints help).
junk = st.sampled_from(["", " ", "x", "1.5", "0x10", "²", "١٢", "2,,1", "5: 0,1", "-", "nan"]) | (
    st.text(alphabet=",:; ab-.", max_size=6)
)


def mostly(values):
    """One argument: drawn from values, or junk one time in eight."""
    return st.integers(0, 7).flatmap(lambda k: junk if k == 0 else values).map(lambda a: [a])


def option(name, values):
    """Absent, or the option followed by one argument."""
    return st.just([]) | mostly(values).map(lambda a: [name] + a)


def joined(lists):
    return lists.map(lambda xs: ",".join(map(str, xs)))


def family(command):
    return mostly(st.sampled_from(subcommand_choices(command)))


orders = mostly(st.integers(-3, 12).map(str))
formats = st.sampled_from(["text", "json"])
cli_argv = st.one_of(
    st.tuples(st.just(["count"]), family("count"), orders),
    st.tuples(
        st.just(["list"]), family("list"), orders,
        option("--limit", st.integers(-2, 5).map(str)), option("--format", formats),
    ),
    st.tuples(
        st.just(["convert"]),
        mostly(st.sampled_from(["to-set", "to-composition", "tau", "tau-inv"])),
        mostly(
            joined(st.lists(st.integers(0, 6), min_size=1, max_size=3).map(
                lambda xs: xs + xs[-2::-1]  # a palindrome when no part is 0
            ))
            | st.tuples(st.integers(-1, 12), joined(st.lists(st.integers(-2, 13), max_size=4)))
            .map(lambda t: f"{t[0]}: {t[1]}")
        ),
    ),
    st.tuples(
        st.just(["graph"]), orders, mostly(joined(st.lists(st.integers(-3, 15), max_size=4))),
        option("--mode", st.sampled_from(["digraph", "graph"])),
        option("--format", st.sampled_from(["dot", "edgelist"])),
    ),
    st.tuples(st.just(["table"]), orders, option("--format", formats)),
    st.tuples(
        st.just(["verify"]),
        mostly(st.integers(-1, 6).map(str)).map(lambda a: ["--max-n"] + a),
        option("--workers", st.integers(-1, 1).map(str)),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=200, deadline=None)
@given(cli_argv)
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the usage
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
