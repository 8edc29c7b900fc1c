"""Traced in-process replay: circomp's layers wrapped from outside.

The replay calls `circomp.cli.main(argv)` in this process with stdout sent
to a counting sink, once untraced and once with every public function and
method of interest wrapped. Per-item calls (constructors, predicates, one
`next()` of a stream) are aggregated as a count and a total time; coarse
calls (CLI handlers, renderers, verify suites) are recorded as spans with
parent links. Every timed call adds its duration to the child time of the
frame that called it, so a span's self time excludes both child spans and
the per-item work done under it.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from oracle import SUITES

pc = time.perf_counter

CLI_SPANS = ("handle_list", "handle_table", "handle_verify", "render_dot", "render_edgelist")
FAMILIES = (
    "compositions", "prime_compositions", "palindromes",
    "aperiodic_palindromes", "connection_sets", "symmetric_connection_sets",
)


def suite_slug(name: str) -> str:
    return name.replace(" ", "-")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[1]
    if last in ("calls", "items", "checks"):
        return "count"
    if last.startswith("us_per_"):
        return "us"
    return "s" if last in ("s", "self_s") else "ratio"


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int  # index of the command in the pass; spans of one command share it
    name: str
    start: float
    end: float
    self_s: float


class Tracer:
    """Wraps circomp callables, recording aggregates and spans until removed."""

    def __init__(self) -> None:
        self.frames = [0.0]  # child time of each open timed call; [0] is the root
        self.open_spans: list[int | None] = [None]
        self.spans: list[Span] = []
        self._next_span = 0
        self.stats: dict[str, list[float]] = {}  # name -> [calls or items, seconds, extra]
        self.trace = 0
        self._undo: list[tuple[Any, str, Any]] = []

    def stat(self, name: str) -> list[float]:
        return self.stats.setdefault(name, [0, 0.0, 0])

    # -- wrappers -------------------------------------------------------------

    def per_call(self, name: str, fn: Callable, count_true: bool = False) -> Callable:
        stat, frames = self.stat(name), self.frames

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frames.append(0.0)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                frames.pop()
                frames[-1] += dt
                stat[0] += 1
                stat[1] += dt
            if count_true and result:
                stat[2] += 1
            return result

        return wrapper

    def per_item(self, name: str, it: Iterator, built: list[float] | None = None) -> Iterator:
        """Time each `next()` of a stream; `built` counts constructions made meanwhile."""
        stat, frames = self.stat(name), self.frames
        while True:
            before = built[0] if built is not None else 0
            frames.append(0.0)
            t0 = pc()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = pc() - t0
                frames.pop()
                frames[-1] += dt
                stat[1] += dt
                if built is not None:
                    stat[2] += built[0] - before
            stat[0] += 1
            yield item

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        frames, open_spans = self.frames, self.open_spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = self._next_span
            self._next_span += 1
            parent = open_spans[-1]
            open_spans.append(sid)
            frames.append(0.0)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                child = frames.pop()
                frames[-1] += t1 - t0
                open_spans.pop()
                self.spans.append(Span(sid, parent, self.trace, name, t0, t1, t1 - t0 - child))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installing -----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind every circomp module name that refers to `fn`."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "circomp":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        compositions = importlib.import_module("circomp.compositions")
        circulant = importlib.import_module("circomp.circulant")
        bijections = importlib.import_module("circomp.bijections")
        counting = importlib.import_module("circomp.counting")
        verify = importlib.import_module("circomp.verify")
        cli = importlib.import_module("circomp.cli")

        comp, cset, graph = compositions.Composition, circulant.ConnectionSet, circulant.CirculantDigraph
        self._set(comp, "__init__", self.per_call("compositions.Composition", comp.__init__))
        for method, name in (("gcd", "gcd"), ("period", "period"),
                             ("is_palindrome", "is_palindrome"), ("__str__", "str")):
            self._set(comp, method, self.per_call(f"compositions.{name}", comp.__dict__[method]))
        self._set(cset, "__init__", self.per_call("circulant.ConnectionSet", cset.__init__))
        self._set(cset, "is_symmetric",
                  self.per_call("circulant.is_symmetric", cset.is_symmetric, count_true=True))
        for method in ("is_connected", "is_strongly_connected"):
            self._set(graph, method, self.per_call("circulant.traversal", graph.__dict__[method]))
        for method in ("arcs", "edges"):
            orig = graph.__dict__[method]
            self._set(graph, method, self._stream(f"circulant.{method}", orig))

        for name in ("gap_composition", "prefix_sum_set", "connected_set_of",
                     "aperiodic_palindrome_of"):
            fn = getattr(bijections, name)
            self._replace_function(fn, self.per_call(f"bijections.{name}", fn))
        for name in ("divisors", "moebius", "count_row"):
            fn = getattr(counting, name)
            self._replace_function(fn, self.per_call(f"counting.{name}", fn))
        self._replace_function(counting.iter_family, self._iter_family(counting.iter_family))
        self._replace_function(counting.count_table,
                               self.span("counting.count_table", counting.count_table))

        self._replace_function(verify.run_suites, self.span("verify.run_suites", verify.run_suites))
        suites = []
        for name, fn, ceiling in verify.SUITES:
            key = f"verify.{suite_slug(name)}"
            checks = self.stat(key)
            suites.append((name, self.span(key, fn, lambda r, c=checks: _add(c, r.checked)), ceiling))
        self._set(verify, "SUITES", tuple(suites))

        self._replace_function(cli.main, self.span("cli.main", cli.main))
        for name in CLI_SPANS + ("handle_count", "handle_convert", "handle_graph"):
            fn = getattr(cli, name)
            self._replace_function(fn, self.span(f"cli.{name}", fn))

    def _stream(self, name: str, method: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            return self.per_item(name, method(*args, **kwargs))
        return wrapper

    def _iter_family(self, iter_family: Callable) -> Callable:
        built = self.stat("compositions.Composition")

        def wrapper(n: int, family: str) -> Iterator:
            # The original validates eagerly, so errors still surface at the call.
            return self.per_item(f"counting.iter_family.{family}", iter_family(n, family), built)

        return wrapper

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _add(stat: list[float], checks: int) -> None:
    stat[2] += checks


class CountingSink:
    """Write-only text stream that keeps only a line count."""

    def __init__(self) -> None:
        self.lines = 0

    def write(self, s: str) -> int:
        self.lines += s.count("\n")
        return len(s)

    def flush(self) -> None:
        pass


def run_pass(commands: list, tracer: Tracer | None) -> tuple[float, list[str]]:
    """Run every command in-process; return the total wall and the failures."""
    cli = importlib.import_module("circomp.cli")
    wall, failures = 0.0, []
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.trace = i
        sink, saved = CountingSink(), sys.stdout
        sys.stdout = sink
        t0 = pc()
        try:
            code = cli.main(list(cmd.argv))
        finally:
            wall += pc() - t0
            sys.stdout = saved
        if code != 0 or sink.lines != cmd.lines:
            failures.append(f"{' '.join(cmd.argv)}: exit {code}, {sink.lines} lines, "
                            f"expected {cmd.lines}")
    return wall, failures


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    m: dict[str, float] = {}

    def per_call(name: str, key: str = "calls", per: str = "us_per_call") -> list[float]:
        count, seconds, extra = tracer.stats.get(name, [0, 0.0, 0])
        m[f"{name}.{key}"] = count
        m[f"{name}.{per}"] = seconds / count * 1e6 if count else 0.0
        return [count, seconds, extra]

    for name in ("Composition", "gcd", "period", "is_palindrome", "str"):
        per_call(f"compositions.{name}")
    per_call("circulant.ConnectionSet")
    count, _, true = per_call("circulant.is_symmetric")
    m["circulant.is_symmetric.true_ratio"] = true / count if count else 0.0
    per_call("circulant.traversal")
    for name in ("arcs", "edges"):
        per_call(f"circulant.{name}", "items", "us_per_item")
    for name in ("gap_composition", "prefix_sum_set", "connected_set_of", "aperiodic_palindrome_of"):
        per_call(f"bijections.{name}")
    for family in FAMILIES:
        items, _, built = per_call(f"counting.iter_family.{family}", "items", "us_per_item")
        if family == "palindromes":
            m["counting.iter_family.palindromes.built_per_yield"] = built / items if items else 0.0
    for name in ("divisors", "moebius", "count_row"):
        per_call(f"counting.{name}")

    self_s: dict[str, float] = {}
    for span in tracer.spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
    suite_s = {}
    for name, _, _ in SUITES:
        key = f"verify.{suite_slug(name)}"
        suite_s[key] = sum(s.end - s.start for s in tracer.spans if s.name == key)
        m[f"{key}.s"] = suite_s[key]
        m[f"{key}.checks"] = tracer.stats.get(key, [0, 0.0, 0])[2]
    total = sum(suite_s.values())
    m["verify.max_suite_share"] = max(suite_s.values()) / total if total else 0.0
    for name in CLI_SPANS:
        m[f"cli.{name}.self_s"] = self_s.get(f"cli.{name}", 0.0)
    m["trace.overhead_ratio"] = overhead
    return m


def replay(commands: list, seconds: float, deadline: float) -> dict[str, Any]:
    """Untraced then traced in-process passes, repeated while time allows.

    Per-layer values are medians over traced passes; the overhead is the
    median ratio of traced to untraced wall within each pair.
    """
    importlib.import_module("circomp.cli")
    start, pairs, failures, spans = pc(), [], [], []
    while True:
        p0 = pc()
        plain_wall, plain_fail = run_pass(commands, None)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced_fail = run_pass(commands, tracer)
        finally:
            tracer.remove()
        failures += plain_fail + traced_fail
        pairs.append(layer_metrics(tracer, traced_wall / plain_wall))
        spans = tracer.spans
        took = pc() - p0
        if pc() - start + took > seconds or pc() + took > deadline:
            break
    metrics = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]}
    return {
        "metrics": metrics,
        "attempted": 2 * len(commands) * len(pairs),
        "failures": failures,
        "pairs": len(pairs),
        "spans": [vars(s) for s in spans],
    }
