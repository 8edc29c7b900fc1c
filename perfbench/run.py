"""Benchmark of the circomp CLI: four workloads, checked against an own oracle.

    python3 perfbench/run.py --workload stream-dense --seed 1 --seconds 25 --trace 0

Run from the root of a circomp checkout. With `--trace 0` each workload
runs as a closed loop from one client: the workload's commands run one at
a time, each as `python -m circomp.cli ...` in a child process with
PYTHONPATH=src, and the sequence repeats while the time allows. Every
output is checked by `oracle.py`; the last stdout line is one JSON object
with the end-to-end metrics. With `--trace 1` the same commands replay
in-process with circomp's layers wrapped (see `layers.py`) and the JSON
carries the per-layer metrics instead. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import layers
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEADLINE_S = 170  # the whole run, set-up included, ends before 180 s
SETUP_RUNS = 11

WORKLOADS = ("stream-dense", "stream-sparse", "verify", "export")
SIZES = {"dense_n": 17, "sparse_n": 18, "verify_max_n": 19, "table_n": 5000, "graph_n": 200_000}
UNITS = {"setup_s": "s", "scaled_wall_s": "s", "scaled_items_per_s": "1/s",
         "scaled_output_mb_per_s": "MB/s", "peak_rss_mb": "MB",
         "wall_s": "s", "items_per_s": "1/s", "output_mb_per_s": "MB/s"}
REF_LOOPS = 100_000
# Time of reference_s() on the 2-core Xeon the baseline was measured on; the
# scaled metrics are in seconds of a machine running at that speed.
REF_NOMINAL_S = 0.0085


@dataclass
class Command:
    argv: list[str]
    units: int  # items listed, checks reported, or rows, arcs and edges written
    lines: int  # stdout lines, which the traced replay counts
    check: Callable[[bytes], str | None]


def workload_commands(workload: str, seed: int, sizes: dict) -> list[Command]:
    """The command sequence of one workload; the seed picks graph sets and samples."""
    sieve = oracle.Sieve(max(sizes["table_n"], 72))
    commands: list[Command] = []

    def add(argv: list[str], units: int, lines: int, check: Callable) -> None:
        tag = f"{seed}/{len(commands)}"  # each check draws the same sample every time
        commands.append(Command(argv, units, lines,
                                lambda out: check(out, random.Random(tag))))

    def add_list(family: str, n: int, fmt: str = "text") -> None:
        size = sieve.family_size(family, n)
        argv = ["list", family, str(n)] + (["--format", "json"] if fmt == "json" else [])
        add(argv, size, size if fmt == "text" else 1,
            lambda out, rng: oracle.check_list(family, n, fmt, out, rng, sieve))

    if workload == "stream-dense":
        n = sizes["dense_n"]
        for family in ("compositions", "prime-compositions", "connection-sets"):
            add_list(family, n)
        add_list("compositions", n, "json")
    elif workload == "stream-sparse":
        for family in ("palindromes", "aperiodic-palindromes", "symmetric-connection-sets"):
            add_list(family, sizes["sparse_n"])
    elif workload == "verify":
        max_n = sizes["verify_max_n"]
        base = ["verify"] + ([] if max_n is None else ["--max-n", str(max_n)])
        checks = sum(sieve.verify_checks(max_n))
        for argv in (base, base + ["--workers", "2"]):
            add(argv, checks, len(oracle.SUITES),
                lambda out, rng: oracle.check_verify(out, max_n, sieve))
    elif workload == "export":
        rows, n = sizes["table_n"], sizes["graph_n"]
        for fmt in ("text", "json"):
            add(["table", str(rows), "--format", fmt], rows, rows + 1 if fmt == "text" else 1,
                lambda out, rng, fmt=fmt: oracle.check_table(rows, fmt, out, rng, sieve))
        rng = random.Random(f"graph/{seed}")
        steps = sorted(rng.sample(range(1, n), 2))
        a = rng.randrange(1, (n - 1) // 2 + 1)  # 2a < n, so a and n - a are distinct steps
        add(["graph", str(n), f"0,{steps[0]},{steps[1]}", "--format", "dot"], 2 * n, 3 * n + 2,
            lambda out, rng: oracle.check_dot(n, steps, out, rng))
        add(["graph", str(n), f"0,{a},{n - a}", "--mode", "graph", "--format", "edgelist"], n, n,
            lambda out, rng: oracle.check_edgelist(n, a, out, rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return commands


@dataclass
class Result:
    code: int
    out: bytes
    err: bytes
    wall: float
    rss_mb: float


class Launcher:
    """Runs CLI commands in child processes started by launcher.py.

    Use as a context manager; leaving it stops the launcher process.
    """

    def __enter__(self) -> Launcher:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), str(theirs.fileno())],
                cwd=ROOT, env=env, pass_fds=[theirs.fileno()])
        return self

    def __exit__(self, *exc: object) -> None:
        self.sock.close()
        self.proc.wait()

    def run(self, argv: list[str], timeout: float) -> Result:
        """One command: wall from spawn to exit, peak RSS, and its output."""
        request = {"argv": [sys.executable, "-m", "circomp.cli", *argv], "timeout": timeout}
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            socket.send_fds(self.sock, [json.dumps(request).encode()], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        err: list[bytes] = []
        with open(out_r, "rb") as out_f, open(err_r, "rb") as err_f:
            reader = threading.Thread(target=lambda: err.append(err_f.read()))
            reader.start()
            out = out_f.read()
            reader.join()
        reply = self.sock.recv(4096)
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        reply = json.loads(reply)
        return Result(reply["code"], out, err[0], reply["wall"], reply["rss_mb"])


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, with the sample count."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return f"no percentile has 10 samples beyond it ({len(ordered)} samples)"
    rank = len(ordered) - 11
    return f"p{100 * (rank + 1) // len(ordered)} {ordered[rank]:.4f} ({len(ordered)} samples)"


def reference_s() -> float:
    """Best of two walls of a fixed pure-Python loop: the machine's speed right now."""
    best = float("inf")
    for _ in range(2):
        t0, acc = time.perf_counter(), 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def scale(wall: float, ref_before: float, ref_after: float) -> float:
    """The wall a machine would show whose reference loop takes REF_NOMINAL_S."""
    return wall * REF_NOMINAL_S * 2 / (ref_before + ref_after)


def measure_setup(launcher: Launcher, deadline: float,
                  failures: list[str]) -> tuple[list[float], list[float]]:
    """Cold starts of `circomp count compositions 1`: interpreter plus import.

    Returns the walls and the scaled walls. The first start is not timed;
    it writes the bytecode cache, as a user's first run does once.
    """
    walls, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        ref_before = reference_s()
        r = launcher.run(["count", "compositions", "1"], deadline - time.perf_counter())
        ref_after = reference_s()
        if k:
            walls.append(r.wall)
            scaled.append(scale(r.wall, ref_before, ref_after))
        if r.code != 0 or r.out != b"1\n":
            failures.append(f"set-up command: exit {r.code}, output {r.out[:40]!r}")
    return walls, scaled


def measure(commands: list[Command], seconds: float, deadline: float,
            mangle: Callable[[int, bytes], bytes] | None = None) -> dict:
    """Repeat the command sequence while a further pass fits in `seconds`.

    Each command's figures are medians over passes, so a stall moves one
    sample rather than the result. A command's scaled wall divides out the
    reference loop's mean time just before and just after it; that cancels
    the speed phases of a shared machine, which last longer than a pass.
    The first output of each command is checked in full by the oracle; a
    later one is checked again only if its digest differs from the last
    that passed. `mangle` lets the self-test corrupt outputs.
    """
    failures: list[str] = []
    passed_digest: dict[int, bytes] = {}
    per_cmd = [{"wall": [], "scaled_wall": [], "rss_mb": [], "out_bytes": []} for _ in commands]
    with Launcher() as launcher:
        setup_walls, setup = measure_setup(launcher, deadline, failures)
        attempted = 1 + SETUP_RUNS  # set-up commands, the untimed first one included
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            ref_before = reference_s()
            for i, cmd in enumerate(commands):
                r = launcher.run(cmd.argv, max(1.0, deadline - time.perf_counter()))
                ref_after = reference_s()
                attempted += 1
                if mangle is not None:
                    r.out = mangle(i, r.out)
                if r.code != 0:
                    problem = f"exit {r.code}: {r.err.decode(errors='replace').strip()[-200:]}"
                else:
                    digest = hashlib.sha256(r.out).digest()
                    problem = None if passed_digest.get(i) == digest else cmd.check(r.out)
                    if problem is None:
                        passed_digest[i] = digest
                if problem is not None:
                    failures.append(f"{' '.join(cmd.argv)}: {problem}")
                sample = per_cmd[i]
                sample["wall"].append(r.wall)
                sample["scaled_wall"].append(scale(r.wall, ref_before, ref_after))
                sample["rss_mb"].append(r.rss_mb)
                sample["out_bytes"].append(len(r.out))
                ref_before = reference_s()
            now = time.perf_counter()
            took = now - p0
            if now - start + took > seconds or now + took > deadline:
                break

    def total(key: str) -> float:
        return sum(statistics.median(c[key]) for c in per_cmd)

    units, out_mb = sum(c.units for c in commands), total("out_bytes") / 1e6
    raw = {"setup_s": statistics.median(setup_walls), "wall_s": total("wall"),
           "items_per_s": units / total("wall"),
           "output_mb_per_s": out_mb / total("wall")}
    metrics = {
        "setup_s": statistics.median(setup),
        "scaled_wall_s": total("scaled_wall"),
        "scaled_items_per_s": units / total("scaled_wall"),
        "scaled_output_mb_per_s": out_mb / total("scaled_wall"),
        "peak_rss_mb": max(statistics.median(c["rss_mb"]) for c in per_cmd),
    }
    return {"metrics": metrics, "raw": raw, "attempted": attempted, "failures": failures,
            "passes": len(per_cmd[0]["wall"]), "setup": {"wall": setup_walls, "scaled_wall": setup},
            "per_command": per_cmd}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit}


def report(args: argparse.Namespace, commands: list[Command], res: dict, env: dict) -> None:
    """Human-readable lines before the final JSON line."""
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; closed loop, "
          f"1 client, one command at a time")
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if args.trace:
        idle = [name for name, value in res["metrics"].items() if not value]
        print(f"# {res['pairs']} untraced/traced in-process pair(s); per-layer metrics, "
              f"leaving out {len(idle)} that are 0 on this workload:")
        for name, value in res["metrics"].items():
            if value:
                print(f"{name} = {value:.6g} {layers.unit(name)}")
    else:
        print(f"# {res['passes']} pass(es); setup_s {tail(res['setup']['scaled_wall'])}")
        for cmd, walls in zip(commands, (c["wall"] for c in res["per_command"])):
            print(f"#   {' '.join(cmd.argv)}: median {statistics.median(walls):.4f} s, "
                  f"{tail(walls)}")
        if args.workload == "verify":
            w1, w2 = (statistics.median(c["wall"]) for c in res["per_command"])
            print(f"# verify_w1_s {w1:.4f}, verify_w2_s {w2:.4f}, parallel_speedup "
                  f"{w1 / w2:.3f}: 2 workers measured on {env['nproc']} shared cores")
        for name, value in res["metrics"].items():
            print(f"{name} = {value:.6g} {UNITS[name]}")
        print("# unscaled: " + ", ".join(f"{k} {v:.6g} {UNITS[k]}" for k, v in res["raw"].items()))
    print(f"# failed_frac {len(res['failures'])}/{res['attempted']}")
    for problem in res["failures"][:20]:
        print(f"# FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "circomp" / "cli.py").is_file():
        print(f"error: no circomp sources under {SRC}; run from a circomp checkout",
              file=sys.stderr)
        return 2

    commands = workload_commands(args.workload, args.seed, SIZES)
    if args.trace:
        sys.path.insert(0, str(SRC))
        res = layers.replay(commands, args.seconds, deadline)
    else:
        res = measure(commands, args.seconds, deadline)
    env = environment()
    report(args, commands, res, env)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, **res}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    unit = layers.unit if args.trace else UNITS.get
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
