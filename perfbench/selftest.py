"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

For every workload it runs one untraced pass through the CLI and one
traced in-process pair, and expects no failures. It then corrupts each
command's output in two ways, dropping the last line or altering the
last digit of the last line that has one, and expects the oracle to
reject every corrupted output and a corrupted run to report failures.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys
import time

import run

TINY = {"dense_n": 8, "sparse_n": 10, "verify_max_n": 8, "table_n": 60, "graph_n": 1000}


def drop_last_line(out: bytes) -> bytes:
    lines = out.splitlines(keepends=True)
    return b"".join(lines[:-1])


def alter_last_digit(out: bytes) -> bytes:
    for pos in range(len(out) - 1, -1, -1):
        if 48 <= out[pos] <= 57:
            digit = (out[pos] - 48 + 1) % 10
            return out[:pos] + bytes([48 + digit]) + out[pos + 1:]
    raise ValueError("output has no digit to alter")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import layers

    problems = []
    deadline = time.perf_counter() + 600
    for workload in run.WORKLOADS:
        commands = run.workload_commands(workload, 7, TINY)
        clean = run.measure(commands, 0, deadline)
        problems += [f"{workload}: clean run failed: {p}" for p in clean["failures"]]

        traced = layers.replay(commands, 0, deadline)
        problems += [f"{workload}: traced replay failed: {p}" for p in traced["failures"]]
        exercised = [k for k, v in traced["metrics"].items() if v and k != "trace.overhead_ratio"]
        if not exercised:
            problems.append(f"{workload}: the traced replay recorded no layer")

        with run.Launcher() as launcher:
            outputs = [launcher.run(cmd.argv, 60).out for cmd in commands]
        for cmd, out in zip(commands, outputs):
            for corrupt in (drop_last_line, alter_last_digit):
                if cmd.check(corrupt(out)) is None:
                    problems.append(f"{workload}: {corrupt.__name__} on "
                                    f"{' '.join(cmd.argv)} was not caught")

        corrupted = run.measure(commands, 0, deadline,
                                mangle=lambda i, out: alter_last_digit(out) if i == 0 else out)
        frac = len(corrupted["failures"]) / corrupted["attempted"]
        print(f"{workload}: clean failed_frac {len(clean['failures'])}/{clean['attempted']}, "
              f"corrupted failed_frac {len(corrupted['failures'])}/{corrupted['attempted']}, "
              f"{len(exercised)} nonzero layer metrics traced")
        if frac == 0:
            problems.append(f"{workload}: a corrupted output left failed_frac at 0")

    verify_checks = run.oracle.Sieve(72).verify_checks(TINY["verify_max_n"])
    traced = layers.replay(run.workload_commands("verify", 7, TINY), 0, deadline)["metrics"]
    for (name, _, _), want in zip(run.oracle.SUITES, verify_checks):
        got = traced[f"verify.{layers.suite_slug(name)}.checks"]
        if got != want:
            problems.append(f"traced checks of {name!r}: {got}, expected {want}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
