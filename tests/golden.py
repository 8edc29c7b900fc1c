"""A golden corpus of the CLI's bytes: per case, the argv, the exit code, and
the sha256 and length of stdout and of stderr.

    python tests/golden.py --check   # run every case in a child process, compare
    python tests/golden.py --write   # run every case, rewrite tests/golden.json

Run it from the root of a checkout; it needs only `src/circomp`. Only
--write changes the data, so a change that moves output on purpose
rewrites it and names each moved case. The corpus pins the bytes of one
commit: it is a regression check, not an oracle. Tier-1 replays the cheap
cases in process through `cli.main` (tests/test_cli.py).

The cases: each `list` family at n = 1..16 in text and JSON, with no
limit and with a --limit at the edge of a kernel block (limit_at_an_edge);
the README's CLI examples; `verify --max-n 9` with 1 and 2 workers; and
the child-only `verify` runs at --max-n 19 with 1 and 2 workers and at
the default ceilings with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "golden.json"
SRC = HERE.parent / "src"

FAMILIES = (
    "compositions",
    "prime-compositions",
    "palindromes",
    "aperiodic-palindromes",
    "connection-sets",
    "symmetric-connection-sets",
)
DENSE = ("compositions", "prime-compositions", "connection-sets")
# Cases that take about a second alone, which Tier-1 leaves to --check.
CHILD_ONLY = (
    ["verify"],
    ["verify", "--max-n", "19", "--workers", "1"],
    ["verify", "--max-n", "19", "--workers", "2"],
    ["verify", "--workers", "2"],
)

# The README's CLI examples, the piped one left out, with its exit-code examples.
README = (
    ("count", "prime-compositions", "12"),
    ("count", "aperiodic-palindromes", "8"),
    ("list", "compositions", "5", "--limit", "3"),
    ("list", "aperiodic-palindromes", "4"),
    ("convert", "to-set", "2,1,2"),
    ("convert", "to-composition", "5: 0,2,3"),
    ("convert", "tau", "2,4,2"),
    ("convert", "tau-inv", "8: 0,1,7"),
    ("graph", "5", "0,1", "--format", "edgelist"),
    ("graph", "8", "0,4", "--mode", "graph"),
    ("table", "20"),
    ("table", "40", "--format", "json"),
    ("verify",),
    ("count", "compositions", "20000"),
    ("count", "compositions", "10**20"),
    ("table", "50001"),
    ("convert", "tau", "4000001"),
    ("count", "prime-compositions", "1000000000000000003"),
)


def limit_at_an_edge(family: str, n: int) -> int:
    """A --limit that ends exactly at a kernel block.

    A dense family's first high half comes as its boundary classes of
    1, 1, 2, 4, ... members, so 2^floor((n-1)/2) members end class
    floor((n-1)/2), which n <= 16 keeps inside the first high half; at
    prime-compositions the classes are cut by gcd, and the limit still
    cuts inside or at the end of one. A palindromic family's members come
    2^10 to a block, so below n = 21 its only block ends at its last member.
    """
    if family in DENSE:
        return 1 << (n - 1) // 2
    if family == "symmetric-connection-sets":
        family = "palindromes"
    from circomp import counting

    count = counting._FAMILY_TABLE[family.replace("-", "_")].count
    return count(n) if n >= 2 else 1


def cases() -> list[list[str]]:
    """Every case's argv, in the corpus's order; --write records them, --check reads them back."""
    argvs = []
    for family in FAMILIES:
        for n in range(1, 17):
            for fmt in ("text", "json"):
                base = ["list", family, str(n), "--format", fmt]
                argvs += [base, base + ["--limit", str(limit_at_an_edge(family, n))]]
    argvs += [list(argv) for argv in README]
    argvs += [["verify", "--max-n", "9", "--workers", w] for w in ("1", "2")]
    argvs += [argv for argv in CHILD_ONLY if argv not in argvs]
    return argvs


def record(argv: list[str], code: int, out: bytes, err: bytes) -> dict:
    """One case's entry: argv, exit code, and each stream's sha256 and byte length."""
    return {
        "argv": argv,
        "code": code,
        "stdout": {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)},
        "stderr": {"sha256": hashlib.sha256(err).hexdigest(), "bytes": len(err)},
    }


def run_child(argv: list[str]) -> dict:
    """Run one case as `python -m circomp.cli` in a fresh process and record it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-m", "circomp.cli", *argv], env=env, capture_output=True)
    return record(argv, done.returncode, done.stdout, done.stderr)


def load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare every case with the data")
    mode.add_argument("--write", action="store_true", help="rewrite the data from this checkout")
    args = parser.parse_args(argv)
    if args.write:
        sys.path.insert(0, str(SRC))  # limit_at_an_edge reads the family sizes
        got = [run_child(case) for case in cases()]
        DATA.write_text("[\n" + ",\n".join(map(json.dumps, got)) + "\n]\n", encoding="utf-8")
        print(f"wrote {len(got)} cases to {DATA.name}")
        return 0
    want = load()
    moved = [w["argv"] for w in want if run_child(w["argv"]) != w]
    for case in moved:
        print("moved:", " ".join(case))
    print(f"{len(want) - len(moved)} of {len(want)} cases unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
