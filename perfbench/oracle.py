"""Output oracle for the benchmark, written without circomp.

Every expected value here is derived from first principles: family sizes
from a Moebius sieve, family membership from the definitions, mask order
from the prefix sums of each word, verify check counts from the size of
each suite's universe, and graph lines from the arc rule i -> i + s.
A checker returns None when the output is right and a short reason when
it is not; the caller counts any reason as a failed command.
"""

from __future__ import annotations

import json
import math
import random

# Registry order of `circomp verify`: name, default ceiling, and the number
# of checks the suite reports at ceiling `top`, i.e. the size of the universe
# it walks. sum(2^(n-1), n = 1..top) = 2^top - 1 counts every word or set.
SUITES = (
    ("gap-word round trips", 14, lambda s, top: 2 * ((1 << top) - 1)),
    ("gcd preservation", 14, lambda s, top: (1 << top) - 1),
    ("symmetry vs palindromicity", 14, lambda s, top: (1 << top) - 1),
    ("connectivity oracle agreement", 12, lambda s, top: (1 << top) - 1),
    ("aperiodic palindrome bijection", 16,
     lambda s, top: sum(2 * s.aperiodic_palindromes(n) for n in range(2, top + 1))),
    ("count formulas vs enumeration", 20, lambda s, top: (1 << top) - 1),
    ("divisor-sum inversion identity", 64, lambda s, top: top),
    ("part-count refinement", 14, lambda s, top: (1 << top) - 1),
    ("common-factor scaling bijection", 16, lambda s, top: (1 << top) - 1),
    ("order-72 recomputation", None, lambda s, top: 3),
)

# The order-72 connected and disconnected counts as published, which the
# order-72 suite prints as a flagged discrepancy.
PUBLISHED_72 = (23_611_832_414_004_545_432_040, 34_368_074_808)

TABLE_COLUMNS = (
    "n", "compositions", "prime_compositions", "disconnected",
    "palindromes", "aperiodic_palindromes",
)

SAMPLE = 64  # sampled lines or rows re-derived per command, plus the first and last


class Sieve:
    """Smallest prime factors and Moebius values for 1..limit."""

    def __init__(self, limit: int) -> None:
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for m in range(p * p, limit + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        mu = [0, 1] + [0] * (limit - 1)
        for m in range(2, limit + 1):
            p = spf[m]
            rest = m // p
            mu[m] = 0 if rest % p == 0 else -mu[rest]
        self.spf, self.mu = spf, mu

    def divisors(self, n: int) -> list[int]:
        divs = [1]
        while n > 1:
            p, e = self.spf[n], 0
            while n % p == 0:
                n //= p
                e += 1
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)

    def coprime_words(self, n: int) -> int:
        return sum(self.mu[n // d] << (d - 1) for d in self.divisors(n))

    def aperiodic_palindromes(self, n: int) -> int:
        if n == 1:
            return 1
        return sum(self.mu[n // d] * ((1 << (d // 2)) - 1) for d in self.divisors(n))

    def family_size(self, family: str, n: int) -> int:
        if family in ("compositions", "connection-sets"):
            return 1 << (n - 1)
        if family == "prime-compositions":
            return self.coprime_words(n)
        if family in ("palindromes", "symmetric-connection-sets"):
            return 1 << (n // 2)
        if family == "aperiodic-palindromes":
            return self.aperiodic_palindromes(n)
        raise ValueError(f"no oracle for family {family!r}")

    def table_row(self, n: int) -> dict[str, int]:
        prime = self.coprime_words(n)
        return {
            "n": n,
            "compositions": 1 << (n - 1),
            "prime_compositions": prime,
            "disconnected": (1 << (n - 1)) - prime,
            "palindromes": 1 if n == 1 else 1 << (n // 2),
            "aperiodic_palindromes": self.aperiodic_palindromes(n),
        }

    def verify_checks(self, max_n: int | None) -> list[int]:
        """Check counts the suites report under `verify --max-n max_n`."""
        return [
            rule(self, default if max_n is None or default is None else min(default, max_n))
            for _, default, rule in SUITES
        ]


def sample_indices(count: int, rng: random.Random) -> list[int]:
    """Sorted seeded sample of positions in [0, count), always with both ends."""
    if count <= SAMPLE + 2:
        return list(range(count))
    return sorted({0, count - 1, *rng.sample(range(1, count - 1), SAMPLE)})


def _lines(out: bytes) -> list[str]:
    text = out.decode("ascii")
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return text[:-1].split("\n")


# --- list -------------------------------------------------------------------

def _mask_of_word(parts: list[int], n: int) -> int:
    if not parts or min(parts) < 1 or sum(parts) != n:
        raise ValueError(f"not a composition of {n}: {parts}")
    mask, pos = 0, 0
    for p in parts[:-1]:
        pos += p
        mask |= 1 << (pos - 1)
    return mask


def _mask_of_set(elems: list[int], n: int) -> int:
    if not elems or elems[0] != 0 or elems[-1] >= n or any(
        a >= b for a, b in zip(elems, elems[1:])
    ):
        raise ValueError(f"not a connection set of Z_{n}: {elems}")
    mask = 0
    for e in elems[1:]:
        mask |= 1 << (e - 1)
    return mask


def _is_member(family: str, n: int, item: list[int]) -> bool:
    """Family predicate on a parsed word or set whose shape is already checked."""
    if family == "symmetric-connection-sets":
        return set(item) == {(n - a) % n for a in item}
    if family == "prime-compositions":
        return math.gcd(*item) == 1
    if family in ("palindromes", "aperiodic-palindromes"):
        if item != item[::-1]:
            return False
        m = len(item)
        return family == "palindromes" or not any(
            m % p == 0 and item == item[:p] * (m // p) for p in range(1, m)
        )
    return True


def check_list(family: str, n: int, fmt: str, out: bytes, rng: random.Random,
               sieve: Sieve) -> str | None:
    """Size, member parse, strictly ascending mask order, and sampled membership."""
    sets = family.endswith("connection-sets")
    try:
        if fmt == "json":
            items = json.loads(out)
            if sets:
                items = [[n] + elems for elems in items]
        else:
            items = []
            for line in _lines(out):
                if sets:
                    head, sep, tail = line.partition(": ")
                    if not sep:
                        raise ValueError(f"bad set line {line!r}")
                    items.append([int(head)] + [int(t) for t in tail.split(",")])
                else:
                    items.append([int(t) for t in line.split(",")])
        want = sieve.family_size(family, n)
        if len(items) != want:
            return f"{len(items)} items, expected {want}"
        prev = -1
        for item in items:
            if sets:
                if item[0] != n:
                    return f"modulus {item[0]} != {n}"
                mask = _mask_of_set(item[1:], n)
            else:
                mask = _mask_of_word(item, n)
            if mask <= prev:
                return f"mask order broken at {item}"
            prev = mask
        for i in sample_indices(len(items), rng):
            item = items[i][1:] if sets else items[i]
            if not _is_member(family, n, item):
                return f"item {i} ({items[i]}) is not in {family}"
    except (ValueError, TypeError) as exc:
        return f"unparsable output: {exc}"
    return None


# --- verify -----------------------------------------------------------------

def check_verify(out: bytes, max_n: int | None, sieve: Sieve) -> str | None:
    """Ten PASS lines in registry order with the expected check counts."""
    try:
        lines = _lines(out)
    except ValueError as exc:
        return str(exc)
    if len(lines) != len(SUITES):
        return f"{len(lines)} lines, expected {len(SUITES)}"
    for line, (name, _, _), checks in zip(lines, SUITES, sieve.verify_checks(max_n)):
        head = f"PASS {name} ({checks} checks)"
        if not line.startswith(head):
            return f"expected {head!r}, got {line!r}"
    connected = sieve.coprime_words(72)
    for fact in (f"connected={connected} disconnected={(1 << 71) - connected}",
                 f"published figures {PUBLISHED_72[0]} and {PUBLISHED_72[1]} differ"):
        if fact not in lines[-1]:
            return f"order-72 line lacks {fact!r}"
    return None


# --- table ------------------------------------------------------------------

def check_table(max_n: int, fmt: str, out: bytes, rng: random.Random,
                sieve: Sieve) -> str | None:
    """Row count and order, and every value of the sampled rows re-derived."""
    try:
        if fmt == "json":
            rows = json.loads(out)
            if any(list(row) != list(TABLE_COLUMNS) for row in rows):
                return "json rows do not carry the table columns in order"
        else:
            lines = _lines(out)
            header = [c.replace("-", "_") for c in lines[0].split()]
            if header != list(TABLE_COLUMNS):
                return f"bad header {lines[0]!r}"
            cells = [line.split() for line in lines[1:]]
            if any(len(row) != len(TABLE_COLUMNS) for row in cells):
                return "row with a wrong number of cells"
            rows = [dict(zip(TABLE_COLUMNS, map(int, row))) for row in cells]
    except (ValueError, TypeError) as exc:
        return f"unparsable output: {exc}"
    if [row["n"] for row in rows] != list(range(1, max_n + 1)):
        return f"rows are not n = 1..{max_n}"
    for i in sample_indices(len(rows), rng):
        if rows[i] != sieve.table_row(i + 1):
            return f"row n={i + 1} differs from the closed forms"
    return None


# --- graph ------------------------------------------------------------------

def _digraph_arc(n: int, steps: list[int], k: int) -> tuple[int, int]:
    """The k-th arc in (source, target) order of the circulant digraph."""
    i = k // len(steps)
    return i, sorted((i + s) % n for s in steps)[k % len(steps)]


def _graph_edge(n: int, a: int, k: int) -> tuple[int, int]:
    """The k-th edge, low endpoint first, of the graph with steps a and n - a, 2a < n.

    Vertices below a have two higher neighbours (i + a and i + n - a);
    the rest have one (i + a) up to n - a, and none from there on.
    """
    if k < 2 * a:
        i = k // 2
        return (i, i + a) if k % 2 == 0 else (i, i + n - a)
    return k - a, k


def check_dot(n: int, steps: list[int], out: bytes, rng: random.Random) -> str | None:
    """Digraph DOT: header, n vertex lines, n * |steps| arc lines, closing brace."""
    try:
        lines = _lines(out)
    except ValueError as exc:
        return str(exc)
    arcs = n * len(steps)
    if len(lines) != n + arcs + 2:
        return f"{len(lines)} lines, expected {n + arcs + 2}"
    if lines[0] != "digraph {" or lines[-1] != "}":
        return "DOT header or footer missing"
    for v in sample_indices(n, rng):
        if lines[1 + v] != f"  {v};":
            return f"vertex line {v} is {lines[1 + v]!r}"
    for k in sample_indices(arcs, rng):
        i, j = _digraph_arc(n, steps, k)
        if lines[1 + n + k] != f"  {i} -> {j};":
            return f"arc line {k} is {lines[1 + n + k]!r}, expected {i} -> {j}"
    return None


def check_edgelist(n: int, a: int, out: bytes, rng: random.Random) -> str | None:
    """Undirected edge list of the graph with steps a, n - a: n lines, sampled exactly."""
    try:
        lines = _lines(out)
    except ValueError as exc:
        return str(exc)
    if len(lines) != n:
        return f"{len(lines)} edge lines, expected {n}"
    for k in sample_indices(n, rng):
        i, j = _graph_edge(n, a, k)
        if lines[k] != f"{i} {j}":
            return f"edge line {k} is {lines[k]!r}, expected {i} {j}"
    return None
