"""Exhaustive self-check suites over complete small universes.

Each suite re-derives one structural claim by brute force (independent
enumeration, traversal, or tallying) and compares it with what the
library computes. Suites report the first counterexample they hit, so a
deliberately broken predicate names the witness that refutes it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterator

from .compositions import Composition
from .circulant import ConnectionSet, build_digraph, is_connected_by_gcd
from .bijections import (
    gap_composition,
    prefix_sum_set,
    connected_set_of,
    aperiodic_palindrome_of,
)
from .counting import (
    count_aperiodic_palindromes,
    count_compositions,
    count_compositions_with_parts,
    count_palindromes,
    count_prime_compositions,
    count_disconnected_compositions,
    divisors,
    iter_family,
)

# Previously published order-72 figures; both disagree with the counting
# formulas and with the published n <= 20 table those formulas reproduce,
# so the order-72 suite recomputes and flags them instead of asserting them.
PUBLISHED_72_CONNECTED = 23_611_832_414_004_545_432_040
PUBLISHED_72_DISCONNECTED = 34_368_074_808


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    counterexample: str | None = None
    detail: str | None = None


def _brute_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Every composition of n by direct recursion on the first part.

    Deliberately avoids the bitmask machinery so it can serve as an
    independent second route.
    """
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _brute_compositions(n - first):
            yield (first,) + rest


def suite_round_trips(max_n: int = 14) -> SuiteResult:
    """Gap word and prefix-sum set invert each other, preserving part counts."""
    name = "gap-word round trips"
    checked = 0
    for n in range(1, max_n + 1):
        for s in iter_family(n, "connection_sets"):
            c = gap_composition(s)
            checked += 1
            if c.total != n or c.part_count != s.size or prefix_sum_set(c) != s:
                return SuiteResult(name, False, checked, f"n={n}, set {s}")
        for parts in _brute_compositions(n):
            c = Composition(parts)
            checked += 1
            if gap_composition(prefix_sum_set(c)) != c:
                return SuiteResult(name, False, checked, f"n={n}, word {c}")
    return SuiteResult(name, True, checked)


def suite_gcd_preservation(max_n: int = 14) -> SuiteResult:
    """The gap word of a set has the same gcd as the set itself."""
    name = "gcd preservation"
    checked = 0
    for n in range(1, max_n + 1):
        for s in iter_family(n, "connection_sets"):
            checked += 1
            if gap_composition(s).gcd() != s.gcd():
                return SuiteResult(name, False, checked, f"n={n}, set {s}")
    return SuiteResult(name, True, checked)


def suite_symmetry_palindrome(max_n: int = 14) -> SuiteResult:
    """A set is symmetric exactly when its gap word is a palindrome."""
    name = "symmetry vs palindromicity"
    checked = 0
    for n in range(1, max_n + 1):
        for s in iter_family(n, "connection_sets"):
            checked += 1
            if s.is_symmetric() != gap_composition(s).is_palindrome():
                return SuiteResult(name, False, checked, f"n={n}, set {s}")
    return SuiteResult(name, True, checked)


def suite_connectivity(
    max_n: int = 12,
    min_n: int = 1,
    strong_max_n: int = 10,
    connected_by_gcd: Callable[[ConnectionSet], bool] = is_connected_by_gcd,
) -> SuiteResult:
    """The gcd criterion agrees with traversal on every set; weak equals strong.

    ``connected_by_gcd`` is injectable so a broken variant can be shown
    to fail with a named witness.
    """
    name = "connectivity oracle agreement"
    checked = 0
    for n in range(min_n, max_n + 1):
        for s in iter_family(n, "connection_sets"):
            g = build_digraph(s)
            weak = g.is_connected()
            checked += 1
            if connected_by_gcd(s) != weak:
                return SuiteResult(
                    name, False, checked,
                    f"n={n}, set {s}: gcd criterion {connected_by_gcd(s)}, traversal {weak}",
                )
            if n <= strong_max_n and g.is_strongly_connected() != weak:
                return SuiteResult(name, False, checked, f"n={n}, set {s}: weak != strong")
    return SuiteResult(name, True, checked)


def suite_palindrome_bijection(max_n: int = 16) -> SuiteResult:
    """Aperiodic palindromes map one-to-one onto symmetric generating sets."""
    name = "aperiodic palindrome bijection"
    checked = 0
    for n in range(2, max_n + 1):
        aperiodic = list(iter_family(n, "aperiodic_palindromes"))
        targets = {
            s for s in iter_family(n, "connection_sets") if s.is_symmetric() and s.gcd() == 1
        }
        images = []
        for c in aperiodic:
            try:
                images.append(connected_set_of(c))
            except ValueError as exc:  # the stream yielded a word outside the domain
                return SuiteResult(name, False, checked, f"n={n}, word {c}: {exc}")
        checked += len(aperiodic) + len(targets)
        if len(set(images)) != len(images):
            return SuiteResult(name, False, checked, f"n={n}: images collide")
        if set(images) != targets:
            stray = set(images) ^ targets
            return SuiteResult(name, False, checked, f"n={n}: image mismatch at {min(stray)}")
        if len(aperiodic) != count_aperiodic_palindromes(n):
            return SuiteResult(
                name, False, checked,
                f"n={n}: {len(aperiodic)} enumerated vs {count_aperiodic_palindromes(n)} counted",
            )
        for c in aperiodic:
            if aperiodic_palindrome_of(connected_set_of(c)) != c:
                return SuiteResult(name, False, checked, f"n={n}, word {c}")
        for s in targets:
            if connected_set_of(aperiodic_palindrome_of(s)) != s:
                return SuiteResult(name, False, checked, f"n={n}, set {s}")
    return SuiteResult(name, True, checked)


def suite_count_oracles(max_n: int = 20) -> SuiteResult:
    """Closed-form counts equal the lengths of the enumerated families.

    The palindromes are also found by filtering the full compositions
    scan, which must reproduce the directly generated stream item for item.
    """
    name = "count formulas vs enumeration"
    checked = 0
    for n in range(1, max_n + 1):
        prime = 0
        scanned_pals = []
        for c in iter_family(n, "compositions"):
            if c.gcd() == 1:
                prime += 1
            if c.is_palindrome():
                scanned_pals.append(c)
        checked += count_compositions(n)
        if prime != count_prime_compositions(n):
            return SuiteResult(
                name, False, checked,
                f"n={n}: {prime} coprime words enumerated vs {count_prime_compositions(n)} counted",
            )
        if n < 2:
            continue
        pals = list(iter_family(n, "palindromes"))
        if pals != scanned_pals:
            stray = next((a, b) for a, b in zip_longest(pals, scanned_pals) if a != b)
            return SuiteResult(
                name, False, checked,
                f"n={n}: palindrome stream gives {stray[0]} where the scan gives {stray[1]}",
            )
        if len(pals) != count_palindromes(n):
            return SuiteResult(
                name, False, checked,
                f"n={n}: {len(pals)} palindromes enumerated vs {count_palindromes(n)} counted",
            )
        aperiodic = sum(1 for c in pals if c.is_aperiodic())
        if aperiodic != count_aperiodic_palindromes(n):
            return SuiteResult(
                name, False, checked,
                f"n={n}: {aperiodic} aperiodic enumerated vs {count_aperiodic_palindromes(n)} counted",
            )
    return SuiteResult(name, True, checked)


def suite_moebius_inversion(max_n: int = 64) -> SuiteResult:
    """Summing the coprime-word count over divisors recovers 2^(n-1)."""
    name = "divisor-sum inversion identity"
    checked = 0
    for n in range(1, max_n + 1):
        checked += 1
        total = sum(count_prime_compositions(d) for d in divisors(n))
        if total != count_compositions(n):
            return SuiteResult(name, False, checked, f"n={n}: {total} != 2^{n - 1}")
    return SuiteResult(name, True, checked)


def suite_part_refinement(max_n: int = 14) -> SuiteResult:
    """Binomial part counts match brute-force tallies and sum to 2^(n-1)."""
    name = "part-count refinement"
    checked = 0
    for n in range(1, max_n + 1):
        tally: dict[int, int] = {}
        for parts in _brute_compositions(n):
            tally[len(parts)] = tally.get(len(parts), 0) + 1
            checked += 1
        for k in range(1, n + 1):
            if tally.get(k, 0) != count_compositions_with_parts(n, k):
                return SuiteResult(name, False, checked, f"n={n}, k={k}")
        if sum(tally.values()) != count_compositions(n):
            return SuiteResult(name, False, checked, f"n={n}: row sum")
    return SuiteResult(name, True, checked)


def suite_scaling_bijection(max_n: int = 16) -> SuiteResult:
    """Dividing by the gcd maps words with gcd d one-to-one onto coprime words of n/d."""
    name = "common-factor scaling bijection"
    checked = 0
    for n in range(1, max_n + 1):
        by_gcd: dict[int, set[tuple[int, ...]]] = {}
        for c in iter_family(n, "compositions"):
            by_gcd.setdefault(c.gcd(), set()).add(c.parts)
            checked += 1
        for d, words in by_gcd.items():
            images = {tuple(p // d for p in parts) for parts in words}
            if len(images) != len(words):
                return SuiteResult(name, False, checked, f"n={n}, d={d}: images collide")
            target = {c.parts for c in iter_family(n // d, "compositions") if c.gcd() == 1}
            if images != target:
                return SuiteResult(name, False, checked, f"n={n}, d={d}: image mismatch")
    return SuiteResult(name, True, checked)


def suite_order_72(_max_n: int | None = None) -> SuiteResult:
    """Recompute the order-72 counts and flag the published figures.

    Passing means the formula output is self-consistent (connected plus
    disconnected is 2^71, and the proper-divisor route agrees); the
    published digits are reported alongside because they differ.
    """
    name = "order-72 recomputation"
    connected = count_prime_compositions(72)
    disconnected = count_disconnected_compositions(72)
    divisor_route = sum(count_prime_compositions(d) for d in divisors(72) if d != 72)
    ok = connected + disconnected == count_compositions(72) and disconnected == divisor_route
    detail = (
        f"connected={connected} disconnected={disconnected}; published figures "
        f"{PUBLISHED_72_CONNECTED} and {PUBLISHED_72_DISCONNECTED} differ from the formula values"
    )
    if not ok:
        return SuiteResult(name, False, 3, "order-72 totals are not self-consistent", detail)
    return SuiteResult(name, True, 3, None, detail)


# (display name, suite, default ceiling); a user-supplied --max-n lowers
# the ceilings but never raises them past the under-a-minute defaults.
SUITES: tuple[tuple[str, Callable[..., SuiteResult], int | None], ...] = (
    ("gap-word round trips", suite_round_trips, 14),
    ("gcd preservation", suite_gcd_preservation, 14),
    ("symmetry vs palindromicity", suite_symmetry_palindrome, 14),
    ("connectivity oracle agreement", suite_connectivity, 12),
    ("aperiodic palindrome bijection", suite_palindrome_bijection, 16),
    ("count formulas vs enumeration", suite_count_oracles, 20),
    ("divisor-sum inversion identity", suite_moebius_inversion, 64),
    ("part-count refinement", suite_part_refinement, 14),
    ("common-factor scaling bijection", suite_scaling_bijection, 16),
    ("order-72 recomputation", suite_order_72, None),
)


def _run_one(index: int, max_n: int | None) -> SuiteResult:
    _, fn, default = SUITES[index]
    if default is None:
        return fn()
    ceiling = default if max_n is None else min(default, max_n)
    return fn(ceiling)


def run_suites(max_n: int | None = None, workers: int = 1) -> list[SuiteResult]:
    """Run every suite, optionally sharded across worker processes.

    Results come back in registry order regardless of completion order,
    so reports are deterministic.
    """
    if max_n is not None and max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {max_n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    indices = range(len(SUITES))
    if workers == 1:
        return [_run_one(i, max_n) for i in indices]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, indices, [max_n] * len(SUITES)))
