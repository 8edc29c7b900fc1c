"""Tier-1's brute-force references, each written once; none reads the block kernel.

Tier-1 owns the recursion on the first part and the per-mask gap loop. `verify`
owns the successor walk and the per-mask set rule, which all_sets reads.
"""

import random
from functools import partial

from circomp.circulant import ConnectionSet
from circomp.compositions import Composition
from circomp.verify import _set_of_mask


def brute_compositions(n):
    """Every composition of n by recursion on the first part."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in brute_compositions(n - first):
            yield (first,) + rest


def aperiodic_palindromes(n):
    """The aperiodic palindromes of n, filtered from the recursion."""
    return [Composition(p) for p in brute_compositions(n) if p == p[::-1] and Composition(p).is_aperiodic()]


def gaps_of_mask(n, mask):
    """Cyclic gap word of the set {0} | {i+1 : bit i of mask set}, one bit at a time."""
    parts = []
    prev = 0
    while mask:
        low = mask & -mask
        pos = low.bit_length()
        parts.append(pos - prev)
        prev = pos
        mask ^= low
    parts.append(n - prev)
    return tuple(parts)


def low_masks(n):
    """Deliberately broken generator: the right number of words, from mostly the wrong masks."""
    return (gaps_of_mask(n, m) for m in range(1 << (n // 2)))


def all_sets(n):
    """Every connection set of Z_n, in mask order."""
    return map(partial(_set_of_mask, n), range(1 << (n - 1)))


def many_step_sets(count, seed):
    """Random sets up to n = 300 with up to n - 1 steps, and their symmetric closures."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 301)
        members = {0, *rng.sample(range(1, n), rng.randrange(1, n))}
        yield ConnectionSet.from_members(n, members)
        yield ConnectionSet.from_members(n, members | {n - m for m in members})


def negated(s):
    """The set {-a mod n : a in s}; an involution that fixes 0, equal to s iff s is symmetric."""
    n = s.modulus
    return ConnectionSet(n, tuple(sorted((n - a) % n for a in s.elements)))


def reaches_all(n, offsets):
    """Whether a depth-first walk from 0 by the offsets, one arc at a time, reaches all of Z_n."""
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        i = stack.pop()
        for s in offsets:
            j = (i + s) % n
            if not seen[j]:
                seen[j] = 1
                count += 1
                stack.append(j)
    return count == n


def walked_connected(g):
    """Weak connectivity of the digraph by the arc-at-a-time walk, each arc followed both ways."""
    return reaches_all(g.order, g.steps + tuple(-s for s in g.steps))


def walked_strongly_connected(g):
    """Strong connectivity by the arc-at-a-time walk: 0 reaches every vertex, and every vertex reaches 0."""
    return reaches_all(g.order, g.steps) and reaches_all(g.order, tuple(-s for s in g.steps))


def arc_rule(g):
    """The arcs i -> i + s mod n, sorted: the definition, with no runs."""
    n = g.order
    return sorted((i, (i + s) % n) for i in range(n) for s in g.steps)


def edge_rule(g):
    """Each unordered pair {i, i + s mod n} once, low end first, sorted."""
    return sorted({tuple(sorted(arc)) for arc in arc_rule(g)})
