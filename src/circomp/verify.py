"""Exhaustive self-check suites over complete small universes.

Each suite re-derives one structural claim by brute force (independent
enumeration, traversal, or tallying) and compares it with what the
library computes. Suites report the first counterexample they hit, so a
deliberately broken predicate names the witness that refutes it.
"""

from __future__ import annotations

import math
import time
from collections import Counter, namedtuple
from collections.abc import Callable, Generator, Iterable, Iterator
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat, starmap, zip_longest
from operator import add, sub

from . import counting
from .compositions import Composition
from .circulant import ConnectionSet, build_digraph, is_connected_by_gcd
from .bijections import aperiodic_palindrome_of, connected_set_of, gap_composition, prefix_sum_set
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


# One suite's outcome. ceiling is the order a unit ran at, or a merged suite's
# top order, failing or not; counterexample and detail are str or None. seconds
# is the time of the unit's checks; where a `_one_pass` of the caller's `passes`
# served a unit, the round trips are charged its shared read, and each other
# suite its own checks.
SuiteResult = namedtuple(
    "SuiteResult", ("name", "passed", "checked", "ceiling", "counterexample", "detail", "seconds")
)


Checks = Iterator[tuple[int, str | None]]


def _run_order(name: str, checks: Callable[[int], Checks], n: int, passes: dict | None = None) -> SuiteResult:
    """Suite ``name`` at order n alone: run ``checks(n)`` and add up the checks made.

    A check body yields (checks made, None) as it goes and (checks made,
    counterexample) at a failure, where the run stops; it may return a
    detail. A body that raises fails with the error as its counterexample,
    named by its type unless a library call rejected its input (ValueError).
    Given `passes`, a dict n -> `_one_pass(n)` that one `run_suites` call or
    pool task owns, the first `_ONE_PASS` unit at order n runs `_one_pass(n)`
    into it, and each such unit takes its passing result from it; where
    the pass gave up, or with no `passes`, the unit runs its body.
    """
    if passes is not None and checks in _ONE_PASS:
        if n not in passes:
            passes[n] = _one_pass(n)
        if passes[n] is not None:
            made, seconds = passes[n][checks]
            return SuiteResult(name, True, made, n, None, None, seconds)
    start, checked, counterexample, detail = time.perf_counter(), 0, None, None
    try:
        body = checks(n)
        while counterexample is None:
            made, counterexample = next(body)
            checked += made
    except StopIteration as stop:
        detail = stop.value
    except ValueError as exc:
        counterexample = f"n={n}: {exc}"
    except Exception as exc:
        counterexample = f"n={n}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return SuiteResult(name, counterexample is None, checked, n, counterexample, detail, seconds)


def _successor(word: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The gap word of mask m + 1, built from `word`, that of mask m.

    If m has t trailing one bits, its word is t ones, a part g >= 2, then
    the rest; adding 1 clears those bits and sets bit t, so the word of
    m + 1 is (t + 1, g - 1) followed by the same rest.
    """
    t = (m ^ (m + 1)).bit_length() - 1
    return (t + 1, word[t] - 1) + word[t + 1 :]


def _successor_words(n: int) -> Iterator[tuple[int, ...]]:
    """The gap words of masks 0, 1, ..., 2^(n-1) - 1, each the `_successor` of the last.

    Mask 0 is the set {0}, whose word is (n,). Uses no bit loop over the
    mask, so it is a route independent of the kernel and of the per-mask
    decoding. It is the base of `_successor_chunks`, the route through
    which the round-trip, count and part-count suites enumerate the
    compositions of n.
    """
    word = (n,)
    yield word
    for m in range((1 << (n - 1)) - 1):
        word = _successor(word, m)
        yield word


# Masks per chunk of the successor walk, of `_mask_chunks` and of the kernel
# streams `_one_pass` compares with them. At 2^10, the `verify --max-n 19`
# process peaked 0.5 MB higher, and ran no faster.
_CHUNK = 1 << 8

# The count suite, the scaling suite and the symmetric-generator scan read the
# kernel a boundary class at a time from this order up. It is the first order
# with more than one chunk, and above the kill matrix's max_n = 9, so each
# per-word route, the oracle of its class route and the route an order reruns
# when a block strays, still runs at every order the matrix reaches.
_BY_CLASS_FROM = 10


def _walk_blocks(n: int, k: int) -> Iterator[tuple[int, tuple, tuple[int, ...]]]:
    """The successor walk's words at order n as the kernel's boundary classes, each (p, heads, rest).

    The low k < n bits of a mask spell the first parts of its word, as at
    order k + 1. Class p holds the low bits of top bit p - 1, masks
    [2^(p-1), 2^p) at order k + 1, whose last part there is k + 1 - p:
    its heads are those words without it, and class 0's one head is ().
    Let a high half's first word, of mask j * 2^k, be (a,) + R. Then the
    half yields (p, heads, (a - p,) + R) for p = 0..k, each member being
    head + rest, and the next half's first word is the `_successor` of
    this half's last one. Class p's heads are one tuple in every half.
    The heads come only from `_successor_words`, so the route stays
    independent of the kernel, and no step loops over the bits of a mask.
    A walk at order k + 1 that ends early leaves a class short of its
    2^(p-1) heads: the blocks stop after that class in the first half,
    so no carry reads a word of the wrong mask.
    """
    words = _successor_words(k + 1)
    next(words, None)  # mask 0's word: each high half's first word takes its place
    heads = [((),)] + [tuple(w[:-1] for w in islice(words, 1 << (p - 1))) for p in range(1, k + 1)]
    short = next((p for p, top in enumerate(heads) if p and len(top) < 1 << (p - 1)), None)
    word = (n,)
    for m in range(0, 1 << (n - 1), 1 << k):  # m: the high half's first mask
        if m:
            word = _successor(heads[k][-1] + (word[0] - k,) + word[1:], m - 1)
        a, rest = word[0], word[1:]
        for p, top in enumerate(heads):
            yield p, top, (a - p,) + rest
            if p == short:
                return


def _successor_chunks(n: int) -> Iterator[list[tuple[int, ...]]]:
    """The successor walk's words in lists of _CHUNK = 2^8, chunk j starting at mask j * 2^8.

    Up to n = 9 the walk is one chunk of its own words. Past it, chunk j
    is the words of high half j of `_walk_blocks(n, 8)`, its 9 classes in
    order.
    """
    low = _CHUNK.bit_length()  # 9: the order whose 2^8 words spell a chunk's low bits
    if n <= low:
        yield list(_successor_words(n))
        return
    blocks = _walk_blocks(n, low - 1)
    for _ in range(1 << (n - low)):
        chunk = []
        for _, heads, rest in islice(blocks, low):
            chunk += map(add, heads, repeat(rest))
        yield chunk


def _set_of_mask(n: int, mask: int) -> ConnectionSet:
    """The connection set {0} | {i+1 : bit i of mask set} over Z_n, validated.

    The per-mask rule, one bit at a time: `_mask_chunks` decodes every
    mask's low and high bits by it, and tests/references.py reads it.
    """
    elems = [0]
    pos = 1
    while mask:
        if mask & 1:
            elems.append(pos)
        mask >>= 1
        pos += 1
    return ConnectionSet(n, tuple(elems))


def _mask_chunks(n: int) -> Iterator[list[tuple[int, ...]]]:
    """The element tuples of `_set_of_mask` in lists of _CHUNK = 2^8, chunk j starting at mask j * 2^8.

    Bits 0..7 of a mask spell its elements 1..8 and the higher bits its
    elements from 9 up, so the tuple of mask j * 2^8 + r is the tuple of
    r followed by the nonzero elements of j * 2^8. The bit loop decodes
    each low pattern r once per call and each chunk's high bits once per
    chunk; a chunk is then one map over the low tuples. The route reads
    nothing of the kernel, so it is the round trips' oracle for it.
    """
    total = 1 << (n - 1)
    low = [_set_of_mask(n, r).elements for r in range(min(_CHUNK, total))]
    for start in range(0, total, _CHUNK):
        yield list(map(add, low, repeat(_set_of_mask(n, start).elements[1:])))


def _spelled(word: tuple[int, ...] | None) -> str:
    """A raw word as its Composition prints; None where a stream ran out."""
    return "None" if word is None else ",".join(map(str, word))


def _trip_streams(n: int) -> tuple[Iterator, Iterator, Iterator, Iterator]:
    """The kernel's sets, the mask route's tuples, the walk's words and the kernel's compositions, in mask order."""
    return (
        iter_family(n, "connection_sets"),
        chain.from_iterable(_mask_chunks(n)),
        chain.from_iterable(_successor_chunks(n)),
        counting._words(n, "compositions"),
    )


def _round_trips(n: int) -> Checks:
    """Gap word and prefix-sum set invert each other, preserving part counts.

    Reads the `_trip_streams` in lockstep with the masks, one mask at a
    time, so a stream that strays, runs short or runs past the masks
    fails where it does. Each set must equal the mask route's, come back
    from its gap word with n and its size kept, and that gap word must be
    the walk's word at the same mask, which implies that every walk word
    round-trips too; 2 checks per mask. The kernel's composition at the
    mask must then be that gap word.
    """
    for m, s, t, w, k in zip_longest(range(count_compositions(n)), *_trip_streams(n)):
        # Unvalidated, so that a malformed route tuple is named at its mask.
        want = None if t is None else ConnectionSet._unchecked(n, t)
        if s != want:
            yield 0, f"n={n}, mask {m}: the kernel gives {s}, the mask route {want}"
        if s is None:
            stray = f"the walk gives {_spelled(w)}" if w is not None or k is None else f"the kernel gives {_spelled(k)}"
            yield 0, f"n={n}, mask None: {stray} past the last mask"
        c = gap_composition(s)
        bad = c.total != n or c.part_count != s.size or prefix_sum_set(c) != s
        yield 1, f"n={n}, set {s}" if bad else None
        yield 1, None if c.parts == w else f"n={n}, mask {m}: the gap word is {c}, the walk {_spelled(w)}"
        if k != c.parts:
            yield 0, f"n={n}, mask {m}: the kernel's composition is {_spelled(k)}, the gap word {c}"


def _gcd_preservation(n: int) -> Checks:
    """The gap word of a set has the same gcd as the set itself."""
    for s in iter_family(n, "connection_sets"):
        yield 1, f"n={n}, set {s}" if gap_composition(s).gcd() != s.gcd() else None


def _symmetry_palindrome(n: int) -> Checks:
    """A set is symmetric exactly when its gap word is a palindrome.

    The symmetric sets are also counted, and must number count_palindromes(n).
    Filtered from the scan, they must reproduce the symmetric-set stream
    item for item.
    """
    scanned = []
    for s in iter_family(n, "connection_sets"):
        is_symmetric = s.is_symmetric()
        if is_symmetric:
            scanned.append(s)
        yield 1, f"n={n}, set {s}" if is_symmetric != gap_composition(s).is_palindrome() else None
    if len(scanned) != count_palindromes(n):
        yield 0, f"n={n}: {len(scanned)} symmetric sets vs {count_palindromes(n)} counted"
    streamed = list(iter_family(n, "symmetric_connection_sets")) if n > 1 else scanned
    if streamed != scanned:
        stray = next((a, b) for a, b in zip_longest(streamed, scanned) if a != b)
        yield 0, f"n={n}: symmetric set stream gives {stray[0]} where the scan gives {stray[1]}"


# The suites `_one_pass` checks together, in registry order: they are SUITES' first three.
_ONE_PASS = (_round_trips, _gcd_preservation, _symmetry_palindrome)


def _one_pass(n: int) -> dict[Callable[[int], Checks], tuple[int, float]] | None:
    """The checks and seconds of each `_ONE_PASS` suite at order n, from one read of the kernel's sets; None on any doubt.

    Reads the `_trip_streams` in lockstep, _CHUNK masks at a time and up
    to one chunk past the last mask, and holds each chunk to every
    round-trip check at once, a list comparison per check. Its gap words
    are then held to the sets' gcds and their palindromicity to the sets'
    symmetry, as the other two bodies hold them set by set, and the
    symmetric sets are counted and compared with their stream at the end.
    Any difference or error gives None, and each suite then runs its own
    body, which names the counterexample. The round trips are charged the
    shared read, and each other suite the time of its own checks.
    """
    clock = time.perf_counter
    start, made, gcd_s, symmetry_s, symmetric = clock(), 0, 0.0, 0.0, []
    try:
        streams = _trip_streams(n)
        for _ in range(0, count_compositions(n) + 1, _CHUNK):
            chunk, tuples, words, kernel = (list(islice(stream, _CHUNK)) for stream in streams)
            if not (all(s.modulus == n for s in chunk) and [s.elements for s in chunk] == tuples):
                return None
            comps = list(map(gap_composition, chunk))
            parts = [c.parts for c in comps]
            if not (
                parts == words == kernel
                and list(map(sum, parts)) == [n] * len(parts)
                and list(map(len, parts)) == list(map(len, tuples))
                and list(map(prefix_sum_set, comps)) == chunk
            ):
                return None
            t0 = clock()
            if [c.gcd() for c in comps] != [s.gcd() for s in chunk]:
                return None
            t1 = clock()
            flags = [s.is_symmetric() for s in chunk]
            if flags != [c.is_palindrome() for c in comps]:
                return None
            symmetric += compress(chunk, flags)
            made += len(chunk)
            gcd_s += t1 - t0
            symmetry_s += clock() - t1
        t1 = clock()
        if len(symmetric) != count_palindromes(n):
            return None
        if n > 1 and list(iter_family(n, "symmetric_connection_sets")) != symmetric:
            return None
        symmetry_s += clock() - t1
    except Exception:  # each body then meets the error again and reports it
        return None
    round_trips_s = clock() - start - gcd_s - symmetry_s
    return dict(zip(_ONE_PASS, ((2 * made, round_trips_s), (made, gcd_s), (made, symmetry_s))))


def _connectivity(n: int) -> Checks:
    """The gcd criterion agrees with traversal on every set; weak equals strong up to n = 10."""
    for s in iter_family(n, "connection_sets"):
        g = build_digraph(s)
        weak = g.is_connected()
        if is_connected_by_gcd(s) != weak:
            yield 1, f"n={n}, set {s}: gcd criterion {is_connected_by_gcd(s)}, traversal {weak}"
        elif n <= 10 and g.is_strongly_connected() != weak:
            yield 1, f"n={n}, set {s}: weak != strong"
        else:
            yield 1, None


def _symmetric_generator(n: int, t: tuple[int, ...]) -> bool:
    """Whether the raw element tuple t is a symmetric set that generates Z_n.

    A set is symmetric iff its nonzero elements, reversed, are n minus
    each, and it generates Z_n iff gcd(n, *elements) is 1. A set whose
    first and last nonzero elements do not sum to n fails the first test,
    so no tuple is built for it.
    """
    return (
        (len(t) == 1 or t[1] + t[-1] == n)
        and t[:0:-1] == tuple(map(n.__sub__, t[1:]))
        and math.gcd(n, *t) == 1
    )


def _scanned_generators(n: int, tuples: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The tuples that are symmetric generating sets of Z_n, tested one by one."""
    return filter(partial(_symmetric_generator, n), tuples)


def _symmetric_generators(n: int) -> Iterator[tuple[int, ...]]:
    """The symmetric sets that generate Z_n, as raw element tuples in mask order.

    A scan of the kernel's tuples of all 2^(n-1) connection sets, with no
    tuple wrapped. Below _BY_CLASS_FROM every tuple is tested
    (`_scanned_generators`); from there a boundary class at a time,
    through its gap words and the count suite's `_mirror_table`
    (`_mirrored_generators`).
    """
    if n < _BY_CLASS_FROM:
        return _scanned_generators(n, counting._words(n, "connection_sets"))
    return _mirrored_generators(n)


def _mirrored_generators(n: int) -> Iterator[tuple[int, ...]]:
    """The symmetric generating sets of Z_n, a boundary class of the kernel's sets at a time.

    A block (pieces, rest) with p = rest[0] spells the gap words head +
    word: its heads are the gaps of piece + (p,), compositions of p, and
    its rest word is the gaps of rest + (n,). A set is symmetric exactly
    when its gap word is a palindrome, so the heads found by `_mirrored`
    in the class's `_mirror_table`, built once per pieces tuple and p,
    name the block's symmetric sets; every set found is still tested in
    full by `_symmetric_generator`. A block off the class shape is scanned
    member by member: its pieces not distinct, a piece that does not rise
    from 0 below p (for p = 0, pieces other than the one empty piece), or
    a rest that does not rise from p below n.
    """
    is_generator = partial(_symmetric_generator, n)
    classes: dict[int, tuple] = {}  # p -> (accepted pieces, mirror table or None off the shape, piece by head)
    for pieces, rest in counting._listed(n, "connection_sets").blocks(n, "connection_sets", counting._TUPLES):
        word = tuple(map(sub, rest[1:] + (n,), rest))
        table = None
        if word and min(word) > 0:
            p = rest[0]
            seen = classes.get(p)
            if seen is None or seen[0] is not pieces:
                heads = [tuple(map(sub, piece[1:] + (p,), piece)) for piece in pieces]
                piece_of = dict(zip(heads, pieces))
                # Distinct pieces that start at 0 (class 0: the empty piece) and rise below p.
                starts = {piece[:1] for piece in pieces} == ({(0,)} if p else {()})
                shaped = starts and len(piece_of) == len(pieces) and min(chain.from_iterable(heads), default=1) > 0
                seen = classes[p] = pieces, _mirror_table(n, p, heads) if shaped else None, piece_of
            _, table, piece_of = seen
        if table is None:
            yield from _scanned_generators(n, map(add, pieces, repeat(rest)))
            continue
        found = map(piece_of.__getitem__, _mirrored(n, p, table, word))
        yield from filter(is_generator, map(add, found, repeat(rest)))


def _palindrome_bijection(n: int) -> Checks:
    """Aperiodic palindromes map one-to-one onto symmetric generating sets.

    Tau inverse sends the set with gap word u repeated d times to u times d (gcd d); set
    and word order like u's mask at order n/d, so each image is the next of its gcd class.
    The sets come from `_symmetric_generators` as raw tuples; only those it finds, about
    2^(n/2), are wrapped, and validated, as ConnectionSets. One pass over the palindrome
    stream sorts its words into one class per divisor of n, in stream order; a word whose
    gcd `divisors(n)` does not list falls in no class, so the set it comes from finds no word.
    """
    if n < 2:
        return
    classes: dict[int, list[Composition]] = {d: [] for d in divisors(n)}
    for c in iter_family(n, "aperiodic_palindromes"):
        classes.get(c.gcd(), []).append(c)
    words = {d: iter(cls) for d, cls in classes.items()}
    sets = 0
    for s in map(partial(ConnectionSet, n), _symmetric_generators(n)):
        c, sets = aperiodic_palindrome_of(s), sets + 1
        want = next(words.get(c.gcd(), iter(())), "none left")
        if c != want:
            yield 2, f"n={n}, set {s}: word {c} is not the next word of its class, {want}"
        back = connected_set_of(c)
        yield 2, None if back == s else f"n={n}, set {s}: word {c} maps back to another set, {back}"
    for c in chain.from_iterable(words.values()):
        yield 0, f"n={n}: word {c} is the image of no set"
    if sets != count_aperiodic_palindromes(n):
        yield 0, f"n={n}: {sets} enumerated vs {count_aperiodic_palindromes(n)} counted"


def _word_tallies(n: int) -> Generator[tuple[int, str | None], None, tuple[int, list[tuple[int, ...]]] | None]:
    """The coprime words of n and its palindromes in order, compared and tallied word by word.

    Each composition tuple of the kernel must be the successor walk's word
    at the same mask. The first that is not, or a stream that ends early
    or runs past the masks, fails the order with no check counted. Each
    word is tallied from the walk's side: its gcd taken and it reversed.
    """
    prime, total = 0, count_compositions(n)
    pals: list[tuple[int, ...]] = []
    words = zip_longest(counting._words(n, "compositions"), chain.from_iterable(_successor_chunks(n)))
    for m, (c, w) in enumerate(words):
        if c != w:
            m = m if m < total else None  # None: past the last mask
            yield 0, f"n={n}, mask {m}: the kernel gives {_spelled(c)}, the walk {_spelled(w)}"
            return None
        prime += math.gcd(*w) == 1
        if w == w[::-1]:
            pals.append(w)
    return prime, pals


def _mirror_table(n: int, p: int, heads: tuple) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Class p's heads that begin a palindrome of n, under the key a block's rest must mirror.

    A word head + rest of class p has sum(rest) = n - p. For 2p <= n, a
    palindrome's head is the reversal of its rest's suffix of sum p, so
    each head is kept under its reversal. For 2p > n, the reversal of its
    rest is the head's prefix of sum n - p, and the rest of the head is a
    palindrome: such a head is kept under that prefix, in mask order.
    """
    if 2 * p <= n:
        return {h[::-1]: [h] for h in heads}
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for h in heads:
        sums = list(accumulate(h))
        if n - p in sums:
            cut = sums.index(n - p) + 1
            if h[cut:] == h[cut:][::-1]:
                table.setdefault(h[:cut], []).append(h)
    return table


def _mirrored(n: int, p: int, table: dict, rest: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The heads in class p's `_mirror_table` that make a palindrome of n with the rest word `rest`, in mask order.

    For 2p <= n, the head kept under the rest's suffix of sum p, when the
    rest before that suffix is a palindrome, so at most one; for 2p > n,
    the heads kept under the reversed rest.
    """
    if 2 * p > n:
        return table.get(rest[::-1], [])
    cut, tail = len(rest), 0  # rest[cut:] is the suffix, of sum tail
    while tail < p:
        cut -= 1
        tail += rest[cut]
    middle = rest[:cut]
    return table.get(rest[cut:], []) if tail == p and middle == middle[::-1] else []


def _class_tallies(n: int) -> tuple[int, list[tuple[int, ...]]] | None:
    """The coprime words of n and its palindromes in order, a boundary class at a time; None if a block strays.

    The kernel's composition blocks (pieces, rest) are read in lockstep
    with `_walk_blocks(n, k)`, for the kernel's k. A block passes when
    its rest is the walk's and its pieces are the walk's heads: compared
    element by element the first time; after that a pieces tuple is
    accepted when it is the very tuple accepted for its class, which, as
    tuples are immutable, still holds the same words. A block missing,
    extra or different gives None before the walk carries past it.

    The tallies read the walk's side only. A word's gcd is gcd(d, g), with
    d its head's gcd and g its rest's, so a class's coprime count under g
    is read once per distinct (p, g) from a Counter of its heads' gcds.
    A palindrome of class p is a head `_mirrored` finds in the class's
    `_mirror_table`, followed by the rest.
    """
    k = min(counting._LOW_BITS, n - 1)
    kernel = counting._listed(n, "compositions").blocks(n, "compositions", counting._TUPLES)
    classes: dict[int, tuple] = {}  # p -> (accepted pieces, head gcd Counter, mirror table, counts by g)
    prime, pals = 0, []
    for block, walked in zip_longest(kernel, _walk_blocks(n, k)):
        if block is None or walked is None:
            return None
        (pieces, rest), (p, heads, want) = block, walked
        if rest != want:
            return None
        seen = classes.get(p)
        if seen is None or seen[0] is not pieces:
            if pieces != heads:
                return None
            seen = classes[p] = pieces, Counter(starmap(math.gcd, heads)), _mirror_table(n, p, heads), {}
        _, gcds, table, counts = seen
        g = math.gcd(*rest)
        coprime = counts.get(g)
        if coprime is None:
            coprime = counts[g] = sum(c for d, c in gcds.items() if math.gcd(d, g) == 1)
        prime += coprime
        found = _mirrored(n, p, table, rest)
        if found:
            pals += map(add, found, repeat(rest))
    return prime, pals


def _count_oracles(n: int) -> Checks:
    """Closed-form counts equal the lengths of the enumerated families.

    Every composition of n the kernel lists must be the successor walk's
    word at the same mask before the coprime words are counted and the
    palindromes found, from the walk's side. From n = _BY_CLASS_FROM the
    comparison and the tallies run one boundary class at a time
    (`_class_tallies`); below it, and at any order where a block strays,
    word by word from mask 0 (`_word_tallies`), which names the first
    stray mask. The palindromes found must reproduce the palindrome
    stream item for item.
    """
    tallies = _class_tallies(n) if n >= _BY_CLASS_FROM else None
    if tallies is None:
        tallies = yield from _word_tallies(n)
    prime, scanned_pals = tallies
    yield count_compositions(n), None
    if prime != count_prime_compositions(n):
        yield 0, f"n={n}: {prime} coprime words enumerated vs {count_prime_compositions(n)} counted"
    if n < 2:
        return
    pals = list(counting._words(n, "palindromes"))
    if pals != scanned_pals:
        stray = next((a, b) for a, b in zip_longest(pals, scanned_pals) if a != b)
        stream, scan = map(_spelled, stray)
        yield 0, f"n={n}: palindrome stream gives {stream} where the scan gives {scan}"
    if len(pals) != count_palindromes(n):
        yield 0, f"n={n}: {len(pals)} palindromes enumerated vs {count_palindromes(n)} counted"
    aperiodic = sum(1 for w in pals if Composition._unchecked(w).is_aperiodic())
    if aperiodic != count_aperiodic_palindromes(n):
        yield 0, f"n={n}: {aperiodic} aperiodic enumerated vs {count_aperiodic_palindromes(n)} counted"


def _moebius_inversion(n: int) -> Checks:
    """Summing the coprime-word count over divisors recovers 2^(n-1); the table's row n is count_row(n)."""
    # Over divisors(n), then by trial: a wrong _factorize, which the counts read, cancels in the first only.
    trial = [d for d in range(1, n + 1) if n % d == 0]
    totals = [sum(count_prime_compositions(d) for d in ds) for ds in (divisors(n), trial)]
    wrong = next((t for t in totals if t != count_compositions(n)), None)
    *_, row = counting._decimal_rows(n)
    want = tuple(vars(counting.count_row(n)).values())
    if wrong is not None:
        yield 1, f"n={n}: {wrong} != 2^{n - 1}"
    yield 1, None if row == want else f"n={n}: table row {_spelled(row)}, count_row {_spelled(want)}"


def _part_refinement(n: int) -> Checks:
    """Binomial part counts match tallies over the successor walk and sum to 2^(n-1)."""
    tally = Counter(map(len, chain.from_iterable(_successor_chunks(n))))
    yield sum(tally.values()), None
    for k in range(1, n + 1):
        if tally.get(k, 0) != count_compositions_with_parts(n, k):
            yield 0, f"n={n}, k={k}"
    if sum(tally.values()) != count_compositions(n):
        yield 0, f"n={n}: row sum"


def _scaling_bijection(n: int) -> Checks:
    """Dividing by the gcd maps words with gcd d one-to-one onto coprime words of n/d.

    Division keeps mask bits d-1, 2d-1, ..., so it preserves mask order: in one
    pass, each kernel tuple of gcd d, divided by d, must be the next tuple of the
    prime-compositions stream of n/d. No word is wrapped in an object on either side.
    From _BY_CLASS_FROM the pass reads the kernel's blocks (`_scaling_classes`);
    below it, and at any order where a block strays, word by word from mask 0
    (`_scaling_words`), which names the first stray word. Each gcd class's size is
    then held to the closed form, and every target stream must have run out.
    """
    sizes = _scaling_classes(n) if n >= _BY_CLASS_FROM else None
    left: dict[int, tuple[int, ...] | None] = {}  # d -> a word left in its target stream
    if sizes is None:
        sizes, left = yield from _scaling_words(n)
    else:
        yield sum(sizes.values()), None
    # Sized by the closed form, so a class the scan misses, or a word both sides drop, fails.
    for d, size in sizes.items():
        if size != count_prime_compositions(n // d):
            yield 0, f"n={n}, d={d}: {size} words vs {count_prime_compositions(n // d)} counted"
    for d, extra in left.items():
        if extra is not None:
            yield 0, f"n={n}, d={d}: the prime stream of {n // d} has the word {_spelled(extra)} left over"


def _scaling_words(n: int) -> Generator[tuple[int, str | None], None, tuple[dict[int, int], dict]]:
    """The scaling pass one kernel word at a time.

    Returns the words read per gcd d and, per d, the first word left in
    its target stream, or None.
    """
    targets = {d: counting._words(n // d, "prime_compositions") for d in divisors(n)}
    sizes = dict.fromkeys(targets, 0)
    for w in counting._words(n, "compositions"):
        d = math.gcd(*w)
        if d not in targets:
            yield 1, f"n={n}, d={d}: word {_spelled(w)}, and d is not a divisor of n"
        image, want = w if d == 1 else tuple(p // d for p in w), next(targets[d], None)
        sizes[d] += 1
        yield 1, None if image == want else (
            f"n={n}, d={d}: word {_spelled(w)} maps to {_spelled(image)}, not {_spelled(want)}"
        )
    return sizes, {d: next(target, None) for d, target in targets.items()}


def _scaling_classes(n: int) -> dict[int, int] | None:
    """The scaling pass a boundary class at a time: the words read per gcd d; None if a block strays.

    The kernel's composition blocks (pieces, rest) are read in lockstep
    with its prime-composition blocks of n. A word's gcd is gcd(g, *piece)
    with g = gcd(rest), so per pieces tuple and g the pieces are split
    once into the coprime ones and the others, each with its d. A block
    with coprime pieces must equal the prime stream's next block: the
    rest by equality, the pieces element by element the first time and,
    after that, by identity with the tuple accepted for that class and g.
    Each other word, divided by its d, must be the next tuple of the
    prime-compositions stream of n/d. A block missing, extra or different,
    a d that does not divide n, or a word left over in a stream of n/d
    for d > 1 gives None before any check is counted.
    """
    primes = counting._listed(n, "prime_compositions").blocks(n, "prime_compositions", counting._TUPLES)
    targets = {d: counting._words(n // d, "prime_compositions") for d in divisors(n)}
    sizes = dict.fromkeys(targets, 0)
    # (id(pieces), g) -> [pieces, coprime pieces, (d, piece) for the others, accepted prime pieces]
    classes: dict[tuple[int, int], list] = {}
    for pieces, rest in counting._listed(n, "compositions").blocks(n, "compositions", counting._TUPLES):
        g = math.gcd(*rest)
        seen = classes.get((id(pieces), g))
        if seen is None or seen[0] is not pieces:
            ds = [math.gcd(g, *piece) for piece in pieces]
            coprime = tuple(piece for d, piece in zip(ds, pieces) if d == 1)
            others = [(d, piece) for d, piece in zip(ds, pieces) if d != 1]
            seen = classes[id(pieces), g] = [pieces, coprime, others, None]
        _, coprime, others, accepted = seen
        if coprime:
            block = next(primes, None)
            if block is None or block[1] != rest:
                return None
            if block[0] is not accepted:
                if block[0] != coprime:
                    return None
                seen[3] = block[0]
            sizes[1] += len(coprime)
        for d, piece in others:
            if d not in targets or tuple(p // d for p in piece + rest) != next(targets[d], None):
                return None
            sizes[d] += 1
    if next(primes, None) is not None or any(next(targets[d], None) is not None for d in targets if d > 1):
        return None
    return sizes


def _order_72(n: int) -> Checks:
    """Recompute the counts at order n = 72; return them, with the published figures, as detail.

    Passing means the formula values are self-consistent: connected plus
    disconnected is 2^(n-1), and the proper-divisor route agrees. The
    published figures differ from them.
    """
    connected, disconnected = count_prime_compositions(n), count_disconnected_compositions(n)
    divisor_route = sum(count_prime_compositions(d) for d in divisors(n) if d != n)
    ok = connected + disconnected == count_compositions(n) and disconnected == divisor_route
    detail = (
        f"connected={connected} disconnected={disconnected}; published figures "
        f"{PUBLISHED_72_CONNECTED} and {PUBLISHED_72_DISCONNECTED} differ from the formula values"
    )
    yield 3, None if ok else f"order-72 totals are not self-consistent [{detail}]"
    return detail


_ORDER_72 = "order-72 recomputation"

# (display name, unit, ceiling): unit(n) runs the suite's check body at
# order n alone, and unit(n, passes) lets the suites of `_ONE_PASS` share
# one pass per order through `passes` (see `_run_order`). A ranged suite runs n = 1..ceiling; a user-supplied --max-n
# lowers the ceilings but never raises them past the under-a-minute
# defaults. The order-72 suite is one unit at its ceiling.
SUITES: tuple[tuple[str, Callable[..., SuiteResult], int], ...] = tuple(
    (name, partial(_run_order, name, checks), ceiling)
    for name, checks, ceiling in (
        ("gap-word round trips", _round_trips, 14),
        ("gcd preservation", _gcd_preservation, 14),
        ("symmetry vs palindromicity", _symmetry_palindrome, 14),
        ("connectivity oracle agreement", _connectivity, 12),
        ("aperiodic palindrome bijection", _palindrome_bijection, 16),
        ("count formulas vs enumeration", _count_oracles, 20),
        ("divisor-sum inversion identity", _moebius_inversion, 64),
        ("part-count refinement", _part_refinement, 14),
        ("common-factor scaling bijection", _scaling_bijection, 16),
        (_ORDER_72, _order_72, 72),
    )
)


def _run_units(n: int, indices: list[int]) -> list[SuiteResult]:
    """A pool task: suites `indices` at order n, one `_one_pass` serving those it checks."""
    passes: dict = {}
    return [SUITES[index][1](n, passes) for index in indices]


def _merge(units: Iterable[SuiteResult], ceiling: int) -> SuiteResult:
    """One suite's unit results, in ascending n, as one run to `ceiling`.

    The run stops at the first failing order: its counterexample stands,
    the checks and seconds of the units up to it are summed, and the
    units after it are never drawn.
    """
    checked = seconds = 0
    for unit in units:
        checked += unit.checked
        seconds += unit.seconds
        if not unit.passed:
            break
    return unit._replace(checked=checked, ceiling=ceiling, seconds=seconds)


def run_suites(max_n: int | None = None, workers: int = 1) -> list[SuiteResult]:
    """Run every suite as one unit per order n, optionally across worker processes.

    One worker runs each suite's units here in ascending n and stops the
    suite at its first failing order. More workers get the same units
    largest n first, so the long high orders start at once and the short
    ones fill in behind them (Graham 1969); the `_ONE_PASS` units of one
    order go to a worker as one task. Either way one `_one_pass` per
    order serves those units, through a dict of passes that this call, or
    the pool task, owns and hands to each unit. Results come back in
    registry order regardless of completion order, so reports are
    deterministic. No more workers start than there are suites.
    """
    if max_n is not None and max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {max_n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    orders = [
        [ceiling] if name == _ORDER_72 else range(1, min(ceiling, max_n or ceiling) + 1)
        for name, _, ceiling in SUITES
    ]
    if workers > 1:
        # Imported here only: the pool's modules add about 18 ms to a fresh start.
        from concurrent.futures import ProcessPoolExecutor

        tasks: dict[tuple[int, int], tuple[int, list[int]]] = {}  # (-n, first index) -> (n, indices)
        for index, ns in enumerate(orders):
            for n in ns:
                tasks.setdefault((-n, 0 if index < len(_ONE_PASS) else index), (n, []))[1].append(index)
        units = [tasks[key] for key in sorted(tasks)]
        with ProcessPoolExecutor(max_workers=min(workers, len(SUITES))) as pool:
            done = {
                (index, n): result
                for (n, indices), results in zip(units, pool.map(_run_units, *zip(*units)))
                for index, result in zip(indices, results)
            }
        run = lambda index, n: done[index, n]
    else:
        passes: dict = {}
        run = lambda index, n: SUITES[index][1](n, passes)
    return [_merge((run(index, n) for n in ns), ns[-1]) for index, ns in enumerate(orders)]
