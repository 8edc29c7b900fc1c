"""Divisor and Moebius machinery, closed-form counts, and enumerators.

All counts are exact, so they stay correct far past the 64-bit range
(2^(n-1) alone outgrows machine words at n = 65). Each count function
takes the builder of its powers of two as the keyword ``two``: by
default two(k) is the Python integer 2^k, and `count` passes exact
Decimals, which it prints in linear time. count_row sums ints by Moebius
inversion; `table` reads Decimal rows from one divisor-sum sieve, and
text `table` sizes its columns from count_row at its last two orders. The
streaming enumerators generate every member of each counted family in a
fixed bitmask order, giving the closed forms an independent exhaustive
cross-check at small n. They share one block kernel, whose block is a
boundary class: pieces that share one rest, each member being piece +
rest, so that `list` writes a class with one join and iter_family adds
each piece to its rest.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import cache, partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import add

# Annotations are never evaluated (PEP 563), so the `Any` they name is not
# imported: loading `typing` would add to the start of every command.

from .compositions import Composition
from .circulant import ConnectionSet
from ._value import Value


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1 in ascending order, including 1 and n."""
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def moebius(m: int) -> int:
    """0 when a squared prime divides m, else (-1)^(number of prime factors)."""
    exponents = _factorize(m).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def _factorize(n: int) -> dict[int, int]:
    """Prime -> exponent for n >= 1, primes ascending, by trial division."""
    _require_positive(n)
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def _moebius_sums(n: int, *fs: Callable[[int], Any]) -> list[Any]:
    """For each f, the sum of mu(n/d) f(d) over d | n, from one factorisation of n.

    Only squarefree n/d give nonzero terms: one per subset S of the
    distinct primes of n, with d = n / prod(S) and mu(n/d) = (-1)^|S|.
    The d = n terms are evaluated before n is factorised, so an order
    whose count is too large to build fails at once, not after trial
    division up to sqrt(n).
    """
    sums = [f(n) for f in fs]
    terms = [(n, 1)]
    for p in _factorize(n):
        terms += [(d // p, -mu) for d, mu in terms]
    return [s + sum(mu * f(d) for d, mu in terms[1:]) for s, f in zip(sums, fs)]


_TWO = (1).__lshift__  # two(k) = 2^k as an int, the counts' default builder


def count_compositions(n: int, *, two: Callable[[int], Any] = _TWO) -> Any:
    """2^(n-1) ordered words of positive parts summing to n."""
    _require_positive(n)
    return two(n - 1)


def count_compositions_with_parts(n: int, k: int) -> int:
    """binom(n-1, k-1) compositions of n with exactly k parts."""
    _require_positive(n)
    if type(k) is not int or not 1 <= k <= n:
        raise ValueError(f"part count must be in [1, {n}], got {k!r}")
    return math.comb(n - 1, k - 1)


def count_prime_compositions(n: int, *, two: Callable[[int], Any] = _TWO) -> Any:
    """Compositions of n with coprime parts: sum of mu(n/d) 2^(d-1) over d | n.

    Equals the number of connected circulant digraphs of order n.
    """
    return _moebius_sums(n, lambda d: count_compositions(d, two=two))[0]


def count_disconnected_compositions(n: int, *, two: Callable[[int], Any] = _TWO) -> Any:
    """Compositions of n whose parts share a factor: the complement of prime.

    Equals the sum of count_prime_compositions over the proper divisors
    of n, and the number of disconnected circulant digraphs of order n.
    """
    return count_compositions(n, two=two) - count_prime_compositions(n, two=two)


def count_palindromes(n: int, *, two: Callable[[int], Any] = _TWO) -> Any:
    """2^floor(n/2) palindromic compositions of n >= 2; 1 for n = 1.

    The n = 1 value is a convention (the one-part word 1 is its own
    reversal); the closed form is stated for n >= 2, and gives 2^0 = 1
    at n = 1 as well.
    """
    _require_positive(n)
    return two(n // 2)


def count_aperiodic_palindromes(n: int, *, two: Callable[[int], Any] = _TWO) -> Any:
    """Aperiodic palindromes of n: sum of mu(n/d) (2^floor(d/2) - 1) over d | n.

    Equals the number of connected circulant graphs of order n; defined
    for n >= 2 only. There the sum of mu(n/d) over d | n is 0, so the -1
    drops out and each term is mu(n/d) count_palindromes(d).
    """
    if n < 2:
        raise ValueError(f"aperiodic palindromes are counted for n >= 2, got {n}")
    return _moebius_sums(n, lambda d: count_palindromes(d, two=two))[0]


def iter_family(n: int, family: str) -> Iterator[Composition] | Iterator[ConnectionSet]:
    """Yield every member of the named family at order n exactly once.

    Members arrive in ascending bitmask order: mask m encodes the
    connection set {0} | {i+1 : bit i of m set}, and composition
    families see the gap word of that set. Every family comes from the
    block kernel: the dense ones at order n, the palindromic ones from
    their first halves, the compositions of ceil(n/2), so they cost no
    scan of all 2^(n-1) masks. The palindromic families follow the
    convention that they are defined for n >= 2 only. Each member wraps
    one tuple of _words(n, family), the only listing path. verify's
    count and scaling suites compare those tuples, or the blocks under
    them, themselves: the count suite with the successor walk, the
    scaling suite with the prime compositions of n/d.
    """
    items = _words(n, family)
    # The kernel's tuples are members by construction: no re-validation.
    if family.endswith("connection_sets"):
        return map(partial(ConnectionSet._unchecked, n), items)
    return map(Composition._unchecked, items)


def _words(n: int, family: str) -> Iterator[tuple[int, ...]]:
    """The members of the named family at order n as the kernel's raw tuples.

    A composition's parts or a connection set's elements, in the order
    of iter_family, which wraps them. The order and family are checked
    at the call.
    """
    return _members(_listed(n, family).blocks(n, family, _TUPLES))


def _members(blocks: Iterator[tuple[Any, Any]]) -> Iterator[Any]:
    """The members of the blocks in order: piece + rest for each piece of a block."""
    return chain.from_iterable(map(add, pieces, repeat(rest)) for pieces, rest in blocks)


def _listed(n: int, family: str) -> _Family:
    """The table entry of a listed family, once n is known to be in its domain."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from: {', '.join(FAMILIES)}")
    _require_positive(n)
    entry = _FAMILY_TABLE[family]
    if n < entry.min_n:
        raise ValueError(f"family {family!r} is defined for n >= {entry.min_n} only")
    return entry


_LOW_BITS = 10  # the kernel tabulates the low min(10, n - 1) bits of every mask


# A spelling is a pair (low, rest) of callables: a dense family's item is
# low(before) + rest(after), cut just before its boundary number (a gap or an
# element), and a palindromic item is low(()) + rest(item).
_TUPLES = (tuple, tuple)


def _dense_blocks(n: int, family: str, spell: tuple) -> Iterator[tuple[Any, Any]]:
    """The members of a dense family at order n as blocks (pieces, rest), one per boundary class.

    A mask of width n - 1 splits into its low k = min(10, n - 1) bits L
    and its high bits H (Knuth, TAOCP 4A, 7.2.1). L's elements run
    0 < ... < p_L, all at most k; H's run q_H < ... < n, closed by n.
    The 2^k low pieces are built once per call, by doubling, as their
    boundary classes, the runs of one p_L: L = 0 for p = 0, and L in
    [2^(p-1), 2^p) for p >= 1 (_low_classes). Each high half, ascending,
    spells one rest per class: p_L and H's elements for a set, the gaps
    of p_L and H's run for a word. It yields its k + 1 classes in
    ascending mask order, each member being piece + rest.
    prime_compositions keeps the words of gcd 1: the gcd d of L's gaps
    divides p_L, so a word's gcd is gcd(d, g) with g the gcd of H's run.
    g divides n, so the coprime classes are filtered once per distinct g
    (_coprime_classes), and a class left empty is not yielded.
    """
    k = min(_LOW_BITS, n - 1)
    highs = range(1 << (n - 1 - k))  # an order too large to enumerate fails here, at the call
    sets = family == "connection_sets"
    classes = _low_classes(k, sets, spell)
    coprime = {} if family == "prime_compositions" else None
    spell_rest = spell[1]

    def blocks() -> Iterator[tuple[Any, Any]]:
        for h in highs:
            run = _run(h, k + 1) + (n,)
            kept = classes
            if coprime is not None:
                g = math.gcd(*run)
                if g not in coprime:
                    coprime[g] = _coprime_classes(classes, g)
                kept = coprime[g]
            for p, pieces, _ in kept:
                yield pieces, spell_rest((p,) + run[:-1] if sets else _diffs((p,) + run))

    return blocks()


def _low_classes(k: int, sets: bool, spell: tuple) -> list[tuple[int, tuple, tuple]]:
    """The boundary classes of the k-bit low halves L, ascending, each (p, pieces, gcds).

    Class p holds the L whose top element p_L is p, in mask order. A
    piece is low(before), with before the numbers ahead of the boundary:
    L's gaps for a word, L's elements but p_L for a set; gcds holds the
    gcd d of each L's gaps. Built by doubling: class 0 is L = 0, and
    class e is every L of classes 0 .. e - 1 with bit e-1 set, which
    appends the element p_L, the gap e - p_L and gcd(d, e - p_L) =
    gcd(d, e), as d divides p_L. The pieces are spelled in one pass at
    the end. Tier-1 holds the classes to the per-mask decoding by _run
    and _diffs.
    """
    classes = [(0, [()], [0])]
    for e in range(1, k + 1):
        nums = [t + ((p,) if sets else (e - p,)) for p, ts, _ in classes for t in ts]
        classes.append((e, nums, [math.gcd(d, e) for _, _, ds in classes for d in ds]))
    return [(p, tuple(map(spell[0], nums)), tuple(ds)) for p, nums, ds in classes]


def _coprime_classes(classes: list[tuple[int, tuple, tuple]], g: int) -> list[tuple[int, tuple, tuple]]:
    """The classes cut to their pieces of gcd d with gcd(d, g) = 1; an emptied class is dropped."""
    kept = []
    for p, pieces, ds in classes:
        coprime = [math.gcd(d, g) == 1 for d in ds]
        if any(coprime):
            kept.append((p, tuple(compress(pieces, coprime)), tuple(compress(ds, coprime))))
    return kept


def _run(mask: int, first: int) -> tuple[int, ...]:
    """The numbers first + i for each set bit i of the mask, ascending."""
    run = []
    while mask:
        low = mask & -mask
        run.append(first + low.bit_length() - 1)
        mask ^= low
    return tuple(run)


def _diffs(run: tuple[int, ...]) -> tuple[int, ...]:
    """Differences of consecutive numbers of the run."""
    return tuple(b - a for a, b in zip(run, run[1:]))


def _palindromes(n: int) -> Iterator[tuple[int, ...]]:
    """Palindromic gap words of order n in ascending mask order, from the block kernel.

    A palindrome is fixed by its first half (Hoggatt and Bicknell, 1975):
    the high half of a symmetric mask, read at order ceil(n/2), has the
    gap word (x,) + t, and the palindrome is reversed(t), mid, t. For odd
    n, mid is 2x - 1; for even n, 2x with the middle bit clear, then x, x
    with it set. The scan-and-filter route stays in verify as the oracle.
    """
    words = _members(_dense_blocks((n + 1) // 2, "compositions", _TUPLES))
    if n % 2:
        return (w[:0:-1] + (2 * w[0] - 1,) + w[1:] for w in words)
    return (
        p for w in words for p in (w[:0:-1] + (2 * w[0],) + w[1:], w[:0:-1] + (w[0], w[0]) + w[1:])
    )


def _palindrome_blocks(n: int, family: str, spell: tuple) -> Iterator[tuple[Any, Any]]:
    """The members of a palindromic family at order n as blocks (members, empty rest), 2^10 to a block.

    Each member is spelled whole, low(()) + rest(word). The words come
    from _palindromes(n); aperiodic_palindromes keeps those of period n,
    and symmetric_connection_sets maps each word to its prefix sums. An
    order too large to enumerate fails at the call, in the kernel at
    order ceil(n/2).
    """
    items = _palindromes(n)
    if family == "aperiodic_palindromes":
        items = (w for w in items if Composition._unchecked(w).is_aperiodic())
    elif family == "symmetric_connection_sets":
        items = (tuple(accumulate(w[:-1], initial=0)) for w in items)
    head, rest = spell[0](()), spell[1]
    spelled = (head + rest(m) for m in items)
    empty = head[:0]
    return ((members, empty) for members in iter(lambda: list(islice(spelled, 1 << _LOW_BITS)), []))


# A listed family's blocks(n, family, spell) yields (pieces, rest) pairs, each
# with at least one piece; count(n, *, two) gives the count. None marks a family
# that is counted only or listed only. min_n is the smallest order listed.
_Family = namedtuple("_Family", ("count", "blocks", "min_n"))


# Every family by name. The order is public: the counted families give the
# columns of CountRow and of the count table, the listed ones FAMILIES.
_FAMILY_TABLE = {
    "compositions": _Family(count_compositions, _dense_blocks, 1),
    "prime_compositions": _Family(count_prime_compositions, _dense_blocks, 1),
    "disconnected": _Family(count_disconnected_compositions, None, 1),
    "palindromes": _Family(count_palindromes, _palindrome_blocks, 2),
    "aperiodic_palindromes": _Family(count_aperiodic_palindromes, _palindrome_blocks, 2),
    "connection_sets": _Family(None, _dense_blocks, 1),
    "symmetric_connection_sets": _Family(None, _palindrome_blocks, 2),
}

FAMILIES = tuple(name for name, family in _FAMILY_TABLE.items() if family.blocks)
_COUNTED = tuple(name for name, family in _FAMILY_TABLE.items() if family.count)


class CountRow(Value):
    """The five family sizes at one order n."""

    # The count table's columns, in order; __init__ takes them in the same order.
    # A row keeps an instance __dict__, so vars(row) maps each column to its count.
    _fields = ("n", *_COUNTED)

    def __init__(
        self,
        n: int,
        compositions: Any,
        prime_compositions: Any,
        disconnected: Any,
        palindromes: Any,
        aperiodic_palindromes: Any,
    ) -> None:
        self.__dict__.update(
            n=n,
            compositions=compositions,
            prime_compositions=prime_compositions,
            disconnected=disconnected,
            palindromes=palindromes,
            aperiodic_palindromes=aperiodic_palindromes,
        )


def count_row(n: int) -> CountRow:
    """All five counts at order n, from one factorisation of n.

    The n = 1 palindromic entries are both 1 by the single-word
    convention; the raw count_aperiodic_palindromes still rejects n < 2.
    At n = 1 the Moebius sum is the single term count_palindromes(1) = 1.
    """
    compositions = count_compositions(n)
    prime, aperiodic = _moebius_sums(n, count_compositions, count_palindromes)
    return CountRow(n, compositions, prime, compositions - prime, count_palindromes(n), aperiodic)


def count_table(max_n: int) -> list[CountRow]:
    """Rows for n = 1..max_n, every value computed from the closed forms."""
    _require_positive(max_n)
    return [count_row(n) for n in range(1, max_n + 1)]


# `count` prints Decimals from this order up, ints below. Measured per fresh
# process, `import decimal` included, int/Decimal route: 0.13/1.4 ms at 10^4,
# 3.6/3.6 ms at 50000, 7.0/3.8 ms at 70000 (Python 3.11, Xeon, 2 vCPUs).
_DECIMAL_FROM = 50_000
_COUNT_MAX_N = 10**8  # the largest order `count` prints: 30103000 digits in about 3 s
# The largest order `table` prints. Both forms stream their rows, so the sieve's
# pending sums set the peak RSS: 17 MB at 5000, 35 MB at 20000 and 119 MB at 50000,
# text or JSON (Python 3.11, Xeon).
_TABLE_MAX_N = 50_000


def _exact_decimals() -> Any:
    """A local context in which sums of Decimal powers of two stay exact.

    Every count is a signed sum of powers of two. The context adds them
    up exactly (an inexact step would raise), and str(Decimal) is linear
    in the digits where CPython 3.11's str(int) is quadratic.
    """
    import decimal

    return decimal.localcontext(decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
    ))


def _decimal_rows(max_n: int) -> Iterator[tuple[Any, ...]]:
    """The rows of `table` for n = 1..max_n in one pass, as tuples in CountRow._fields order.

    n is an int, the five counts exact Decimals. The paper's divisor sums
    invert without Moebius terms: 2^(n-1) is the sum of the prime counts
    over d | n, and 2^floor(n/2) that of the aperiodic counts. Each order
    keeps the sums over its proper divisors found so far, and row n adds
    its two counts to every multiple of n; row 1 has zero sums. No order
    is factorised, and no consumer runs in the exact context. An order
    outside 1.._TABLE_MAX_N is refused at the call.
    """
    import decimal

    _require_positive(max_n)
    if max_n > _TABLE_MAX_N:
        raise ValueError(f"table prints orders up to {_TABLE_MAX_N}, got {max_n}")

    def rows() -> Iterator[tuple[Any, ...]]:
        zero, one = decimal.Decimal(0), decimal.Decimal(1)
        pending, pending_pal = [zero] * (max_n + 1), [zero] * (max_n + 1)
        compositions = palindromes = one
        exact = _exact_decimals()  # built once: building it per row took a fifth of their time
        for n in range(1, max_n + 1):
            with exact:
                if n > 1:
                    compositions += compositions
                if n % 2 == 0:
                    palindromes += palindromes
                disconnected, pal_sum = pending[n], pending_pal[n]
                pending[n] = pending_pal[n] = None
                prime, aperiodic = compositions - disconnected, palindromes - pal_sum
                multiples = slice(2 * n, None, n)
                pending[multiples] = map(prime.__add__, pending[multiples])
                pending_pal[multiples] = map(aperiodic.__add__, pending_pal[multiples])
            yield n, compositions, prime, disconnected, palindromes, aperiodic

    return rows()


def _printed_count(n: int, family: str) -> Any:
    """The family's count at order n as `count` prints it, exactly.

    Below _DECIMAL_FROM the int count answers and raises the domain
    errors; from there up to _COUNT_MAX_N, the same count in exact
    Decimals, with each power of two it sums raised once. A larger order
    is refused before any work starts.
    """
    if n > _COUNT_MAX_N:
        raise ValueError(f"count prints orders up to {_COUNT_MAX_N}, got {n}")
    count = _FAMILY_TABLE[family].count
    if n < _DECIMAL_FROM:
        return count(n)
    import decimal

    with _exact_decimals():
        return count(n, two=cache(decimal.Decimal(2).__pow__))


def _require_positive(n: int) -> None:
    if type(n) is not int:
        raise ValueError(f"order must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
