import ast
import concurrent.futures
import functools
import inspect
import math
import pathlib
import re
import tracemalloc
from collections import Counter
from itertools import accumulate, chain, groupby, starmap

import pytest

from circomp import cli, counting, verify
from circomp.bijections import gap_composition, prefix_sum_set
from circomp.circulant import CirculantDigraph, ConnectionSet
from circomp.compositions import Composition
from circomp.verify import (
    PUBLISHED_72_CONNECTED,
    PUBLISHED_72_DISCONNECTED,
    SUITES,
    run_suites,
)
from references import gaps_of_mask, low_masks


def literal_gcd_connected(s):
    """Deliberately broken criterion: ignores the modulus when taking the gcd."""
    return math.gcd(*s.elements) == 1


PALINDROMES = counting._palindromes


def even_middles_swapped(n):
    """Deliberately broken generator: for even n, the middle bit set comes before clear."""
    words = PALINDROMES(n)
    if n % 2:
        return words
    return (p for clear in words for p in (next(words), clear))


def symmetric_sets_swapped(n, family):
    """Deliberately broken stream: the first two symmetric sets trade places."""
    items = counting.iter_family(n, family)
    if family != "symmetric_connection_sets":
        return items
    items = list(items)
    return iter(items[1::-1] + items[2:])


LOW_CLASSES = counting._low_classes


def low_boundary_shifted(k, sets, spell):
    """The kernel's classes with p_L one too low wherever L has two nonzero elements, each run of those split out of its class."""
    shifted = []
    for p, pieces, ds in LOW_CLASSES(k, sets, spell):
        for two, rows in groupby(zip(pieces, ds), lambda row: len(row[0]) == 2):
            run_pieces, run_ds = zip(*rows)
            shifted.append((p - two, run_pieces, run_ds))
    return shifted


def gcd_column_seeded_with_1(k, sets, spell):
    """The kernel's classes with every gcd read as 1, so every word reads as coprime."""
    return [(p, pieces, (1,) * len(ds)) for p, pieces, ds in LOW_CLASSES(k, sets, spell)]


def classes_with_the_previous_rest(k, sets, spell):
    """Deliberately broken classes: each but the first is spelled with the previous class's rest."""
    classes = LOW_CLASSES(k, sets, spell)
    return [(classes[i - 1][0] if i else p, pieces, ds) for i, (p, pieces, ds) in enumerate(classes)]


COPRIME_CLASSES = counting._coprime_classes


def coprime_classes_of_the_first_g():
    """Deliberately broken filter: every high half keeps the coprime classes of its stream's first high half.

    The first high half's g is n, so the high halves past it, which exist
    from n = 12 up, drop the words whose low gcd shares a factor with n.
    """
    firsts = {}  # id(classes) -> (classes, first g); holding classes keeps its id unique

    def mutant(classes, g):
        return COPRIME_CLASSES(classes, firsts.setdefault(id(classes), (classes, g))[1])

    return mutant


WORDS = counting._words


def prime_stream_disconnected(n, family):
    """Deliberately broken stream: the prime compositions are the words whose parts share a factor."""
    if family != "prime_compositions":
        return WORDS(n, family)
    return (w for w in WORDS(n, "compositions") if math.gcd(*w) != 1)


def prime_stream_one_word_long(n, family):
    """Deliberately broken stream: the prime compositions of 6 end with the word 6, which is not coprime."""
    words = WORDS(n, family)
    return words if (n, family) != (6, "prime_compositions") else chain(words, [(6,)])


def without_word_7(n, family):
    """Deliberately broken stream: the word 7, alone in its gcd class, goes missing."""
    return (w for w in WORDS(n, family) if w != (7,))


def class_2_swapped(n, family):
    """Deliberately broken stream: the compositions 2,4 and 4,2 of 6 (both gcd 2) trade places."""
    swap = {(2, 4): (4, 2), (4, 2): (2, 4)}
    words = WORDS(n, family)
    return words if (n, family) != (6, "compositions") else (swap.get(w, w) for w in words)


def last_composition_dropped(n, family):
    """Deliberately broken stream: every compositions stream stops one word short."""
    words = WORDS(n, family)
    return words if family != "compositions" else iter(list(words)[:-1])


SUCCESSOR_WORDS = verify._successor_words


def walk_one_word_short(n):
    """Deliberately broken oracle: the successor walk drops the last word of every order."""
    return iter(list(SUCCESSOR_WORDS(n))[:-1])


def odd_step_reversed_at_mask_5(n):
    """Deliberately broken walk: the odd step into mask 5 spells its new parts (g - 1, 1), not (1, g - 1)."""
    words = list(SUCCESSOR_WORDS(n))
    if len(words) > 5:
        words[5] = words[5][1::-1] + words[5][2:]
    return iter(words)


SUCCESSOR_CHUNKS = verify._successor_chunks


def walk_chunks_one_word_short(n):
    """Deliberately broken route: every chunk of the successor walk drops its last word."""
    return (chunk[:-1] for chunk in SUCCESSOR_CHUNKS(n))


def carry_into_chunk_2_one_low(n):
    """Deliberately broken route: the word carried into chunk 2 gives its first part's last unit to the next part.

    Each word of a chunk is a low head, then the carried word with its
    first part lowered, so the fault moves one unit at the same place in
    every word of chunk 2: at n = 11, mask 512's word 10,1 becomes 9,2.
    """
    for j, chunk in enumerate(SUCCESSOR_CHUNKS(n)):
        if j == 2:
            moved = lambda w, i: w[:i] + (w[i] - 1, w[i + 1] + 1) + w[i + 2 :]
            chunk = [moved(w, len(w) - len(chunk[0])) for w in chunk]
        yield chunk


MASK_CHUNKS = verify._mask_chunks


def low_bits_one_place_high(n):
    """Deliberately broken route: mask bits 0..7 spell the elements 2..9, not 1..8."""
    return ([tuple(e + (0 < e <= 8) for e in t) for t in chunk] for chunk in MASK_CHUNKS(n))


def high_elements_one_too_high(n):
    """Deliberately broken route: every chunk past the first spells its high elements one too high.

    Chunk 1 first exists at n = 10, where mask 256's tuple 0,9 becomes 0,10.
    """
    for j, chunk in enumerate(MASK_CHUNKS(n)):
        yield chunk if j == 0 else [t[:1] + tuple(e + (e > 8) for e in t[1:]) for t in chunk]


def factorize_skipping_5(n):
    """Deliberately broken trial division: after 3 it steps by 3, so 5, 7, 11, ... are never tried."""
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 3
    if n > 1:
        factors[n] = 1
    return factors


SYMMETRIC_GENERATORS = verify._symmetric_generators
DECIMAL_ROWS = counting._decimal_rows


def last_generator_dropped(n):
    """Deliberately broken scan: the symmetric generating sets of every order stop one set short."""
    return iter(list(SYMMETRIC_GENERATORS(n))[:-1])


def end_test_inverted(n):
    """Deliberately broken scan: its end test drops the sets whose ends sum to n, where it should keep them."""
    return (t for t in SYMMETRIC_GENERATORS(n) if len(t) == 1 or t[1] + t[-1] != n)


def table_row_6_off_by_one(max_n):
    """Deliberately broken table: row 6's disconnected count is one too high."""
    return (row[:3] + (row[3] + 1,) + row[4:] if row[0] == 6 else row for row in DECIMAL_ROWS(max_n))


LISTED = counting._listed


def composition_blocks_edited(edit):
    """A `_listed` whose compositions come as edit(the kernel's blocks as a list), at every order.

    Both of the count suite's routes read the blocks through it: the class
    route directly, the per-word route through `_words`.
    """

    def listed(n, family):
        entry = LISTED(n, family)
        if family != "compositions":
            return entry
        return entry._replace(blocks=lambda *args: iter(edit(list(entry.blocks(*args)))))

    return listed


def blocks_edited(family, at, edit):
    """A `_listed` whose `family` at order `at` comes as edit(the kernel's blocks as a list).

    The class routes read the blocks through it directly, the per-word
    routes through `_words`.
    """

    def listed(n, name):
        entry = LISTED(n, name)
        if (n, name) != (at, family):
            return entry
        return entry._replace(blocks=lambda *args: iter(edit(list(entry.blocks(*args)))))

    return listed


def last_half_class_3_word_reversed(blocks):
    """Deliberately broken prime blocks: class 3 of the last high half is a fresh tuple whose word 1,2 reads 2,1.

    The last high half's g is 1, so it keeps all 11 classes, and class 3 is
    block -8. At n = 13 the same class and g were accepted in two halves
    before it, so only an identity test, never a position, may pass it.
    """
    pieces, rest = blocks[-8]
    blocks[-8] = (pieces[:1] + (pieces[1][::-1],) + pieces[2:], rest)
    return blocks


def last_half_class_5_missing(blocks):
    """Deliberately broken prime blocks: class 5 of the last high half is gone."""
    return blocks[:-6] + blocks[-5:]


def last_half_class_1_piece_doubled(blocks):
    """Deliberately broken set blocks: class 1 of the last high half has its one piece 0 twice.

    At n = 12 that block holds the generator 0,1,11, which the flat scan then finds twice.
    """
    pieces, rest = blocks[-10]
    blocks[-10] = (pieces + pieces, rest)
    return blocks


def class_5_rest_unsorted(blocks):
    """Deliberately broken set blocks: class 5 of the first high half has the rest 5,2,3,9,10,7, not 5.

    With its piece 0 that spells 0,5,2,3,9,10,7, whose nonzero elements pair
    up into sums of 12, so the flat scan keeps it; a bisection of the
    unsorted rest would cut it in the wrong place.
    """
    pieces, rest = blocks[5]
    blocks[5] = (pieces, (5, 2, 3, 9, 10, 7))
    return blocks


def one_arc_per_offset(self, offsets):
    """Deliberately broken traversal: a doubling that never doubles, so each offset adds one arc to each vertex reached."""
    n = self.order
    reached = 1
    for s in offsets:
        s %= n
        reached |= (reached << s | reached >> (n - s)) & ((1 << n) - 1)
    return reached == (1 << n) - 1


def second_half_class_3_word_reversed(blocks):
    """Deliberately broken blocks: class 3 of the second high half is a fresh tuple whose head 1,2 reads 2,1.

    From n = 12 a high half has 11 classes, so this is block 14; at n = 17
    it moves mask 1029's word.
    """
    pieces, rest = blocks[14]
    blocks[14] = (pieces[:1] + (pieces[1][::-1],) + pieces[2:], rest)
    return blocks


def last_block_one_word_short(blocks):
    """Deliberately broken blocks: the last block loses its last piece, so the last mask has no word."""
    pieces, rest = blocks[-1]
    return blocks[:-1] + [(pieces[:-1], rest)]


def one_block_past_the_last_mask(blocks):
    """Deliberately broken blocks: the first block, the word of mask 0, comes again after the last."""
    return blocks + blocks[:1]


def words_swapped(i, j):
    """Deliberately broken blocks: the words of masks i and j trade places.

    The blocks that hold them are cut into blocks of one word each, and
    every other block is kept, so a class route strays first at the block
    of mask min(i, j).
    """

    def edit(blocks):
        words = [piece + rest for pieces, rest in blocks for piece in pieces]
        words[i], words[j] = words[j], words[i]
        edited, start = [], 0
        for pieces, rest in blocks:
            end = start + len(pieces)
            hit = start <= i < end or start <= j < end
            edited += [((w,), ()) for w in words[start:end]] if hit else [(pieces, rest)]
            start = end
        return edited

    return edit


def order_11_walk_one_word_short(n):
    """Deliberately broken oracle: the order-11 walk, whose words head the class route's classes, drops its last word."""
    return walk_one_word_short(n) if n == 11 else SUCCESSOR_WORDS(n)


MIRROR_TABLE = verify._mirror_table


def mirror_table_without_the_heavy_classes(n, p, heads):
    """Deliberately broken tally: a class heavier than its rest (2p > n) finds no palindrome."""
    return MIRROR_TABLE(n, p, heads) if 2 * p <= n else {}


def head_gcds_all_1(gcds):
    """Deliberately broken tally: every head of a class has gcd 1, so a word is coprime when its rest is."""
    return Counter(1 for _ in gcds)


def mirror_table_with_light_heads_unreversed(n, p, heads):
    """Deliberately broken tally: a class no heavier than its rest (2p <= n) keeps each head under itself, not its reversal."""
    return {h: [h] for h in heads} if 2 * p <= n else MIRROR_TABLE(n, p, heads)


def untimed(results):
    """The results with their seconds dropped, so that runs compare by what they found."""
    return [r._replace(seconds=None) for r in results]


class TestRunSuites:
    def test_small_universe_all_pass_in_registry_order(self):
        results = run_suites(max_n=6)
        assert [r.name for r in results] == [name for name, _, _ in SUITES]
        assert all(r.passed for r in results)
        assert all(r.checked > 0 for r in results)

    def test_workers_match_sequential(self):
        pooled = run_suites(max_n=4, workers=2)
        assert untimed(pooled) == untimed(run_suites(max_n=4))
        # The pool pickles each unit's result back to this process, seconds included.
        assert all(r.seconds > 0 for r in pooled)

    def test_pool_is_capped_at_the_suite_count(self, monkeypatch):
        monkeypatch.setattr(ReversedPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        assert untimed(run_suites(max_n=4, workers=100_000)) == untimed(run_suites(max_n=4))
        assert untimed(run_suites(max_n=4, workers=3)) == untimed(run_suites(max_n=4))
        assert ReversedPool.sizes == [len(SUITES), 3]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_suites(max_n=1)
        with pytest.raises(ValueError):
            run_suites(workers=0)


def ranged(suite, first, last):
    """The named suite run over n = first..last."""
    unit = dict((name, fn) for name, fn, _ in SUITES)[suite]
    return verify._merge(map(unit, range(first, last + 1)), last)


class TestFaultInjection:
    def test_broken_gcd_fails_naming_the_order_8_witness(self, monkeypatch):
        monkeypatch.setattr(verify, "is_connected_by_gcd", literal_gcd_connected)
        result = ranged("connectivity oracle agreement", 8, 8)
        assert not result.passed
        assert result.checked == 5
        assert "8: 0,3" in result.counterexample

    def test_broken_gcd_full_scan_hits_smaller_witnesses_first(self, monkeypatch):
        # From n=1 the first refutation is {0} itself (element gcd 0);
        # starting at n=2 it is {0,2} in Z_3, which generates Z_3 despite
        # its element gcd of 2.
        monkeypatch.setattr(verify, "is_connected_by_gcd", literal_gcd_connected)
        result = ranged("connectivity oracle agreement", 1, 12)
        assert not result.passed
        assert result.checked == 1
        assert "n=1, set 1: 0" in result.counterexample
        result = ranged("connectivity oracle agreement", 2, 12)
        assert not result.passed
        assert result.checked == 5
        assert "3: 0,2" in result.counterexample

    def test_broken_palindrome_generator_fails_naming_the_order(self, monkeypatch):
        monkeypatch.setattr(counting, "_palindromes", low_masks)
        results = {r.name: r for r in run_suites(max_n=8)}
        result = results["count formulas vs enumeration"]
        assert not result.passed
        assert result.checked == 7
        assert result.counterexample.startswith("n=3:")
        # The word 1,2 of n = 3 passes the aperiodicity filter, and no set maps to it.
        result = results["aperiodic palindrome bijection"]
        assert not result.passed
        assert result.checked == 4
        assert result.counterexample == "n=3: word 1,2 is the image of no set"

    def test_a_class_out_of_order_fails_the_palindrome_bijection_at_the_set(self, monkeypatch):
        monkeypatch.setattr(counting, "_palindromes", even_middles_swapped)
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["aperiodic palindrome bijection"]
        assert not result.passed
        assert result.checked == 18  # 2 per set of n = 2..5, then 6: 0,2,3,4 and 6: 0,1,5
        assert result.counterexample == (
            "n=6, set 6: 0,1,5: word 1,4,1 is not the next word of its class, 1,2,2,1"
        )

    @pytest.mark.parametrize("n", [17, 18])
    def test_the_palindrome_bijection_holds_past_its_ceiling(self, n):
        # One odd and one even order past the suite's ceiling of 16, which no
        # verify run reaches: every gcd class must still keep mask order.
        result = verify._run_order("bijection", verify._palindrome_bijection, n)
        assert result.passed
        assert result.checked == 2 * counting.count_aperiodic_palindromes(n)

    def test_coprime_classes_kept_from_the_first_high_half_fail_the_scaling_bijection(self, monkeypatch):
        # Only from n = 12 is there a second high half, whose g (here 1) is not n.
        # The prime stream of 12 then drops 11,1, whose low half is empty, so d = 0.
        monkeypatch.setattr(counting, "_coprime_classes", coprime_classes_of_the_first_g())
        assert ranged("common-factor scaling bijection", 1, 11).passed
        result = ranged("common-factor scaling bijection", 1, 16)
        assert not result.passed
        assert result.checked == 3072  # 2^0 + ... + 2^10 words, then the first 1025 of n = 12
        assert result.counterexample == "n=12, d=1: word 11,1 maps to 11,1, not 1,10,1"

    def test_a_missing_gcd_class_fails_the_scaling_bijection(self, monkeypatch):
        monkeypatch.setattr(counting, "_words", without_word_7)
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["common-factor scaling bijection"]
        assert not result.passed
        assert result.checked == 126  # 2^0 + ... + 2^5 words, then the 63 left at n = 7
        assert result.counterexample == "n=7, d=7: 0 words vs 1 counted"

    def test_a_dropped_word_fails_the_scaling_bijection_by_its_class_size(self, monkeypatch):
        monkeypatch.setattr(counting, "_words", without((2, 3)))
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["common-factor scaling bijection"]
        assert not result.passed
        assert result.checked == 30  # 2^0 + ... + 2^3 words, then the 15 left at n = 5
        assert result.counterexample == "n=5, d=1: 14 words vs 15 counted"

    def test_a_gcd_class_out_of_order_fails_the_scaling_bijection_at_the_word(self, monkeypatch):
        monkeypatch.setattr(counting, "_words", class_2_swapped)
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["common-factor scaling bijection"]
        assert not result.passed
        assert result.checked == 34  # 2^0 + ... + 2^4 words, then 6, 1,5 and 4,2 at n = 6
        assert result.counterexample == "n=6, d=2: word 4,2 maps to 2,1, not 1,2"

    def test_a_stream_one_word_short_fails_the_count_suite_at_once(self, monkeypatch):
        monkeypatch.setattr(counting, "_words", last_composition_dropped)
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["count formulas vs enumeration"]
        assert not result.passed
        assert result.checked == 0
        assert result.counterexample == "n=1, mask 0: the kernel gives None, the walk 1"

    @pytest.mark.parametrize(
        "n,fault,mask,got,want",
        [
            # The 8 words of n = 4 are one partial chunk, and the 2^8 of n = 9 one full chunk.
            (4, one_block_past_the_last_mask, None, "4", "None"),
            (4, last_block_one_word_short, 7, "None", "1,1,1,1"),
            (9, one_block_past_the_last_mask, None, "9", "None"),
            (9, last_block_one_word_short, 255, "None", ",".join(["1"] * 9)),
            # The 2^10 words of n = 11 and 2^11 of n = 12 fill whole chunks, with no word over.
            # The class route meets the stray block, gives up, and the per-word route names it.
            (11, one_block_past_the_last_mask, None, "11", "None"),
            (12, one_block_past_the_last_mask, None, "12", "None"),
            (12, last_block_one_word_short, 2047, "None", ",".join(["1"] * 12)),
        ],
    )
    def test_a_stream_past_or_short_of_the_walk_fails_in_its_last_chunk(
        self, n, fault, mask, got, want, monkeypatch
    ):
        monkeypatch.setattr(counting, "_listed", composition_blocks_edited(fault))
        result = verify._run_order("count", verify._count_oracles, n)
        assert not result.passed and result.checked == 0
        assert result.counterexample == f"n={n}, mask {mask}: the kernel gives {got}, the walk {want}"

    @pytest.mark.parametrize(
        "owner,attr,fault,checks,counterexample",
        [
            (counting, "_low_classes", low_boundary_shifted, 0, "n=17, mask 3: the kernel gives 1,1,16, the walk 1,1,15"),
            (
                counting, "_listed", composition_blocks_edited(second_half_class_3_word_reversed),
                0, "n=17, mask 1029: the kernel gives 2,1,8,6, the walk 1,2,8,6",
            ),
            (
                counting, "_listed", composition_blocks_edited(last_block_one_word_short),
                0, "n=17, mask 65535: the kernel gives None, the walk " + ",".join(["1"] * 17),
            ),
            (
                counting, "_listed", composition_blocks_edited(one_block_past_the_last_mask),
                0, "n=17, mask None: the kernel gives 17, the walk None",
            ),
            # The walk of every order one short: order 11 heads the classes, order 9 the chunks.
            (verify, "_successor_words", walk_one_word_short, 0, "n=17, mask 255: the kernel gives 1,1,1,1,1,1,1,1,9, the walk None"),
            # Only the class route reads order 11, so the per-word route checks the kernel, and passes.
            (verify, "_successor_words", order_11_walk_one_word_short, 2**16, None),
        ],
    )
    def test_a_stray_block_at_17_reruns_the_per_word_route_from_mask_0(
        self, owner, attr, fault, checks, counterexample, monkeypatch
    ):
        # At n = 17 the class route reads 2^6 high halves; a block that strays there
        # is named as the per-word route names it, with no check counted.
        monkeypatch.setattr(owner, attr, fault)
        result = ranged("count formulas vs enumeration", 17, 17)
        assert (result.passed, result.checked, result.counterexample) == (counterexample is None, checks, counterexample)
        monkeypatch.setattr(verify, "_class_tallies", lambda n: None)
        assert untimed([result]) == untimed([ranged("count formulas vs enumeration", 17, 17)])

    def test_a_composition_stream_one_word_short_fails_the_count_and_scaling_suites_at_10(self, monkeypatch):
        # From n = 10 both suites read the kernel's blocks, not `counting._words`, so the
        # fault goes in through the blocks. Run from 10 up, each fails at its first order.
        monkeypatch.setattr(counting, "_listed", composition_blocks_edited(last_block_one_word_short))
        ones = ",".join(["1"] * 10)
        results = (ranged(name, 10, ceiling) for name, _, ceiling in SUITES if 10 <= ceiling < 72)
        assert {r.name: (r.checked, r.counterexample) for r in results if not r.passed} == {
            "count formulas vs enumeration": (0, f"n=10, mask 511: the kernel gives None, the walk {ones}"),
            "common-factor scaling bijection": (2**9 - 1, "n=10, d=1: 494 words vs 495 counted"),
        }

    def test_a_class_tally_without_the_heavy_classes_palindromes_fails_at_10(self, monkeypatch):
        # Classes with 2p > n meet the class route at its first order, n = 10, where
        # the palindrome 4,2,4 is in class 6; the per-word route below it never reads
        # the mirror table.
        monkeypatch.setattr(verify, "_mirror_table", mirror_table_without_the_heavy_classes)
        result = ranged("count formulas vs enumeration", 1, 20)
        assert (result.checked, result.counterexample) == (
            2**10 - 1, "n=10: palindrome stream gives 4,2,4 where the scan gives None"
        )

    @pytest.mark.parametrize(
        "attr,fault,checks,counterexample",
        [
            # The words of n = 1..10 are counted before the coprime tally is.
            ("Counter", head_gcds_all_1, 2**10 - 1, "n=10: 512 coprime words enumerated vs 495 counted"),
            # At n = 10 and 11 every palindrome of a light class has a palindromic head.
            (
                "_mirror_table",
                mirror_table_with_light_heads_unreversed,
                2**12 - 1,
                "n=12: palindrome stream gives 1,5,5,1 where the scan gives 5,1,5,1",
            ),
        ],
    )
    def test_a_broken_class_tally_fails_the_count_suite_past_max_n_9(
        self, attr, fault, checks, counterexample, monkeypatch
    ):
        monkeypatch.setattr(verify, attr, fault)
        assert ranged("count formulas vs enumeration", 1, 9).passed
        result = ranged("count formulas vs enumeration", 1, 20)
        assert (result.checked, result.counterexample) == (checks, counterexample)

    def test_a_swap_in_the_second_kernel_block_names_its_first_mask(self, monkeypatch):
        # n = 12 has two high halves of 2^10 words. The class route strays at the
        # block of mask 1030 and gives up; the per-word route then searches the chunk
        # that differs for the first stray mask.
        monkeypatch.setattr(counting, "_listed", composition_blocks_edited(words_swapped(1030, 1040)))
        result = verify._run_order("count", verify._count_oracles, 12)
        assert not result.passed and result.checked == 0
        stray, want = (Composition(gaps_of_mask(12, m)) for m in (1040, 1030))
        assert result.counterexample == f"n=12, mask 1030: the kernel gives {stray}, the walk {want}"

    def test_a_walk_one_word_short_fails_every_suite_that_reads_it(self, monkeypatch):
        # At n = 1 the walk gives no word at all. The round trips zip it with
        # the masks, so they fail at mask 0 after its set's round trip; the
        # count suite names the same mask, where the kernel still gives a word.
        monkeypatch.setattr(verify, "_successor_words", walk_one_word_short)
        results = {r.name: r for r in run_suites(max_n=9)}
        want = {
            "gap-word round trips": (2, "n=1, mask 0: the gap word is 1, the walk None"),
            "count formulas vs enumeration": (0, "n=1, mask 0: the kernel gives 1, the walk None"),
            "part-count refinement": (0, "n=1, k=1"),
        }
        assert {r.name: (r.checked, r.counterexample) for r in results.values() if not r.passed} == want

    def test_a_walk_one_word_short_fails_at_10_where_it_stops_not_with_an_error(self, monkeypatch):
        # From n = 10 the walk is built from the order-9 walk's words, one short of
        # mask 255's. The blocks stop at that short class rather than carry past it,
        # so every suite fails at mask 255 or on its tally, and none raises.
        monkeypatch.setattr(verify, "_successor_words", walk_one_word_short)
        ones = ",".join(["1"] * 8)
        want = {
            "gap-word round trips": (2 * 256, f"n=10, mask 255: the gap word is {ones},2, the walk None"),
            "count formulas vs enumeration": (0, f"n=10, mask 255: the kernel gives {ones},2, the walk None"),
            "part-count refinement": (255, "n=10, k=2"),
        }
        for name, (checks, counterexample) in want.items():
            result = ranged(name, 10, 10)
            assert (result.passed, result.checked, result.counterexample) == (False, checks, counterexample), name

    def test_a_carry_into_chunk_2_one_low_fails_at_its_first_mask(self, monkeypatch):
        # The first carry between chunks runs at n = 10, past the matrix's max_n = 9,
        # and n = 11 is the first order with a chunk 2. The count suite reads the
        # chunks only below n = 10, and a moved unit keeps every part count, so the
        # round trips alone fail, at mask 512: after two checks for each word of
        # n = 1..10 and for each of masks 0..512 of n = 11.
        monkeypatch.setattr(verify, "_successor_chunks", carry_into_chunk_2_one_low)
        fails = {r.name: (r.checked, r.counterexample) for r in run_suites() if not r.passed}
        assert fails == {
            "gap-word round trips": (2 * (2**10 - 1) + 2 * 513, "n=11, mask 512: the gap word is 10,1, the walk 9,2")
        }

    def test_high_elements_one_too_high_fail_the_round_trips_at_mask_256(self, monkeypatch):
        # The mask route's first chunk with high bits is chunk 1 of n = 10, past the
        # matrix's max_n = 9: two checks for each mask of n = 1..9, then for masks 0..255.
        monkeypatch.setattr(verify, "_mask_chunks", high_elements_one_too_high)
        result = ranged("gap-word round trips", 1, 14)
        assert (result.checked, result.counterexample) == (
            2 * (2**9 - 1) + 2 * 256, "n=10, mask 256: the kernel gives 10: 0,9, the mask route 10: 0,10"
        )

    def test_a_swap_in_a_later_chunk_fails_the_round_trips_with_the_per_mask_message(self, monkeypatch):
        # Masks 1030 and 1040 share chunk 4 of n = 12; the chunk is replayed mask by
        # mask, so the masks before 1030 count two checks each, as in one pass.
        def swapped(n, family):
            sets = list(WORDS(n, family))
            if n == 12:
                sets[1030], sets[1040] = sets[1040], sets[1030]
            return iter(sets)

        monkeypatch.setattr(counting, "_words", swapped)
        result = ranged("gap-word round trips", 1, 14)
        stray, want = (verify._set_of_mask(12, m) for m in (1040, 1030))
        assert (result.checked, result.counterexample) == (
            2 * (2**11 - 1) + 2 * 1030, f"n=12, mask 1030: the kernel gives {stray}, the mask route {want}"
        )

    @pytest.mark.parametrize(
        "fault,checks,counterexample",
        [
            # Two checks for each of the 8 masks of n = 4, then the word past them.
            (lambda w: w + [(4,)], 16, "n=4, mask None: the walk gives 4 past the last mask"),
            # Masks 3 and 4 trade words: two checks for each of masks 0..3, the last one failing.
            (lambda w: w[:3] + w[4:5] + w[3:4] + w[5:], 8, "n=4, mask 3: the gap word is 1,1,2, the walk 3,1"),
        ],
    )
    def test_a_walk_past_the_masks_or_out_of_order_fails_the_round_trips_where_it_strays(
        self, fault, checks, counterexample, monkeypatch
    ):
        monkeypatch.setattr(verify, "_successor_words", lambda n: iter(fault(list(SUCCESSOR_WORDS(n)))))
        result = verify._run_order("round trips", verify._round_trips, 4)
        assert not result.passed
        assert (result.checked, result.counterexample) == (checks, counterexample)

    def test_the_scaling_bijection_holds_no_set_of_words(self):
        # Each gcd class is compared with its target stream item by item, so the
        # peak stays near one block of words; per-class sets of the 2^15 words
        # of n = 16 peaked near 17 MB.
        tracemalloc.start()
        try:
            result = verify._run_order("scaling", verify._scaling_bijection, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and result.checked == 2**15
        assert peak < 4 * 2**20

    def test_a_factorisation_that_misses_5_fails_the_divisor_sum_at_25(self, monkeypatch):
        # The mutant reads 25 as prime, in divisors(25) and in the counts alike, so the
        # sum over divisors(25) still gives 2^24; the divisors found by trial include 5.
        monkeypatch.setattr(counting, "_factorize", factorize_skipping_5)
        result = ranged("divisor-sum inversion identity", 1, 64)
        assert not result.passed
        assert result.checked == 25
        assert result.counterexample == f"n=25: {2**24 + 2**4 - 1} != 2^24"

    def test_a_prime_stream_fault_fails_the_scaling_bijection_at_its_first_order(self, monkeypatch):
        # The gcd column seeded with 1 lists the word 2 of order 2 as coprime; a
        # stream of the disconnected words lists nothing at order 1.
        for mutant, counterexample in (
            ("gcd column seeded with 1", "n=2, d=1: word 1,1 maps to 1,1, not 2"),
            ("prime stream lists the disconnected words", "n=1, d=1: word 1 maps to 1, not None"),
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(*MUTANTS[mutant])
                result = ranged("common-factor scaling bijection", 1, 16)
            assert (result.passed, result.counterexample) == (False, counterexample), mutant

    def test_a_library_call_that_raises_fails_its_suite_without_a_traceback(self, monkeypatch, capsys):
        def palindromes_raise(n, family):
            if family == "palindromes":
                raise TypeError("unsupported operand")
            return WORDS(n, family)

        monkeypatch.setattr(counting, "_words", palindromes_raise)
        assert cli.main(["verify", "--max-n", "6"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        want = "FAIL count formulas vs enumeration (3 checks): first counterexample: n=2: TypeError: unsupported operand"
        assert want in out.splitlines()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_raise_in_the_order_72_suite_fails_it_without_a_traceback(self, workers, monkeypatch, capsys):
        def raise_at_72(n):
            if n == 72:
                raise TypeError("boom")
            return counting.count_prime_compositions(n)

        monkeypatch.setattr(verify, "count_prime_compositions", raise_at_72)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        assert cli.main(["verify", "--max-n", "3", "--workers", workers]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        want = "FAIL order-72 recomputation (0 checks): first counterexample: n=72: TypeError: boom"
        assert out.splitlines()[-1] == want

    def test_off_by_one_boundary_gap_fails_against_the_per_mask_route(self, monkeypatch):
        # Lower p_L by one in every low half with exactly two nonzero elements,
        # so only their boundary gap (for sets, boundary element) is wrong.
        monkeypatch.setattr(counting, "_low_classes", low_boundary_shifted)
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["count formulas vs enumeration"]
        assert not result.passed
        assert result.counterexample == "n=3, mask 3: the kernel gives 1,1,2, the walk 1,1,1"
        result = results["gap-word round trips"]
        assert not result.passed
        assert result.counterexample == "n=3, mask 3: the kernel gives 3: 0,1,1, the mask route 3: 0,1,2"
        # Suites without the comparison fail on the malformed set; none raises.
        result = results["gcd preservation"]
        assert not result.passed
        assert result.counterexample == "n=3: parts must be positive integers: (1, 0, 2)"


def off_at_6(count):
    """A count function that is one too high at n = 6 only."""
    return lambda n: count(n) + (n == 6)


def without(word):
    """A stream of the named family with one word missing."""
    return lambda n, family: (w for w in WORDS(n, family) if w != word)


# name -> (owner, attribute, replacement): each mutant breaks one library function.
MUTANTS = {
    "gap word reversed": (
        verify, "gap_composition", lambda s: Composition(gap_composition(s).parts[::-1])
    ),
    "prefix sums of the reversed word": (
        verify, "prefix_sum_set", lambda c: prefix_sum_set(Composition(c.parts[::-1]))
    ),
    "tau without the rescaling": (verify, "connected_set_of", prefix_sum_set),
    "tau inverse without the folding": (verify, "aperiodic_palindrome_of", gap_composition),
    "divisors without n": (verify, "divisors", lambda n: counting.divisors(n)[:-1]),
    "prime count off at 6": (
        verify, "count_prime_compositions", off_at_6(counting.count_prime_compositions)
    ),
    "palindrome count off at 6": (verify, "count_palindromes", off_at_6(counting.count_palindromes)),
    "aperiodic count off at 6": (
        verify, "count_aperiodic_palindromes", off_at_6(counting.count_aperiodic_palindromes)
    ),
    "part counts shifted by one": (
        verify, "count_compositions_with_parts", lambda n, k: math.comb(n - 1, k)
    ),
    "composition 2,3 dropped": (counting, "_words", without((2, 3))),
    "_palindromes low half only": (counting, "_palindromes", low_masks),
    "even-n middles swapped": (counting, "_palindromes", even_middles_swapped),
    "symmetric sets out of order": (verify, "iter_family", symmetric_sets_swapped),
    "gcd predicate ignores the modulus": (
        ConnectionSet, "gcd", lambda self: math.gcd(*self.elements)
    ),
    "gcd class 7 dropped": (counting, "_words", without_word_7),
    "a gcd class out of order": (counting, "_words", class_2_swapped),
    "gcd criterion ignores the modulus": (verify, "is_connected_by_gcd", literal_gcd_connected),
    "kernel boundary gap off by one": (counting, "_low_classes", low_boundary_shifted),
    "last composition dropped": (counting, "_words", last_composition_dropped),
    "successor walk one word short": (verify, "_successor_words", walk_one_word_short),
    "walk's odd step reversed at mask 5": (verify, "_successor_words", odd_step_reversed_at_mask_5),
    "walk chunks one word short": (verify, "_successor_chunks", walk_chunks_one_word_short),
    "mask chunks decode the low bits one place high": (verify, "_mask_chunks", low_bits_one_place_high),
    "symmetric generator scan one set short": (verify, "_symmetric_generators", last_generator_dropped),
    "symmetric scan's end test inverted": (verify, "_symmetric_generators", end_test_inverted),
    "period is the part count": (Composition, "period", lambda self: len(self.parts)),
    "gcd column seeded with 1": (counting, "_low_classes", gcd_column_seeded_with_1),
    "boundary classes spelled with the previous rest": (counting, "_low_classes", classes_with_the_previous_rest),
    "prime stream lists the disconnected words": (counting, "_words", prime_stream_disconnected),
    "prime stream one word long": (counting, "_words", prime_stream_one_word_long),
    "disconnected count off by one": (
        verify, "count_disconnected_compositions", lambda n: counting.count_disconnected_compositions(n) + 1
    ),
    "table row 6 off by one": (counting, "_decimal_rows", table_row_6_off_by_one),
    "traversal that never doubles": (CirculantDigraph, "_reaches_all", one_arc_per_offset),
}


class TestMutantMatrix:
    def test_every_mutant_fails_some_suite(self):
        names = [name for name, _, _ in SUITES]
        kills = {}
        for mutant, (owner, attr, replacement) in MUTANTS.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(owner, attr, replacement)
                kills[mutant] = [not r.passed for r in run_suites(max_n=9)]
        width = max(map(len, MUTANTS))
        matrix = "\n".join(
            [" " * width + "  " + " ".join(str(i) for i in range(len(names)))]
            + [f"{m:<{width}}  " + " ".join("X" if k else "." for k in row) for m, row in kills.items()]
            + [f"{i}: {name}" for i, name in enumerate(names)]
        )
        print(f"mutant x suite kill matrix at max_n = 9 (X: the suite fails)\n{matrix}")
        assert all(any(row) for row in kills.values()), matrix
        # The scaling suite sizes every gcd class by the closed form, so it
        # also catches a dropped word whose class stays non-empty.
        scaling = names.index("common-factor scaling bijection")
        assert kills["composition 2,3 dropped"][scaling]
        # It compares each gcd class with its target stream in order, so it
        # catches a class whose words trade places.
        assert kills["a gcd class out of order"][scaling]
        # Its targets are the prime-compositions streams of n/d, which no other
        # suite reads, so it alone catches a prime stream that lists wrong words,
        # or a word past the last image, as it finds every target stream run out.
        for mutant in (
            "gcd column seeded with 1", "prime stream lists the disconnected words", "prime stream one word long",
        ):
            assert kills[mutant] == [i == scaling for i in range(len(names))], mutant
        # The count suite compares the kernel's compositions with the successor
        # walk chunk by chunk, so it catches every fault of that stream.
        count = names.index("count formulas vs enumeration")
        for mutant in (
            "composition 2,3 dropped", "gcd class 7 dropped", "a gcd class out of order",
            "last composition dropped",
        ):
            assert kills[mutant][count], mutant
        # A boundary class spelled with the wrong rest puts wrong words in every
        # dense stream, which the count and round-trip suites compare mask by mask.
        rounds = names.index("gap-word round trips")
        assert kills["boundary classes spelled with the previous rest"][count]
        assert kills["boundary classes spelled with the previous rest"][rounds]
        # The count, round-trip and part-count suites all read the successor
        # walk's chunks, so each catches a walk, or a chunk, that stops short.
        for mutant in ("successor walk one word short", "walk chunks one word short"):
            for suite in ("count formulas vs enumeration", "gap-word round trips", "part-count refinement"):
                assert kills[mutant][names.index(suite)], (mutant, suite)
        # Only the round trips read the mask route, so they alone catch its faults.
        assert kills["mask chunks decode the low bits one place high"] == [i == rounds for i in range(len(names))]
        # A wrong odd step keeps every part count, so the part-count tally misses it;
        # the count and round-trip suites compare the walk word by word.
        assert kills["walk's odd step reversed at mask 5"] == [i in (rounds, count) for i in range(len(names))]
        # The symmetry suite counts the symmetric sets, so it catches a wrong palindrome count,
        # and compares them with the symmetric-set stream, so it catches that stream's order.
        symmetry = names.index("symmetry vs palindromicity")
        assert kills["palindrome count off at 6"][symmetry]
        assert kills["symmetric sets out of order"][symmetry]
        # The bijection suite compares each gcd class with the sets in mask order, so it
        # catches palindromes out of order and a gcd class with no stream.
        bijection = names.index("aperiodic palindrome bijection")
        assert kills["even-n middles swapped"][bijection]
        assert kills["divisors without n"][bijection]
        # It reads the symmetric generating sets from its own raw-tuple scan, and
        # every word of a class must be the image of some set, so it alone
        # catches a scan that drops a set.
        for mutant in ("symmetric generator scan one set short", "symmetric scan's end test inverted"):
            assert kills[mutant] == [i == bijection for i in range(len(names))], mutant
        # Only the count suite's aperiodic tally and the bijection suite's stream read
        # periods, so a word that always reads as aperiodic fails those two alone.
        assert kills["period is the part count"] == [i in (count, bijection) for i in range(len(names))]
        # Only the order-72 suite reads the disconnected count.
        order_72 = names.index("order-72 recomputation")
        assert kills["disconnected count off by one"] == [i == order_72 for i in range(len(names))]
        # Only the divisor-sum suite reads the table's sieve, comparing each row with count_row.
        divisor_sum = names.index("divisor-sum inversion identity")
        assert kills["table row 6 off by one"] == [i == divisor_sum for i in range(len(names))]
        # Only the connectivity suite walks a digraph; a walk of one arc per offset
        # misses vertices of a connected set from n = 4 on.
        connectivity = names.index("connectivity oracle agreement")
        assert kills["traversal that never doubles"] == [i == connectivity for i in range(len(names))]

    def test_a_wrong_disconnected_count_fails_the_order_72_line_with_its_figures(self, monkeypatch, capsys):
        monkeypatch.setattr(*MUTANTS["disconnected count off by one"])
        assert cli.main(["verify", "--max-n", "9"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "FAIL order-72 recomputation (3 checks): first counterexample: order-72 totals are not "
            "self-consistent [connected=2361183241400454481920 disconnected=34368124929; published figures "
            f"{PUBLISHED_72_CONNECTED} and {PUBLISHED_72_DISCONNECTED} differ from the formula values]"
        )

    @pytest.mark.parametrize("mutant,fails", [
        ("walk's odd step reversed at mask 5", {
            "gap-word round trips": "n=4, mask 5: the gap word is 1,2,1, the walk 2,1,1",
            "count formulas vs enumeration": "n=4, mask 5: the kernel gives 1,2,1, the walk 2,1,1",
        }),
        ("symmetric scan's end test inverted", {
            "aperiodic palindrome bijection": "n=2: word 2 is the image of no set",
        }),
    ])
    def test_a_broken_fast_path_fails_at_its_first_witness(self, mutant, fails, monkeypatch):
        monkeypatch.setattr(*MUTANTS[mutant])
        assert {r.name: r.counterexample for r in run_suites(max_n=9) if not r.passed} == fails

    def test_a_wrong_table_row_fails_the_divisor_sum_line_naming_both_rows(self, monkeypatch, capsys):
        monkeypatch.setattr(*MUTANTS["table row 6 off by one"])
        assert cli.main(["verify", "--max-n", "9"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "FAIL divisor-sum inversion identity (6 checks): first counterexample: "
            "n=6: table row 6,32,27,6,8,5, count_row 6,32,27,5,8,5"
        ]


class ReversedPool:
    """Runs the mapped calls in this process, last first, and returns them in order.

    Records each requested pool size in `sizes`.
    """

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, *iterables):
        calls = list(zip(*iterables))
        return reversed([fn(*args) for args in reversed(calls)])


# The block kernel's functions in counting, which no oracle route may reach.
KERNEL = ("_words", "_dense_blocks", "_low_classes", "_run", "_diffs", "_members")


class TestUnits:
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_units_merge_like_the_sequential_run(self, mutant, monkeypatch):
        # Every unit of a suite runs, even past its first failing order; the
        # merge must keep the smallest failing n and drop the units after it.
        owner, attr, replacement = MUTANTS[mutant]
        monkeypatch.setattr(owner, attr, replacement)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        sequential = run_suites(max_n=9)
        assert not all(r.passed for r in sequential)
        assert untimed(run_suites(max_n=9, workers=2)) == untimed(sequential)

    def test_check_counts_follow_the_closed_forms(self):
        # perfbench/oracle.py derives these counts too; a suite edit that
        # moves one fails here first.
        top = 9
        words = 2**top - 1  # one check per composition of each order up to top
        aperiodic = sum(counting.count_aperiodic_palindromes(n) for n in range(2, top + 1))
        want = {
            "gap-word round trips": 2 * words,
            "gcd preservation": words,
            "symmetry vs palindromicity": words,
            "connectivity oracle agreement": words,
            "aperiodic palindrome bijection": 2 * aperiodic,
            "count formulas vs enumeration": words,
            "divisor-sum inversion identity": top,
            "part-count refinement": words,
            "common-factor scaling bijection": words,
            "order-72 recomputation": 3,
        }
        for workers in (1, 2):
            assert {r.name: r.checked for r in run_suites(max_n=top, workers=workers)} == want

    def test_results_carry_ceiling_and_seconds(self, monkeypatch):
        # A failing suite still reports its top order as its ceiling, not the failing n.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        owner, attr, replacement = MUTANTS["gcd criterion ignores the modulus"]
        for mutant in (None, replacement):
            with pytest.MonkeyPatch.context() as patch:
                if mutant:
                    patch.setattr(owner, attr, mutant)
                for workers in (1, 2):
                    results = run_suites(max_n=9, workers=workers)
                    assert all(r.passed for r in results) == (mutant is None)
                    assert [r.ceiling for r in results] == [min(c, 9) for _, _, c in SUITES[:-1]] + [72]
                    assert all(r.seconds > 0 for r in results)

    def test_one_worker_runs_no_order_past_a_suites_first_failure(self, monkeypatch):
        owner, attr, replacement = MUTANTS["prime count off at 6"]
        monkeypatch.setattr(owner, attr, replacement)
        calls = {name: [] for name, _, _ in SUITES}

        def recording(name, unit):
            def run(n):
                result = unit(n)
                calls[name].append((n, result.passed))
                return result

            return run

        monkeypatch.setattr(verify, "SUITES", tuple((name, recording(name, fn), c) for name, fn, c in SUITES))
        results = run_suites(max_n=9)
        last = {r.name: calls[r.name][-1][0] for r in results if not r.passed}
        assert last == {
            "count formulas vs enumeration": 6,
            "divisor-sum inversion identity": 6,
            "common-factor scaling bijection": 6,
            "order-72 recomputation": 72,
        }
        for (name, _, ceiling), result in zip(SUITES, results):
            top = last.get(name, min(ceiling, 9))
            orders = [72] if ceiling == 72 else list(range(1, top + 1))
            assert calls[name] == [(n, n != last.get(name)) for n in orders]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_symmetric_generators_equal_the_filtered_sets(self, n):
        want = [s.elements for s in counting.iter_family(n, "connection_sets") if s.is_symmetric() and s.gcd() == 1]
        assert list(verify._symmetric_generators(n)) == want

    @pytest.mark.parametrize("n", range(1, 17))
    def test_successor_walk_equals_the_per_mask_route(self, n):
        want = [gaps_of_mask(n, m) for m in range(2 ** (n - 1))]
        assert list(verify._successor_words(n)) == want

    @pytest.mark.parametrize("n", range(1, 17))
    def test_successor_chunks_cut_the_per_mask_route_every_2_to_the_8_masks(self, n):
        chunks = list(verify._successor_chunks(n))
        want = [gaps_of_mask(n, m) for m in range(2 ** (n - 1))]
        assert list(chain.from_iterable(chunks)) == want
        # 2^(n-1) is below 2^8 or a multiple of it, so no chunk is partial but the only one.
        assert [len(chunk) for chunk in chunks] == [min(2**8, 2 ** (n - 1))] * len(chunks)
        assert [chunk[0] for chunk in chunks] == [gaps_of_mask(n, j * 2**8) for j in range(len(chunks))]

    @pytest.mark.parametrize("n", range(1, 23))
    def test_class_tallies_equal_the_per_word_tallies(self, n):
        # The per-word gcd and the full palindrome scan over the walk's chunks stay the class route's oracle.
        prime, pals = 0, []
        for chunk in verify._successor_chunks(n):
            prime += list(starmap(math.gcd, chunk)).count(1)
            pals += [w for w in chunk if w == w[::-1]]
        assert verify._class_tallies(n) == (prime, pals)
        # A palindrome's class is its largest prefix sum of at most k. Both mirror
        # branches find some from n = 3 to 19; from 20 up no class outweighs its rest.
        k = min(counting._LOW_BITS, n - 1)
        heavy = {2 * max(s for s in accumulate(w, initial=0) if s <= k) > n for w in pals}
        assert heavy == ({False, True} if 3 <= n <= 19 else {False})

    @pytest.mark.parametrize("n", range(1, 21))
    def test_word_tallies_equal_the_class_tallies(self, n):
        # From n = 10 the per-word route runs only where a block strays; at every order
        # of the count suite it must then tally as the class route does.
        tallies = verify._word_tallies(n)
        with pytest.raises(StopIteration) as done:
            next(tallies)  # an order whose chunks all equal the walk's yields no check
        assert done.value.value == verify._class_tallies(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_mask_chunks_cut_the_per_mask_rule_every_2_to_the_8_masks(self, n):
        chunks = list(verify._mask_chunks(n))
        want = [verify._set_of_mask(n, m).elements for m in range(2 ** (n - 1))]
        assert list(chain.from_iterable(chunks)) == want
        assert [len(chunk) for chunk in chunks] == [min(2**8, 2 ** (n - 1))] * len(chunks)
        assert [chunk[0] for chunk in chunks] == want[:: 2**8]

    def test_successor_chunks_read_nothing_of_the_kernel(self, monkeypatch):
        # The route is the kernel's oracle, so it must not reach the kernel.
        for name in KERNEL:
            monkeypatch.setattr(counting, name, None)
        assert sum(map(len, verify._successor_chunks(16))) == 2**15

    def test_mask_chunks_read_nothing_of_the_kernel(self, monkeypatch):
        for name in KERNEL:
            monkeypatch.setattr(counting, name, None)
        assert sum(map(len, verify._mask_chunks(16))) == 2**15


class TestScanClasses:
    """The count suite, the scaling suite and the symmetric-generator scan read the kernel's blocks from n = 10."""

    @pytest.mark.parametrize("n", range(1, 23))
    def test_symmetric_generators_equal_the_flat_scan(self, n):
        flat = list(verify._scanned_generators(n, counting._words(n, "connection_sets")))
        assert list(verify._symmetric_generators(n)) == flat
        # A set's class is its largest element of at most k. Both mirror branches,
        # 2p <= n and 2p > n, find generators from n = 12 to 19; at n = 10 and 11,
        # where k = n - 1, only 2p > n does, and from 20 up no class outweighs its rest.
        k = min(counting._LOW_BITS, n - 1)
        heavy = {2 * max(e for e in t if e <= k) > n for t in flat}
        if n >= 10:
            assert heavy == ({True} if n < 12 else {False, True} if n <= 19 else {False})

    @pytest.mark.parametrize("n", range(1, 21))
    def test_scaling_classes_give_the_per_word_sizes(self, n):
        words = verify._scaling_words(n)
        with pytest.raises(StopIteration) as stop:
            while True:
                assert next(words) == (1, None)
        sizes, left = stop.value.value
        assert verify._scaling_classes(n) == sizes
        assert sizes == {d: counting.count_prime_compositions(n // d) for d in counting.divisors(n)}
        assert left == dict.fromkeys(sizes)

    @pytest.mark.parametrize(
        "n,suite,owner,attr,fault,checks,counterexample",
        [
            (
                12, "common-factor scaling bijection", counting, "_listed",
                blocks_edited("prime_compositions", 12, last_half_class_3_word_reversed),
                1030, "n=12, d=1: word 1,2,8,1 maps to 1,2,8,1, not 2,1,8,1",
            ),
            (
                13, "common-factor scaling bijection", counting, "_listed",
                blocks_edited("prime_compositions", 13, last_half_class_3_word_reversed),
                3078, "n=13, d=1: word 1,2,8,1,1 maps to 1,2,8,1,1, not 2,1,8,1,1",
            ),
            (
                12, "common-factor scaling bijection", counting, "_listed",
                blocks_edited("prime_compositions", 12, last_half_class_5_missing),
                1041, "n=12, d=1: word 5,6,1 maps to 5,6,1, not 6,5,1",
            ),
            # An extra block's words are left over once every word has its image.
            (
                12, "common-factor scaling bijection", counting, "_listed",
                blocks_edited("prime_compositions", 12, lambda blocks: blocks + blocks[:1]),
                2**11, "n=12, d=1: the prime stream of 12 has the word 1,11 left over",
            ),
            # The class route reads the d = 1 stream as blocks and the others word by word.
            (
                12, "common-factor scaling bijection", counting, "_words", prime_stream_one_word_long,
                2**11, "n=12, d=2: the prime stream of 6 has the word 6 left over",
            ),
            (
                12, "common-factor scaling bijection", counting, "_low_classes", low_boundary_shifted,
                11, "n=12, d=1: word 2,2,9 maps to 2,2,9, not 1,1,2,8",
            ),
            (
                12, "aperiodic palindrome bijection", counting, "_low_classes", low_boundary_shifted,
                2, "n=12, set 12: 0,5,6,7: word 5,1,1,5 is not the next word of its class, 5,2,5",
            ),
        ],
    )
    def test_a_stray_block_gives_the_per_word_result(
        self, n, suite, owner, attr, fault, checks, counterexample, monkeypatch
    ):
        unit = dict((name, fn) for name, fn, _ in SUITES)[suite]
        monkeypatch.setattr(owner, attr, fault)
        result = unit(n)
        assert (result.passed, result.checked, result.counterexample) == (counterexample is None, checks, counterexample)
        monkeypatch.setattr(verify, "_BY_CLASS_FROM", 99)
        assert untimed([result]) == untimed([unit(n)])

    @pytest.mark.parametrize(
        "owner,attr,fault",
        [
            # Pieces that reach their lowered p.
            (counting, "_low_classes", low_boundary_shifted),
            (counting, "_listed", blocks_edited("connection_sets", 12, last_half_class_1_piece_doubled)),
            (counting, "_listed", blocks_edited("connection_sets", 12, class_5_rest_unsorted)),
        ],
    )
    def test_a_block_off_the_class_shape_hides_no_symmetric_set(self, owner, attr, fault, monkeypatch):
        # Such blocks are scanned set by set, and the scan finds what the flat scan finds.
        monkeypatch.setattr(owner, attr, fault)
        scanned = []
        scan = verify._scanned_generators
        monkeypatch.setattr(verify, "_scanned_generators", lambda n, tuples: scan(n, scanned.append(n) or tuples))
        found = list(verify._symmetric_generators(12))
        assert scanned and found == list(scan(12, counting._words(12, "connection_sets")))

    @pytest.mark.parametrize("n,generator", [(23, (0, 11, 12)), (24, (0, 11, 13))])
    def test_the_bijection_holds_where_class_0_first_holds_generators(self, n, generator):
        # From n = 23 a set with no element in 1..10 can generate Z_n symmetrically;
        # its class 0 keys on its rest without the rest's leading 0.
        assert generator in verify._symmetric_generators(n)
        result = verify._run_order("bijection", verify._palindrome_bijection, n)
        assert (result.passed, result.checked) == (True, 2 * counting.count_aperiodic_palindromes(n))

    def test_the_unpatched_kernel_takes_the_class_routes_from_10_and_the_per_word_routes_below(self, monkeypatch):
        # No silent fallback: with the three per-word routes gone, every order from 10
        # to each suite's ceiling still passes, and with the class routes gone n = 1..9 do.
        full = {  # a passing order's checks
            "count formulas vs enumeration": lambda n: 2 ** (n - 1),
            "common-factor scaling bijection": lambda n: 2 ** (n - 1),
            "aperiodic palindrome bijection": lambda n: 2 * counting.count_aperiodic_palindromes(n) if n > 1 else 0,
        }
        ceilings = {name: ceiling for name, _, ceiling in SUITES}

        def run(first, last=None):
            for name, checks in full.items():
                for n in range(first, (last or ceilings[name]) + 1):
                    result = ranged(name, n, n)
                    assert (result.passed, result.checked) == (True, checks(n)), result

        with pytest.MonkeyPatch.context() as patch:
            for route in ("_word_tallies", "_scaling_words", "_scanned_generators"):
                patch.setattr(verify, route, None)
            run(10)
        for route in ("_class_tallies", "_scaling_classes", "_mirrored_generators"):
            monkeypatch.setattr(verify, route, None)
        run(1, 9)


def palindrome_test_wrong_on(parts):
    """Deliberately broken predicate: the word `parts` reads as the opposite of what it is."""
    is_palindrome = Composition.is_palindrome
    return lambda self: is_palindrome(self) != (self.parts == parts)


def sets_swapped_at(order, i, j):
    """Deliberately broken stream: the connection sets of masks i and j of `order` trade places."""

    def words(n, family):
        items = WORDS(n, family)
        if (n, family) != (order, "connection_sets"):
            return items
        items = list(items)
        items[i], items[j] = items[j], items[i]
        return iter(items)

    return words


class TestOnePass:
    """Inside `run_suites`, one pass per order serves the round-trip, gcd and symmetry suites."""

    def test_the_suites_of_the_pass_lead_the_registry(self):
        # run_suites groups a pool task by registry index.
        assert tuple(unit.args[1] for _, unit, _ in SUITES[: len(verify._ONE_PASS)]) == verify._ONE_PASS

    def test_a_clean_run_takes_every_order_from_the_pass(self, monkeypatch):
        served = []
        one_pass = verify._one_pass
        monkeypatch.setattr(verify, "_one_pass", lambda n: served.append(n) or one_pass(n))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        for workers in (1, 2):
            served.clear()
            assert all(r.passed for r in run_suites(max_n=14, workers=workers))
            assert sorted(served) == list(range(1, 15)), workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_switching_the_pass_off_changes_no_result(self, workers, monkeypatch):
        shared = run_suites(max_n=14, workers=workers)
        monkeypatch.setattr(verify, "_one_pass", lambda n: None)
        assert untimed(run_suites(max_n=14, workers=workers)) == untimed(shared)

    @pytest.mark.parametrize(
        "owner,attr,fault,broken",
        [
            (ConnectionSet, "gcd", lambda self: math.gcd(*self.elements), "gcd preservation"),
            # Mask 300 of n = 11 is in chunk 1; its word 3,1,2,3,2 is no palindrome.
            (Composition, "is_palindrome", palindrome_test_wrong_on(gaps_of_mask(11, 300)), "symmetry vs palindromicity"),
            # Neither set is symmetric, so only the round trips see the swap.
            (counting, "_words", sets_swapped_at(10, 300, 301), "gap-word round trips"),
        ],
    )
    def test_a_fault_in_one_claim_gives_each_suite_its_own_bodys_result(self, owner, attr, fault, broken, monkeypatch):
        monkeypatch.setattr(owner, attr, fault)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        names = [name for name, _, _ in SUITES[: len(verify._ONE_PASS)]]
        alone = [ranged(name, 1, 11) for name in names]  # outside run_suites: each body on its own
        for workers in (1, 2):
            results = run_suites(max_n=11, workers=workers)[: len(names)]
            assert untimed(results) == untimed(alone), workers
        words = 2**11 - 1
        full = {"gap-word round trips": 2 * words, "gcd preservation": words, "symmetry vs palindromicity": words}
        assert [(r.name, r.passed) for r in alone] == [(name, name != broken) for name in names]
        assert all(r.checked == full[r.name] for r in alone if r.passed)

    def test_no_result_of_a_run_outlives_it(self, monkeypatch):
        # A unit run alone after a run, and the next run, must see a fault that came after it.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
        owner, attr, fault = MUTANTS["gcd predicate ignores the modulus"]
        for workers in (1, 2):
            clean = untimed(run_suites(max_n=9, workers=workers))
            assert all(r.passed for r in clean)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(owner, attr, fault)
                assert not ranged("gcd preservation", 1, 9).passed
                assert not run_suites(max_n=9, workers=workers)[1].passed
            assert untimed(run_suites(max_n=9, workers=workers)) == clean
            assert verify._passes is None


class TestImageMismatch:
    def test_names_the_first_stray_set_instead_of_raising(self, monkeypatch):
        # Without the rescaling, the word 2 of n = 2 maps back to {0}, not to its set {0, 1}.
        monkeypatch.setattr(verify, "connected_set_of", prefix_sum_set)
        results = {r.name: r for r in run_suites(max_n=9)}
        result = results["aperiodic palindrome bijection"]
        assert not result.passed
        assert result.checked == 2
        assert result.counterexample == "n=2, set 2: 0,1: word 2 maps back to another set, 2: 0"


def test_verify_reads_every_listed_family(monkeypatch):
    read = set()

    def recording(n, family):
        read.add(family)
        return WORDS(n, family)

    monkeypatch.setattr(counting, "_words", recording)
    run_suites(max_n=9)
    assert set(counting.FAMILIES) <= read, set(counting.FAMILIES) - read


def test_every_suite_unit_runs_a_check_body_through_run_order():
    # A hand-built unit would time, count and catch its errors on its own.
    for name, unit, _ in SUITES:
        assert isinstance(unit, functools.partial) and unit.func is verify._run_order, name
        assert unit.args[0] == name and inspect.isgeneratorfunction(unit.args[1]), name


def test_every_private_module_function_has_a_library_caller():
    # A module-level _name that src/circomp names only in its own def serves tests alone.
    trees = [ast.parse(path.read_text()) for path in pathlib.Path(verify.__file__).parent.glob("*.py")]
    named = {getattr(node, "id", getattr(node, "attr", None)) for tree in trees for node in ast.walk(tree)}
    private = {node.name for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert sorted(name for name in private - named if name.startswith("_")) == []


def test_every_public_function_is_named_by_the_library_or_the_readme():
    # A function or method that no library code, no __all__ and no README python
    # example names serves tests alone: it belongs in tests/references.py.
    trees = [ast.parse(path.read_text()) for path in pathlib.Path(verify.__file__).parent.glob("*.py")]
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks, "README.md has no python example"
    examples = [ast.parse(block, "README.md") for block in blocks]  # a broken example fails here
    named = {getattr(node, "id", getattr(node, "attr", None)) for tree in trees + examples for node in ast.walk(tree)}
    exported = {
        node.value for tree in trees for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)
    }
    defined = {node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    dunder = re.compile(r"^__\w+__$")
    assert sorted(name for name in defined - named - exported if not dunder.match(name)) == []


class TestOrder72:
    def test_self_consistent_and_flags_published_figures(self):
        result = SUITES[-1][1](72)
        assert result.passed
        assert "2361183241400454481920" in result.detail
        assert "34368124928" in result.detail
        assert str(PUBLISHED_72_CONNECTED) in result.detail
        assert str(PUBLISHED_72_DISCONNECTED) in result.detail
