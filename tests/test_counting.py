import decimal
import json
import math
import sys
from itertools import accumulate, chain

import pytest
import sympy

from circomp import counting
from circomp.compositions import Composition
from circomp.circulant import ConnectionSet
from circomp.bijections import gap_composition, prefix_sum_set
from circomp.counting import (
    CountRow,
    count_aperiodic_palindromes,
    count_compositions,
    count_compositions_with_parts,
    count_disconnected_compositions,
    count_palindromes,
    count_prime_compositions,
    count_row,
    count_table,
    divisors,
    iter_family,
    moebius,
    _COUNT_MAX_N,
    _DECIMAL_FROM,
    _TUPLES,
    _decimal_rows,
    _dense_blocks,
    _printed_count,
)
from circomp.verify import _set_of_mask
from references import gaps_of_mask


# A large prime, a prime square, and products with one or two large primes.
LARGE_FACTOR_ORDERS = [1000003, 2 * 1000003, 999983**2, 12 * 999983**2, 999979 * 1000003]


class TestDivisors:
    def test_examples(self):
        assert divisors(72) == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    @pytest.mark.parametrize("n", [*range(1, 500, 7), *LARGE_FACTOR_ORDERS])
    def test_against_sympy(self, n):
        assert divisors(n) == sympy.divisors(n)


class TestMoebius:
    def test_examples(self):
        assert moebius(1) == 1
        assert moebius(4) == 0
        assert moebius(6) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            moebius(0)

    def test_against_sympy(self):
        for m in range(1, 500):
            assert moebius(m) == int(sympy.mobius(m))

    @pytest.mark.parametrize("m", LARGE_FACTOR_ORDERS)
    def test_large_factors_against_sympy(self, m):
        assert moebius(m) == int(sympy.mobius(m))


class TestCounts:
    def test_compositions(self):
        assert count_compositions(5) == 16
        assert count_compositions(1) == 1
        assert count_compositions(72) == 2361183241434822606848
        assert count_compositions(72) == sum(count_prime_compositions(d) for d in divisors(72))

    def test_with_parts(self):
        assert count_compositions_with_parts(5, 2) == 4
        assert count_compositions_with_parts(9, 1) == 1
        assert count_compositions_with_parts(8, 3) == 21

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 6), (1, 2)])
    def test_with_parts_rejects_bad_k(self, n, k):
        with pytest.raises(ValueError):
            count_compositions_with_parts(n, k)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_with_parts_row_sum(self, n):
        assert sum(count_compositions_with_parts(n, k) for k in range(1, n + 1)) == count_compositions(n)

    def test_prime(self):
        assert count_prime_compositions(5) == 15
        assert count_prime_compositions(12) == 2010
        assert count_prime_compositions(1) == 1
        assert count_prime_compositions(72) == 2361183241400454481920

    def test_disconnected(self):
        assert count_disconnected_compositions(10) == 17
        assert count_disconnected_compositions(8) == 8
        assert count_disconnected_compositions(72) == 34368124928

    @pytest.mark.parametrize("n", range(1, 41))
    def test_disconnected_equals_proper_divisor_sum(self, n):
        assert count_disconnected_compositions(n) == sum(
            count_prime_compositions(d) for d in divisors(n) if d != n
        )

    def test_palindromes(self):
        assert count_palindromes(8) == 16
        assert count_palindromes(2) == 2
        assert count_palindromes(9) == 16
        assert count_palindromes(1) == 1

    def test_aperiodic_palindromes(self):
        assert count_aperiodic_palindromes(8) == 12
        assert count_aperiodic_palindromes(4) == 2
        assert count_aperiodic_palindromes(2) == 1

    def test_aperiodic_rejects_below_two(self):
        with pytest.raises(ValueError):
            count_aperiodic_palindromes(1)

    def test_kernel_matches_full_divisor_sum(self):
        for n in range(2, 2001):
            terms = [(d, moebius(n // d)) for d in divisors(n)]
            assert count_prime_compositions(n) == sum(mu << (d - 1) for d, mu in terms)
            assert count_aperiodic_palindromes(n) == sum(
                mu * ((1 << (d // 2)) - 1) for d, mu in terms
            )

    @pytest.mark.parametrize("n", range(1, 65))
    def test_moebius_inversion_identity(self, n):
        assert sum(count_prime_compositions(d) for d in divisors(n)) == 1 << (n - 1)


class TestMaskHelpers:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_fast_gaps_match_reference_map(self, n):
        for mask in range(1 << (n - 1)):
            assert Composition(gaps_of_mask(n, mask)) == gap_composition(_set_of_mask(n, mask))

    def test_set_of_mask(self):
        assert _set_of_mask(5, 0b0110) == ConnectionSet(5, (0, 2, 3))
        assert _set_of_mask(5, 0) == ConnectionSet(5, (0,))


class TestIterFamily:
    def test_compositions_order_and_length(self):
        items = list(iter_family(5, "compositions"))
        assert len(items) == 16
        assert items[0] == Composition((5,))
        assert items[-1] == Composition((1,) * 5)
        assert [str(c) for c in items[:3]] == ["5", "1,4", "2,3"]

    def test_connection_sets_order(self):
        items = list(iter_family(4, "connection_sets"))
        assert [s.elements for s in items] == [
            (0,), (0, 1), (0, 2), (0, 1, 2), (0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3),
        ]

    def test_aperiodic_palindromes_small(self):
        assert [str(c) for c in iter_family(4, "aperiodic_palindromes")] == ["4", "1,2,1"]
        assert sum(1 for _ in iter_family(8, "aperiodic_palindromes")) == 12

    def test_order_one(self):
        assert list(iter_family(1, "compositions")) == [Composition((1,))]
        assert list(iter_family(1, "prime_compositions")) == [Composition((1,))]
        assert list(iter_family(1, "connection_sets")) == [ConnectionSet(1, (0,))]

    @pytest.mark.parametrize(
        "family", ["palindromes", "aperiodic_palindromes", "symmetric_connection_sets"]
    )
    def test_palindromic_families_reject_order_one(self, family):
        with pytest.raises(ValueError):
            iter_family(1, family)

    def test_rejects_unknown_family_and_bad_order(self):
        with pytest.raises(ValueError):
            iter_family(5, "partitions")
        with pytest.raises(ValueError):
            iter_family(0, "compositions")

    @pytest.mark.parametrize("n", range(2, 19))
    def test_palindromes_match_naive_filter(self, n):
        words = list(iter_family(n, "compositions"))
        for family, keep in (
            ("palindromes", Composition.is_palindrome),
            ("aperiodic_palindromes", lambda c: c.is_palindrome() and c.is_aperiodic()),
        ):
            assert [c.parts for c in iter_family(n, family)] == [c.parts for c in words if keep(c)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_prime_family_matches_filter(self, n):
        fast = [c.parts for c in iter_family(n, "prime_compositions")]
        naive = [c.parts for c in iter_family(n, "compositions") if c.gcd() == 1]
        assert fast == naive

    @pytest.mark.parametrize("n", range(2, 17))
    def test_symmetric_family_matches_filter(self, n):
        fast = [s.elements for s in iter_family(n, "symmetric_connection_sets")]
        naive = [s.elements for s in iter_family(n, "connection_sets") if s.is_symmetric()]
        assert fast == naive

    @pytest.mark.parametrize("n", range(2, 25))
    def test_palindromes_and_symmetric_sets_share_one_mask_stream(self, n):
        words = iter_family(n, "palindromes")
        sets = iter_family(n, "symmetric_connection_sets")
        assert [prefix_sum_set(c) for c in words] == list(sets)

    @pytest.mark.parametrize("n", range(21, 27))
    def test_palindromic_streams_past_the_first_block(self, n):
        # From n = 22 on, the palindromes fill more than one block of 2^10.
        words = [c.parts for c in iter_family(n, "palindromes")]
        assert words == list(counting._palindromes(n))
        assert len(words) == count_palindromes(n)
        aperiodic = sum(1 for _ in iter_family(n, "aperiodic_palindromes"))
        assert aperiodic == count_aperiodic_palindromes(n)
        assert sum(1 for _ in iter_family(n, "symmetric_connection_sets")) == count_palindromes(n)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_stream_lengths_match_counts(self, n):
        assert sum(1 for _ in iter_family(n, "compositions")) == count_compositions(n)
        assert sum(1 for _ in iter_family(n, "prime_compositions")) == count_prime_compositions(n)
        assert sum(1 for _ in iter_family(n, "palindromes")) == count_palindromes(n)
        assert (
            sum(1 for _ in iter_family(n, "aperiodic_palindromes"))
            == count_aperiodic_palindromes(n)
        )
        assert sum(1 for _ in iter_family(n, "symmetric_connection_sets")) == count_palindromes(n)


def mask_of(item):
    """The mask of a word (the bits of its prefix sums) or of a set (its nonzero elements)."""
    points = accumulate(item.parts[:-1]) if isinstance(item, Composition) else item.elements[1:]
    return sum(1 << (p - 1) for p in points)


# family -> (closed-form size, membership at order n)
PALINDROMIC = {
    "palindromes": (count_palindromes, lambda n, c: Composition(c.parts).total == n and c.is_palindrome()),
    "aperiodic_palindromes": (
        count_aperiodic_palindromes,
        lambda n, c: Composition(c.parts).total == n and c.is_palindrome() and c.is_aperiodic(),
    ),
    "symmetric_connection_sets": (
        count_palindromes,
        lambda n, s: ConnectionSet(s.modulus, s.elements).modulus == n and s.is_symmetric(),
    ),
}


def palindromic_oracle(n, family):
    """(every item is a member, the masks strictly ascend, the length is the closed form).

    All three together say the stream is exactly the family, in mask
    order, without a scan of the 2^(n-1) masks.
    """
    size, member = PALINDROMIC[family]
    items = list(iter_family(n, family))
    masks = [mask_of(x) for x in items]
    return (
        all(member(n, x) for x in items),
        all(a < b for a, b in zip(masks, masks[1:])),
        len(items) == size(n),
    )


PALINDROMES = counting._palindromes


def second_high_half_swapped(n):
    """The palindromes of n with the first two words of the second high half traded.

    A high half holds 2^10 words of the kernel at order ceil(n/2), one
    palindrome each for odd n and two for even n; from n = 23 on there
    is a second one.
    """
    words = list(PALINDROMES(n))
    i = (1 << 10) * (2 - n % 2)
    if i + 1 < len(words):
        words[i], words[i + 1] = words[i + 1], words[i]
    return iter(words)


class TestPalindromicOracle:
    @pytest.mark.parametrize("family", PALINDROMIC)
    @pytest.mark.parametrize("n", range(21, 29))
    def test_members_in_ascending_mask_order_and_counted(self, n, family):
        assert palindromic_oracle(n, family) == (True, True, True)

    @pytest.mark.parametrize("n", [23, 24])
    def test_a_swap_past_the_first_high_half_fails_only_the_mask_order(self, n, monkeypatch):
        monkeypatch.setattr(counting, "_palindromes", second_high_half_swapped)
        # The stream checks made before this oracle all still pass.
        words = [c.parts for c in iter_family(n, "palindromes")]
        assert words == list(counting._palindromes(n))
        assert [prefix_sum_set(Composition(w)) for w in words] == list(
            iter_family(n, "symmetric_connection_sets")
        )
        for family in PALINDROMIC:
            assert sum(1 for _ in iter_family(n, family)) == PALINDROMIC[family][0](n)
            assert palindromic_oracle(n, family) == (True, False, True)


class TestBlockKernel:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_dense_families_match_the_per_mask_route(self, n):
        masks = range(1 << (n - 1))
        words = [gaps_of_mask(n, m) for m in masks]
        assert [c.parts for c in iter_family(n, "compositions")] == words
        coprime = [w for w in words if math.gcd(*w) == 1]
        assert [c.parts for c in iter_family(n, "prime_compositions")] == coprime
        assert list(iter_family(n, "connection_sets")) == [_set_of_mask(n, m) for m in masks]

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 12, 13, 15])
    def test_one_block_of_2_to_the_k_per_high_half(self, n):
        k = min(10, n - 1)
        for family in ("compositions", "connection_sets"):
            sizes = [len(block) for block in _dense_blocks(n, family, _TUPLES)]
            assert sizes == [1 << k] * (1 << (n - 1 - k))

    @pytest.mark.parametrize("sets", [False, True])
    @pytest.mark.parametrize("k", range(11))
    def test_doubled_low_table_equals_the_per_mask_build(self, k, sets):
        want = []
        for m in range(1 << k):
            run = (0,) + counting._run(m, 1)
            gaps = counting._diffs(run)
            want.append((run[:-1] if sets else gaps, run[-1], math.gcd(*gaps)))
        assert counting._low_table(k, sets, _TUPLES) == want

    @pytest.mark.parametrize("n", [1, 5, 11, 12, 14])
    def test_trusted_objects_equal_and_hash_like_validated_ones(self, n):
        listed = [f for f in counting.FAMILIES if n >= counting._FAMILY_TABLE[f].min_n]
        for x in chain.from_iterable(iter_family(n, family) for family in listed):
            sets = isinstance(x, ConnectionSet)
            public = ConnectionSet(n, x.elements) if sets else Composition(x.parts)
            assert type(x) is type(public) and x == public and hash(x) == hash(public)

    def test_huge_order_streams_from_the_first_block(self):
        n = 10**6
        words = iter_family(n, "compositions")
        assert [next(words).parts, next(words).parts] == [(n,), (1, n - 1)]
        sets = iter_family(n, "connection_sets")
        assert [next(sets).elements, next(sets).elements] == [(0,), (0, 1)]


class TestCountTable:
    def test_row_identity(self):
        for row in count_table(64):
            assert row.prime_compositions + row.disconnected == row.compositions

    def test_rows_match_the_count_functions(self):
        for row in count_table(300)[1:]:
            assert row.prime_compositions == count_prime_compositions(row.n)
            assert row.disconnected == count_disconnected_compositions(row.n)
            assert row.palindromes == count_palindromes(row.n)
            assert row.aperiodic_palindromes == count_aperiodic_palindromes(row.n)

    def test_first_row_uses_conventions(self):
        assert count_row(1) == CountRow(1, 1, 1, 0, 1, 1)

    def test_known_row(self):
        row = count_table(15)[14]
        assert row.n == 15
        assert row.prime_compositions == 16365
        assert row.disconnected == 19
        assert row.palindromes == 128
        assert row.aperiodic_palindromes == 123

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_table(0)


@pytest.fixture
def unlimited_int_str():
    """Lift CPython's int -> str digit limit, so the int route can spell any count."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)


COUNTED = counting._COUNTED


def outcome(call):
    """The call's result, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def decimal_doubling():
    """A power-of-two builder over exact Decimals, each 2^k the double of 2^(k-1)."""
    powers = [decimal.Decimal(1)]

    def two(k):
        while len(powers) <= k:
            powers.append(powers[-1] * 2)
        return powers[k]

    return two


class TestPowerOfTwoBuilder:
    @pytest.mark.parametrize("family", COUNTED)
    def test_decimal_powers_give_the_int_counts_and_errors(self, family):
        count, two = counting._FAMILY_TABLE[family].count, decimal_doubling()
        with counting._exact_decimals():
            for n in range(-3, 301):
                assert str(outcome(lambda: count(n, two=two))) == str(outcome(lambda: count(n)))


class TestDecimalRoute:
    @pytest.mark.parametrize("max_n", [1, 2, 300, 5000])
    def test_rows_spell_like_the_int_table(self, max_n):
        rows = [vars(row) for row in count_table(max_n)]
        decimal_rows = [vars(row) for row in _decimal_rows(max_n)]
        assert [{k: str(v) for k, v in r.items()} for r in decimal_rows] == [
            {k: str(v) for k, v in r.items()} for r in rows
        ]
        spelled = ", ".join(
            "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in r.items()) + "}"
            for r in decimal_rows
        )
        assert "[" + spelled + "]" == json.dumps(rows)

    def test_rows_reject_nonpositive_at_the_call(self):
        with pytest.raises(ValueError):
            _decimal_rows(0)

    def test_highly_composite_rows_spell_like_count_row(self):
        wanted = {5040: None, 7560: None, 10080: None}
        for row in _decimal_rows(10080):
            if row.n in wanted:
                wanted[row.n] = {k: str(v) for k, v in vars(row).items()}
        assert wanted == {n: {k: str(v) for k, v in vars(count_row(n)).items()} for n in wanted}

    def test_every_count_is_a_decimal_and_no_row_sees_the_exact_context(self):
        for row in _decimal_rows(40):
            assert decimal.getcontext().prec == decimal.DefaultContext.prec
            counts = [v for k, v in vars(row).items() if k != "n"]
            assert type(row.n) is int and {type(v) for v in counts} == {decimal.Decimal}

    def test_int_rows_are_the_count_table(self):
        assert list(counting._rows(400, 1)) == count_table(400)

    @pytest.mark.parametrize(
        "n", [_DECIMAL_FROM - 1, _DECIMAL_FROM, _DECIMAL_FROM + 1, 50021, 60060, 65536, 90090]
    )
    def test_printed_counts_spell_like_the_int_counts(self, n, unlimited_int_str):
        for family in COUNTED:
            printed = _printed_count(n, family)
            assert str(printed) == str(counting._FAMILY_TABLE[family].count(n))
            assert type(printed) is (int if n < _DECIMAL_FROM else decimal.Decimal)

    def test_printed_count_sums_only_what_its_family_needs(self, monkeypatch):
        def no_sums(*args):
            raise AssertionError("a Moebius sum was taken")

        monkeypatch.setattr(counting, "_moebius_sums", no_sums)
        n = 60000
        digits = str(_printed_count(n, "compositions"))
        assert int(digits[-30:]) == pow(2, n - 1, 10**30)
        assert str(_printed_count(2 * n - 2, "palindromes")) == digits
        with pytest.raises(AssertionError):
            _printed_count(n, "prime_compositions")

    def test_a_million_has_every_digit(self):
        n = 10**6
        digits = str(_printed_count(n, "compositions"))
        assert len(digits) == math.floor((n - 1) * math.log10(2)) + 1
        assert int(digits[-40:]) == pow(2, n - 1, 10**40)
        assert str(_printed_count(n, "palindromes")) == str(_printed_count(n // 2 + 1, "compositions"))

    def test_small_orders_answer_and_fail_like_the_int_counts(self):
        for family in COUNTED:
            count = counting._FAMILY_TABLE[family].count
            for n in (-3, 0, 1, 2, 3):
                assert outcome(lambda: _printed_count(n, family)) == outcome(lambda: count(n))

    def test_an_order_above_the_ceiling_is_refused(self):
        for family in COUNTED:
            with pytest.raises(ValueError, match=f"up to {_COUNT_MAX_N}"):
                _printed_count(_COUNT_MAX_N + 1, family)
