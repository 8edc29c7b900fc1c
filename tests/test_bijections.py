import pytest
from hypothesis import given, strategies as st

from circomp.compositions import Composition
from circomp.circulant import ConnectionSet, is_connected_by_gcd
from circomp.bijections import (
    aperiodic_palindrome_of,
    connected_set_of,
    gap_composition,
    prefix_sum_set,
)
from references import all_sets, aperiodic_palindromes, brute_compositions


words = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=9).map(
    lambda ps: Composition(tuple(ps))
)


class TestGapComposition:
    @pytest.mark.parametrize(
        "n,elems,word",
        [
            (5, (0, 2, 3), (2, 1, 2)),
            (5, (0,), (5,)),
            (8, (0, 1, 4, 7), (1, 3, 3, 1)),
        ],
    )
    def test_examples(self, n, elems, word):
        assert gap_composition(ConnectionSet(n, elems)) == Composition(word)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_totals_and_part_counts(self, n):
        for s in all_sets(n):
            c = gap_composition(s)
            assert c.total == n
            assert c.part_count == s.size


class TestPrefixSumSet:
    def test_examples(self):
        assert prefix_sum_set(Composition((1, 4))) == ConnectionSet(5, (0, 1))
        assert prefix_sum_set(Composition((9,))) == ConnectionSet(9, (0,))
        assert prefix_sum_set(Composition((1,) * 6)) == ConnectionSet(6, tuple(range(6)))


class TestRoundTrips:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_set_direction(self, n):
        for s in all_sets(n):
            assert prefix_sum_set(gap_composition(s)) == s

    @pytest.mark.parametrize("n", range(1, 15))
    def test_word_direction(self, n):
        for parts in brute_compositions(n):
            c = Composition(parts)
            assert gap_composition(prefix_sum_set(c)) == c

    @given(words)
    def test_word_direction_random(self, c):
        assert gap_composition(prefix_sum_set(c)) == c


class TestGcdAndSymmetryTransport:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_gcd_preserved(self, n):
        for s in all_sets(n):
            assert gap_composition(s).gcd() == s.gcd()

    @pytest.mark.parametrize("n", range(1, 15))
    def test_symmetry_iff_palindrome(self, n):
        for s in all_sets(n):
            assert s.is_symmetric() == gap_composition(s).is_palindrome()


class TestPalindromeOf:
    """The gap word of a symmetric set is its palindrome."""

    def test_examples(self):
        assert gap_composition(ConnectionSet(8, (0, 3, 5))) == Composition((3, 2, 3))
        assert gap_composition(ConnectionSet(8, (0, 2, 4, 6))) == Composition((2, 2, 2, 2))

    def test_rejects_asymmetric(self):
        # An asymmetric set's gap word is not a palindrome.
        assert not gap_composition(ConnectionSet(5, (0, 1))).is_palindrome()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_always_palindromic(self, n):
        for s in all_sets(n):
            if s.is_symmetric():
                assert gap_composition(s).is_palindrome()


class TestConnectedSetOf:
    @pytest.mark.parametrize(
        "word,n,elems",
        [
            ((1, 6, 1), 8, (0, 1, 7)),
            ((2, 4, 2), 8, (0, 1, 3, 4, 5, 7)),
            ((8,), 8, tuple(range(8))),
        ],
    )
    def test_examples(self, word, n, elems):
        assert connected_set_of(Composition(word)) == ConnectionSet(n, elems)

    def test_rejects_non_palindrome(self):
        with pytest.raises(ValueError):
            connected_set_of(Composition((1, 4)))

    def test_rejects_periodic(self):
        with pytest.raises(ValueError):
            connected_set_of(Composition((2, 2)))

    def test_rejects_total_below_two(self):
        with pytest.raises(ValueError):
            connected_set_of(Composition((1,)))

    def test_agrees_with_prefix_sums_on_coprime_words(self):
        for n in range(2, 13):
            for parts in brute_compositions(n):
                c = Composition(parts)
                if c.is_palindrome() and c.is_aperiodic() and c.gcd() == 1:
                    assert connected_set_of(c) == prefix_sum_set(c)


class TestAperiodicPalindromeOf:
    @pytest.mark.parametrize(
        "n,elems,word",
        [
            (8, (0, 1, 7), (1, 6, 1)),
            (8, (0, 1, 3, 4, 5, 7), (2, 4, 2)),
            (8, tuple(range(8)), (8,)),
        ],
    )
    def test_examples(self, n, elems, word):
        assert aperiodic_palindrome_of(ConnectionSet(n, elems)) == Composition(word)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            aperiodic_palindrome_of(ConnectionSet(5, (0, 1)))

    def test_rejects_non_generating(self):
        with pytest.raises(ValueError):
            aperiodic_palindrome_of(ConnectionSet(8, (0, 4)))

    def test_rejects_modulus_one(self):
        with pytest.raises(ValueError):
            aperiodic_palindrome_of(ConnectionSet(1, (0,)))


class TestAperiodicPalindromeBijection:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_exhaustive(self, n):
        aperiodic = aperiodic_palindromes(n)
        targets = {s for s in all_sets(n) if s.is_symmetric() and is_connected_by_gcd(s)}
        images = [connected_set_of(c) for c in aperiodic]
        assert len(set(images)) == len(images)
        assert set(images) == targets
        for c in aperiodic:
            img = connected_set_of(c)
            assert img.is_symmetric() and is_connected_by_gcd(img)
            assert aperiodic_palindrome_of(img) == c
        for s in targets:
            assert connected_set_of(aperiodic_palindrome_of(s)) == s
