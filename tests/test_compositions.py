import pytest
from hypothesis import given, strategies as st

from circomp.compositions import Composition, parse_composition
from references import brute_compositions


def naive_period(parts):
    """Reference period: smallest p with parts equal to its p-prefix tiled."""
    m = len(parts)
    for p in range(1, m + 1):
        if m % p == 0 and parts == parts[:p] * (m // p):
            return p


words = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10).map(
    lambda ps: Composition(tuple(ps))
)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Composition(())

    @pytest.mark.parametrize("bad", [(0,), (2, 0, 1), (-1,), (3, -2)])
    def test_rejects_nonpositive_parts(self, bad):
        with pytest.raises(ValueError):
            Composition(bad)

    @pytest.mark.parametrize("bad", [(1.5, 2.5), (1.0,), (2, 1.0), ("1",), (True, 2)])
    def test_rejects_non_integer_parts(self, bad):
        with pytest.raises(ValueError, match="parts must be positive integers"):
            Composition(bad)

    def test_list_input_coerced_and_hashable(self):
        c = Composition([2, 1, 2])
        assert c.parts == (2, 1, 2)
        assert hash(c) == hash(Composition((2, 1, 2)))


class TestTotal:
    @pytest.mark.parametrize(
        "parts,total",
        [((2, 1, 2), 5), ((8,), 8), ((1,) * 11, 11)],
    )
    def test_examples(self, parts, total):
        assert Composition(parts).total == total


class TestPalindrome:
    def test_examples(self):
        assert Composition((1, 3, 3, 1)).is_palindrome()
        assert not Composition((1, 4)).is_palindrome()
        assert Composition((7,)).is_palindrome()

    @given(words)
    def test_matches_structural_definition(self, c):
        assert c.is_palindrome() == (c == Composition(c.parts[::-1]))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_count_is_two_to_half_n(self, n):
        found = sum(1 for parts in brute_compositions(n) if parts == parts[::-1])
        assert found == (1 if n == 1 else 2 ** (n // 2))


class TestGcd:
    @pytest.mark.parametrize(
        "parts,g", [((2, 4, 2), 2), ((8,), 8), ((3, 5), 1)]
    )
    def test_examples(self, parts, g):
        assert Composition(parts).gcd() == g

    @given(words)
    def test_divides_total(self, c):
        assert c.total % c.gcd() == 0


class TestPeriod:
    @pytest.mark.parametrize(
        "parts,p",
        [((1, 2, 1, 1, 2, 1), 3), ((2, 1, 2, 1), 2), ((8,), 1),
         (tuple(range(1, 5041)), 5040), (tuple(range(1, 2521)) * 2, 2520)],
    )
    def test_examples(self, parts, p):
        assert Composition(parts).period() == p

    @pytest.mark.parametrize("n", range(1, 15))
    def test_against_naive_oracle(self, n):
        for parts in brute_compositions(n):
            assert Composition(parts).period() == naive_period(parts)

    @given(words)
    def test_divides_part_count_and_reconstructs(self, c):
        p = c.period()
        assert c.part_count % p == 0
        block = Composition(c.parts[:p])
        assert Composition(block.parts * (c.part_count // p)) == c


class TestAperiodic:
    def test_examples(self):
        assert Composition((2, 4, 2)).is_aperiodic()
        assert not Composition((1,) * 8).is_aperiodic()
        assert Composition((1, 2, 1)).is_aperiodic()


class TestRepeat:
    @given(words, st.integers(min_value=1, max_value=4))
    def test_total_and_period_bound(self, c, r):
        out = Composition(c.parts * r)
        assert out.total == r * c.total
        assert out.period() <= c.part_count


class TestRescale:
    @pytest.mark.parametrize(
        "parts,out",
        [
            ((2, 4, 2), (1, 2, 1, 1, 2, 1)),
            ((8,), (1,) * 8),
            ((2, 2), (1, 1, 1, 1)),
        ],
    )
    def test_examples(self, parts, out):
        assert Composition(parts).rescale() == Composition(out)

    def test_rejects_coprime_parts(self):
        with pytest.raises(ValueError):
            Composition((3, 5)).rescale()

    @given(words, st.integers(min_value=2, max_value=5))
    def test_scaled_words_rescale_cleanly(self, c, d):
        scaled = Composition(tuple(p * d for p in c.parts))
        out = scaled.rescale()
        assert out.total == scaled.total
        assert out.gcd() == 1
        assert not out.is_aperiodic()

    @pytest.mark.parametrize("n", range(2, 17))
    def test_preserves_palindromes_exhaustively(self, n):
        for parts in brute_compositions(n):
            c = Composition(parts)
            if c.is_palindrome() and c.gcd() != 1:
                assert c.rescale().is_palindrome()


class TestText:
    @pytest.mark.parametrize(
        "text,parts",
        [
            ("2,1,2", (2, 1, 2)),
            ("212", (2, 1, 2)),
            ("14", (1, 4)),
            ("3,5,12", (3, 5, 12)),
            (" 1 , 6 , 1 ", (1, 6, 1)),
            ("8", (8,)),
            ("10", (10,)),
            ("100", (100,)),
            # int() reads every Unicode decimal digit, so an Arabic-Indic zero
            # (U+0660) makes a comma-less numeral one part, as "0" does in "10".
            ("1\u0660", (10,)),
            ("\u0661\u0660", (10,)),
            ("2\u0660\u0660", (200,)),
        ],
    )
    def test_parse(self, text, parts):
        assert parse_composition(text) == Composition(parts)

    @pytest.mark.parametrize("bad", ["", "1,,2", "1,0", "abc", "1 2", "-3", "0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_composition(bad)

    @pytest.mark.parametrize("bad", ["1,,2", "abc", "²", "1²"])
    def test_unreadable_literals_share_one_message(self, bad):
        # "²" passes str.isdigit but not int(); its message is the same as for "abc".
        with pytest.raises(ValueError, match=f"^bad composition literal: {bad!r}$"):
            parse_composition(bad)

    def test_str_is_canonical_comma_form(self):
        assert str(Composition((1, 6, 1))) == "1,6,1"
        assert str(Composition((3, 5, 12))) == "3,5,12"

    @given(words.filter(lambda c: c.part_count > 1))
    def test_round_trip_multi_part(self, c):
        assert parse_composition(str(c)) == c

    @pytest.mark.parametrize("part", [1, 8, 10, 20, 105])
    def test_round_trip_single_part(self, part):
        assert parse_composition(str(Composition((part,)))) == Composition((part,))

    def test_single_part_with_nonzero_digits_reads_as_digit_word(self):
        # "14" means the two-part word 1,4; the one-part word 14 has no
        # comma-less spelling.
        assert str(Composition((14,))) == "14"
        assert parse_composition("14") == Composition((1, 4))
