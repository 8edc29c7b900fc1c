import networkx as nx
import pytest
from hypothesis import given, strategies as st

from circomp.circulant import (
    CirculantDigraph,
    ConnectionSet,
    build_digraph,
    build_graph,
    is_connected_by_gcd,
    parse_connection_set,
)
from circomp.counting import count_aperiodic_palindromes
from references import (
    all_sets, arc_rule, edge_rule, many_step_sets, negated, walked_connected, walked_strongly_connected,
)


def mirror_condition(s):
    """Symmetry as the pairing a_i + a_{t+2-i} = n for i = 2..t."""
    t = s.size
    return all(s.elements[i - 1] + s.elements[t + 1 - i] == s.modulus for i in range(2, t + 1))


random_sets = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.builds(
        ConnectionSet.from_members,
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=3 * n)).map(lambda m: m | {0}),
    )
)


class TestConstruction:
    def test_examples(self):
        assert ConnectionSet.from_members(5, {0, 2, 3}).elements == (0, 2, 3)
        assert ConnectionSet.from_members(8, {0, 4}).elements == (0, 4)

    def test_rejects_missing_zero(self):
        with pytest.raises(ValueError):
            ConnectionSet.from_members(5, {2, 3})

    def test_reduces_and_deduplicates(self):
        assert ConnectionSet.from_members(5, [5, 7, 12, -3]).elements == (0, 2)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            ConnectionSet.from_members(0, {0})

    @pytest.mark.parametrize(
        "n,elems", [(5, (1, 2)), (5, (0, 3, 2)), (5, (0, 2, 2)), (5, (0, 5)), (0, (0,))]
    )
    def test_constructor_rejects_noncanonical(self, n, elems):
        with pytest.raises(ValueError):
            ConnectionSet(n, elems)

    @pytest.mark.parametrize(
        "n,elems,message",
        [
            (4, (0, 1.0), "elements must be"),
            (4, (0.0, 1), "elements must be"),
            (4.0, (0, 1), "modulus must be"),
            (True, (0,), "modulus must be"),
        ],
    )
    def test_constructor_rejects_non_integers(self, n, elems, message):
        with pytest.raises(ValueError, match=message):
            ConnectionSet(n, elems)
        with pytest.raises(ValueError, match=message):
            ConnectionSet.from_members(n, elems)

    @pytest.mark.parametrize(
        "n,members,message",
        [
            ("4", {0}, "modulus must be an integer, got '4'"),
            (4, {0, "1"}, "elements must be integers"),
            (4, [0, True], "elements must be integers"),
        ],
    )
    def test_from_members_checks_types_before_reducing(self, n, members, message):
        with pytest.raises(ValueError, match=message):
            ConnectionSet.from_members(n, members)


class TestInverse:
    @pytest.mark.parametrize(
        "n,elems,inv",
        [
            (5, (0, 1, 2), (0, 3, 4)),
            (8, (0, 4), (0, 4)),
            (5, (0, 2, 3), (0, 2, 3)),
        ],
    )
    def test_examples(self, n, elems, inv):
        assert negated(ConnectionSet(n, elems)) == ConnectionSet(n, inv)

    @given(random_sets)
    def test_involution_preserving_size(self, s):
        assert negated(negated(s)) == s
        assert negated(s).size == s.size
        assert negated(s).elements[0] == 0


class TestSymmetry:
    def test_examples(self):
        assert ConnectionSet(8, (0, 1, 7)).is_symmetric()
        assert not ConnectionSet(5, (0, 1)).is_symmetric()
        assert ConnectionSet(5, (0,)).is_symmetric()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_mirror_pairing(self, n):
        for s in all_sets(n):
            assert s.is_symmetric() == mirror_condition(s)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_symmetric_count_is_two_to_half_n(self, n):
        assert sum(1 for s in all_sets(n) if s.is_symmetric()) == 2 ** (n // 2)


    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_negated_set(self, n):
        for s in all_sets(n):
            assert s.is_symmetric() == (s == negated(s))


class TestGcd:
    @pytest.mark.parametrize(
        "n,elems,g",
        [(8, (0, 3), 1), (8, (0, 2, 6), 2), (5, (0,), 5)],
    )
    def test_examples(self, n, elems, g):
        assert ConnectionSet(n, elems).gcd() == g

    @given(random_sets)
    def test_divides_modulus(self, s):
        assert s.modulus % s.gcd() == 0


class TestDigraph:
    def test_directed_cycle(self):
        g = build_digraph(ConnectionSet(5, (0, 1)))
        assert list(g.arcs()) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    def test_edges_of_asymmetric_set_are_sorted(self):
        g = build_digraph(ConnectionSet(5, (0, 1)))
        assert list(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_zero_only_set_has_no_arcs(self):
        g = build_digraph(ConnectionSet(5, (0,)))
        assert list(g.arcs()) == []

    def test_full_set_gives_complete_digraph(self):
        n = 6
        g = build_digraph(ConnectionSet(n, tuple(range(n))))
        assert len(list(g.arcs())) == n * (n - 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_outdegree_and_rotation_invariance(self, n):
        for s in all_sets(n):
            g = build_digraph(s)
            arcs = set(g.arcs())
            sources = [i for i, _ in arcs]
            assert all(sources.count(i) == s.size - 1 for i in range(n))
            assert all(((i + 1) % n, (j + 1) % n) in arcs for i, j in arcs)
            assert list(g.edges()) == sorted({(min(a), max(a)) for a in arcs})


class TestGraph:
    def test_perfect_matching(self):
        g = build_graph(ConnectionSet(8, (0, 4)))
        assert list(g.edges()) == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_undirected_cycle(self):
        g = build_graph(ConnectionSet(8, (0, 1, 7)))
        assert list(g.edges()) == [
            (0, 1), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        ]

    def test_rejects_asymmetric_set(self):
        with pytest.raises(ValueError):
            build_graph(ConnectionSet(5, (0, 1)))

    def test_the_undirected_view_rejects_an_asymmetric_set(self):
        with pytest.raises(ValueError, match="not closed under negation"):
            CirculantDigraph(ConnectionSet(5, (0, 1)), directed=False)


class TestRuns:
    def check(self, s):
        g = build_digraph(s)
        arcs = list(g.arcs())
        assert arcs == arc_rule(g)
        assert list(g.edges()) == edge_rule(g)
        if s.is_symmetric():
            assert list(build_graph(s).edges()) == edge_rule(g)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_set_to_10(self, n):
        for s in all_sets(n):
            self.check(s)

    def test_random_sets_with_many_steps_to_300(self):
        for s in many_step_sets(12, seed=7):
            self.check(s)

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_runs_tile_the_vertices(self, n):
        for s in all_sets(n):
            for pairs in (False, True):
                runs = list(build_digraph(s)._runs(pairs))
                assert [v for vertices, _ in runs for v in vertices] == list(range(n))
                assert all(len(vertices) > 0 for vertices, _ in runs)

    def test_single_vertex_and_empty_steps(self):
        for s in (ConnectionSet(1, (0,)), ConnectionSet(6, (0,))):
            g = build_digraph(s)
            assert list(g.arcs()) == [] and list(g.edges()) == []
            assert list(build_graph(s).edges()) == []


class TestConnectivity:
    def test_traversal_examples(self):
        assert build_digraph(ConnectionSet(8, (0, 3))).is_connected()
        assert not build_digraph(ConnectionSet(8, (0, 2, 6))).is_connected()
        assert not build_digraph(ConnectionSet(5, (0,))).is_connected()
        assert build_digraph(ConnectionSet(1, (0,))).is_connected()

    def test_gcd_examples(self):
        assert is_connected_by_gcd(ConnectionSet(8, (0, 1, 7)))
        assert not is_connected_by_gcd(ConnectionSet(8, (0, 2, 4, 6)))
        assert is_connected_by_gcd(ConnectionSet(8, (0, 3)))
        assert is_connected_by_gcd(ConnectionSet(1, (0,)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gcd_equals_traversal_exhaustively(self, n):
        for s in all_sets(n):
            assert is_connected_by_gcd(s) == build_digraph(s).is_connected()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weak_equals_strong(self, n):
        for s in all_sets(n):
            g = build_digraph(s)
            assert g.is_connected() == g.is_strongly_connected()


class TestTraversalOracle:
    """Path doubling against the arc-at-a-time walk of tests/references.py."""

    def check(self, s):
        g = build_digraph(s)
        assert (g.is_connected(), g.is_strongly_connected()) == (walked_connected(g), walked_strongly_connected(g)), s

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_set_to_12(self, n):
        for s in all_sets(n):
            self.check(s)

    def test_random_sets_with_many_steps_to_300(self):
        for s in many_step_sets(12, seed=11):
            self.check(s)

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 1000, 65536, 200_000])
    def test_rings(self, n):
        self.check(ConnectionSet(n, (0, 1)))
        self.check(ConnectionSet(n, (0, n - 1)))

    @pytest.mark.parametrize(
        "n,steps",
        [
            (200_000, (5, 77777)),  # connected: gcd(5, 77777, 200000) = 1, each step alone is not
            (200_000, (2, 4)),  # two cosets
            (200_000, (6, 10)),  # gcd 2 with n
            (199_999, (3, 199_996)),  # a step and its negation
            (131_072, (65_536, 98_304)),  # steps of order 2 and 4
            (99_991, (1_234, 56_789)),  # n prime
        ],
    )
    def test_two_step_sets(self, n, steps):
        self.check(ConnectionSet(n, (0, *steps)))


class TestNetworkxOracle:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_circulant_graphs_and_their_connected_count_match_networkx(self, n):
        # A third-party build of each undirected circulant graph, from the steps
        # a <= n/2 of its symmetric set; the connected ones are the paper's
        # corollary, counted by the aperiodic palindromes.
        connected = 0
        for s in filter(ConnectionSet.is_symmetric, all_sets(n)):
            oracle = nx.circulant_graph(n, [a for a in s.elements[1:] if 2 * a <= n])
            assert set(map(frozenset, oracle.edges())) == set(map(frozenset, build_graph(s).edges())), s
            connected += nx.is_connected(oracle)
        assert connected == count_aperiodic_palindromes(n)


class TestText:
    @pytest.mark.parametrize(
        "text,n,elems",
        [
            ("8: 0,1,7", 8, (0, 1, 7)),
            ("5:0,2,3", 5, (0, 2, 3)),
            (" 12 : 12 , 0 , 5 ", 12, (0, 5)),
        ],
    )
    def test_parse(self, text, n, elems):
        assert parse_connection_set(text) == ConnectionSet(n, elems)

    @pytest.mark.parametrize("bad", ["8", "8:", "x: 0,1", "8: 1,2", "8: a,b", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_connection_set(bad)

    @given(random_sets)
    def test_round_trip(self, s):
        assert parse_connection_set(str(s)) == s
