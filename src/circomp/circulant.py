"""Connection sets over Z_n and the circulant (di)graphs they generate.

A connection set is a subset of Z_n containing 0, kept in sorted
canonical form. It generates a digraph on vertices 0..n-1 with an arc
i -> j whenever j - i lies in the set (mod n, i != j); when the set is
closed under negation the arcs pair up and the structure is an
undirected circulant graph. Connectivity is arithmetic in the set (the
set generates Z_n iff its gcd together with n is 1), but an explicit
traversal is kept alongside the gcd criterion so either can check the
other. The traversal holds the reached vertices as bits of one integer
and closes them under each step by path doubling: adding s, then 2s, 4s,
... reaches every multiple of s in about log2(n) rounds, and as steps in
Z_n commute, closing under one step after another reaches the end of
every walk.
"""

from __future__ import annotations

import math
from operator import lt
from collections.abc import Iterable, Iterator

from ._value import INTS, Value


class ConnectionSet(Value):
    """Strictly increasing subset of Z_n whose smallest element is 0."""

    __slots__ = _fields = ("modulus", "elements")
    modulus: int
    elements: tuple[int, ...]

    def __init__(self, modulus: int, elements: tuple[int, ...]) -> None:
        elems = tuple(elements)
        if type(modulus) is not int:
            raise ValueError(f"modulus must be an integer, got {modulus!r}")
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not INTS.issuperset(map(type, elems)):
            raise ValueError(f"elements must be integers: {elems}")
        if not elems or elems[0] != 0:
            raise ValueError(f"connection set must contain 0: {elems}")
        if not all(map(lt, elems, elems[1:])):
            raise ValueError(f"elements must be strictly increasing: {elems}")
        if elems[-1] >= modulus:
            raise ValueError(f"elements must lie in [0, {modulus}): {elems}")
        _set_modulus(self, modulus)
        _set_elements(self, elems)

    @classmethod
    def _unchecked(cls, modulus: int, elements: tuple[int, ...]) -> ConnectionSet:
        """Wrap a canonical element tuple that is valid by construction.

        Skips the checks of ``__init__``; the enumerators use it on sets
        they build themselves, and verify on the tuples of its own mask
        route, so that one it finds malformed still prints as a set. The
        public constructor always validates.
        """
        self = object.__new__(cls)
        _set_modulus(self, modulus)
        _set_elements(self, elements)
        return self

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> ConnectionSet:
        """Canonicalize arbitrary members: reduce mod n, deduplicate, sort.

        The reduced set must contain 0; nothing is inserted silently. The
        modulus and every member must be an int, checked before any
        arithmetic, so a wrong type raises ValueError as in the constructor.
        """
        if type(modulus) is not int:
            raise ValueError(f"modulus must be an integer, got {modulus!r}")
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        listed = tuple(members)
        if not INTS.issuperset(map(type, listed)):
            raise ValueError(f"elements must be integers: {members!r}")
        reduced = sorted({m % modulus for m in listed})
        if not reduced or reduced[0] != 0:
            raise ValueError(f"connection set must contain 0 (mod {modulus}): {members!r}")
        return cls(modulus, tuple(reduced))

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_symmetric(self) -> bool:
        """True iff the set equals its negation, i.e. it defines a graph.

        Negation reverses the order of the nonzero elements, so the set
        is symmetric iff they pair up end to end into sums of n.
        """
        n, rest = self.modulus, self.elements[1:]
        if rest and rest[0] + rest[-1] != n:  # the outermost pair: most sets fail it
            return False
        return all(a + b == n for a, b in zip(rest, reversed(rest)))

    def gcd(self) -> int:
        """gcd of the elements taken together with the modulus; divides n.

        Adjoining n is what makes the value detect generation of Z_n:
        {0, 3} in Z_8 has element gcd 3 but still generates the whole
        group, and gcd(3, 8) = 1 reports exactly that.
        """
        return math.gcd(self.modulus, *self.elements)

    def __str__(self) -> str:
        return f"{self.modulus}: " + ",".join(str(a) for a in self.elements)


def parse_connection_set(text: str) -> ConnectionSet:
    """Parse the "n: a1,a2,..." literal, e.g. "8: 0,1,7"."""
    head, sep, tail = text.partition(":")
    if not sep or not tail.strip():
        raise ValueError(f"bad connection-set literal {text!r}; expected 'n: a1,a2,...'")
    try:
        modulus = int(head)
        members = [int(tok) for tok in tail.split(",")]
    except ValueError:
        raise ValueError(f"bad connection-set literal: {text!r}") from None
    return ConnectionSet.from_members(modulus, members)


class CirculantDigraph(Value):
    """(Di)graph on Z_n with an arc i -> i+s for every nonzero step s.

    Adjacency is answered arithmetically; arc and edge sequences are
    materialized only on demand. ``directed=False`` marks the undirected
    view, whose connection set must be symmetric.
    """

    __slots__ = _fields = ("connection", "directed")
    connection: ConnectionSet
    directed: bool

    def __init__(self, connection: ConnectionSet, directed: bool = True) -> None:
        if not (directed or connection.is_symmetric()):
            raise ValueError(
                f"{connection} is not closed under negation; it defines a digraph only"
            )
        _set_connection(self, connection)
        _set_directed(self, directed)

    @property
    def order(self) -> int:
        return self.connection.modulus

    @property
    def steps(self) -> tuple[int, ...]:
        """Nonzero connection elements; each contributes one arc per vertex."""
        return self.connection.elements[1:]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Every arc, sorted by (source, target)."""
        return _pairs_of(self._runs(pairs=False))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Unordered adjacent pairs, each once, sorted by (low, high) endpoint."""
        return _pairs_of(self._runs(pairs=True))

    def _runs(self, pairs: bool) -> Iterator[tuple[range, tuple[int, ...]]]:
        """Vertex runs, ascending, each with the target offsets its vertices share.

        Vertex i reaches i + o for every offset o: the steps for arcs,
        and for pairs also their negations n - s. Once i >= n - o the
        target wraps round to i + o - n, so the cut points n - o split
        0..n-1 into runs in which every vertex has the same ascending
        offsets: the wrapped ones o - n first, then the plain ones. For
        pairs a wrapped target lies below i, so it is dropped; the pair
        is spelled from its low end.
        """
        n, steps = self.order, self.steps
        offsets = tuple(sorted(set(steps) | {n - s for s in steps})) if pairs else steps
        wrapped = () if pairs else tuple(o - n for o in offsets)
        lo = 0
        for plain in range(len(offsets), -1, -1):
            hi = n - offsets[plain - 1] if plain else n
            yield range(lo, hi), wrapped[plain:] + offsets[:plain]
            lo = hi

    def is_connected(self) -> bool:
        """Traversal oracle: every vertex reachable from 0, arcs followed both ways."""
        return self._reaches_all(self.steps + tuple(-s for s in self.steps))

    def is_strongly_connected(self) -> bool:
        """Every vertex reachable from 0 and 0 reachable from every vertex."""
        return self._reaches_all(self.steps) and self._reaches_all(tuple(-s for s in self.steps))

    def _reaches_all(self, offsets: tuple[int, ...]) -> bool:
        """Walk from 0 by the given offsets; True iff the walk reaches every vertex.

        The reached vertices are the bits of an n-bit integer, and a step
        by s rotates it. For each offset s in turn, the reached set R takes
        R | (R rotated by s), then s doubles mod n, until R stops growing:
        after j rounds R holds R_0 + i * s for every i < 2^j, so a round that
        adds nothing leaves R closed under s. A set closed under one offset
        stays closed as the later ones are added, since steps commute in
        Z_n, so at the end R is closed under every offset: it holds the end
        of every walk from 0. No gcd is taken, so the walk stays an
        oracle for `is_connected_by_gcd`.
        """
        n = self.order
        full = (1 << n) - 1
        reached = 1
        for s in offsets:
            s %= n
            while True:
                grown = reached | ((reached << s | reached >> (n - s)) & full)
                if grown == reached:
                    break
                reached, s = grown, 2 * s % n
        return reached == full


# The slot setters of the fields: they store past Value.__setattr__, which refuses assignment.
_set_modulus, _set_elements = ConnectionSet.modulus.__set__, ConnectionSet.elements.__set__
_set_connection, _set_directed = CirculantDigraph.connection.__set__, CirculantDigraph.directed.__set__


def _pairs_of(runs: Iterator[tuple[range, tuple[int, ...]]]) -> Iterator[tuple[int, int]]:
    """The (source, target) pairs of the runs, in order."""
    for vertices, offsets in runs:
        for i in vertices:
            for o in offsets:
                yield (i, i + o)


def build_digraph(connection: ConnectionSet) -> CirculantDigraph:
    """The circulant digraph generated by the connection set."""
    return CirculantDigraph(connection, directed=True)


def build_graph(connection: ConnectionSet) -> CirculantDigraph:
    """The undirected circulant graph; requires a symmetric connection set."""
    return CirculantDigraph(connection, directed=False)


def is_connected_by_gcd(connection: ConnectionSet) -> bool:
    """Connectivity without traversal: the set generates Z_n iff its gcd is 1."""
    return connection.gcd() == 1
