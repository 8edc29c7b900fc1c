"""Structure-preserving maps between connection sets and compositions.

Walking Z_n anticlockwise and recording the gap between consecutive
members of a connection set spells out a composition of n, and summing a
composition's prefixes recovers the set. The two constructions are
mutually inverse, they preserve the number of parts and the gcd, and
they pair palindromic words with symmetric sets. Restricting further and
rescaling words whose parts share a factor yields the pairing of
aperiodic palindromes of n with the symmetric sets that generate all of
Z_n, i.e. with the connected circulant graphs of order n.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from .compositions import Composition
from .circulant import ConnectionSet


def gap_composition(connection: ConnectionSet) -> Composition:
    """Composition of the cyclic gaps between consecutive set elements.

    For elements 0 = a_1 < ... < a_t the parts are a_2 - a_1, ...,
    a_t - a_{t-1} followed by the wrap-around n - a_t, so the word has
    exactly t parts summing to n. The lone set {0} maps to the one-part
    word n.
    """
    n, elems = connection.modulus, connection.elements
    return Composition(tuple(map(sub, elems[1:] + (n,), elems)))


def prefix_sum_set(composition: Composition) -> ConnectionSet:
    """Connection set of the partial sums 0, p_1, p_1+p_2, ... over Z_total.

    Inverse of :func:`gap_composition`; the final part is recovered as
    the wrap-around gap, so it contributes no element.
    """
    parts = composition.parts
    return ConnectionSet(sum(parts), tuple(accumulate(parts[:-1], initial=0)))


def connected_set_of(palindrome: Composition) -> ConnectionSet:
    """Map an aperiodic palindrome of n to a symmetric generating set of Z_n.

    A word with coprime parts maps straight through its prefix sums. A
    common factor d > 1 is first rescaled away (every part divided by d,
    the quotient word repeated d times), which keeps the total at n and
    gives the image gcd 1, so the resulting set generates all of Z_n and
    the corresponding circulant graph is connected.
    """
    c = palindrome
    if c.total < 2:
        raise ValueError("defined for totals >= 2 only")
    if not c.is_palindrome():
        raise ValueError(f"{c} is not a palindrome")
    if not c.is_aperiodic():
        raise ValueError(f"{c} is periodic")
    if c.gcd() != 1:
        c = c.rescale()
    return prefix_sum_set(c)


def aperiodic_palindrome_of(connection: ConnectionSet) -> Composition:
    """Inverse of :func:`connected_set_of` on symmetric generating sets.

    The gap word of such a set is a palindrome with coprime parts, a
    block repeated r times (r = 1 when it is aperiodic). Multiplying
    every part of the block by r gives the unique aperiodic palindrome
    whose rescaling maps back to this set.
    """
    if connection.modulus < 2:
        raise ValueError("defined for modulus >= 2 only")
    if not connection.is_symmetric():
        raise ValueError(f"{connection} is not symmetric")
    if connection.gcd() != 1:
        raise ValueError(f"{connection} does not generate Z_{connection.modulus}")
    word = gap_composition(connection)
    p = word.period()
    r = word.part_count // p
    return Composition(tuple(part * r for part in word.parts[:p]))
