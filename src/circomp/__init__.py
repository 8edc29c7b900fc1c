"""Compositions of n, circulant (di)graphs of order n, and the maps between them."""

from .compositions import Composition, parse_composition
from .circulant import (
    CirculantDigraph,
    ConnectionSet,
    build_digraph,
    build_graph,
    is_connected_by_gcd,
    parse_connection_set,
)
from .bijections import (
    aperiodic_palindrome_of,
    connected_set_of,
    gap_composition,
    prefix_sum_set,
)
from .counting import (
    FAMILIES,
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
)

__version__ = "0.1.0"

__all__ = [
    "CirculantDigraph",
    "Composition",
    "ConnectionSet",
    "CountRow",
    "FAMILIES",
    "aperiodic_palindrome_of",
    "build_digraph",
    "build_graph",
    "connected_set_of",
    "count_aperiodic_palindromes",
    "count_compositions",
    "count_compositions_with_parts",
    "count_disconnected_compositions",
    "count_palindromes",
    "count_prime_compositions",
    "count_row",
    "count_table",
    "divisors",
    "gap_composition",
    "is_connected_by_gcd",
    "iter_family",
    "moebius",
    "parse_composition",
    "parse_connection_set",
    "prefix_sum_set",
    "__version__",
]
