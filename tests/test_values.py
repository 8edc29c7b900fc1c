"""The value-class contract of Composition, ConnectionSet, CirculantDigraph and CountRow.

Each is immutable, hashable and picklable, compares equal only to a
value of its own class, shows its fields in repr, and rejects a bad
argument with the same ValueError, in the same order of checks, however
its constructor is written.
"""

import copy
import inspect
import pickle
from decimal import Decimal

import pytest

from circomp.circulant import CirculantDigraph, ConnectionSet
from circomp.compositions import Composition
from circomp.counting import _COUNTED, CountRow, count_row

ROW = dict(n=6, compositions=32, prime_compositions=27, disconnected=5, palindromes=8,
           aperiodic_palindromes=5)

# (value, its repr, the same value built by keyword, its fields as a tuple)
VALUES = [
    (Composition((1, 2)), "Composition(parts=(1, 2))", Composition(parts=(1, 2)), ((1, 2),)),
    (
        ConnectionSet(4, (0, 1, 3)),
        "ConnectionSet(modulus=4, elements=(0, 1, 3))",
        ConnectionSet(elements=(0, 1, 3), modulus=4),
        (4, (0, 1, 3)),
    ),
    (
        CirculantDigraph(ConnectionSet(4, (0, 1, 3)), False),
        "CirculantDigraph(connection=ConnectionSet(modulus=4, elements=(0, 1, 3)), directed=False)",
        CirculantDigraph(directed=False, connection=ConnectionSet(4, (0, 1, 3))),
        (ConnectionSet(4, (0, 1, 3)), False),
    ),
    (
        CountRow(6, 32, 27, 5, 8, 5),
        "CountRow(n=6, compositions=32, prime_compositions=27, disconnected=5, palindromes=8, "
        "aperiodic_palindromes=5)",
        CountRow(**ROW),
        tuple(ROW.values()),
    ),
]
IDS = ["Composition", "ConnectionSet", "CirculantDigraph", "CountRow"]
FIRST_FIELD = {Composition: "parts", ConnectionSet: "modulus", CirculantDigraph: "connection",
               CountRow: "n"}


@pytest.mark.parametrize("value,text,by_keyword,fields", VALUES, ids=IDS)
class TestContract:
    def test_repr(self, value, text, by_keyword, fields):
        assert repr(value) == text

    def test_keyword_construction_gives_an_equal_value_and_hash(self, value, text, by_keyword,
                                                                fields):
        assert by_keyword == value and not by_keyword != value
        assert hash(by_keyword) == hash(value)

    def test_never_equals_its_fields_as_a_tuple(self, value, text, by_keyword, fields):
        assert value != fields and fields != value
        assert value != fields[0] and not value == None  # noqa: E711

    def test_assignment_and_deletion_raise(self, value, text, by_keyword, fields):
        name = FIRST_FIELD[type(value)]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) == fields[0]

    @pytest.mark.parametrize("trip", [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_round_trips(self, value, text, by_keyword, fields, trip):
        back = trip(value)
        assert back == value and type(back) is type(value)
        assert hash(back) == hash(value) and repr(back) == text

    def test_defines_its_own_init(self, value, text, by_keyword, fields):
        # The benchmark's tracer wraps the class's own __init__ entry.
        assert "__init__" in type(value).__dict__


@pytest.mark.parametrize("cls,args", [(Composition, ((1, 2),)), (ConnectionSet, (4, (0, 1, 3)))],
                         ids=["Composition", "ConnectionSet"])
def test_unchecked_values_behave_like_validated_ones(cls, args):
    # Both constructors store the fields through the slot setters, past Value.__setattr__.
    checked, unchecked = cls(*args), cls._unchecked(*args)
    assert unchecked == checked and hash(unchecked) == hash(checked) and repr(unchecked) == repr(checked)
    for trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        back = trip(unchecked)
        assert back == checked and type(back) is cls and hash(back) == hash(checked)
    for value in (checked, unchecked):
        for name in cls._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)


class TestCountRow:
    def test_fields_follow_the_counted_families(self):
        fields = ("n", *_COUNTED)
        assert tuple(inspect.signature(CountRow).parameters) == fields
        assert tuple(vars(count_row(6))) == fields
        assert vars(count_row(6)) == ROW

    def test_positional_and_keyword_rows_agree(self):
        assert CountRow(*ROW.values()) == CountRow(**ROW) == count_row(6)

    def test_decimal_rows_pickle(self):
        row = CountRow(*map(Decimal, ROW.values()))
        assert pickle.loads(pickle.dumps(row)) == row == copy.deepcopy(row)

    def test_missing_or_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            CountRow(1, 2)
        with pytest.raises(TypeError):
            CountRow(**ROW, extra=1)


def rejection(build, *args, **kwargs):
    with pytest.raises(ValueError) as caught:
        build(*args, **kwargs)
    return str(caught.value)


class TestValidationParity:
    @pytest.mark.parametrize("parts,message", [
        ((), "composition needs at least one part"),
        ([], "composition needs at least one part"),
        ((1, 0), "parts must be positive integers: (1, 0)"),
        ((2, -1, 3), "parts must be positive integers: (2, -1, 3)"),
        ((True, 1), "parts must be positive integers: (True, 1)"),
        ((1, 2.0), "parts must be positive integers: (1, 2.0)"),
        ([0, 1.5], "parts must be positive integers: (0, 1.5)"),
    ])
    def test_composition(self, parts, message):
        assert rejection(Composition, parts) == message

    @pytest.mark.parametrize("modulus,elements,message", [
        ("4", (0,), "modulus must be an integer, got '4'"),
        (4.0, (0, 1), "modulus must be an integer, got 4.0"),
        (True, (0,), "modulus must be an integer, got True"),
        (0, (0,), "modulus must be >= 1, got 0"),
        (-3, (1.5,), "modulus must be >= 1, got -3"),
        (4, (0, True), "elements must be integers: (0, True)"),
        (4, (1.0,), "elements must be integers: (1.0,)"),
        (5, (2, 3), "connection set must contain 0: (2, 3)"),
        (5, (), "connection set must contain 0: ()"),
        (5, (0, 2, 2), "elements must be strictly increasing: (0, 2, 2)"),
        (5, (0, 3, 2), "elements must be strictly increasing: (0, 3, 2)"),
        (5, (0, 7, 6), "elements must be strictly increasing: (0, 7, 6)"),
        (5, (0, 5), "elements must lie in [0, 5): (0, 5)"),
        (5, [0, 2, 9], "elements must lie in [0, 5): (0, 2, 9)"),
    ])
    def test_connection_set(self, modulus, elements, message):
        assert rejection(ConnectionSet, modulus, elements) == message

    def test_circulant_graph_of_an_asymmetric_set(self):
        message = "5: 0,1 is not closed under negation; it defines a digraph only"
        assert rejection(CirculantDigraph, ConnectionSet(5, (0, 1)), directed=False) == message
        assert CirculantDigraph(ConnectionSet(5, (0, 1))).directed is True

    def test_list_arguments_are_stored_as_tuples(self):
        assert Composition([2, 1, 2]).parts == (2, 1, 2)
        assert ConnectionSet(5, [0, 2, 3]).elements == (0, 2, 3)
        assert Composition(iter([3])) == Composition((3,))
