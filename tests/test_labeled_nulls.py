"""The labeled-null contract (:class:`repro.datalog.ast.SkolemValue`).

A labeled null is the tagged tuple ``(tag, function_name, args)``, so
CPython hashes and compares a nested Skolem term in C.  These tests pin
down what the rest of the system relies on: structural equality and
hashing, no equality with plain tuples or lists, pickling, the durable
codec's bytes, the serve protocol's encoding, the ``repr`` and the lack
of an order.
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.query import _OrderKey
from repro.datalog import ast
from repro.datalog.ast import SkolemFunction, SkolemValue, is_labeled_null
from repro.serve.protocol import encode_row, encode_value
from repro.storage import codec

NAMES = st.sampled_from(["f", "g", "f_m1_c", "f_m2_d"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(alphabet="ab'\"", max_size=2),
)


def nulls(depth: int = 5) -> st.SearchStrategy:
    """Labeled nulls nested up to ``depth`` levels."""
    args = SCALARS if depth == 1 else st.one_of(SCALARS, nulls(depth - 1))
    return st.builds(
        SkolemValue, NAMES, st.lists(args, max_size=3).map(tuple)
    )


def model(value: object) -> object:
    """A plain structural model of a value: what null equality must mean."""
    if is_labeled_null(value):
        return ("null", value.function_name, tuple(map(model, value.args)))
    return ("scalar", value)


def rebuild(value: object) -> object:
    """A structurally equal copy made of fresh objects."""
    if is_labeled_null(value):
        return SkolemValue(
            "".join(value.function_name), tuple(map(rebuild, value.args))
        )
    return value


def depth(value: object) -> int:
    if is_labeled_null(value):
        return 1 + max(map(depth, value.args), default=0)
    return 0


class TestEqualityAndHash:
    @settings(max_examples=300, deadline=None)
    @given(nulls(), nulls())
    def test_equal_iff_name_and_args_equal(self, a, b):
        assert (a == b) == (model(a) == model(b))
        assert (a != b) == (model(a) != model(b))
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=200, deadline=None)
    @given(nulls())
    def test_fresh_copies_are_equal_and_hash_equal(self, a):
        b = rebuild(a)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert depth(a) <= 5

    @settings(max_examples=200, deadline=None)
    @given(nulls())
    def test_no_null_equals_a_plain_tuple_or_list(self, a):
        name, args = a.function_name, a.args
        impostors = [
            (name, args),
            [name, args],
            ("_LABELED", name, args),
            (None, name, args),
            (name, args, None),
            [ast._LABELED, name, args],
            list(a),
            args,
        ]
        for other in impostors:
            assert a != other and other != a
            assert not a == other and not other == a
            if isinstance(other, tuple):
                assert other not in {a} and a not in {other}

    def test_depth_five_nesting_is_reached(self):
        value = 0
        for level in range(5):
            value = SkolemValue(f"f{level}", (value, "x"))
        assert depth(value) == 5
        assert value == rebuild(value)
        assert hash(value) == hash(rebuild(value))

    def test_skolem_function_builds_the_same_value(self):
        assert SkolemFunction("f")(1, "a") == SkolemValue("f", (1, "a"))

    def test_one_representation(self):
        """No Python-level ``__eq__``/``__hash__`` and no stored hash: the
        C tuple slots do the work, and instances carry no ``__dict__``."""
        assert "__eq__" not in SkolemValue.__dict__
        assert "__hash__" not in SkolemValue.__dict__
        assert SkolemValue.__hash__ is tuple.__hash__
        assert SkolemValue.__slots__ == ()
        assert not dataclasses.is_dataclass(SkolemValue)
        value = SkolemValue("f", (1,))
        assert not hasattr(value, "__dict__")
        assert (value.function_name, value.args) == ("f", (1,))


class TestPickle:
    @settings(max_examples=100, deadline=None)
    @given(nulls())
    def test_round_trips_under_every_protocol(self, a):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(a, protocol))
            assert loaded == a and hash(loaded) == hash(a)
            assert type(loaded) is SkolemValue
            assert loaded[0] is ast._LABELED
            assert model(loaded) == model(a)

    def test_tag_unpickles_to_the_module_singleton(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            tag = pickle.loads(pickle.dumps(ast._LABELED, protocol))
            assert tag is ast._LABELED


# Encodings written by the previous (dataclass) representation of labeled
# nulls.  WAL records and SQLite rows on disk hold exactly these bytes.
GOLDEN_ROW = (
    SkolemValue(
        "f_m1_c",
        (
            1,
            "a",
            None,
            True,
            2.5,
            SkolemValue("g", (SkolemValue("h", ()), ("t", 3))),
        ),
    ),
    7,
    "x",
)
GOLDEN_ROW_TEXT = (
    '[{"$null":["f_m1_c",[1,"a",null,true,2.5,{"$null":["g",'
    '[{"$null":["h",[]]},{"$tuple":["t",3]}]]}]]},7,"x"]'
)


def reference_encoding(value: object) -> object:
    if is_labeled_null(value):
        return {
            "$null": [
                value.function_name,
                [reference_encoding(arg) for arg in value.args],
            ]
        }
    return value


class TestCodec:
    def test_golden_bytes(self):
        assert codec.dumps_row(GOLDEN_ROW) == GOLDEN_ROW_TEXT
        text = codec.dumps_value(SkolemValue("f", (1,)))
        assert text == '{"$null":["f",[1]]}'
        loaded = codec.loads_row(GOLDEN_ROW_TEXT)
        assert loaded == GOLDEN_ROW
        assert type(loaded[0]) is SkolemValue
        assert type(loaded[0].args[5].args[1]) is tuple

    @settings(max_examples=200, deadline=None)
    @given(nulls())
    def test_null_encodes_as_null_not_tuple(self, a):
        text = codec.dumps_value(a)
        assert text == json.dumps(
            reference_encoding(a), separators=(",", ":"), sort_keys=True
        )
        assert codec.loads_value(text) == a


class TestServeProtocol:
    @settings(max_examples=100, deadline=None)
    @given(nulls())
    def test_null_is_sent_as_its_repr(self, a):
        assert encode_value(a) == {"!": repr(a)}
        assert json.loads(json.dumps(encode_row((a, 1)))) == [
            {"!": repr(a)},
            1,
        ]

    def test_repr(self):
        assert repr(SkolemValue("f", (1, "a"))) == "f(1, 'a')"
        nested = SkolemValue("g", (SkolemValue("f", (1,)), None))
        assert repr(nested) == "g(f(1), None)"
        assert str(nested) == "g(f(1), None)"
        assert repr(SkolemValue("h", ())) == "h()"


class TestUnorderable:
    @settings(max_examples=100, deadline=None)
    @given(nulls(), nulls())
    def test_order_comparisons_raise(self, a, b):
        for left, right in ((a, b), (a, 1), (1, a), (a, "s"), ("s", a)):
            with pytest.raises(TypeError):
                left < right  # noqa: B015
            with pytest.raises(TypeError):
                left <= right  # noqa: B015
            with pytest.raises(TypeError):
                left > right  # noqa: B015
            with pytest.raises(TypeError):
                left >= right  # noqa: B015

    @settings(max_examples=100, deadline=None)
    @given(st.lists(nulls(), max_size=8))
    def test_order_key_falls_back_to_type_name_and_repr(self, values):
        values = values + [3, -1]
        by_key = sorted(values, key=_OrderKey)
        # Nulls and ints only meet in the fallback, which orders by type
        # name: "SkolemValue" < "int".
        nulls_first = sorted(
            (v for v in values if is_labeled_null(v)),
            key=lambda v: (type(v).__name__, repr(v)),
        )
        assert by_key == nulls_first + [-1, 3]
        assert [repr(v) for v in by_key[: len(nulls_first)]] == [
            repr(v) for v in nulls_first
        ]
