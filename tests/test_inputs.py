"""canonical_json against its oracle, json.dumps with an indent of 2."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from tosaudit.inputs import canonical_json


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# Every code point, lone surrogates and control characters included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_NUMBERS = (st.integers() | st.integers(-10**400, 10**400)
            | st.floats() | st.booleans())
_SCALARS = st.none() | _NUMBERS | _TEXT
# Keys of one dict are of one kind, so sorting them does not fail.
_KEYS = _TEXT | _NUMBERS | st.none()
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.one_of(*(st.dictionaries(keys, inner, max_size=4)
                  for keys in (_TEXT, _NUMBERS, st.none()))),
    max_leaves=30)


@settings(deadline=None, max_examples=500)
@given(_JSON)
@example({"a": [], "b": {}, "c": [[{}], ()], "": "\x00\x1f\"\\é\u2028"})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324])
@example({2**64: -(10**100), 1.5: None, True: 1, -0.0: 0})
@example({None: [None, True, False]})
@example([{1: 0}, {True: 0}, {1.0: 0}, {0: 0, 1: 0}, {False: 0, 1: 0}])
@example(10**4300)
def test_same_text_as_json_dumps(value):
    try:
        expected = oracle(value)
    except ValueError:  # an int past the digit limit
        with pytest.raises(ValueError):
            canonical_json(value)
    else:
        assert canonical_json(value) == expected


@given(st.dictionaries(_KEYS, _SCALARS, min_size=2, max_size=4))
def test_mixed_keys_sort_or_fail_alike(value):
    try:
        expected = oracle(value)
    except TypeError:
        with pytest.raises(TypeError):
            canonical_json(value)
    else:
        assert canonical_json(value) == expected


@pytest.mark.parametrize("value", [
    {1, 2},
    b"bytes",
    {(1, 2): "tuple key"},
    {"nested": [1, {"deeper": {1.5}}]},
    [object()],
])
def test_type_error_where_json_dumps_raises(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        canonical_json(value)
