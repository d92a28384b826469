"""The JSON writer against its oracle, json.dumps with an indent of 2.

canonical_json is checked on its own, and save_results on results
payloads whose records were encoded one by one, as analyze and
review apply encode them. Also: write_atomic's failures.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from tosaudit import inputs
from tosaudit.errors import TosAuditError
from tosaudit.inputs import canonical_json, write_atomic
from tosaudit.pipeline import encode_record, save_results


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


_STR_KEYED = st.dictionaries(_TEXT, _JSON, max_size=4)
_PAYLOADS = st.fixed_dictionaries(
    {"schema_version": st.integers(),
     "results": st.lists(_STR_KEYED, max_size=3),
     "failures": st.lists(st.fixed_dictionaries(
         {"platform": _TEXT, "error": _TEXT}), max_size=2)},
    optional={"provenance": _JSON, "zz": _JSON, "": _SCALARS})


@settings(deadline=None, max_examples=150)
@given(_PAYLOADS)
@example({"schema_version": 1, "results": [], "failures": []})
@example({"schema_version": 1, "results": [{"platform": "a", "b": [{}]}],
          "failures": [], "zz": {"k": [1.5, None]}, "": True})
@example({"schema_version": 1, "results": [{"platform": "é "}, {}],
          "failures": [{"platform": "b", "error": "ü"}]})
@example({"schema_version": 1, "results": [{"platform": "a"}],
          "failures": [], "zz": "\ud800"})
@example({"schema_version": 1, "results": [{"platform": "\udfff"}],
          "failures": []})
def test_results_file_same_bytes_as_json_dumps(payload):
    try:
        expected = oracle(payload).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        with open(path, "wb") as fh:
            fh.write(b"earlier output")
        try:
            # As in the CLI, which exits 2 on the TosAuditError.
            with inputs.encoding_for(path):
                save_results({**payload, "results": [
                    encode_record(r) for r in payload["results"]]}, path)
        except TosAuditError as exc:
            assert expected is None
            assert "surrogates not allowed" in str(exc)
            expected = b"earlier output"
        with open(path, "rb") as fh:
            assert fh.read() == expected
        assert os.listdir(tmp) == ["results.json"]


def test_failed_rename_leaves_no_tmp(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(TosAuditError, match=f"cannot write {target}: "):
        write_atomic(str(target), [b"x"])
    assert target.is_dir()
    assert os.listdir(tmp_path) == ["target"]


def test_failed_chunk_leaves_file_and_no_tmp(tmp_path):
    target = tmp_path / "target"
    target.write_bytes(b"earlier")
    with pytest.raises(TosAuditError, match="surrogates not allowed"):
        write_atomic(str(target), [b"first", "ok", "\udc80"])
    assert target.read_bytes() == b"earlier"
    assert os.listdir(tmp_path) == ["target"]


def test_parents_made_only_when_asked(tmp_path):
    path = tmp_path / "a" / "b"
    with pytest.raises(TosAuditError, match="No such file or directory"):
        write_atomic(str(path), ["x"])
    write_atomic(str(path), ["x", b"y"], make_parents=True)
    assert path.read_bytes() == b"xy"
