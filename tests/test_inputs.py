"""The JSON files the package writes, and write_atomic's failures.

save_results is checked on results payloads whose records were encoded
one by one, as analyze and review apply encode them: the file parses
to the payload, and each record sits on a line of its own.
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


def parsed(text):
    """JSON text parsed, as text again, so that NaN equals NaN."""
    return json.dumps(json.loads(text), sort_keys=True)


# Every code point, lone surrogates and control characters included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_NUMBERS = (st.integers() | st.integers(-10**400, 10**400)
            | st.floats() | st.booleans())
_SCALARS = st.none() | _NUMBERS | _TEXT
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    # Keys of one dict are of one kind, so sorting them does not fail.
    | st.one_of(*(st.dictionaries(keys, inner, max_size=4)
                  for keys in (_TEXT, _NUMBERS, st.none()))),
    max_leaves=30)


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
@example({"schema_version": 1, "results": [{"a\n": "\u2028\r\n"},
                                          {"b": [float("nan")]}],
          "failures": [{"platform": "\n", "error": "\x85"}]})
@example({"schema_version": 1, "results": [{"platform": "a"}],
          "failures": [], "zz": "\ud800"})
@example({"schema_version": 1, "results": [{"platform": "\udfff"}],
          "failures": []})
def test_results_file_one_record_per_line(payload):
    try:
        json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        unencodable = True
    else:
        unencodable = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        with open(path, "wb") as fh:
            fh.write(b"earlier output")
        try:
            # As in the CLI, which exits 2 on the TosAuditError.
            with inputs.encoding_for(path):
                records = [encode_record(r) for r in payload["results"]]
                save_results({**payload, "results": records}, path)
        except TosAuditError as exc:
            assert unencodable
            assert "surrogates not allowed" in str(exc)
            with open(path, "rb") as fh:
                assert fh.read() == b"earlier output"
        else:
            assert not unencodable
            with open(path, "rb") as fh:
                raw = fh.read()
            decoded = {**payload, "results": [json.loads(r) for r in records]}
            assert parsed(raw) == parsed(json.dumps(decoded))
            # Text the encoder writes holds no newline of its own.
            lines = raw.split(b"\n")
            assert lines[1:len(records) + 1] == [
                r + b"," for r in records[:-1]] + records[-1:]
            assert len(lines) == (len(records) + 3 if records else 2)
            assert lines[-1] == b""
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
