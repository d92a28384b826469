"""The JSON files the package writes, and write_atomic's failures.

encode_record is checked against the JSON encoder on records whose
findings are written as the oracle's dicts. save_results is checked on
results payloads whose records were encoded one by one, as analyze and
review apply encode them: the file parses to the payload, and each
record sits on a line of its own.
"""

import json
import os
import stat
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from tosaudit import inputs
from tosaudit.errors import TosAuditError
from tosaudit.inputs import canonical_json, write_atomic
from tosaudit.pipeline import encode_record, save_results
from tosaudit.results import _ENCODER
from tosaudit.specificity import SentenceFinding
from test_specificity import ANY_FINDING, finding_to_dict


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


def _with_block(extra, spec_extra, findings):
    return {**extra, "specificity": {**spec_extra, "findings": findings}}


# Keys next to "findings" and "specificity" in sort order are drawn often.
_KEYS = st.sampled_from(["", "a", "finding", "findings ", "findingt",
                         "specificit", "specificity ", "specificitz",
                         "z"]) | _TEXT
# Records as analyze and review apply encode them: a specificity block
# of SentenceFindings, with any other keys in the record and the block.
_RECORDS = st.builds(
    _with_block, st.dictionaries(_KEYS, _JSON, max_size=4),
    st.dictionaries(_KEYS, _JSON, max_size=3),
    st.lists(ANY_FINDING, max_size=3))


def as_dicts(record):
    """record with each finding as the oracle's dict."""
    spec = record["specificity"]
    return {**record, "specificity": {
        **spec, "findings": list(map(finding_to_dict, spec["findings"]))}}


@settings(deadline=None, max_examples=100)
@given(_RECORDS)
@example(_with_block({}, {}, []))
@example(_with_block({"a": 1, "specificit": [], "specificity ": {},
                      "z": None},
                     {"finding": 1.5, "findings ": "", "findingt": [2],
                      "": None}, []))
@example(_with_block({"platform": "\ud800"}, {}, []))
@example(_with_block({"zz": 1}, {"zz": 2}, [SentenceFinding(
    '"\\', 10**40, "sharing", "\u2028", (-1, 0), "\x00\x7f", "", None)]))
@example(_with_block({}, {}, [SentenceFinding(
    "a", 0, "entity", "b", (0, 1), "c\udfff")]))
def test_encode_record_matches_json_encoder(record):
    try:
        expected = _ENCODER.encode(as_dicts(record)).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        with pytest.raises(UnicodeEncodeError):
            encode_record(record)
    else:
        assert encode_record(record) == expected


_PAYLOADS = st.fixed_dictionaries(
    {"schema_version": st.integers(),
     "results": st.lists(_RECORDS, max_size=3),
     "failures": st.lists(st.fixed_dictionaries(
         {"platform": _TEXT, "error": _TEXT}), max_size=2)},
    optional={"provenance": _JSON, "zz": _JSON, "": _SCALARS})


@settings(deadline=None, max_examples=150)
@given(_PAYLOADS)
@example({"schema_version": 1, "results": [], "failures": []})
@example({"schema_version": 1,
          "results": [_with_block({"platform": "a", "b": [{}]}, {}, [])],
          "failures": [], "zz": {"k": [1.5, None]}, "": True})
@example({"schema_version": 1,
          "results": [_with_block({"platform": "é "}, {}, []),
                      _with_block({}, {}, [])],
          "failures": [{"platform": "b", "error": "ü"}]})
@example({"schema_version": 1,
          "results": [_with_block({"a\n": "\u2028\r\n"}, {}, []),
                      _with_block({"b": [float("nan")]}, {}, [])],
          "failures": [{"platform": "\n", "error": "\x85"}]})
@example({"schema_version": 1,
          "results": [_with_block({"platform": "a"}, {}, [])],
          "failures": [], "zz": "\ud800"})
@example({"schema_version": 1,
          "results": [_with_block({"platform": "\udfff"}, {}, [])],
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


def test_failed_rename_leaves_no_tmp(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError(18, "Invalid cross-device link")

    target = tmp_path / "target"
    target.write_bytes(b"earlier")
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(TosAuditError,
                       match=f"cannot write {target}: Invalid cross-device"):
        write_atomic(str(target), [b"x"])
    assert target.read_bytes() == b"earlier"
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


@pytest.mark.parametrize("make, kind", [(os.mkfifo, stat.S_ISFIFO),
                                        (os.mkdir, stat.S_ISDIR)],
                         ids=["fifo", "directory"])
def test_special_file_at_path_is_refused(tmp_path, make, kind):
    out = tmp_path / "out"
    make(out)
    with pytest.raises(TosAuditError,
                       match=f"cannot write {out}: not a regular file"):
        write_atomic(str(out), ["x"])
    assert kind(os.lstat(out).st_mode)
    assert os.listdir(tmp_path) == ["out"]


def test_symlink_at_path_is_replaced(tmp_path):
    (tmp_path / "target").write_bytes(b"earlier")
    (tmp_path / "out").symlink_to(tmp_path / "target")
    write_atomic(str(tmp_path / "out"), ["x"])
    assert not (tmp_path / "out").is_symlink()
    assert (tmp_path / "out").read_bytes() == b"x"
    assert (tmp_path / "target").read_bytes() == b"earlier"


def test_user_file_at_dot_tmp_survives(tmp_path):
    (tmp_path / "out.tmp").write_bytes(b"mine")
    write_atomic(str(tmp_path / "out"), ["x"])
    assert (tmp_path / "out").read_bytes() == b"x"
    assert (tmp_path / "out.tmp").read_bytes() == b"mine"
    assert sorted(os.listdir(tmp_path)) == ["out", "out.tmp"]


def test_temp_name_in_use_is_left_alone(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"earlier")
    taken = tmp_path / f"out.{os.getpid()}.tmp"
    taken.write_bytes(b"mine")
    with pytest.raises(TosAuditError, match=f"cannot write {target}: "):
        write_atomic(str(target), ["x"])
    assert target.read_bytes() == b"earlier"
    assert taken.read_bytes() == b"mine"
