"""The review round trip over the results and review files.

`review apply` takes a review line that is, stripped, a finding's line
as `review export` writes it without decoding it, and decodes every
other line. These tests hold that both readings give the same bytes and
the same error, pin which fault is reported when both files hold one,
and sweep one-field mutations of either file through both commands.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import build_fixture_corpus, run_cli, value_paths
from tosaudit import results as results_mod, specificity
from tosaudit.results import parse_review_file

LABELS = {"retention": specificity.RETENTION_LABELS,
          "sharing": specificity.SHARING_LABELS}


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """(results path, lines of its --include-dt-en export) of the
    fixture corpus."""
    root = tmp_path_factory.mktemp("results")
    results, review = root / "results.json", root / "review.jsonl"
    corpus_dir = build_fixture_corpus(root / "corpus")
    for argv in (["analyze", "--corpus", str(corpus_dir),
                  "--out", str(results)],
                 ["review", "export", "--results", str(results),
                  "--out", str(review), "--include-dt-en"]):
        outcome = run_cli(argv)
        assert outcome.exit_code == 0, outcome.stderr
    return results, review.read_text(encoding="utf-8").splitlines()


def export_layout(value):
    """value as `review export` writes a line."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True)


def decoded(line):
    """line in a layout export never writes, so apply decodes it."""
    return json.dumps(json.loads(line), separators=(",", ":"),
                      ensure_ascii=True)


def apply(results, lines, directory):
    """`review apply` of a review file of lines, into directory;
    returns (exit code, stderr, output bytes or None)."""
    directory.mkdir()
    review, out = directory / "review.jsonl", directory / "out.json"
    review.write_text("".join(line + "\n" for line in lines),
                      encoding="utf-8")
    outcome = run_cli(["review", "apply", "--results", str(results),
                       "--review", str(review), "--out", str(out)])
    return (outcome.exit_code, outcome.stderr,
            out.read_bytes() if out.exists() else None)


def review_key(finding):
    span = finding["evidence_span"]
    return (finding["platform"], finding["sentence_index"],
            finding["detector"], span["start"], span["end"])


def with_header(lines):
    header = {"record_type": "header", "format": "tosaudit-review",
              "version": 1, "finding_count": len(lines)}
    return [export_layout(header), *lines]


def results_with(results, tmp_path, edit):
    """A copy of the results file, passed through edit(payload)."""
    payload = json.loads(results.read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# A reviewer's edits of one record.
EDITS = {
    "relabel": lambda rec: {**rec, "human_label": LABELS.get(
        rec["detector"], ("checked",))[-1]},
    "reject": lambda rec: {**rec, "human_label": "rejected"},
    "annotate": lambda rec: {**rec, "reviewer_note": " seené "},
}

# Other layouts of the same record; only some of them are decoded.
LAYOUTS = {
    "compact": lambda line: json.dumps(json.loads(line),
                                       separators=(",", ":")),
    "ascii": lambda line: json.dumps(json.loads(line), ensure_ascii=True),
    "reordered": lambda line: json.dumps(
        dict(reversed(json.loads(line).items())), ensure_ascii=False),
    "padded": lambda line: f"  {line}  ",
    "crlf": lambda line: line + "\r",
}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_relayout_of_review_lines_keeps_the_output(exported, tmp_path, data):
    """The same edits give the same bytes, whichever lines are laid out
    as export writes them, and so read without decoding."""
    results, (header, *lines) = exported
    indices = st.integers(0, len(lines) - 1)
    edits = data.draw(st.dictionaries(
        indices, st.sampled_from(sorted(EDITS)), max_size=12))
    layouts = data.draw(st.dictionaries(
        indices, st.sampled_from(sorted(LAYOUTS)), max_size=40))
    edited = [export_layout(EDITS[edits[i]](json.loads(line)))
              if i in edits else line for i, line in enumerate(lines)]
    mixed = [LAYOUTS[layouts[i]](line) if i in layouts else line
             for i, line in enumerate(edited)]
    attempt = Path(tempfile.mkdtemp(dir=tmp_path))
    given_layout = apply(results, [header, *mixed], attempt / "mixed")
    all_decoded = apply(results, list(map(decoded, [header, *edited])),
                        attempt / "decoded")
    assert given_layout[0] == 0, given_layout[1]
    assert given_layout == all_decoded
    revised = {review_key(f): f
               for r in json.loads(given_layout[2])["results"]
               for f in r["specificity"]["findings"]}
    for i in edits:
        record = json.loads(edited[i])
        assert revised[review_key(record)] == {**record, **{
            field: record[field].strip()
            for field in ("human_label", "reviewer_note")}}


def test_unedited_review_applies_to_the_results_bytes(exported, tmp_path):
    results, lines = exported
    assert apply(results, lines, tmp_path / "out") == (
        0, "", results.read_bytes())


def test_blank_review_lines_are_skipped(exported, tmp_path):
    """Blank and whitespace-only lines, before the header, between
    records and at the end, leave the output bytes as they were."""
    results, (header, *lines) = exported
    lines[0] = export_layout(EDITS["reject"](json.loads(lines[0])))
    plain = apply(results, [header, *lines], tmp_path / "plain")
    blanks = ["", " ", "\t", "\r", " \t\f\v "]
    padded = apply(results, [
        blanks[0], header, blanks[1], lines[0], blanks[2], blanks[3],
        *lines[1:], blanks[4]], tmp_path / "padded")
    assert plain[0] == 0, plain[1]
    assert plain[2] != results.read_bytes()
    assert padded == plain


def _twice(results, header, lines, tmp_path):
    return results, with_header([lines[0], *lines])


def _headless(results, header, lines, tmp_path):
    return results, lines


def _platform_missing(results, header, lines, tmp_path):
    def drop(payload):
        del payload["results"][0]
    return results_with(results, tmp_path, drop), [header, *lines]


def _stored_label_illegal(results, header, lines, tmp_path):
    def relabel(payload):
        for record in payload["results"]:
            for finding in record["specificity"]["findings"]:
                if finding["detector"] == "retention":
                    finding["human_label"] = "bogus"
                    return
    path = results_with(results, tmp_path, relabel)
    review = tmp_path / "review.jsonl"
    outcome = run_cli(["review", "export", "--results", str(path),
                       "--out", str(review), "--include-dt-en"])
    assert outcome.exit_code == 0, outcome.stderr
    return path, review.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("build, message", [
    (_twice, "duplicate review record: "),
    (_headless, "first record is not a header record"),
    (_platform_missing, "unmatched review record: platform 'bluesky'"),
    (_stored_label_illegal,
     "illegal label value 'bogus' for retention finding"),
], ids=["line_twice", "finding_first", "platform_missing",
        "stored_label_illegal"])
def test_recognized_lines_fail_as_decoded_lines(
        exported, tmp_path, build, message):
    results, (header, *lines) = exported
    results, review = build(results, header, lines, tmp_path)
    verbatim = apply(results, review, tmp_path / "verbatim")
    assert verbatim == apply(
        results, list(map(decoded, review)), tmp_path / "decoded")
    code, stderr, out = verbatim
    assert code == 2 and out is None
    assert stderr.startswith(f"error: {message}"), stderr


def test_results_fault_is_reported_before_review_fault(exported, tmp_path):
    """apply reads the results findings before the review file, so a bad
    finding is reported over a review line that is not JSON."""
    results, (header, *lines) = exported

    def break_index(payload):
        payload["results"][-1]["specificity"]["findings"][0][
            "sentence_index"] = "7"
    results = results_with(results, tmp_path, break_index)
    code, stderr, out = apply(
        results, [header, "{not json", *lines[1:]], tmp_path / "both")
    assert (code, out) == (2, None)
    assert stderr == (
        f"error: malformed results file {results}: TypeError(\"finding "
        "sentence_index is not an integer: '7'\")\n")


# One-field mutations: another type, an entry given twice, a key or an
# entry dropped, or the value emptied.
_OTHER_VALUES = ("x", "a\nb", -1, 7, 2.5, True, None, [], {}, ["x"],
                 {"x": 1})


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutated(doc, choice, other):
    """A copy of doc with the value at choice's path (not the root)
    mutated by choice's kind."""
    doc = copy.deepcopy(doc)
    path, kind = choice
    parent, key = _parent(doc, path), path[-1]
    value = parent[key]
    if kind == "swap":
        parent[key] = other
    elif kind == "repeat":
        parent.insert(key, value)
    elif kind == "drop":
        del parent[key]
    else:
        parent[key] = type(value)() if value is not None else ""
    return doc


def _mutation(doc):
    """One mutated field of doc; only list entries are repeated."""
    choices = [(path, kind) for path in value_paths(doc) if path
               for kind in ("swap", "repeat", "drop", "empty")
               if kind != "repeat" or isinstance(_parent(doc, path), list)]
    return st.builds(_mutated, st.just(doc), st.sampled_from(choices),
                     st.sampled_from(_OTHER_VALUES))


def assert_fail_closed(outcome, out):
    """Exit 0, 1 or 2; on 2 one `error:` line and out untouched.
    run_cli raises any uncaught exception."""
    assert outcome.exit_code in (0, 1, 2), outcome.stderr
    if outcome.exit_code == 2:
        assert outcome.stderr.startswith("error: ")
        assert outcome.stderr.count("\n") == 1, outcome.stderr
        assert out.read_bytes() == b"earlier output"


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), which=st.sampled_from(("results", "review")))
def test_one_mutated_field_fails_closed(exported, tmp_path, data, which):
    results, lines = exported
    attempt = Path(tempfile.mkdtemp(dir=tmp_path))
    review = attempt / "review.jsonl"
    if which == "results":
        payload = data.draw(_mutation(
            json.loads(results.read_text(encoding="utf-8"))))
        results = attempt / "results.json"
        results.write_text(export_layout(payload), encoding="utf-8")
        review.write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")
    else:
        records = data.draw(_mutation(list(map(json.loads, lines))))
        review.write_text("".join(
            export_layout(record) + "\n" for record in records),
            encoding="utf-8")
    out = attempt / "out"
    for argv in (["review", "export", "--results", str(results),
                  "--include-dt-en"],
                 ["review", "apply", "--results", str(results),
                  "--review", str(review)]):
        out.write_bytes(b"earlier output")
        assert_fail_closed(run_cli([*argv, "--out", str(out)]), out)


def test_error_is_one_line_where_it_quotes_a_newline(exported, tmp_path):
    results, (header, first, *lines) = exported
    record = {**json.loads(first), "detector": "a\nb"}
    code, stderr, out = apply(
        results, [header, export_layout(record), *lines], tmp_path / "nl")
    assert (code, out) == (2, None)
    assert stderr == ("error: unmatched review record: "
                      f"{record['platform']}/{record['sentence_index']}/"
                      "a\\nb\n")


def test_known_lines_after_the_header_are_not_decoded(exported, tmp_path):
    _, (_, first, second, *_) = exported
    header, first, second = with_header([first, second])
    path = tmp_path / "review.jsonl"
    path.write_text(f"{header}\n {first}\r\n{second}\n", encoding="utf-8")
    known = {line: {"known": line} for line in (header, first)}
    assert parse_review_file(str(path), known) == [
        known[first], json.loads(second)]


# finding_from_dict's former one-field-at-a-time path, kept as the
# reference it must agree with: the same SentenceFinding, or the same
# exception type and message.
def _text(d, key):
    value = d[key]
    if not isinstance(value, str):
        raise TypeError(f"finding {key} is not a string: {value!r}")
    return value


def _optional_text(d, key):
    value = d.get(key)
    if value is not None and not isinstance(value, str):
        raise TypeError(f"finding {key} is not a string or null: {value!r}")
    return value or None


def _integer(value, name):
    if type(value) is not int:  # JSON true, 3.9 and "9" are not indices
        raise TypeError(f"finding {name} is not an integer: {value!r}")
    return value


def reference_finding_from_dict(d):
    span, detector = d["evidence_span"], d["detector"]
    if detector not in specificity.DETECTORS:
        raise ValueError(f"finding detector is not one of "
                         f"{specificity.DETECTORS}: {detector!r}")
    return specificity.SentenceFinding(
        platform=_text(d, "platform"),
        sentence_index=_integer(d["sentence_index"], "sentence_index"),
        detector=detector,
        auto_label=_text(d, "auto_label"),
        evidence_span=(_integer(span["start"], "evidence_span.start"),
                       _integer(span["end"], "evidence_span.end")),
        sentence_text=_text(d, "sentence_text"),
        human_label=_optional_text(d, "human_label"),
        reviewer_note=_optional_text(d, "reviewer_note"),
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)
_FIELDS = {
    "platform": st.text(max_size=4),
    "sentence_index": st.integers(0, 99),
    "detector": st.sampled_from(specificity.DETECTORS),
    "auto_label": st.text(max_size=4),
    "evidence_span": st.fixed_dictionaries(
        {"start": st.integers(0, 99), "end": st.integers(0, 99)}),
    "sentence_text": st.text(max_size=8),
    "human_label": st.sampled_from(["", "rejected", "generic"]) | st.none(),
    "reviewer_note": st.sampled_from(["", "seen"]) | st.none(),
}
_TEXT_FIELDS = [(key,) for key in ("platform", "detector", "auto_label",
                                   "sentence_text", "human_label",
                                   "reviewer_note")]
_INTEGER_FIELDS = [("sentence_index",), ("evidence_span", "start"),
                   ("evidence_span", "end")]


def _outcome(read, d):
    try:
        return read(d)
    except (LookupError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _retype(path):
    def mutate(d, draw):
        parent, key = _parent(d, path), path[-1]
        parent[key] = draw(_JSON.filter(
            lambda value: type(value) is not type(parent[key])))
    return mutate


def _delete(path):
    def mutate(d, draw):
        del _parent(d, path)[path[-1]]
    return mutate


def _swap(text, number):
    def mutate(d, draw):
        parent = _parent(d, number)
        d[text], parent[number[-1]] = parent[number[-1]], d[text]
    return mutate


# A valid finding, or one field given a value of another JSON type or
# deleted, or a text field and an integer field swapped.
_PATHS = [*_TEXT_FIELDS, *_INTEGER_FIELDS, ("evidence_span",)]
_MUTATIONS = {
    "valid": lambda d, draw: None,
    **{f"retype {'.'.join(path)}": _retype(path) for path in _PATHS},
    **{f"delete {'.'.join(path)}": _delete(path) for path in _PATHS},
    **{f"swap {text} {'.'.join(number)}": _swap(text, number)
       for (text,) in _TEXT_FIELDS for number in _INTEGER_FIELDS},
}


@pytest.mark.parametrize("mutation", _MUTATIONS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_finding_from_dict_agrees_with_its_checked_path(mutation, data):
    d = data.draw(st.fixed_dictionaries(_FIELDS))
    _MUTATIONS[mutation](d, data.draw)
    assert _outcome(results_mod.finding_from_dict, d) == \
        _outcome(reference_finding_from_dict, d)
