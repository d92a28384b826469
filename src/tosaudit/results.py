"""The results and review files, and the review round trip over them.

A results file is one JSON object with sorted keys whose "results" list
holds the platform records, one record to a line. Each record is
encoded to its line where it is built, in the analyze worker or in
`review apply`, and the file is streamed from those bytes; no
whole-file text is built. A review file is JSONL: a header record, then
one finding per line. Both files write a finding with one template,
_FINDING, and the rest of a record with the C JSON encoder. `review
apply` decodes only the review lines that differ from every finding's text.

finding_from_dict reads and checks each field of a results finding once:
texts are JSON strings, indices JSON integers (not true, 3.9 or "9"),
the detector one of DETECTORS, and the label and note strings or null.
apply_review_records holds a review record's key, label and note to the
same types; a detector that no finding has makes an unmatched record.

`review apply` rescores each platform with specificity.score_findings,
the scoring analyze uses. Only the specificity layer is loaded here, so
`review export` and `review apply` import none of the text-analysis
layers.
"""

import itertools
import json
from json.encoder import encode_basestring

from . import inputs
from . import specificity as specificity_mod
from .errors import ReviewError, TosAuditError
from .specificity import DETECTORS, REJECTED, SentenceFinding

RESULTS_SCHEMA_VERSION = 1
REVIEW_FORMAT = "tosaudit-review"
REVIEW_VERSION = 1

# Default separators and no indent, so CPython's C encoder runs; it is
# never changed after import.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)

# The labels a reviewer may give a finding of each detector; data-type
# and entity findings take any label.
_REVIEW_LABELS = {
    "retention": frozenset(specificity_mod.RETENTION_LABELS + (REJECTED,)),
    "sharing": frozenset(specificity_mod.SHARING_LABELS + (REJECTED,)),
}


def finding_from_dict(d):
    """The finding of a _finding_text object, from a results file.

    Each field is read once and checked as it is read: a missing field
    raises KeyError, one of the wrong type TypeError and an unknown
    detector ValueError, so export_review writes no line apply would
    reject.
    """
    span, detector = d["evidence_span"], d["detector"]
    if detector not in DETECTORS:
        raise ValueError(f"finding detector is not one of {DETECTORS}: "
                         f"{detector!r}")
    platform = d["platform"]
    if type(platform) is not str:
        raise TypeError(f"finding platform is not a string: {platform!r}")
    index = d["sentence_index"]
    if type(index) is not int:  # JSON true, 3.9 and "9" are not indices
        raise TypeError(f"finding sentence_index is not an integer: {index!r}")
    auto_label = d["auto_label"]
    if type(auto_label) is not str:
        raise TypeError(f"finding auto_label is not a string: {auto_label!r}")
    start = span["start"]
    if type(start) is not int:
        raise TypeError(
            f"finding evidence_span.start is not an integer: {start!r}")
    end = span["end"]
    if type(end) is not int:
        raise TypeError(
            f"finding evidence_span.end is not an integer: {end!r}")
    text = d["sentence_text"]
    if type(text) is not str:
        raise TypeError(f"finding sentence_text is not a string: {text!r}")
    label, note = d.get("human_label"), d.get("reviewer_note")
    if label is not None and type(label) is not str:
        raise TypeError(
            f"finding human_label is not a string or null: {label!r}")
    if note is not None and type(note) is not str:
        raise TypeError(
            f"finding reviewer_note is not a string or null: {note!r}")
    return SentenceFinding(platform, index, detector, auto_label,
                           (start, end), text, label or None, note or None)


# One finding as a JSON object: its fields under their keys in sorted
# order, with the separators _ENCODER writes. Both files write findings
# with it; encoding a dict per finding cost twice as much.
_FINDING = (
    '{"auto_label": %s, "detector": %s, '
    '"evidence_span": {"end": %d, "start": %d}, "human_label": %s, '
    '"platform": %s, "reviewer_note": %s, "sentence_index": %d, '
    '"sentence_text": %s}')


def _finding_text(f):
    """Finding f as JSON text; its text fields must be str, its
    indices int."""
    return _FINDING % (
        encode_basestring(f.auto_label), encode_basestring(f.detector),
        f.evidence_span[1], f.evidence_span[0],
        encode_basestring(f.human_label or ""), encode_basestring(f.platform),
        encode_basestring(f.reviewer_note or ""), f.sentence_index,
        encode_basestring(f.sentence_text))


def _object_text(d, key, text):
    """_ENCODER's text of str-keyed dict d, with text as key's value."""
    return "{%s}" % ", ".join(
        f"{encode_basestring(k)}: "
        f"{text if k == key else _ENCODER.encode(d[k])}" for k in sorted(d))


def encode_record(record, finding_texts=None):
    """A results record's line in a results file, as UTF-8, with no newline.

    The record's findings are SentenceFindings, written as finding_texts
    or as _finding_text objects; the rest as _ENCODER writes it. Text
    that UTF-8 cannot hold raises UnicodeEncodeError.
    """
    spec = record["specificity"]
    return _object_text(record, "specificity", _object_text(
        spec, "findings", "[%s]" % ", ".join(finding_texts or map(
            _finding_text, spec["findings"])))).encode("utf-8")


def results_payload(records, failures):
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "results": records,
        "failures": [{"platform": p, "error": e} for p, e in failures],
    }


def save_results(payload, path):
    """Write a results payload whose records are encode_record bytes.

    The file is the payload as one JSON object with sorted keys, each
    record on a line of its own:

        {"failures": [...], "results": [
        {<record 1>},
        {<record 2>}
        ], "schema_version": 1}

    The records are written as they are, between the other keys' text,
    so no whole-file text is built.
    """
    def chunks():
        sep = "{"
        for key, value in sorted(payload.items()):
            yield f"{sep}{_ENCODER.encode(key)}: "
            sep = ", "
            if key == "results":
                for i, record in enumerate(value):
                    yield ",\n" if i else "[\n"
                    yield record
                yield "\n]" if value else "[]"
            else:
                yield _ENCODER.encode(value)
        yield "}\n"

    inputs.write_atomic(path, chunks())


def load_results(path):
    """Read a results file and check the shape results_payload writes,
    one record to a platform."""
    payload = inputs.read_json(path, TosAuditError, "results")
    results = payload.get("results")
    blocks = ("doc_stats", "readability", "fluency", "clarity", "specificity")
    if payload.get("schema_version") != RESULTS_SCHEMA_VERSION or not (
            isinstance(results, list) and all(
                isinstance(r, dict) and isinstance(r.get("platform"), str)
                and all(isinstance(r.get(b), dict) for b in blocks)
                for r in results)):
        raise TosAuditError(
            f"malformed results file {path}: not schema version "
            f"{RESULTS_SCHEMA_VERSION} with a list of platform results")
    seen = set()
    for r in results:
        if r["platform"] in seen:
            raise TosAuditError(f"malformed results file {path}: two "
                                f"records for platform {r['platform']!r}")
        seen.add(r["platform"])
    return payload


def _review_sort_key(f):
    return (f.platform, f.sentence_index, f.evidence_span[0], f.detector)


def export_review(findings, path, include_dt_en=False):
    """Write findings awaiting review as JSONL with a header record.

    Retention and sharing findings are always exported; data-type and
    entity findings only when include_dt_en is set. Each line is written
    as it is made.
    """
    wanted = DETECTORS if include_dt_en else ("retention", "sharing")
    records = sorted(
        (f for f in findings if f.detector in wanted), key=_review_sort_key)
    header = {
        "record_type": "header",
        "format": REVIEW_FORMAT,
        "version": REVIEW_VERSION,
        "finding_count": len(records),
    }
    inputs.write_atomic(path, itertools.chain(
        [_ENCODER.encode(header) + "\n"],
        (_finding_text(f) + "\n" for f in records)))
    return len(records)


def parse_review_file(path, known):
    """Read a review JSONL file; returns the finding records.

    A line after the first that is a key of known, a map from a
    finding's text to its record, is not decoded. The header must name
    REVIEW_FORMAT and REVIEW_VERSION, and its finding_count must equal
    the number of records, so a file cut short is rejected, not applied.
    """
    records = []
    lines = inputs.read_lines(path, ReviewError, "review")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if records and line in known:
            records.append(known[line])
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ReviewError(f"line {lineno}: malformed record: {exc}") from None
        if not isinstance(record, dict):
            raise ReviewError(f"line {lineno}: record is not a JSON object")
        records.append(record)
    if not records:
        raise ReviewError("empty review file (missing header record)")
    header = records.pop(0)
    if header.get("record_type") != "header":
        raise ReviewError("first record is not a header record")
    if header.get("format") != REVIEW_FORMAT:
        raise ReviewError(f"unknown review format: {header.get('format')!r}")
    version = header.get("version")
    if type(version) is not int or version != REVIEW_VERSION:
        raise ReviewError(f"unsupported review version {version!r}")
    count = header.get("finding_count")
    if type(count) is not int or count < 0:
        raise ReviewError(f"malformed review header: finding_count {count!r} "
                          f"is not a non-negative integer")
    if count != len(records):
        raise ReviewError(f"review file holds {len(records)} records but its "
                          f"header says finding_count {count}; is it cut short?")
    return records


def apply_review_records(findings, records):
    """Apply parsed review records onto a list of findings.

    A finding whose record holds a human label or note is replaced, at
    its position in the list, by a copy that carries them. A second
    record for the same finding is an error, not an override. Two
    findings under one review key raise ValueError: one record could
    not tell them apart.
    """
    index = {}
    for i, f in enumerate(findings):
        key = (f.platform, f.sentence_index, f.detector, *f.evidence_span)
        if index.setdefault(key, i) != i:
            raise ValueError("two findings under review key "
                             + "/".join(map(str, key)))
    seen = set()
    for rec in records:
        # A record's key, label and note follow finding_from_dict's type
        # rules; a detector no finding has is an unmatched record.
        try:
            span = rec["evidence_span"]
            key = platform, sentence, detector, start, end = (
                rec["platform"], rec["sentence_index"], rec["detector"],
                span["start"], span["end"])
        except (KeyError, TypeError):  # a field missing, or span no object
            key = None
        label, note = rec.get("human_label"), rec.get("reviewer_note")
        if key is None or not (
                type(platform) is type(detector) is str
                and type(sentence) is type(start) is type(end) is int
                and (label is None or type(label) is str)
                and (note is None or type(note) is str)):
            raise ReviewError(f"malformed review record: {rec!r}")
        position = index.get(key)
        if position is None:
            raise ReviewError(
                f"unmatched review record: {platform}/{sentence}/{detector}")
        if position in seen:
            raise ReviewError(
                f"duplicate review record: {'/'.join(map(str, key))}")
        seen.add(position)
        finding = findings[position]
        label, note = (label or "").strip(), (note or "").strip()
        if label:
            allowed = _REVIEW_LABELS.get(finding.detector)
            if allowed is not None and label not in allowed:
                raise ReviewError(
                    f"illegal label value {label!r} for "
                    f"{finding.detector} finding")
        if label or note:
            findings[position] = finding._replace(
                human_label=label or finding.human_label,
                reviewer_note=note or finding.reviewer_note)
    return findings


def export_review_from_results(payload, out_path, include_dt_en=False):
    """Export all reviewable findings in a results file to JSONL."""
    findings = []
    for result in payload["results"]:
        # Refuses, as apply would, two findings under one review key.
        findings += apply_review_records(
            [finding_from_dict(d) for d in result["specificity"]["findings"]],
            [])
    return export_review(findings, out_path, include_dt_en=include_dt_en)


def apply_review_to_results(payload, review_path):
    """Apply a review file across a results payload.

    Rebuilds each platform's post-review counts and scores from the
    human labels; auto values are recomputed from auto labels and stay
    untouched by review actions. Returns a new payload of encode_record
    bytes, which reuse the text of each finding review left as it was;
    payload and its records are left as they were.
    """
    platforms, known = [], {}
    for result in payload["results"]:
        dicts = result["specificity"]["findings"]
        findings = [finding_from_dict(d) for d in dicts]
        texts = list(map(_finding_text, findings))
        known.update(zip(texts, dicts))
        platforms.append((result, findings, texts))
    records = parse_review_file(review_path, known)
    by_platform = {}
    for rec in records:
        if not isinstance(rec.get("platform"), str):
            raise ReviewError(f"malformed review record: {rec!r}")
        by_platform.setdefault(rec["platform"], []).append(rec)
    names = {r["platform"] for r in payload["results"]}
    for platform in by_platform:
        if platform not in names:
            raise ReviewError(f"unmatched review record: platform {platform!r}")
    revised = []
    for result, findings, texts in platforms:
        reviewed = apply_review_records(
            list(findings), by_platform.get(result["platform"], []))
        revised.append(encode_record({**result, "specificity": {
            **result["specificity"], **specificity_mod.score_findings(
                reviewed, result["doc_stats"]["sentence_count"])}}, [
            text if new is old else _finding_text(new)
            for text, old, new in zip(texts, findings, reviewed)]))
    return {**payload, "results": revised}
