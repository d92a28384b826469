"""The results and review files, and the review round trip over them.

A results file is one JSON object with sorted keys whose "results" list
holds the platform records, one record to a line. Each record is
encoded to its line where it is built, in the analyze worker or in
`review apply`, and the file is streamed from those bytes; no
whole-file text is built. A review file is JSONL: a header record, then
one finding per line. Both files write a finding with one template,
_FINDING, and the rest of a record with the C JSON encoder.

Only the specificity layer is loaded here, so `review export` and
`review apply` import none of the text-analysis layers.
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


def finding_from_dict(d):
    """The finding of a _finding_text object, from a results file.

    A field of the wrong type raises TypeError, an unknown detector
    ValueError: export_review writes no line apply would reject.
    """
    span = d["evidence_span"]
    detector = d["detector"]
    if detector not in DETECTORS:
        raise ValueError(f"finding detector is not one of {DETECTORS}: "
                         f"{detector!r}")
    return SentenceFinding(
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


def _specificity_block(findings, scores):
    """Results-file specificity block from findings and their
    specificity.FindingScores; encode_record writes the findings."""
    return {
        "findings": findings,
        "auto": {
            "counts": scores.auto_counts._asdict(),
            "scores": scores.auto_scores._asdict(),
        },
        "post_review": {
            "counts": scores.post_counts._asdict(),
            "scores": scores.post_scores._asdict(),
        },
        "coverage": scores.coverage,
    }


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


def encode_record(record):
    """A results record's line in a results file, as UTF-8, with no newline.

    The record's specificity findings are SentenceFindings, written as
    _finding_text objects; the rest is written as _ENCODER writes it.
    Text that UTF-8 cannot hold raises UnicodeEncodeError.
    """
    spec = record["specificity"]
    findings = "[%s]" % ", ".join(map(_finding_text, spec["findings"]))
    return _object_text(record, "specificity", _object_text(
        spec, "findings", findings)).encode("utf-8")


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
    wanted = ("retention", "sharing")
    if include_dt_en:
        wanted = DETECTORS
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


def parse_review_file(path):
    """Read a review JSONL file; returns the finding records.

    The header must name REVIEW_FORMAT and REVIEW_VERSION, and its
    finding_count must equal the number of records, so a file cut short
    is rejected, not applied.
    """
    records = []
    lines = inputs.read_lines(path, ReviewError, "review")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
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
    record for the same finding is an error, not an override.
    """
    index = {}
    for i, f in enumerate(findings):
        key = (f.platform, f.sentence_index, f.detector,
               f.evidence_span[0], f.evidence_span[1])
        index[key] = i
    seen = set()
    for rec in records:
        try:
            span = rec["evidence_span"]
            key = (rec["platform"],
                   _integer(rec["sentence_index"], "sentence_index"),
                   rec["detector"],
                   _integer(span["start"], "evidence_span.start"),
                   _integer(span["end"], "evidence_span.end"))
            position = index.get(key)
            label = (rec.get("human_label") or "").strip()
            note = (rec.get("reviewer_note") or "").strip()
        except (LookupError, TypeError, ValueError, ArithmeticError,
                AttributeError):
            raise ReviewError(f"malformed review record: {rec!r}") from None
        if position is None:
            raise ReviewError(
                "unmatched review record: "
                f"{rec['platform']}/{rec['sentence_index']}/{rec['detector']}")
        if position in seen:
            raise ReviewError(
                f"duplicate review record: {'/'.join(map(str, key))}")
        seen.add(position)
        finding = findings[position]
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
    findings = [finding_from_dict(d)
                for result in payload["results"]
                for d in result["specificity"]["findings"]]
    return export_review(findings, out_path, include_dt_en=include_dt_en)


def apply_review_to_results(payload, review_path):
    """Apply a review file across a results payload.

    Rebuilds each platform's post-review counts and scores from the
    human labels; auto values are recomputed from auto labels and stay
    untouched by review actions. Returns a new payload whose records
    are encode_record bytes, each encoded as it is revised; payload and
    its records are left as they were.
    """
    records = parse_review_file(review_path)
    by_platform = {}
    for rec in records:
        if not isinstance(rec.get("platform"), str):
            raise ReviewError(f"malformed review record: {rec!r}")
        by_platform.setdefault(rec["platform"], []).append(rec)
    known = {r["platform"] for r in payload["results"]}
    for platform in by_platform:
        if platform not in known:
            raise ReviewError(f"unmatched review record: platform {platform!r}")
    revised = []
    for result in payload["results"]:
        findings = [finding_from_dict(d)
                    for d in result["specificity"]["findings"]]
        apply_review_records(findings, by_platform.get(result["platform"], []))
        scores = specificity_mod.score_findings(
            findings, result["doc_stats"]["sentence_count"])
        revised.append(encode_record({**result, "specificity": {
            **result["specificity"], **_specificity_block(findings, scores)}}))
    return {**payload, "results": revised}
