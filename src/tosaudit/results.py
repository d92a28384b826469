"""The results file, and the human review round trip over it.

A results file is one JSON object with sorted keys whose "results" list
holds the platform records, one record to a line. Each record is
encoded to its line by the C JSON encoder where it is built, in the
analyze worker or in `review apply`, and the file is streamed from
those bytes; no whole-file text is built.

Only the specificity layer is loaded here, so `review export` and
`review apply` import none of the text-analysis layers.
"""

import json

from . import inputs
from . import specificity as specificity_mod
from .errors import ReviewError, TosAuditError

RESULTS_SCHEMA_VERSION = 1

# Default separators and no indent, so CPython's C encoder runs; it is
# never changed after import.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def _specificity_block(findings, scored):
    """Results-file specificity block from findings and their scores.

    scored is a specificity.FindingScores or a pipeline.PlatformResult
    (same fields).
    """
    return {
        "findings": [specificity_mod.finding_to_dict(f) for f in findings],
        "auto": {
            "counts": scored.auto_counts._asdict(),
            "scores": scored.auto_scores._asdict(),
        },
        "post_review": {
            "counts": scored.post_counts._asdict(),
            "scores": scored.post_scores._asdict(),
        },
        "coverage": dict(scored.coverage),
    }


def encode_record(record):
    """A results record's line in a results file, as UTF-8, with no newline.

    Text that UTF-8 cannot hold raises UnicodeEncodeError.
    """
    return _ENCODER.encode(record).encode("utf-8")


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
    """Read a results file and check the shape results_payload writes."""
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
    return payload


def export_review_from_results(payload, out_path, include_dt_en=False):
    """Export all reviewable findings in a results file to JSONL."""
    findings = [specificity_mod.finding_from_dict(d)
                for result in payload["results"]
                for d in result["specificity"]["findings"]]
    return specificity_mod.export_review(
        findings, out_path, include_dt_en=include_dt_en)


def apply_review_to_results(payload, review_path):
    """Apply a review file across a results payload.

    Rebuilds each platform's post-review counts and scores from the
    human labels; auto values are recomputed from auto labels and stay
    untouched by review actions. Returns a new payload whose records
    are encode_record bytes, each encoded as it is revised; payload and
    its records are left as they were.
    """
    records = specificity_mod.parse_review_file(review_path)
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
        findings = [specificity_mod.finding_from_dict(d)
                    for d in result["specificity"]["findings"]]
        specificity_mod.apply_review_records(
            findings, by_platform.get(result["platform"], []))
        scored = specificity_mod.score_findings(
            findings, result["doc_stats"]["sentence_count"])
        revised.append(encode_record({**result, "specificity": {
            **result["specificity"], **_specificity_block(findings, scored)}}))
    return {**payload, "results": revised}
