"""Golden bytes: the fixture corpus's results and review files, pinned.

A speedup counts only if the results bytes are unchanged. These digests
pin the bytes that `analyze`, `review export --include-dt-en` and
`review apply` write for the fixture corpus, so a change that moves any
byte of them fails here, not only in a benchmark run. The parsed
digests pin what the results and apply files say apart from their
layout, so a change of layout is seen to keep the content.
"""

import hashlib
import json

import pytest

from conftest import build_fixture_corpus, run_cli

RESULTS_SHA256 = (
    "724782d9ecf8aa7b7bcccac6dedabf14e12e2e941d071e071003dd75bbbbf505")
EXPORT_SHA256 = (
    "ccc361c8b0d06e43068a2df0360505cdd4cee096df11016fb6977dafd2e520c7")
APPLY_SHA256 = (
    "6c3df32dad218d503169e1c7352dd4d511fa84d92163d84ac216b6190a9ba994")

# Digests of json.dumps(json.loads(raw), sort_keys=True,
# ensure_ascii=False), which no change of layout moves.
RESULTS_PARSED_SHA256 = (
    "91ad8cf2c36ee4248b35202cd5ef048bfe523f867e27cf9aae54a5237e1d4160")
APPLY_PARSED_SHA256 = (
    "956c51f7ca2b7c6395c615f967b0b3da083cd5997015c0f9037c36f7dda1d16d")

UPDATE_RULE = (
    "the {} bytes of the fixture corpus changed. Only a declared change "
    "of the file format may update this digest; a speedup or a refactor "
    "must leave the bytes as they are.")

PARSED_RULE = (
    "the {} content of the fixture corpus changed. A change of layout "
    "leaves this digest as it is; only a change of the keys or values "
    "written, such as a new results schema version, may update it.")


def _review_edits(records):
    """Deterministic labels and notes for an exported review file."""
    relabel = {"retention": "vague", "sharing": "generic"}
    for i, rec in enumerate(records):
        if i % 3 == 0:
            rec["human_label"] = "rejected"
        elif i % 3 == 1:
            rec["human_label"] = relabel.get(rec["detector"],
                                             rec["auto_label"].upper())
            rec["reviewer_note"] = f"checked {i}"
    return records


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus_dir = build_fixture_corpus(root / "corpus")
    results = root / "results.json"
    review = root / "review.jsonl"
    revised = root / "revised.json"
    outcome = run_cli([
        "analyze", "--corpus", str(corpus_dir), "--out", str(results)])
    assert outcome.exit_code == 0, outcome.stderr
    outcome = run_cli([
        "review", "export", "--results", str(results),
        "--out", str(review), "--include-dt-en"])
    assert outcome.exit_code == 0, outcome.stderr
    export_bytes = review.read_bytes()
    header, *lines = export_bytes.decode("utf-8").splitlines()
    records = _review_edits([json.loads(line) for line in lines])
    review.write_text("\n".join(
        [header] + [json.dumps(r, sort_keys=True) for r in records]) + "\n",
        encoding="utf-8")
    outcome = run_cli([
        "review", "apply", "--results", str(results),
        "--review", str(review), "--out", str(revised)])
    assert outcome.exit_code == 0, outcome.stderr
    return {"results": results.read_bytes(), "export": export_bytes,
            "apply": revised.read_bytes()}


@pytest.mark.parametrize("name, expected", [
    ("results", RESULTS_SHA256),
    ("export", EXPORT_SHA256),
    ("apply", APPLY_SHA256),
])
def test_bytes_unchanged(golden_files, name, expected):
    digest = hashlib.sha256(golden_files[name]).hexdigest()
    assert digest == expected, UPDATE_RULE.format(name)


@pytest.mark.parametrize("name, expected", [
    ("results", RESULTS_PARSED_SHA256),
    ("apply", APPLY_PARSED_SHA256),
])
def test_content_unchanged(golden_files, name, expected):
    parsed = json.dumps(json.loads(golden_files[name]), sort_keys=True,
                        ensure_ascii=False)
    digest = hashlib.sha256(parsed.encode("utf-8")).hexdigest()
    assert digest == expected, PARSED_RULE.format(name)
