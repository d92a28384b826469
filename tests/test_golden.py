"""Golden bytes: the fixture corpus's results and review files, pinned.

A speedup counts only if the results bytes are unchanged. These digests
pin the bytes that `analyze`, `review export --include-dt-en` and
`review apply` write for the fixture corpus, so a change that moves any
byte of them fails here, not only in a benchmark run.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from conftest import build_fixture_corpus
from tosaudit.cli import main

RESULTS_SHA256 = (
    "f039c2751f6d301f7baa1ab27d329a4eff431a034f995a853498cb7755a1e15d")
EXPORT_SHA256 = (
    "ccc361c8b0d06e43068a2df0360505cdd4cee096df11016fb6977dafd2e520c7")
APPLY_SHA256 = (
    "88347a74022292561b37acd45037510f148e3f694658fd1aa3b5ae3912bcd511")

UPDATE_RULE = (
    "the {} bytes of the fixture corpus changed. Only a declared format "
    "change (such as results schema 2, ROADMAP item 2) may update this "
    "digest; a speedup or a refactor must leave the bytes as they are.")


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
    runner = CliRunner()
    outcome = runner.invoke(main, [
        "analyze", "--corpus", str(corpus_dir), "--out", str(results)])
    assert outcome.exit_code == 0, outcome.output
    outcome = runner.invoke(main, [
        "review", "export", "--results", str(results),
        "--out", str(review), "--include-dt-en"])
    assert outcome.exit_code == 0, outcome.output
    export_bytes = review.read_bytes()
    header, *lines = export_bytes.decode("utf-8").splitlines()
    records = _review_edits([json.loads(line) for line in lines])
    review.write_text("\n".join(
        [header] + [json.dumps(r, sort_keys=True) for r in records]) + "\n",
        encoding="utf-8")
    outcome = runner.invoke(main, [
        "review", "apply", "--results", str(results),
        "--review", str(review), "--out", str(revised)])
    assert outcome.exit_code == 0, outcome.output
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
