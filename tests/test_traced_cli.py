"""The benchmark's traced mode still finds what it wraps.

perfbench/traced_cli.py wraps tosaudit functions and methods by their
module attribute names, so renaming or removing one breaks
`perfbench/run.py --trace 1`. The tests run it in a fresh interpreter,
as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# Spans a traced `analyze` of the fixture corpus records; it is small
# enough to run in one process, where every span is seen.
ANALYZE_SPANS = {
    "cli.analyze", "pipeline.context", "pipeline.run_pipeline",
    "corpus.load_manifest", "corpus.read_payload", "pipeline.analyze_entry",
    "htmltext.html_to_text", "textprep.build_document", "readability.profile",
    "readability.bands", "readability.reading_time",
    "clarity.scan_vague_terms", "specificity.analyze_document",
    "specificity.aggregate_counts", "specificity.map_scores",
    "specificity.sentence_coverage", "interface_assess.load",
    "interface_assess.validate", "pipeline.results_payload",
    "pipeline.save_results",
}


def test_install_finds_every_wrapped_attribute():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import traced_cli; "
            "traced_cli.install(traced_cli.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(TRACED_CLI.parent)], env=ENV,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def traced(tmp_path, *cli_args):
    """(span names, counters) of one traced CLI run that succeeded."""
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans_path), "op-0", *cli_args],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    return {span[0] for span in trace["spans"]}, trace["counters"]


def test_traced_analyze_records_each_layer(fixture_corpus, tmp_path):
    names, _ = traced(tmp_path, "analyze", "--corpus", str(fixture_corpus),
                      "--out", str(tmp_path / "r.json"))
    assert ANALYZE_SPANS <= names, ANALYZE_SPANS - names


def test_traced_review_records_each_step(fixture_corpus, tmp_path):
    results, review, revised = (
        str(tmp_path / name) for name in ("r.json", "review.jsonl", "v.json"))
    traced(tmp_path, "analyze", "--corpus", str(fixture_corpus),
           "--out", results)
    names, _ = traced(tmp_path, "review", "export", "--results", results,
                      "--out", review)
    assert {"pipeline.load_results", "pipeline.review_export"} <= names
    names, counters = traced(tmp_path, "review", "apply", "--results",
                             results, "--review", review, "--out", revised)
    assert {"pipeline.load_results", "pipeline.review_apply",
            "pipeline.save_results"} <= names
    assert counters["pipeline.results_bytes"] == os.path.getsize(revised)
