"""The benchmark's traced mode still finds what it wraps.

perfbench/traced_cli.py wraps tosaudit functions and methods by their
module attribute names, so renaming or removing one breaks
`perfbench/run.py --trace 1`. Both tests run it in a fresh interpreter,
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


def test_traced_analyze_records_each_layer(fixture_corpus, tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans_path), "op-0", "analyze",
         "--corpus", str(fixture_corpus), "--out", str(tmp_path / "r.json")],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    names = {span[0] for span in spans}
    assert ANALYZE_SPANS <= names, ANALYZE_SPANS - names
