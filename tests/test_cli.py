import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fixture_docs
import tosaudit
from conftest import build_fixture_corpus, force_pool, run_cli, value_paths
from tosaudit import cli

REPO_ROOT = Path(__file__).resolve().parents[1]

# What an installed console-script wrapper does: load the entry point named
# by argv[1] and call it with the remaining arguments.
_CONSOLE_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
value = sys.argv.pop(1)
sys.argv[0] = "tosaudit"
entry_point = EntryPoint(name="tosaudit", value=value, group="console_scripts")
sys.exit(entry_point.load()())
"""


def assert_fatal(outcome, message):
    """Exit 2 with `error: ...` on stderr, not an uncaught exception."""
    assert outcome.exit_code == 2, outcome.stderr
    assert outcome.stderr.startswith("error: ")
    assert message in outcome.stderr


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A corpus analyzed once via the CLI; returns (corpus_dir, results_path)."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = build_fixture_corpus(root / "corpus")
    results_path = root / "results.json"
    outcome = run_cli([
        "analyze", "--corpus", str(corpus_dir), "--out", str(results_path)])
    assert outcome.exit_code == 0, outcome.stderr
    return corpus_dir, results_path


class TestAnalyze:
    def test_success_message(self, analyzed, tmp_path, monkeypatch):
        corpus_dir, _ = analyzed
        monkeypatch.chdir(tmp_path)
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir), "--out", "results.json"])
        assert outcome.exit_code == 0
        assert outcome.stdout == (
            "analyzed 13 platform(s), 0 failure(s) -> results.json\n")
        payload = json.loads(Path("results.json").read_text(encoding="utf-8"))
        assert len(payload["results"]) == 13
        assert payload["failures"] == []

    def test_missing_manifest_is_fatal(self, tmp_path):
        outcome = run_cli([
            "analyze", "--corpus", str(tmp_path),
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 2
        assert "error: manifest not found" in outcome.stderr

    def test_document_failure_exits_one(self, tmp_path):
        from tosaudit import corpus
        payload = b"   \n \t "
        entry = corpus.SnapshotEntry(
            platform="blank", source_url="https://example.org/blank",
            retrieved_at="2025-11-01T00:00:00Z",
            content_digest=corpus.digest_bytes(payload),
            payload_path="", media_kind="plain_text")
        corpus.store_snapshot(corpus.new_manifest(), entry, payload,
                              str(tmp_path))
        outcome = run_cli([
            "analyze", "--corpus", str(tmp_path),
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 1
        assert "failed blank: degenerate document" in outcome.stderr
        # the results file is still written, with the failure recorded
        saved = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert saved["failures"] == [
            {"platform": "blank", "error": "degenerate document"}]

    def test_assessment_for_another_platform_exits_one(self, tmp_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        path = corpus_dir / "assessments" / "bluesky.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**data, "platform": "someone-else"}),
                        encoding="utf-8")
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir),
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 1
        message = ("invalid assessment: platform 'someone-else' is not "
                   "the document's 'bluesky'")
        assert f"failed bluesky: {message}" in outcome.stderr
        saved = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert saved["failures"] == [
            {"platform": "bluesky", "error": message}]
        bluesky, = (r for r in saved["results"] if r["platform"] == "bluesky")
        assert bluesky["interface"] is None

    @pytest.mark.parametrize("index", [3.9, True, "7"],
                             ids=["float", "bool", "str"])
    def test_evidence_index_not_an_integer_exits_one(self, tmp_path, index):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        path = corpus_dir / "assessments" / "bluesky.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["evidence"][0]["sentence_index"] = index
        path.write_text(json.dumps(data), encoding="utf-8")
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir),
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 1
        message = ("invalid assessment: malformed assessment: evidence "
                   f"sentence_index is not an integer: {index!r}")
        assert f"failed bluesky: {message}" in outcome.stderr
        with open(tmp_path / "r.json", encoding="utf-8") as fh:
            saved = json.load(fh)
        assert saved["failures"] == [
            {"platform": "bluesky", "error": message}]

    @pytest.mark.parametrize("content, message", [
        ("{broken", "malformed extraction config"),
        ('["main"]', "extraction_config.json is not a JSON object"),
        ('{"youtube": "main"}', "rule for 'youtube' must be a list"),
        ('{"youtube": {"include": ["div > p"]}}',
         "unsupported selector: 'div > p' for 'youtube'"),
        ('{"youtube": {"inclde": ["main"]}}',
         "rule for 'youtube' has unknown key 'inclde'"),
    ], ids=["malformed", "not_an_object", "rule_not_list_or_object",
            "unsupported_selector", "unknown_rule_key"])
    def test_bad_extraction_config_is_fatal(self, tmp_path,
                                            content, message):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        (corpus_dir / "extraction_config.json").write_text(content)
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir),
            "--out", str(tmp_path / "r.json")])
        assert_fatal(outcome, message)

    @pytest.mark.parametrize("terms, message", [
        ([{"canonical": "maybe", "category": "uncertainty",
           "variants": ["!!!"]}],
         "lexicon phrase has no word tokens: '!!!'"),
        ([{"canonical": "third party", "category": "actor_ambiguity",
           "variants": ["third  party"]}],
         "duplicate lexicon phrase: 'third  party'"),
    ], ids=["no_word_tokens", "tokenizes_like_another"])
    def test_bad_lexicon_phrase_is_fatal(self, tmp_path, terms,
                                         message):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        (lexdir / "vague_terms.json").write_text(
            json.dumps({"version": 1, "terms": terms}))
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir), "--lexicons", str(lexdir),
            "--out", str(tmp_path / "r.json")])
        assert_fatal(outcome, message)


class TestFetch:
    def test_fetch_with_config(self, http_base, tmp_path):
        config = {
            "request_delay_s": 0,
            "platforms": [
                {"platform": p, "url": f"{http_base}/tos/{p}"}
                for p in fixture_docs.PLATFORMS
            ],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        corpus_dir = tmp_path / "corpus"
        outcome = run_cli([
            "fetch", "--config", str(config_path),
            "--corpus", str(corpus_dir)])
        assert outcome.exit_code == 0, outcome.stderr
        assert outcome.stdout.count(": stored") == 13
        assert (corpus_dir / "manifest.json").exists()

    def test_fetch_error_exits_one(self, http_base, tmp_path):
        config = {
            "request_delay_s": 0,
            "platforms": [
                {"platform": "ghost", "url": f"{http_base}/tos/ghost-x"}],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        outcome = run_cli([
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "corpus")])
        assert outcome.exit_code == 1
        assert "ghost: error" in outcome.stdout

    def test_lone_surrogate_in_url_is_an_error_line(self, tmp_path):
        # "\ud800" is valid JSON; the URL fails before any request is made.
        config_path = tmp_path / "config.json"
        config_path.write_text(
            '{"request_delay_s": 0, "platforms": [{"platform": "x", '
            '"url": "http://127.0.0.1:9/t?x=\\ud800"}]}')
        outcome = run_cli([
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "corpus")])
        assert outcome.exit_code == 1, outcome.stderr
        assert ("x: error invalid url for http://127.0.0.1:9/t?x=\\ud800"
                in outcome.stdout)

    def test_missing_config_is_fatal(self, tmp_path):
        outcome = run_cli([
            "fetch", "--config", str(tmp_path / "nope.json"),
            "--corpus", str(tmp_path / "corpus")])
        assert outcome.exit_code == 2
        assert "error: corpus config not found" in outcome.stderr

    def test_platform_entry_without_platform_is_fatal(self,
                                                      http_base, tmp_path):
        # The shape an earlier README showed: "name" instead of "platform".
        config = {"request_delay_s": 0, "platforms": [
            {"name": "example", "url": f"{http_base}/tos/reddit"}]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        outcome = run_cli([
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "corpus")])
        assert_fatal(outcome, "corpus config platforms[0]")
        assert not (tmp_path / "corpus").exists()

    def test_unwritable_corpus_is_fatal(self, http_base, tmp_path):
        config = {"request_delay_s": 0, "platforms": [
            {"platform": "bluesky", "url": f"{http_base}/tos/bluesky"}]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        (tmp_path / "afile").write_text("")
        outcome = run_cli([
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "afile" / "sub")])
        assert_fatal(outcome, "cannot write")

    def test_unwritable_manifest_is_fatal(self, http_base, tmp_path):
        # A lone-surrogate escape loads from JSON but is not UTF-8 text.
        config = {"request_delay_s": 0, "platforms": [
            {"platform": "bluesky", "url": f"{http_base}/tos/bluesky"}]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        manifest = tmp_path / "corpus" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text('{"entries": [], "\\ud800": 1}')
        outcome = run_cli([
            "fetch", "--config", str(config_path),
            "--corpus", str(manifest.parent)])
        assert_fatal(outcome,
                     f"cannot write {manifest}: surrogates not allowed")
        assert manifest.read_text() == '{"entries": [], "\\ud800": 1}'


class TestReview:
    def test_export_and_apply(self, analyzed, tmp_path):
        _, results_path = analyzed
        review_path = tmp_path / "review.jsonl"
        outcome = run_cli([
            "review", "export", "--results", str(results_path),
            "--out", str(review_path)])
        assert outcome.exit_code == 0
        assert "exported 42 finding(s)" in outcome.stdout

        lines = review_path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            if rec["platform"] == "reddit" and rec["detector"] == "sharing" \
                    and rec["auto_label"] == "specific":
                rec["human_label"] = "rejected"
        review_path.write_text("\n".join(
            [lines[0]] + [json.dumps(r) for r in records]) + "\n")

        out_path = tmp_path / "revised.json"
        outcome = run_cli([
            "review", "apply", "--results", str(results_path),
            "--review", str(review_path), "--out", str(out_path)])
        assert outcome.exit_code == 0
        assert "applied review" in outcome.stdout
        revised = json.loads(out_path.read_text(encoding="utf-8"))
        reddit = next(r for r in revised["results"]
                      if r["platform"] == "reddit")
        assert reddit["specificity"]["auto"]["counts"]["ss"] == 2
        assert reddit["specificity"]["post_review"]["counts"]["ss"] == 0

    def test_apply_unmatched_platform_is_fatal(self, analyzed,
                                               tmp_path):
        _, results_path = analyzed
        review_path = tmp_path / "review.jsonl"
        header = {"record_type": "header", "format": "tosaudit-review",
                  "version": 1, "finding_count": 1}
        record = {"platform": "atlantis", "sentence_index": 0,
                  "detector": "sharing",
                  "evidence_span": {"start": 0, "end": 4},
                  "human_label": "rejected"}
        review_path.write_text(
            json.dumps(header) + "\n" + json.dumps(record) + "\n")
        outcome = run_cli([
            "review", "apply", "--results", str(results_path),
            "--review", str(review_path),
            "--out", str(tmp_path / "revised.json")])
        assert outcome.exit_code == 2
        assert "unmatched review record" in outcome.stderr

    def test_empty_review_is_noop(self, analyzed, tmp_path):
        _, results_path = analyzed
        review_path = tmp_path / "review.jsonl"
        review_path.write_text(json.dumps(
            {"record_type": "header", "format": "tosaudit-review",
             "version": 1, "finding_count": 0}) + "\n")
        out_path = tmp_path / "revised.json"
        outcome = run_cli([
            "review", "apply", "--results", str(results_path),
            "--review", str(review_path), "--out", str(out_path)])
        assert outcome.exit_code == 0, outcome.stderr
        assert out_path.read_bytes() == results_path.read_bytes()

    def test_apply_keeps_deep_nesting(self, analyzed, tmp_path):
        """A list 970 deep in fluency is read, applied and written back.

        json.load rejects nesting from about 977 levels on (exit 2); the
        record encoder, which recurses once per level, must not fail
        below that. The input is in another layout, so the output is
        compared parsed. A fresh process has the stack depth of a real
        run.
        """
        payload = json.loads(analyzed[1].read_text(encoding="utf-8"))
        deep = []
        for _ in range(969):
            deep = [deep]
        payload["results"][0]["fluency"]["deep"] = deep
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)  # under pytest's own frames
        try:
            text = json.dumps(payload, sort_keys=True, indent=2,
                              ensure_ascii=False) + "\n"
        finally:
            sys.setrecursionlimit(limit)
        results_path = tmp_path / "deep.json"
        results_path.write_text(text, encoding="utf-8")
        review_path = _review_file(tmp_path)
        out_path = tmp_path / "revised.json"
        completed = subprocess.run(
            [sys.executable, "-m", "tosaudit.cli", "review", "apply",
             "--results", str(results_path), "--review", str(review_path),
             "--out", str(out_path)],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        sys.setrecursionlimit(limit + 2000)
        try:
            assert json.loads(out_path.read_text(encoding="utf-8")) == payload
        finally:
            sys.setrecursionlimit(limit)

    def test_export_missing_results_is_fatal(self, tmp_path):
        outcome = run_cli([
            "review", "export", "--results", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "review.jsonl")])
        assert outcome.exit_code == 2
        assert "error: results not found" in outcome.stderr


class TestAssess:
    def test_validate_ok(self, analyzed):
        corpus_dir, _ = analyzed
        path = corpus_dir / "assessments" / "bluesky.json"
        outcome = run_cli([
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 0
        assert outcome.stdout == "ok: bluesky\n"

    def test_validate_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"platform": "demo", "explicit_denial": 9, "evidence": []}))
        outcome = run_cli([
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 1
        assert "invalid: explicit_denial: score 9 out of range 0..2" \
            in outcome.stderr

    def test_validate_platform_not_a_string(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"platform": 5}))
        outcome = run_cli([
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 1
        assert outcome.stderr == "invalid: platform is not a string\n"

    def test_validate_malformed_is_fatal(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        outcome = run_cli([
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 2
        assert "error: malformed assessment file" in outcome.stderr

    @pytest.mark.parametrize("index", [3.9, True, "7"],
                             ids=["float", "bool", "str"])
    def test_validate_evidence_index_not_an_integer(self, analyzed,
                                                    tmp_path, index):
        # Read with int(), these were stored as 3, 1 and 7.
        corpus_dir, _ = analyzed
        data = json.loads((corpus_dir / "assessments" / "bluesky.json")
                          .read_text(encoding="utf-8"))
        data["evidence"][0]["sentence_index"] = index
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        outcome = run_cli(["assess", "validate", "--file", str(path)])
        assert_fatal(outcome, "malformed assessment: evidence "
                     f"sentence_index is not an integer: {index!r}")

    def test_validate_missing_file_is_fatal(self, tmp_path):
        outcome = run_cli([
            "assess", "validate", "--file", str(tmp_path / "absent.json")])
        assert_fatal(outcome, "assessment not found")


class TestReport:
    def test_table(self, analyzed, tmp_path):
        _, results_path = analyzed
        out = tmp_path / "clarity.csv"
        outcome = run_cli([
            "report", "table", "--results", str(results_path),
            "--kind", "clarity", "--format", "csv", "--out", str(out)])
        assert outcome.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("platform,word_count")
        assert len(lines) == 14

    def test_figure_with_svg(self, analyzed, tmp_path):
        _, results_path = analyzed
        out = tmp_path / "fig.json"
        svg = tmp_path / "fig.svg"
        outcome = run_cli([
            "report", "figure", "--results", str(results_path),
            "--kind", "words_vs_sentences", "--out", str(out),
            "--svg", str(svg)])
        assert outcome.exit_code == 0
        records = json.loads(out.read_text(encoding="utf-8"))
        assert len(records) == 13
        assert svg.read_text().startswith("<svg")

    def test_bad_kind_is_a_usage_error(self, analyzed, tmp_path):
        _, results_path = analyzed
        out = tmp_path / "x.csv"
        outcome = run_cli([
            "report", "table", "--results", str(results_path),
            "--kind", "mystery", "--format", "csv", "--out", str(out)])
        assert outcome.exit_code == 2
        assert outcome.stderr.startswith("usage: tosaudit report table ")
        assert "argument --kind: invalid choice: 'mystery'" in outcome.stderr
        assert outcome.stdout == ""
        assert not out.exists()

    def test_missing_results_is_fatal(self, tmp_path):
        outcome = run_cli([
            "report", "table", "--results", str(tmp_path / "nope.json"),
            "--kind", "clarity", "--format", "csv",
            "--out", str(tmp_path / "x.csv")])
        assert outcome.exit_code == 2
        assert "error: results not found" in outcome.stderr


class TestOneLine:
    """Every line the CLI prints stays one line; a line break it quotes
    is printed as its escape."""

    def test_every_line_break_is_escaped(self):
        breaks = [char for char in map(chr, range(sys.maxunicode + 1))
                  if len(f"a{char}b".splitlines()) > 1]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._echo("|".join(breaks))
        assert out.getvalue().splitlines() == [out.getvalue()[:-1]]
        assert out.getvalue() == "|".join(
            char.encode("unicode_escape").decode() for char in breaks) + "\n"

    def test_failed_platform_quoting_a_newline(self, tmp_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        path = corpus_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["entries"]:
            if entry["platform"] == "bluesky":
                entry["payload_path"] = "payloads/x\ny.txt"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "r.json"
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir), "--out", str(out)])
        assert outcome.exit_code == 1
        assert len(outcome.stderr.splitlines()) == 1, outcome.stderr
        assert outcome.stderr.startswith(
            "failed bluesky: payload not found: ")
        assert outcome.stderr.endswith("/x\\ny.txt\n")
        # The results file keeps the message as it was.
        [failure] = json.loads(out.read_text(encoding="utf-8"))["failures"]
        assert failure["error"].endswith("/x\ny.txt")

    def test_error_quoting_a_carriage_return(self, tmp_path):
        outcome = run_cli([
            "analyze", "--corpus", "no\rsuch",
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 2
        assert len(outcome.stderr.splitlines()) == 1, outcome.stderr
        assert outcome.stderr.startswith("error: manifest not found")
        assert "no\\rsuch" in outcome.stderr

    def test_usage_error_quoting_a_newline(self):
        outcome = run_cli(["analyze", "--corpus", "c", "--out", "o", "x\ny"])
        assert outcome.exit_code == 2
        assert outcome.stderr.splitlines()[-1] == (
            "tosaudit: error: unrecognized arguments: x\\ny")


_SHIPPED = Path(tosaudit.__file__).parent / "data"


def _results_with(results_path, tmp_path, edit):
    """A copy of the analyzed results file, passed through edit."""
    payload = json.loads(results_path.read_text(encoding="utf-8"))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(payload)), encoding="utf-8")
    return path


def _drop_block(block):
    def edit(payload):
        del payload["results"][0][block]
        return payload
    return edit


def _repeat_record(payload):
    payload["results"].append(payload["results"][0])
    return payload


def _repeat_finding(payload):
    findings = payload["results"][0]["specificity"]["findings"]
    findings.append(findings[0])
    return payload


def _review_file(tmp_path, *lines):
    header = json.dumps({"record_type": "header", "format": "tosaudit-review",
                         "version": 1, "finding_count": len(lines)})
    path = tmp_path / "review.jsonl"
    path.write_bytes(b"\n".join([header.encode()] + list(lines)) + b"\n")
    return path


def _corpus_with(tmp_path, name, content):
    """A fresh fixture corpus with one file replaced by content."""
    corpus_dir = build_fixture_corpus(tmp_path / "corpus")
    (corpus_dir / name).write_bytes(content)
    return corpus_dir


def _manifest_edit(edit):
    def case(tmp_path, results_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        path = corpus_dir / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["analyze", "--corpus", str(corpus_dir),
                "--out", str(tmp_path / "r.json")]
    return case


def _payload_outside(path_of):
    """analyze after the first entry's payload is copied to
    outside/t.txt, next to the corpus, and its payload_path is set to
    path_of(the copy's Path)."""
    def case(tmp_path, results_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        path = corpus_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["entries"][0]
        copy = tmp_path / "outside" / "t.txt"
        copy.parent.mkdir()
        copy.write_bytes((corpus_dir / entry["payload_path"]).read_bytes())
        entry["payload_path"] = path_of(copy)
        path.write_text(json.dumps(manifest))
        return ["analyze", "--corpus", str(corpus_dir),
                "--out", str(tmp_path / "r.json")]
    return case


def _payload_symlinked_outside(tmp_path, results_path):
    """analyze after the first entry's payload is moved to outside/t.txt,
    next to the corpus, and a symlink to it is left in its place."""
    corpus_dir = build_fixture_corpus(tmp_path / "corpus")
    entry = json.loads(
        (corpus_dir / "manifest.json").read_text())["entries"][0]
    stored = corpus_dir / entry["payload_path"]
    (tmp_path / "outside").mkdir()
    stored.rename(tmp_path / "outside" / "t.txt")
    stored.symlink_to(tmp_path / "outside" / "t.txt")
    return ["analyze", "--corpus", str(corpus_dir),
            "--out", str(tmp_path / "r.json")]


def _analyze_with_lexicon(name, content):
    def case(tmp_path, results_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        if content is None:
            (lexdir / name).mkdir()
        else:
            (lexdir / name).write_bytes(content)
        return ["analyze", "--corpus", str(corpus_dir),
                "--lexicons", str(lexdir), "--out", str(tmp_path / "r.json")]
    return case


def _shipped_with(name, **fields):
    shipped = json.loads((_SHIPPED / name).read_text(encoding="utf-8"))
    return json.dumps({**shipped, **fields}).encode()


def _table(path):
    return ["report", "table", "--results", str(path), "--kind", "clarity",
            "--format", "csv", "--out", str(path.parent / "t.csv")]


def _export(path, out=None):
    return ["review", "export", "--results", str(path),
            "--out", str(out or path.parent / "review.jsonl")]


def _apply(results_path, review_path, tmp_path):
    return ["review", "apply", "--results", str(results_path),
            "--review", str(review_path), "--out", str(tmp_path / "rev.json")]


def _bytes_file(tmp_path, content, name="input.json"):
    path = tmp_path / name
    path.write_bytes(content)
    return path


def _fetch_with(**fields):
    """fetch with a config whose one URL is on localhost, plus fields."""
    def case(tmp_path, results_path):
        config = {"platforms": [
            {"platform": "local", "url": "http://localhost:9/tos"}], **fields}
        path = _bytes_file(tmp_path, json.dumps(config).encode())
        return ["fetch", "--config", str(path),
                "--corpus", str(tmp_path / "corpus")]
    return case


def _dangling_symlink(where):
    """analyze with --lexicons lex, or fetch for the manifest, after the
    file at where, under tmp_path, is made a symlink to nothing."""
    def case(tmp_path, results_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        (tmp_path / "lex").mkdir()
        link = tmp_path / where
        link.unlink(missing_ok=True)
        link.symlink_to(tmp_path / "gone")
        if where == "corpus/manifest.json":
            return _fetch_with()(tmp_path, results_path)
        return ["analyze", "--corpus", str(corpus_dir), "--lexicons",
                str(tmp_path / "lex"), "--out", str(tmp_path / "r.json")]
    return case


def _symlink_loop(what):
    """analyze with --lexicons lex after lex/vague_terms.json (what ==
    "lexicon") or the first entry's payload (what == "payload") is made
    a symlink to itself."""
    def case(tmp_path, results_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        (tmp_path / "lex").mkdir()
        if what == "lexicon":
            link = tmp_path / "lex" / "vague_terms.json"
        else:
            entry = json.loads(
                (corpus_dir / "manifest.json").read_text())["entries"][0]
            link = corpus_dir / entry["payload_path"]
            link.unlink()
        link.symlink_to(link.name)
        return ["analyze", "--corpus", str(corpus_dir), "--lexicons",
                str(tmp_path / "lex"), "--out", str(tmp_path / "r.json")]
    return case


# One case per bad input: (argv builder, exit code, message in stderr).
FAIL_CLOSED_CASES = {
    "table_results_list": (
        lambda tmp, res: _table(_bytes_file(tmp, b"[]")),
        2, "is not a JSON object"),
    "table_result_missing_readability": (
        lambda tmp, res: _table(
            _results_with(res, tmp, _drop_block("readability"))),
        2, "malformed results file"),
    "table_results_schema_version_2": (
        lambda tmp, res: _table(_bytes_file(
            tmp, b'{"schema_version": 2, "results": []}')),
        2, "not schema version 1"),
    "table_results_not_utf8": (
        lambda tmp, res: _table(_bytes_file(tmp, b'{"\xff": 1}')),
        2, "malformed results file"),
    "table_results_platform_twice": (
        lambda tmp, res: _table(_results_with(res, tmp, _repeat_record)),
        2, "malformed results file"),
    "export_results_list": (
        lambda tmp, res: _export(_bytes_file(tmp, b"[]")),
        2, "is not a JSON object"),
    "export_result_missing_specificity": (
        lambda tmp, res: _export(
            _results_with(res, tmp, _drop_block("specificity"))),
        2, "malformed results file"),
    "export_results_platform_twice": (
        lambda tmp, res: _export(_results_with(res, tmp, _repeat_record)),
        2, "two records for platform 'bluesky'"),
    # One review record could not tell the two findings apart.
    "export_results_finding_twice": (
        lambda tmp, res: _export(_results_with(res, tmp, _repeat_finding)),
        2, "two findings under review key bluesky/"),
    "apply_results_finding_twice": (
        lambda tmp, res: _apply(_results_with(res, tmp, _repeat_finding),
                                _review_file(tmp), tmp),
        2, "two findings under review key bluesky/"),
    "export_into_missing_dir": (
        lambda tmp, res: _export(res, tmp / "missing" / "review.jsonl"),
        2, "cannot write"),
    "apply_missing_review": (
        lambda tmp, res: _apply(res, tmp / "missing.jsonl", tmp),
        2, "review not found"),
    "apply_record_is_string": (
        lambda tmp, res: _apply(res, _review_file(tmp, b'"x"'), tmp),
        2, "line 2: record is not a JSON object"),
    "apply_record_is_list": (
        lambda tmp, res: _apply(res, _review_file(tmp, b"[1]"), tmp),
        2, "line 2: record is not a JSON object"),
    "apply_record_platform_not_string": (
        lambda tmp, res: _apply(
            res, _review_file(tmp, b'{"platform": [1]}'), tmp),
        2, "malformed review record"),
    "apply_review_not_utf8": (
        lambda tmp, res: _apply(res, _review_file(tmp, b"\xff"), tmp),
        2, "malformed review file"),
    "analyze_out_in_missing_dir": (
        lambda tmp, res: ["analyze", "--corpus",
                          str(build_fixture_corpus(tmp / "corpus")),
                          "--out", str(tmp / "missing" / "r.json")],
        2, "cannot write"),
    "figure_svg_into_missing_dir": (
        lambda tmp, res: ["report", "figure", "--results", str(res),
                          "--kind", "reading_time",
                          "--out", str(tmp / "fig.json"),
                          "--svg", str(tmp / "missing" / "fig.svg")],
        2, "cannot write"),
    "sharing_json_is_list": (
        _analyze_with_lexicon("sharing.json", b"[]"),
        2, "sharing.json is not a JSON object"),
    "sharing_verbs_is_string": (
        _analyze_with_lexicon(
            "sharing.json", _shipped_with("sharing.json",
                                          sharing_verbs="share")),
        2, "sharing.sharing_verbs: must be a list of non-empty strings"),
    # Words that never match a one-token lookup, or counts that corrupt
    # the readability statistics, are refused before the run.
    "sharing_verb_two_tokens": (
        _analyze_with_lexicon(
            "sharing.json", _shipped_with("sharing.json",
                                          sharing_verbs=["hand over"])),
        2, "sharing_verb 'hand over' is not one word token"),
    "retention_verb_two_tokens": (
        _analyze_with_lexicon(
            "retention.json", _shipped_with("retention.json",
                                            retention_verbs=["hold onto"])),
        2, "retention_verb 'hold onto' is not one word token"),
    "duration_unit_two_tokens": (
        _analyze_with_lexicon(
            "retention.json", _shipped_with(
                "retention.json", duration_units=["days", "business days"])),
        2, "duration_unit 'business days' is not one word token"),
    "syllable_count_negative": (
        _analyze_with_lexicon("syllable_exceptions.txt", b"data\t-3\n"),
        2, "syllable_exceptions.txt:1: count -3 is below 1"),
    "syllable_count_zero": (
        _analyze_with_lexicon("syllable_exceptions.txt",
                              b"# counts\nfire\t2\ndata\t0\n"),
        2, "syllable_exceptions.txt:3: count 0 is below 1"),
    "syllable_word_two_tokens": (
        _analyze_with_lexicon("syllable_exceptions.txt",
                              b"third party\t3\n"),
        2, "syllable_exceptions.txt:1: 'third party' is not one word token"),
    "syllable_word_repeated": (
        _analyze_with_lexicon("syllable_exceptions.txt",
                              b"data\t2\nData\t5\n"),
        2, "syllable_exceptions.txt:2: duplicate word 'data'"),
    "reader_group_names_repeat": (
        _analyze_with_lexicon("reader_groups.json", json.dumps({"groups": [
            {"name": "adult", "wpm_low": 180, "wpm_high": 200},
            {"name": "adult", "wpm_low": 230, "wpm_high": 250}]}).encode()),
        2, "duplicate reader group name 'adult'"),
    "vague_terms_not_utf8": (
        _analyze_with_lexicon("vague_terms.json", b'{"terms": "\xff"}'),
        2, "malformed lexicon file"),
    "reader_groups_is_directory": (
        _analyze_with_lexicon("reader_groups.json", None),
        2, "cannot read reader groups"),
    "manifest_not_utf8": (
        lambda tmp, res: ["analyze", "--corpus", str(
            _corpus_with(tmp, "manifest.json", b'{"\xff": 1}')),
            "--out", str(tmp / "r.json")],
        2, "malformed manifest file"),
    "manifest_is_list": (
        _manifest_edit(lambda manifest: []),
        2, "manifest.json is not a JSON object"),
    "manifest_entries_not_list": (
        _manifest_edit(lambda manifest: {**manifest, "entries": {"a": 1}}),
        2, "entries that are a list of objects"),
    "manifest_schema_version_99": (
        _manifest_edit(lambda manifest: {**manifest, "schema_version": 99}),
        2, "manifest needs integer schema_version 1"),
    "manifest_payload_path_not_string": (
        _manifest_edit(lambda manifest: {**manifest, "entries": [
            {**manifest["entries"][0], "payload_path": 5}]}),
        2, "manifest entry missing field 'payload_path'"),
    "extraction_config_not_utf8": (
        lambda tmp, res: ["analyze", "--corpus", str(
            _corpus_with(tmp, "extraction_config.json", b'{"\xff": 1}')),
            "--out", str(tmp / "r.json")],
        2, "malformed extraction config file"),
    "corpus_config_not_utf8": (
        lambda tmp, res: ["fetch", "--config",
                          str(_bytes_file(tmp, b'{"\xff": 1}')),
                          "--corpus", str(tmp / "corpus")],
        2, "malformed corpus config file"),
    "request_delay_s_is_string": (
        _fetch_with(request_delay_s="x"),
        2, "corpus config request_delay_s"),
    "request_delay_s_is_bool": (
        _fetch_with(request_delay_s=True),
        2, "corpus config request_delay_s"),
    "timeout_s_negative": (
        _fetch_with(timeout_s=-1),
        2, "corpus config timeout_s"),
    "timeout_s_past_a_day": (
        _fetch_with(timeout_s=1e10),
        2, "corpus config timeout_s"),
    "user_agent_is_number": (
        _fetch_with(user_agent=5),
        2, "corpus config user_agent"),
    "user_agent_has_newline": (
        _fetch_with(user_agent="bot\nX-Injected: 1"),
        2, "corpus config user_agent"),
    # A platform name that is not one path component would read or
    # write outside the corpus.
    "manifest_platform_escapes": (
        _manifest_edit(lambda manifest: {**manifest, "entries": [
            {**manifest["entries"][0], "platform": "../../escaped"}]}),
        2, "platform '../../escaped' is not one path component"),
    "corpus_config_platform_escapes": (
        lambda tmp, res: ["fetch", "--config", str(_bytes_file(
            tmp, json.dumps({"platforms": [{"platform": "..", "url": "x"}]})
            .encode())), "--corpus", str(tmp / "corpus")],
        2, "platform '..' is not one path component"),
    "payload_path_is_directory": (
        _manifest_edit(lambda manifest: {**manifest, "entries": [
            {**manifest["entries"][0], "payload_path": "payloads"}]}),
        1, "cannot read payload"),
    # Not a path open() takes; the other entries reach the pool sizing.
    "payload_path_has_surrogate": (
        _manifest_edit(lambda manifest: {**manifest, "entries": [
            {**manifest["entries"][0], "payload_path": "a\ud800"},
            *manifest["entries"][1:]]}),
        1, "invalid path"),
    "payload_symlink_leaves_corpus": (
        _payload_symlinked_outside, 1, "resolves outside the corpus"),
    # A symlink to nothing is a file that cannot be read, not one that
    # is absent: no shipped lexicon, empty config or missing record
    # stands in for it.
    "lexicon_dangling_symlink": (
        _dangling_symlink("lex/vague_terms.json"),
        2, "lexicon not found: "),
    "extraction_config_dangling_symlink": (
        _dangling_symlink("corpus/extraction_config.json"),
        2, "extraction config not found: "),
    "assessment_dangling_symlink": (
        _dangling_symlink("corpus/assessments/bluesky.json"),
        1, "failed bluesky: invalid assessment: assessment not found: "),
    "manifest_dangling_symlink": (
        _dangling_symlink("corpus/manifest.json"),
        2, "manifest not found: "),
    # A symlink to itself never resolves to a file: the open fails.
    "lexicon_symlink_loop": (
        _symlink_loop("lexicon"), 2,
        "/lex/vague_terms.json: Too many levels of symbolic links"),
    "payload_symlink_loop": (
        _symlink_loop("payload"), 1,
        ".txt: Too many levels of symbolic links"),
    # A payload_path must stay inside the corpus, even where the file
    # it names outside holds the pinned bytes.
    **{f"payload_path_{name}": (
        _payload_outside(path_of), 2,
        "is not a relative path inside the corpus")
       for name, path_of in (
           ("leaves_corpus", lambda copy: "../outside/t.txt"),
           ("leaves_through_payloads",
            lambda copy: "payloads/../../outside/t.txt"),
           ("absolute", str),
           ("leaves_through_backslash", lambda copy: "..\\outside\\t.txt"),
           ("has_drive", lambda copy: "C:outside/t.txt"),
           ("is_unc", lambda copy: "\\\\host\\share\\t.txt"),
           ("empty", lambda copy: ""),
           ("has_nul", lambda copy: "a\x00b"))},
}


class TestFailClosed:
    @pytest.mark.parametrize("case", FAIL_CLOSED_CASES)
    def test_bad_input(self, analyzed, tmp_path, case):
        build, code, message = FAIL_CLOSED_CASES[case]
        outcome = run_cli(build(tmp_path, analyzed[1]))
        if code == 2:
            assert_fatal(outcome, message)
        else:
            assert outcome.exit_code == code, outcome.stderr
            assert message in outcome.stderr

    def test_analyze_out_checked_before_the_run(self, tmp_path,
                                                monkeypatch):
        def run_pipeline(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(tosaudit.pipeline, "run_pipeline", run_pipeline)
        out = tmp_path / "missing" / "r.json"
        outcome = run_cli([
            "analyze", "--corpus", str(tmp_path), "--out", str(out)])
        assert_fatal(outcome, f"cannot write {out}")

    def test_analyze_out_not_a_regular_file(self, tmp_path, monkeypatch):
        def run_pipeline(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(tosaudit.pipeline, "run_pipeline", run_pipeline)
        out = tmp_path / "fifo"
        os.mkfifo(out)
        outcome = run_cli([
            "analyze", "--corpus", str(tmp_path), "--out", str(out)])
        assert_fatal(outcome, f"cannot write {out}: not a regular file")
        assert stat.S_ISFIFO(os.lstat(out).st_mode)

    def test_table_out_not_a_regular_file(self, analyzed, tmp_path):
        out = tmp_path / "fifo"
        os.mkfifo(out)
        outcome = run_cli(["report", "table", "--results", str(analyzed[1]),
                           "--kind", "clarity", "--format", "csv",
                           "--out", str(out)])
        assert_fatal(outcome, f"cannot write {out}: not a regular file")
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_unwritable_record_leaves_out_untouched(self, tmp_path,
                                                    monkeypatch, pool):
        # A record is encoded where it is made, in a worker for a pool.
        if pool:
            monkeypatch.setattr(tosaudit.pipeline, "POOL_MIN_PAYLOAD_BYTES", 0)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = _manifest_edit(lambda manifest: {**manifest, "entries": [
            {**manifest["entries"][0], "platform": "x\ud800"},
            *manifest["entries"][1:]]})(tmp_path, None)
        out = tmp_path / "r.json"
        out.write_bytes(b"earlier output")
        outcome = run_cli(argv)
        assert_fatal(outcome, f"cannot write {out}: surrogates not allowed")
        assert out.read_bytes() == b"earlier output"
        assert not list(tmp_path.glob("r.json*.tmp"))

    @pytest.mark.parametrize("command", ["export", "apply", "apply_last_key"])
    def test_lone_surrogate_leaves_out_untouched(self, analyzed,
                                                 tmp_path, command):
        # "\ud800" is valid JSON and loads, but UTF-8 cannot encode it.
        # In a key that sorts after "results" it fails the write after
        # the records are in the temporary file.
        def edit(payload):
            if command == "apply":
                payload["results"][0]["source_digest"] = "\ud800"
            elif command == "apply_last_key":
                payload["zz"] = "\ud800"
            else:
                finding = next(
                    f for r in payload["results"]
                    for f in r["specificity"]["findings"]
                    if f["detector"] == "sharing")
                finding["sentence_text"] += "\ud800"
            return payload

        results = _results_with(analyzed[1], tmp_path, edit)
        out = tmp_path / "out"
        out.write_bytes(b"earlier output")
        argv = (_export(results, out) if command == "export" else [
            "review", "apply", "--results", str(results),
            "--review", str(_review_file(tmp_path)), "--out", str(out)])
        outcome = run_cli(argv)
        assert_fatal(outcome, f"cannot write {out}: surrogates not allowed")
        assert len(outcome.stderr) < len(str(out)) + 100
        assert out.read_bytes() == b"earlier output"
        assert not list(tmp_path.glob("out*.tmp"))

    @pytest.mark.parametrize("command", ["export", "apply"])
    @pytest.mark.parametrize("field, value", [
        ("detector", 5), ("detector", "bogus"), ("sentence_text", 5),
        ("human_label", []), ("reviewer_note", {}), ("platform", None),
        ("sentence_index", True), ("sentence_index", 2.0),
        pytest.param("evidence_span", {"start": 0, "end": "9"},
                     id="evidence_span-end_str"),
    ])
    def test_malformed_finding_leaves_out_untouched(
            self, analyzed, tmp_path, command, field, value):
        # Export must reject what apply rejects, before writing a line.
        def edit(payload):
            finding = next(
                f for r in payload["results"]
                for f in r["specificity"]["findings"]
                if f["detector"] == "sharing")
            finding[field] = value
            return payload

        results = _results_with(analyzed[1], tmp_path, edit)
        out = tmp_path / "out"
        out.write_bytes(b"earlier output")
        argv = (_export(results, out) if command == "export" else [
            "review", "apply", "--results", str(results),
            "--review", str(_review_file(tmp_path)), "--out", str(out)])
        outcome = run_cli(argv)
        assert_fatal(outcome, f"malformed results file {results}: ")
        assert f"finding {field}" in outcome.stderr
        assert out.read_bytes() == b"earlier output"
        assert not list(tmp_path.glob("out*.tmp"))

    @pytest.mark.parametrize("field", ["sentence_index", "start", "end"])
    @pytest.mark.parametrize("bad", [lambda v: v + 0.9, str, bool],
                             ids=["float", "str", "bool"])
    def test_review_record_index_not_an_integer_leaves_out_untouched(
            self, analyzed, tmp_path, field, bad):
        # Read with int(), 3.9 and "9" would match finding 3/(4, 9).
        review = tmp_path / "review.jsonl"
        outcome = run_cli(_export(analyzed[1], review))
        assert outcome.exit_code == 0, outcome.stderr
        header, line, *_ = review.read_text(encoding="utf-8").splitlines()
        record = {**json.loads(line), "human_label": "rejected"}
        holder = record if field == "sentence_index" else \
            record["evidence_span"]
        holder[field] = bad(holder[field])
        review = _review_file(tmp_path, json.dumps(record).encode())
        out = tmp_path / "out"
        out.write_bytes(b"earlier output")
        outcome = run_cli([
            "review", "apply", "--results", str(analyzed[1]),
            "--review", str(review), "--out", str(out)])
        assert_fatal(outcome, "malformed review record")
        assert out.read_bytes() == b"earlier output"

    @pytest.mark.parametrize("field", ["human_label", "reviewer_note"])
    @pytest.mark.parametrize("bad", [False, 0, [], {}],
                             ids=["false", "0", "list", "object"])
    def test_review_record_label_not_a_string_leaves_out_untouched(
            self, analyzed, tmp_path, field, bad):
        # Read with `or ""`, each of these would apply as no label.
        review = tmp_path / "review.jsonl"
        outcome = run_cli(_export(analyzed[1], review))
        assert outcome.exit_code == 0, outcome.stderr
        header, line, *_ = review.read_text(encoding="utf-8").splitlines()
        review = _review_file(tmp_path, json.dumps(
            {**json.loads(line), field: bad}).encode())
        out = tmp_path / "out"
        out.write_bytes(b"earlier output")
        outcome = run_cli([
            "review", "apply", "--results", str(analyzed[1]),
            "--review", str(review), "--out", str(out)])
        assert_fatal(outcome, "malformed review record")
        assert out.read_bytes() == b"earlier output"

    def test_duplicate_review_record_leaves_out_untouched(
            self, analyzed, tmp_path):
        # Applied in turn, the later record would win without a word.
        review = tmp_path / "review.jsonl"
        outcome = run_cli(_export(analyzed[1], review))
        assert outcome.exit_code == 0, outcome.stderr
        header, line, *rest = review.read_text(
            encoding="utf-8").splitlines()
        record = json.loads(line)
        twice = [json.dumps({**record, "human_label": label}).encode()
                 for label in ("rejected", record["auto_label"])]
        review = _review_file(
            tmp_path, *twice, *(other.encode() for other in rest))
        out = tmp_path / "out"
        out.write_bytes(b"earlier output")
        outcome = run_cli([
            "review", "apply", "--results", str(analyzed[1]),
            "--review", str(review), "--out", str(out)])
        span = record["evidence_span"]
        assert_fatal(outcome, "duplicate review record: "
                     f"{record['platform']}/{record['sentence_index']}/"
                     f"{record['detector']}/{span['start']}/{span['end']}")
        assert out.read_bytes() == b"earlier output"

    @pytest.mark.parametrize("edit, message", [
        (lambda header, lines: (header, lines[:10]),
         "holds 10 records but its header says finding_count {count}"),
        (lambda header, lines: ({**header, "version": 99}, lines),
         "unsupported review version 99"),
        (lambda header, lines: ({**header, "version": "1"}, lines),
         "unsupported review version '1'"),
        *((lambda header, lines, bad=bad: (
            {**header, "finding_count": bad}, lines),
           f"finding_count {bad!r} is not a non-negative integer")
          for bad in (-1, "166", True, None, 1.5)),
    ], ids=["cut_short", "version_99", "version_string", "count_negative",
            "count_string", "count_bool", "count_null", "count_float"])
    def test_bad_review_header_leaves_out_untouched(
            self, analyzed, tmp_path, edit, message):
        review = tmp_path / "review.jsonl"
        outcome = run_cli([
            *_export(analyzed[1], review), "--include-dt-en"])
        assert outcome.exit_code == 0, outcome.stderr
        header, *lines = review.read_text(encoding="utf-8").splitlines()
        header, kept = edit(json.loads(header), lines)
        review.write_text("\n".join([json.dumps(header)] + kept) + "\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        out.write_bytes(b"earlier output")
        outcome = run_cli([
            "review", "apply", "--results", str(analyzed[1]),
            "--review", str(review), "--out", str(out)])
        assert_fatal(outcome, message.format(count=len(lines)))
        assert out.read_bytes() == b"earlier output"


def _not_utf8(path):
    """path/\\xff as a str, the way Python decodes such a name."""
    return os.fsdecode(os.fsencode(path) + b"/\xff")


def _surrogate_platform_manifest(tmp_path, corpus_dir):
    argv = _manifest_edit(lambda manifest: {**manifest, "entries": [
        {**manifest["entries"][0], "platform": "x\udcff"},
        *manifest["entries"][1:]]})(tmp_path, None)
    return argv, 2, "stderr", (
        f"error: cannot write {tmp_path / 'r.json'}: "
        "surrogates not allowed: '\\udcff'\n")


def _surrogate_platform_assessment(tmp_path, corpus_dir):
    path = corpus_dir / "assessments" / "bluesky.json"
    assessment = {**json.loads(path.read_text()), "platform": "x\udcff"}
    path = _bytes_file(tmp_path, json.dumps(assessment).encode())
    return ["assess", "validate", "--file", str(path)], 0, "stdout", (
        "ok: x\\udcff\n")


def _out_dir_not_utf8(tmp_path, corpus_dir):
    out_dir = _not_utf8(tmp_path)
    os.mkdir(out_dir)
    out = os.path.join(out_dir, "r.json")
    return ["analyze", "--corpus", str(corpus_dir), "--out", out], 0, \
        "stdout", (f"analyzed 13 platform(s), 0 failure(s) -> {tmp_path}/"
                   "\\udcff/r.json\n")


def _argument_not_utf8(tmp_path, corpus_dir):
    return ["analyze", "--corpus", str(corpus_dir), "--out",
            str(tmp_path / "r.json"), _not_utf8(tmp_path)], 2, "stderr", (
        f"tosaudit: error: unrecognized arguments: {tmp_path}/\\udcff\n")


class TestUnencodableText:
    """Text UTF-8 cannot encode, a lone surrogate from a JSON escape or
    from a file name that is not UTF-8, is printed as a backslash
    escape, never a traceback. Fresh processes, with real argv and
    stdout."""

    @pytest.mark.parametrize("case", [
        _surrogate_platform_manifest, _surrogate_platform_assessment,
        _out_dir_not_utf8, _argument_not_utf8,
    ], ids=["manifest_platform", "assessment_platform", "out_dir",
            "argument"])
    def test_escaped(self, fixture_corpus, tmp_path, case):
        argv, code, stream, line = case(tmp_path, fixture_corpus)
        completed = subprocess.run(
            [sys.executable, "-m", "tosaudit.cli", *argv],
            capture_output=True, env=_env_with_src(), timeout=60)
        stdout, stderr = (completed.stdout.decode("utf-8"),
                          completed.stderr.decode("utf-8"))
        assert completed.returncode == code, stderr
        assert "Traceback" not in stderr
        assert {"stdout": stdout, "stderr": stderr}[stream].endswith(line)


def _in_corpus(relpath_of):
    """analyze on a fresh fixture corpus, and the path of the corpus
    file relpath_of(the first manifest entry) names."""
    def case(tmp_path, results_path):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        entry = json.loads(
            (corpus_dir / "manifest.json").read_text())["entries"][0]
        return ["analyze", "--corpus", str(corpus_dir),
                "--out", str(tmp_path / "r.json")], \
            corpus_dir / relpath_of(entry)
    return case


def _lexicon_input(tmp_path, results_path):
    corpus_dir = build_fixture_corpus(tmp_path / "corpus")
    lexdir = tmp_path / "lex"
    lexdir.mkdir()
    return ["analyze", "--corpus", str(corpus_dir), "--lexicons",
            str(lexdir), "--out", str(tmp_path / "r.json")], \
        lexdir / "vague_terms.json"


# Each kind of input file: (argv and the file's path, exit code).
INPUT_KINDS = {
    "payload": (_in_corpus(lambda entry: entry["payload_path"]), 1),
    "manifest": (_in_corpus(lambda entry: "manifest.json"), 2),
    "extraction_config": (
        _in_corpus(lambda entry: "extraction_config.json"), 2),
    "lexicon": (_lexicon_input, 2),
    "assessment": (
        _in_corpus(lambda entry: f"assessments/{entry['platform']}.json"), 1),
    "results": (lambda tmp, res: (_export(tmp / "input"), tmp / "input"), 2),
    "review": (lambda tmp, res: (
        _apply(res, tmp / "input", tmp), tmp / "input"), 2),
    "assess_validate_file": (lambda tmp, res: (
        ["assess", "validate", "--file", str(tmp / "input")],
        tmp / "input"), 2),
}

# Made at a path that does not exist. No process writes the FIFO.
SPECIAL_FILES = {
    "fifo": lambda path: os.mkfifo(path),
    "directory": os.mkdir,
    "devnull_symlink": lambda path: os.symlink(os.devnull, path),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
class TestSpecialInputFiles:
    """An input that is not a regular file never hangs a run or ends in
    a traceback. A FIFO reads as empty; a directory or a device is
    refused. Fresh processes with a timeout, so a hang fails the test."""

    @pytest.mark.parametrize("special", SPECIAL_FILES)
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_ends_with_its_exit_code(self, analyzed, tmp_path, kind,
                                     special):
        build, code = INPUT_KINDS[kind]
        argv, path = build(tmp_path, analyzed[1])
        path.unlink(missing_ok=True)
        SPECIAL_FILES[special](path)
        completed = subprocess.run(
            [sys.executable, "-m", "tosaudit.cli", *argv],
            capture_output=True, text=True, env=_env_with_src(), timeout=30)
        assert completed.returncode == code, completed.stderr
        line, = completed.stderr.splitlines()
        assert line.startswith("error: " if code == 2 else "failed ")
        if special != "fifo":
            assert line.endswith("not a regular file or a pipe"), line

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_review_from_a_pipe(self, analyzed, tmp_path):
        """--review /dev/fd/N, as from <(...) in a shell, gives the bytes
        that the same review read from a regular file gives."""
        _, results_path = analyzed
        review_path = tmp_path / "review.jsonl"
        assert run_cli(_export(results_path, review_path)).exit_code == 0
        header, *lines = review_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        next(r for r in records
             if r["auto_label"] == "specific")["human_label"] = "rejected"
        text = "\n".join([header] + [json.dumps(r) for r in records]) + "\n"
        review_path.write_text(text)
        from_file, from_pipe = tmp_path / "file.json", tmp_path / "pipe.json"
        outcome = run_cli(["review", "apply", "--results", str(results_path),
                           "--review", str(review_path),
                           "--out", str(from_file)])
        assert outcome.exit_code == 0, outcome.stderr
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as writer:
            try:
                child = subprocess.Popen(
                    [sys.executable, "-m", "tosaudit.cli", "review", "apply",
                     "--results", str(results_path),
                     "--review", f"/dev/fd/{read_end}",
                     "--out", str(from_pipe)],
                    pass_fds=(read_end,), stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, env=_env_with_src())
            finally:
                os.close(read_end)
            writer.write(text.encode())
        _, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr
        assert from_pipe.read_bytes() == from_file.read_bytes()
        assert from_file.read_bytes() != results_path.read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)
_DELETE = object()


def _mangled(valid):
    """valid bytes with one slice replaced by a few arbitrary bytes."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, len(valid)),
                     st.binary(max_size=8)).map(
        lambda cut: valid[:min(cut[:2])] + cut[2] + valid[max(cut[:2]):])


def _reshaped(docs):
    """The JSON documents docs, one per line, with one value deep inside
    one of them replaced by another JSON value or deleted."""
    choices = [(i, path) for i, doc in enumerate(docs)
               for path in list(value_paths(json.loads(doc)))[1:]]

    def reshape(choice, value):
        (i, path), lines = choice, list(docs)
        doc = json.loads(lines[i])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        lines[i] = json.dumps(doc).encode()
        return b"\n".join(lines)

    return st.builds(reshape, st.sampled_from(choices),
                     st.just(_DELETE) | _JSON_VALUES)


def _any_bytes(valid, docs=None):
    """Arbitrary bytes, valid with a slice mangled, a JSON value, or, for
    JSON docs (the lines of valid), docs with one inner value changed."""
    strategies = [st.binary(max_size=64), _mangled(valid),
                  _JSON_VALUES.map(lambda v: json.dumps(v).encode())]
    if docs:
        strategies.append(_reshaped(docs))
    return st.one_of(strategies)


def assert_clean_exit(argv):
    """Run argv: exit 0, 1 or 2, and on 2 one `error: ...` line with
    --out as it was; run_cli raises any uncaught exception."""
    out = Path(argv[argv.index("--out") + 1])
    before = out.read_bytes() if out.exists() else None
    outcome = run_cli(argv)
    assert outcome.exit_code in (0, 1, 2), outcome.stderr
    if outcome.exit_code == 2:
        assert outcome.stderr.startswith("error: ")
        assert outcome.stderr.count("\n") == 1, outcome.stderr
        assert outcome.stderr.endswith("\n")
        assert (out.read_bytes() if out.exists() else None) == before


# Every file that --lexicons reads; each falls back to the shipped one.
LEXICON_FILES = ("vague_terms.json", "data_types.json", "entities.json",
                 "retention.json", "sharing.json", "reader_groups.json",
                 "syllable_exceptions.txt")


def _stored_corpus(root, platforms, times=1):
    """A corpus of the fixture documents of platforms under root, each
    given times over."""
    from tosaudit import corpus
    manifest = corpus.new_manifest()
    for platform in platforms:
        media_kind, text = fixture_docs.DOCS[platform]
        payload = "\n\n".join([text] * times).encode("utf-8")
        entry = corpus.SnapshotEntry(
            platform=platform, source_url=f"https://example.org/{platform}",
            retrieved_at="2025-11-01T00:00:00Z",
            content_digest=corpus.digest_bytes(payload), payload_path="",
            media_kind=media_kind)
        manifest, _ = corpus.store_snapshot(manifest, entry, payload,
                                            str(root))
    return root


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two fixture platforms; enough for every analysis layer to run."""
    return _stored_corpus(tmp_path_factory.mktemp("small"),
                          ("bluesky", "reddit"))


@pytest.fixture(scope="module")
def html_corpus(tmp_path_factory):
    """A text and an HTML platform, and the fixture extraction config,
    whose one rule is the HTML platform's."""
    root = _stored_corpus(tmp_path_factory.mktemp("html"),
                          ("bluesky", "youtube"))
    (root / "extraction_config.json").write_text(
        json.dumps(fixture_docs.EXTRACTION_CONFIG, indent=2) + "\n",
        encoding="utf-8")
    return root


def _analyze_with_any(corpus_dir, tmp_path, data, name):
    """analyze a copy of corpus_dir in which file name holds any bytes."""
    valid = (corpus_dir / name).read_bytes()
    copy = tmp_path / "corpus"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(corpus_dir, copy)
    (copy / name).write_bytes(data.draw(_any_bytes(valid, [valid])))
    assert_clean_exit(["analyze", "--corpus", str(copy),
                       "--out", str(tmp_path / "r.json")])


class TestAnyBytes:
    """Arbitrary bytes in any input file never end in a traceback."""

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_results_file(self, analyzed, tmp_path, data):
        valid = analyzed[1].read_bytes()
        content = data.draw(_any_bytes(valid, [valid]))
        path = _bytes_file(tmp_path, content)
        for argv in (_table(path), _export(path)):
            assert_clean_exit(argv)

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_review_file(self, analyzed, tmp_path, data):
        valid = tmp_path / "valid.jsonl"
        if not valid.exists():
            run_cli(_export(analyzed[1], valid))
        lines = valid.read_bytes().splitlines()
        content = data.draw(_any_bytes(b"\n".join(lines), lines))
        path = _bytes_file(tmp_path, content, "review.jsonl")
        assert_clean_exit(_apply(analyzed[1], path, tmp_path))

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), name=st.sampled_from(LEXICON_FILES))
    def test_lexicon_file(self, small_corpus, tmp_path, data, name):
        valid = (_SHIPPED / name).read_bytes()
        content = data.draw(_any_bytes(
            valid, [valid] if name.endswith(".json") else None))
        lexdir = tmp_path / "lex"
        shutil.rmtree(lexdir, ignore_errors=True)
        lexdir.mkdir()
        (lexdir / name).write_bytes(content)
        assert_clean_exit([
            "analyze", "--corpus", str(small_corpus), "--lexicons",
            str(lexdir), "--out", str(tmp_path / "r.json")])

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_manifest_file(self, html_corpus, tmp_path, data):
        _analyze_with_any(html_corpus, tmp_path, data, "manifest.json")

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extraction_config_file(self, html_corpus, tmp_path, data):
        _analyze_with_any(html_corpus, tmp_path, data,
                          "extraction_config.json")


def _unreachable_after(argv):
    """How many unreachable objects a collection finds after argv ran
    with the collector off: the reference cycles the command left."""
    gc.collect()
    gc.disable()
    try:
        outcome = run_cli(argv)
        assert outcome.exit_code == 0, outcome.stderr
        return gc.collect()
    finally:
        gc.enable()


class TestCollector:
    """main runs each command with the cyclic garbage collector off and
    restores the caller's setting; no command builds cycles that grow
    with its input, which is why the collector can stay off. At exit,
    the heap is frozen, so the interpreter's last collection is empty."""

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("path", ["success", "failure", "fatal", "usage"])
    def test_callers_setting_is_restored(self, analyzed, tmp_path,
                                         collecting, path):
        corpus_dir, _ = analyzed
        # One platform, whose payload is gone: a failed platform.
        gone = _stored_corpus(tmp_path / "gone", ["bluesky"])
        [entry] = json.loads(
            (gone / "manifest.json").read_text(encoding="utf-8"))["entries"]
        (gone / entry["payload_path"]).unlink()
        argv, code = {
            "success": (["assess", "validate", "--file", str(next(
                (corpus_dir / "assessments").iterdir()))], 0),
            "failure": (["analyze", "--corpus", str(gone),
                         "--out", str(tmp_path / "r.json")], 1),
            "fatal": (["analyze", "--corpus", str(tmp_path / "none"),
                       "--out", str(tmp_path / "r.json")], 2),
            "usage": (["analyze", "--corpus"], 2),
        }[path]
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert run_cli(argv).exit_code == code
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_off_while_analyzing(self, fixture_corpus, tmp_path,
                                 monkeypatch, pooled):
        from tosaudit import pipeline
        log = tmp_path / "collector"
        entry_outcome = pipeline._entry_outcome

        def recorded(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {gc.isenabled()}\n")
            return entry_outcome(*args)

        monkeypatch.setattr(pipeline, "_entry_outcome", recorded)
        if pooled:
            force_pool(monkeypatch)
        assert gc.isenabled()
        outcome = run_cli(["analyze", "--corpus", str(fixture_corpus),
                           "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 0, outcome.stderr
        assert gc.isenabled()
        rows = [line.split() for line in log.read_text().splitlines()]
        assert len(rows) == len(fixture_docs.DOCS)
        assert {state for _, state in rows} == {"False"}
        in_parent = {pid for pid, _ in rows} == {str(os.getpid())}
        assert in_parent is not pooled

    def test_analyze_leaves_no_cycle_per_document(self, fixture_corpus,
                                                  tmp_path, monkeypatch):
        from tosaudit import pipeline
        # Serially, in this process, where a collection sees any cycle.
        monkeypatch.setattr(pipeline, "POOL_MIN_PAYLOAD_BYTES", sys.maxsize)
        larger = _stored_corpus(tmp_path / "larger", fixture_docs.DOCS, 4)
        out = ["--out", str(tmp_path / "r.json")]
        _unreachable_after(["analyze", "--corpus", str(fixture_corpus), *out])
        assert _unreachable_after(
            ["analyze", "--corpus", str(fixture_corpus), *out]) == \
            _unreachable_after(["analyze", "--corpus", str(larger), *out])

    def test_review_export_leaves_no_cycle_per_finding(self, analyzed,
                                                       tmp_path):
        _, results_path = analyzed
        payload = json.loads(results_path.read_text(encoding="utf-8"))
        assert len(payload["results"]) == 13
        one = tmp_path / "one.json"
        one.write_text(json.dumps({**payload,
                                   "results": payload["results"][:1]}))
        out = ["--out", str(tmp_path / "review.jsonl"), "--include-dt-en"]
        _unreachable_after(["review", "export", "--results", str(one), *out])
        assert _unreachable_after(
            ["review", "export", "--results", str(one), *out]) == \
            _unreachable_after(
                ["review", "export", "--results", str(results_path), *out])

    @pytest.mark.parametrize("argv", [
        ["assess", "validate", "--file", "{assessment}"],
        ["analyze", "--corpus", "{corpus}", "--out", "{out}"],
        ["analyze", "--corpus"]], ids=["validate", "analyze", "usage"])
    def test_process_exit_finds_the_heap_frozen(self, fixture_corpus,
                                                tmp_path, argv):
        """cli's atexit hook freezes the heap, so the interpreter's last
        collection has nothing to walk. A hook registered before cli is
        imported runs after cli's, as atexit runs them last in first out,
        and sees the frozen objects; on every exit path, a usage error's
        SystemExit too."""
        argv = [arg.format(
            assessment=fixture_corpus / "assessments" / "bluesky.json",
            corpus=fixture_corpus, out=tmp_path / "r.json") for arg in argv]
        probe = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "import tosaudit.cli\n"
            "tosaudit.cli.main(sys.argv[1:])\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == (2 if argv[-1] == "--corpus" else 0)
        label, count = completed.stdout.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0

    def test_main_in_process_freezes_nothing(self, fixture_corpus, tmp_path):
        """The freeze waits for the interpreter's exit: a caller of
        cli.main keeps a heap the collector can walk."""
        outcome = run_cli(["analyze", "--corpus", str(fixture_corpus),
                           "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 0, outcome.stderr
        assert gc.get_freeze_count() == 0


def _env_with_src():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(tosaudit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


# The modules a fresh `python -m tosaudit.cli analyze` imports; the CLI
# module itself runs as __main__.
ANALYZE_MODULES = {
    "tosaudit", "tosaudit.clarity", "tosaudit.corpus", "tosaudit.errors",
    "tosaudit.htmltext", "tosaudit.inputs", "tosaudit.interface_assess",
    "tosaudit.matching", "tosaudit.pipeline", "tosaudit.readability",
    "tosaudit.results", "tosaudit.specificity", "tosaudit.textprep",
}


class TestEntryPoint:
    def test_help(self):
        outcome = run_cli(["--help"])
        assert outcome.exit_code == 0
        for command in ("fetch", "analyze", "review", "assess", "report"):
            assert command in outcome.stdout

    @pytest.mark.parametrize("argv", [[], ["review"], ["assess"], ["report"]],
                             ids=["top", "review", "assess", "report"])
    def test_bare_command_prints_usage(self, argv):
        outcome = run_cli(argv)
        assert outcome.exit_code == 2
        assert outcome.stdout == ""
        assert outcome.stderr.startswith(
            "usage: " + " ".join(["tosaudit", *argv]) + " ")
        assert "the following arguments are required: COMMAND" \
            in outcome.stderr

    def test_cold_import_needs_only_the_stdlib(self):
        """Importing the CLI loads no third-party module.

        Nor does it load http.client (with email and ssl): only fetch
        makes a request, so only fetch pays for importing it. Nor the
        stdlib HTML parser: htmltext tokenizes markup itself.
        """
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import tosaudit.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "unwanted = ['http.client', 'html.parser', '_markupbase']\n"
            "print(json.dumps([sorted(new - set(sys.stdlib_module_names)),\n"
            "                  [m for m in unwanted if m in sys.modules]]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        third_party, unwanted = json.loads(completed.stdout)
        assert set(third_party) <= {"tosaudit"}
        assert unwanted == []

        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["dependencies"] == []

    def test_importtime_lists_each_module_analyze_loads(self, fixture_corpus,
                                                        tmp_path):
        """`-X importtime` reports every submodule the package loads on
        first use, so none of them shows as its importer's self time."""
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "tosaudit.cli",
             "analyze", "--corpus", str(fixture_corpus),
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        listed = {line.rsplit("|", 1)[1].strip()
                  for line in completed.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {m for m in listed if m.split(".")[0] == "tosaudit"} \
            == ANALYZE_MODULES

    def test_small_analyze_loads_no_multiprocessing(self, tmp_path):
        """Below the pool's size floor, analyze runs without multiprocessing.

        Neither the import nor the run of a small corpus pays for it.
        """
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        probe = (
            "import json, sys\n"
            "import tosaudit.cli\n"
            "imported = 'multiprocessing' in sys.modules\n"
            "tosaudit.cli.main(sys.argv[1:])\n"
            "print(json.dumps([imported, 'multiprocessing' in sys.modules]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe, "analyze", "--corpus",
             str(corpus_dir), "--out", str(tmp_path / "results.json")],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert "analyzed 13 platform(s), 0 failure(s)" in completed.stdout
        loaded = json.loads(completed.stdout.splitlines()[-1])
        assert loaded == [False, False]

    def test_pooled_analyze_loads_no_multiprocessing(self, tmp_path):
        """With the pool forced on, analyze forks its own workers: it
        loads no executor, and pickle only for a worker's exception."""
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        probe = (
            "import json, os, sys\n"
            "from tosaudit import cli, pipeline\n"
            "pipeline.POOL_MIN_PAYLOAD_BYTES = 0\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks = []\n"
            "fork = os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "cli.main(sys.argv[1:])\n"
            "unwanted = ['multiprocessing', 'concurrent.futures', 'pickle']\n"
            "print(json.dumps([len(forks),\n"
            "                  [m for m in unwanted if m in sys.modules]]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe, "analyze", "--corpus",
             str(corpus_dir), "--out", str(tmp_path / "results.json")],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert "analyzed 13 platform(s), 0 failure(s)" in completed.stdout
        assert json.loads(completed.stdout.splitlines()[-1]) == [2, []]

    def test_analyze_without_site_loads_no_path_or_url_module(self, tmp_path):
        """Under -S, where no site hook imports them first, analyze
        loads neither importlib.resources, pathlib nor urllib.parse:
        shipped data is found by path, and only fetch parses a URL."""
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        probe = (
            "import json, sys\n"
            "import tosaudit.cli\n"
            "tosaudit.cli.main(sys.argv[1:])\n"
            "unwanted = ['importlib.resources', 'pathlib', 'urllib.parse']\n"
            "print(json.dumps([m for m in unwanted if m in sys.modules]))\n")
        completed = subprocess.run(
            [sys.executable, "-S", "-c", probe, "analyze", "--corpus",
             str(corpus_dir), "--out", str(tmp_path / "results.json")],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert "analyzed 13 platform(s), 0 failure(s)" in completed.stdout
        assert json.loads(completed.stdout.splitlines()[-1]) == []

    @pytest.mark.parametrize("command",
                             ["analyze", "export", "apply", "validate"])
    def test_command_loads_only_its_layers(self, analyzed, tmp_path,
                                           command):
        """A fresh process of each command imports only what it runs.

        analyze loads no report writer; the review commands load none of
        the text-analysis layers either, and assess validate loads
        neither those nor the results layer. No command loads
        dataclasses or inspect, which the records do not need, or
        datetime, which only stamps fetched snapshots.
        """
        corpus_dir, results_path = analyzed
        argv = {
            "analyze": ["analyze", "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "r.json")],
            "export": _export(results_path, tmp_path / "review.jsonl"),
            "apply": _apply(results_path, _review_file(tmp_path), tmp_path),
            "validate": ["assess", "validate", "--file",
                         str(corpus_dir / "assessments" / "bluesky.json")],
        }[command]
        unwanted = ["tosaudit.report", "tosaudit.svg", "csv", "dataclasses",
                    "inspect", "datetime"]
        if command != "analyze":
            unwanted += [f"tosaudit.{name}" for name in (
                "htmltext", "textprep", "matching", "clarity", "readability",
                "corpus")]
        if command in ("export", "apply"):
            unwanted.append("tosaudit.interface_assess")
        if command == "validate":
            unwanted += ["tosaudit.specificity", "tosaudit.results",
                         "tosaudit.pipeline"]
        probe = (
            "import json, sys\n"
            "import tosaudit.cli\n"
            "tosaudit.cli.main(sys.argv[2:])\n"
            "print(json.dumps([m for m in json.loads(sys.argv[1])\n"
            "                  if m in sys.modules]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(unwanted), *argv],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout.splitlines()[-1]) == []

    def test_package_imports_no_submodule(self):
        """`import tosaudit` loads no `tosaudit.*` module, and the package
        namespace holds no analysis name: each is imported from its
        submodule."""
        probe = (
            "import json, sys\n"
            "import tosaudit\n"
            "print(json.dumps([\n"
            "    [m for m in sys.modules if m.startswith('tosaudit.')],\n"
            "    sorted(vars(tosaudit))]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        loaded, names = json.loads(completed.stdout)
        assert loaded == []
        assert names == [
            "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
            "__name__", "__package__", "__path__", "__spec__", "__version__"]

    def test_report_choices_match_report(self):
        from tosaudit import report
        assert (cli.TABLE_KINDS, cli.FORMATS, cli.FIGURE_KINDS) == (
            report.TABLE_KINDS, report.FORMATS, report.FIGURE_KINDS)

    def test_console_script_installed(self):
        """The packaging gives a working `tosaudit` console script.

        The entry point declared in pyproject.toml must load `cli.main` and
        run the way an installed wrapper runs it. Where the distribution is
        installed, the wrapper must also be on PATH with that entry point.
        """
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            declared = tomllib.load(handle)["project"]["scripts"]["tosaudit"]

        entry_point = importlib.metadata.EntryPoint(
            name="tosaudit", value=declared, group="console_scripts")
        assert entry_point.load() is cli.main

        completed = subprocess.run(
            [sys.executable, "-c", _CONSOLE_WRAPPER, declared, "--help"],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        for command in ("fetch", "analyze", "review", "assess", "report"):
            assert command in completed.stdout

        try:
            dist = importlib.metadata.distribution("tosaudit")
        except importlib.metadata.PackageNotFoundError:
            return
        assert shutil.which("tosaudit") is not None
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed.get("tosaudit") == declared


def readme_command_lines():
    """Each `tosaudit ...` line of the README's sh blocks, split into words."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return [line.split("#")[0].split()
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("tosaudit ")]


def _subcommands(parser):
    """Name -> parser of each subcommand of an argparse parser."""
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def _command_paths(parser, path=()):
    """The words naming each command and command group, top level first."""
    yield list(path)
    for name, sub in _subcommands(parser).items():
        yield from _command_paths(sub, path + (name,))


def readme_commands():
    """(command path, its parser, the options given) per README line."""
    commands = []
    for words in readme_command_lines():
        parser, path, args = cli._parser("tosaudit"), [], words[1:]
        while subcommands := _subcommands(parser):
            assert args and args[0] in subcommands, words
            path.append(args.pop(0))
            parser = subcommands[path[-1]]
        commands.append(
            (path, parser, [a for a in args if a.startswith("-")]))
    return commands


class TestReadme:
    def test_commands_match_cli(self):
        commands = readme_commands()
        for path, parser, options in commands:
            known = {o for a in parser._actions for o in a.option_strings}
            unknown = [o for o in options if o not in known]
            assert not unknown, f"{' '.join(path)}: unknown {unknown}"
        used = {name for path, _, _ in commands for name in path}
        for path in _command_paths(cli._parser("tosaudit")):
            assert set(path) <= used, path

    def test_library_example_runs(self, tmp_path, monkeypatch, capsys):
        """README's library quick start runs on a fixture document saved
        as terms.txt, here, so a file it leaves open fails it, and its
        one scan per sentence gives what analyze_entry gives."""
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("## Quick start (library)\n", 1)[1]
        block, = re.findall(r"\A\s*```python\n(.*?)```", section, re.S)
        (tmp_path / "terms.txt").write_text(
            fixture_docs.DOCS["reddit"][1], encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        names = {}
        exec(compile(block, "README.md", "exec"), names)
        assert len(capsys.readouterr().out.splitlines()) == 4
        record = names["record"]
        assert names["report"]._asdict() == record["clarity"]
        assert names["findings"] == record["specificity"]["findings"]

    @pytest.mark.parametrize("command", _command_paths(cli._parser("tosaudit")),
                             ids=lambda command: "-".join(command) or "top")
    def test_help_lists_readme_options(self, command):
        """`--help` in a fresh interpreter exits 0 and names each
        subcommand and each option that the README's lines use."""
        completed = subprocess.run(
            [sys.executable, "-m", "tosaudit.cli", *command, "--help"],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith(
            "usage: " + " ".join(["tosaudit", *command]) + " ")
        depth = len(command)
        expected = set()
        for path, _, options in readme_commands():
            if path[:depth] == command:
                expected |= {path[depth]} if len(path) > depth else {*options}
        assert expected
        missing = [word for word in expected if word not in completed.stdout]
        assert not missing, missing
