import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import fixture_docs
import tosaudit
from conftest import build_fixture_corpus
from tosaudit.cli import main

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


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def assert_fatal(outcome, message):
    """Exit 2 with `error: ...` on stderr, not an uncaught exception."""
    assert outcome.exit_code == 2, outcome.output
    assert isinstance(outcome.exception, SystemExit)
    assert "Traceback" not in outcome.stderr
    assert outcome.stderr.startswith("error: ")
    assert message in outcome.stderr


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory, runner):
    """A corpus analyzed once via the CLI; returns (corpus_dir, results_path)."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = build_fixture_corpus(root / "corpus")
    results_path = root / "results.json"
    outcome = runner.invoke(main, [
        "analyze", "--corpus", str(corpus_dir), "--out", str(results_path)])
    assert outcome.exit_code == 0, outcome.output
    return corpus_dir, results_path


class TestAnalyze:
    def test_success_message(self, analyzed, runner):
        corpus_dir, _ = analyzed
        with runner.isolated_filesystem():
            outcome = runner.invoke(main, [
                "analyze", "--corpus", str(corpus_dir),
                "--out", "results.json"])
            assert outcome.exit_code == 0
            assert "analyzed 13 platform(s), 0 failure(s)" in outcome.output
            payload = json.load(open("results.json"))
        assert len(payload["results"]) == 13
        assert payload["failures"] == []

    def test_missing_manifest_is_fatal(self, runner, tmp_path):
        outcome = runner.invoke(main, [
            "analyze", "--corpus", str(tmp_path),
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 2
        assert "error: manifest not found" in outcome.output

    def test_document_failure_exits_one(self, runner, tmp_path):
        from tosaudit import corpus
        payload = b"   \n \t "
        entry = corpus.SnapshotEntry(
            platform="blank", source_url="https://example.org/blank",
            retrieved_at="2025-11-01T00:00:00Z",
            content_digest=corpus.digest_bytes(payload),
            payload_path="", media_kind="plain_text")
        corpus.store_snapshot(corpus.new_manifest(), entry, payload,
                              str(tmp_path))
        outcome = runner.invoke(main, [
            "analyze", "--corpus", str(tmp_path),
            "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 1
        assert "failed blank: degenerate document" in outcome.output
        # the results file is still written, with the failure recorded
        saved = json.load(open(tmp_path / "r.json"))
        assert saved["failures"] == [
            {"platform": "blank", "error": "degenerate document"}]

    @pytest.mark.parametrize("content, message", [
        ("{broken", "malformed extraction config"),
        ('["main"]', "extraction_config.json is not a JSON object"),
        ('{"youtube": "main"}', "rule for 'youtube' must be a list"),
        ('{"youtube": {"include": ["div > p"]}}',
         "unsupported selector: 'div > p' for 'youtube'"),
    ], ids=["malformed", "not_an_object", "rule_not_list_or_object",
            "unsupported_selector"])
    def test_bad_extraction_config_is_fatal(self, runner, tmp_path,
                                            content, message):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        (corpus_dir / "extraction_config.json").write_text(content)
        outcome = runner.invoke(main, [
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
    def test_bad_lexicon_phrase_is_fatal(self, runner, tmp_path, terms,
                                         message):
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        (lexdir / "vague_terms.json").write_text(
            json.dumps({"version": 1, "terms": terms}))
        outcome = runner.invoke(main, [
            "analyze", "--corpus", str(corpus_dir), "--lexicons", str(lexdir),
            "--out", str(tmp_path / "r.json")])
        assert_fatal(outcome, message)


class TestFetch:
    def test_fetch_with_config(self, runner, http_base, tmp_path):
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
        outcome = runner.invoke(main, [
            "fetch", "--config", str(config_path),
            "--corpus", str(corpus_dir)])
        assert outcome.exit_code == 0, outcome.output
        assert outcome.output.count(": stored") == 13
        assert (corpus_dir / "manifest.json").exists()

    def test_fetch_error_exits_one(self, runner, http_base, tmp_path):
        config = {
            "request_delay_s": 0,
            "platforms": [
                {"platform": "ghost", "url": f"{http_base}/tos/ghost-x"}],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        outcome = runner.invoke(main, [
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "corpus")])
        assert outcome.exit_code == 1
        assert "ghost: error" in outcome.output

    def test_missing_config_is_fatal(self, runner, tmp_path):
        outcome = runner.invoke(main, [
            "fetch", "--config", str(tmp_path / "nope.json"),
            "--corpus", str(tmp_path / "corpus")])
        assert outcome.exit_code == 2
        assert "error: corpus config not found" in outcome.output

    def test_platform_entry_without_platform_is_fatal(self, runner,
                                                      http_base, tmp_path):
        # The shape an earlier README showed: "name" instead of "platform".
        config = {"request_delay_s": 0, "platforms": [
            {"name": "example", "url": f"{http_base}/tos/reddit"}]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        outcome = runner.invoke(main, [
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "corpus")])
        assert_fatal(outcome, "corpus config platforms[0]")
        assert not (tmp_path / "corpus").exists()

    def test_unwritable_corpus_is_fatal(self, runner, http_base, tmp_path):
        config = {"request_delay_s": 0, "platforms": [
            {"platform": "bluesky", "url": f"{http_base}/tos/bluesky"}]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        (tmp_path / "afile").write_text("")
        outcome = runner.invoke(main, [
            "fetch", "--config", str(config_path),
            "--corpus", str(tmp_path / "afile" / "sub")])
        assert_fatal(outcome, "cannot write")


class TestReview:
    def test_export_and_apply(self, analyzed, runner, tmp_path):
        _, results_path = analyzed
        review_path = tmp_path / "review.jsonl"
        outcome = runner.invoke(main, [
            "review", "export", "--results", str(results_path),
            "--out", str(review_path)])
        assert outcome.exit_code == 0
        assert "exported 42 finding(s)" in outcome.output

        lines = review_path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            if rec["platform"] == "reddit" and rec["detector"] == "sharing" \
                    and rec["auto_label"] == "specific":
                rec["human_label"] = "rejected"
        review_path.write_text("\n".join(
            [lines[0]] + [json.dumps(r) for r in records]) + "\n")

        out_path = tmp_path / "revised.json"
        outcome = runner.invoke(main, [
            "review", "apply", "--results", str(results_path),
            "--review", str(review_path), "--out", str(out_path)])
        assert outcome.exit_code == 0
        assert "applied review" in outcome.output
        revised = json.load(open(out_path))
        reddit = next(r for r in revised["results"]
                      if r["platform"] == "reddit")
        assert reddit["specificity"]["auto"]["counts"]["ss"] == 2
        assert reddit["specificity"]["post_review"]["counts"]["ss"] == 0

    def test_apply_unmatched_platform_is_fatal(self, analyzed, runner,
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
        outcome = runner.invoke(main, [
            "review", "apply", "--results", str(results_path),
            "--review", str(review_path),
            "--out", str(tmp_path / "revised.json")])
        assert outcome.exit_code == 2
        assert "unmatched review record" in outcome.output

    def test_empty_review_is_noop(self, analyzed, runner, tmp_path):
        _, results_path = analyzed
        review_path = tmp_path / "review.jsonl"
        review_path.write_text(json.dumps(
            {"record_type": "header", "format": "tosaudit-review",
             "version": 1, "finding_count": 0}) + "\n")
        out_path = tmp_path / "revised.json"
        outcome = runner.invoke(main, [
            "review", "apply", "--results", str(results_path),
            "--review", str(review_path), "--out", str(out_path)])
        assert outcome.exit_code == 0, outcome.output
        assert out_path.read_bytes() == results_path.read_bytes()

    def test_export_missing_results_is_fatal(self, runner, tmp_path):
        outcome = runner.invoke(main, [
            "review", "export", "--results", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "review.jsonl")])
        assert outcome.exit_code == 2
        assert "error: results not found" in outcome.output


class TestAssess:
    def test_validate_ok(self, analyzed, runner):
        corpus_dir, _ = analyzed
        path = corpus_dir / "assessments" / "bluesky.json"
        outcome = runner.invoke(main, [
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 0
        assert outcome.output == "ok: bluesky\n"

    def test_validate_invalid(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"platform": "demo", "explicit_denial": 9, "evidence": []}))
        outcome = runner.invoke(main, [
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 1
        assert "invalid: explicit_denial: score 9 out of range 0..2" \
            in outcome.output

    def test_validate_malformed_is_fatal(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        outcome = runner.invoke(main, [
            "assess", "validate", "--file", str(path)])
        assert outcome.exit_code == 2
        assert "error: malformed assessment file" in outcome.output

    def test_validate_missing_file_is_fatal(self, runner, tmp_path):
        outcome = runner.invoke(main, [
            "assess", "validate", "--file", str(tmp_path / "absent.json")])
        assert_fatal(outcome, "assessment not found")


class TestReport:
    def test_table(self, analyzed, runner, tmp_path):
        _, results_path = analyzed
        out = tmp_path / "clarity.csv"
        outcome = runner.invoke(main, [
            "report", "table", "--results", str(results_path),
            "--kind", "clarity", "--format", "csv", "--out", str(out)])
        assert outcome.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("platform,word_count")
        assert len(lines) == 14

    def test_figure_with_svg(self, analyzed, runner, tmp_path):
        _, results_path = analyzed
        out = tmp_path / "fig.json"
        svg = tmp_path / "fig.svg"
        outcome = runner.invoke(main, [
            "report", "figure", "--results", str(results_path),
            "--kind", "words_vs_sentences", "--out", str(out),
            "--svg", str(svg)])
        assert outcome.exit_code == 0
        records = json.load(open(out))
        assert len(records) == 13
        assert svg.read_text().startswith("<svg")

    def test_bad_kind_rejected_by_click(self, analyzed, runner, tmp_path):
        _, results_path = analyzed
        outcome = runner.invoke(main, [
            "report", "table", "--results", str(results_path),
            "--kind", "mystery", "--format", "csv",
            "--out", str(tmp_path / "x.csv")])
        assert outcome.exit_code == 2
        assert "Invalid value" in outcome.output

    def test_missing_results_is_fatal(self, runner, tmp_path):
        outcome = runner.invoke(main, [
            "report", "table", "--results", str(tmp_path / "nope.json"),
            "--kind", "clarity", "--format", "csv",
            "--out", str(tmp_path / "x.csv")])
        assert outcome.exit_code == 2
        assert "error: results not found" in outcome.output


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


def _sharing_with(**fields):
    shipped = json.loads(
        (_SHIPPED / "sharing.json").read_text(encoding="utf-8"))
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
    "export_results_list": (
        lambda tmp, res: _export(_bytes_file(tmp, b"[]")),
        2, "is not a JSON object"),
    "export_result_missing_specificity": (
        lambda tmp, res: _export(
            _results_with(res, tmp, _drop_block("specificity"))),
        2, "malformed results file"),
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
            "sharing.json", _sharing_with(sharing_verbs="share")),
        2, "sharing.sharing_verbs: must be a list of non-empty strings"),
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
    "payload_path_is_directory": (
        _manifest_edit(lambda manifest: {**manifest, "entries": [
            {**manifest["entries"][0], "payload_path": "payloads"}]}),
        1, "cannot read payload"),
}


class TestFailClosed:
    @pytest.mark.parametrize("case", FAIL_CLOSED_CASES)
    def test_bad_input(self, analyzed, runner, tmp_path, case):
        build, code, message = FAIL_CLOSED_CASES[case]
        outcome = runner.invoke(main, build(tmp_path, analyzed[1]))
        if code == 2:
            assert_fatal(outcome, message)
        else:
            assert outcome.exit_code == code, outcome.output
            assert outcome.exception is None or isinstance(
                outcome.exception, SystemExit)
            assert message in outcome.stderr

    def test_analyze_out_checked_before_the_run(self, runner, tmp_path,
                                                monkeypatch):
        def run_pipeline(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(tosaudit.pipeline, "run_pipeline", run_pipeline)
        out = tmp_path / "missing" / "r.json"
        outcome = runner.invoke(main, [
            "analyze", "--corpus", str(tmp_path), "--out", str(out)])
        assert_fatal(outcome, f"cannot write {out}")


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


def _paths(node, path=()):
    """Key paths of every value inside a parsed JSON document."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, path + (key,))


def _reshaped(docs):
    """The JSON documents docs, one per line, with one value deep inside
    one of them replaced by another JSON value or deleted."""
    choices = [(i, path) for i, doc in enumerate(docs)
               for path in list(_paths(json.loads(doc)))[1:]]

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


def assert_clean_exit(outcome):
    """Exit 0, 1 or 2, `error: ...` on 2, and no uncaught exception."""
    assert outcome.exit_code in (0, 1, 2), outcome.output
    assert outcome.exception is None or isinstance(
        outcome.exception, SystemExit), repr(outcome.exception)
    if outcome.exit_code == 2:
        assert outcome.stderr.startswith("error: ")


# Every file that --lexicons reads; each falls back to the shipped one.
LEXICON_FILES = ("vague_terms.json", "data_types.json", "entities.json",
                 "retention.json", "sharing.json", "reader_groups.json",
                 "syllable_exceptions.txt")


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two fixture platforms; enough for every analysis layer to run."""
    from tosaudit import corpus
    root = tmp_path_factory.mktemp("small")
    manifest = corpus.new_manifest()
    for platform in ("bluesky", "reddit"):
        media_kind, text = fixture_docs.DOCS[platform]
        payload = text.encode("utf-8")
        entry = corpus.SnapshotEntry(
            platform=platform, source_url=f"https://example.org/{platform}",
            retrieved_at="2025-11-01T00:00:00Z",
            content_digest=corpus.digest_bytes(payload), payload_path="",
            media_kind=media_kind)
        manifest, _ = corpus.store_snapshot(manifest, entry, payload,
                                            str(root))
    return root


class TestAnyBytes:
    """Arbitrary bytes in any input file never end in a traceback."""

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_results_file(self, analyzed, runner, tmp_path, data):
        valid = analyzed[1].read_bytes()
        content = data.draw(_any_bytes(valid, [valid]))
        path = _bytes_file(tmp_path, content)
        for argv in (_table(path), _export(path)):
            assert_clean_exit(runner.invoke(main, argv))

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_review_file(self, analyzed, runner, tmp_path, data):
        valid = tmp_path / "valid.jsonl"
        if not valid.exists():
            runner.invoke(main, _export(analyzed[1], valid))
        lines = valid.read_bytes().splitlines()
        content = data.draw(_any_bytes(b"\n".join(lines), lines))
        path = _bytes_file(tmp_path, content, "review.jsonl")
        assert_clean_exit(runner.invoke(
            main, _apply(analyzed[1], path, tmp_path)))

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), name=st.sampled_from(LEXICON_FILES))
    def test_lexicon_file(self, small_corpus, runner, tmp_path, data, name):
        valid = (_SHIPPED / name).read_bytes()
        content = data.draw(_any_bytes(
            valid, [valid] if name.endswith(".json") else None))
        lexdir = tmp_path / "lex"
        shutil.rmtree(lexdir, ignore_errors=True)
        lexdir.mkdir()
        (lexdir / name).write_bytes(content)
        assert_clean_exit(runner.invoke(main, [
            "analyze", "--corpus", str(small_corpus), "--lexicons",
            str(lexdir), "--out", str(tmp_path / "r.json")]))


def _env_with_src():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(tosaudit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_help(self, runner):
        outcome = runner.invoke(main, ["--help"])
        assert outcome.exit_code == 0
        for command in ("fetch", "analyze", "review", "assess", "report"):
            assert command in outcome.output

    def test_cold_import_needs_only_click(self):
        """Importing the CLI loads no third-party module but click.

        Nor does it load http.client (with email and ssl): only fetch
        makes a request, so only fetch pays for importing it.
        """
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import tosaudit.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps([sorted(new - set(sys.stdlib_module_names)),\n"
            "                  'http.client' in sys.modules]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        third_party, http_client_loaded = json.loads(completed.stdout)
        assert set(third_party) <= {"click", "tosaudit"}
        assert not http_client_loaded

        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["dependencies"] == ["click>=8.0"]

    def test_small_analyze_loads_no_multiprocessing(self, tmp_path):
        """Below the pool's size floor, analyze runs without multiprocessing.

        Neither the import nor the run of a small corpus pays for it.
        """
        corpus_dir = build_fixture_corpus(tmp_path / "corpus")
        probe = (
            "import json, sys\n"
            "import tosaudit.cli\n"
            "imported = 'multiprocessing' in sys.modules\n"
            "tosaudit.cli.main(sys.argv[1:], standalone_mode=False)\n"
            "print(json.dumps([imported, 'multiprocessing' in sys.modules]))\n")
        completed = subprocess.run(
            [sys.executable, "-c", probe, "analyze", "--corpus",
             str(corpus_dir), "--out", str(tmp_path / "results.json")],
            capture_output=True, text=True, env=_env_with_src(), timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert "analyzed 13 platform(s), 0 failure(s)" in completed.stdout
        loaded = json.loads(completed.stdout.splitlines()[-1])
        assert loaded == [False, False]

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
        assert entry_point.load() is main

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


class TestReadme:
    def test_commands_match_cli(self):
        lines = readme_command_lines()
        used = set()
        for words in lines:
            command, args = main, words[1:]
            while isinstance(command, click.Group):
                assert args and args[0] in command.commands, words
                name = args.pop(0)
                used.add(name)
                command = command.commands[name]
            options = {o for p in command.params for o in p.opts} | {"--help"}
            unknown = [a for a in args if a.startswith("-") and a not in options]
            assert not unknown, f"{' '.join(words)}: unknown {unknown}"
        assert set(main.commands) <= used
