import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

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
        assert_fatal(outcome, "cannot read assessment file")


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


class TestEntryPoint:
    def test_help(self, runner):
        outcome = runner.invoke(main, ["--help"])
        assert outcome.exit_code == 0
        for command in ("fetch", "analyze", "review", "assess", "report"):
            assert command in outcome.output

    def test_console_script_installed(self):
        """The packaging gives a working `tosaudit` console script.

        The entry point declared in pyproject.toml must load `cli.main` and
        run the way an installed wrapper runs it. Where the distribution is
        installed, the wrapper must also be on PATH with that entry point.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            declared = tomllib.load(handle)["project"]["scripts"]["tosaudit"]

        entry_point = importlib.metadata.EntryPoint(
            name="tosaudit", value=declared, group="console_scripts")
        assert entry_point.load() is main

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(tosaudit.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", _CONSOLE_WRAPPER, declared, "--help"],
            capture_output=True, text=True, env=env, timeout=60)
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
