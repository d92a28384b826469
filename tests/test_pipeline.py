import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fixture_docs
from conftest import build_fixture_corpus, store_assessment
from test_golden import RESULTS_SHA256
from tosaudit import (
    clarity, corpus, interface_assess, pipeline, specificity, textprep,
)
from tosaudit.errors import ReviewError, TosAuditError
from tosaudit.inputs import canonical_json
from tosaudit.pipeline import (
    apply_review_to_results, export_review_from_results,
    analyze_entry, load_results, results_payload, run_pipeline, save_results,
)
from tosaudit.results import (
    _specificity_block, encode_record, finding_from_dict,
)


def store_text(root, platform, text, media_kind="plain_text"):
    manifest = corpus.load_or_create_manifest(str(root))
    payload = text.encode("utf-8")
    entry = corpus.SnapshotEntry(
        platform=platform,
        source_url=f"https://example.org/{platform}/terms",
        retrieved_at="2025-11-01T00:00:00Z",
        content_digest=corpus.digest_bytes(payload),
        payload_path="",
        media_kind=media_kind,
    )
    corpus.store_snapshot(manifest, entry, payload, str(root))


def run_decoded(corpus_dir, **kwargs):
    """run_pipeline's (records, failures), with the records decoded."""
    records, failures = run_pipeline(str(corpus_dir), **kwargs)
    return [json.loads(r) for r in records], failures


def document_of(corpus_dir, platform):
    """The Document analyze_entry builds for one platform of a corpus."""
    manifest = corpus.load_manifest(str(corpus_dir / "manifest.json"))
    entry = manifest.entry_for(platform)
    payload = corpus.read_payload(str(corpus_dir), entry)
    ctx = pipeline.PipelineContext(corpus_dir=str(corpus_dir))
    return analyze_entry(entry, payload, ctx).document


class TestFullRun:
    def test_thirteen_results_no_failures(self, run_payload):
        assert run_payload["failures"] == []
        assert [r["platform"] for r in run_payload["results"]] == \
            list(fixture_docs.PLATFORMS)

    def test_auto_counts_match_expected(self, results_by_platform):
        keys = ("dt", "en", "re_explicit", "re_vague", "sg", "ss")
        got = {
            p: tuple(r["specificity"]["auto"]["counts"][k] for k in keys)
            for p, r in results_by_platform.items()
        }
        assert got == fixture_docs.EXPECTED_AUTO

    def test_post_equals_auto_before_review(self, run_payload):
        for r in run_payload["results"]:
            auto = r["specificity"]["auto"]
            post = r["specificity"]["post_review"]
            assert post["counts"] == auto["counts"]
            assert post["scores"]["composite"] == auto["scores"]["composite"]
            assert auto["scores"]["stage"] == "auto"
            assert post["scores"]["stage"] == "post_review"

    def test_interface_attached_everywhere(self, run_payload):
        for r in run_payload["results"]:
            assert r["interface"] is not None
            assert r["interface"]["explicit_denial"] == 1
            assert r["interface"]["reversibility_cue"] == 1

    def test_html_boilerplate_stripped(self, fixture_corpus):
        instagram = document_of(fixture_corpus, "instagram").text
        assert "analyticsBootstrap" not in instagram
        assert "Cookies Policy" not in instagram
        youtube = document_of(fixture_corpus, "youtube").text
        assert "Premium" not in youtube
        assert "comments" not in youtube

    def test_source_digests_match_manifest(self, fixture_corpus,
                                           results_by_platform):
        manifest = corpus.load_manifest(str(fixture_corpus / "manifest.json"))
        for entry in manifest.entries:
            assert results_by_platform[entry.platform]["source_digest"] == \
                entry.content_digest

    def test_coverage_keys(self, run_payload):
        for r in run_payload["results"]:
            coverage = r["specificity"]["coverage"]
            assert set(coverage) == \
                {"data_type", "entity", "retention", "sharing"}
            assert all(0.0 <= v <= 1.0 for v in coverage.values())

    def test_fluency_groups(self, results_by_platform):
        fluency = results_by_platform["bluesky"]["fluency"]
        assert set(fluency) == {"child_oral", "adult_oral", "adult_silent"}
        wc = results_by_platform["bluesky"]["doc_stats"]["word_count"]
        adult = fluency["adult_oral"]
        assert adult["minutes_low"] == pytest.approx(wc / 183)
        assert adult["minutes_high"] == pytest.approx(wc / 183)


class TestFailureModes:
    def test_degenerate_document_is_failure(self, tmp_path):
        store_text(tmp_path, "blank", "   \n\n \t ")
        store_text(tmp_path, "fine", "This document is fine. It has words.")
        results, failures = run_decoded(tmp_path)
        assert [r["platform"] for r in results] == ["fine"]
        assert failures == [("blank", "degenerate document")]

    def test_invalid_assessment_keeps_result(self, tmp_path):
        store_text(tmp_path, "demo", "A short document. Nothing special.")
        assessment = interface_assess.InterfaceAssessment(
            platform="demo", explicit_denial=1,
            evidence=[interface_assess.EvidenceRecord(
                metric="explicit_denial", excerpt="not in the document")])
        store_assessment(str(tmp_path / pipeline.ASSESSMENTS_DIR), assessment)
        results, failures = run_decoded(tmp_path)
        assert len(results) == 1
        assert results[0]["interface"] is None
        assert len(failures) == 1
        platform, message = failures[0]
        assert platform == "demo"
        assert message.startswith("invalid assessment:")
        assert "verbatim substring" in message

    @pytest.mark.parametrize("platform", ["someone-else", 5])
    def test_assessment_for_another_platform_fails(self, tmp_path, platform):
        build_fixture_corpus(tmp_path)
        path = tmp_path / pipeline.ASSESSMENTS_DIR / "bluesky.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**data, "platform": platform}),
                        encoding="utf-8")
        results, failures = run_decoded(tmp_path)
        by_platform = {r["platform"]: r for r in results}
        assert by_platform["bluesky"]["interface"] is None
        assert by_platform["reddit"]["interface"] is not None
        assert failures == [("bluesky", "invalid assessment: " + "; ".join(
            (["platform is not a string"] if platform == 5 else [])
            + [f"platform {platform!r} is not the document's 'bluesky'"]))]

    @pytest.mark.parametrize("content", [
        b"{broken", b"[1, 2]", b"\xff{}",
        b'{"platform": "demo", "evidence": [{"metric": "explicit_denial",'
        b' "excerpt": 5}]}',
    ], ids=["unparseable", "not_an_object", "not_utf8", "excerpt_not_text"])
    def test_bad_assessment_file_is_platform_failure(self, tmp_path,
                                                     content):
        store_text(tmp_path, "demo", "A short document. Nothing special.")
        store_text(tmp_path, "fine", "This document is fine. It has words.")
        adir = tmp_path / pipeline.ASSESSMENTS_DIR
        adir.mkdir()
        (adir / "demo.json").write_bytes(content)
        results, failures = run_decoded(tmp_path)
        assert [r["platform"] for r in results] == ["demo", "fine"]
        assert results[0]["interface"] is None
        assert len(failures) == 1
        platform, message = failures[0]
        assert platform == "demo"
        assert message.startswith("invalid assessment: malformed assessment")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(TosAuditError, match="manifest not found"):
            run_pipeline(str(tmp_path))

    def test_missing_lexicons_dir_raises(self, tmp_path):
        store_text(tmp_path, "demo", "Some words here.")
        with pytest.raises(TosAuditError, match="lexicon not found"):
            run_pipeline(str(tmp_path),
                         lexicons_dir=str(tmp_path / "no-such-dir"))

    def test_partial_lexicons_dir_falls_back(self, tmp_path):
        store_text(tmp_path, "demo",
                   "We may keep gizmos. We may share things.")
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        (lexdir / "vague_terms.json").write_text(json.dumps({
            "terms": [{"canonical": "gizmos",
                       "category": "scope_ambiguity", "variants": []}]}))
        results, failures = run_decoded(tmp_path, lexicons_dir=str(lexdir))
        assert failures == []
        clarity = results[0]["clarity"]
        # only the single custom term is scanned for
        assert clarity["per_term_counts"] == {"gizmos": 1}
        assert clarity["unique_terms"] == 1
        # the four specificity files fall back to the shipped lexicons
        spec = results[0]["specificity"]
        assert spec["auto"]["counts"] == spec["post_review"]["counts"]

    def test_lexicons_dir_with_only_sharing_json(self, tmp_path):
        store_text(tmp_path, "demo",
                   "We transmit data to provide our services. "
                   "We share data to provide our services.")
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        shipped = json.loads(
            (Path(specificity.__file__).parent / "data" / "sharing.json")
            .read_text(encoding="utf-8"))
        shipped["sharing_verbs"] = ["transmit"]
        (lexdir / "sharing.json").write_text(json.dumps(shipped))

        def sharing_sentences(lexicons_dir):
            results, failures = run_decoded(tmp_path,
                                            lexicons_dir=lexicons_dir)
            assert failures == []
            return [f["sentence_index"]
                    for f in results[0]["specificity"]["findings"]
                    if f["detector"] == "sharing"]

        assert sharing_sentences(None) == [1]
        assert sharing_sentences(str(lexdir)) == [0]


# Plain-text shapes that made a text layer quadratic before, or could:
# one long sentence, one-word sentences, abbreviation runs (_split_points),
# a multi-word vague term (LexiconIndex), capitalized runs (the
# corporate-name pattern) and number-and-unit runs (_duration_ranges).
# Each maps to its unit, the words of one unit and whether each unit is a
# sentence of its own (else the whole text is one sentence).
_SCALING_SHAPES = {
    "no_terminator": ("we may share your email address with partners ", 8,
                      False),
    "one_word_sentences": ("Data. ", 1, True),
    "eg_runs": ("e.g. ", 2, False),
    "third_party_runs": ("third party ", 2, False),
    "capitalized_runs": ("LIABLE FOR ANY DAMAGES ", 4, False),
    "number_unit_runs": ("we keep it for 30 days ", 6, False),
}
# One bound for every shape, plain text and HTML: at 1 MB each takes
# 0.2-3 s on 2 CPUs (Python 3.11), and a quadratic layer takes minutes or
# more. The child is killed at the bound, so such a layer fails the test
# instead of stalling it.
SCALING_BOUND_S = 30
_SCALING_PROBE = """
import json, sys
from tosaudit import corpus, pipeline
payload = sys.argv[1].encode("utf-8") * int(sys.argv[2])
entry = corpus.SnapshotEntry("shape", "", "", corpus.digest_bytes(payload),
                             "", "plain_text")
stats = pipeline.analyze_entry(
    entry, payload, pipeline.PipelineContext()).document.stats
print(json.dumps([stats.word_count, stats.sentence_count]))
"""


def run_scaling_probe(probe, *args):
    """What probe prints as JSON, run in a child killed at the bound."""
    src_dir = os.path.dirname(os.path.dirname(pipeline.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, timeout=SCALING_BOUND_S,
        env={**os.environ, "PYTHONPATH": src_dir})
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


class TestPlainTextScaling:
    @pytest.mark.parametrize("shape", list(_SCALING_SHAPES))
    def test_one_megabyte_within_bound(self, shape):
        unit, words, unit_is_sentence = _SCALING_SHAPES[shape]
        repeats = 1_000_000 // len(unit)
        assert run_scaling_probe(_SCALING_PROBE, unit, str(repeats)) == [
            words * repeats, repeats if unit_is_sentence else 1]


# HTML shapes that html_to_text reads in linear time, each with the text
# one unit yields and the exclude rule it runs under: a stray '<' that
# _construct reads as text, tags whose attributes hold no selector value,
# end tags with nothing open to close, and entities beside inline tags.
# Shapes that are still quadratic (ROADMAP item 4) are left out.
_HTML_SCALING_SHAPES = {
    "stray_lt": ("we may share your data < ", "we may share your data < ",
                 []),
    "heart": ("a <3 b ", "a <3 b ", []),
    "spans_no_selector_value": ('<span class="x y">w</span>', "w",
                                [".toc"]),
    "unmatched_end_tags": ("</x>", "", []),
    "entities_and_inline_tags": ("a &amp; b <i>c</i> ", "a & b c ", []),
}
_HTML_SCALING_PROBE = """
import json, sys
from tosaudit.htmltext import html_to_text
text = html_to_text(sys.argv[1] * int(sys.argv[2]),
                    exclude=json.loads(sys.argv[3]))
print(json.dumps([len(text), text[:200]]))
"""


class TestHtmlScaling:
    @pytest.mark.parametrize("shape", list(_HTML_SCALING_SHAPES))
    def test_one_megabyte_within_bound(self, shape):
        unit, text, exclude = _HTML_SCALING_SHAPES[shape]
        repeats = 1_000_000 // len(unit)
        assert run_scaling_probe(_HTML_SCALING_PROBE, unit, str(repeats),
                                 json.dumps(exclude)) == [
            len(text) * repeats, (text * repeats)[:200]]


class TestDeterminismAndOptions:
    def test_two_runs_byte_identical(self, fixture_corpus, tmp_path):
        for name in ("a", "b"):
            save_results(results_payload(*run_pipeline(str(fixture_corpus))),
                         str(tmp_path / name))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("platform", ["reddit", "youtube"])
    def test_each_document_normalized_once(self, fixture_corpus, platform,
                                           monkeypatch):
        calls = []
        normalize = textprep.normalize_text
        monkeypatch.setattr(textprep, "normalize_text",
                            lambda text: calls.append(text) or normalize(text))
        document_of(fixture_corpus, platform)
        assert len(calls) == 1

    def test_classic_lensear_changes_score(self, fixture_corpus):
        modern = run_decoded(fixture_corpus)[0]
        classic = run_decoded(fixture_corpus, classic_lensear=True)[0]
        assert modern[0]["readability"]["scores"]["lensear"] != \
            classic[0]["readability"]["scores"]["lensear"]


def force_pool(monkeypatch):
    """run_pipeline uses a pool of 2 workers for any corpus, on any host."""
    monkeypatch.setattr(pipeline, "POOL_MIN_PAYLOAD_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forced_pool(monkeypatch):
    force_pool(monkeypatch)


@pytest.fixture
def pooled_run(monkeypatch, tmp_path):
    """run_pipeline on a pool of 2 workers; it checks that workers did
    every entry. The pool is forced only inside the call, so a plain
    run_pipeline in the same test runs serially."""
    pids = tmp_path / "pids"
    entry_outcome = pipeline._entry_outcome

    def recorded(*args):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return entry_outcome(*args)

    def run(corpus_dir, **kwargs):
        with monkeypatch.context() as forced:
            force_pool(forced)
            forced.setattr(pipeline, "_entry_outcome", recorded)
            outcome = run_pipeline(str(corpus_dir), **kwargs)
        workers = pids.read_text(encoding="utf-8").split()
        pids.unlink()
        assert str(os.getpid()) not in workers
        return outcome

    return run


# Shipped lexicon phrases, so every detector and the vague-term scan
# fire, and filler that names durations, suffixes and capitalized runs.
_SPEC_LEX = specificity.load_specificity_lexicons()
_LEXICON_PHRASES = sorted({
    *(t.canonical for t in clarity.load_vague_lexicon().terms),
    *(p for phrases in _SPEC_LEX.data_types.values() for p in phrases),
    *_SPEC_LEX.known_entities, *_SPEC_LEX.retention_verbs,
    *_SPEC_LEX.vague_retention_phrases, *_SPEC_LEX.sharing_verbs,
    *_SPEC_LEX.specific_purpose_cues, *_SPEC_LEX.generic_purpose_cues,
    *_SPEC_LEX.negation_cues})
_FILLER = ["we", "you", "the", "service", "may", "and", "for", "30", "days",
           "thirty-day", "Acme", "Inc.", "e.g.", "your", "terms", "it"]
_WORDS = st.tuples(
    st.sampled_from(_LEXICON_PHRASES) | st.sampled_from(_FILLER),
    st.sampled_from([str, str.upper, str.capitalize])).map(
        lambda pair: pair[1](pair[0]))
_GENERATED_SENTENCES = st.tuples(
    st.lists(_WORDS, min_size=1, max_size=12),
    st.sampled_from([".", ".", "!", "?", ";", ""])).map(
        lambda parts: " ".join(parts[0]) + parts[1])


@st.composite
def generated_corpora(draw, root):
    """A corpus written into a fresh directory under root; returns it.

    Each of 2-4 platforms (a pool of 2 needs two) gets a plain-text or
    an HTML payload of 0-6 generated sentences (none makes an empty
    document, a failure), and one platform gets an assessment whose
    excerpt may not be in its text.
    """
    corpus_dir = Path(tempfile.mkdtemp(dir=root))
    platforms = draw(st.lists(st.sampled_from(["alpha", "beta", "gamma",
                                               "delta"]),
                              min_size=2, max_size=4, unique=True))
    texts = {}
    for platform in platforms:
        sentences = draw(st.lists(_GENERATED_SENTENCES, max_size=6))
        texts[platform] = sentences
        if draw(st.booleans()):
            store_text(corpus_dir, platform, "<html><body><nav>Home</nav>"
                       + "".join(f"<p>{s}</p>\n" for s in sentences)
                       + "</body></html>", media_kind="html")
        else:
            store_text(corpus_dir, platform, draw(st.sampled_from(
                [" ", "\n\n"])).join(sentences))
    platform = draw(st.sampled_from(platforms))
    excerpt = draw(st.sampled_from(texts[platform] + ["not in the text"]))
    store_assessment(str(corpus_dir / pipeline.ASSESSMENTS_DIR),
                     interface_assess.InterfaceAssessment(
                         platform=platform, explicit_denial=draw(
                             st.integers(0, 2)),
                         evidence=[interface_assess.EvidenceRecord(
                             metric="explicit_denial", excerpt=excerpt)]))
    return corpus_dir


class TestPool:
    def test_same_bytes_as_golden(self, fixture_corpus, pooled_run,
                                  pipeline_run, tmp_path):
        # Workers send each record to the parent as its encoded bytes.
        pooled = pooled_run(fixture_corpus)
        assert all(type(record) is bytes for record in pooled[0])
        assert pooled == pipeline_run
        path = tmp_path / "results.json"
        save_results(results_payload(*pooled), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            RESULTS_SHA256

    def test_same_failures_as_serial(self, tmp_path, pooled_run):
        root = build_fixture_corpus(tmp_path / "corpus")
        entry = corpus.load_manifest(
            str(root / "manifest.json")).entry_for("reddit")
        (root / entry.payload_path).write_bytes(b"tampered")
        (root / pipeline.ASSESSMENTS_DIR / "bluesky.json").write_text("{bad")
        serial = run_pipeline(str(root))
        pooled = pooled_run(root)
        assert [p for p, _ in serial[1]] == ["bluesky", "reddit"]
        assert serial[1][1][1] == \
            "payload digest mismatch for platform 'reddit'"
        assert pooled == serial

    # Each example writes its own corpus directory under tmp_path.
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_corpus_same_as_serial(self, tmp_path, pooled_run,
                                             data):
        root = data.draw(generated_corpora(tmp_path))
        assert pooled_run(root) == run_pipeline(str(root))

    def test_dead_worker_fails_the_run(self, fixture_corpus, forced_pool,
                                       monkeypatch):
        def die(ctx, corpus_dir, entry):
            os._exit(3)

        monkeypatch.setattr(pipeline, "_entry_outcome", die)
        with pytest.raises(BrokenProcessPool):
            run_pipeline(str(fixture_corpus))

    @pytest.mark.parametrize("cpus, floor, platforms, expected", [
        ({0, 1, 2}, 0, 3, 3),
        ({0, 1, 2}, 0, 2, 2),
        ({0}, 0, 3, 1),
        ({0, 1}, 0, 1, 1),
        ({0, 1}, 10**9, 3, 1),
    ])
    def test_pool_size(self, tmp_path, monkeypatch, cpus, floor, platforms,
                       expected):
        monkeypatch.setattr(pipeline, "POOL_MIN_PAYLOAD_BYTES", floor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        for i in range(platforms):
            store_text(tmp_path, f"p{i}", "Some words here.")
        entries = corpus.load_manifest(str(tmp_path / "manifest.json")).entries
        assert pipeline._pool_size(str(tmp_path), entries) == expected

    def test_floor_counts_payload_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for platform in ("a", "b", "c"):
            store_text(tmp_path, platform, "x" * 100)
        manifest = corpus.load_manifest(str(tmp_path / "manifest.json"))
        (tmp_path / manifest.entries[0].payload_path).unlink()
        for floor, expected in ((200, 2), (201, 1)):
            monkeypatch.setattr(pipeline, "POOL_MIN_PAYLOAD_BYTES", floor)
            assert pipeline._pool_size(
                str(tmp_path), manifest.entries) == expected


class TestResultsFile:
    def test_save_and_load_round_trip(self, pipeline_run, run_payload,
                                      tmp_path):
        path = str(tmp_path / "results.json")
        save_results(results_payload(*pipeline_run), path)
        assert load_results(path) == run_payload

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(TosAuditError, match="results not found"):
            load_results(str(tmp_path / "nope.json"))

    def test_load_malformed_raises(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{broken")
        with pytest.raises(TosAuditError, match="malformed results file"):
            load_results(str(path))

    def test_result_dict_shape(self, results_by_platform):
        d = results_by_platform["bluesky"]
        assert d["platform"] == "bluesky"
        assert set(d["readability"]["scores"]) == {
            "flesch_reading_ease", "gunning_fog", "flesch_kincaid_grade",
            "coleman_liau", "smog", "lensear", "ari"}
        assert set(d["readability"]["bands"]) == \
            set(d["readability"]["scores"])
        assert d["specificity"]["auto"]["counts"]["dt"] == 10
        assert d["interface"]["explicit_denial"] == 1


class TestReviewOverResults:
    def test_export_counts_reviewable_findings(self, run_payload, tmp_path):
        payload = run_payload
        out = str(tmp_path / "review.jsonl")
        count = export_review_from_results(payload, out)
        expected = sum(
            c[2] + c[3] + c[4] + c[5]
            for c in fixture_docs.EXPECTED_AUTO.values())
        # counts cover explicit/vague/generic/specific labels; reddit's
        # negated sharing sentence is a reviewable finding too
        expected += 1
        assert count == expected == 42

    def test_apply_rejection_updates_post_scores(self, run_payload,
                                                 tmp_path):
        payload = run_payload
        out = str(tmp_path / "review.jsonl")
        export_review_from_results(payload, out)
        lines = (tmp_path / "review.jsonl").read_text(
            encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            if rec["platform"] == "bluesky" and rec["detector"] == "sharing":
                rec["human_label"] = "rejected"
        with open(out, "w") as fh:
            fh.write(lines[0] + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        revised = apply_review_to_results(payload, out)
        for result in map(json.loads, revised["results"]):
            spec = result["specificity"]
            if result["platform"] == "bluesky":
                assert spec["auto"]["counts"]["ss"] == 5
                assert spec["post_review"]["counts"]["ss"] == 0
                assert spec["post_review"]["scores"]["s_s"] == 0
            else:
                assert spec["auto"]["counts"] == \
                    spec["post_review"]["counts"]

    def test_apply_leaves_the_run_records_unchanged(self, run_payload,
                                                    tmp_path):
        payload = run_payload
        records = payload["results"]
        before = canonical_json(payload)
        out = tmp_path / "review.jsonl"
        export_review_from_results(payload, str(out))
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        out.write_text("\n".join([header] + [
            json.dumps({**json.loads(line), "human_label": "rejected"})
            for line in lines]) + "\n", encoding="utf-8")
        revised = [json.loads(r) for r in
                   apply_review_to_results(payload, str(out))["results"]]
        assert payload["results"] is records
        assert canonical_json(payload) == before
        assert all(r["specificity"]["post_review"]["counts"]["ss"] == 0
                   for r in revised)
        assert any(r["specificity"]["auto"]["counts"]["ss"] > 0
                   for r in revised)

    def test_unknown_platform_raises(self, run_payload, tmp_path):
        payload = run_payload
        out = tmp_path / "review.jsonl"
        header = {"record_type": "header", "format": "tosaudit-review",
                  "version": 1, "finding_count": 1}
        record = {"platform": "atlantis", "sentence_index": 0,
                  "detector": "sharing",
                  "evidence_span": {"start": 0, "end": 4},
                  "human_label": "rejected"}
        out.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ReviewError,
                           match="platform 'atlantis'"):
            apply_review_to_results(payload, str(out))


# Text UTF-8 can hold (no lone surrogates), with characters JSON escapes
# or passes through unescaped drawn often.
_HOSTILE = st.sampled_from(['"', "\\", "\x00\x1f", "\u2028\u2029", "\u202e",
                            "\ufeff", "\U0010ffff", "e\u0301", ""]) | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=6)
_AUTO_LABELS = {
    "data_type": _HOSTILE, "entity": _HOSTILE,
    "retention": st.sampled_from(specificity.RETENTION_LABELS),
    "sharing": st.sampled_from(specificity.SHARING_LABELS),
}


@st.composite
def review_payloads(draw):
    """Results records of unreviewed findings with hostile text.

    As in analyze's results, no two findings of a platform share a
    review key (sentence_index, detector, evidence_span).
    """
    records = []
    platforms = draw(st.lists(_HOSTILE, min_size=1, max_size=3, unique=True))
    for platform in platforms:
        findings = draw(st.lists(st.sampled_from(specificity.DETECTORS).flatmap(
            lambda detector: st.builds(
                specificity.SentenceFinding, platform=st.just(platform),
                sentence_index=st.integers(0, 9), detector=st.just(detector),
                auto_label=_AUTO_LABELS[detector],
                evidence_span=st.tuples(st.integers(0, 5), st.integers(5, 9)),
                # builds draws every field of a NamedTuple, defaults too.
                sentence_text=_HOSTILE, human_label=st.none(),
                reviewer_note=st.none())), max_size=6,
            unique_by=lambda f: (f.sentence_index, f.detector,
                                 f.evidence_span)))
        sentence_count = draw(st.integers(0, 9))
        scored = specificity.score_findings(findings, sentence_count)
        records.append({
            "platform": platform, "doc_stats": {"sentence_count": sentence_count},
            "readability": {}, "fluency": {}, "clarity": {},
            "specificity": _specificity_block(findings, scored)})
    return records


def assert_review_round_trip(records, failures, edits, note):
    """An unedited review changes nothing and post_review == auto; a
    review that labels the findings with edits, in turn, applied twice
    gives the bytes of applying it once."""
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        save_results(results_payload(records, failures), path("base.json"))
        payload = load_results(path("base.json"))
        export_review_from_results(payload, path("review.jsonl"),
                                   include_dt_en=True)
        save_results(apply_review_to_results(
            payload, path("review.jsonl")), path("unedited.json"))
        unedited = load_results(path("unedited.json"))

        # Not splitlines: it also splits at U+2028 inside a string.
        with open(path("review.jsonl"), encoding="utf-8") as fh:
            header, *lines = fh.read().rstrip("\n").split("\n")
        edited = [json.dumps({**json.loads(line), "human_label": label,
                              "reviewer_note": note}, ensure_ascii=False)
                  for line, label in zip(lines, itertools.cycle(edits))]
        with open(path("edited.jsonl"), "w", encoding="utf-8") as fh:
            fh.write("\n".join([header] + edited) + "\n")
        save_results(apply_review_to_results(
            payload, path("edited.jsonl")), path("once.json"))
        save_results(apply_review_to_results(
            load_results(path("once.json")), path("edited.jsonl")),
            path("twice.json"))
        with open(path("once.json"), "rb") as once, \
                open(path("twice.json"), "rb") as twice:
            assert twice.read() == once.read()

    for before, after in zip(payload["results"], unedited["results"],
                             strict=True):
        spec, revised = before["specificity"], after["specificity"]
        assert revised["findings"] == spec["findings"]
        assert revised["auto"] == spec["auto"]
        assert revised["post_review"]["counts"] == spec["auto"]["counts"]
        assert {**revised["post_review"]["scores"], "stage": "auto"} == \
            spec["auto"]["scores"]


_EDITS = st.lists(st.sampled_from(["", "rejected"]), min_size=1, max_size=20)


class TestReviewRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(records=review_payloads(), edits=_EDITS, note=_HOSTILE)
    def test_review_round_trip(self, records, edits, note):
        assert_review_round_trip([encode_record(r) for r in records], [],
                                 edits, note)


def rewrite_manifest(corpus_dir, change):
    """Save the corpus's manifest with its entries passed through change."""
    path = str(corpus_dir / corpus.MANIFEST_NAME)
    manifest = corpus.load_manifest(path)
    corpus.save_manifest(
        manifest._replace(entries=tuple(change(manifest.entries))), path)


# Each example writes its own corpus directory under tmp_path.
_TMP_PATH_OK = [HealthCheck.function_scoped_fixture]


class TestGeneratedCorpusProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=_TMP_PATH_OK)
    @given(data=st.data())
    def test_entry_order_does_not_matter(self, tmp_path, data):
        root = data.draw(generated_corpora(tmp_path))
        forward = run_pipeline(str(root))
        rewrite_manifest(root, reversed)
        assert run_pipeline(str(root)) == forward

    @settings(max_examples=25, deadline=None,
              suppress_health_check=_TMP_PATH_OK)
    @given(data=st.data())
    def test_dropping_a_platform_keeps_the_others(self, tmp_path, data):
        root = data.draw(generated_corpora(tmp_path))
        records, failures = run_pipeline(str(root))
        entries = corpus.load_manifest(
            str(root / corpus.MANIFEST_NAME)).entries
        dropped = data.draw(st.sampled_from([e.platform for e in entries]))
        rewrite_manifest(root, lambda entries: [
            e for e in entries if e.platform != dropped])
        assert run_pipeline(str(root)) == (
            [r for r in records if json.loads(r)["platform"] != dropped],
            [f for f in failures if f[0] != dropped])

    @settings(max_examples=20, deadline=None,
              suppress_health_check=_TMP_PATH_OK)
    @given(data=st.data())
    def test_records_agree_with_their_documents(self, tmp_path, data):
        # Spans lie in their sentences, sentence_text is the segmented
        # sentence, auto counts are the findings' and coverage a fraction.
        root = data.draw(generated_corpora(tmp_path))
        manifest = corpus.load_manifest(str(root / corpus.MANIFEST_NAME))
        records, _ = run_pipeline(str(root))
        for record in map(json.loads, records):
            entry = manifest.entry_for(record["platform"])
            doc = textprep.build_document(entry.platform, textprep.payload_text(
                corpus.read_payload(str(root), entry), entry.media_kind))
            spec = record["specificity"]
            for f in spec["findings"]:
                sentence = doc.sentences[f["sentence_index"]]
                assert f["sentence_text"] == sentence.text
                span = f["evidence_span"]
                assert 0 <= span["start"] < span["end"] <= len(sentence.text)
            for index, (start, end), _ in record["clarity"]["matches"]:
                first, last = doc.sentences[index].char_span
                assert first <= start < end <= last <= len(doc.text)
            findings = list(map(finding_from_dict, spec["findings"]))
            assert spec["auto"]["counts"] == specificity.aggregate_counts(
                findings, use_review=False)._asdict()
            assert all(0 <= v <= 1 for v in spec["coverage"].values())

    @settings(max_examples=20, deadline=None,
              suppress_health_check=_TMP_PATH_OK)
    @given(data=st.data(), edits=_EDITS, note=_HOSTILE)
    def test_review_round_trip(self, tmp_path, data, edits, note):
        root = data.draw(generated_corpora(tmp_path))
        assert_review_round_trip(*run_pipeline(str(root)), edits, note)


class TestFixtureCorpusRebuild:
    def test_rebuild_produces_same_digests(self, tmp_path, fixture_corpus):
        rebuilt = build_fixture_corpus(tmp_path / "copy")
        a = corpus.load_manifest(str(fixture_corpus / "manifest.json"))
        b = corpus.load_manifest(str(rebuilt / "manifest.json"))
        assert {(e.platform, e.content_digest) for e in a.entries} == \
            {(e.platform, e.content_digest) for e in b.entries}
