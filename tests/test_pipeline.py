import hashlib
import json
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import fixture_docs
from conftest import build_fixture_corpus
from test_golden import RESULTS_SHA256
from tosaudit import corpus, interface_assess, pipeline, specificity
from tosaudit.errors import ReviewError, TosAuditError
from tosaudit.pipeline import (
    apply_review_to_results, canonical_json, export_review_from_results,
    analyze_entry, load_results, results_payload, run_pipeline, save_results,
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


def document_of(corpus_dir, platform):
    """The Document analyze_entry builds for one platform of a corpus."""
    manifest = corpus.load_manifest(str(corpus_dir / "manifest.json"))
    entry = manifest.entry_for(platform)
    payload = corpus.read_payload(str(corpus_dir), entry)
    ctx = pipeline.PipelineContext(corpus_dir=str(corpus_dir))
    return analyze_entry(entry, payload, ctx).document


class TestFullRun:
    def test_thirteen_results_no_failures(self, pipeline_run):
        results, failures = pipeline_run
        assert failures == []
        assert [r["platform"] for r in results] == \
            list(fixture_docs.PLATFORMS)

    def test_auto_counts_match_expected(self, results_by_platform):
        keys = ("dt", "en", "re_explicit", "re_vague", "sg", "ss")
        got = {
            p: tuple(r["specificity"]["auto"]["counts"][k] for k in keys)
            for p, r in results_by_platform.items()
        }
        assert got == fixture_docs.EXPECTED_AUTO

    def test_post_equals_auto_before_review(self, pipeline_run):
        results, _ = pipeline_run
        for r in results:
            auto = r["specificity"]["auto"]
            post = r["specificity"]["post_review"]
            assert post["counts"] == auto["counts"]
            assert post["scores"]["composite"] == auto["scores"]["composite"]
            assert auto["scores"]["stage"] == "auto"
            assert post["scores"]["stage"] == "post_review"

    def test_interface_attached_everywhere(self, pipeline_run):
        results, _ = pipeline_run
        for r in results:
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

    def test_coverage_keys(self, pipeline_run):
        results, _ = pipeline_run
        for r in results:
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
        results, failures = run_pipeline(str(tmp_path))
        assert [r["platform"] for r in results] == ["fine"]
        assert failures == [("blank", "degenerate document")]

    def test_invalid_assessment_keeps_result(self, tmp_path):
        store_text(tmp_path, "demo", "A short document. Nothing special.")
        assessment = interface_assess.InterfaceAssessment(
            platform="demo", explicit_denial=1,
            evidence=[interface_assess.EvidenceRecord(
                metric="explicit_denial", excerpt="not in the document")])
        interface_assess.store_assessment(
            str(tmp_path / pipeline.ASSESSMENTS_DIR), assessment)
        results, failures = run_pipeline(str(tmp_path))
        assert len(results) == 1
        assert results[0]["interface"] is None
        assert len(failures) == 1
        platform, message = failures[0]
        assert platform == "demo"
        assert message.startswith("invalid assessment:")
        assert "verbatim substring" in message

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
        results, failures = run_pipeline(str(tmp_path))
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
        results, failures = run_pipeline(str(tmp_path),
                                         lexicons_dir=str(lexdir))
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
            results, failures = run_pipeline(str(tmp_path),
                                              lexicons_dir=lexicons_dir)
            assert failures == []
            return [f["sentence_index"]
                    for f in results[0]["specificity"]["findings"]
                    if f["detector"] == "sharing"]

        assert sharing_sentences(None) == [1]
        assert sharing_sentences(str(lexdir)) == [0]


class TestDeterminismAndOptions:
    def test_two_runs_byte_identical(self, fixture_corpus):
        first = run_pipeline(str(fixture_corpus))
        second = run_pipeline(str(fixture_corpus))
        blob_a = canonical_json(results_payload(*first))
        blob_b = canonical_json(results_payload(*second))
        assert blob_a == blob_b

    def test_classic_lensear_changes_score(self, fixture_corpus):
        modern = run_pipeline(str(fixture_corpus))[0]
        classic = run_pipeline(str(fixture_corpus), classic_lensear=True)[0]
        assert modern[0]["readability"]["scores"]["lensear"] != \
            classic[0]["readability"]["scores"]["lensear"]


@pytest.fixture
def forced_pool(monkeypatch):
    """run_pipeline uses a pool of 2 workers for any corpus, on any host."""
    monkeypatch.setattr(pipeline, "POOL_MIN_PAYLOAD_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def pooled_run(forced_pool, monkeypatch, tmp_path):
    """run_pipeline on the pool; it checks that workers did every entry."""
    pids = tmp_path / "pids"
    entry_outcome = pipeline._entry_outcome

    def recorded(*args):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return entry_outcome(*args)

    monkeypatch.setattr(pipeline, "_entry_outcome", recorded)

    def run(corpus_dir, **kwargs):
        outcome = run_pipeline(str(corpus_dir), **kwargs)
        workers = pids.read_text(encoding="utf-8").split()
        pids.unlink()
        assert str(os.getpid()) not in workers
        return outcome

    return run


class TestPool:
    def test_same_bytes_as_golden(self, fixture_corpus, pooled_run):
        blob = canonical_json(results_payload(*pooled_run(fixture_corpus)))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == \
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
        assert pooled[1] == serial[1]
        assert canonical_json(results_payload(*pooled)) == \
            canonical_json(results_payload(*serial))

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
    def test_save_and_load_round_trip(self, pipeline_run, tmp_path):
        payload = results_payload(*pipeline_run)
        path = str(tmp_path / "results.json")
        save_results(payload, path)
        assert load_results(path) == payload

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
    def test_export_counts_reviewable_findings(self, pipeline_run, tmp_path):
        payload = results_payload(*pipeline_run)
        out = str(tmp_path / "review.jsonl")
        count = export_review_from_results(payload, out)
        expected = sum(
            c[2] + c[3] + c[4] + c[5]
            for c in fixture_docs.EXPECTED_AUTO.values())
        # counts cover explicit/vague/generic/specific labels; reddit's
        # negated sharing sentence is a reviewable finding too
        expected += 1
        assert count == expected == 42

    def test_apply_rejection_updates_post_scores(self, pipeline_run,
                                                 tmp_path):
        payload = results_payload(*pipeline_run)
        out = str(tmp_path / "review.jsonl")
        export_review_from_results(payload, out)
        lines = open(out).read().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            if rec["platform"] == "bluesky" and rec["detector"] == "sharing":
                rec["human_label"] = "rejected"
        with open(out, "w") as fh:
            fh.write(lines[0] + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        revised = apply_review_to_results(payload, out)
        for result in revised["results"]:
            spec = result["specificity"]
            if result["platform"] == "bluesky":
                assert spec["auto"]["counts"]["ss"] == 5
                assert spec["post_review"]["counts"]["ss"] == 0
                assert spec["post_review"]["scores"]["s_s"] == 0
            else:
                assert spec["auto"]["counts"] == \
                    spec["post_review"]["counts"]

    def test_unknown_platform_raises(self, pipeline_run, tmp_path):
        payload = results_payload(*pipeline_run)
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


class TestFixtureCorpusRebuild:
    def test_rebuild_produces_same_digests(self, tmp_path, fixture_corpus):
        rebuilt = build_fixture_corpus(tmp_path / "copy")
        a = corpus.load_manifest(str(fixture_corpus / "manifest.json"))
        b = corpus.load_manifest(str(rebuilt / "manifest.json"))
        assert {(e.platform, e.content_digest) for e in a.entries} == \
            {(e.platform, e.content_digest) for e in b.entries}
