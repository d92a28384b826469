import copy
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tosaudit import results, specificity, textprep
from tosaudit.errors import LexiconError, ReviewError, TosAuditError
from tosaudit.matching import LexiconIndex
from tosaudit.results import (
    apply_review_records, export_review, finding_from_dict, parse_review_file,
)
from tosaudit.specificity import (
    SentenceFinding, SpecificityCounts, SpecificityLexicons, aggregate_counts,
    analyze_document, classify_retention, classify_sharing,
    detect_data_types, detect_entities, index_lexicons, inflect_verb,
    load_specificity_lexicons, map_scores, score_findings, sentence_coverage,
)

SHIPPED = load_specificity_lexicons()
INDEX = LexiconIndex()
index_lexicons(INDEX, SHIPPED)


@pytest.fixture(scope="module")
def lex():
    return SHIPPED


def sentence_of(text, index=0):
    sentences = textprep.segment_sentences(text)
    assert len(sentences) >= index + 1
    return sentences[index]


def doc_of(text, platform="demo"):
    return textprep.build_document(platform, text)


def findings_of(doc, lex):
    """analyze_document's findings, from views of the shipped index."""
    return analyze_document(doc, lex, [INDEX.scan(s) for s in doc.sentences])


def finding_to_dict(f):
    """Finding f as the dict whose JSON a results or review file holds."""
    return {
        "platform": f.platform,
        "sentence_index": f.sentence_index,
        "detector": f.detector,
        "auto_label": f.auto_label,
        "evidence_span": {"start": f.evidence_span[0], "end": f.evidence_span[1]},
        "sentence_text": f.sentence_text,
        "human_label": f.human_label or "",
        "reviewer_note": f.reviewer_note or "",
    }


def labels_of(pairs):
    """The labels of a detector's (label, span) pairs."""
    return [label for label, _ in pairs]


class TestInflect:
    def test_regular(self):
        assert inflect_verb("retain") == \
            {"retain", "retains", "retained", "retaining"}

    def test_e_final(self):
        assert inflect_verb("share") == \
            {"share", "shares", "shared", "sharing"}

    def test_sibilant(self):
        assert inflect_verb("process") == \
            {"process", "processes", "processed", "processing"}

    def test_irregular_keep(self):
        assert "kept" in inflect_verb("keep")


class TestDataTypes:
    def test_single_phrase(self, lex):
        s = sentence_of("We collect your email address.")
        pairs = detect_data_types(INDEX.scan(s), lex)
        assert labels_of(pairs) == ["email address"]
        start, end = pairs[0][1]
        assert s.text[start:end] == "email address"

    def test_longest_phrase_wins(self, lex):
        s = sentence_of("We log your approximate location.")
        pairs = detect_data_types(INDEX.scan(s), lex)
        assert labels_of(pairs) == ["approximate location"]

    def test_duplicates_collapse_within_sentence(self, lex):
        s = sentence_of("Email address here, email address there.")
        pairs = detect_data_types(INDEX.scan(s), lex)
        assert len(pairs) == 1

    def test_case_insensitive(self, lex):
        s = sentence_of("We read your IP ADDRESS.")
        assert labels_of(detect_data_types(INDEX.scan(s), lex)) == \
            ["IP address"]

    def test_list_sentence(self, lex):
        s = sentence_of(
            "We collect your phone number, location, and browsing history.")
        labels = set(labels_of(detect_data_types(INDEX.scan(s), lex)))
        assert labels == {"phone number", "location", "browsing history"}

    def test_no_hits(self, lex):
        s = sentence_of("We value your trust.")
        assert detect_data_types(INDEX.scan(s), lex) == []


class TestEntities:
    def test_curated_name(self, lex):
        s = sentence_of("We work with Google today.")
        pairs = detect_entities(INDEX.scan(s), lex)
        assert labels_of(pairs) == ["Google"]

    def test_curated_is_case_sensitive(self, lex):
        s = sentence_of("We searched google results.")
        assert detect_entities(INDEX.scan(s), lex) == []

    def test_suffix_pattern(self, lex):
        s = sentence_of("Files are stored by Acme Data Corp. every night.")
        pairs = detect_entities(INDEX.scan(s), lex)
        assert labels_of(pairs) == ["Acme Data Corp."]

    def test_suffix_swallows_nested_curated(self, lex):
        s = sentence_of("Meta Platforms, Inc. operates this service.")
        pairs = detect_entities(INDEX.scan(s), lex)
        assert labels_of(pairs) == ["Meta Platforms, Inc."]

    def test_curated_and_suffix_mix(self, lex):
        s = sentence_of("We rely on Google and Streamline Media Ltd. daily.")
        labels = labels_of(detect_entities(INDEX.scan(s), lex))
        assert labels == ["Google", "Streamline Media Ltd."]

    def test_generic_descriptors_never_match(self, lex):
        s = sentence_of("We rely on service providers and vendors.")
        assert detect_entities(INDEX.scan(s), lex) == []

    def test_dedupe_within_sentence(self, lex):
        s = sentence_of("Google tools and Google accounts differ.")
        assert len(detect_entities(INDEX.scan(s), lex)) == 1

    def test_sentence_initial_capital_not_entity(self, lex):
        s = sentence_of("The provider stores files.")
        assert detect_entities(INDEX.scan(s), lex) == []


class TestRetention:
    def test_explicit_digits(self, lex):
        s = sentence_of("We retain logs for 30 days.")
        (label, (start, end)), = classify_retention(INDEX.scan(s), lex)
        assert label == "explicit"
        assert s.text[start:end] == "retain logs for 30 days"

    def test_explicit_spelled_number(self, lex):
        s = sentence_of("Backups are kept for ninety days.")
        assert labels_of(classify_retention(INDEX.scan(s), lex)) == \
            ["explicit"]

    def test_explicit_hyphenated_duration(self, lex):
        s = sentence_of("A 30-day retention window applies; we delete after.")
        assert labels_of(classify_retention(INDEX.scan(s), lex)) == \
            ["explicit"]

    def test_proximity_limit(self, lex):
        s = sentence_of(
            "We retain your records according to the policies described "
            "in the manual that quietly mentions just 30 days.")
        assert classify_retention(INDEX.scan(s), lex) == []

    def test_vague_phrase(self, lex):
        s = sentence_of("We keep your data as long as necessary.")
        (label, (start, end)), = classify_retention(INDEX.scan(s), lex)
        assert label == "vague"
        assert s.text[start:end] == "as long as necessary"

    def test_explicit_dominates_vague(self, lex):
        s = sentence_of(
            "We retain data for 30 days or as long as necessary.")
        assert labels_of(classify_retention(INDEX.scan(s), lex)) == \
            ["explicit"]

    def test_duration_without_verb_is_none(self, lex):
        s = sentence_of("The trial lasts 30 days.")
        assert classify_retention(INDEX.scan(s), lex) == []

    def test_verb_without_signal_is_none(self, lex):
        s = sentence_of("We store your preferences.")
        assert classify_retention(INDEX.scan(s), lex) == []

    def test_number_without_unit_is_not_duration(self, lex):
        s = sentence_of("We keep 30 copies as long as necessary.")
        # "30" has no adjacent duration unit, so the vague phrase stands
        assert labels_of(classify_retention(INDEX.scan(s), lex)) == ["vague"]


class TestSharing:
    def test_specific(self, lex):
        s = sentence_of("We share telemetry for fraud detection.")
        (label, (start, end)), = classify_sharing(INDEX.scan(s), lex)
        assert label == "specific"
        assert s.text[start:end] == "fraud detection"

    def test_generic(self, lex):
        s = sentence_of("We use your data to provide our services.")
        assert labels_of(classify_sharing(INDEX.scan(s), lex)) == ["generic"]

    def test_negated(self, lex):
        s = sentence_of("We do not share personally identifiable information.")
        assert labels_of(classify_sharing(INDEX.scan(s), lex)) == ["negated"]

    def test_negation_beats_specific(self, lex):
        s = sentence_of(
            "We will not share your data, even for fraud detection.")
        assert labels_of(classify_sharing(INDEX.scan(s), lex)) == ["negated"]

    def test_specific_beats_generic(self, lex):
        s = sentence_of(
            "We process data to provide our services and for fraud "
            "detection checks.")
        assert labels_of(classify_sharing(INDEX.scan(s), lex)) == ["specific"]

    def test_no_verb_is_none(self, lex):
        s = sentence_of("Your data belongs to you.")
        assert classify_sharing(INDEX.scan(s), lex) == []

    def test_verb_without_cue_is_none(self, lex):
        s = sentence_of("We share updates with you.")
        assert classify_sharing(INDEX.scan(s), lex) == []

    def test_inflected_verb_counts(self, lex):
        s = sentence_of("Data is processed for spam detection.")
        assert labels_of(classify_sharing(INDEX.scan(s), lex)) == ["specific"]


class TestAnalyzeDocument:
    def test_findings_cover_detectors(self, lex):
        doc = doc_of(
            "We collect your email address. We work with Google. "
            "We retain logs for 30 days. We share hashes for fraud "
            "detection.")
        findings = findings_of(doc, lex)
        detectors = {f.detector for f in findings}
        assert detectors == set(specificity.DETECTORS)
        assert all(f.platform == "demo" for f in findings)

    def test_one_sharing_finding_per_sentence(self, lex):
        doc = doc_of(
            "We share data for fraud detection and also for spam detection.")
        findings = [f for f in findings_of(doc, lex)
                    if f.detector == "sharing"]
        assert len(findings) == 1


def make_finding(detector, label, platform="p", sentence_index=0, span=(0, 4)):
    return SentenceFinding(
        platform=platform,
        sentence_index=sentence_index,
        detector=detector,
        auto_label=label,
        evidence_span=span,
        sentence_text="stub sentence",
    )


class TestAggregateCounts:
    def test_whatsapp_shaped_findings(self):
        findings = []
        for i in range(13):
            findings.append(make_finding("data_type", f"type {i}",
                                         sentence_index=i))
        for i in range(5):
            findings.append(make_finding("entity", f"Entity {i}",
                                         sentence_index=i))
        for i in range(2):
            findings.append(make_finding("retention", "explicit",
                                         sentence_index=20 + i))
        findings.append(make_finding("sharing", "generic", sentence_index=30))
        for i in range(4):
            findings.append(make_finding("sharing", "specific",
                                         sentence_index=31 + i))
        counts = aggregate_counts(findings)
        assert counts == SpecificityCounts(
            dt=13, en=5, re_explicit=2, re_vague=0, sg=1, ss=4)
        scores = map_scores(counts)
        assert (scores.dt_s, scores.en_s, scores.r_s, scores.s_s) == \
            (2, 2, 2, 2)
        assert scores.composite == 2.0

    def test_distinct_labels_fold_case(self):
        findings = [
            make_finding("data_type", "Email Address", sentence_index=0),
            make_finding("data_type", "email address", sentence_index=1),
        ]
        assert aggregate_counts(findings).dt == 1

    def test_negated_sharing_not_counted(self):
        findings = [make_finding("sharing", "negated")]
        counts = aggregate_counts(findings)
        assert counts.sg == 0 and counts.ss == 0

    def test_mixed_platforms_rejected(self):
        findings = [
            make_finding("data_type", "email", platform="a"),
            make_finding("data_type", "email", platform="b"),
        ]
        with pytest.raises(TosAuditError, match="mixed-document input"):
            aggregate_counts(findings)

    def test_rejected_dropped_only_under_review(self):
        finding = make_finding("sharing", "specific")._replace(
            human_label="rejected")
        assert aggregate_counts([finding], use_review=True).ss == 0
        assert aggregate_counts([finding], use_review=False).ss == 1

    def test_human_relabel_overrides(self):
        finding = make_finding("sharing", "generic")._replace(
            human_label="specific")
        counts = aggregate_counts([finding], use_review=True)
        assert counts.ss == 1 and counts.sg == 0

    def test_empty(self):
        assert aggregate_counts([]) == SpecificityCounts()


class TestMapScores:
    @pytest.mark.parametrize("dt,expected", [
        (0, 0), (1, 1), (2, 1), (3, 1), (4, 2), (15, 2)])
    def test_dt_thresholds(self, dt, expected):
        assert map_scores(SpecificityCounts(dt=dt)).dt_s == expected

    @pytest.mark.parametrize("en,expected", [
        (0, 0), (1, 1), (2, 1), (3, 2), (11, 2)])
    def test_en_thresholds(self, en, expected):
        assert map_scores(SpecificityCounts(en=en)).en_s == expected

    @pytest.mark.parametrize("re_e,re_v,expected", [
        (0, 0, 0), (0, 1, 1), (0, 3, 1), (1, 0, 2), (1, 2, 2), (2, 0, 2)])
    def test_retention_thresholds(self, re_e, re_v, expected):
        counts = SpecificityCounts(re_explicit=re_e, re_vague=re_v)
        assert map_scores(counts).r_s == expected

    @pytest.mark.parametrize("sg,ss,expected", [
        (0, 0, 0), (1, 0, 1), (3, 0, 1), (0, 1, 1), (0, 2, 1),
        (1, 2, 1), (0, 3, 2), (2, 5, 2)])
    def test_sharing_thresholds(self, sg, ss, expected):
        counts = SpecificityCounts(sg=sg, ss=ss)
        assert map_scores(counts).s_s == expected

    def test_composite_on_quarter_grid(self):
        score = map_scores(SpecificityCounts(dt=1, en=3, re_vague=1, ss=1))
        assert score.composite == pytest.approx((1 + 2 + 1 + 1) / 4)
        assert (score.composite * 4) == int(score.composite * 4)

    def test_stage_recorded(self):
        assert map_scores(SpecificityCounts(), "post_review").stage == \
            "post_review"


class TestCoverage:
    def test_fractions(self):
        findings = [
            make_finding("data_type", "email", sentence_index=0),
            make_finding("data_type", "location", sentence_index=0),
            make_finding("sharing", "specific", sentence_index=3),
        ]
        cov = sentence_coverage(findings, 4)
        assert cov["data_type"] == pytest.approx(0.25)
        assert cov["sharing"] == pytest.approx(0.25)
        assert cov["entity"] == 0.0

    def test_zero_sentences(self):
        cov = sentence_coverage([], 0)
        assert set(cov.values()) == {0.0}


class TestFindingSerialization:
    def test_round_trip(self):
        finding = make_finding("retention", "explicit", span=(3, 9))._replace(
            human_label="vague", reviewer_note="duration is conditional")
        data = finding_to_dict(finding)
        back = finding_from_dict(data)
        assert back == finding

    def test_empty_strings_become_none(self):
        data = finding_to_dict(make_finding("sharing", "generic"))
        assert data["human_label"] == ""
        back = finding_from_dict(data)
        assert back.human_label is None

    @pytest.mark.parametrize("field, value, error", [
        ("platform", None, TypeError),
        ("detector", 5, ValueError),
        ("detector", "bogus", ValueError),
        ("auto_label", 1, TypeError),
        ("sentence_text", 5, TypeError),
        ("human_label", [], TypeError),
        ("reviewer_note", 7, TypeError),
    ])
    def test_wrong_type_raises(self, field, value, error):
        data = finding_to_dict(make_finding("sharing", "generic"))
        with pytest.raises(error, match=f"finding {field}"):
            finding_from_dict({**data, field: value})

    @pytest.mark.parametrize("field", ["human_label", "reviewer_note"])
    def test_label_and_note_may_be_null_or_absent(self, field):
        data = finding_to_dict(make_finding("sharing", "generic"))
        assert getattr(finding_from_dict({**data, field: None}), field) is None
        del data[field]
        assert getattr(finding_from_dict(data), field) is None


# Text of any code points, lone surrogates included, with the
# characters JSON escapes or passes through unescaped drawn often.
ANY_TEXT = st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                     "\ud800", "\udfff"])
    | st.text(st.characters(exclude_categories=()), max_size=4),
    max_size=3).map("".join)
_BIG_INTS = st.integers(-10**300, 10**300)
ANY_FINDING = st.builds(
    SentenceFinding, platform=ANY_TEXT, sentence_index=_BIG_INTS,
    detector=st.sampled_from(specificity.DETECTORS), auto_label=ANY_TEXT,
    evidence_span=st.tuples(_BIG_INTS, _BIG_INTS), sentence_text=ANY_TEXT,
    human_label=st.none() | ANY_TEXT, reviewer_note=st.none() | ANY_TEXT)
_ORACLE = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _encodable(finding):
    return all(not isinstance(v, str) or not re.search("[\ud800-\udfff]", v)
               for v in finding)


class TestExportLines:
    @settings(max_examples=100, deadline=None)
    @given(findings=st.lists(ANY_FINDING, max_size=4))
    def test_lines_match_json_encoder(self, findings):
        assert list(map(results._finding_text, findings)) == [
            _ORACLE(finding_to_dict(f)) for f in findings]
        # A lone surrogate cannot be written as UTF-8; the rest are
        # written in review order, one oracle line each.
        findings = sorted(filter(_encodable, findings),
                          key=results._review_sort_key)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/review.jsonl"
            export_review(findings, path, include_dt_en=True)
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.readlines()
        assert lines[1:] == [
            _ORACLE(finding_to_dict(f)) + "\n" for f in findings]


class TestReviewRoundTrip:
    def build_findings(self):
        doc = doc_of(
            "We share one for fraud detection. We share two for content "
            "moderation. We keep data as long as necessary.")
        lex = load_specificity_lexicons()
        return findings_of(doc, lex)

    def test_export_header_and_order(self, tmp_path):
        findings = self.build_findings()
        path = tmp_path / "review.jsonl"
        count = export_review(findings, str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {
            "record_type": "header",
            "format": "tosaudit-review",
            "version": 1,
            "finding_count": count,
        }
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == count
        assert all(r["detector"] in ("retention", "sharing")
                   for r in records)
        keys = [(r["platform"], r["sentence_index"],
                 r["evidence_span"]["start"]) for r in records]
        assert keys == sorted(keys)

    def test_export_can_include_dt_en(self, tmp_path):
        doc = doc_of("We collect your email address from Google.")
        lex = load_specificity_lexicons()
        findings = findings_of(doc, lex)
        path = tmp_path / "review.jsonl"
        assert export_review(findings, str(path)) == 0
        assert export_review(findings, str(path), include_dt_en=True) == 2

    def test_apply_rejection(self, tmp_path):
        findings = self.build_findings()
        path = tmp_path / "review.jsonl"
        export_review(findings, str(path))
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        sharing = [r for r in records if r["detector"] == "sharing"]
        sharing[0]["human_label"] = "rejected"
        path.write_text("\n".join(
            [lines[0]] + [json.dumps(r) for r in records]) + "\n")
        apply_review_records(findings, parse_review_file(str(path), {}))
        scored = score_findings(findings, 3)
        assert scored["auto"]["scores"]["stage"] == "auto"
        assert scored["post_review"]["scores"]["stage"] == "post_review"
        assert aggregate_counts(findings, use_review=False).ss == 2
        assert aggregate_counts(findings, use_review=True).ss == 1

    def test_unmatched_record_raises(self, tmp_path):
        findings = self.build_findings()
        path = tmp_path / "review.jsonl"
        export_review(findings, str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["sentence_index"] = 99
        header = {**json.loads(lines[0]), "finding_count": 1}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ReviewError, match="unmatched review record"):
            apply_review_records(findings, parse_review_file(str(path), {}))

    def test_illegal_label_raises(self, tmp_path):
        findings = self.build_findings()
        path = tmp_path / "review.jsonl"
        export_review(findings, str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["human_label"] = "fantastic"
        header = {**json.loads(lines[0]), "finding_count": 1}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ReviewError, match="illegal label value"):
            apply_review_records(findings, parse_review_file(str(path), {}))

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "review.jsonl"
        path.write_text('{"platform": "p"}\n')
        with pytest.raises(ReviewError, match="not a header"):
            parse_review_file(str(path), {})

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "review.jsonl"
        path.write_text("")
        with pytest.raises(ReviewError, match="empty review file"):
            parse_review_file(str(path), {})

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "review.jsonl"
        path.write_text('{"record_type": "header", "format": "other"}\n')
        with pytest.raises(ReviewError, match="unknown review format"):
            parse_review_file(str(path), {})

    def test_reapplication_is_idempotent(self, tmp_path):
        findings = self.build_findings()
        path = tmp_path / "review.jsonl"
        export_review(findings, str(path))
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for r in records:
            if r["detector"] == "sharing":
                r["human_label"] = "rejected"
        path.write_text("\n".join(
            [lines[0]] + [json.dumps(r) for r in records]) + "\n")
        records = parse_review_file(str(path), {})
        apply_review_records(findings, records)
        post1 = score_findings(findings, 3)["post_review"]["scores"]
        apply_review_records(findings, records)
        post2 = score_findings(findings, 3)["post_review"]["scores"]
        assert post1 == post2
        assert aggregate_counts(findings, use_review=True).ss == 0

    # false, 0, [] and {} are not "no label": a results file refuses them.
    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=field + suffix)
        for field in ("human_label", "reviewer_note")
        for suffix, value in (("", 5), ("-false", False), ("-0", 0),
                              ("-list", []), ("-object", {}))])
    def test_non_string_label_or_note_raises(self, field, value):
        finding = make_finding("sharing", "specific")
        with pytest.raises(ReviewError, match="malformed review record"):
            apply_review_records([finding], [{
                "platform": "p", "sentence_index": 0, "detector": "sharing",
                "evidence_span": {"start": 0, "end": 4}, field: value}])

    def test_reviewer_note_preserved(self):
        finding = make_finding("sharing", "specific")
        (finding,) = apply_review_records([finding], [{
            "platform": "p", "sentence_index": 0, "detector": "sharing",
            "evidence_span": {"start": 0, "end": 4},
            "human_label": "", "reviewer_note": "checked against page",
        }])
        assert finding.human_label is None
        assert finding.reviewer_note == "checked against page"


class TestLexiconLoading:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LexiconError, match="lexicon not found"):
            load_specificity_lexicons(str(tmp_path / "absent"))

    def test_custom_dir(self, tmp_path):
        (tmp_path / "data_types.json").write_text(json.dumps(
            {"categories": {"identifiers": ["email address"]}}))
        (tmp_path / "entities.json").write_text(json.dumps(
            {"curated": ["Acme"], "corporate_suffixes": ["Inc"],
             "generic_descriptors": []}))
        (tmp_path / "retention.json").write_text(json.dumps(
            {"retention_verbs": ["keep"], "duration_units": ["days"],
             "vague_phrases": ["as long as necessary"]}))
        (tmp_path / "sharing.json").write_text(json.dumps(
            {"sharing_verbs": ["share"], "specific_cues": ["fraud detection"],
             "generic_cues": ["to provide our services"],
             "negation_cues": ["do not share"]}))
        lex = load_specificity_lexicons(str(tmp_path))
        assert lex.known_entities == ("Acme",)

    @pytest.mark.parametrize("name, edit, message", [
        ("sharing.json", lambda d: [], "is not a JSON object"),
        ("sharing.json", lambda d: {**d, "sharing_verbs": "share"},
         "sharing.sharing_verbs: must be a list of non-empty strings"),
        ("sharing.json", lambda d: {**d, "negation_cues": ["do not", 5]},
         "sharing.negation_cues: must be a list"),
        ("entities.json", lambda d: {**d, "generic_descriptors": "partners"},
         "entities.generic_descriptors: must be a list"),
        ("data_types.json", lambda d: {"categories": ["email"]},
         "no categories object"),
        ("data_types.json", lambda d: {"categories": {"ids": "email"}},
         "data_types.categories.ids: must be a list"),
    ], ids=["sharing_list", "verbs_string", "cue_not_string",
            "descriptors_string", "categories_list", "category_string"])
    def test_wrong_shape_rejected(self, tmp_path, name, edit, message):
        shipped = json.loads((Path(specificity.__file__).parent / "data"
                              / name).read_text(encoding="utf-8"))
        (tmp_path / name).write_text(json.dumps(edit(shipped)))
        with pytest.raises(LexiconError, match=message):
            load_specificity_lexicons(str(tmp_path))

    def edited_lexicons(self, tmp_path, name, edit):
        """The shipped lexicons, but for one file edited, and their index."""
        shipped = json.loads((Path(specificity.__file__).parent / "data"
                              / name).read_text(encoding="utf-8"))
        (tmp_path / name).write_text(json.dumps(edit(shipped)))
        lex = load_specificity_lexicons(str(tmp_path))
        index = LexiconIndex()
        index_lexicons(index, lex)
        return lex, index

    def test_data_type_phrase_is_stripped(self, tmp_path):
        lex, index = self.edited_lexicons(
            tmp_path, "data_types.json",
            lambda d: {"categories": {"contact": ["  email  "]}})
        assert lex.data_types == {"contact": ("email",)}
        s = sentence_of("We collect your email.")
        assert labels_of(detect_data_types(index.scan(s), lex)) == ["email"]

    def test_generic_descriptor_is_stripped(self, tmp_path):
        lex, index = self.edited_lexicons(
            tmp_path, "entities.json",
            lambda d: {**d, "generic_descriptors": [
                "  business partners llc  "]})
        s = sentence_of("We work with Business Partners LLC daily.")
        assert detect_entities(index.scan(s), lex) == []

    def test_duplicate_entry_rejected(self, tmp_path):
        (tmp_path / "data_types.json").write_text(json.dumps(
            {"categories": {"a": ["email"], "b": ["Email"]}}))
        (tmp_path / "entities.json").write_text(json.dumps(
            {"curated": ["Acme"], "corporate_suffixes": ["Inc"]}))
        (tmp_path / "retention.json").write_text(json.dumps(
            {"retention_verbs": ["keep"], "duration_units": ["days"],
             "vague_phrases": ["x y"]}))
        (tmp_path / "sharing.json").write_text(json.dumps(
            {"sharing_verbs": ["share"], "specific_cues": ["a b"],
             "generic_cues": ["c d"], "negation_cues": ["e f"]}))
        with pytest.raises(LexiconError, match="duplicate entry"):
            load_specificity_lexicons(str(tmp_path))


_LABELS = {
    "data_type": st.sampled_from(["email address", "Email Address", "ip"]),
    "entity": st.sampled_from(["Meta", "meta", "Acme Inc."]),
    "retention": st.sampled_from(specificity.RETENTION_LABELS),
    "sharing": st.sampled_from(specificity.SHARING_LABELS),
}
_FINDINGS = st.lists(st.sampled_from(specificity.DETECTORS).flatmap(
    lambda detector: st.builds(
        make_finding, st.just(detector), _LABELS[detector],
        sentence_index=st.integers(0, 5),
        span=st.tuples(st.integers(0, 3), st.integers(4, 8)))), max_size=30,
    # apply_review_records refuses two findings under one review key.
    unique_by=lambda f: (f.sentence_index, f.detector, f.evidence_span))


class TestEmptyReview:
    @settings(deadline=None)
    @given(findings=_FINDINGS, sentence_count=st.integers(0, 8))
    def test_post_review_equals_auto(self, findings, sentence_count):
        apply_review_records(findings, [])
        scored = score_findings(findings, sentence_count)
        auto, post = scored["auto"], scored["post_review"]
        assert post["counts"] == auto["counts"]
        assert (auto["scores"]["stage"], post["scores"]["stage"]) == (
            "auto", "post_review")
        assert {**post["scores"], "stage": "auto"} == auto["scores"]


def reference_duration_ranges(folded_tokens, units):
    """_duration_ranges as it was, testing every token for a number."""
    ranges = []
    n = len(folded_tokens)
    for i, tok in enumerate(folded_tokens):
        if "-" in tok:
            head, _, tail = tok.rpartition("-")
            if tail in units and head and specificity._is_number_token(head):
                ranges.append((i, i))
                continue
        if not specificity._is_number_token(tok):
            continue
        for j in (i + 1, i + 2):
            if j < n and folded_tokens[j] in units:
                ranges.append((i, j))
                break
    return ranges


_UNITS = frozenset(u.lower() for u in SHIPPED.duration_units)
_DURATION_TOKENS = st.lists(st.sampled_from([
    "3", "30", "0", "thirty", "one", "thirty-one", "twenty-", "-five",
    "30-day", "ninety-day", "thirty-one-year", "x-day", "-day", "3-",
    "day", "days", "month", "years", "for", "up", "to", "we", "keep", "-",
]), max_size=20)


class TestDurationRanges:
    @settings(deadline=None)
    @given(tokens=_DURATION_TOKENS)
    def test_matches_reference(self, tokens):
        view = INDEX.scan(textprep.Sentence(
            0, " ".join(tokens), tuple(tokens), (0, 0)))
        assert specificity._duration_ranges(view, _UNITS) == \
            reference_duration_ranges(tokens, _UNITS)


def reference_suffix_re(lex):
    """The corporate-name pattern, which detect_entities ran with finditer."""
    name_part = r"[A-Z][A-Za-z0-9&'’.-]*"
    suffix_alt = "|".join(sorted(
        (re.escape(s) for s in lex.corporate_suffixes),
        key=len, reverse=True))
    return re.compile(
        rf"\b{name_part}(?:\s+{name_part})*,?\s+(?:{suffix_alt})\b\.?")


_ENTITY_WORDS = st.sampled_from([
    "Acme", "DATA", "Meta", "Platforms", "Google", "THE", "COMPANY", "O'Neil",
    "A.B.", "X-Ray", "x.Foo", "Ab.cd.Bar", "Dé", "éFoo", "Inc", "Inc.",
    "LLC", "Ltd", "Corp", "Corp.", "Corporation", "GmbH", "PLC",
    "Incorporated", "Inc.com", "Inc-x", "& Co", "Co.", "s.a.", "and", "with",
    "the", "partners", "vendors", "7", "(", ";",
])
_ENTITY_TEXT = st.lists(
    st.tuples(_ENTITY_WORDS, st.sampled_from(["", ","]),
              st.sampled_from([" ", " ", "  ", "\n", " , "])),
    max_size=30).map(lambda parts: "".join(w + c + sep for w, c, sep in parts))
# A lexicon's suffixes need not be capitalized words.
_SUFFIX_SETS = {"shipped": None, "custom": ("Inc", "& Co", "s.a.", "Co")}


class TestCorporateNames:
    @pytest.mark.parametrize("suffixes", list(_SUFFIX_SETS.values()),
                             ids=list(_SUFFIX_SETS))
    @settings(deadline=None)
    @given(text=_ENTITY_TEXT)
    def test_matches_reference(self, lex, suffixes, text):
        if suffixes is not None:
            lex = SpecificityLexicons(
                lex.data_types, lex.known_entities, suffixes,
                lex.retention_verbs, lex.vague_retention_phrases,
                lex.duration_units, lex.sharing_verbs,
                lex.specific_purpose_cues, lex.generic_purpose_cues,
                lex.negation_cues, lex.generic_descriptors)
        old = reference_suffix_re(lex)
        assert [m.span() for m in lex.corporate_names(text)] == \
            [m.span() for m in old.finditer(text)]
        oracle = copy.copy(lex)
        oracle.corporate_names = old.finditer
        sentence = textprep.Sentence(0, text, tuple(
            textprep.tokenize_words(text)), (0, len(text)))
        view = INDEX.scan(sentence)
        assert detect_entities(view, lex) == detect_entities(view, oracle)

    @pytest.mark.parametrize("suffixes", [None, ("Inc", "Corp"), ()],
                             ids=["shipped", "custom", "empty"])
    @settings(deadline=None, max_examples=300)
    @given(text=st.lists(st.tuples(st.sampled_from([
        "Inc's", "Inc-X", "Acme, Inc.", "Corporations", "Acme", "Inc",
        "Corp.", "the", "BIG", "7", "é"]), st.sampled_from([" ", "", "\n"])),
        max_size=12).map(lambda parts: "".join(w + sep for w, sep in parts)))
    def test_suffix_check_keeps_every_match(self, lex, suffixes, text):
        # An empty suffix list matches at any word boundary.
        if suffixes is not None:
            lex = SpecificityLexicons(
                lex.data_types, lex.known_entities, suffixes,
                lex.retention_verbs, lex.vague_retention_phrases,
                lex.duration_units, lex.sharing_verbs,
                lex.specific_purpose_cues, lex.generic_purpose_cues,
                lex.negation_cues, lex.generic_descriptors)
        unfiltered = [m for m in lex.corporate_re.finditer(text)
                      if m["bare"] is None]
        assert [(m.span(), m.group(0)) for m in lex.corporate_names(text)] \
            == [(m.span(), m.group(0)) for m in unfiltered]

    def test_caps_run_with_a_suffix_is_linear(self, lex):
        text = " ".join(["LIABLE", "FOR", "ANY", "DAMAGES"] * 5000)
        start = time.perf_counter()
        names = lex.corporate_names(f"{text}; Acme Inc. agrees.")
        assert [m.group(0) for m in names] == ["Acme Inc."]
        assert time.perf_counter() - start < 2.0

    def test_caps_run_is_linear(self, lex):
        # suffix_re.finditer takes over a minute on this run.
        text = " ".join(["LIABLE", "FOR", "ANY", "DAMAGES"] * 5000) + "."
        start = time.perf_counter()
        assert list(lex.corporate_names(text)) == []
        assert time.perf_counter() - start < 2.0
