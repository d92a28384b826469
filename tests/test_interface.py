import pytest

from conftest import store_assessment
from tosaudit import textprep
from tosaudit.errors import AssessmentError
from tosaudit.interface_assess import (
    METRIC_RANGES, METRICS, EvidenceRecord, InterfaceAssessment,
    assessment_from_dict, assessment_to_dict,
    load_assessment, validate_assessment,
)

DOC_TEXT = (
    "Welcome to the service. If you do not agree to these terms, do not "
    "use the service. You may delete your account at any time."
)


def make_valid():
    return InterfaceAssessment(
        platform="demo",
        unticked_checkbox=0,
        review_before_consent=0,
        separate_consent_steps=0,
        explicit_denial=1,
        reversibility_cue=1,
        evidence=[
            EvidenceRecord(
                metric="explicit_denial",
                excerpt="If you do not agree to these terms, do not use "
                        "the service."),
            EvidenceRecord(
                metric="reversibility_cue",
                excerpt="You may delete your account at any time."),
        ],
        assessor="reviewer",
        assessed_at="2025-12-01T00:00:00Z",
    )


class TestValidate:
    def test_valid_without_doc(self):
        assert validate_assessment(make_valid()) == []

    def test_valid_against_doc(self):
        doc = textprep.build_document("demo", DOC_TEXT)
        assert validate_assessment(make_valid(), doc) == []

    def test_missing_platform(self):
        a = make_valid()._replace(platform="")
        assert "missing platform" in validate_assessment(a)

    @pytest.mark.parametrize("platform", [5, None, ["demo"]])
    def test_platform_must_be_a_string(self, platform):
        a = make_valid()._replace(platform=platform)
        assert validate_assessment(a) == ["platform is not a string"]

    def test_platform_must_be_the_documents(self):
        doc = textprep.build_document("other", DOC_TEXT)
        assert validate_assessment(make_valid(), doc) == [
            "platform 'demo' is not the document's 'other'"]

    def test_all_zero_needs_no_evidence(self):
        a = InterfaceAssessment(platform="demo")
        assert validate_assessment(a) == []

    @pytest.mark.parametrize("metric", METRICS)
    def test_above_range_rejected(self, metric):
        hi = METRIC_RANGES[metric][1]
        a = InterfaceAssessment(platform="demo", **{metric: hi + 1})
        errors = validate_assessment(a)
        assert f"{metric}: score {hi + 1} out of range 0..{hi}" in errors

    def test_negative_rejected(self):
        a = InterfaceAssessment(platform="demo", explicit_denial=-1)
        errors = validate_assessment(a)
        assert "explicit_denial: score -1 out of range 0..2" in errors

    def test_bool_rejected(self):
        a = InterfaceAssessment(platform="demo", unticked_checkbox=True)
        errors = validate_assessment(a)
        assert "unticked_checkbox: score must be an integer" in errors

    def test_string_rejected(self):
        a = InterfaceAssessment(platform="demo", reversibility_cue="2")
        errors = validate_assessment(a)
        assert "reversibility_cue: score must be an integer" in errors

    def test_nonzero_without_evidence(self):
        a = InterfaceAssessment(platform="demo", explicit_denial=1)
        errors = validate_assessment(a)
        assert errors == ["explicit_denial: nonzero score without evidence"]

    def test_unknown_evidence_metric(self):
        a = InterfaceAssessment(
            platform="demo", explicit_denial=1,
            evidence=[EvidenceRecord(metric="charisma", excerpt="hello")])
        errors = validate_assessment(a)
        assert "evidence[0]: unknown metric 'charisma'" in errors
        # evidence under an unknown metric cannot back any score
        assert "explicit_denial: nonzero score without evidence" in errors

    def test_empty_excerpt(self):
        a = InterfaceAssessment(
            platform="demo", explicit_denial=1,
            evidence=[EvidenceRecord(metric="explicit_denial", excerpt="")])
        errors = validate_assessment(a)
        assert "evidence[0]: empty excerpt" in errors
        assert "explicit_denial: nonzero score without evidence" in errors

    def test_excerpt_must_be_substring_of_doc(self):
        doc = textprep.build_document("demo", DOC_TEXT)
        a = make_valid()
        a.evidence[0] = a.evidence[0]._replace(
            excerpt="This sentence never appears.")
        errors = validate_assessment(a, doc)
        assert errors == [
            "evidence[0]: excerpt is not a verbatim substring of the document"
        ]

    def test_substring_unchecked_without_doc(self):
        a = make_valid()
        a.evidence[0] = a.evidence[0]._replace(
            excerpt="This sentence never appears.")
        assert validate_assessment(a) == []

    def test_multiple_errors_accumulate(self):
        a = InterfaceAssessment(
            platform="", unticked_checkbox=5, explicit_denial=1)
        errors = validate_assessment(a)
        assert errors == [
            "missing platform",
            "unticked_checkbox: score 5 out of range 0..1",
            "unticked_checkbox: nonzero score without evidence",
            "explicit_denial: nonzero score without evidence",
        ]


class TestSerialization:
    def test_round_trip(self):
        a = make_valid()
        back = assessment_from_dict(assessment_to_dict(a))
        assert back == a

    def test_dict_shape(self):
        d = assessment_to_dict(make_valid())
        assert d["platform"] == "demo"
        assert d["explicit_denial"] == 1
        assert d["evidence"][0]["metric"] == "explicit_denial"
        assert d["assessor"] == "reviewer"

    def test_missing_scores_default_to_zero(self):
        a = assessment_from_dict({"platform": "demo"})
        assert all(getattr(a, m) == 0 for m in METRICS)

    def test_malformed_dict_raises(self):
        with pytest.raises(AssessmentError, match="malformed assessment"):
            assessment_from_dict({"evidence": []})

    def test_malformed_evidence_raises(self):
        with pytest.raises(AssessmentError, match="malformed assessment"):
            assessment_from_dict(
                {"platform": "demo", "evidence": [{"excerpt": "x"}]})


class TestStorage:
    def test_store_and_load(self, tmp_path):
        a = make_valid()
        path = store_assessment(str(tmp_path), a)
        assert path.endswith("demo.json")
        assert load_assessment(path) == a

    def test_store_refuses_overwrite(self, tmp_path):
        store_assessment(str(tmp_path), make_valid())
        with pytest.raises(AssessmentError, match="already exists"):
            store_assessment(str(tmp_path), make_valid())

    def test_store_overwrite_flag(self, tmp_path):
        store_assessment(str(tmp_path), make_valid())
        a = make_valid()._replace(explicit_denial=2)
        store_assessment(str(tmp_path), a, overwrite=True)
        assert load_assessment(str(tmp_path / "demo.json")) == a

    def test_load_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(AssessmentError, match="malformed assessment file"):
            load_assessment(str(path))

