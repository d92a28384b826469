import pytest

from tosaudit.matching import PhraseMatcher


def build(phrases, fold_case=True):
    matcher = PhraseMatcher(fold_case=fold_case)
    for phrase in phrases:
        matcher.add(phrase, phrase)
    return matcher


class TestPhraseMatcher:
    def test_single_word(self):
        matcher = build(["may"])
        hits = matcher.find("You may proceed.")
        assert len(hits) == 1
        start, end, payload, surface = hits[0]
        assert payload == "may"
        assert surface == "may"
        assert "You may proceed."[start:end] == "may"

    def test_longest_match_wins(self):
        matcher = build(["certain", "certain information"])
        hits = matcher.find("We share certain information today.")
        assert [h[2] for h in hits] == ["certain information"]

    def test_shorter_match_when_long_absent(self):
        matcher = build(["certain", "certain information"])
        hits = matcher.find("certain data")
        assert [h[2] for h in hits] == ["certain"]

    def test_non_overlapping_left_to_right(self):
        matcher = build(["a b", "b c"])
        hits = matcher.find("a b c")
        assert [h[2] for h in hits] == ["a b"]

    def test_punctuation_transparent(self):
        matcher = build(["time to time"])
        hits = matcher.find("From time, to time; things change.")
        assert len(hits) == 1
        assert hits[0][3] == "time, to time"

    def test_hyphenated_token_is_distinct(self):
        matcher = build(["third party"])
        assert matcher.find("a third-party vendor") == []
        assert len(matcher.find("a third party vendor")) == 1

    def test_hyphenated_phrase_matches_itself(self):
        matcher = build(["third-party"])
        assert len(matcher.find("a third-party vendor")) == 1
        assert matcher.find("a third party vendor") == []

    def test_case_folding_default(self):
        matcher = build(["may"])
        assert len(matcher.find("MAY we?")) == 1

    def test_case_sensitive_mode(self):
        matcher = build(["Meta"], fold_case=False)
        assert len(matcher.find("Meta announced.")) == 1
        assert matcher.find("meta announced.") == []

    def test_word_boundaries_respected(self):
        matcher = build(["may"])
        assert matcher.find("dismayed maybe") == []

    def test_repeated_occurrences_all_found(self):
        matcher = build(["may"])
        assert len(matcher.find("may may may")) == 3

    def test_surface_preserves_original_case(self):
        matcher = build(["third parties"])
        hits = matcher.find("Third Parties involved")
        assert hits[0][3] == "Third Parties"

    def test_duplicate_phrase_raises(self):
        matcher = build(["may"])
        with pytest.raises(ValueError):
            matcher.add("May", "other")

    def test_tokenless_phrase_raises(self):
        matcher = PhraseMatcher()
        with pytest.raises(ValueError):
            matcher.add("!!!", "x")

    def test_len(self):
        assert len(build(["a", "b", "c d"])) == 3
