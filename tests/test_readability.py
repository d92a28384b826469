import json
import math

import pytest

from tosaudit import readability, textprep
from tosaudit.errors import DegenerateDocumentError, LexiconError
from tosaudit.readability import ReaderGroup
from tosaudit.textprep import DocStats


def make_stats(words, sentences, syllables, letters, chars, complex_words):
    return DocStats(
        word_count=words,
        sentence_count=sentences,
        syllable_count=syllables,
        letter_count=letters,
        character_count=chars,
        complex_word_count=complex_words,
        polysyllable_count=complex_words,
        easy_word_count=words - complex_words,
        hard_word_count=complex_words,
        letters_per_100_words=100.0 * letters / words,
        sentences_per_100_words=100.0 * sentences / words,
    )


class TestComputeProfile:
    def test_simple_sentence_values(self):
        # "The cat sat on the mat.": 6 words, 1 sentence, 6 syllables,
        # 17 letters, 0 complex words.
        stats = make_stats(6, 1, 6, 17, 17, 0)
        profile = readability.compute_readability_profile(stats)
        assert profile.flesch_reading_ease == pytest.approx(116.145)
        assert profile.gunning_fog == pytest.approx(2.4)
        assert profile.flesch_kincaid_grade == pytest.approx(-1.45)
        assert profile.coleman_liau == pytest.approx(
            0.0588 * (1700 / 6) - 0.296 * (100 / 6) - 15.8)
        assert profile.smog == pytest.approx(3.1291)
        assert profile.lensear == pytest.approx(6.0)
        assert profile.ari == pytest.approx(-5.085)

    def test_from_real_text(self):
        doc = textprep.build_document("t", "The cat sat on the mat.")
        profile = readability.compute_readability_profile(doc.stats)
        assert profile.ari == pytest.approx(-5.085)

    def test_lensear_weights_hard_words(self):
        easy_only = make_stats(10, 2, 10, 40, 40, 0)
        with_hard = make_stats(10, 2, 16, 40, 40, 2)
        p1 = readability.compute_readability_profile(easy_only)
        p2 = readability.compute_readability_profile(with_hard)
        assert p1.lensear == pytest.approx(5.0)
        # 8 easy + 2 hard over 2 sentences: (8 + 6) / 2
        assert p2.lensear == pytest.approx(7.0)

    def test_classic_lensear_low_branch(self):
        stats = make_stats(10, 2, 10, 40, 40, 0)  # raw 5.0 <= 20
        profile = readability.compute_readability_profile(
            stats, classic_lensear=True)
        assert profile.lensear == pytest.approx(5.0 / 2 - 1)

    def test_classic_lensear_high_branch(self):
        stats = make_stats(30, 1, 30, 90, 90, 0)  # raw 30.0 > 20
        profile = readability.compute_readability_profile(
            stats, classic_lensear=True)
        assert profile.lensear == pytest.approx(15.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDocumentError, match="degenerate"):
            readability.compute_readability_profile(DocStats(degenerate=True))

    def test_pure_function(self):
        stats = make_stats(12, 2, 19, 60, 62, 3)
        p1 = readability.compute_readability_profile(stats)
        p2 = readability.compute_readability_profile(stats)
        assert p1 == p2


class TestClassifyBand:
    @pytest.mark.parametrize("score,band", [
        (60.0, "easy"), (75.0, "easy"),
        (59.9, "moderate"), (30.0, "moderate"),
        (29.9, "hard"), (0.0, "hard"),
    ])
    def test_flesch(self, score, band):
        assert readability.classify_band("flesch_reading_ease", score) == band

    @pytest.mark.parametrize("score,band", [
        (8.0, "easy"), (8.1, "moderate"), (11.9, "moderate"), (12.0, "hard"),
    ])
    def test_fog(self, score, band):
        assert readability.classify_band("gunning_fog", score) == band

    @pytest.mark.parametrize("metric", [
        "flesch_kincaid_grade", "coleman_liau", "smog",
    ])
    @pytest.mark.parametrize("score,band", [
        (8.0, "easy"), (8.1, "moderate"), (12.9, "moderate"), (13.0, "hard"),
    ])
    def test_grade_metrics(self, metric, score, band):
        assert readability.classify_band(metric, score) == band

    @pytest.mark.parametrize("metric", ["lensear", "ari"])
    @pytest.mark.parametrize("score,band", [
        (9.0, "easy"), (9.1, "moderate"), (12.9, "moderate"), (13.0, "hard"),
    ])
    def test_nine_thirteen_metrics(self, metric, score, band):
        assert readability.classify_band(metric, score) == band

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            readability.classify_band("lexile", 1.0)

    def test_profile_bands_covers_all_metrics(self):
        stats = make_stats(12, 2, 19, 60, 62, 3)
        profile = readability.compute_readability_profile(stats)
        bands = readability.profile_bands(profile)
        assert set(bands) == set(readability.METRICS)
        assert all(b in ("easy", "moderate", "hard") for b in bands.values())


class TestReadingTime:
    def test_range(self):
        group = ReaderGroup("g", 100.0, 200.0)
        est = readability.estimate_reading_time(1000, group)
        assert est.minutes_low == pytest.approx(5.0)
        assert est.minutes_high == pytest.approx(10.0)

    def test_single_speed_group(self):
        group = ReaderGroup("g", 150.0, 150.0)
        est = readability.estimate_reading_time(300, group)
        assert est.minutes_low == est.minutes_high == pytest.approx(2.0)

    def test_zero_words(self):
        group = ReaderGroup("g", 100.0, 200.0)
        est = readability.estimate_reading_time(0, group)
        assert est.minutes_low == est.minutes_high == 0.0

    def test_negative_words_raises(self):
        with pytest.raises(ValueError):
            readability.estimate_reading_time(-1, ReaderGroup("g", 1.0, 2.0))

    def test_nonpositive_wpm_raises(self):
        with pytest.raises(ValueError):
            readability.estimate_reading_time(10, ReaderGroup("g", 0.0, 2.0))


class TestReaderGroups:
    def test_shipped_table(self):
        groups = {g.name: g for g in readability.load_reader_groups()}
        assert set(groups) == {"child_oral", "adult_oral", "adult_silent"}
        assert (groups["child_oral"].wpm_low,
                groups["child_oral"].wpm_high) == (120.0, 128.0)
        assert (groups["adult_oral"].wpm_low,
                groups["adult_oral"].wpm_high) == (183.0, 183.0)
        assert (groups["adult_silent"].wpm_low,
                groups["adult_silent"].wpm_high) == (238.0, 238.0)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "reader_groups.json"
        path.write_text(
            '{"groups": [{"name": "fast", "wpm_low": 300, "wpm_high": 400}]}')
        groups = readability.load_reader_groups(str(tmp_path))
        assert groups[0] == ReaderGroup("fast", 300.0, 400.0)

    def test_inverted_range_rejected(self, tmp_path):
        path = tmp_path / "reader_groups.json"
        path.write_text(
            '{"groups": [{"name": "bad", "wpm_low": 400, "wpm_high": 300}]}')
        with pytest.raises(LexiconError):
            readability.load_reader_groups(str(tmp_path))


    @pytest.mark.parametrize("group", [
        {"name": "x", "wpm_low": 100},
        {"wpm_low": 100, "wpm_high": 200},
        {"name": 7, "wpm_low": 100, "wpm_high": 200},
        {"name": "x", "wpm_low": "fast", "wpm_high": 200},
        {"name": "x", "wpm_low": 0, "wpm_high": 200},
        {"name": "x", "wpm_low": True, "wpm_high": 200},
        "x",
        {"name": "x", "wpm_low": 100, "wpm_high": 10 ** 400},
        {"name": "x", "wpm_low": 100, "wpm_high": float("inf")},
    ])
    def test_malformed_group_rejected(self, tmp_path, group):
        path = tmp_path / "reader_groups.json"
        path.write_text(json.dumps({"groups": [group]}))
        with pytest.raises(LexiconError, match="reader group needs"):
            readability.load_reader_groups(str(tmp_path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "reader_groups.json"
        path.write_text("{nope")
        with pytest.raises(LexiconError, match="malformed reader groups"):
            readability.load_reader_groups(str(tmp_path))


class TestSmogUsesSqrt:
    def test_known_polysyllable_load(self):
        stats = make_stats(30, 2, 60, 150, 150, 6)
        profile = readability.compute_readability_profile(stats)
        assert profile.smog == pytest.approx(
            1.0430 * math.sqrt(6 * 30 / 2) + 3.1291)
