"""Readability formulas, difficulty bands, and reading-time estimates.

Seven classic formulas computed from DocStats, an easy/moderate/hard
band per formula, and words-per-minute fluency estimates for three
reader groups.
"""

import math
import sys
from typing import NamedTuple

from . import inputs
from .errors import DegenerateDocumentError, LexiconError

METRICS = (
    "flesch_reading_ease",
    "gunning_fog",
    "flesch_kincaid_grade",
    "coleman_liau",
    "smog",
    "lensear",
    "ari",
)

EASY = "easy"
MODERATE = "moderate"
HARD = "hard"


class ReadabilityProfile(NamedTuple):
    flesch_reading_ease: float
    gunning_fog: float
    flesch_kincaid_grade: float
    coleman_liau: float
    smog: float
    lensear: float
    ari: float


class ReaderGroup(NamedTuple):
    name: str
    wpm_low: float
    wpm_high: float


class FluencyEstimate(NamedTuple):
    minutes_low: float
    minutes_high: float


def compute_readability_profile(stats, classic_lensear=False):
    """Evaluate all seven formulas on one document's statistics.

    classic_lensear applies the traditional halving adjustment to the
    Lensear raw score; the default reports the raw easy/hard weighted
    ratio unadjusted.
    """
    if stats.degenerate or stats.word_count < 1 or stats.sentence_count < 1:
        raise DegenerateDocumentError("degenerate document")
    words = stats.word_count
    sentences = stats.sentence_count
    syllables = stats.syllable_count
    wps = words / sentences
    spw = syllables / words

    flesch = 206.835 - 1.015 * wps - 84.6 * spw
    fog = 0.4 * (wps + 100.0 * stats.complex_word_count / words)
    fk = 0.39 * wps + 11.8 * spw - 15.59
    cli = (0.0588 * stats.letters_per_100_words
           - 0.296 * stats.sentences_per_100_words - 15.8)
    smog = 1.0430 * math.sqrt(stats.polysyllable_count * 30.0 / sentences) + 3.1291
    lensear = (stats.easy_word_count * 1.0 + stats.hard_word_count * 3.0) / sentences
    if classic_lensear:
        lensear = lensear / 2.0 if lensear > 20.0 else lensear / 2.0 - 1.0
    ari = (4.71 * stats.character_count / words + 0.5 * wps - 21.43)

    return ReadabilityProfile(
        flesch_reading_ease=flesch,
        gunning_fog=fog,
        flesch_kincaid_grade=fk,
        coleman_liau=cli,
        smog=smog,
        lensear=lensear,
        ari=ari,
    )


def classify_band(metric, score):
    """Band a score as easy, moderate, or hard."""
    if metric == "flesch_reading_ease":
        if score >= 60.0:
            band = EASY
        elif score >= 30.0:
            band = MODERATE
        else:
            band = HARD
    elif metric == "gunning_fog":
        if score <= 8.0:
            band = EASY
        elif score < 12.0:
            band = MODERATE
        else:
            band = HARD
    elif metric in ("flesch_kincaid_grade", "coleman_liau", "smog"):
        if score <= 8.0:
            band = EASY
        elif score < 13.0:
            band = MODERATE
        else:
            band = HARD
    elif metric in ("lensear", "ari"):
        if score <= 9.0:
            band = EASY
        elif score < 13.0:
            band = MODERATE
        else:
            band = HARD
    else:
        raise ValueError(f"unknown metric: {metric}")
    return band


def profile_bands(profile):
    """Band every metric of a profile; returns metric -> band string."""
    return {m: classify_band(m, getattr(profile, m)) for m in METRICS}


def estimate_reading_time(word_count, group):
    """Minutes to read word_count words at the group's WPM range."""
    if word_count < 0:
        raise ValueError("negative word count")
    if group.wpm_low <= 0 or group.wpm_high <= 0:
        raise ValueError("wpm must be positive")
    return FluencyEstimate(
        minutes_low=word_count / group.wpm_high,
        minutes_high=word_count / group.wpm_low,
    )


def _is_positive_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def load_reader_groups(path=None):
    """Load reader groups from JSON; defaults to the shipped table."""
    data = inputs.read_json(path or inputs.shipped("reader_groups.json"),
                            LexiconError, "reader groups", top=object)
    groups = data.get("groups") if isinstance(data, dict) else data
    if not isinstance(groups, list):
        raise LexiconError("reader groups must be a list")
    out = []
    for item in groups:
        if not (isinstance(item, dict) and isinstance(item.get("name"), str)
                and all(_is_positive_number(item.get(k))
                        for k in ("wpm_low", "wpm_high"))):
            raise LexiconError(
                "reader group needs a string name and positive numeric "
                f"wpm_low and wpm_high: {item!r}")
        group = ReaderGroup(
            name=item["name"],
            wpm_low=float(item["wpm_low"]),
            wpm_high=float(item["wpm_high"]),
        )
        if group.wpm_low > group.wpm_high:
            raise LexiconError(f"wpm_low > wpm_high for group {group.name}")
        if any(g.name == group.name for g in out):
            raise LexiconError(f"duplicate reader group name {group.name!r}")
        out.append(group)
    if not out:
        raise LexiconError("no reader groups defined")
    return out
