"""Acceptance suite: nine criteria covering the audit pipeline.

Each test prints one "[criterion N] name: PASS|FAIL" line (visible
with pytest -s) and enforces the stated tolerance and runtime budget.
Reference values are frozen from the published thirteen-platform
social-media audit this package reproduces; micro-text oracles are
hand-evaluated from the formula definitions and recorded inline.
"""

import json
import math
import random
import time

import pytest

from conftest import build_fixture_corpus, run_cli
from tosaudit import clarity, readability, report, textprep
from tosaudit.interface_assess import (
    EvidenceRecord, InterfaceAssessment, assessment_to_dict,
    validate_assessment,
)
from tosaudit.matching import LexiconIndex
from tosaudit.pipeline import (
    apply_review_to_results, export_review_from_results,
)
from tosaudit.readability import (
    METRICS, classify_band, compute_readability_profile,
    estimate_reading_time, load_reader_groups,
)
from tosaudit.specificity import SpecificityCounts, map_scores


def check(num, name, mismatches, elapsed, budget_s):
    if elapsed >= budget_s:
        mismatches.append(
            f"runtime {elapsed:.3f}s exceeds the {budget_s}s budget")
    status = "FAIL" if mismatches else "PASS"
    print(f"[criterion {num}] {name}: {status}")
    assert not mismatches, "\n".join(str(m) for m in mismatches)


# Reference post-review count rows and the sub-scores / composite each
# must map to: platform -> ((dt, en, re_explicit, re_vague, sg, ss),
#                           (dt_s, en_s, r_s, s_s, composite)).
RUBRIC_ROWS = {
    "bluesky": ((10, 4, 0, 0, 0, 2), (2, 2, 0, 1, 1.25)),
    "instagram": ((11, 4, 0, 0, 2, 3), (2, 2, 0, 2, 1.5)),
    "linkedin": ((14, 5, 0, 0, 0, 1), (2, 2, 0, 1, 1.25)),
    "mastodon": ((6, 2, 0, 0, 0, 1), (2, 1, 0, 1, 1.0)),
    "meta": ((15, 5, 0, 0, 3, 4), (2, 2, 0, 2, 1.5)),
    "pinterest": ((13, 3, 0, 0, 1, 1), (2, 2, 0, 1, 1.25)),
    "reddit": ((13, 3, 0, 0, 0, 0), (2, 2, 0, 0, 1.0)),
    "spotify": ((8, 4, 0, 0, 0, 2), (2, 2, 0, 1, 1.25)),
    "tiktok": ((15, 11, 0, 0, 0, 1), (2, 2, 0, 1, 1.25)),
    "tumblr": ((13, 6, 0, 0, 0, 1), (2, 2, 0, 1, 1.25)),
    "whatsapp": ((13, 5, 2, 0, 1, 4), (2, 2, 2, 2, 2.0)),
    "x": ((16, 1, 0, 0, 1, 0), (2, 1, 0, 1, 1.0)),
    "youtube": ((9, 5, 0, 0, 0, 0), (2, 2, 0, 0, 1.0)),
}


def test_criterion_1_rubric_reproduction():
    start = time.perf_counter()
    mismatches = []
    for platform, (counts, expected) in RUBRIC_ROWS.items():
        dt, en, re_e, re_v, sg, ss = counts
        scores = map_scores(SpecificityCounts(
            dt=dt, en=en, re_explicit=re_e, re_vague=re_v, sg=sg, ss=ss))
        got = (scores.dt_s, scores.en_s, scores.r_s, scores.s_s,
               scores.composite)
        if got != expected:
            mismatches.append(f"{platform}: {got} != {expected}")
    check(1, "rubric reproduction", mismatches,
          time.perf_counter() - start, 1.0)


# Reference vague-term density rows: platform -> (words, count, density %).
DENSITY_ROWS = {
    "bluesky": (3779, 121, 3.20),
    "instagram": (3296, 138, 4.19),
    "linkedin": (5073, 364, 7.18),
    "mastodon": (2088, 103, 4.93),
    "meta": (5443, 231, 4.24),
    "pinterest": (4819, 138, 2.86),
    "reddit": (7503, 396, 5.28),
    "spotify": (6110, 218, 3.57),
    "tiktok": (7497, 299, 3.99),
    "tumblr": (5934, 257, 4.33),
    "whatsapp": (5320, 271, 5.09),
    "x": (4348, 246, 5.66),
    "youtube": (3923, 134, 3.42),
}


def test_criterion_2_density_arithmetic():
    start = time.perf_counter()
    mismatches = []
    for platform, (words, count, expected) in DENSITY_ROWS.items():
        got = clarity.density_pct(count, words)
        if abs(got - expected) > 0.01:
            mismatches.append(
                f"{platform}: 100*{count}/{words} = {got:.4f}, "
                f"expected {expected} +/- 0.01")
    check(2, "density arithmetic", mismatches,
          time.perf_counter() - start, 1.0)


def test_criterion_3_reading_time():
    start = time.perf_counter()
    mismatches = []
    groups = {g.name: g for g in load_reader_groups()}

    # The two longest documents take an adult reading aloud past the
    # forty-minute mark.
    reddit = estimate_reading_time(7395, groups["adult_oral"])
    if abs(reddit.minutes_low - 40.41) > 0.1:
        mismatches.append(
            f"7395 words at adult_oral: {reddit.minutes_low:.4f} min, "
            "expected 40.41 +/- 0.1")
    tiktok = estimate_reading_time(7398, groups["adult_oral"])
    for est, label in ((reddit, "reddit"), (tiktok, "tiktok")):
        if not (est.minutes_low > 40 and est.minutes_high > 40):
            mismatches.append(f"{label}: expected both bounds above 40 min")

    # The shortest document read aloud to a child lands in 15-20 min.
    mastodon = estimate_reading_time(2055, groups["child_oral"])
    if abs(mastodon.minutes_low - 16.05) > 0.1:
        mismatches.append(
            f"2055 words child_oral low: {mastodon.minutes_low:.4f}, "
            "expected 16.05 +/- 0.1")
    if abs(mastodon.minutes_high - 17.13) > 0.1:
        mismatches.append(
            f"2055 words child_oral high: {mastodon.minutes_high:.4f}, "
            "expected 17.13 +/- 0.1")
    if not (15 <= mastodon.minutes_low <= mastodon.minutes_high <= 20):
        mismatches.append("child_oral estimate fell outside 15-20 minutes")
    check(3, "reading-time checks", mismatches,
          time.perf_counter() - start, 1.0)


# Five micro-texts with hand-computed statistics and hand-evaluated
# formula results. Stats tuples are (words, sentences, syllables,
# letters, characters, complex, easy, hard); expected profile values
# are manual evaluations of the seven formulas on those stats.
MICRO_TEXTS = [
    (
        "The cat sat on the mat.",
        (6, 1, 6, 17, 17, 0, 6, 0),
        {
            "flesch_reading_ease": 116.145,
            "gunning_fog": 2.4,
            "flesch_kincaid_grade": -1.45,
            "coleman_liau": 0.0588 * (1700 / 6) - 0.296 * (100 / 6) - 15.8,
            "smog": 3.1291,
            "lensear": 6.0,
            "ari": -5.085,
        },
    ),
    (
        "The wonderful elephant is dancing happily today. It sang a song.",
        (11, 2, 19, 52, 52, 3, 8, 3),
        {
            "flesch_reading_ease":
                206.835 - 1.015 * (11 / 2) - 84.6 * (19 / 11),
            "gunning_fog": 0.4 * (11 / 2 + 300 / 11),
            "flesch_kincaid_grade":
                0.39 * (11 / 2) + 11.8 * (19 / 11) - 15.59,
            "coleman_liau":
                0.0588 * (5200 / 11) - 0.296 * (200 / 11) - 15.8,
            "smog": 1.0430 * math.sqrt(45.0) + 3.1291,
            "lensear": (8 + 9) / 2,
            "ari": 4.71 * (52 / 11) + 0.5 * (11 / 2) - 21.43,
        },
    ),
    (
        "Retention lasts 30 days. We keep logs safe. Local laws may apply.",
        (12, 3, 16, 49, 51, 1, 11, 1),
        {
            "flesch_reading_ease": 206.835 - 1.015 * 4 - 84.6 * (16 / 12),
            "gunning_fog": 0.4 * (4 + 100 / 12),
            "flesch_kincaid_grade": 0.39 * 4 + 11.8 * (16 / 12) - 15.59,
            "coleman_liau": 0.0588 * (4900 / 12) - 0.296 * 25 - 15.8,
            "smog": 1.0430 * math.sqrt(10.0) + 3.1291,
            "lensear": (11 + 3) / 3,
            "ari": 4.71 * (51 / 12) + 0.5 * 4 - 21.43,
        },
    ),
    (
        "Do you accept? We think so!",
        (6, 2, 7, 20, 20, 0, 6, 0),
        {
            "flesch_reading_ease": 206.835 - 1.015 * 3 - 84.6 * (7 / 6),
            "gunning_fog": 1.2,
            "flesch_kincaid_grade": 0.39 * 3 + 11.8 * (7 / 6) - 15.59,
            "coleman_liau": 0.0588 * (2000 / 6) - 0.296 * (200 / 6) - 15.8,
            "smog": 3.1291,
            "lensear": 3.0,
            "ari": 4.71 * (20 / 6) + 0.5 * 3 - 21.43,
        },
    ),
    (
        "Wonderful elephants celebrate holidays. "
        "Animals generally dance happily.",
        (8, 2, 23, 63, 63, 7, 1, 7),
        {
            "flesch_reading_ease": -40.45,
            "gunning_fog": 0.4 * (4 + 700 / 8),
            "flesch_kincaid_grade": 0.39 * 4 + 11.8 * (23 / 8) - 15.59,
            "coleman_liau": 0.0588 * (6300 / 8) - 0.296 * 25 - 15.8,
            "smog": 1.0430 * math.sqrt(105.0) + 3.1291,
            "lensear": 11.0,
            "ari": 17.66125,
        },
    ),
]


def test_criterion_4_readability_oracle_fixtures():
    start = time.perf_counter()
    mismatches = []
    for text, stats_tuple, expected in MICRO_TEXTS:
        doc = textprep.build_document("micro", text)
        s = doc.stats
        got_stats = (s.word_count, s.sentence_count, s.syllable_count,
                     s.letter_count, s.character_count,
                     s.complex_word_count, s.easy_word_count,
                     s.hard_word_count)
        if got_stats != stats_tuple:
            mismatches.append(
                f"{text!r}: stats {got_stats} != hand counts {stats_tuple}")
            continue
        profile = compute_readability_profile(s)
        for metric, want in expected.items():
            got = getattr(profile, metric)
            if abs(got - want) > 1e-6:
                mismatches.append(
                    f"{text!r} {metric}: {got!r} != {want!r}")
    check(4, "readability oracle fixtures", mismatches,
          time.perf_counter() - start, 1.0)


# Reference readability scores and their difficulty bands, thirteen
# platforms by seven metrics (91 cells), in METRICS column order.
E, M, H = "easy", "moderate", "hard"
BAND_CELLS = {
    "bluesky": ((40.2, M), (16.2, H), (13.4, H), (12.4, M), (14.9, H),
                (11.3, M), (14.9, H)),
    "instagram": ((43.4, M), (15.2, H), (12.5, M), (11.3, M), (14.2, H),
                  (10.2, M), (13.2, H)),
    "linkedin": ((36.4, M), (17.4, H), (14.6, H), (11.8, M), (15.6, H),
                 (13.8, H), (15.8, H)),
    "mastodon": ((46.5, M), (13.4, H), (11.8, M), (10.9, M), (13.7, H),
                 (10.7, M), (12.2, M)),
    "meta": ((37.7, M), (17.3, H), (14.9, H), (11.6, M), (15.3, H),
             (13.8, H), (16.2, H)),
    "pinterest": ((43.9, M), (15.1, H), (12.9, M), (11.1, M), (13.9, H),
                  (11.8, M), (13.7, H)),
    "reddit": ((31.8, M), (19.2, H), (16.0, H), (11.9, M), (16.9, H),
               (10.3, M), (17.3, H)),
    "spotify": ((23.6, H), (22.1, H), (18.5, H), (13.0, H), (18.7, H),
                (24.7, H), (20.6, H)),
    "tiktok": ((28.9, H), (20.3, H), (17.3, H), (12.0, M), (17.4, H),
               (16.8, H), (18.9, H)),
    "tumblr": ((29.7, H), (19.3, H), (16.3, H), (12.7, M), (17.0, H),
               (6.9, E), (17.9, H)),
    "whatsapp": ((28.1, H), (19.6, H), (16.6, H), (12.5, M), (17.3, H),
                 (42.5, H), (17.8, H)),
    "x": ((29.0, H), (19.7, H), (16.6, H), (12.5, M), (17.3, H),
          (22.3, H), (18.3, H)),
    "youtube": ((36.3, M), (17.9, H), (15.4, H), (12.0, M), (15.6, H),
                (5.3, E), (17.2, H)),
}

ONE_SYLLABLE_FILLERS = (
    "dog", "sun", "mat", "rock", "lamp", "fish", "bird", "tree", "stone",
    "bread", "milk", "hand", "foot", "rain", "snow", "cloud", "ship", "road",
)


def _controlled_text(rng, planted):
    sentences = []
    plant_sentence = rng.randrange(rng.randint(2, 5))
    for i in range(max(plant_sentence + 1, rng.randint(2, 5))):
        words = [rng.choice(ONE_SYLLABLE_FILLERS)
                 for _ in range(rng.randint(4, 8))]
        if i == plant_sentence:
            words.insert(rng.randrange(len(words) + 1), planted)
        sentences.append("The " + " ".join(words) + ".")
    return " ".join(sentences)


def _profile_of(text):
    return compute_readability_profile(
        textprep.build_document("mono", text).stats)


def test_criterion_5_monotonicity_and_band_reproduction():
    start = time.perf_counter()
    mismatches = []
    rng = random.Random(42)
    band_rank = {E: 0, M: 1, H: 2}

    for trial in range(100):
        # "cat" (1 syllable) -> "window" (2) raises syllables only;
        # "window" -> "umbrella" (3) raises the complex-word count.
        template = _controlled_text(rng, "\x00")
        base = _profile_of(template.replace("\x00", "cat"))
        plus_syllable = _profile_of(template.replace("\x00", "window"))
        plus_complex = _profile_of(template.replace("\x00", "umbrella"))
        if not plus_syllable.flesch_reading_ease < base.flesch_reading_ease:
            mismatches.append(f"trial {trial}: flesch did not fall")
        if not plus_syllable.flesch_kincaid_grade > \
                base.flesch_kincaid_grade:
            mismatches.append(f"trial {trial}: grade level did not rise")
        if not plus_complex.gunning_fog > plus_syllable.gunning_fog:
            mismatches.append(f"trial {trial}: fog did not rise")
        if not plus_complex.smog > plus_syllable.smog:
            mismatches.append(f"trial {trial}: smog did not rise")

        # Purity: equal statistics give bitwise-equal profiles.
        again = _profile_of(template.replace("\x00", "cat"))
        if again != base:
            mismatches.append(f"trial {trial}: profile is not pure")

        # Reading time is linear in words, strictly decreasing in WPM.
        wc = rng.randint(100, 10000)
        group = readability.ReaderGroup("g", 120.0, 200.0)
        single = estimate_reading_time(wc, group)
        double = estimate_reading_time(2 * wc, group)
        if double.minutes_low != 2 * single.minutes_low or \
                double.minutes_high != 2 * single.minutes_high:
            mismatches.append(f"trial {trial}: reading time not linear")
        slow = rng.uniform(100, 250)
        fast = slow + rng.uniform(5, 100)
        faster = readability.ReaderGroup("f", fast, fast)
        slower = readability.ReaderGroup("s", slow, slow)
        if not estimate_reading_time(wc, faster).minutes_low < \
                estimate_reading_time(wc, slower).minutes_low:
            mismatches.append(f"trial {trial}: more WPM did not cut time")

        # Band monotonicity across each metric's plausible range.
        for metric in METRICS:
            a = rng.uniform(-20, 120) if metric == "flesch_reading_ease" \
                else rng.uniform(0, 45)
            b = a + rng.uniform(0.1, 30)
            rank_a = band_rank[classify_band(metric, a)]
            rank_b = band_rank[classify_band(metric, b)]
            if metric == "flesch_reading_ease":
                if rank_b > rank_a:
                    mismatches.append(
                        f"trial {trial}: flesch band not monotone")
            elif rank_b < rank_a:
                mismatches.append(
                    f"trial {trial}: {metric} band not monotone")

    cells = 0
    for platform, row in BAND_CELLS.items():
        for metric, (score, want) in zip(METRICS, row):
            got = classify_band(metric, score)
            cells += 1
            if got != want:
                mismatches.append(
                    f"{platform} {metric} {score}: {got} != {want}")
    if cells != 91:
        mismatches.append(f"expected 91 band cells, saw {cells}")
    check(5, "formula monotonicity and band reproduction", mismatches,
          time.perf_counter() - start, 5.0)


CLARITY_FILLERS = (
    "walrus", "green", "bicycle", "mountain", "river", "stone", "cloud",
    "window", "basket", "yellow", "quiet", "lamp", "garden", "pebble",
    "drift", "harbor", "violet", "timber", "orchid", "melon",
)
CLARITY_PLANTS = (
    "may", "might", "some", "generally", "typically", "various",
    "sometimes", "reasonably", "usually", "numerous",
)


def _vague_report(doc):
    """clarity's report of doc, from views of an index of the vague terms."""
    index = LexiconIndex()
    clarity.index_terms(index, clarity.load_vague_lexicon())
    return clarity.scan_vague_terms(doc, map(index.scan, doc.sentences))


def _scan_count(tokens):
    doc = textprep.build_document("fixture", " ".join(tokens) + ".")
    return _vague_report(doc).vague_count


def test_criterion_6_clarity_scanner():
    start = time.perf_counter()
    mismatches = []

    # K planted terms among N filler words are counted exactly.
    k, n = 7, 40
    rng = random.Random(7)
    tokens = [rng.choice(CLARITY_FILLERS) for _ in range(n)]
    positions = sorted(rng.sample(range(n + 1), k), reverse=True)
    for pos in positions:
        tokens.insert(pos, rng.choice(CLARITY_PLANTS))
    got = _scan_count(tokens)
    if got != k:
        mismatches.append(f"planted {k} terms, counted {got}")

    # Longest-match on the nesting fixture: exactly three matches.
    doc = textprep.build_document(
        "fixture", "We may share certain information with third parties.")
    nesting = _vague_report(doc)
    if nesting.vague_count != 3:
        mismatches.append(
            f"nesting fixture counted {nesting.vague_count}, expected 3")
    matched = sorted(canonical for _, _, canonical in nesting.matches)
    if matched != ["certain information", "may", "third parties"]:
        mismatches.append(f"nesting fixture matched {matched}")

    # Property: one more isolated term always adds exactly one.
    for trial in range(100):
        base = [rng.choice(CLARITY_FILLERS)
                for _ in range(rng.randint(10, 40))]
        for _ in range(rng.randint(0, 3)):
            base.insert(rng.randrange(len(base) + 1),
                        rng.choice(CLARITY_PLANTS))
        before = _scan_count(base)
        base.insert(rng.randrange(len(base) + 1),
                    rng.choice(CLARITY_PLANTS))
        after = _scan_count(base)
        if after != before + 1:
            mismatches.append(
                f"trial {trial}: count went {before} -> {after}")
    check(6, "clarity scanner", mismatches,
          time.perf_counter() - start, 1.0)


def test_criterion_7_review_round_trip(run_payload, tmp_path):
    start = time.perf_counter()
    mismatches = []
    payload = run_payload
    review_path = str(tmp_path / "review.jsonl")
    export_review_from_results(payload, review_path)

    lines = (tmp_path / "review.jsonl").read_text(
        encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    bluesky_specific = [
        r for r in records
        if r["platform"] == "bluesky" and r["detector"] == "sharing"
        and r["auto_label"] == "specific"]
    if len(bluesky_specific) != 5:
        mismatches.append(
            f"expected 5 specific-sharing findings for bluesky, "
            f"saw {len(bluesky_specific)}")
    for r in bluesky_specific[:3]:
        r["human_label"] = "rejected"
    reddit_specific = [
        r for r in records
        if r["platform"] == "reddit" and r["detector"] == "sharing"
        and r["auto_label"] == "specific"]
    if len(reddit_specific) != 2:
        mismatches.append(
            f"expected 2 specific-sharing findings for reddit, "
            f"saw {len(reddit_specific)}")
    for r in reddit_specific:
        r["human_label"] = "rejected"
    with open(review_path, "w") as fh:
        fh.write(lines[0] + "\n")
        for r in records:
            fh.write(json.dumps(r) + "\n")

    revised = [json.loads(r) for r in
               apply_review_to_results(payload, review_path)["results"]]
    spec = {r["platform"]: r["specificity"] for r in revised}

    bluesky = spec["bluesky"]
    if (bluesky["auto"]["counts"]["ss"],
            bluesky["post_review"]["counts"]["ss"]) != (5, 2):
        mismatches.append(
            "bluesky ss did not follow the 5->2 revision pattern: "
            f"{bluesky['auto']['counts']['ss']}->"
            f"{bluesky['post_review']['counts']['ss']}")
    if bluesky["post_review"]["scores"]["composite"] != 1.25:
        mismatches.append(
            "bluesky reviewed composite "
            f"{bluesky['post_review']['scores']['composite']} != 1.25")

    reddit = spec["reddit"]
    if (reddit["auto"]["counts"]["ss"],
            reddit["post_review"]["counts"]["ss"]) != (2, 0):
        mismatches.append(
            "reddit ss did not follow the 2->0 revision pattern")
    if (reddit["auto"]["scores"]["s_s"],
            reddit["post_review"]["scores"]["s_s"]) != (1, 0):
        mismatches.append(
            "reddit s_s did not drop from 1 to 0: "
            f"{reddit['auto']['scores']['s_s']}->"
            f"{reddit['post_review']['scores']['s_s']}")

    table = report.render_table(revised, "specificity", "csv")
    rows = {line.split(",")[0]: line for line in table.splitlines()[1:]}
    if "5→2" not in rows["bluesky"]:
        mismatches.append(f"bluesky row lacks 5→2: {rows['bluesky']}")
    if "2→0" not in rows["reddit"]:
        mismatches.append(f"reddit row lacks 2→0: {rows['reddit']}")
    check(7, "review round-trip", mismatches,
          time.perf_counter() - start, 1.0)


INTERFACE_PLATFORMS = (
    "BlueSky", "Instagram", "LinkedIn", "Mastodon", "Meta", "Pinterest",
    "Reddit", "Spotify", "TikTok", "Tumblr", "WhatsApp", "X", "YouTube",
)

GOLDEN_INTERFACE_CSV = (
    "platform,unticked_checkbox,review_before_consent,"
    "separate_consent_steps,explicit_denial,reversibility_cue\n"
    + "".join(f"{p},0,0,0,1,1\n" for p in INTERFACE_PLATFORMS)
)


def _reference_assessment(platform):
    return InterfaceAssessment(
        platform=platform,
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
        assessor="published audit",
        assessed_at="2025-01-01T00:00:00Z",
    )


def test_criterion_8_interface_schema():
    start = time.perf_counter()
    mismatches = []
    assessments = [_reference_assessment(p) for p in INTERFACE_PLATFORMS]
    for a in assessments:
        errors = validate_assessment(a)
        if errors:
            mismatches.append(f"{a.platform} rejected: {errors}")

    out_of_range = _reference_assessment("BlueSky")._replace(explicit_denial=3)
    if not any("out of range" in e
               for e in validate_assessment(out_of_range)):
        mismatches.append("score 3 for a 0..2 metric was not rejected")

    no_evidence = _reference_assessment("BlueSky")._replace(evidence=[])
    if not any("without evidence" in e
               for e in validate_assessment(no_evidence)):
        mismatches.append("evidence-free nonzero score was not rejected")

    results = [{"platform": a.platform,
                "interface": assessment_to_dict(a)} for a in assessments]
    table = report.render_table(results, "interface", "csv")
    if table != GOLDEN_INTERFACE_CSV:
        mismatches.append(
            "aggregate CSV is not byte-identical to the golden table:\n"
            f"{table!r}\n!=\n{GOLDEN_INTERFACE_CSV!r}")
    check(8, "interface schema", mismatches,
          time.perf_counter() - start, 1.0)


def test_criterion_9_end_to_end_determinism(tmp_path):
    mismatches = []
    corpus_dir = build_fixture_corpus(tmp_path / "corpus")
    elapsed = []
    outputs = []
    for n in (1, 2):
        out = tmp_path / f"results-{n}.json"
        run_start = time.perf_counter()
        outcome = run_cli([
            "analyze", "--corpus", str(corpus_dir), "--out", str(out)])
        elapsed.append(time.perf_counter() - run_start)
        if outcome.exit_code != 0:
            mismatches.append(
                f"analyze run {n} exited {outcome.exit_code}: "
                f"{outcome.stderr}")
        else:
            outputs.append(out.read_bytes())
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        mismatches.append("the two analyze runs differ byte-for-byte")
    if len(outputs) == 2 and not outputs[0]:
        mismatches.append("analyze produced an empty results file")
    for n, seconds in enumerate(elapsed, start=1):
        if seconds >= 10.0:
            mismatches.append(
                f"analyze run {n} took {seconds:.2f}s, budget is 10s")
    status = "FAIL" if mismatches else "PASS"
    print(f"[criterion 9] end-to-end determinism: {status}")
    assert not mismatches, "\n".join(mismatches)
