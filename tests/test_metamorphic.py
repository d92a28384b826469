"""The paper's measures under metamorphic relations, on the fixture documents.

Most of the measures are rates, so they hold without an oracle:

- Repetition: a document followed by a blank line and itself keeps every
  rate (the readability profile and bands, clarity density, sentence
  coverage) and every distinct count (dt, en), and doubles every total
  (words, sentences, reading time, retention and sharing counts).
- Markup: a document's text, as HTML with one escaped <p> per
  paragraph, builds the Document its plain text builds.
"""

import html
import math

import pytest

import fixture_docs
from tosaudit import clarity, readability, specificity, textprep

VAGUE = clarity.load_vague_lexicon()
SPEC = specificity.load_specificity_lexicons()
GROUPS = readability.load_reader_groups()


def document_text(platform):
    """The normalized text analyze takes from a fixture document."""
    kind, content = fixture_docs.DOCS[platform]
    return textprep.extract_text(
        content.encode("utf-8"), kind,
        extraction_config=fixture_docs.EXTRACTION_CONFIG, platform=platform)


def measures(platform, text):
    doc = textprep.build_document(platform, text)
    profile = readability.compute_readability_profile(doc.stats)
    scores = specificity.score_findings(
        specificity.analyze_document(doc, SPEC), doc.stats.sentence_count)
    return {
        "doc": doc,
        "profile": profile,
        "bands": readability.profile_bands(profile),
        "clarity": clarity.scan_vague_terms(doc, VAGUE),
        "counts": scores.auto_counts,
        "coverage": scores.coverage,
        "minutes": [readability.estimate_reading_time(
            doc.stats.word_count, group) for group in GROUPS],
    }


@pytest.mark.parametrize("platform", fixture_docs.PLATFORMS)
def test_repetition_keeps_rates_and_doubles_totals(platform):
    text = document_text(platform)
    once = measures(platform, text)
    twice = measures(platform, f"{text}\n\n{text}")

    for name, value in once["profile"]._asdict().items():
        assert math.isclose(getattr(twice["profile"], name), value,
                            rel_tol=1e-9), name
    assert twice["bands"] == once["bands"]
    assert math.isclose(twice["clarity"].density_pct,
                        once["clarity"].density_pct, rel_tol=1e-9)
    assert twice["clarity"].vague_count == 2 * once["clarity"].vague_count
    assert twice["coverage"] == pytest.approx(once["coverage"], rel=1e-9)
    counts, doubled = once["counts"], twice["counts"]
    assert (doubled.dt, doubled.en) == (counts.dt, counts.en)
    assert (doubled.re_explicit, doubled.re_vague, doubled.sg, doubled.ss) == (
        2 * counts.re_explicit, 2 * counts.re_vague, 2 * counts.sg,
        2 * counts.ss)

    stats, doubled_stats = once["doc"].stats, twice["doc"].stats
    assert doubled_stats.word_count == 2 * stats.word_count
    assert doubled_stats.sentence_count == 2 * stats.sentence_count
    for minutes, doubled_minutes in zip(once["minutes"], twice["minutes"],
                                        strict=True):
        assert doubled_minutes.minutes_low == pytest.approx(
            2 * minutes.minutes_low, rel=1e-9)
        assert doubled_minutes.minutes_high == pytest.approx(
            2 * minutes.minutes_high, rel=1e-9)


@pytest.mark.parametrize("platform", fixture_docs.PLATFORMS)
def test_paragraphs_as_html_build_the_same_document(platform):
    text = document_text(platform)
    markup = "<html><body>%s</body></html>" % "".join(
        f"<p>{html.escape(paragraph)}</p>"
        for paragraph in text.split("\n\n"))
    from_html = textprep.payload_text(markup.encode("utf-8"), "html")
    assert textprep.build_document(platform, from_html) == \
        textprep.build_document(platform, text)
