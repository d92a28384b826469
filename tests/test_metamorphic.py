"""The paper's measures under metamorphic relations.

The relations are checked on the fixture documents and, but for markup,
on documents of generated sentences (conftest.GENERATED_SENTENCES).
Most of the measures are rates, so they hold without an oracle:

- Repetition: a document followed by a blank line and itself keeps every
  rate (the readability profile and bands, clarity density, sentence
  coverage) and every distinct count (dt, en), and doubles every total
  (words, sentences, reading time, retention and sharing counts).
- Markup: a document's text, as HTML with one escaped <p> per
  paragraph, builds the Document its plain text builds; so does
  generated text whose words hold '<', '>' and '&'.
- Neutral padding: a paragraph of filler that matches no lexicon phrase,
  appended to a document, keeps every finding where it was and dt, en.
"""

import html
import math

import pytest
from hypothesis import given, settings, strategies as st

import fixture_docs
from conftest import GENERATED_SENTENCES
from tosaudit import clarity, readability, specificity, textprep
from tosaudit.matching import LexiconIndex

SPEC = specificity.load_specificity_lexicons()
GROUPS = readability.load_reader_groups()
# One index of both lexicons, as analyze scans each sentence once.
INDEX = LexiconIndex()
clarity.index_terms(INDEX, clarity.load_vague_lexicon())
specificity.index_lexicons(INDEX, SPEC)


def views_of(doc):
    return [INDEX.scan(sentence) for sentence in doc.sentences]


def document_text(platform):
    """The normalized text analyze takes from a fixture document."""
    kind, content = fixture_docs.DOCS[platform]
    return textprep.extract_text(
        content.encode("utf-8"), kind,
        extraction_config=fixture_docs.EXTRACTION_CONFIG, platform=platform)


def measures(platform, text):
    doc = textprep.build_document(platform, text)
    profile = readability.compute_readability_profile(doc.stats)
    views = views_of(doc)
    block = specificity.score_findings(
        specificity.analyze_document(doc, SPEC, views),
        doc.stats.sentence_count)
    return {
        "doc": doc,
        "profile": profile,
        "bands": readability.profile_bands(profile),
        "clarity": clarity.scan_vague_terms(doc, views),
        "counts": block["auto"]["counts"],
        "coverage": block["coverage"],
        "minutes": [readability.estimate_reading_time(
            doc.stats.word_count, group) for group in GROUPS],
    }


# Documents of 1-8 generated sentences, in one paragraph or one each,
# normalized as analyze normalizes them.
_GENERATED_TEXTS = st.builds(
    lambda sentences, gap: textprep.normalize_text(gap.join(sentences)),
    st.lists(GENERATED_SENTENCES, min_size=1, max_size=8),
    st.sampled_from([" ", "\n\n"]))


def assert_repetition(platform, text):
    """text followed by a blank line and itself keeps every rate and
    distinct count, and doubles every total."""
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
    assert (doubled["dt"], doubled["en"]) == (counts["dt"], counts["en"])
    for total in ("re_explicit", "re_vague", "sg", "ss"):
        assert doubled[total] == 2 * counts[total], total

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
def test_repetition_keeps_rates_and_doubles_totals(platform):
    assert_repetition(platform, document_text(platform))


@settings(max_examples=100, deadline=None)
@given(text=_GENERATED_TEXTS)
def test_repetition_on_generated_documents(text):
    assert_repetition("g", text)


@pytest.mark.parametrize("platform", fixture_docs.PLATFORMS)
def test_paragraphs_as_html_build_the_same_document(platform):
    text = document_text(platform)
    markup = "<html><body>%s</body></html>" % "".join(
        f"<p>{html.escape(paragraph)}</p>"
        for paragraph in text.split("\n\n"))
    from_html = textprep.payload_text(markup.encode("utf-8"), "html")
    assert textprep.build_document(platform, from_html) == \
        textprep.build_document(platform, text)


# Words with the characters that HTML escapes, alone, inside words and as
# text that reads like markup or an entity, beside lexicon phrases.
_MARKUP_WORDS = st.sampled_from([
    "we", "may", "share", "your", "personal information", "third parties",
    "for", "30 days", "Acme Inc.", "e.g.", "<", ">", "&", "a<b", "x > y",
    "R&D", "AT&T", "<p>", "</div>", "<!--", "&amp;", "&lt;p&gt;", "&#60;",
    "<3", '"quoted"', "it's"])
_SENTENCES = st.builds(
    lambda words, end: " ".join(words) + end,
    st.lists(_MARKUP_WORDS, min_size=1, max_size=10),
    st.sampled_from([".", "!", "?", ";", ""]))
_PARAGRAPHS = st.lists(_SENTENCES, min_size=1, max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(paragraphs=st.lists(_PARAGRAPHS, min_size=1, max_size=5))
def test_generated_paragraphs_as_html_build_the_same_document(paragraphs):
    markup = "<html><body>%s</body></html>" % "".join(
        f"<p>{html.escape(paragraph)}</p>" for paragraph in paragraphs)
    from_html = textprep.payload_text(markup.encode("utf-8"), "html")
    assert textprep.build_document("p", from_html) == \
        textprep.build_document("p", "\n\n".join(paragraphs))


# Capitalized words, but no corporate suffix, data type, entity, vague
# term, retention or sharing cue.
FILLER = ("Blue river stones rest quietly beneath tall green hills. "
          "Seven herons watched the morning fog drift past Oakmere.")


def findings_and_counts(platform, text):
    doc = textprep.build_document(platform, text)
    views = views_of(doc)
    findings = specificity.analyze_document(doc, SPEC, views)
    counts = specificity.aggregate_counts(findings, use_review=False)
    return findings, counts, clarity.scan_vague_terms(doc, views).vague_count


def test_filler_matches_nothing():
    assert findings_and_counts("p", FILLER) == (
        [], specificity.SpecificityCounts(), 0)


def assert_neutral_padding(platform, text):
    """A paragraph of FILLER after text keeps every finding, dt, en and
    the vague-term count."""
    findings, counts, vague = findings_and_counts(platform, text)
    padded, padded_counts, padded_vague = findings_and_counts(
        platform, f"{text}\n\n{FILLER}")
    assert padded == findings
    assert (padded_counts.dt, padded_counts.en) == (counts.dt, counts.en)
    assert padded_vague == vague


@pytest.mark.parametrize("platform", fixture_docs.PLATFORMS)
def test_neutral_padding_keeps_findings(platform):
    assert_neutral_padding(platform, document_text(platform))


@settings(max_examples=100, deadline=None)
@given(text=_GENERATED_TEXTS)
def test_neutral_padding_on_generated_documents(text):
    assert_neutral_padding("g", text)
