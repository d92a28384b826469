import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tosaudit import textprep
from tosaudit.errors import ExtractionError, LexiconError, TosAuditError


class TestNormalizeText:
    def test_blank_line_becomes_paragraph_break(self):
        assert textprep.normalize_text("a\n\n\nb") == "a\n\nb"

    def test_single_newline_becomes_space(self):
        assert textprep.normalize_text("a\nb") == "a b"

    def test_runs_collapse_and_strip(self):
        assert textprep.normalize_text("  a \t b  ") == "a b"
        assert textprep.normalize_text(" \n\n a \r\n\r\n b \n") == "a\n\nb"


class TestTokenizeWords:
    def test_hyphenated_is_one_token(self):
        assert textprep.tokenize_words("third-party data") == \
            ["third-party", "data"]

    def test_apostrophes_stay_internal(self):
        assert textprep.tokenize_words("don't stop") == ["don't", "stop"]
        assert textprep.tokenize_words("user’s data") == \
            ["user’s", "data"]

    def test_underscore_splits(self):
        assert textprep.tokenize_words("a_b") == ["a", "b"]

    def test_punctuation_ignored(self):
        assert textprep.tokenize_words('We "share" (some) data!') == \
            ["We", "share", "some", "data"]

    def test_numbers_are_tokens(self):
        assert textprep.tokenize_words("30 days, 4.5 stars") == \
            ["30", "days", "4", "5", "stars"]


class TestSegmentSentences:
    def test_basic_split_and_spans(self):
        text = "First sentence here. Second sentence there."
        sentences = textprep.segment_sentences(text)
        assert [s.text for s in sentences] == \
            ["First sentence here.", "Second sentence there."]
        assert [s.index for s in sentences] == [0, 1]
        for s in sentences:
            start, end = s.char_span
            assert text[start:end] == s.text

    def test_abbreviation_does_not_split(self):
        text = "Meta Platforms, Inc. operates this service. Next one."
        sentences = textprep.segment_sentences(text)
        assert len(sentences) == 2
        assert sentences[0].text == "Meta Platforms, Inc. operates this service."

    def test_abbreviation_before_uppercase(self):
        text = "See the order of Acme Corp. Then continue."
        sentences = textprep.segment_sentences(text)
        assert len(sentences) == 1

    def test_lowercase_continuation_does_not_split(self):
        text = "We ship today. tomorrow we rest."
        assert len(textprep.segment_sentences(text)) == 1

    def test_decimal_number_does_not_split(self):
        text = "The fee is 4.5 percent. Next sentence here."
        sentences = textprep.segment_sentences(text)
        assert [s.text for s in sentences] == \
            ["The fee is 4.5 percent.", "Next sentence here."]

    def test_digit_start_splits(self):
        text = "We keep data for a while. 30 days is typical."
        assert len(textprep.segment_sentences(text)) == 2

    def test_opening_quote_starts_sentence(self):
        text = 'He said stop. "Go now."'
        assert len(textprep.segment_sentences(text)) == 2

    def test_paragraph_break_always_splits(self):
        text = "Heading without period\n\nBody sentence."
        sentences = textprep.segment_sentences(text)
        assert [s.text for s in sentences] == \
            ["Heading without period", "Body sentence."]

    def test_tokenless_segment_dropped(self):
        text = "Real sentence.\n\n---\n\nAnother one."
        sentences = textprep.segment_sentences(text)
        assert [s.text for s in sentences] == \
            ["Real sentence.", "Another one."]

    def test_multiple_terminators(self):
        text = "Wait!! Really? Yes."
        assert len(textprep.segment_sentences(text)) == 3

    def test_tokens_attached(self):
        sentences = textprep.segment_sentences("We share data.")
        assert sentences[0].tokens == ("We", "share", "data")


class TestCountSyllables:
    @pytest.mark.parametrize("word,expected", [
        ("cat", 1),
        ("table", 2),      # consonant+le keeps the final group
        ("make", 1),       # silent terminal e
        ("made", 1),
        ("university", 5),
        ("queue", 1),      # floor of one
        ("rhythm", 1),
        ("mmm", 1),        # no vowels still counts one
        ("30", 1),         # digit tokens count one
        ("agree", 1),      # "ee" group, terminal e silent
        ("idea", 2),       # the heuristic merges the "ea" hiatus
        ("people", 2),
        ("juice", 1),
    ])
    def test_heuristic(self, word, expected):
        assert textprep.count_syllables(word) == expected

    def test_empty_token(self):
        assert textprep.count_syllables("") == 0

    def test_override_wins(self):
        assert textprep.count_syllables("queue", {"queue": 2}) == 2

    def test_override_is_case_insensitive(self):
        assert textprep.count_syllables("Queue", {"queue": 2}) == 2


class TestSyllableOverridesFile:
    def test_load(self, tmp_path):
        path = tmp_path / "syl.txt"
        path.write_text("# comment\n\nqueue\t2\nBusiness\t2\n")
        overrides = textprep.load_syllable_overrides(str(path))
        assert overrides == {"queue": 2, "business": 2}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "syl.txt"
        path.write_text("queue 2\n")
        with pytest.raises(LexiconError):
            textprep.load_syllable_overrides(str(path))

    def test_word_repeated_after_case_folding(self, tmp_path):
        path = tmp_path / "syl.txt"
        path.write_text("data\t2\nqueue\t2\nDATA\t5\n")
        message = f"{path}:3: duplicate word 'data'"
        with pytest.raises(LexiconError, match=re.escape(message)):
            textprep.load_syllable_overrides(str(path))

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "syl.txt"
        path.write_text("queue\ttwo\n")
        with pytest.raises(LexiconError):
            textprep.load_syllable_overrides(str(path))


class TestExtractionConfigFile:
    def test_load(self, tmp_path):
        path = tmp_path / "extraction_config.json"
        config = {"x": {"include": ["main"], "exclude": [".ad"]},
                  "y": ["article"], "z": {}}
        path.write_text(json.dumps(config))
        assert textprep.load_extraction_config(str(path)) == config

    @pytest.mark.parametrize("rule, key", [
        ({"inclde": ["main"]}, "inclde"),
        ({"include": ["main"], "Exclude": [".ad"]}, "Exclude"),
        ({"exclude": [], "z": [], "b": []}, "b"),
    ])
    def test_unknown_rule_key(self, tmp_path, rule, key):
        path = tmp_path / "extraction_config.json"
        path.write_text(json.dumps({"x": rule}))
        message = (f"extraction config {path}: rule for 'x' has unknown "
                   f"key {key!r}")
        with pytest.raises(LexiconError, match=re.escape(message)):
            textprep.load_extraction_config(str(path))


class TestComputeDocStats:
    def test_hand_counted_micro_doc(self):
        sentences = textprep.segment_sentences("The cat sat on the mat.")
        stats = textprep.compute_doc_stats(sentences)
        assert stats.word_count == 6
        assert stats.sentence_count == 1
        assert stats.syllable_count == 6
        assert stats.letter_count == 17
        assert stats.character_count == 17
        assert stats.complex_word_count == 0
        assert stats.easy_word_count == 6
        assert stats.hard_word_count == 0
        assert not stats.degenerate
        assert stats.letters_per_100_words == pytest.approx(1700 / 6)
        assert stats.sentences_per_100_words == pytest.approx(100 / 6)

    def test_complex_words_counted(self):
        sentences = textprep.segment_sentences(
            "The university celebrated. It was memorable.")
        stats = textprep.compute_doc_stats(sentences)
        # university (5), celebrated (4), memorable (4) have >= 3 syllables
        assert stats.complex_word_count == 3
        assert stats.polysyllable_count == 3
        assert stats.easy_word_count + stats.hard_word_count == stats.word_count

    def test_zero_words_is_degenerate(self):
        stats = textprep.compute_doc_stats([])
        assert stats.degenerate
        assert stats.word_count == 0

    def test_overrides_change_totals(self):
        sentences = textprep.segment_sentences("The queue moved.")
        base = textprep.compute_doc_stats(sentences)
        bumped = textprep.compute_doc_stats(
            sentences, textprep.WordTable({"queue": 4}))
        assert bumped.syllable_count == base.syllable_count + 3
        assert bumped.complex_word_count == base.complex_word_count + 1


class TestExtractText:
    def test_empty_payload(self):
        with pytest.raises(ExtractionError, match="empty document"):
            textprep.extract_text(b"", "plain_text")

    def test_unknown_media_kind(self):
        with pytest.raises(ExtractionError, match="unknown media kind"):
            textprep.extract_text(b"x", "pdf")

    def test_plain_text_normalized(self):
        text = textprep.extract_text(b"a\n\n\nb  c", "plain_text")
        assert text == "a\n\nb c"

    def test_whitespace_only_payload_yields_empty_text(self):
        assert textprep.extract_text(b"  \n \n ", "plain_text") == ""

    def test_html_strips_markup(self):
        payload = b"<html><body><p>Hello there.</p></body></html>"
        assert textprep.extract_text(payload, "html") == "Hello there."

    def test_html_include_config(self):
        payload = (b"<html><body><nav>Skip</nav>"
                   b"<main><p>Kept text.</p></main>"
                   b"<div>Outside text.</div></body></html>")
        config = {"site": {"include": ["main"]}}
        text = textprep.extract_text(
            payload, "html", extraction_config=config, platform="site")
        assert text == "Kept text."

    def test_html_bare_list_config_means_include(self):
        payload = b"<html><body><main><p>Kept.</p></main><p>No.</p></body></html>"
        config = {"site": ["main"]}
        text = textprep.extract_text(
            payload, "html", extraction_config=config, platform="site")
        assert text == "Kept."

    def test_invalid_utf8_replaced(self):
        text = textprep.extract_text(b"ok \xff here", "plain_text")
        assert "ok" in text and "here" in text


class TestBuildDocument:
    def test_spans_index_into_normalized_text(self):
        doc = textprep.build_document(
            "demo", "First one.   Second one.\n\nThird one here.")
        assert doc.platform == "demo"
        assert len(doc.sentences) == 3
        for s in doc.sentences:
            start, end = s.char_span
            assert doc.text[start:end] == s.text

    def test_stats_attached(self):
        doc = textprep.build_document("demo", "Two words.")
        assert doc.stats.word_count == 2
        assert doc.stats.sentence_count == 1


# Words and gaps dense in what segmentation and counting react to:
# terminators, abbreviations, decimals, quotes, blank lines, hyphens,
# apostrophes, underscores, digits, non-ASCII letters and numerals, and
# a combining mark.
_WORDS = st.sampled_from([
    "word", "Word", "university", "queue", "the", "3.5", "42", "Inc.",
    "e.g.", "Dr.", "U.S.", "(Inc.", "end.", "Why?!", "\"Quote", "don't",
    "third-party", "x_y", "Éclair", "straße", "…", "it’s", "x²", "Ⅻ",
    "e\u0301",
])
_GAPS = st.sampled_from(
    ["", " ", "  ", "\u00a0", "\t", "\n", "\n\n", " \n \n "])
_TEXTS = st.lists(st.tuples(_WORDS, _GAPS), max_size=30).map(
    lambda pairs: "".join(word + gap for word, gap in pairs))


def reference_split_points(para):
    """_split_points as it was before its backward word scan."""
    points = []
    for m in re.finditer(r"[.!?]+", para):
        end = m.end()
        ws = re.match(r"\s+", para[end:])
        if not ws:
            continue
        nxt = end + ws.end()
        if nxt >= len(para):
            continue
        ch = para[nxt]
        if not (ch.isupper() or ch.isdigit() or ch in "\"'“‘"):
            continue
        tail = re.search(r"\S+$", para[:end])
        chunk = tail.group(0).lstrip("([\"'“‘") if tail else ""
        if chunk in textprep.ABBREVIATIONS:
            continue
        points.append((end, nxt))
    return points


def reference_blank_line_split(text):
    """normalize_text as it was, splitting on whole whitespace runs."""
    return "\n\n".join(" ".join(part.split()) for part in re.split(
        r"\s*\n\s*\n\s*", text)).strip()


def reference_normalize_text(text):
    """normalize_text as it was, with one callback per whitespace run."""

    def repl(m):
        return "\n\n" if m.group(0).count("\n") >= 2 else " "

    return re.sub(r"\s+", repl, text).strip()


# Every kind of whitespace: ASCII, a file separator, a no-break space
# and a Unicode line separator, none of them a newline but "\n".
_WHITESPACE_TEXTS = st.text(alphabet=" \n\t\r\x0b\x1c\xa0\u2028ab")
# Letters, digits, numerals, joiners, an underscore, separators and a
# combining mark, which is not a word character.
_TOKEN_TEXTS = st.text(alphabet="aZéß2²Ⅻ'’-_ .,\n\u0301")


_MARKUP = st.lists(st.one_of(
    st.sampled_from(["<main>", "</main>", '<p class="a">', "<nav>", "</p>",
                     "<br/>", "<script>", "&amp;", "&#0;", "<!--", "<![",
                     "</", "<", "Terms apply.", " ", "\n\n"]),
    st.text(max_size=8)), max_size=20).map("".join)
_PAYLOADS = st.one_of(
    st.binary(max_size=200),
    _MARKUP.map(lambda markup: markup.encode("utf-8", "surrogatepass")))


class TestProperties:
    @settings(deadline=None)
    @given(text=_TEXTS, repeats=st.integers(1, 3),
           overrides=st.sampled_from([None, {"queue": 4}]))
    def test_doc_stats_equal_per_token_sums(self, text, repeats, overrides):
        text = "\n\n".join([text] * repeats)
        sentences = textprep.segment_sentences(textprep.normalize_text(text))
        tokens = [t for s in sentences for t in s.tokens]
        syllables = [textprep.count_syllables(t, overrides) for t in tokens]
        stats = textprep.compute_doc_stats(
            sentences, textprep.WordTable(overrides))
        if not tokens:
            assert stats == textprep.DocStats(degenerate=True)
            return
        hard = sum(1 for n in syllables if n >= 3)
        assert (stats.word_count, stats.sentence_count,
                stats.syllable_count, stats.letter_count,
                stats.character_count, stats.hard_word_count,
                stats.easy_word_count) == (
            len(tokens), len(sentences), sum(syllables),
            sum(ch.isalpha() for t in tokens for ch in t),
            sum(ch.isalnum() for t in tokens for ch in t),
            hard, len(tokens) - hard)

    @settings(deadline=None)
    @given(text=_TEXTS)
    def test_sentence_spans_index_into_text(self, text):
        doc = textprep.build_document("p", text)
        previous_end = 0
        for i, s in enumerate(doc.sentences):
            start, end = s.char_span
            assert previous_end <= start < end <= len(doc.text)
            assert doc.text[start:end] == s.text
            assert s.index == i
            assert s.tokens == tuple(textprep.tokenize_words(s.text))
            previous_end = end

    @settings(deadline=None)
    @given(payload=_PAYLOADS, media_kind=st.sampled_from(["html", "plain_text"]),
           rules=st.sampled_from([None, ["main"],
                                  {"include": [".a"], "exclude": ["nav"]}]))
    @example(payload=b"<![<main>", media_kind="html", rules=None)
    def test_any_payload_builds_document_or_raises_tosaudit_error(
            self, payload, media_kind, rules):
        config = None if rules is None else {"p": rules}
        try:
            text = textprep.extract_text(payload, media_kind,
                                         extraction_config=config, platform="p")
            doc = textprep.build_document("p", text)
        except TosAuditError:
            return
        assert isinstance(doc, textprep.Document)

    @settings(deadline=None)
    @given(para=_TEXTS)
    def test_split_points_match_reference(self, para):
        assert textprep._split_points(para) == reference_split_points(para)

    @settings(deadline=None, max_examples=500)
    @given(text=_WHITESPACE_TEXTS)
    @example(text="a \n\t\n b\u2028\n\xa0\nc")
    @example(text="a\r\nb\u2028\u2028c\r\rd")
    def test_normalize_matches_reference(self, text):
        assert textprep.normalize_text(text) == reference_normalize_text(text)

    @settings(deadline=None, max_examples=500)
    @given(text=st.lists(st.sampled_from([
        "a", "b c", ".", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x1c",
        "\x85", "\xa0", "\u3000", "\u2028"]), max_size=20).map("".join))
    @example(text="a \x85\n\u3000\r\n\x0b\n\xa0b")
    def test_blank_line_split_matches_whole_run_split(self, text):
        assert textprep.normalize_text(text) == \
            reference_blank_line_split(text)

    @settings(deadline=None, max_examples=100)
    @given(texts=st.lists(_TEXTS, max_size=4), data=st.data(),
           overrides=st.sampled_from([None, {"queue": 4, "the": 2}]))
    def test_shared_word_table_equals_one_per_document(
            self, texts, data, overrides):
        docs = [textprep.segment_sentences(textprep.normalize_text(text))
                for text in texts]
        shared = textprep.WordTable(overrides)
        for i in data.draw(st.permutations(range(len(docs)))):
            assert textprep.compute_doc_stats(docs[i], shared) == \
                textprep.compute_doc_stats(
                    docs[i], textprep.WordTable(overrides))

    @settings(deadline=None)
    @given(text=_TOKEN_TEXTS, data=st.data())
    def test_view_spans_match_finditer(self, text, data):
        spans = [m.span() for m in textprep.WORD_RE.finditer(text)]
        view = textprep.TokenView(text, textprep.WORD_RE.findall(text))
        if not spans:
            return
        first = data.draw(st.integers(0, len(spans) - 1))
        last = data.draw(st.integers(first, len(spans) - 1))
        assert view.span(first, last) == (spans[first][0], spans[last][1])

    @settings(deadline=None, max_examples=300)
    @given(text=st.one_of(st.text(), _TOKEN_TEXTS))
    def test_find_spans_equal_finditer_on_any_text(self, text):
        view = textprep.TokenView(text)
        spans = [m.span() for m in textprep.WORD_RE.finditer(text)]
        assert [view.span(i, i) for i in range(len(spans))] == spans
