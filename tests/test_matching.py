import pytest
from hypothesis import given, settings, strategies as st

from tosaudit.errors import LexiconError
from tosaudit.matching import PhraseMatcher
from tosaudit.textprep import WORD_RE, TokenView


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
        with pytest.raises(LexiconError):
            matcher.add("May", "other")

    def test_tokenless_phrase_raises(self):
        matcher = PhraseMatcher()
        with pytest.raises(LexiconError):
            matcher.add("!!!", "x")

    def test_len(self):
        assert len(build(["a", "b", "c d"])) == 3


def reference_find(table, text, fold_case):
    """The longest-match scan that tries every length at every token.

    This is the matcher's loop before the first-token index; the
    indexed find must return exactly what it returns.
    """
    fold = str.lower if fold_case else str
    spans = [(m.start(), m.end(), fold(m.group(0)))
             for m in WORD_RE.finditer(text)]
    tokens = [s[2] for s in spans]
    max_len = max(map(len, table), default=0)
    n = len(tokens)
    out = []
    i = 0
    while i < n:
        hit = None
        for length in range(min(max_len, n - i), 0, -1):
            key = tuple(tokens[i:i + length])
            if key in table:
                hit = length
                break
        if hit is None:
            i += 1
            continue
        start = spans[i][0]
        end = spans[i + hit - 1][1]
        out.append((start, end, table[key], text[start:end]))
        i += hit
    return out


# Few distinct words, so random phrases overlap and share first tokens.
_WORDS = st.sampled_from(["a", "b", "ab", "A", "B", "é", "3", "b-a", "a'b"])
_SEPARATORS = st.sampled_from([" ", "  ", ", ", "-", ". ", "\n", "_", "’"])


@st.composite
def texts(draw, max_words):
    words = draw(st.lists(_WORDS, max_size=max_words))
    return "".join(word + draw(_SEPARATORS) for word in words)


class TestIndexedFindMatchesReference:
    @settings(deadline=None)
    @given(phrases=st.lists(texts(max_words=4), max_size=12),
           text=texts(max_words=25), fold_case=st.booleans())
    def test_same_hits_as_reference(self, phrases, text, fold_case):
        matcher = PhraseMatcher(fold_case=fold_case)
        table = {}
        for phrase in phrases:
            key = tuple((t.lower() if fold_case else t)
                        for t in WORD_RE.findall(phrase))
            if not key or key in table:
                with pytest.raises(LexiconError):
                    matcher.add(phrase, phrase)
                continue
            matcher.add(phrase, phrase)
            table[key] = phrase
        hits = matcher.find(text)
        assert hits == reference_find(table, text, fold_case)
        assert matcher.find(TokenView(text)) == hits
        assert matcher.find(TokenView(text, WORD_RE.findall(text))) == hits
        for start, end, _payload, surface in hits:
            assert 0 <= start < end <= len(text)
            assert text[start:end] == surface
        assert all(a[1] <= b[0] for a, b in zip(hits, hits[1:]))
