import pytest
from hypothesis import example, given, settings, strategies as st

from tosaudit import clarity, specificity
from tosaudit.errors import LexiconError
from tosaudit.matching import LexiconIndex, PhraseMatcher
from tosaudit.textprep import WORD_RE, Sentence, TokenView


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


def matchers_of(lexicons):
    """name -> PhraseMatcher for {name: (fold_case, [(phrase, payload)])}."""
    matchers = {}
    for name, (fold_case, pairs) in lexicons.items():
        matchers[name] = PhraseMatcher(fold_case=fold_case)
        for phrase, payload in pairs:
            matchers[name].add(phrase, payload)
    return matchers


def assert_scan_matches_each_matcher(index, matchers, text):
    """The one-pass scan gives each lexicon its own matcher's hits."""
    view = index.scan(Sentence(0, text, tuple(WORD_RE.findall(text)),
                               (0, len(text))))
    assert set(view.hits) <= set(matchers)
    for name, matcher in matchers.items():
        hits = [(*view.span(first, last), payload)
                for first, last, payload in view.hits.get(name, ())]
        assert hits == [hit[:3] for hit in matcher.find(text)], name


def _shipped_lexicons():
    vague = clarity.load_vague_lexicon()
    lex = specificity.load_specificity_lexicons()

    def same(phrases):
        return [(phrase, phrase) for phrase in phrases]

    def forms(verbs):
        return same(sorted(set().union(
            *(specificity.inflect_verb(v.lower()) for v in verbs))))

    return {
        "vague": (True, [(surface, term.canonical) for term in vague.terms
                         for surface in (term.canonical, *term.variants)]),
        "data_type": (True, same(p for phrases in lex.data_types.values()
                                 for p in phrases)),
        "entity": (False, same(lex.known_entities)),
        "vague_retention": (True, same(lex.vague_retention_phrases)),
        "specific": (True, same(lex.specific_purpose_cues)),
        "generic": (True, same(lex.generic_purpose_cues)),
        "negated": (True, same(lex.negation_cues)),
        "retention_verb": (True, forms(lex.retention_verbs)),
        "sharing_verb": (True, forms(lex.sharing_verbs)),
        "duration_unit": (True, same(u.lower() for u in lex.duration_units)),
    }


SHIPPED = _shipped_lexicons()
SHIPPED_INDEX = LexiconIndex()
clarity.index_terms(SHIPPED_INDEX, clarity.load_vague_lexicon())
specificity.index_lexicons(SHIPPED_INDEX,
                           specificity.load_specificity_lexicons())
SHIPPED_MATCHERS = matchers_of(SHIPPED)

# Whole phrases of every shipped lexicon, so phrases of different
# lexicons meet and overlap ("payment" starts a data type and a specific
# cue, "for" a generic cue and a vague retention phrase), plus their
# single words, fillers and number-unit tokens.
_SHIPPED_PHRASES = sorted({phrase for _, pairs in SHIPPED.values()
                           for phrase, _ in pairs})
_SHIPPED_CHUNKS = st.one_of(
    st.sampled_from(_SHIPPED_PHRASES),
    st.sampled_from(sorted({w for p in _SHIPPED_PHRASES
                            for w in WORD_RE.findall(p)})),
    st.sampled_from(["the", "we", "data", "for", "30", "ninety", "thirty-one",
                     "30-day", "ninety-days", "thirty-one-year", "x-day"]))
_CASES = st.sampled_from([str, str.lower, str.upper, str.title])
_PUNCTUATION = st.sampled_from([" ", " ", ", ", "; ", " (", ") ", ". ", " - ",
                                "-", "'", "\n"])


@st.composite
def shipped_texts(draw):
    chunks = draw(st.lists(
        st.tuples(_SHIPPED_CHUNKS, _CASES, _PUNCTUATION), max_size=25))
    return "".join(case(chunk) + sep for chunk, case, sep in chunks)


class TestLexiconIndexMatchesEachMatcher:
    @settings(max_examples=300, deadline=None)
    @given(text=shipped_texts())
    @example(text="We keep data for as long as necessary and share it with "
                  "Google, META and the Meta Platforms for fraud detection.")
    def test_shipped_lexicons(self, text):
        assert_scan_matches_each_matcher(SHIPPED_INDEX, SHIPPED_MATCHERS, text)

    @settings(max_examples=300, deadline=None)
    @given(lexicons=st.lists(
               st.tuples(st.booleans(), st.lists(texts(max_words=4),
                                                 max_size=8)),
               min_size=1, max_size=4),
           words=st.lists(st.sampled_from(["a", "b", "ab", "é", "3", "b-a"]),
                          max_size=4),
           text=texts(max_words=25))
    def test_overlapping_random_lexicons(self, lexicons, words, text):
        index = LexiconIndex()
        kept = {}
        for n, (fold_case, phrases) in enumerate(lexicons):
            matcher = PhraseMatcher(fold_case=fold_case)
            kept[n] = (fold_case, [])
            for phrase in phrases:
                try:
                    matcher.add(phrase, phrase)
                except LexiconError:
                    with pytest.raises(LexiconError):
                        index.add(n, phrase, phrase, fold_case=fold_case)
                    continue
                index.add(n, phrase, phrase, fold_case=fold_case)
                kept[n][1].append((phrase, phrase))
        index.add_words("words", words)
        kept["words"] = (True, [(w, w) for w in set(words)])
        matchers = {name: matcher
                    for name, matcher in matchers_of(kept).items()
                    if len(matcher)}
        assert_scan_matches_each_matcher(index, matchers, text)
