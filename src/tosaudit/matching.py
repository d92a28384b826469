"""Multi-word phrase matching over word-token sequences.

Phrases and candidate text are tokenized with the same rule, so
punctuation between tokens is transparent ("time to time," still
matches) while hyphenated forms stay distinct tokens ("third-party"
never equals "third party"). Matching is non-overlapping, scans left
to right, and the longest known phrase at a position always wins.

LexiconIndex is one first-token index over every lexicon of the text
layer, in the spirit of Aho-Corasick (A. V. Aho and M. J. Corasick,
CACM 1975). It maps the case-folded first token of each phrase to the
lexicons with a phrase starting there and those phrases' lengths,
longest first; a case-sensitive lexicon then compares raw tokens. One
pass over a sentence's TokenView builds a phrase key only where some
phrase can start and keeps a next free token per lexicon, so lexicons
never block each other and each gets what a scan of it alone would
find. A sentence with no first token of any lexicon costs one set test.
PhraseMatcher is one lexicon of such an index.
"""

from .errors import LexiconError
from .textprep import WORD_RE, TokenView


def _phrase_key(phrase, fold_case):
    key = tuple(WORD_RE.findall(phrase))
    if fold_case:
        key = tuple(token.lower() for token in key)
    if not key:
        raise LexiconError(f"lexicon phrase has no word tokens: {phrase!r}")
    return key


def _duplicate(phrase):
    return LexiconError(
        f"duplicate lexicon phrase: {phrase!r} tokenizes like another")


class PhraseMatcher:
    """One lexicon of phrases, found in text by a LexiconIndex."""

    def __init__(self, fold_case=True):
        self._fold_case = fold_case
        self._index = LexiconIndex()

    def add(self, phrase, payload):
        self._index.add(None, phrase, payload, self._fold_case)

    def find(self, view):
        """All matches as (char_start, char_end, payload, surface).

        view is a TokenView, or a string to tokenize first.
        """
        if isinstance(view, str):
            view = TokenView(view)
        view = self._index.scan(view)
        out = []
        for first, last, payload in view.hits.get(None, ()):
            start, end = view.span(first, last)
            out.append((start, end, payload, view.text[start:end]))
        return out


class LexiconIndex:
    """One first-token index over named lexicons of phrases."""

    def __init__(self):
        self._tables = {}  # lexicon -> (fold_case, {key: payload})
        # folded first token -> ((lexicon, fold_case, table, lengths), ...)
        self._first = {}

    def add(self, lexicon, phrase, payload, fold_case=True):
        """Add a phrase to a lexicon, whose first phrase fixes fold_case."""
        self._put(lexicon, _phrase_key(phrase, fold_case), payload,
                  fold_case, phrase)

    def add_words(self, lexicon, words):
        """Add lowercase words as one-token phrases, each its own payload."""
        for word in sorted(set(words)):
            if not WORD_RE.fullmatch(word):
                raise LexiconError(
                    f"{lexicon} {word!r} is not one word token")
            self._put(lexicon, (word,), word, True, word)

    def _put(self, lexicon, key, payload, fold_case, phrase):
        fold_case, table = self._tables.setdefault(lexicon, (fold_case, {}))
        if key in table:
            raise _duplicate(phrase)
        table[key] = payload
        first = key[0].lower()
        entries = {entry[0]: entry for entry in self._first.get(first, ())}
        lengths = {len(key), *entries.get(lexicon, ((),))[-1]}
        entries[lexicon] = (lexicon, fold_case, table,
                            tuple(sorted(lengths, reverse=True)))
        self._first[first] = tuple(entries.values())

    def scan(self, sentence):
        """A new TokenView of a Sentence (or TokenView) whose hits map
        each lexicon with a match to its (first_token, last_token,
        payload) matches."""
        view = TokenView(sentence.text, sentence.tokens)
        folded = view.folded
        first = self._first
        if first.keys().isdisjoint(folded):
            return view
        hits = view.hits
        free = {}
        n = len(folded)
        for i, token in enumerate(folded):
            for lexicon, fold_case, table, lengths in first.get(token, ()):
                if free.get(lexicon, 0) > i:
                    continue
                words = folded if fold_case else view.tokens
                for length in lengths:
                    key = words[i:i + length]
                    if i + length <= n and key in table:
                        hits.setdefault(lexicon, []).append(
                            (i, i + length - 1, table[key]))
                        free[lexicon] = i + length
                        break
        return view
