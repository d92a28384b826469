"""Multi-word phrase matching over word-token sequences.

Phrases and candidate text are tokenized with the same rule, so
punctuation between tokens is transparent ("time to time," still
matches) while hyphenated forms stay distinct tokens ("third-party"
never equals "third party"). Matching is non-overlapping, scans left
to right, and the longest known phrase at a position always wins.

Each matcher keeps a first-token index, in the spirit of Aho-Corasick
multi-pattern matching: it maps the first token of every phrase to the
lengths of the phrases that start with it, longest first. A scan probes
the index once per token and builds a phrase key only where a phrase
can start, and a sentence that holds no first token at all is passed
over with one set test. Text arrives as a textprep.TokenView built
from Sentence.tokens, so a segmented sentence is not tokenized again;
the view finds character spans on first use, for a sentence with a
match.
"""

from .errors import LexiconError
from .textprep import WORD_RE, TokenView


class PhraseMatcher:
    """Maps token sequences to payloads and finds them in text."""

    def __init__(self, fold_case=True):
        self._fold_case = fold_case
        self._table = {}
        self._first = {}

    def add(self, phrase, payload):
        key = tuple(m.group(0) for m in WORD_RE.finditer(phrase))
        if self._fold_case:
            key = tuple(token.lower() for token in key)
        if not key:
            raise LexiconError(f"lexicon phrase has no word tokens: {phrase!r}")
        if key in self._table:
            raise LexiconError(
                f"duplicate lexicon phrase: {phrase!r} tokenizes like another")
        self._table[key] = payload
        lengths = set(self._first.get(key[0], ())) | {len(key)}
        self._first[key[0]] = tuple(sorted(lengths, reverse=True))

    def __len__(self):
        return len(self._table)

    def find(self, view):
        """All matches as (char_start, char_end, payload, surface).

        view is a TokenView, or a string to tokenize first.
        """
        if isinstance(view, str):
            view = TokenView(view)
        tokens = view.folded if self._fold_case else view.tokens
        first = self._first
        if first.keys().isdisjoint(tokens):
            return []
        table = self._table
        n = len(tokens)
        out = []
        i = 0
        while i < n:
            step = 1
            for length in first.get(tokens[i], ()):
                if i + length <= n:
                    key = tuple(tokens[i:i + length])
                    if key in table:
                        start, end = view.span(i, i + length - 1)
                        out.append(
                            (start, end, table[key], view.text[start:end]))
                        step = length
                        break
            i += step
        return out
