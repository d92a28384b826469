"""Multi-word phrase matching over word-token sequences.

Phrases and candidate text are tokenized with the same rule, so
punctuation between tokens is transparent ("time to time," still
matches) while hyphenated forms stay distinct tokens ("third-party"
never equals "third party"). Matching is non-overlapping, scans left
to right, and the longest known phrase at a position always wins.
"""

from .textprep import WORD_RE


class PhraseMatcher:
    """Maps token sequences to payloads and finds them in text."""

    def __init__(self, fold_case=True):
        self._fold_case = fold_case
        self._table = {}
        self._max_len = 0

    def _fold(self, token):
        return token.lower() if self._fold_case else token

    def add(self, phrase, payload):
        key = tuple(self._fold(m.group(0)) for m in WORD_RE.finditer(phrase))
        if not key:
            raise ValueError(f"phrase has no word tokens: {phrase!r}")
        if key in self._table:
            raise ValueError(f"duplicate phrase: {phrase!r}")
        self._table[key] = payload
        self._max_len = max(self._max_len, len(key))

    def __len__(self):
        return len(self._table)

    def find(self, text):
        """All matches in text as (char_start, char_end, payload, surface)."""
        spans = [(m.start(), m.end(), self._fold(m.group(0)))
                 for m in WORD_RE.finditer(text)]
        tokens = [s[2] for s in spans]
        n = len(tokens)
        out = []
        i = 0
        while i < n:
            hit = None
            for length in range(min(self._max_len, n - i), 0, -1):
                key = tuple(tokens[i:i + length])
                if key in self._table:
                    hit = length
                    break
            if hit is None:
                i += 1
                continue
            start = spans[i][0]
            end = spans[i + hit - 1][1]
            out.append((start, end, self._table[key], text[start:end]))
            i += hit
        return out
