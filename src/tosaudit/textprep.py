"""Turn raw snapshots into normalized, fully counted documents.

Covers text extraction, sentence segmentation, word tokenization,
syllable counting, and the document statistics every readability
formula consumes. All rules here are deterministic so identical input
always yields identical counts.

A WordTable holds each token's syllable, letter and character counts,
computed on first use; one table serves every document of a run.
"""

import re
from collections import Counter
from typing import NamedTuple

from . import inputs
from .errors import ExtractionError, LexiconError
from .htmltext import html_to_text, parse_selector

# Maximal runs of letters/digits; internal apostrophes and hyphens are
# kept, so "third-party" and "don't" are single tokens. Underscore is
# excluded from the class on purpose.
WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*", re.UNICODE)

# Case-sensitive suppression list for sentence splitting.
ABBREVIATIONS = frozenset({
    "Inc.", "Ltd.", "Corp.", "e.g.", "i.e.", "etc.", "No.", "U.S.", "v.",
    "Mr.", "Dr.",
})

_SENT_END_RE = re.compile(r"[.!?]+")
_SPACE_RE = re.compile(r"\s+")
# A blank line, from the first to the last newline of its whitespace run
# (normalize_text drops the rest): a paragraph break. Tried at newlines.
_BLANK_LINE_RE = re.compile(r"\n\s*\n")
_OPENING_QUOTES = "\"'“‘"
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


class Sentence(NamedTuple):
    """One sentence with its word tokens and span in the document text."""

    index: int
    text: str
    tokens: tuple
    char_span: tuple


class DocStats(NamedTuple):
    word_count: int = 0
    sentence_count: int = 0
    syllable_count: int = 0
    letter_count: int = 0
    character_count: int = 0
    complex_word_count: int = 0
    polysyllable_count: int = 0
    easy_word_count: int = 0
    hard_word_count: int = 0
    letters_per_100_words: float = 0.0
    sentences_per_100_words: float = 0.0
    degenerate: bool = False


class Document(NamedTuple):
    platform: str
    text: str
    sentences: tuple = ()
    stats: DocStats = DocStats()


def normalize_text(text):
    """Collapse whitespace; any run holding a blank line becomes '\n\n'."""
    return "\n\n".join(
        " ".join(part.split()) for part in _BLANK_LINE_RE.split(text)).strip()


def payload_text(payload, media_kind, extraction_config=None, platform=None):
    """Decode a snapshot payload into plain text, not yet normalized.

    media_kind is 'html' or 'plain_text'. extraction_config maps a
    platform name to {"include": [...], "exclude": [...]} selector
    lists applied to HTML payloads.
    """
    if not payload:
        raise ExtractionError("empty document")
    text = payload.decode("utf-8", errors="replace")
    if media_kind == "html":
        include = exclude = None
        if extraction_config and platform and platform in extraction_config:
            rules = extraction_config[platform]
            if isinstance(rules, list):
                include = rules
            else:
                include = rules.get("include")
                exclude = rules.get("exclude")
        text = html_to_text(text, include=include, exclude=exclude)
    elif media_kind != "plain_text":
        raise ExtractionError(f"unknown media kind: {media_kind}")
    return text


def extract_text(payload, media_kind, extraction_config=None, platform=None):
    """payload_text, normalized: the text of a Document built from it."""
    return normalize_text(
        payload_text(payload, media_kind, extraction_config, platform))


def load_extraction_config(path):
    """Read and check a platform -> selector-rule extraction config.

    A rule is a list of include selectors or an object with only optional
    "include" and "exclude" lists; every selector must parse.
    """
    config = inputs.read_json(path, LexiconError, "extraction config")
    for platform, rules in config.items():
        extra = isinstance(rules, dict) and set(rules) - {"include", "exclude"}
        if extra:
            raise LexiconError(f"extraction config {path}: rule for "
                               f"{platform!r} has unknown key {min(extra)!r}")
        lists = ((rules.get("include", []), rules.get("exclude", []))
                 if isinstance(rules, dict) else (rules,))
        if not all(map(inputs.is_phrase_list, lists)):
            raise LexiconError(
                f"extraction config {path}: rule for {platform!r} must be "
                "a list of selectors or an object with include/exclude lists")
        for selector in (s for selectors in lists for s in selectors):
            try:
                parse_selector(selector)
            except ValueError as exc:
                raise LexiconError(
                    f"extraction config {path}: {exc} for {platform!r}"
                ) from None
    return config


class TokenView:
    """Word tokens of one text, with their lowercased forms in folded.

    A sentence's view reuses Sentence.tokens, so building it runs no
    regex; matching.LexiconIndex.scan fills hits. Views live for one
    document's analysis and are not stored on a Sentence.
    """

    __slots__ = ("text", "tokens", "folded", "hits", "_starts")

    def __init__(self, text, tokens=None):
        self.text = text
        self.tokens = tuple(WORD_RE.findall(text) if tokens is None
                            else tokens)
        self.folded = tuple(map(str.lower, self.tokens))
        self.hits = {}
        self._starts = None

    def span(self, first, last):
        """Character span from token first through token last.

        On first use each token is found with str.find from the end of
        the one before: a gap between WORD_RE matches holds no character
        that can start a token.
        """
        if self._starts is None:
            self._starts = starts = []
            pos = 0
            for token in self.tokens:
                pos = self.text.find(token, pos)
                starts.append(pos)
                pos += len(token)
        return self._starts[first], self._starts[last] + len(self.tokens[last])


def tokenize_words(sentence_text):
    """Word tokens of a string, case preserved."""
    return WORD_RE.findall(sentence_text)


def _paragraphs(text):
    pos = 0
    for part in text.split("\n\n"):
        yield pos, part
        pos += len(part) + 2


def _split_points(para):
    """Indexes where a new sentence starts inside one paragraph."""
    points = []
    for m in _SENT_END_RE.finditer(para):
        end = m.end()
        ws = _SPACE_RE.match(para, end)
        if not ws:
            continue
        nxt = ws.end()
        if nxt >= len(para):
            continue
        ch = para[nxt]
        if not (ch.isupper() or ch.isdigit() or ch in _OPENING_QUOTES):
            continue
        # Walk back over the word that ends here: a regex search of the
        # whole prefix would make long paragraphs quadratic.
        start = end
        while start and not para[start - 1].isspace():
            start -= 1
        chunk = para[start:end].lstrip("([" + _OPENING_QUOTES)
        if chunk in ABBREVIATIONS:
            continue
        points.append((end, nxt))
    return points


def segment_sentences(text):
    """Split text into Sentences; spans index into the given text.

    Splits after '.', '!' or '?' when followed by whitespace and an
    uppercase letter, digit, or opening quote; a shipped abbreviation
    list and decimal numbers never split. Blank lines always end a
    sentence. Segments without any word token are dropped.
    """
    sentences = []
    for para_start, para in _paragraphs(text):
        points = _split_points(para)
        starts = [0] + [nxt for _, nxt in points]
        ends = [end for end, _ in points] + [len(para)]
        for seg_start, seg_end in zip(starts, ends):
            segment = para[seg_start:seg_end]
            stripped = segment.strip()
            if not stripped:
                continue
            tokens = tuple(tokenize_words(stripped))
            if not tokens:
                continue
            lead = len(segment) - len(segment.lstrip())
            abs_start = para_start + seg_start + lead
            sentences.append(Sentence(
                index=len(sentences),
                text=stripped,
                tokens=tokens,
                char_span=(abs_start, abs_start + len(stripped)),
            ))
    return sentences


def count_syllables(word, overrides=None):
    """Heuristic syllable count: vowel groups with a silent-e rule.

    Vowels are a, e, i, o, u, y. A terminal 'e' is silent unless the
    word ends in consonant + 'le'. Any non-empty token counts at least
    one syllable. overrides maps lowercased words to fixed counts.
    """
    if not word:
        return 0
    lw = word.lower()
    if overrides:
        fixed = overrides.get(lw)
        if fixed is not None:
            return fixed
    groups = len(_VOWEL_GROUP_RE.findall(lw))
    if groups == 0:
        return 1
    if lw.endswith("e"):
        if not (lw.endswith("le") and len(lw) >= 3 and lw[-3] not in "aeiouy"):
            groups -= 1
    return max(groups, 1)


def load_syllable_overrides(lexicons_dir=None):
    """Read syllable_exceptions.txt from lexicons_dir, or the shipped one.

    Lines are word<TAB>count, with '#' comments. Each word is one word
    token, given once after case folding, and each count at least 1.
    """
    path = inputs.lexicon_file(lexicons_dir, "syllable_exceptions.txt")
    lines = inputs.read_lines(path, LexiconError, "syllable overrides")
    overrides = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(
                f"{path}:{lineno}: expected word<TAB>count")
        word, count = parts
        word = word.strip()
        if not WORD_RE.fullmatch(word):
            raise LexiconError(
                f"{path}:{lineno}: {word!r} is not one word token")
        try:
            count = int(count)
        except ValueError:
            raise LexiconError(
                f"{path}:{lineno}: count is not an integer") from None
        if count < 1:
            raise LexiconError(f"{path}:{lineno}: count {count} is below 1")
        word = word.lower()
        if word in overrides:
            raise LexiconError(f"{path}:{lineno}: duplicate word {word!r}")
        overrides[word] = count
    return overrides


class WordTable(dict):
    """token -> (syllables, letters, characters), each computed once with
    the syllable overrides of count_syllables."""

    def __init__(self, overrides=None):
        self.overrides = overrides

    def __missing__(self, token):
        # Every character of a token but its joiners is alphanumeric.
        counts = self[token] = (
            count_syllables(token, self.overrides),
            len(token) if token.isalpha()
            else sum(1 for ch in token if ch.isalpha()),
            len(token) - token.count("-") - token.count("'")
            - token.count("’"))
        return counts


def compute_doc_stats(sentences, words=None):
    """Aggregate counts over sentences; zero words flags degenerate.

    Each distinct token is looked up once in words, a WordTable (a new
    one without overrides if None), and weighted by its frequency.
    """
    words = WordTable() if words is None else words
    frequency = Counter()
    for sentence in sentences:
        frequency.update(sentence.tokens)
    word_count = frequency.total()
    if word_count == 0:
        return DocStats(degenerate=True)
    syllable_count = letter_count = character_count = hard = 0
    for token, n in frequency.items():
        syllables, letters, characters = words[token]
        syllable_count += n * syllables
        letter_count += n * letters
        character_count += n * characters
        if syllables >= 3:
            hard += n
    sentence_count = len(sentences)
    return DocStats(
        word_count=word_count,
        sentence_count=sentence_count,
        syllable_count=syllable_count,
        letter_count=letter_count,
        character_count=character_count,
        complex_word_count=hard,
        polysyllable_count=hard,
        easy_word_count=word_count - hard,
        hard_word_count=hard,
        letters_per_100_words=100.0 * letter_count / word_count,
        sentences_per_100_words=100.0 * sentence_count / word_count,
    )


def build_document(platform, text, words=None):
    """Normalize text, segment it, and count it with the WordTable words."""
    normalized = normalize_text(text)
    sentences = tuple(segment_sentences(normalized))
    return Document(platform, normalized, sentences,
                    compute_doc_stats(sentences, words))
