"""Vague-term detection: density, diversity, and per-term frequencies.

Reads each sentence's vague-term matches from its scan by the shared
lexicon index, so matching is case-insensitive, word-bounded,
longest-match-wins, and never crosses a sentence boundary. A
multi-word match counts as one occurrence.
"""

from typing import NamedTuple

from . import inputs
from .errors import LexiconError
from .matching import LexiconIndex

CATEGORIES = ("uncertainty", "actor_ambiguity", "scope_ambiguity", "other")


class VagueTerm(NamedTuple):
    canonical: str
    variants: tuple
    category: str


class VagueLexicon(NamedTuple):
    terms: tuple
    version: str


class ClarityReport(NamedTuple):
    platform: str
    word_count: int
    vague_count: int
    density_pct: float
    unique_terms: int
    per_term_counts: dict
    matches: list


def load_vague_lexicon(path=None):
    """Load and validate a vague-term lexicon.

    Accepts either {"version": ..., "terms": [...]} or a bare JSON list
    of {canonical, variants, category} objects.
    """
    data = inputs.read_json(path or inputs.shipped("vague_terms.json"),
                            LexiconError, "lexicon", top=object)
    if isinstance(data, dict):
        version = str(data.get("version", ""))
        raw_terms = data.get("terms")
    else:
        version = ""
        raw_terms = data
    if not isinstance(raw_terms, list) or not raw_terms:
        raise LexiconError("lexicon has no terms")

    terms = []
    seen = set()
    for item in raw_terms:
        if not isinstance(item, dict):
            raise LexiconError(f"term entry is not an object: {item!r}")
        canonical = item.get("canonical") or ""
        if not isinstance(canonical, str) or not canonical.strip():
            raise LexiconError("empty term")
        canonical = canonical.strip()
        category = item.get("category", "other")
        if category not in CATEGORIES:
            raise LexiconError(
                f"unknown category {category!r} for term {canonical!r}")
        variants = item.get("variants", [])
        if not inputs.is_phrase_list(variants):
            raise LexiconError(
                f"variants of term {canonical!r} must be a list of "
                "non-empty strings")
        variants = tuple(v.strip() for v in variants)
        for surface in (canonical,) + variants:
            folded = surface.lower()
            if folded in seen:
                raise LexiconError(f"duplicate surface form: {surface!r}")
            seen.add(folded)
        terms.append(VagueTerm(
            canonical=canonical, variants=variants, category=category))
    return VagueLexicon(terms=tuple(terms), version=version)


def density_pct(vague_count, word_count):
    """Vague occurrences per hundred document words."""
    if word_count <= 0:
        return 0.0
    return 100.0 * vague_count / word_count


def index_terms(index, lex):
    """Add lex to a LexiconIndex as "vague"; variants map to canonicals."""
    for term in lex.terms:
        index.add("vague", term.canonical, term.canonical)
        for variant in term.variants:
            index.add("vague", variant, term.canonical)


def scan_vague_terms(doc, lex, views=None):
    """Scan a Document for vague terms and build its ClarityReport.

    views are the sentences' views scanned by a LexiconIndex that holds
    lex (see index_terms); without them the sentences are scanned here.
    Match spans are absolute offsets into doc.text. Variant hits are
    attributed to their canonical term.
    """
    if views is None:
        index = LexiconIndex()
        index_terms(index, lex)
        views = map(index.scan, doc.sentences)
    per_term = {}
    matches = []
    for sentence, view in zip(doc.sentences, views):
        base = sentence.char_span[0]
        for first, last, canonical in view.hits.get("vague", ()):
            start, end = view.span(first, last)
            matches.append(
                (sentence.index, (base + start, base + end), canonical))
            per_term[canonical] = per_term.get(canonical, 0) + 1
    vague_count = len(matches)
    word_count = doc.stats.word_count
    density = density_pct(vague_count, word_count)
    return ClarityReport(
        platform=doc.platform,
        word_count=word_count,
        vague_count=vague_count,
        density_pct=density,
        unique_terms=len(per_term),
        per_term_counts=per_term,
        matches=matches,
    )
