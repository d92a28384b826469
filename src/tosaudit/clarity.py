"""Vague-term detection: density, diversity, and per-term frequencies.

scan_vague_terms reads each sentence's vague-term matches from its view
scanned by the pipeline's lexicon index (see index_terms), so matching
is case-insensitive, word-bounded, longest-match-wins, and never
crosses a sentence boundary. A multi-word match counts as one
occurrence. This module scans nothing itself.
"""

from typing import NamedTuple

from . import inputs
from .errors import LexiconError

CATEGORIES = ("uncertainty", "actor_ambiguity", "scope_ambiguity", "other")


class VagueTerm(NamedTuple):
    canonical: str
    variants: tuple
    category: str


class ClarityReport(NamedTuple):
    word_count: int
    vague_count: int
    density_pct: float
    unique_terms: int
    per_term_counts: dict
    matches: list


def load_vague_lexicon(lexicons_dir=None):
    """Load and validate vague_terms.json: a tuple of VagueTerms.

    The file is read from lexicons_dir, or shipped when it is None or
    the file is missing there. It holds either {"version": ...,
    "terms": [...]} or a bare JSON list of {canonical, variants,
    category} objects.
    """
    data = inputs.read_json(
        inputs.lexicon_file(lexicons_dir, "vague_terms.json"),
        LexiconError, "lexicon", top=object)
    raw_terms = data.get("terms") if isinstance(data, dict) else data
    if not isinstance(raw_terms, list) or not raw_terms:
        raise LexiconError("lexicon has no terms")

    terms = []
    seen = set()
    for item in raw_terms:
        if not isinstance(item, dict):
            raise LexiconError(f"term entry is not an object: {item!r}")
        canonical = item.get("canonical")
        if not isinstance(canonical, str) or not canonical.strip():
            raise LexiconError(f"empty term: canonical {canonical!r} "
                               "is not a non-empty string")
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
    return tuple(terms)


def density_pct(vague_count, word_count):
    """Vague occurrences per hundred document words."""
    if word_count <= 0:
        return 0.0
    return 100.0 * vague_count / word_count


def index_terms(index, lex):
    """Add lex to a LexiconIndex as "vague"; variants map to canonicals."""
    for term in lex:
        index.add("vague", term.canonical, term.canonical)
        for variant in term.variants:
            index.add("vague", variant, term.canonical)


def scan_vague_terms(doc, views):
    """Build a Document's ClarityReport from its sentences' views.

    views are the sentences' views, in order, scanned by a LexiconIndex
    that holds the vague-term lexicon (see index_terms). Match spans are
    absolute offsets into doc.text. Variant hits are attributed to their
    canonical term.
    """
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
        word_count=word_count,
        vague_count=vague_count,
        density_pct=density,
        unique_terms=len(per_term),
        per_term_counts=per_term,
        matches=matches,
    )
