"""Specificity scoring of data-practice disclosures.

Sentence-level detectors find named data types, named entities,
retention statements, and sharing conditions in each sentence's view
scanned by the pipeline's lexicon index (see index_lexicons); this
module scans nothing itself. Findings aggregate to document counts, map
onto 0..2 sub-scores, and average into a composite. Human labels,
carried in by a review file (see `results`), override automatic ones in
the post-review counts and scores, which are kept beside the automatic
ones. score_findings makes the results-file specificity block that
analyze and review apply both write.
"""

import re
from typing import NamedTuple

from . import inputs
from .errors import LexiconError, TosAuditError

DETECTORS = ("data_type", "entity", "retention", "sharing")
RETENTION_LABELS = ("explicit", "vague")
SHARING_LABELS = ("specific", "generic", "negated")
REJECTED = "rejected"

_SPELLED_NUMBERS = frozenset(
    "one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty "
    "thirty forty fifty sixty seventy eighty ninety".split()
)

_IRREGULAR_VERB_FORMS = {"keep": ("kept",)}

RETENTION_PROXIMITY_TOKENS = 10


class SpecificityLexicons:
    """The four pattern-family lexicons, with the corporate-name pattern
    and the descriptor and duration-unit sets compiled from them."""

    def __init__(self, data_types, known_entities, corporate_suffixes,
                 retention_verbs, vague_retention_phrases, duration_units,
                 sharing_verbs, specific_purpose_cues, generic_purpose_cues,
                 negation_cues, generic_descriptors=()):
        self.data_types = data_types
        self.known_entities = known_entities
        self.corporate_suffixes = corporate_suffixes
        self.retention_verbs = retention_verbs
        self.vague_retention_phrases = vague_retention_phrases
        self.duration_units = duration_units
        self.sharing_verbs = sharing_verbs
        self.specific_purpose_cues = specific_purpose_cues
        self.generic_purpose_cues = generic_purpose_cues
        self.negation_cues = negation_cues
        self.generic_descriptors = generic_descriptors
        name_part = r"[A-Z][A-Za-z0-9&'’.-]*"
        suffix_alt = "|".join(sorted(
            (re.escape(s) for s in self.corporate_suffixes),
            key=len, reverse=True))
        name_run = rf"\b{name_part}(?:\s+{name_part})*"
        # The second branch takes a run with no suffix after it whole, so
        # finditer tries each run once; see corporate_names.
        self.corporate_re = re.compile(
            rf"{name_run},?\s+(?:{suffix_alt})\b\.?|{name_run}(?P<bare>)")
        # The first branch's suffix part: no match, no corporate name.
        self.any_suffix_re = re.compile(rf"(?:{suffix_alt})\b")
        self.descriptors = {d.lower() for d in self.generic_descriptors}
        self.units = {u.lower() for u in self.duration_units}

    def corporate_names(self, text):
        """Corporate names: capitalized words, an optional comma, a suffix.

        Without the bare branch, finditer would try the first branch at
        every capitalized word of a run, each try scanning the rest of
        the run: quadratic in an ALL-CAPS clause. A match from a later
        word of a run extends to one from the run's first word, and
        greedy repetition makes that one reach at least as far, so once
        the first word is tried nothing before the end of the run (or
        of the match) can match, and the bare branch may skip it.
        """
        if not self.any_suffix_re.search(text):
            return []
        return [m for m in self.corporate_re.finditer(text)
                if m["bare"] is None]


class SentenceFinding(NamedTuple):
    platform: str
    sentence_index: int
    detector: str
    auto_label: str
    evidence_span: tuple
    sentence_text: str
    human_label: str = None
    reviewer_note: str = None

    def effective_label(self):
        return self.human_label or self.auto_label


class SpecificityCounts(NamedTuple):
    dt: int = 0
    en: int = 0
    re_explicit: int = 0
    re_vague: int = 0
    sg: int = 0
    ss: int = 0


class SpecificityScores(NamedTuple):
    dt_s: int
    en_s: int
    r_s: int
    s_s: int
    composite: float
    stage: str


def _phrase_list(name, values):
    """values, each stripped, if they are a list of non-blank strings."""
    if not inputs.is_phrase_list(values):
        raise LexiconError(f"{name}: must be a list of non-empty strings")
    return tuple(value.strip() for value in values)


def _unique_nonempty(name, values):
    out = []
    seen = set()
    for value in _phrase_list(name, values):
        folded = value.lower()
        if folded in seen:
            raise LexiconError(f"{name}: duplicate entry {value!r}")
        seen.add(folded)
        out.append(value)
    if not out:
        raise LexiconError(f"{name}: no entries")
    return tuple(out)


def load_specificity_lexicons(lexicons_dir=None):
    """Load the four pattern-family files from lexicons_dir.

    Each file missing from lexicons_dir, or all four when lexicons_dir
    is None, comes from the shipped data.
    """
    dt_data, ent_data, ret_data, shr_data = (
        inputs.read_json(inputs.lexicon_file(lexicons_dir, name),
                         LexiconError, "lexicon")
        for name in ("data_types.json", "entities.json", "retention.json",
                     "sharing.json"))

    categories = dt_data.get("categories", {})
    if not (isinstance(categories, dict) and categories):
        raise LexiconError("data_types.json: no categories object")
    data_types = {}
    all_phrases = []
    for category, phrases in categories.items():
        data_types[category] = _phrase_list(
            f"data_types.categories.{category}", phrases)
        all_phrases.extend(data_types[category])
    _unique_nonempty("data_types", all_phrases)

    return SpecificityLexicons(
        data_types=data_types,
        known_entities=_unique_nonempty(
            "entities.curated", ent_data.get("curated", [])),
        corporate_suffixes=_unique_nonempty(
            "entities.corporate_suffixes", ent_data.get("corporate_suffixes", [])),
        retention_verbs=_unique_nonempty(
            "retention.retention_verbs", ret_data.get("retention_verbs", [])),
        vague_retention_phrases=_unique_nonempty(
            "retention.vague_phrases", ret_data.get("vague_phrases", [])),
        duration_units=_unique_nonempty(
            "retention.duration_units", ret_data.get("duration_units", [])),
        sharing_verbs=_unique_nonempty(
            "sharing.sharing_verbs", shr_data.get("sharing_verbs", [])),
        specific_purpose_cues=_unique_nonempty(
            "sharing.specific_cues", shr_data.get("specific_cues", [])),
        generic_purpose_cues=_unique_nonempty(
            "sharing.generic_cues", shr_data.get("generic_cues", [])),
        negation_cues=_unique_nonempty(
            "sharing.negation_cues", shr_data.get("negation_cues", [])),
        generic_descriptors=_phrase_list(
            "entities.generic_descriptors",
            ent_data.get("generic_descriptors", [])),
    )


def inflect_verb(verb):
    """Base verb plus simple -s/-ed/-ing inflections and irregulars."""
    forms = {verb}
    if verb.endswith("e"):
        forms.update({verb + "s", verb + "d", verb[:-1] + "ing"})
    elif verb.endswith(("s", "sh", "ch", "x", "z")):
        forms.update({verb + "es", verb + "ed", verb + "ing"})
    else:
        forms.update({verb + "s", verb + "ed", verb + "ing"})
    forms.update(_IRREGULAR_VERB_FORMS.get(verb, ()))
    return forms


def index_lexicons(index, lex):
    """Add lex's phrase lexicons, verb forms and duration units to a
    matching.LexiconIndex; curated entities match case-sensitively."""
    for phrases in lex.data_types.values():
        for phrase in phrases:
            index.add("data_type", phrase, phrase)
    for name in lex.known_entities:
        index.add("entity", name, name, fold_case=False)
    for lexicon, phrases in (
            ("vague_retention", lex.vague_retention_phrases),
            ("specific", lex.specific_purpose_cues),
            ("generic", lex.generic_purpose_cues),
            ("negated", lex.negation_cues)):
        for phrase in phrases:
            index.add(lexicon, phrase, phrase)
    for lexicon, verbs in (("retention_verb", lex.retention_verbs),
                           ("sharing_verb", lex.sharing_verbs)):
        index.add_words(lexicon, set().union(
            *(inflect_verb(verb.lower()) for verb in verbs)))
    index.add_words("duration_unit", lex.units)


def _is_number_token(token):
    if token.isdigit():
        return True
    parts = token.split("-")
    return all(p in _SPELLED_NUMBERS for p in parts if p)


def _duration_ranges(view, units):
    """Token-index ranges (start, end inclusive) of numeric durations.

    A duration is a number one or two tokens before a duration unit, or
    one hyphenated token such as "30-day". Only the tokens before the
    view's "duration_unit" hits and hyphenated tokens can start one.
    """
    folded = view.folded
    n = len(folded)
    starts = {unit - k for unit, _, _ in view.hits.get("duration_unit", ())
              for k in (1, 2) if unit >= k}
    if "-" in view.text:
        starts.update(i for i, tok in enumerate(folded) if "-" in tok)
    ranges = []
    for i in sorted(starts):
        tok = folded[i]
        if "-" in tok:
            head, _, tail = tok.rpartition("-")
            if tail in units and head and _is_number_token(head):
                ranges.append((i, i))
                continue
        if i + 1 < n and folded[i + 1] in units:
            j = i + 1
        elif i + 2 < n and folded[i + 2] in units:
            j = i + 2
        else:
            continue
        if _is_number_token(tok):
            ranges.append((i, j))
    return ranges


def detect_data_types(view, lex):
    """(phrase, span) for each distinct data-type phrase in the sentence.

    view is the sentence's view scanned by a LexiconIndex that holds lex
    (see index_lexicons), as for every detector here. Each detector
    returns (auto_label, (start, end)) pairs; an empty list means none.
    """
    pairs = []
    seen = set()
    for first, last, phrase in view.hits.get("data_type", ()):
        if phrase.lower() not in seen:
            seen.add(phrase.lower())
            pairs.append((phrase, view.span(first, last)))
    return pairs


def detect_entities(view, lex):
    """Curated names and suffix-pattern corporate names.

    Curated hits nested inside a suffix-pattern span are suppressed so
    "Meta Platforms, Inc." yields one entity, not two. Generic
    descriptors never match.
    """
    text = view.text
    candidates = []
    taken = []
    for m in lex.corporate_names(text):
        taken.append((m.start(), m.end()))
        candidates.append((m.start(), m.end(), m.group(0)))
    for first, last, _name in view.hits.get("entity", ()):
        start, end = view.span(first, last)
        if any(s <= start and end <= e for s, e in taken):
            continue
        candidates.append((start, end, text[start:end]))
    candidates.sort()
    pairs = []
    seen = set()
    for start, end, surface in candidates:
        folded = surface.lower().rstrip(".")
        if folded in lex.descriptors or folded in seen:
            continue
        seen.add(folded)
        pairs.append((surface, (start, end)))
    return pairs


def classify_retention(view, lex):
    """Label a sentence explicit or vague for retention detail.

    Explicit needs a retention verb within RETENTION_PROXIMITY_TOKENS
    tokens of a numeric duration; vague needs a vague retention phrase
    and no numeric duration anywhere in the sentence.
    """
    verbs = view.hits.get("retention_verb", ())
    vague = view.hits.get("vague_retention")
    if not (verbs or vague):
        return []
    durations = _duration_ranges(view, lex.units)
    for vi, _, _ in verbs:
        for ds, de in durations:
            if min(abs(vi - ds), abs(vi - de)) <= RETENTION_PROXIMITY_TOKENS:
                return [("explicit", view.span(min(vi, ds), max(vi, de)))]
    if vague and not durations:
        first, last, _ = vague[0]
        return [("vague", view.span(first, last))]
    return []


def classify_sharing(view, lex):
    """Label a sharing-verb sentence specific, generic, or negated.

    Sentences without a sharing verb get no label. Negation wins, then a
    specific purpose cue, then a generic one; a sentence gets at most
    one sharing finding, under its most specific label.
    """
    if "sharing_verb" in view.hits:
        for label in ("negated", "specific", "generic"):
            cues = view.hits.get(label)
            if cues:
                first, last, _ = cues[0]
                return [(label, view.span(first, last))]
    return []


def analyze_document(doc, lex, views):
    """Run all four detectors over every sentence of a document.

    views are the sentences' views, in order, scanned by a LexiconIndex
    that holds lex (see index_lexicons).
    """
    detectors = tuple(zip(DETECTORS, (
        detect_data_types, detect_entities, classify_retention,
        classify_sharing)))
    return [SentenceFinding(doc.platform, sentence.index, detector, label,
                            span, sentence.text)
            for sentence, view in zip(doc.sentences, views)
            for detector, detect in detectors
            for label, span in detect(view, lex)]


def aggregate_counts(findings, use_review=True):
    """Document counts from findings.

    DT and EN count distinct case-folded labels; retention and sharing
    count sentences per label. With use_review, human labels override
    automatic ones and rejected findings are dropped.
    """
    platforms = {f.platform for f in findings}
    if len(platforms) > 1:
        raise TosAuditError("mixed-document input")
    dt = set()
    en = set()
    re_explicit = re_vague = sg = ss = 0
    for f in findings:
        label = f.effective_label() if use_review else f.auto_label
        if use_review and label == REJECTED:
            continue
        if f.detector == "data_type":
            dt.add(label.lower())
        elif f.detector == "entity":
            en.add(label.lower())
        elif f.detector == "retention":
            if label == "explicit":
                re_explicit += 1
            elif label == "vague":
                re_vague += 1
        elif f.detector == "sharing":
            if label == "generic":
                sg += 1
            elif label == "specific":
                ss += 1
    return SpecificityCounts(
        dt=len(dt), en=len(en),
        re_explicit=re_explicit, re_vague=re_vague,
        sg=sg, ss=ss,
    )


def sentence_coverage(findings, sentence_count):
    """Diagnostic: fraction of sentences per detector with a finding
    that review did not reject."""
    if sentence_count <= 0:
        return {d: 0.0 for d in DETECTORS}
    hit = {d: set() for d in DETECTORS}
    for f in findings:
        if f.effective_label() != REJECTED:
            hit[f.detector].add(f.sentence_index)
    return {d: len(s) / sentence_count for d, s in hit.items()}


def map_scores(counts, stage="auto"):
    """Map raw counts to 0..2 sub-scores and their composite mean."""
    dt_s = 0 if counts.dt == 0 else 1 if counts.dt <= 3 else 2
    en_s = 0 if counts.en == 0 else 1 if counts.en <= 2 else 2
    r_s = 2 if counts.re_explicit >= 1 else 1 if counts.re_vague >= 1 else 0
    s_s = (2 if counts.ss >= 3
           else 1 if counts.ss >= 1 or counts.sg >= 1 else 0)
    composite = (dt_s + en_s + r_s + s_s) / 4.0
    return SpecificityScores(
        dt_s=dt_s, en_s=en_s, r_s=r_s, s_s=s_s,
        composite=composite, stage=stage,
    )


def score_findings(findings, sentence_count):
    """The results-file specificity block of a document's findings:
    auto and post-review counts and scores, as dicts, plus sentence
    coverage. results.encode_record writes the findings."""
    auto_counts = aggregate_counts(findings, use_review=False)
    post_counts = aggregate_counts(findings, use_review=True)
    return {
        "findings": findings,
        "auto": {
            "counts": auto_counts._asdict(),
            "scores": map_scores(auto_counts, "auto")._asdict(),
        },
        "post_review": {
            "counts": post_counts._asdict(),
            "scores": map_scores(post_counts, "post_review")._asdict(),
        },
        "coverage": sentence_coverage(findings, sentence_count),
    }
