"""Specificity scoring of data-practice disclosures.

Sentence-level detectors find named data types, named entities,
retention statements, and sharing conditions. Findings aggregate to
document counts, map onto 0..2 sub-scores, and average into a
composite. A JSONL review round-trip lets a human confirm, relabel,
or reject findings, yielding auto and post-review score pairs.
"""

import itertools
import json
import re
from dataclasses import dataclass

from . import inputs
from .errors import LexiconError, ReviewError, TosAuditError
from .matching import PhraseMatcher
from .textprep import TokenView

DETECTORS = ("data_type", "entity", "retention", "sharing")
RETENTION_LABELS = ("explicit", "vague")
SHARING_LABELS = ("specific", "generic", "negated")
REJECTED = "rejected"

REVIEW_FORMAT = "tosaudit-review"
REVIEW_VERSION = 1

_SPELLED_NUMBERS = frozenset(
    "one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty "
    "thirty forty fifty sixty seventy eighty ninety".split()
)

_IRREGULAR_VERB_FORMS = {"keep": ("kept",)}

RETENTION_PROXIMITY_TOKENS = 10


@dataclass(frozen=True)
class SpecificityLexicons:
    data_types: dict
    known_entities: tuple
    corporate_suffixes: tuple
    retention_verbs: tuple
    vague_retention_phrases: tuple
    duration_units: tuple
    sharing_verbs: tuple
    specific_purpose_cues: tuple
    generic_purpose_cues: tuple
    negation_cues: tuple
    generic_descriptors: tuple = ()


@dataclass
class SentenceFinding:
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


@dataclass(frozen=True)
class SpecificityCounts:
    dt: int = 0
    en: int = 0
    re_explicit: int = 0
    re_vague: int = 0
    sg: int = 0
    ss: int = 0


@dataclass(frozen=True)
class SpecificityScores:
    dt_s: int
    en_s: int
    r_s: int
    s_s: int
    composite: float
    stage: str


@dataclass(frozen=True)
class FindingScores:
    auto_counts: SpecificityCounts
    auto_scores: SpecificityScores
    post_counts: SpecificityCounts
    post_scores: SpecificityScores
    coverage: dict


def _phrase_list(name, values):
    if not inputs.is_phrase_list(values):
        raise LexiconError(f"{name}: must be a list of non-empty strings")
    return tuple(values)


def _unique_nonempty(name, values):
    out = []
    seen = set()
    for value in _phrase_list(name, values):
        value = value.strip()
        folded = value.lower()
        if folded in seen:
            raise LexiconError(f"{name}: duplicate entry {value!r}")
        seen.add(folded)
        out.append(value)
    if not out:
        raise LexiconError(f"{name}: no entries")
    return tuple(out)


def load_specificity_lexicons(dir_path=None):
    """Load the four pattern-family files from dir_path.

    Each file missing from dir_path, or all four when dir_path is None,
    comes from the shipped data.
    """
    dt_data, ent_data, ret_data, shr_data = (
        inputs.read_json(inputs.lexicon_file(dir_path, name),
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
        all_phrases.extend(phrases)
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


class CompiledLexicons:
    """Lexicons with matchers and verb-form sets built once."""

    def __init__(self, lex):
        self.raw = lex
        self.dt_matcher = PhraseMatcher(fold_case=True)
        for phrases in lex.data_types.values():
            for phrase in phrases:
                self.dt_matcher.add(phrase, phrase)
        self.entity_matcher = PhraseMatcher(fold_case=False)
        for name in lex.known_entities:
            self.entity_matcher.add(name, name)
        name_part = r"[A-Z][A-Za-z0-9&'’.-]*"
        suffix_alt = "|".join(sorted(
            (re.escape(s) for s in lex.corporate_suffixes),
            key=len, reverse=True))
        name_run = rf"\b{name_part}(?:\s+{name_part})*"
        # The second branch takes a run with no suffix after it whole, so
        # finditer tries each run once; see corporate_names.
        self.corporate_re = re.compile(
            rf"{name_run},?\s+(?:{suffix_alt})\b\.?|{name_run}(?P<bare>)")
        self.descriptors = {d.lower() for d in lex.generic_descriptors}
        self.retention_verb_forms = set()
        for verb in lex.retention_verbs:
            self.retention_verb_forms.update(inflect_verb(verb.lower()))
        self.vague_retention_matcher = PhraseMatcher(fold_case=True)
        for phrase in lex.vague_retention_phrases:
            self.vague_retention_matcher.add(phrase, phrase)
        self.duration_units = {u.lower() for u in lex.duration_units}
        self.sharing_verb_forms = set()
        for verb in lex.sharing_verbs:
            self.sharing_verb_forms.update(inflect_verb(verb.lower()))
        self.specific_matcher = PhraseMatcher(fold_case=True)
        for cue in lex.specific_purpose_cues:
            self.specific_matcher.add(cue, cue)
        self.generic_matcher = PhraseMatcher(fold_case=True)
        for cue in lex.generic_purpose_cues:
            self.generic_matcher.add(cue, cue)
        self.negation_matcher = PhraseMatcher(fold_case=True)
        for cue in lex.negation_cues:
            self.negation_matcher.add(cue, cue)

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
        return [m for m in self.corporate_re.finditer(text)
                if m["bare"] is None]


def ensure_compiled(lex):
    if isinstance(lex, CompiledLexicons):
        return lex
    return CompiledLexicons(lex)


def _is_number_token(token):
    if token.isdigit():
        return True
    parts = token.split("-")
    return all(p in _SPELLED_NUMBERS for p in parts if p)


def _duration_ranges(folded_tokens, units):
    """Token-index ranges (start, end inclusive) of numeric durations."""
    ranges = []
    n = len(folded_tokens)
    for i, tok in enumerate(folded_tokens):
        if "-" in tok:
            head, _, tail = tok.rpartition("-")
            if tail in units and head and _is_number_token(head):
                ranges.append((i, i))
                continue
        if i + 1 < n and folded_tokens[i + 1] in units:
            j = i + 1
        elif i + 2 < n and folded_tokens[i + 2] in units:
            j = i + 2
        else:
            continue
        if _is_number_token(tok):
            ranges.append((i, j))
    return ranges


def detect_data_types(sentence, lex, platform="", view=None):
    """One finding per distinct data-type phrase named in the sentence.

    view is the sentence's TokenView; it is built here when omitted.
    """
    lex = ensure_compiled(lex)
    if view is None:
        view = TokenView(sentence.text, sentence.tokens)
    findings = []
    seen = set()
    for start, end, phrase, _surface in lex.dt_matcher.find(view):
        if phrase.lower() in seen:
            continue
        seen.add(phrase.lower())
        findings.append(SentenceFinding(
            platform=platform,
            sentence_index=sentence.index,
            detector="data_type",
            auto_label=phrase,
            evidence_span=(start, end),
            sentence_text=sentence.text,
        ))
    return findings


def detect_entities(sentence, lex, platform="", view=None):
    """Findings for curated names and suffix-pattern corporate names.

    Curated hits nested inside a suffix-pattern span are suppressed so
    "Meta Platforms, Inc." yields one entity, not two. Generic
    descriptors never match.
    """
    lex = ensure_compiled(lex)
    text = sentence.text
    if view is None:
        view = TokenView(text, sentence.tokens)
    candidates = []
    taken = []
    for m in lex.corporate_names(text):
        surface = m.group(0)
        taken.append((m.start(), m.end()))
        candidates.append((m.start(), m.end(), surface))
    for start, end, _name, surface in lex.entity_matcher.find(view):
        if any(s <= start and end <= e for s, e in taken):
            continue
        candidates.append((start, end, surface))
    candidates.sort()
    findings = []
    seen = set()
    for start, end, surface in candidates:
        folded = surface.lower().rstrip(".")
        if folded in lex.descriptors or folded in seen:
            continue
        seen.add(folded)
        findings.append(SentenceFinding(
            platform=platform,
            sentence_index=sentence.index,
            detector="entity",
            auto_label=surface,
            evidence_span=(start, end),
            sentence_text=sentence.text,
        ))
    return findings


def classify_retention(sentence, lex, platform="", view=None):
    """Label a sentence explicit, vague, or none for retention detail.

    Explicit needs a retention verb within RETENTION_PROXIMITY_TOKENS
    tokens of a numeric duration; vague needs a vague retention phrase
    and no numeric duration anywhere in the sentence.
    """
    lex = ensure_compiled(lex)
    if view is None:
        view = TokenView(sentence.text, sentence.tokens)
    folded = view.folded
    verb_positions = [i for i, tok in enumerate(folded)
                      if tok in lex.retention_verb_forms]
    durations = _duration_ranges(folded, lex.duration_units)

    for vi in verb_positions:
        for ds, de in durations:
            if min(abs(vi - ds), abs(vi - de)) <= RETENTION_PROXIMITY_TOKENS:
                lo = min(vi, ds)
                hi = max(vi, de)
                finding = SentenceFinding(
                    platform=platform,
                    sentence_index=sentence.index,
                    detector="retention",
                    auto_label="explicit",
                    evidence_span=view.span(lo, hi),
                    sentence_text=sentence.text,
                )
                return "explicit", finding

    if not durations:
        vague_hits = lex.vague_retention_matcher.find(view)
        if vague_hits:
            start, end, _, _ = vague_hits[0]
            finding = SentenceFinding(
                platform=platform,
                sentence_index=sentence.index,
                detector="retention",
                auto_label="vague",
                evidence_span=(start, end),
                sentence_text=sentence.text,
            )
            return "vague", finding
    return "none", None


def classify_sharing(sentence, lex, platform="", view=None):
    """Label a sharing-verb sentence specific, generic, or negated.

    Sentences without a sharing verb are none. Negation wins, then a
    specific purpose cue, then a generic one; a sentence gets at most
    one sharing finding, under its most specific label.
    """
    lex = ensure_compiled(lex)
    if view is None:
        view = TokenView(sentence.text, sentence.tokens)
    if lex.sharing_verb_forms.isdisjoint(view.folded):
        return "none", None

    def finding_for(label, hit):
        start, end, _, _ = hit
        return SentenceFinding(
            platform=platform,
            sentence_index=sentence.index,
            detector="sharing",
            auto_label=label,
            evidence_span=(start, end),
            sentence_text=sentence.text,
        )

    negated = lex.negation_matcher.find(view)
    if negated:
        return "negated", finding_for("negated", negated[0])
    specific = lex.specific_matcher.find(view)
    if specific:
        return "specific", finding_for("specific", specific[0])
    generic = lex.generic_matcher.find(view)
    if generic:
        return "generic", finding_for("generic", generic[0])
    return "none", None


def analyze_document(doc, lex):
    """Run all four detectors over every sentence of a document."""
    lex = ensure_compiled(lex)
    findings = []
    platform = doc.platform
    for sentence in doc.sentences:
        view = TokenView(sentence.text, sentence.tokens)
        findings.extend(detect_data_types(sentence, lex, platform, view))
        findings.extend(detect_entities(sentence, lex, platform, view))
        _, finding = classify_retention(sentence, lex, platform, view)
        if finding is not None:
            findings.append(finding)
        _, finding = classify_sharing(sentence, lex, platform, view)
        if finding is not None:
            findings.append(finding)
    return findings


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


def sentence_coverage(findings, sentence_count, use_review=True):
    """Diagnostic: fraction of sentences with >=1 finding per detector."""
    if sentence_count <= 0:
        return {d: 0.0 for d in DETECTORS}
    hit = {d: set() for d in DETECTORS}
    for f in findings:
        label = f.effective_label() if use_review else f.auto_label
        if use_review and label == REJECTED:
            continue
        hit[f.detector].add(f.sentence_index)
    return {d: len(s) / sentence_count for d, s in hit.items()}


def map_scores(counts, stage="auto"):
    """Map raw counts to 0..2 sub-scores and their composite mean."""
    if counts.dt == 0:
        dt_s = 0
    elif counts.dt <= 3:
        dt_s = 1
    else:
        dt_s = 2
    if counts.en == 0:
        en_s = 0
    elif counts.en <= 2:
        en_s = 1
    else:
        en_s = 2
    if counts.re_explicit >= 1:
        r_s = 2
    elif counts.re_vague >= 1:
        r_s = 1
    else:
        r_s = 0
    if counts.ss >= 3:
        s_s = 2
    elif counts.ss >= 1 or counts.sg >= 1:
        s_s = 1
    else:
        s_s = 0
    composite = (dt_s + en_s + r_s + s_s) / 4.0
    return SpecificityScores(
        dt_s=dt_s, en_s=en_s, r_s=r_s, s_s=s_s,
        composite=composite, stage=stage,
    )


def score_findings(findings, sentence_count):
    """Auto and post-review counts and scores, plus sentence coverage."""
    auto_counts = aggregate_counts(findings, use_review=False)
    post_counts = aggregate_counts(findings, use_review=True)
    return FindingScores(
        auto_counts=auto_counts,
        auto_scores=map_scores(auto_counts, "auto"),
        post_counts=post_counts,
        post_scores=map_scores(post_counts, "post_review"),
        coverage=sentence_coverage(findings, sentence_count),
    )


def finding_to_dict(f):
    return {
        "platform": f.platform,
        "sentence_index": f.sentence_index,
        "detector": f.detector,
        "auto_label": f.auto_label,
        "evidence_span": {"start": f.evidence_span[0], "end": f.evidence_span[1]},
        "sentence_text": f.sentence_text,
        "human_label": f.human_label or "",
        "reviewer_note": f.reviewer_note or "",
    }


def finding_from_dict(d):
    span = d["evidence_span"]
    return SentenceFinding(
        platform=d["platform"],
        sentence_index=int(d["sentence_index"]),
        detector=d["detector"],
        auto_label=d["auto_label"],
        evidence_span=(int(span["start"]), int(span["end"])),
        sentence_text=d["sentence_text"],
        human_label=d.get("human_label") or None,
        reviewer_note=d.get("reviewer_note") or None,
    )


def _review_sort_key(f):
    return (f.platform, f.sentence_index, f.evidence_span[0], f.detector)


def export_review(findings, path, include_dt_en=False):
    """Write findings awaiting review as JSONL with a header record.

    Retention and sharing findings are always exported; data-type and
    entity findings only when include_dt_en is set.
    """
    wanted = ("retention", "sharing")
    if include_dt_en:
        wanted = DETECTORS
    records = sorted(
        (f for f in findings if f.detector in wanted), key=_review_sort_key)
    header = {
        "record_type": "header",
        "format": REVIEW_FORMAT,
        "version": REVIEW_VERSION,
        "finding_count": len(records),
    }
    dicts = itertools.chain([header], map(finding_to_dict, records))
    inputs.write_text(path, "".join(
        json.dumps(d, sort_keys=True, ensure_ascii=False) + "\n"
        for d in dicts))
    return len(records)


def parse_review_file(path):
    """Read a review JSONL file; returns the finding records."""
    records = []
    lines = inputs.read_lines(path, ReviewError, "review")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ReviewError(f"line {lineno}: malformed record: {exc}") from None
        if not isinstance(record, dict):
            raise ReviewError(f"line {lineno}: record is not a JSON object")
        records.append(record)
    if not records:
        raise ReviewError("empty review file (missing header record)")
    header = records.pop(0)
    if header.get("record_type") != "header":
        raise ReviewError("first record is not a header record")
    if header.get("format") != REVIEW_FORMAT:
        raise ReviewError(f"unknown review format: {header.get('format')!r}")
    return records


def _allowed_labels(detector):
    if detector == "retention":
        return set(RETENTION_LABELS) | {REJECTED}
    if detector == "sharing":
        return set(SHARING_LABELS) | {REJECTED}
    return None  # open label sets for data_type / entity


def apply_review_records(findings, records):
    """Apply parsed review records onto findings in place."""
    index = {}
    for f in findings:
        key = (f.platform, f.sentence_index, f.detector,
               f.evidence_span[0], f.evidence_span[1])
        index[key] = f
    for rec in records:
        try:
            span = rec["evidence_span"]
            key = (rec["platform"], int(rec["sentence_index"]),
                   rec["detector"], int(span["start"]), int(span["end"]))
            finding = index.get(key)
            label = (rec.get("human_label") or "").strip()
            note = (rec.get("reviewer_note") or "").strip()
        except (LookupError, TypeError, ValueError, ArithmeticError,
                AttributeError):
            raise ReviewError(f"malformed review record: {rec!r}") from None
        if finding is None:
            raise ReviewError(
                "unmatched review record: "
                f"{rec['platform']}/{rec['sentence_index']}/{rec['detector']}")
        if label:
            allowed = _allowed_labels(finding.detector)
            if allowed is not None and label not in allowed:
                raise ReviewError(
                    f"illegal label value {label!r} for "
                    f"{finding.detector} finding")
            finding.human_label = label
        if note:
            finding.reviewer_note = note
    return findings
