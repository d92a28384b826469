"""Schema and validation for manual interface scores.

The five interface-design metrics are always human-assigned. This
module enforces score ranges and evidence discipline and suggests
candidate evidentiary sentences from cue phrases. It never scores
anything itself.
"""

from typing import NamedTuple

from . import inputs
from .errors import AssessmentError, LexiconError
from .matching import LexiconIndex

# Metric name -> inclusive score range, in table column order.
METRIC_RANGES = {
    "unticked_checkbox": (0, 1),
    "review_before_consent": (0, 1),
    "separate_consent_steps": (0, 2),
    "explicit_denial": (0, 2),
    "reversibility_cue": (0, 2),
}
METRICS = tuple(METRIC_RANGES)


class EvidenceRecord(NamedTuple):
    metric: str
    excerpt: str
    sentence_index: int = -1


class InterfaceAssessment(NamedTuple):
    platform: str
    unticked_checkbox: int = 0
    review_before_consent: int = 0
    separate_consent_steps: int = 0
    explicit_denial: int = 0
    reversibility_cue: int = 0
    evidence: tuple = ()
    assessor: str = ""
    assessed_at: str = ""


def validate_assessment(assessment, doc=None):
    """All schema violations in one pass; empty list means valid.

    With doc given, the platform must also be the document's, and
    evidence excerpts verbatim substrings of the document text.
    """
    errors = []
    if not isinstance(assessment.platform, str):
        errors.append("platform is not a string")
    elif not assessment.platform:
        errors.append("missing platform")
    if doc is not None and assessment.platform != doc.platform:
        errors.append(f"platform {assessment.platform!r} is not the "
                      f"document's {doc.platform!r}")
    for metric, (lo, hi) in METRIC_RANGES.items():
        value = getattr(assessment, metric)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{metric}: score must be an integer")
            continue
        if not lo <= value <= hi:
            errors.append(f"{metric}: score {value} out of range {lo}..{hi}")
    evidence_by_metric = {}
    for i, ev in enumerate(assessment.evidence):
        if ev.metric not in METRIC_RANGES:
            errors.append(f"evidence[{i}]: unknown metric {ev.metric!r}")
            continue
        if not ev.excerpt:
            errors.append(f"evidence[{i}]: empty excerpt")
            continue
        evidence_by_metric.setdefault(ev.metric, []).append(ev)
        if doc is not None and ev.excerpt not in doc.text:
            errors.append(
                f"evidence[{i}]: excerpt is not a verbatim substring "
                "of the document")
    for metric in METRIC_RANGES:
        value = getattr(assessment, metric)
        if isinstance(value, int) and not isinstance(value, bool) \
                and value > 0 and not evidence_by_metric.get(metric):
            errors.append(f"{metric}: nonzero score without evidence")
    return errors


def assessment_to_dict(assessment):
    return {**assessment._asdict(),
            "evidence": [ev._asdict() for ev in assessment.evidence]}


def assessment_from_dict(data):
    try:
        assessment = InterfaceAssessment(
            platform=data["platform"],
            evidence=[
                EvidenceRecord(
                    metric=ev["metric"],
                    excerpt=ev["excerpt"],
                    sentence_index=ev.get("sentence_index", -1),
                )
                for ev in data.get("evidence", [])
            ],
            assessor=data.get("assessor", ""),
            assessed_at=data.get("assessed_at", ""),
            **{metric: data[metric] for metric in METRICS if metric in data},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise AssessmentError(f"malformed assessment: {exc}") from None
    if not all(isinstance(ev.metric, str) and isinstance(ev.excerpt, str)
               for ev in assessment.evidence):
        raise AssessmentError(
            "malformed assessment: evidence metric and excerpt must be strings")
    for ev in assessment.evidence:
        if type(ev.sentence_index) is not int:  # not JSON true, 3.9 or "7"
            raise AssessmentError(
                "malformed assessment: evidence sentence_index is not an "
                f"integer: {ev.sentence_index!r}")
    return assessment


def load_assessment(path):
    return assessment_from_dict(
        inputs.read_json(path, AssessmentError, "assessment"))


def load_cue_lexicon(path=None):
    """Per-metric cue phrases; defaults to the shipped file."""
    data = inputs.read_json(path or inputs.shipped("interface_cues.json"),
                            LexiconError, "cue lexicon")
    metrics = data.get("metrics", data)
    if not isinstance(metrics, dict):
        raise LexiconError("cue lexicon: metrics is not an object")
    cues = {}
    for metric in METRICS:
        phrases = metrics.get(metric, [])
        if not (phrases and inputs.is_phrase_list(phrases)):
            raise LexiconError(f"cue lexicon: no phrases for {metric} "
                               "(a list of non-empty strings)")
        cues[metric] = tuple(phrases)
    return cues


def suggest_evidence(doc, cues):
    """Candidate sentences per metric, ranked by cue hits.

    Advisory only: returns (sentence_index, sentence_text, cue_count)
    triples and never touches an assessment.
    """
    index = LexiconIndex()
    for metric, phrases in cues.items():
        for phrase in phrases:
            index.add(metric, phrase, phrase)
    suggestions = {metric: [] for metric in cues}
    for sentence in doc.sentences:
        hits = index.scan(sentence).hits
        for metric, found in suggestions.items():
            if metric in hits:
                found.append(
                    (sentence.index, sentence.text, len(hits[metric])))
    for metric in suggestions:
        suggestions[metric].sort(key=lambda t: (-t[2], t[0]))
    return suggestions
