"""Corpus-wide orchestration: snapshot to per-platform result records.

Results are a pure function of the snapshot digests, lexicons, and
options: no timestamps are generated, platforms are reported in
alphabetical order, and serialization is canonical, so re-runs over a
frozen corpus are byte-identical. A large corpus is analyzed in a pool
of forked processes, one per usable CPU; a small one in this process.
"""

import os
from dataclasses import asdict, dataclass

from . import clarity as clarity_mod
from . import corpus as corpus_mod
from . import inputs, interface_assess
from . import readability as readability_mod
from . import specificity as specificity_mod
from . import textprep
from .errors import AssessmentError, ReviewError, TosAuditError
from .inputs import canonical_json

RESULTS_SCHEMA_VERSION = 1

EXTRACTION_CONFIG_NAME = "extraction_config.json"
ASSESSMENTS_DIR = "assessments"

# Starting a worker pool costs about 55 ms per run. Markup-heavy HTML,
# the least work per payload byte, pays that back from about 0.25 to
# 0.4 MB on (2 CPUs, Python 3.11); a smaller corpus is analyzed in this
# process.
POOL_MIN_PAYLOAD_BYTES = 400_000


@dataclass
class PlatformResult:
    platform: str
    source_digest: str
    document: object
    profile: object
    bands: dict
    fluency: dict
    clarity: object
    findings: list
    auto_counts: object
    auto_scores: object
    post_counts: object
    post_scores: object
    coverage: dict
    interface: object = None


def _specificity_block(findings, scored):
    """Results-file specificity block from findings and their scores.

    scored is a specificity.FindingScores or a PlatformResult (same fields).
    """
    return {
        "findings": [specificity_mod.finding_to_dict(f) for f in findings],
        "auto": {
            "counts": asdict(scored.auto_counts),
            "scores": asdict(scored.auto_scores),
        },
        "post_review": {
            "counts": asdict(scored.post_counts),
            "scores": asdict(scored.post_scores),
        },
        "coverage": dict(scored.coverage),
    }


def result_to_dict(result):
    return {
        "platform": result.platform,
        "source_digest": result.source_digest,
        "doc_stats": asdict(result.document.stats),
        "readability": {
            "scores": asdict(result.profile),
            "bands": dict(result.bands),
        },
        "fluency": result.fluency,
        "clarity": {
            "word_count": result.clarity.word_count,
            "vague_count": result.clarity.vague_count,
            "density_pct": result.clarity.density_pct,
            "unique_terms": result.clarity.unique_terms,
            "per_term_counts": dict(result.clarity.per_term_counts),
            "matches": [
                [idx, [span[0], span[1]], canonical]
                for idx, span, canonical in result.clarity.matches
            ],
        },
        "specificity": _specificity_block(result.findings, result),
        "interface": (interface_assess.assessment_to_dict(result.interface)
                      if result.interface is not None else None),
    }


class PipelineContext:
    """Lexicons and options loaded once per run."""

    def __init__(self, lexicons_dir=None, corpus_dir=None,
                 classic_lensear=False):
        self.vague_lexicon = clarity_mod.load_vague_lexicon(
            inputs.lexicon_file(lexicons_dir, "vague_terms.json"))
        self.vague_matcher = clarity_mod.build_matcher(self.vague_lexicon)
        self.spec_lexicons = specificity_mod.ensure_compiled(
            specificity_mod.load_specificity_lexicons(lexicons_dir))
        self.reader_groups = readability_mod.load_reader_groups(
            inputs.lexicon_file(lexicons_dir, "reader_groups.json"))
        self.syllable_overrides = textprep.load_syllable_overrides(
            inputs.lexicon_file(lexicons_dir, "syllable_exceptions.txt"))
        self.classic_lensear = classic_lensear
        self.extraction_config = None
        if corpus_dir is not None:
            cfg_path = os.path.join(corpus_dir, EXTRACTION_CONFIG_NAME)
            if os.path.exists(cfg_path):
                self.extraction_config = textprep.load_extraction_config(cfg_path)


def analyze_entry(entry, payload, ctx):
    """Analyze one snapshot payload into a PlatformResult."""
    text = textprep.extract_text(
        payload, entry.media_kind,
        extraction_config=ctx.extraction_config, platform=entry.platform)
    doc = textprep.build_document(
        entry.platform, text, syllable_overrides=ctx.syllable_overrides)
    profile = readability_mod.compute_readability_profile(
        doc.stats, classic_lensear=ctx.classic_lensear)
    bands = readability_mod.profile_bands(profile)
    fluency = {}
    for group in ctx.reader_groups:
        estimate = readability_mod.estimate_reading_time(
            doc.stats.word_count, group)
        fluency[group.name] = {"wpm_low": group.wpm_low,
                               "wpm_high": group.wpm_high, **asdict(estimate)}
    clarity_report = clarity_mod.scan_vague_terms(
        doc, ctx.vague_lexicon, matcher=ctx.vague_matcher)
    findings = specificity_mod.analyze_document(doc, ctx.spec_lexicons)
    scored = specificity_mod.score_findings(
        findings, doc.stats.sentence_count)
    return PlatformResult(
        platform=entry.platform,
        source_digest=entry.content_digest,
        document=doc,
        profile=profile,
        bands=bands,
        fluency=fluency,
        clarity=clarity_report,
        findings=findings,
        **vars(scored),
    )


def _attach_interface(result, corpus_dir):
    """Load and validate this platform's assessment, if present."""
    path = os.path.join(corpus_dir, ASSESSMENTS_DIR,
                        f"{result.platform}.json")
    if not os.path.exists(path):
        return None
    try:
        assessment = interface_assess.load_assessment(path)
    except AssessmentError as exc:
        return str(exc)
    errors = interface_assess.validate_assessment(
        assessment, doc=result.document)
    if errors:
        return "; ".join(errors)
    result.interface = assessment
    return None


def _entry_outcome(ctx, corpus_dir, entry):
    """(results record or None, failure message or None) of one entry."""
    try:
        payload = corpus_mod.read_payload(corpus_dir, entry)
        result = analyze_entry(entry, payload, ctx)
    except TosAuditError as exc:
        return None, str(exc)
    problem = _attach_interface(result, corpus_dir)
    return (result_to_dict(result),
            f"invalid assessment: {problem}" if problem else None)


# (ctx, corpus_dir) in a pool worker; set by _init_worker, only there.
_worker_args = None


def _init_worker(ctx, corpus_dir):
    global _worker_args
    _worker_args = (ctx, corpus_dir)


def _worker_outcome(entry):
    return _entry_outcome(*_worker_args, entry)


def _pool_size(corpus_dir, entries):
    """Worker processes worth starting for these entries; 1 means none."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return 1
    workers = min(cpus, len(entries))
    if workers < 2:
        return 1
    total = 0
    for entry in entries:
        try:
            total += os.path.getsize(
                os.path.join(corpus_dir, entry.payload_path))
        except OSError:
            pass  # read_payload reports the missing payload
    return workers if total >= POOL_MIN_PAYLOAD_BYTES else 1


def run_pipeline(corpus_dir, lexicons_dir=None, classic_lensear=False):
    """Analyze every platform in the corpus.

    Returns (records, failures): results-file records (result_to_dict)
    sorted by platform, and sorted (platform, message) pairs for
    documents that could not be analyzed. Lexicon problems raise
    instead of being collected.

    A forked worker inherits the PipelineContext built here and sends
    back only plain records, so nothing is loaded twice and no Document
    is pickled.
    """
    manifest = corpus_mod.load_manifest(
        os.path.join(corpus_dir, corpus_mod.MANIFEST_NAME))
    ctx = PipelineContext(lexicons_dir=lexicons_dir, corpus_dir=corpus_dir,
                          classic_lensear=classic_lensear)
    entries = sorted(manifest.entries, key=lambda e: e.platform)
    workers = _pool_size(corpus_dir, entries)
    if workers > 1:
        # Imported here, so a small corpus does not pay for them. A forked
        # worker inherits ctx with nothing pickled or loaded again. Fork
        # is safe here: the CLI runs no other thread, and the executor
        # forks its workers before it starts its own. A worker that dies
        # raises BrokenProcessPool here instead of hanging the run.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(ctx, corpus_dir)) as pool:
            outcomes = list(pool.map(_worker_outcome, entries))
    else:
        outcomes = (_entry_outcome(ctx, corpus_dir, e) for e in entries)
    records = []
    failures = []
    for entry, (record, failure) in zip(entries, outcomes):
        if record is not None:
            records.append(record)
        if failure is not None:
            failures.append((entry.platform, failure))
    failures.sort()
    return records, failures


def results_payload(records, failures):
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "results": records,
        "failures": [{"platform": p, "error": e} for p, e in failures],
    }


def save_results(payload, path):
    inputs.write_text(path, canonical_json(payload))


def load_results(path):
    """Read a results file and check the shape results_payload writes."""
    payload = inputs.read_json(path, TosAuditError, "results")
    results = payload.get("results")
    blocks = ("doc_stats", "readability", "fluency", "clarity", "specificity")
    if payload.get("schema_version") != RESULTS_SCHEMA_VERSION or not (
            isinstance(results, list) and all(
                isinstance(r, dict) and isinstance(r.get("platform"), str)
                and all(isinstance(r.get(b), dict) for b in blocks)
                for r in results)):
        raise TosAuditError(
            f"malformed results file {path}: not schema version "
            f"{RESULTS_SCHEMA_VERSION} with a list of platform results")
    return payload


def export_review_from_results(payload, out_path, include_dt_en=False):
    """Export all reviewable findings in a results file to JSONL."""
    findings = [specificity_mod.finding_from_dict(d)
                for result in payload["results"]
                for d in result["specificity"]["findings"]]
    return specificity_mod.export_review(
        findings, out_path, include_dt_en=include_dt_en)


def apply_review_to_results(payload, review_path):
    """Apply a review file across a results payload.

    Rebuilds each platform's post-review counts and scores from the
    human labels; auto values are recomputed from auto labels and stay
    untouched by review actions. Returns the revised payload.
    """
    records = specificity_mod.parse_review_file(review_path)
    by_platform = {}
    for rec in records:
        if not isinstance(rec.get("platform"), str):
            raise ReviewError(f"malformed review record: {rec!r}")
        by_platform.setdefault(rec["platform"], []).append(rec)
    known = {r["platform"] for r in payload["results"]}
    for platform in by_platform:
        if platform not in known:
            raise ReviewError(f"unmatched review record: platform {platform!r}")
    for result in payload["results"]:
        findings = [specificity_mod.finding_from_dict(d)
                    for d in result["specificity"]["findings"]]
        specificity_mod.apply_review_records(
            findings, by_platform.get(result["platform"], []))
        scored = specificity_mod.score_findings(
            findings, result["doc_stats"]["sentence_count"])
        result["specificity"].update(_specificity_block(findings, scored))
    return payload
