"""Corpus-wide orchestration: snapshot to per-platform result records.

Results are a pure function of the snapshot digests, lexicons, and
options: no timestamps are generated, platforms are reported in
alphabetical order, and serialization is canonical, so re-runs over a
frozen corpus are byte-identical. A large corpus is analyzed in a pool
of forked processes, one per usable CPU; a small one in this process.

Each platform's record is encoded to its one-line results-file bytes
by results.encode_record in the worker that analyzed it: its findings
with the template the review file shares, the rest with the C JSON
encoder. The results and review files and the review round trip
live in the results module, which loads none of the text-analysis
layers; its results-file functions are bound here too, as the same
function objects.
"""

import os
from typing import NamedTuple

from . import clarity as clarity_mod
from . import corpus as corpus_mod
from . import inputs, interface_assess
from . import readability as readability_mod
from . import specificity as specificity_mod
from . import textprep
from .errors import AssessmentError, TosAuditError
from .matching import LexiconIndex
from .results import (  # noqa: F401 (the results-file API, bound here too)
    _specificity_block, apply_review_to_results, encode_record,
    export_review_from_results, load_results, results_payload, save_results,
)

EXTRACTION_CONFIG_NAME = "extraction_config.json"
ASSESSMENTS_DIR = "assessments"

# Starting a worker pool costs about 55-75 ms per run. On 2 CPUs
# (Python 3.11) serial analysis takes about 0.3 s per MB of plain text and
# 0.10 s per MB of markup-heavy HTML, the least work per payload byte, so
# the pool pays back from about 0.4-0.5 MB of text and 1.1-1.5 MB of such
# HTML. At 400 kB it loses up to about 15 ms on text and 55 ms on that
# HTML; a smaller corpus is analyzed in this process.
POOL_MIN_PAYLOAD_BYTES = 400_000


class PlatformResult(NamedTuple):
    platform: str
    source_digest: str
    document: object
    profile: object
    bands: dict
    fluency: dict
    clarity: object
    findings: list
    scores: specificity_mod.FindingScores
    interface: object = None


def result_to_dict(result):
    return {
        "platform": result.platform,
        "source_digest": result.source_digest,
        "doc_stats": result.document.stats._asdict(),
        "readability": {
            "scores": result.profile._asdict(),
            "bands": result.bands,
        },
        "fluency": result.fluency,
        "clarity": result.clarity._asdict(),
        "specificity": _specificity_block(result.findings, result.scores),
        "interface": (interface_assess.assessment_to_dict(result.interface)
                      if result.interface is not None else None),
    }


class PipelineContext:
    """Lexicons and options loaded once per run."""

    def __init__(self, lexicons_dir=None, corpus_dir=None,
                 classic_lensear=False):
        self.vague_lexicon = clarity_mod.load_vague_lexicon(
            inputs.lexicon_file(lexicons_dir, "vague_terms.json"))
        self.spec_lexicons = specificity_mod.load_specificity_lexicons(
            lexicons_dir)
        self.index = LexiconIndex()
        clarity_mod.index_terms(self.index, self.vague_lexicon)
        specificity_mod.index_lexicons(self.index, self.spec_lexicons)
        self.reader_groups = readability_mod.load_reader_groups(
            inputs.lexicon_file(lexicons_dir, "reader_groups.json"))
        # Forked workers inherit it empty; each fills its own copy.
        self.words = textprep.WordTable(textprep.load_syllable_overrides(
            inputs.lexicon_file(lexicons_dir, "syllable_exceptions.txt")))
        self.classic_lensear = classic_lensear
        self.extraction_config = None
        if corpus_dir is not None:
            cfg_path = os.path.join(corpus_dir, EXTRACTION_CONFIG_NAME)
            if os.path.exists(cfg_path):
                self.extraction_config = textprep.load_extraction_config(cfg_path)


def analyze_entry(entry, payload, ctx):
    """Analyze one snapshot payload into a PlatformResult."""
    text = textprep.payload_text(
        payload, entry.media_kind,
        extraction_config=ctx.extraction_config, platform=entry.platform)
    doc = textprep.build_document(entry.platform, text, words=ctx.words)
    profile = readability_mod.compute_readability_profile(
        doc.stats, classic_lensear=ctx.classic_lensear)
    bands = readability_mod.profile_bands(profile)
    fluency = {}
    for group in ctx.reader_groups:
        estimate = readability_mod.estimate_reading_time(
            doc.stats.word_count, group)
        fluency[group.name] = {"wpm_low": group.wpm_low,
                               "wpm_high": group.wpm_high,
                               **estimate._asdict()}
    # One scan per sentence serves both clarity and specificity.
    views = list(map(ctx.index.scan, doc.sentences))
    clarity_report = clarity_mod.scan_vague_terms(
        doc, ctx.vague_lexicon, views)
    findings = specificity_mod.analyze_document(doc, ctx.spec_lexicons, views)
    return PlatformResult(
        platform=entry.platform,
        source_digest=entry.content_digest,
        document=doc,
        profile=profile,
        bands=bands,
        fluency=fluency,
        clarity=clarity_report,
        findings=findings,
        scores=specificity_mod.score_findings(
            findings, doc.stats.sentence_count),
    )


def _load_interface(result, corpus_dir):
    """(assessment or None, problem or None) of this platform.

    The assessment is loaded only if present and returned only if valid.
    """
    path = os.path.join(corpus_dir, ASSESSMENTS_DIR,
                        f"{result.platform}.json")
    if not os.path.exists(path):
        return None, None
    try:
        assessment = interface_assess.load_assessment(path)
    except AssessmentError as exc:
        return None, str(exc)
    errors = interface_assess.validate_assessment(
        assessment, doc=result.document)
    if errors:
        return None, "; ".join(errors)
    return assessment, None


def _entry_outcome(ctx, corpus_dir, entry):
    """(encoded record or None, failure message or None) of one entry."""
    try:
        payload = corpus_mod.read_payload(corpus_dir, entry)
        result = analyze_entry(entry, payload, ctx)
    except TosAuditError as exc:
        return None, str(exc)
    interface, problem = _load_interface(result, corpus_dir)
    result = result._replace(interface=interface)
    return (encode_record(result_to_dict(result)),
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
        except (OSError, ValueError):
            pass  # read_payload reports the missing payload or bad path
    return workers if total >= POOL_MIN_PAYLOAD_BYTES else 1


def run_pipeline(corpus_dir, lexicons_dir=None, classic_lensear=False):
    """Analyze every platform in the corpus.

    Returns (records, failures): results-file records as encode_record
    bytes, sorted by platform (json.loads(record) gives the
    result_to_dict dict, each finding as a JSON object), and sorted
    (platform, message) pairs for documents that could not be analyzed.
    Lexicon problems raise instead of being collected, and a record
    that UTF-8 cannot hold raises UnicodeEncodeError.

    A forked worker inherits the PipelineContext built here and sends
    back only encoded records, so nothing is loaded twice, no Document
    is pickled and the records are encoded on every CPU.
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
