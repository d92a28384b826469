"""Corpus-wide orchestration: each platform's snapshot to its record.

analyze_entry makes a platform's Document and results-file record:
doc_stats, readability and fluency, clarity and specificity, with
"interface" None. _entry_outcome makes each platform's outcome: it
sets "interface" to the platform's assessment when that is valid,
names an invalid one as the platform's failure, and encodes the
record to its one-line results-file bytes with results.encode_record,
in the process that analyzed it: one of a pool of forked workers, one
per usable CPU, for a large corpus, this process for a small one. No
timestamps are generated, platforms are reported in alphabetical
order, and serialization is canonical, so re-runs over a frozen
corpus are byte-identical. The results and review files live in the
results module, which loads no text-analysis layer; its results-file
functions are bound here too, as the same objects.
"""

import os

from . import clarity as clarity_mod
from . import corpus as corpus_mod
from . import interface_assess
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


class PipelineContext:
    """Lexicons and options loaded once per run."""

    def __init__(self, lexicons_dir=None, corpus_dir=None,
                 classic_lensear=False):
        self.vague_lexicon = clarity_mod.load_vague_lexicon(lexicons_dir)
        self.spec_lexicons = specificity_mod.load_specificity_lexicons(
            lexicons_dir)
        self.index = LexiconIndex()
        clarity_mod.index_terms(self.index, self.vague_lexicon)
        specificity_mod.index_lexicons(self.index, self.spec_lexicons)
        self.reader_groups = readability_mod.load_reader_groups(lexicons_dir)
        # Forked workers inherit it empty; each fills its own copy.
        self.words = textprep.WordTable(
            textprep.load_syllable_overrides(lexicons_dir))
        self.classic_lensear = classic_lensear
        self.extraction_config = None
        if corpus_dir is not None:
            cfg_path = os.path.join(corpus_dir, EXTRACTION_CONFIG_NAME)
            if os.path.exists(cfg_path):
                self.extraction_config = textprep.load_extraction_config(cfg_path)


def analyze_entry(entry, payload, ctx):
    """Analyze one snapshot payload; returns (Document, record).

    record is the platform's results-file record with its specificity
    findings as SentenceFindings, as results.encode_record takes them,
    and "interface" None.
    """
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
    return doc, {
        "platform": entry.platform,
        "source_digest": entry.content_digest,
        "doc_stats": doc.stats._asdict(),
        "readability": {"scores": profile._asdict(), "bands": bands},
        "fluency": fluency,
        "clarity": clarity_report._asdict(),
        "specificity": _specificity_block(findings, doc.stats.sentence_count),
        "interface": None,
    }


def _entry_outcome(ctx, corpus_dir, entry):
    """(encoded record or None, failure message or None) of one entry.

    The platform's assessment is loaded only if present and attached
    only if valid; an invalid one fails the entry but keeps its record.
    """
    try:
        payload = corpus_mod.read_payload(corpus_dir, entry)
        doc, record = analyze_entry(entry, payload, ctx)
    except TosAuditError as exc:
        return None, str(exc)
    path = os.path.join(corpus_dir, ASSESSMENTS_DIR, f"{entry.platform}.json")
    problem = None
    if os.path.exists(path):
        try:
            assessment = interface_assess.load_assessment(path)
        except AssessmentError as exc:
            problem = str(exc)
        else:
            problem = "; ".join(
                interface_assess.validate_assessment(assessment, doc=doc))
            if not problem:
                record["interface"] = interface_assess.assessment_to_dict(
                    assessment)
    return (encode_record(record),
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
    bytes, sorted by platform (json.loads(record) gives analyze_entry's
    record, each finding as a JSON object), and (platform, message)
    pairs, sorted by platform, for documents that could not be analyzed.
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
    return records, failures
