"""Corpus-wide orchestration: each platform's snapshot to its record.

analyze_entry makes a platform's Document and results-file record:
doc_stats, readability and fluency, clarity and specificity, with
"interface" None. _entry_outcome makes each platform's outcome: it
sets "interface" to the platform's assessment when that is valid,
names an invalid one as the platform's failure, and encodes the
record to its one-line results-file bytes with results.encode_record,
in the process that analyzed it. A small corpus is analyzed in this
process. For a large one, run_pipeline forks one worker per usable CPU
with os.fork: each takes the next platform from a shared task pipe and
sends its outcomes back on a pipe of its own, and a worker that dies
fails the run. No timestamps are generated, platforms are reported in
alphabetical order, and serialization is canonical, so re-runs over a
frozen corpus are byte-identical. The results and review files live in
the results module, which loads no text-analysis layer; its
results-file functions are bound here too, as the same objects.
"""

import marshal
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
    apply_review_to_results, encode_record, export_review_from_results,
    load_results, results_payload, save_results,
)

EXTRACTION_CONFIG_NAME = "extraction_config.json"
ASSESSMENTS_DIR = "assessments"

# On 2 CPUs (Python 3.11), forking 2 workers, feeding them 13 tasks and
# reaping them took 6-12 ms in a fresh process; with the work's
# copy-on-write faults, a forced pool on the 13 fixture documents took
# about 20 ms longer than a serial run (medians of 16 fresh processes).
# Serial analysis takes about 0.3 s per MB of plain text and 0.10 s per
# MB of markup-heavy HTML, so a pool can pay back only on a corpus of a
# few hundred kB or more, and only where the CPUs run in parallel. A
# smaller corpus is analyzed in this process.
POOL_MIN_PAYLOAD_BYTES = 400_000


class PipelineContext:
    """Lexicons and options loaded once per run."""

    def __init__(self, lexicons_dir=None, corpus_dir=None,
                 classic_lensear=False):
        vague_lexicon = clarity_mod.load_vague_lexicon(lexicons_dir)
        self.spec_lexicons = specificity_mod.load_specificity_lexicons(
            lexicons_dir)
        self.index = LexiconIndex()
        clarity_mod.index_terms(self.index, vague_lexicon)
        specificity_mod.index_lexicons(self.index, self.spec_lexicons)
        self.reader_groups = readability_mod.load_reader_groups(lexicons_dir)
        # Forked workers inherit it empty; each fills its own copy.
        self.words = textprep.WordTable(
            textprep.load_syllable_overrides(lexicons_dir))
        self.classic_lensear = classic_lensear
        self.extraction_config = None
        if corpus_dir is not None:
            cfg_path = os.path.join(corpus_dir, EXTRACTION_CONFIG_NAME)
            if os.path.lexists(cfg_path):
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
    clarity_report = clarity_mod.scan_vague_terms(doc, views)
    findings = specificity_mod.analyze_document(doc, ctx.spec_lexicons, views)
    return doc, {
        "platform": entry.platform,
        "source_digest": entry.content_digest,
        "doc_stats": doc.stats._asdict(),
        "readability": {"scores": profile._asdict(), "bands": bands},
        "fluency": fluency,
        "clarity": clarity_report._asdict(),
        "specificity": specificity_mod.score_findings(
            findings, doc.stats.sentence_count),
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
    if os.path.lexists(path):
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


# A task is one entry index as fixed-width digits. A pipe write of at
# most PIPE_BUF bytes (512 or more under POSIX) is atomic and every read
# takes one whole task, so a worker never reads part of an index.
_TASK_BYTES = 8
_TASKS_PER_WRITE = 512 // _TASK_BYTES


def _forked_outcomes(ctx, corpus_dir, entries, workers):
    """_entry_outcome of each entry, in order, from forked workers.

    Each worker inherits ctx, so nothing is pickled or loaded again, and
    takes the next entry index from one task pipe, so one that finishes
    early takes more. When the tasks run out it sends its (index,
    outcome) triples back as one marshal frame on a pipe of its own. An
    exception a worker raised is raised here with its type and args (of
    several, the one of the first entry); a worker that dies before
    sending its frame fails the run with its exit status. Fork is safe
    here: the CLI runs no other thread.
    """
    tasks, feed = os.pipe()
    held = {tasks, feed}  # descriptors this process has yet to close
    children = []  # (pid, read end of its result pipe), until reaped

    def close(fd):
        held.discard(fd)
        os.close(fd)

    try:
        for _ in range(workers):
            result, out = os.pipe()
            held |= {result, out}
            pid = os.fork()
            if pid == 0:
                _work(ctx, corpus_dir, entries, tasks, out, held - {tasks, out})
            children.append((pid, result))
            close(out)
        close(tasks)
        try:
            for start in range(0, len(entries), _TASKS_PER_WRITE):
                os.write(feed, b"".join(b"%08d" % i for i in range(
                    start, min(start + _TASKS_PER_WRITE, len(entries)))))
        except BrokenPipeError:
            pass  # no worker is left to read; each exit status is checked
        close(feed)
        outcomes = [None] * len(entries)
        died = None
        raised = []
        while children:
            pid, result = children[0]
            with open(result, "rb", closefd=False) as fh:
                frame = fh.read()
            close(result)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code or not frame:
                died = died or (f"killed by signal {-code}" if code < 0
                                else f"exited with status {code}")
                continue
            done, error = marshal.loads(frame)
            for i, record, failure in done:
                outcomes[i] = record, failure
            if error is not None:
                raised.append(error)
    finally:
        if children:
            import signal
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in list(held):
            close(fd)
    if died:
        raise TosAuditError(
            f"an analysis worker {died} before sending its results")
    if raised:
        import pickle
        raise pickle.loads(min(raised)[1])
    return outcomes


def _work(ctx, corpus_dir, entries, tasks, out, inherited):
    """A forked worker: the outcome of each index read from tasks, then
    one marshal frame of (done, error) on out. done holds (index,
    record, failure) triples; error is None or (index, the pickled
    exception _entry_outcome raised), after which the worker takes no
    more tasks. It leaves only through os._exit, so no cleanup, atexit
    hook or buffered output of its parent runs twice."""
    status = 1
    try:
        # With no other process holding them, the parent's pipes end
        # when it does, so no worker blocks on them after it is gone.
        for fd in inherited:
            os.close(fd)
        done, error = [], None
        while task := os.read(tasks, _TASK_BYTES):
            i = int(task)
            try:  # _entry_outcome as the module global, to be patched
                done.append((i, *_entry_outcome(ctx, corpus_dir, entries[i])))
            except BaseException as exc:
                import pickle  # only a worker that raised pays for it
                error = i, pickle.dumps(exc)
                break
        with open(out, "wb") as fh:
            fh.write(marshal.dumps((done, error)))
        status = 0
    finally:
        os._exit(status)


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
    leaves its worker and the records are encoded on every CPU.
    """
    manifest = corpus_mod.load_manifest(
        os.path.join(corpus_dir, corpus_mod.MANIFEST_NAME))
    ctx = PipelineContext(lexicons_dir=lexicons_dir, corpus_dir=corpus_dir,
                          classic_lensear=classic_lensear)
    entries = sorted(manifest.entries, key=lambda e: e.platform)
    workers = _pool_size(corpus_dir, entries)
    if workers > 1:
        outcomes = _forked_outcomes(ctx, corpus_dir, entries, workers)
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
