"""tosaudit benchmark: seeded corpora, cold-CLI ops, checked outputs.

    python3 perfbench/run.py --workload long_docs --seed 1 --seconds 20 --trace 0

Each op is a fresh `python -m tosaudit.cli ...` process with
PYTHONPATH=src and default options, run one at a time, closed loop, for
--seconds. Every op's output is checked. A fixed reference process
(perfbench/reference.py) runs before and after every op, and times are
reported relative to it, at the reference's nominal speed. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced ops with ops run
under perfbench/traced_cli.py and reports the per-layer metrics. The
last line of stdout is one JSON object; the lines before it say the
same for a reader. `--workload all` runs every workload in turn.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict

import checks
import workloads

ROOT = workloads.ROOT
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
REFERENCE = os.path.join(HERE, "reference.py")

# The reference process's median wall time on the host the benchmark
# was calibrated on (2 shared vCPUs of an Intel Xeon, Python 3.11). It
# only sets the scale: a speed-adjusted time is an op's time divided by
# the reference runs beside it, times this.
REFERENCE_S = 0.19

SETUP_REPS = 9
OP_TIMEOUT_S = 150
FIXTURE_REPEAT = 60  # the ROADMAP's scaled fixture corpus, for comparison

SETUP_CODE = ("import sys\n"
              "import tosaudit.cli\n"
              "from tosaudit.pipeline import PipelineContext\n"
              "PipelineContext(corpus_dir=sys.argv[1])\n")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("words_per_s", "words/s"),
    ("findings_per_s", "findings/s"), ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("corpus.read_s", "s"), ("corpus.bytes_read", "bytes"),
    ("htmltext.html_to_text_s", "s"), ("htmltext.markup_bytes", "bytes"),
    ("htmltext.text_bytes", "bytes"), ("htmltext.markup_kb_per_s", "KiB/s"),
    ("textprep.extract_s", "s"), ("textprep.build_s", "s"),
    ("textprep.sentences", "count"), ("textprep.words", "count"),
    ("textprep.words_per_s", "words/s"),
    ("matching.find_calls", "count"),
    ("matching.find_calls_per_sentence", "ratio"), ("matching.find_s", "s"),
    ("readability.score_s", "s"),
    ("clarity.scan_s", "s"), ("clarity.matches", "count"),
    ("specificity.detect_s", "s"),
    ("specificity.findings.data_type", "count"),
    ("specificity.findings.entity", "count"),
    ("specificity.findings.retention", "count"),
    ("specificity.findings.sharing", "count"),
    ("specificity.hit_ratio", "ratio"), ("specificity.score_s", "s"),
    ("interface_assess.validate_s", "s"),
    ("interface_assess.assessments", "count"),
    ("pipeline.context_s", "s"), ("pipeline.orchestration_s", "s"),
    ("pipeline.serialize_s", "s"), ("pipeline.results_bytes", "bytes"),
    ("pipeline.review_load_s", "s"), ("pipeline.review_export_s", "s"),
    ("pipeline.review_apply_s", "s"), ("pipeline.review_save_s", "s"),
    ("pipeline.doc_p50_ms", "ms"), ("pipeline.doc_tail_ms", "ms"),
    ("pipeline.doc_tail_pct", "%"), ("pipeline.doc_samples", "count"),
    ("cli.import_s", "s"), ("cli.command_s", "s"),
    ("trace.overhead_pct", "%"), ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("host.reference_s", "s"), ("host.raw_wall_s", "s"),
)


class SetupError(Exception):
    """The workload could not be prepared; no metrics are reported."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, stderr_path):
    """Run one process; returns (wall_s, exit_code, peak_rss_mib).

    Wall time runs from spawn to exit. Peak RSS comes from the child's
    rusage, which covers the child and every descendant it waited for.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def adjusted(walls, refs):
    """Speed-adjusted times: walls[i] ran between refs[i] and refs[i + 1]."""
    return [REFERENCE_S * wall * 2 / (refs[i] + refs[i + 1])
            for i, wall in enumerate(walls)]


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile_tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples
    above it, or (0.0, 0) when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 0.0, 0
    return ordered[n - 11], int(100 * (n - 10) / n)


def reference_texts(corpus_dir):
    """Document text and sentences as the program indexes them.

    Used only by the output checks and the workload description; it
    runs in the benchmark process and is never timed.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from tosaudit import textprep
    with open(os.path.join(corpus_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg_path = os.path.join(corpus_dir, "extraction_config.json")
    config = None
    if os.path.exists(cfg_path):
        with open(cfg_path, encoding="utf-8") as fh:
            config = json.load(fh)
    texts, sentences = {}, {}
    markup_bytes = html_text_bytes = html_docs = 0
    for entry in manifest["entries"]:
        with open(os.path.join(corpus_dir, entry["payload_path"]), "rb") as fh:
            payload = fh.read()
        platform = entry["platform"]
        text = textprep.extract_text(payload, entry["media_kind"],
                                     extraction_config=config,
                                     platform=platform)
        texts[platform] = text
        sentences[platform] = [s.text for s in
                               textprep.segment_sentences(text)]
        if entry["media_kind"] == "html":
            html_docs += 1
            markup_bytes += len(payload)
            html_text_bytes += len(text.encode("utf-8"))
    return {
        "texts": texts,
        "sentences": sentences,
        "html_share": html_docs / len(texts),
        "markup_text_ratio": (markup_bytes / html_text_bytes
                              if html_text_bytes else 0.0),
    }


def repeated_share(sentence_lists, repeat=1):
    total = repeat * sum(len(s) for s in sentence_lists)
    distinct = len({s for lst in sentence_lists for s in lst})
    return 1.0 - distinct / total


def fixture_scaled_repeated_share():
    """Repeated-sentence share of the fixture corpus repeated 60 times."""
    root = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workloads.build_corpus("small_corpus", root, 0)
        ref = reference_texts(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return repeated_share(ref["sentences"].values(), FIXTURE_REPEAT)


class Runner:
    """Prepares one workload in a scratch directory and runs its ops."""

    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.corpus = workloads.build_corpus(
            name, os.path.join(work, "corpus"), seed)
        self.ref = reference_texts(self.corpus)
        self.verdicts = {}
        self.first_sha = {}
        self.base = None
        if name == "review_cycle":
            self._prepare_review()
            base = self._path("base.json")
            self.steps = [
                (["review", "export", "--results", base,
                  "--out", self._path("op_export.jsonl"), "--include-dt-en"],
                 self._path("op_export.jsonl")),
                (["review", "apply", "--results", base,
                  "--review", self._path("review.jsonl"),
                  "--out", self._path("op_reviewed.json")],
                 self._path("op_reviewed.json")),
            ]
        else:
            self.steps = [(["analyze", "--corpus", self.corpus,
                            "--out", self._path("op_results.json")],
                           self._path("op_results.json"))]
        if name == "small_corpus":
            self.expected_auto = workloads.load_fixture_docs().EXPECTED_AUTO

    def _path(self, name):
        return os.path.join(self.work, name)

    def _cli(self, args):
        return [sys.executable, "-m", "tosaudit.cli"] + args

    def _setup_step(self, args):
        _, code, _ = spawn(self._cli(args), self._path("setup.err"))
        if code != 0:
            raise SetupError(f"{' '.join(args[:2])} exited {code}: "
                             f"{self._stderr('setup.err')}")

    def _stderr(self, name):
        with open(self._path(name), encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def _prepare_review(self):
        """Untimed: analyze the corpus, export it, write the review file."""
        base = self._path("base.json")
        self._setup_step(["analyze", "--corpus", self.corpus, "--out", base])
        with open(base, "rb") as fh:
            self.base, problems = checks.load_payload(fh.read())
        problems = problems or checks.check_results(self.base, self.ref["texts"])
        if problems:
            raise SetupError("base results failed checks: "
                             + "; ".join(problems))
        exported = self._path("base_export.jsonl")
        self._setup_step(["review", "export", "--results", base,
                          "--out", exported, "--include-dt-en"])
        self.first_sha[0] = sha256_file(exported)
        self.labels = workloads.make_review_file(
            exported, self._path("review.jsonl"), self.seed)

    def reference(self):
        """Wall time of one fresh reference process (perfbench/reference.py)."""
        wall, code, _ = spawn([sys.executable, REFERENCE],
                              self._path("reference.err"))
        if code != 0:
            raise SetupError(f"reference process exited {code}: "
                             f"{self._stderr('reference.err')}")
        return wall

    def measure_setup(self):
        """setup_s: import tosaudit.cli and build PipelineContext, cold.

        Returns the raw walls and the reference walls around them.
        """
        argv = [sys.executable, "-c", SETUP_CODE, self.corpus]
        walls, refs = [], [self.reference()]
        for _ in range(SETUP_REPS):
            wall, code, _ = spawn(argv, self._path("setup.err"))
            if code != 0:
                raise SetupError(f"setup process exited {code}: "
                                 f"{self._stderr('setup.err')}")
            walls.append(wall)
            refs.append(self.reference())
        return walls, refs

    def run_op(self, op_id, traced):
        """One op: every step as a fresh process, then the output checks."""
        op = {"wall": 0.0, "rss": 0.0, "problems": [], "records": []}
        for i, (args, output) in enumerate(self.steps):
            if os.path.exists(output):
                os.remove(output)
            spans_path = self._path(f"spans-{op_id}-{i}.json")
            if traced:
                argv = [sys.executable, TRACED_CLI, spans_path, str(op_id)] + args
            else:
                argv = self._cli(args)
            wall, code, rss = spawn(argv, self._path("op.err"))
            op["wall"] += wall
            op["rss"] = max(op["rss"], rss)
            if code != 0:
                op["problems"].append(
                    f"{' '.join(args[:2])} exited {code}: "
                    f"{self._stderr('op.err')}")
                continue
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    op["records"].append(json.load(fh))
                os.remove(spans_path)
            op["problems"].extend(self._check_output(i, output))
        return op

    def _check_output(self, i, output):
        if not os.path.exists(output):
            return [f"step {i} wrote no output"]
        digest = sha256_file(output)
        expected = self.first_sha.setdefault(i, digest)
        if digest != expected:
            return [f"step {i} output sha256 {digest[:12]} differs from "
                    f"the first op's {expected[:12]}"]
        if i < len(self.steps) - 1:
            return []
        if digest not in self.verdicts:
            with open(output, "rb") as fh:
                self.verdicts[digest] = self.check_content(fh.read())
        return self.verdicts[digest]

    def check_content(self, raw):
        payload, problems = checks.load_payload(raw)
        if problems:
            return problems
        try:
            problems = checks.check_results(payload, self.ref["texts"])
            if not problems and self.name == "small_corpus":
                problems = checks.check_expected_auto(
                    payload, self.expected_auto)
            if not problems and self.name == "review_cycle":
                problems = checks.check_review(payload, self.base, self.labels)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"results do not have the expected shape: {exc!r}"]
        if not problems:
            self.results = payload
        return problems

    def describe(self):
        """Workload properties recorded with every run."""
        results = self.results["results"]
        return {
            "platforms": len(results),
            "words": sum(r["doc_stats"]["word_count"] for r in results),
            "sentences": sum(r["doc_stats"]["sentence_count"] for r in results),
            "repeated_sentence_share": repeated_share(
                self.ref["sentences"].values()),
            "html_share": self.ref["html_share"],
            "markup_text_ratio": self.ref["markup_text_ratio"],
            "findings": sum(len(r["specificity"]["findings"])
                            for r in results),
        }


def self_times(spans):
    """Each span's duration minus the time its children cover (ns)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0
        reached = start
        for s, e in sorted(children.get(i, ())):
            if e > reached:
                covered += e - max(s, reached)
                reached = e
        out.append(end - start - covered)
    return out


def op_layer_metrics(records):
    """Per-layer figures of one traced op (one record per process)."""
    self_ns = Counter()
    review_save_ns = 0
    counters = Counter()
    for rec in records:
        counters.update(rec["counters"])
        for span, own in zip(rec["spans"], self_times(rec["spans"])):
            self_ns[span[0]] += own
            if span[0] == "pipeline.save_results" \
                    and rec["command"].startswith("review"):
                review_save_ns += own
        counters["matching.find_calls"] += sum(
            1 for s in rec["spans"] if s[0] == "matching.find")
        counters["trace.spans"] += len(rec["spans"])

    def seconds(*names):
        return sum(self_ns[n] for n in names) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    html_s = seconds("htmltext.html_to_text")
    text_s = seconds("textprep.extract_text", "textprep.build_document")
    m = {
        "corpus.read_s": seconds("corpus.load_manifest", "corpus.read_payload"),
        "corpus.bytes_read": counters["corpus.bytes_read"],
        "htmltext.html_to_text_s": html_s,
        "htmltext.markup_bytes": counters["htmltext.markup_bytes"],
        "htmltext.text_bytes": counters["htmltext.text_bytes"],
        "htmltext.markup_kb_per_s": ratio(
            counters["htmltext.markup_bytes"] / 1024, html_s),
        "textprep.extract_s": seconds("textprep.extract_text"),
        "textprep.build_s": seconds("textprep.build_document"),
        "textprep.sentences": counters["textprep.sentences"],
        "textprep.words": counters["textprep.words"],
        "textprep.words_per_s": ratio(counters["textprep.words"], text_s),
        "matching.find_calls": counters["matching.find_calls"],
        "matching.find_calls_per_sentence": ratio(
            counters["matching.find_calls"], counters["textprep.sentences"]),
        "matching.find_s": seconds("matching.find"),
        "readability.score_s": seconds(
            "readability.profile", "readability.bands",
            "readability.reading_time"),
        "clarity.scan_s": seconds("clarity.scan_vague_terms"),
        "clarity.matches": counters["clarity.matches"],
        "specificity.detect_s": seconds("specificity.analyze_document"),
        "specificity.hit_ratio": ratio(
            counters["specificity.sentences_hit"],
            counters["specificity.sentences_scanned"]),
        "specificity.score_s": seconds(
            "specificity.aggregate_counts", "specificity.map_scores",
            "specificity.sentence_coverage"),
        "interface_assess.validate_s": seconds(
            "interface_assess.load", "interface_assess.validate"),
        "interface_assess.assessments": sum(
            1 for rec in records for s in rec["spans"]
            if s[0] == "interface_assess.load"),
        "pipeline.context_s": seconds("pipeline.context"),
        "pipeline.orchestration_s": seconds("pipeline.run_pipeline"),
        "pipeline.serialize_s": seconds(
            "pipeline.results_payload", "pipeline.save_results"),
        "pipeline.results_bytes": counters["pipeline.results_bytes"],
        "pipeline.review_load_s": seconds("pipeline.load_results"),
        "pipeline.review_export_s": seconds("pipeline.review_export"),
        "pipeline.review_apply_s": seconds("pipeline.review_apply"),
        "pipeline.review_save_s": review_save_ns / 1e9,
        "cli.command_s": sum(self_ns[n] for n in self_ns
                             if n.startswith("cli.")) / 1e9,
        "trace.spans": counters["trace.spans"],
    }
    for detector in ("data_type", "entity", "retention", "sharing"):
        key = f"specificity.findings.{detector}"
        m[key] = counters[key]
    layers = Counter()
    for name, own in self_ns.items():
        layers[name.split(".")[0]] += own / 1e9
    return m, layers


def trace_metrics(traced_ops, untraced_ops, refs):
    per_op = [op_layer_metrics(op["records"]) for op in traced_ops]
    metrics = {name: statistics.median(m[name] for m, _ in per_op)
               for name in per_op[0][0]}
    docs = [(s[2] - s[1]) / 1e6 for op in traced_ops for rec in op["records"]
            for s in rec["spans"] if s[0] == "pipeline.analyze_entry"]
    metrics["pipeline.doc_p50_ms"] = statistics.median(docs) if docs else 0.0
    tail, pct = percentile_tail(docs)
    metrics["pipeline.doc_tail_ms"] = tail
    metrics["pipeline.doc_tail_pct"] = pct
    metrics["pipeline.doc_samples"] = len(docs)
    metrics["cli.import_s"] = statistics.median(
        rec["import_ns"] / 1e9 for op in traced_ops for rec in op["records"])
    traced = statistics.median(op["adjusted"] for op in traced_ops)
    untraced = statistics.median(op["adjusted"] for op in untraced_ops)
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["trace.ops"] = len(traced_ops)
    metrics["host.reference_s"] = statistics.median(refs)
    metrics["host.raw_wall_s"] = statistics.median(
        op["wall"] for op in untraced_ops)
    layers = Counter()
    for _, op_layers in per_op:
        layers.update(op_layers)
    return metrics, layers


def write_spans(name, seed, properties, traced_ops):
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"spans-{name}-seed{seed}.json")
    rows = [[rec["op"], *span] for op in traced_ops for rec in op["records"]
            for span in rec["spans"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "properties": properties,
                   "columns": ["op", "name", "start_ns", "end_ns", "parent"],
                   "spans": rows}, fh, separators=(",", ":"))
    return path


def run_workload(name, seed, seconds, trace):
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        return _run_workload(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, work):
    runner = Runner(name, seed, work)
    setup_walls, setup_refs = runner.measure_setup()
    ops = []
    refs = [setup_refs[-1]]
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline or (
            trace and len(ops) < 2):
        traced = bool(trace) and len(ops) % 2 == 1
        op = runner.run_op(len(ops), traced)
        op["traced"] = traced
        ops.append(op)
        refs.append(runner.reference())
        for problem in op["problems"]:
            print(f"CHECK FAILED {name} op {len(ops) - 1}: {problem}",
                  file=sys.stderr)
    failed = sum(1 for op in ops if op["problems"])
    if failed == len(ops):
        print(f"{name}: every op failed; no workload properties",
              file=sys.stderr)
        properties = {}
    else:
        properties = runner.describe()
    properties["fixture_x60_repeated_sentence_share"] = \
        fixture_scaled_repeated_share()

    for op, adj in zip(ops, adjusted([op["wall"] for op in ops], refs)):
        op["adjusted"] = adj
    untraced = [op for op in ops if not op["traced"]]
    walls = [op["adjusted"] for op in untraced]
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(adjusted(setup_walls, setup_refs)),
        "wall_s": wall,
        "words_per_s": properties.get("words", 0) / wall,
        "findings_per_s": properties.get("findings", 0) / wall,
        "peak_rss_mb": statistics.median(op["rss"] for op in untraced),
    }
    units = dict(END_TO_END)
    layers = None
    if trace:
        traced_ops = [op for op in ops if op["traced"] and op["records"]]
        values = {}
        if traced_ops:
            values, layers = trace_metrics(traced_ops, untraced, refs)
            units = dict(PER_LAYER)
            print(f"# spans written to "
                  f"{write_spans(name, seed, properties, traced_ops)}")
    metrics = {k: (v, units[k]) for k, v in values.items()}
    return {
        "name": name, "properties": properties, "metrics": metrics,
        "attempted": len(ops), "failed": failed, "walls": walls,
        "raw_walls": [op["wall"] for op in untraced], "refs": refs,
        "setup_walls": setup_walls, "layers": layers,
    }


def report(result, trace):
    name = result["name"]
    props = result["properties"]
    print(f"workload {name}: " + ", ".join(
        f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
        for k, v in props.items()))
    if not trace:
        walls = result["walls"]
        tail, pct = percentile_tail(walls)
        tail_note = f", p{pct} {tail:.4f} s" if pct else ""
        print(f"{name} ops: {len(walls)} timed, speed-adjusted median {statistics.median(walls):.4f} s"
              f"{tail_note}; setup runs: {len(result['setup_walls'])}")
        print(f"{name} raw spawn-to-exit medians: op "
              f"{statistics.median(result['raw_walls']):.4f} s, setup "
              f"{statistics.median(result['setup_walls']):.4f} s, reference "
              f"{statistics.median(result['refs']):.4f} s "
              f"(nominal {REFERENCE_S} s)")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name} {metric} {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} error_rate {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} ops)")
    if result["layers"]:
        total = sum(result["layers"].values())
        shares = ", ".join(f"{layer} {100 * t / total:.1f}%" for layer, t in
                           result["layers"].most_common())
        print(f"{name} layer self-time shares: {shares}")


def program_present():
    return os.path.isfile(os.path.join(SRC, "tosaudit", "cli.py")) \
        and os.path.isfile(workloads.FIXTURE_DOCS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no tosaudit sources under {SRC} (run from a checkout)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except SetupError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(result, args.trace)
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['name']}.{k}" if prefix else k): {"value": v, "unit": u}
        for r in results for k, (v, u) in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
