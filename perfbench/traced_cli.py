"""Run one tosaudit CLI command in this process, with spans at layers.

Usage: python3 perfbench/traced_cli.py SPANS_OUT OP_ID CLI_ARG...

Times `import tosaudit.cli`, then wraps the module attributes that the
pipeline and review paths call through (no source is patched), runs the
command exactly as `python -m tosaudit.cli CLI_ARG...` would, and writes
the spans and counters kept in memory to SPANS_OUT as JSON. Exits with
the command's exit code.

A span is [name, start_ns, end_ns, parent_index]; parent_index is -1
for the root span. Work done in other processes is not seen, so a
worker pool shows up as self time of the span that waits for it.
"""

import functools
import json
import os
import sys
import threading
import time

clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def traced(self, fn, name, counter=None):
        """fn wrapped so each call records a span (and its counters)."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = [name, 0, 0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def wrap_function(self, fn, name, counter=None):
        """Replace every binding of fn in the tosaudit modules."""
        traced = self.traced(fn, name, counter)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "tosaudit" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)

    def wrap_method(self, cls, attr, name, counter=None):
        setattr(cls, attr, self.traced(getattr(cls, attr), name, counter))

    def rows(self):
        """Spans as [name, start_ns, end_ns, parent_index] rows."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[name, start, end, -1 if parent is None else index[id(parent)]]
                for name, start, end, parent in self.spans]


def _count_manifest(tracer, args, result):
    tracer.count("corpus.bytes_read", os.path.getsize(args[0]))


def _count_payload(tracer, args, result):
    tracer.count("corpus.bytes_read", len(result))


def _count_html(tracer, args, result):
    tracer.count("htmltext.markup_bytes", len(args[0].encode("utf-8")))
    tracer.count("htmltext.text_bytes", len(result.encode("utf-8")))


def _count_document(tracer, args, doc):
    tracer.count("textprep.sentences", len(doc.sentences))
    tracer.count("textprep.words", doc.stats.word_count)


def _count_clarity(tracer, args, report):
    tracer.count("clarity.matches", report.vague_count)


def _count_findings(tracer, args, findings):
    doc = args[0]
    tracer.count("specificity.sentences_scanned", len(doc.sentences))
    tracer.count("specificity.sentences_hit",
                 len({f.sentence_index for f in findings}))
    for finding in findings:
        tracer.count(f"specificity.findings.{finding.detector}")


def _count_results(tracer, args, result):
    tracer.count("pipeline.results_bytes", os.path.getsize(args[1]))


def install(tracer):
    from tosaudit import (clarity, corpus, interface_assess, matching,
                          pipeline, readability, specificity, textprep)

    functions = [
        (corpus.load_manifest, "corpus.load_manifest", _count_manifest),
        (corpus.read_payload, "corpus.read_payload", _count_payload),
        (textprep.extract_text, "textprep.extract_text", None),
        (textprep.html_to_text, "htmltext.html_to_text", _count_html),
        (textprep.build_document, "textprep.build_document", _count_document),
        (readability.compute_readability_profile, "readability.profile", None),
        (readability.profile_bands, "readability.bands", None),
        (readability.estimate_reading_time, "readability.reading_time", None),
        (clarity.scan_vague_terms, "clarity.scan_vague_terms", _count_clarity),
        (specificity.analyze_document, "specificity.analyze_document",
         _count_findings),
        (specificity.aggregate_counts, "specificity.aggregate_counts", None),
        (specificity.map_scores, "specificity.map_scores", None),
        (specificity.sentence_coverage, "specificity.sentence_coverage", None),
        (interface_assess.load_assessment, "interface_assess.load", None),
        (interface_assess.validate_assessment, "interface_assess.validate",
         None),
        (pipeline.run_pipeline, "pipeline.run_pipeline", None),
        (pipeline.analyze_entry, "pipeline.analyze_entry", None),
        (pipeline.results_payload, "pipeline.results_payload", None),
        (pipeline.save_results, "pipeline.save_results", _count_results),
        (pipeline.load_results, "pipeline.load_results", None),
        (pipeline.export_review_from_results, "pipeline.review_export", None),
        (pipeline.apply_review_to_results, "pipeline.review_apply", None),
    ]
    for fn, name, counter in functions:
        tracer.wrap_function(fn, name, counter)
    tracer.wrap_method(matching.PhraseMatcher, "find", "matching.find")
    tracer.wrap_method(pipeline.PipelineContext, "__init__",
                       "pipeline.context")


def main():
    spans_out, op_id, *cli_args = sys.argv[1:]
    start = clock()
    import tosaudit.cli as cli
    import_ns = clock() - start
    tracer = Tracer()
    install(tracer)
    command = ".".join(a for a in cli_args[:2] if not a.startswith("-"))
    code = 0
    try:
        tracer.traced(cli.main, f"cli.{command}")(
            args=cli_args, prog_name="tosaudit", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code or 0
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"op": op_id, "command": command, "import_ns": import_ns,
                   "spans": tracer.rows(), "counters": tracer.counters}, fh,
                  separators=(",", ":"))
    sys.exit(code)


if __name__ == "__main__":
    main()
