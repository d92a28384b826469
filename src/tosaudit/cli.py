"""Command-line interface, on the standard library's argparse.

Exit codes: 0 success, 1 per-document failures or validation
findings, 2 usage errors and every TosAuditError (a bad input file).

Each command imports the modules it runs, so the review commands load
no text-analysis layer and only `report` loads the report writers.
Every line, argparse's usage and help included, goes out through
`_write`, so text the stream cannot encode is escaped, not fatal.
"""

import argparse
import os
import sys

from . import inputs
from .errors import TosAuditError

# report's TABLE_KINDS, FORMATS and FIGURE_KINDS, for argparse to check
# before report is imported; a test keeps them equal.
TABLE_KINDS = ("readability", "clarity", "specificity", "interface")
FIGURE_KINDS = ("words_vs_sentences", "reading_time", "clarity_bubble")
FORMATS = ("csv", "md", "json")


def _write(text, stream):
    """Write text to stream, with what its encoding cannot hold, such as
    a lone surrogate from a JSON escape or from a file name that is not
    UTF-8, written as a backslash escape."""
    encoding = stream.encoding or "utf-8"
    stream.write(text.encode(encoding, "backslashreplace").decode(encoding))


def _echo(message, err=False):
    _write(message + "\n", sys.stderr if err else sys.stdout)


class _Parser(argparse.ArgumentParser):
    """Options are matched whole, never by prefix, and messages go
    through _write."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def _print_message(self, message, file=None):
        if message:
            _write(message, file or sys.stderr)


def _use_results(results_path, use):
    """Call use(payload) on a results file; a wrong shape inside is fatal."""
    from . import results
    payload = results.load_results(results_path)
    try:
        return use(payload)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise TosAuditError(
            f"malformed results file {results_path}: {exc!r}") from None


def fetch(config_path, platform, corpus_dir):
    """Fetch configured ToS pages into the snapshot corpus."""
    from . import corpus
    config = corpus.load_corpus_config(config_path)
    outcomes = corpus.fetch_all(config, corpus_dir, platform=platform)
    errors = 0
    for name, status, detail in outcomes:
        _echo(f"{name}: {status} {detail}")
        if status == "error":
            errors += 1
    if errors:
        sys.exit(1)


def analyze(corpus_dir, lexicons_dir, out_path, classic_lensear):
    """Run the full analysis pipeline over a corpus."""
    from . import pipeline
    # Fail before the run, without creating or truncating --out.
    out_dir = os.path.dirname(out_path) or "."
    if not os.path.isdir(out_dir):
        raise TosAuditError(f"cannot write {out_path}: no directory {out_dir}")
    inputs.check_writable(out_path)
    # Records are encoded as they are made, so text that UTF-8 cannot
    # hold fails the run as a write of --out.
    with inputs.encoding_for(out_path):
        records, failures = pipeline.run_pipeline(
            corpus_dir, lexicons_dir=lexicons_dir,
            classic_lensear=classic_lensear)
    pipeline.save_results(
        pipeline.results_payload(records, failures), out_path)
    _echo(f"analyzed {len(records)} platform(s), "
          f"{len(failures)} failure(s) -> {out_path}")
    for platform, message in failures:
        _echo(f"failed {platform}: {message}", err=True)
    if failures:
        sys.exit(1)


def review_export(results_path, out_path, include_dt_en):
    """Write reviewable findings to a JSONL file."""
    from . import results
    count = _use_results(results_path, lambda payload: (
        results.export_review_from_results(
            payload, out_path, include_dt_en=include_dt_en)))
    _echo(f"exported {count} finding(s) -> {out_path}")


def review_apply(results_path, review_path, out_path):
    """Apply reviewed labels and recompute post-review scores."""
    from . import results

    def apply(payload):
        with inputs.encoding_for(out_path):  # revised records are encoded
            return results.apply_review_to_results(payload, review_path)

    revised = _use_results(results_path, apply)
    results.save_results(revised, out_path)
    _echo(f"applied review -> {out_path}")


def assess_validate(file_path):
    """Check an assessment file against the schema."""
    from . import interface_assess
    assessment = interface_assess.load_assessment(file_path)
    errors = interface_assess.validate_assessment(assessment)
    if errors:
        for message in errors:
            _echo(f"invalid: {message}", err=True)
        sys.exit(1)
    _echo(f"ok: {assessment.platform}")


def report_table(results_path, kind, fmt, out_path):
    """Write one cross-platform table."""
    from . import report
    _use_results(results_path, lambda payload: report.write_table(
        payload["results"], kind, fmt, out_path))
    _echo(f"wrote {kind} table -> {out_path}")


def report_figure(results_path, kind, out_path, svg_path):
    """Write one figure's data file (and optionally an SVG)."""
    from . import report
    _use_results(results_path, lambda payload: report.write_figure(
        payload["results"], kind, out_path, svg_path=svg_path))
    _echo(f"wrote {kind} figure data -> {out_path}")


def _commands(parser):
    """The subcommands of parser; a bare parser is a usage error."""
    return parser.add_subparsers(metavar="COMMAND", required=True)


def _group(commands, name, description):
    sub = commands.add_parser(name, help=description, description=description)
    return _commands(sub)


def _command(commands, name, run):
    """A subcommand that calls run with its options as keyword arguments."""
    sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
    sub.set_defaults(run=run)
    return sub


def _parser(prog):
    parser = _Parser(prog=prog, description=(
        "Audit Terms-of-Service documents for consent accessibility."))
    commands = _commands(parser)

    sub = _command(commands, "fetch", fetch)
    sub.add_argument("--config", dest="config_path", help=(
        "Corpus config JSON; defaults to the shipped platform list."))
    sub.add_argument("--platform", help="Fetch only this platform.")
    sub.add_argument("--corpus", dest="corpus_dir", default="corpus", help=(
        "Corpus directory to store snapshots in (default: corpus)."))

    sub = _command(commands, "analyze", analyze)
    sub.add_argument("--corpus", dest="corpus_dir", required=True,
                     help="Corpus directory containing manifest.json.")
    sub.add_argument("--lexicons", dest="lexicons_dir", help=(
        "Directory of lexicon files; defaults to shipped data."))
    sub.add_argument("--out", dest="out_path", required=True,
                     help="Path for the results JSON.")
    sub.add_argument("--classic-lensear", action="store_true", help=(
        "Apply the traditional Lensear halving adjustment."))

    review = _group(commands, "review", (
        "Export and re-import human review of specificity findings."))
    sub = _command(review, "export", review_export)
    sub.add_argument("--results", dest="results_path", required=True)
    sub.add_argument("--out", dest="out_path", required=True)
    sub.add_argument("--include-dt-en", action="store_true",
                     help="Also export data-type and entity findings.")
    sub = _command(review, "apply", review_apply)
    sub.add_argument("--results", dest="results_path", required=True)
    sub.add_argument("--review", dest="review_path", required=True)
    sub.add_argument("--out", dest="out_path", required=True)

    assess = _group(commands, "assess",
                    "Work with manual interface-design assessments.")
    sub = _command(assess, "validate", assess_validate)
    sub.add_argument("--file", dest="file_path", required=True)

    report = _group(commands, "report",
                    "Render tables and figure data from a results file.")
    sub = _command(report, "table", report_table)
    sub.add_argument("--results", dest="results_path", required=True)
    sub.add_argument("--kind", required=True, choices=TABLE_KINDS)
    sub.add_argument("--format", dest="fmt", required=True, choices=FORMATS)
    sub.add_argument("--out", dest="out_path", required=True)
    sub = _command(report, "figure", report_figure)
    sub.add_argument("--results", dest="results_path", required=True)
    sub.add_argument("--kind", required=True, choices=FIGURE_KINDS)
    sub.add_argument("--out", dest="out_path", required=True)
    sub.add_argument("--svg", dest="svg_path",
                     help="Also render the figure as an SVG file.")
    return parser


def main(args=None, prog_name="tosaudit", standalone_mode=True):
    """Run the command in args (default: sys.argv[1:]).

    Returns on success; any other outcome raises SystemExit with the
    exit code. standalone_mode is accepted, and ignored, for callers
    written against click's `main`, such as perfbench/traced_cli.py.
    """
    options = vars(_parser(prog_name).parse_args(args))
    run = options.pop("run")
    try:
        run(**options)
    except TosAuditError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
