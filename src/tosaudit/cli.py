"""Command-line interface.

Exit codes: 0 success, 1 per-document failures or validation
findings, 2 usage errors and every TosAuditError (a bad input file).

Each command imports the modules it runs, so the review commands load
no text-analysis layer and only `report` loads the report writers.
"""

import os
import sys

import click

from . import inputs
from .errors import TosAuditError

# report's TABLE_KINDS, FORMATS and FIGURE_KINDS, for click to check
# before report is imported; a test keeps them equal.
TABLE_KINDS = ("readability", "clarity", "specificity", "interface")
FIGURE_KINDS = ("words_vs_sentences", "reading_time", "clarity_bubble")
FORMATS = ("csv", "md", "json")


def _echo(message, err=False):
    """click.echo, with a lone surrogate (valid in JSON text, but not
    writable as UTF-8) written as a backslash escape."""
    click.echo(message.encode("utf-8", "backslashreplace").decode("utf-8"),
               err=err)


class _Main(click.Group):
    """The command group; any TosAuditError is fatal, with exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TosAuditError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)


def _use_results(results_path, use):
    """Call use(payload) on a results file; a wrong shape inside is fatal."""
    from . import results
    payload = results.load_results(results_path)
    try:
        return use(payload)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise TosAuditError(
            f"malformed results file {results_path}: {exc!r}") from None


@click.group(cls=_Main)
def main():
    """Audit Terms-of-Service documents for consent accessibility."""


@main.command()
@click.option("--config", "config_path", default=None,
              help="Corpus config JSON; defaults to the shipped platform list.")
@click.option("--platform", "platform", default=None,
              help="Fetch only this platform.")
@click.option("--corpus", "corpus_dir", default="corpus", show_default=True,
              help="Corpus directory to store snapshots in.")
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


@main.command()
@click.option("--corpus", "corpus_dir", required=True,
              help="Corpus directory containing manifest.json.")
@click.option("--lexicons", "lexicons_dir", default=None,
              help="Directory of lexicon files; defaults to shipped data.")
@click.option("--out", "out_path", required=True,
              help="Path for the results JSON.")
@click.option("--classic-lensear", is_flag=True, default=False,
              help="Apply the traditional Lensear halving adjustment.")
def analyze(corpus_dir, lexicons_dir, out_path, classic_lensear):
    """Run the full analysis pipeline over a corpus."""
    from . import pipeline
    # Fail before the run, without creating or truncating --out.
    out_dir = os.path.dirname(out_path) or "."
    if not os.path.isdir(out_dir):
        raise TosAuditError(f"cannot write {out_path}: no directory {out_dir}")
    # Records are encoded as they are made, so text that UTF-8 cannot
    # hold fails the run as a write of --out.
    with inputs.encoding_for(out_path):
        records, failures = pipeline.run_pipeline(
            corpus_dir, lexicons_dir=lexicons_dir,
            classic_lensear=classic_lensear)
    pipeline.save_results(
        pipeline.results_payload(records, failures), out_path)
    click.echo(f"analyzed {len(records)} platform(s), "
               f"{len(failures)} failure(s) -> {out_path}")
    for platform, message in failures:
        click.echo(f"failed {platform}: {message}", err=True)
    if failures:
        sys.exit(1)


@main.group()
def review():
    """Export and re-import human review of specificity findings."""


@review.command("export")
@click.option("--results", "results_path", required=True)
@click.option("--out", "out_path", required=True)
@click.option("--include-dt-en", is_flag=True, default=False,
              help="Also export data-type and entity findings.")
def review_export(results_path, out_path, include_dt_en):
    """Write reviewable findings to a JSONL file."""
    from . import results
    count = _use_results(results_path, lambda payload: (
        results.export_review_from_results(
            payload, out_path, include_dt_en=include_dt_en)))
    click.echo(f"exported {count} finding(s) -> {out_path}")


@review.command("apply")
@click.option("--results", "results_path", required=True)
@click.option("--review", "review_path", required=True)
@click.option("--out", "out_path", required=True)
def review_apply(results_path, review_path, out_path):
    """Apply reviewed labels and recompute post-review scores."""
    from . import results

    def apply(payload):
        with inputs.encoding_for(out_path):  # revised records are encoded
            return results.apply_review_to_results(payload, review_path)

    revised = _use_results(results_path, apply)
    results.save_results(revised, out_path)
    click.echo(f"applied review -> {out_path}")


@main.group()
def assess():
    """Work with manual interface-design assessments."""


@assess.command("validate")
@click.option("--file", "file_path", required=True)
def assess_validate(file_path):
    """Check an assessment file against the schema."""
    from . import interface_assess
    assessment = interface_assess.load_assessment(file_path)
    errors = interface_assess.validate_assessment(assessment)
    if errors:
        for message in errors:
            click.echo(f"invalid: {message}", err=True)
        sys.exit(1)
    click.echo(f"ok: {assessment.platform}")


@main.group(name="report")
def report_group():
    """Render tables and figure data from a results file."""


@report_group.command("table")
@click.option("--results", "results_path", required=True)
@click.option("--kind", required=True,
              type=click.Choice(TABLE_KINDS))
@click.option("--format", "fmt", required=True,
              type=click.Choice(FORMATS))
@click.option("--out", "out_path", required=True)
def report_table(results_path, kind, fmt, out_path):
    """Write one cross-platform table."""
    from . import report
    _use_results(results_path, lambda payload: report.write_table(
        payload["results"], kind, fmt, out_path))
    click.echo(f"wrote {kind} table -> {out_path}")


@report_group.command("figure")
@click.option("--results", "results_path", required=True)
@click.option("--kind", required=True,
              type=click.Choice(FIGURE_KINDS))
@click.option("--out", "out_path", required=True)
@click.option("--svg", "svg_path", default=None,
              help="Also render the figure as an SVG file.")
def report_figure(results_path, kind, out_path, svg_path):
    """Write one figure's data file (and optionally an SVG)."""
    from . import report
    _use_results(results_path, lambda payload: report.write_figure(
        payload["results"], kind, out_path, svg_path=svg_path))
    click.echo(f"wrote {kind} figure data -> {out_path}")


if __name__ == "__main__":
    main()
