"""Cross-platform tables and figure data files from analysis results.

Tables come in four kinds (readability, clarity, specificity,
interface) and three formats (csv, md, json); figure data covers the
words-vs-sentences, reading-time, and clarity-bubble plots. Rows are
always one per platform, alphabetical.
"""

import csv
import io

from . import inputs
from . import svg as svg_mod
from .errors import TosAuditError
from .readability import METRICS as READABILITY_METRICS

TABLE_KINDS = ("readability", "clarity", "specificity", "interface")
FIGURE_KINDS = ("words_vs_sentences", "reading_time", "clarity_bubble")
FORMATS = ("csv", "md", "json")

CLARITY_HEADER = ("platform", "word_count", "vague_term_count",
                  "vague_term_density_pct", "unique_vague_terms")
SPECIFICITY_HEADER = ("platform", "dt", "en", "re", "sg", "ss",
                      "dt_s", "en_s", "r_s", "s_s", "specificity")
INTERFACE_HEADER = ("platform", "unticked_checkbox", "review_before_consent",
                    "separate_consent_steps", "explicit_denial",
                    "reversibility_cue")

ARROW = "→"


def _sorted_results(results):
    if not results:
        raise TosAuditError("nothing to render")
    return sorted(results, key=lambda r: r["platform"])


def _transition(auto_value, post_value):
    if auto_value == post_value:
        return str(post_value)
    return f"{auto_value}{ARROW}{post_value}"


def _readability_rows(results):
    header = ("platform",) + READABILITY_METRICS
    rows = []
    for r in _sorted_results(results):
        scores = r["readability"]["scores"]
        rows.append((r["platform"],)
                    + tuple(f"{scores[m]:.1f}" for m in READABILITY_METRICS))
    return header, rows


def _clarity_rows(results):
    rows = []
    for r in _sorted_results(results):
        c = r["clarity"]
        rows.append((r["platform"], str(c["word_count"]),
                     str(c["vague_count"]), f"{c['density_pct']:.2f}",
                     str(c["unique_terms"])))
    return CLARITY_HEADER, rows


def _specificity_rows(results):
    rows = []
    for r in _sorted_results(results):
        auto = r["specificity"]["auto"]["counts"]
        post = r["specificity"]["post_review"]["counts"]
        scores = r["specificity"]["post_review"]["scores"]
        auto_re = auto["re_explicit"] + auto["re_vague"]
        post_re = post["re_explicit"] + post["re_vague"]
        rows.append((
            r["platform"],
            _transition(auto["dt"], post["dt"]),
            _transition(auto["en"], post["en"]),
            _transition(auto_re, post_re),
            _transition(auto["sg"], post["sg"]),
            _transition(auto["ss"], post["ss"]),
            *(str(scores[k]) for k in ("dt_s", "en_s", "r_s", "s_s")),
            f"{scores['composite']:g}",
        ))
    return SPECIFICITY_HEADER, rows


def _interface_rows(results):
    rows = []
    for r in _sorted_results(results):
        assessment = r.get("interface")
        if assessment is None:
            continue
        rows.append((r["platform"],)
                    + tuple(str(assessment[m]) for m in INTERFACE_HEADER[1:]))
    if not rows:
        raise TosAuditError("nothing to render")
    return INTERFACE_HEADER, rows


_TABLE_BUILDERS = {
    "readability": _readability_rows,
    "clarity": _clarity_rows,
    "specificity": _specificity_rows,
    "interface": _interface_rows,
}


def _to_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _to_markdown(header, rows):
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _to_json(header, rows):
    records = [dict(zip(header, row)) for row in rows]
    return inputs.canonical_json(records)


def render_table(results, table_kind, fmt):
    """Render one table kind to a csv/md/json string."""
    if table_kind not in _TABLE_BUILDERS:
        raise TosAuditError(f"unknown table kind: {table_kind}")
    if fmt not in FORMATS:
        raise TosAuditError(f"unknown format: {fmt}")
    header, rows = _TABLE_BUILDERS[table_kind](results)
    if fmt == "csv":
        return _to_csv(header, rows)
    if fmt == "md":
        return _to_markdown(header, rows)
    return _to_json(header, rows)


def emit_figure_data(results, figure_kind):
    """Per-platform records carrying exactly the plotted quantities."""
    ordered = _sorted_results(results)
    if figure_kind == "words_vs_sentences":
        return [
            {
                "platform": r["platform"],
                "words": r["doc_stats"]["word_count"],
                "sentences": r["doc_stats"]["sentence_count"],
            }
            for r in ordered
        ]
    if figure_kind == "reading_time":
        records = []
        for r in ordered:
            minutes = {}
            for group in r["fluency"].values():
                for wpm, mins in (
                        (group["wpm_high"], group["minutes_low"]),
                        (group["wpm_low"], group["minutes_high"])):
                    minutes[f"{wpm:g}"] = mins
            records.append({"platform": r["platform"], "minutes": minutes})
        return records
    if figure_kind == "clarity_bubble":
        return [
            {
                "platform": r["platform"],
                "density_pct": r["clarity"]["density_pct"],
                "unique_terms": r["clarity"]["unique_terms"],
            }
            for r in ordered
        ]
    raise TosAuditError(f"unknown figure kind: {figure_kind}")


def render_figure_svg(records, figure_kind):
    """Draw a figure-kind data set as an SVG string."""
    if figure_kind == "words_vs_sentences":
        points = [(r["words"], r["sentences"], r["platform"])
                  for r in records]
        return svg_mod.scatter_svg(
            points, "Word count", "Sentence count",
            "Words vs. sentences per document")
    if figure_kind == "reading_time":
        categories = [r["platform"] for r in records]
        wpm_keys = sorted({k for r in records for k in r["minutes"]},
                          key=float)
        series = {
            f"{k} wpm": [r["minutes"][k] for r in records]
            for k in wpm_keys
        }
        return svg_mod.grouped_bar_svg(
            categories, series, "Platform", "Minutes",
            "Estimated reading time")
    if figure_kind == "clarity_bubble":
        points = [(r["density_pct"], r["unique_terms"], r["platform"])
                  for r in records]
        radii = [4.0 + 1.5 * r["unique_terms"] for r in records]
        return svg_mod.scatter_svg(
            points, "Vague-term density (%)", "Unique vague terms",
            "Vague-term density and diversity", radii=radii)
    raise TosAuditError(f"unknown figure kind: {figure_kind}")


def write_table(results, table_kind, fmt, out_path):
    inputs.write_atomic(out_path, [render_table(results, table_kind, fmt)])


def write_figure(results, figure_kind, out_path, svg_path=None):
    records = emit_figure_data(results, figure_kind)
    inputs.write_atomic(out_path, [inputs.canonical_json(records)])
    if svg_path:
        inputs.write_atomic(
            svg_path, [render_figure_svg(records, figure_kind)])
