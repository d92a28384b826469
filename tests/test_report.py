import json

import pytest

from tosaudit.errors import TosAuditError
from tosaudit.readability import METRICS
from tosaudit.report import (
    FIGURE_KINDS, FORMATS, TABLE_KINDS, emit_figure_data, render_figure_svg,
    render_table, write_figure, write_table,
)


def counts(dt=5, en=2, re_explicit=1, re_vague=0, sg=1, ss=2):
    return {"dt": dt, "en": en, "re_explicit": re_explicit,
            "re_vague": re_vague, "sg": sg, "ss": ss}


def scores(dt_s=2, en_s=1, r_s=2, s_s=1, composite=1.5, stage="auto"):
    return {"dt_s": dt_s, "en_s": en_s, "r_s": r_s, "s_s": s_s,
            "composite": composite, "stage": stage}


def make_result(platform="alpha", ss_auto=2, ss_post=2, interface="default"):
    if interface == "default":
        interface = {
            "platform": platform,
            "unticked_checkbox": 0, "review_before_consent": 0,
            "separate_consent_steps": 0, "explicit_denial": 1,
            "reversibility_cue": 1,
            "evidence": [], "assessor": "", "assessed_at": "",
        }
    # counts() keeps sg=1, so the sharing sub-score never drops below 1
    post_s_s = 2 if ss_post >= 3 else 1
    post_composite = (2 + 1 + 2 + post_s_s) / 4
    return {
        "platform": platform,
        "doc_stats": {"word_count": 120, "sentence_count": 8},
        "readability": {
            "scores": {m: 10.0 + i for i, m in enumerate(METRICS)},
            "bands": {m: "moderate" for m in METRICS},
        },
        "fluency": {
            "child_oral": {"wpm_low": 120, "wpm_high": 128,
                           "minutes_low": 0.9375, "minutes_high": 1.0},
            "adult_oral": {"wpm_low": 183, "wpm_high": 183,
                           "minutes_low": 0.656, "minutes_high": 0.656},
        },
        "clarity": {"word_count": 120, "vague_count": 9,
                    "density_pct": 7.5, "unique_terms": 4,
                    "per_term_counts": {}, "matches": []},
        "specificity": {
            "findings": [],
            "auto": {"counts": counts(ss=ss_auto), "scores": scores()},
            "post_review": {
                "counts": counts(ss=ss_post),
                "scores": scores(s_s=post_s_s, composite=post_composite,
                                 stage="post_review"),
            },
            "coverage": {},
        },
        "interface": interface,
    }


class TestReadabilityTable:
    def test_csv(self):
        out = render_table([make_result()], "readability", "csv")
        lines = out.splitlines()
        assert lines[0] == "platform," + ",".join(METRICS)
        assert lines[1] == \
            "alpha,10.0,11.0,12.0,13.0,14.0,15.0,16.0"
        assert out.endswith("\n")

    def test_rows_alphabetical(self):
        out = render_table(
            [make_result("zulu"), make_result("alpha")],
            "readability", "csv")
        body = out.splitlines()[1:]
        assert [line.split(",")[0] for line in body] == ["alpha", "zulu"]

    def test_one_decimal_rounding(self):
        result = make_result()
        result["readability"]["scores"]["smog"] = 14.26
        out = render_table([result], "readability", "csv")
        assert ",14.3," in out.splitlines()[1]


class TestClarityTable:
    def test_csv(self):
        out = render_table([make_result()], "clarity", "csv")
        assert out.splitlines()[0] == (
            "platform,word_count,vague_term_count,"
            "vague_term_density_pct,unique_vague_terms")
        assert out.splitlines()[1] == "alpha,120,9,7.50,4"

    def test_density_two_decimals(self):
        result = make_result()
        result["clarity"]["density_pct"] = 7.177
        out = render_table([result], "clarity", "csv")
        assert out.splitlines()[1].split(",")[3] == "7.18"


class TestSpecificityTable:
    def test_unchanged_counts_render_plain(self):
        out = render_table([make_result()], "specificity", "csv")
        assert out.splitlines()[1] == "alpha,5,2,1,1,2,2,1,2,1,1.5"

    def test_transition_arrow(self):
        out = render_table(
            [make_result(ss_auto=5, ss_post=2)], "specificity", "csv")
        row = out.splitlines()[1].split(",")
        assert row[5] == "5→2"
        assert row[10] == "1.5"

    def test_rejection_to_zero(self):
        out = render_table(
            [make_result(ss_auto=2, ss_post=0)], "specificity", "csv")
        row = out.splitlines()[1].split(",")
        assert row[5] == "2→0"
        assert row[9] == "1"  # s_s still 1: sg=1 keeps the sub-score
        assert row[10] == "1.5"

    def test_composite_renders_minimally(self):
        result = make_result()
        result["specificity"]["post_review"]["scores"]["composite"] = 1.0
        out = render_table([result], "specificity", "csv")
        assert out.splitlines()[1].endswith(",1")

    def test_re_column_sums_explicit_and_vague(self):
        result = make_result()
        result["specificity"]["auto"]["counts"]["re_vague"] = 2
        result["specificity"]["post_review"]["counts"]["re_vague"] = 2
        out = render_table([result], "specificity", "csv")
        assert out.splitlines()[1].split(",")[3] == "3"


class TestInterfaceTable:
    def test_csv(self):
        out = render_table([make_result()], "interface", "csv")
        assert out.splitlines()[0] == (
            "platform,unticked_checkbox,review_before_consent,"
            "separate_consent_steps,explicit_denial,reversibility_cue")
        assert out.splitlines()[1] == "alpha,0,0,0,1,1"

    def test_missing_assessments_skipped(self):
        results = [make_result("alpha"), make_result("beta", interface=None)]
        out = render_table(results, "interface", "csv")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == \
            ["alpha"]

    def test_all_missing_raises(self):
        with pytest.raises(TosAuditError, match="nothing to render"):
            render_table([make_result(interface=None)], "interface", "csv")


class TestFormats:
    def test_markdown(self):
        out = render_table([make_result()], "clarity", "md")
        lines = out.splitlines()
        assert lines[0].startswith("| platform | word_count |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert lines[2] == "| alpha | 120 | 9 | 7.50 | 4 |"

    def test_json(self):
        out = render_table([make_result()], "clarity", "json")
        records = json.loads(out)
        assert records == [{
            "platform": "alpha",
            "word_count": "120",
            "vague_term_count": "9",
            "vague_term_density_pct": "7.50",
            "unique_vague_terms": "4",
        }]
        assert out.endswith("\n")

    def test_unknown_kind_raises(self):
        with pytest.raises(TosAuditError, match="unknown table kind"):
            render_table([make_result()], "mystery", "csv")

    def test_unknown_format_raises(self):
        with pytest.raises(TosAuditError, match="unknown format"):
            render_table([make_result()], "clarity", "xml")

    def test_empty_results_raise(self):
        with pytest.raises(TosAuditError, match="nothing to render"):
            render_table([], "clarity", "csv")


class TestFigureData:
    def test_words_vs_sentences(self):
        records = emit_figure_data(
            [make_result("beta"), make_result("alpha")],
            "words_vs_sentences")
        assert records == [
            {"platform": "alpha", "words": 120, "sentences": 8},
            {"platform": "beta", "words": 120, "sentences": 8},
        ]

    def test_reading_time_minutes_by_wpm(self):
        records = emit_figure_data([make_result()], "reading_time")
        assert records == [{
            "platform": "alpha",
            "minutes": {"128": 0.9375, "120": 1.0, "183": 0.656},
        }]

    def test_clarity_bubble(self):
        records = emit_figure_data([make_result()], "clarity_bubble")
        assert records == [
            {"platform": "alpha", "density_pct": 7.5, "unique_terms": 4}]

    def test_unknown_kind_raises(self):
        with pytest.raises(TosAuditError, match="unknown figure kind"):
            emit_figure_data([make_result()], "pie")

    def test_empty_raises(self):
        with pytest.raises(TosAuditError, match="nothing to render"):
            emit_figure_data([], "clarity_bubble")


class TestSvg:
    def test_scatter(self):
        records = emit_figure_data([make_result()], "words_vs_sentences")
        svg = render_figure_svg(records, "words_vs_sentences")
        assert svg.startswith("<svg")
        assert "Words vs. sentences per document" in svg
        assert "alpha" in svg

    def test_grouped_bars(self):
        records = emit_figure_data([make_result()], "reading_time")
        svg = render_figure_svg(records, "reading_time")
        assert svg.startswith("<svg")
        assert "120 wpm" in svg and "183 wpm" in svg

    def test_bubble(self):
        records = emit_figure_data([make_result()], "clarity_bubble")
        svg = render_figure_svg(records, "clarity_bubble")
        assert svg.startswith("<svg")
        assert "Vague-term density" in svg


class TestFileOutputs:
    def test_write_table(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table([make_result()], "clarity", "csv", str(path))
        assert path.read_text().splitlines()[1] == "alpha,120,9,7.50,4"

    def test_write_figure_with_svg(self, tmp_path):
        data_path = tmp_path / "fig.json"
        svg_path = tmp_path / "fig.svg"
        write_figure([make_result()], "clarity_bubble",
                     str(data_path), svg_path=str(svg_path))
        assert json.loads(data_path.read_text())[0]["platform"] == "alpha"
        assert svg_path.read_text().startswith("<svg")


class TestAgainstPipelineResults:
    def test_all_kinds_and_formats_render(self, run_payload):
        results = run_payload["results"]
        for kind in TABLE_KINDS:
            for fmt in FORMATS:
                out = render_table(results, kind, fmt)
                assert "bluesky" in out

    def test_reading_time_keys_cover_reader_groups(self, run_payload):
        results = run_payload["results"]
        records = emit_figure_data(results, "reading_time")
        for record in records:
            assert set(record["minutes"]) == {"120", "128", "183", "238"}

    def test_all_figures_render(self, run_payload):
        results = run_payload["results"]
        for kind in FIGURE_KINDS:
            records = emit_figure_data(results, kind)
            assert len(records) == 13
            assert render_figure_svg(records, kind).startswith("<svg")
