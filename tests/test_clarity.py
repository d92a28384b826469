import json

import pytest

from tosaudit import clarity, specificity, textprep
from tosaudit.errors import LexiconError
from tosaudit.matching import LexiconIndex


@pytest.fixture(scope="module")
def lexicon():
    return clarity.load_vague_lexicon()


@pytest.fixture(scope="module")
def index(lexicon):
    index = LexiconIndex()
    clarity.index_terms(index, lexicon)
    return index


def scan_doc(doc, index):
    views = [index.scan(sentence) for sentence in doc.sentences]
    return clarity.scan_vague_terms(doc, views)


def scan(text, index):
    return scan_doc(textprep.build_document("demo", text), index)


class TestLexiconLoading:
    def test_shipped_lexicon_has_thirty_terms(self, lexicon):
        assert len(lexicon) == 30

    def test_all_categories_known(self, lexicon):
        assert {t.category for t in lexicon} <= set(clarity.CATEGORIES)

    def test_custom_file_with_term_list(self, tmp_path):
        path = tmp_path / "vague_terms.json"
        path.write_text(json.dumps([
            {"canonical": "maybe", "variants": ["perhaps"],
             "category": "uncertainty"},
        ]))
        lex = clarity.load_vague_lexicon(str(tmp_path))
        assert lex[0].canonical == "maybe"
        assert lex[0].variants == ("perhaps",)

    def test_duplicate_surface_rejected(self, tmp_path):
        path = tmp_path / "vague_terms.json"
        path.write_text(json.dumps([
            {"canonical": "maybe", "variants": [], "category": "uncertainty"},
            {"canonical": "possibly", "variants": ["Maybe"],
             "category": "uncertainty"},
        ]))
        with pytest.raises(LexiconError, match="duplicate surface form"):
            clarity.load_vague_lexicon(str(tmp_path))

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "vague_terms.json"
        path.write_text(json.dumps([
            {"canonical": "maybe", "variants": [], "category": "weird"},
        ]))
        with pytest.raises(LexiconError, match="unknown category"):
            clarity.load_vague_lexicon(str(tmp_path))

    def test_empty_lexicon_rejected(self, tmp_path):
        path = tmp_path / "vague_terms.json"
        path.write_text("[]")
        with pytest.raises(LexiconError, match="no terms"):
            clarity.load_vague_lexicon(str(tmp_path))

    def test_empty_canonical_rejected(self, tmp_path):
        path = tmp_path / "vague_terms.json"
        path.write_text(json.dumps([
            {"canonical": " ", "variants": [], "category": "other"},
        ]))
        with pytest.raises(LexiconError, match="empty term"):
            clarity.load_vague_lexicon(str(tmp_path))

    @pytest.mark.parametrize("canonical, shown", [
        (5, "5"), ([], r"\[\]"), (None, "None")], ids=["int", "list", "null"])
    def test_non_string_canonical_is_named(self, tmp_path, canonical, shown):
        path = tmp_path / "vague_terms.json"
        path.write_text(json.dumps([
            {"canonical": canonical, "variants": [], "category": "other"},
        ]))
        with pytest.raises(LexiconError, match=f"^empty term: canonical "
                           f"{shown} is not a non-empty string$"):
            clarity.load_vague_lexicon(str(tmp_path))

    @pytest.mark.parametrize("variants", ["abc", [""], [" "], [3], None])
    def test_variants_must_be_list_of_strings(self, tmp_path, variants):
        path = tmp_path / "vague_terms.json"
        path.write_text(json.dumps([
            {"canonical": "maybe", "variants": variants,
             "category": "uncertainty"},
        ]))
        with pytest.raises(LexiconError, match="variants of term 'maybe'"):
            clarity.load_vague_lexicon(str(tmp_path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "vague_terms.json"
        path.write_text("{nope")
        with pytest.raises(LexiconError, match="malformed"):
            clarity.load_vague_lexicon(str(tmp_path))


class TestScan:
    def test_nesting_sentence_yields_three_matches(self, index):
        report = scan("We may share certain information with third parties.",
                      index)
        assert report.vague_count == 3
        assert report.per_term_counts == {
            "may": 1, "certain information": 1, "third parties": 1}
        assert report.word_count == 8
        assert report.density_pct == pytest.approx(37.5)
        assert report.unique_terms == 3

    def test_variant_attributed_to_canonical(self, index):
        report = scan("We could contact vendors.", index)
        assert report.per_term_counts == {"may": 1, "third parties": 1}

    def test_singular_vendor_maps_to_hyphenated_term(self, index):
        report = scan("A vendor handles payments.", index)
        assert report.per_term_counts == {"third-party": 1}

    def test_match_spans_are_absolute(self, index):
        text = "First sentence is plain.\n\nWe may act from time to time."
        doc = textprep.build_document("demo", text)
        report = scan_doc(doc, index)
        for sentence_index, (start, end), canonical in report.matches:
            surface = doc.text[start:end]
            assert surface.lower().split()[0] in (
                canonical.split()[0], "could", "can", "time")
        spans = {doc.text[s:e].lower() for _, (s, e), _ in report.matches}
        assert "may" in spans
        assert "time to time" in spans

    def test_counts_accumulate_across_sentences(self, index):
        report = scan("We may act. We may rest. Some stay.", index)
        assert report.per_term_counts["may"] == 2
        assert report.per_term_counts["some"] == 1
        assert report.vague_count == 3
        assert report.unique_terms == 2

    def test_no_matches(self, index):
        report = scan("The walrus naps.", index)
        assert report.vague_count == 0
        assert report.density_pct == 0.0
        assert report.matches == []

    def test_empty_document(self, index):
        doc = textprep.build_document("demo", "")
        report = scan_doc(doc, index)
        assert report.vague_count == 0
        assert report.word_count == 0
        assert report.density_pct == 0.0

    def test_views_from_the_shared_index(self, index):
        # analyze's index also holds the specificity lexicons; their
        # hits in a view change no vague-term match.
        shared = LexiconIndex()
        clarity.index_terms(shared, clarity.load_vague_lexicon())
        specificity.index_lexicons(
            shared, specificity.load_specificity_lexicons())
        doc = textprep.build_document(
            "demo", "We may share your email address with third parties "
            "and keep it as long as necessary.")
        assert scan_doc(doc, shared) == scan_doc(doc, index)
        assert scan_doc(doc, shared).vague_count == 3


class TestDensity:
    def test_formula(self):
        assert clarity.density_pct(364, 5073) == pytest.approx(7.1752, abs=1e-4)

    def test_zero_words(self):
        assert clarity.density_pct(0, 0) == 0.0
