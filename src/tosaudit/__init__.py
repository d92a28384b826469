"""Terms-of-Service consent audit toolkit.

Measures textual accessibility (readability and reading time),
semantic transparency (vague-term clarity and specificity of
data-practice disclosures, with a human review round-trip), and
provides the validated schema for manual interface-design assessment.

The names in _EXPORTS, and the submodules that hold them, are loaded
on first use (PEP 562), so a command imports only the layers it runs.
"""

__version__ = "0.1.0"

# Each submodule `import tosaudit` once loaded eagerly, with the names
# the package re-exports from it.
_EXPORTS = {
    "clarity": (
        "ClarityReport", "VagueLexicon", "VagueTerm",
        "density_pct", "load_vague_lexicon", "scan_vague_terms",
    ),
    "corpus": (
        "CorpusManifest", "SnapshotEntry",
        "fetch_snapshot", "load_manifest", "save_manifest", "store_snapshot",
    ),
    "errors": (
        "AssessmentError", "CorpusError", "DegenerateDocumentError",
        "ExtractionError", "FetchError", "LexiconError", "ReviewError",
        "TosAuditError",
    ),
    "htmltext": (),
    "inputs": (),
    "interface_assess": (
        "EvidenceRecord", "InterfaceAssessment",
        "load_cue_lexicon", "suggest_evidence", "validate_assessment",
    ),
    "matching": (),
    "pipeline": ("PlatformResult", "run_pipeline"),
    "readability": (
        "FluencyEstimate", "ReadabilityBand", "ReadabilityProfile",
        "ReaderGroup", "classify_band", "compute_readability_profile",
        "estimate_reading_time", "load_reader_groups",
    ),
    "specificity": (
        "SentenceFinding", "SpecificityCounts", "SpecificityLexicons",
        "SpecificityScores", "aggregate_counts", "analyze_document",
        "classify_retention", "classify_sharing", "detect_data_types",
        "detect_entities", "export_review", "load_specificity_lexicons",
        "map_scores",
    ),
    "textprep": (
        "DocStats", "Document", "Sentence",
        "build_document", "compute_doc_stats", "count_syllables",
        "extract_text", "segment_sentences", "tokenize_words",
    ),
}
_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}


def _submodule(name):
    # The builtin __import__, unlike importlib.import_module, goes
    # through the C import path that `python -X importtime` reports on;
    # the import binds the submodule in this package's globals.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value
