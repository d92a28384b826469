"""Terms-of-Service consent audit toolkit.

Measures textual accessibility (readability and reading time),
semantic transparency (vague-term clarity and specificity of
data-practice disclosures, with a human review round-trip), and
provides the validated schema for manual interface-design assessment.
"""

__version__ = "0.1.0"

from .clarity import (
    ClarityReport, VagueLexicon, VagueTerm,
    density_pct, load_vague_lexicon, scan_vague_terms,
)
from .corpus import (
    CorpusManifest, SnapshotEntry,
    fetch_snapshot, load_manifest, save_manifest, store_snapshot,
)
from .errors import (
    AssessmentError, CorpusError, DegenerateDocumentError, ExtractionError,
    FetchError, LexiconError, ReviewError, TosAuditError,
)
from .interface_assess import (
    EvidenceRecord, InterfaceAssessment,
    load_cue_lexicon, suggest_evidence, validate_assessment,
)
from .pipeline import PlatformResult, run_pipeline
from .readability import (
    FluencyEstimate, ReadabilityBand, ReadabilityProfile, ReaderGroup,
    classify_band, compute_readability_profile, estimate_reading_time,
    load_reader_groups,
)
from .specificity import (
    SentenceFinding, SpecificityCounts, SpecificityLexicons,
    SpecificityScores, aggregate_counts, analyze_document,
    classify_retention, classify_sharing, detect_data_types, detect_entities,
    export_review, load_specificity_lexicons, map_scores,
)
from .textprep import (
    DocStats, Document, Sentence,
    build_document, compute_doc_stats, count_syllables, extract_text,
    segment_sentences, tokenize_words,
)
