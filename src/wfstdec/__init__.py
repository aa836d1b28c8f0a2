"""Tropical-semiring WFST toolkit and one-pass morpheme decoder."""

from .fst import (
    ONE,
    ZERO,
    Arc,
    Fst,
    SymbolTable,
    connect,
    find_arc,
    read_text_fst,
    weight_times,
    write_text_fst,
)
from .ngram import (
    NGramModel,
    estimate_witten_bell,
    parse_arpa,
    prune_to_small_lm,
    score_sentence,
    write_arpa,
)
from .graph import (
    Lexicon,
    build_search_graph,
    compile_lexicon,
    compose_standard,
    lm_to_fst,
    negate_weights,
)
from .acoustic import (
    AcousticMatrix,
    synthesize_utterance,
)
from .decoder import (
    DecodeOptions,
    Lattice,
    RelayStats,
    SearchSpace,
    best_path,
    decode_onthefly,
    decode_static,
    relay_final,
    relay_match,
    rescore_lattice,
    search_space,
)
from .metrics import morphemes_to_words, size_report, wer_score
from .pipeline import (DecodeReport, PipelineConfig, build_graphs,
                       decode_utterance, run_pipeline, synthesize_task)

__version__ = "0.1.0"
