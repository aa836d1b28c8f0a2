"""Synthetic decoding tasks and the three-strategy comparison pipeline.

The task generator builds a morpheme lexicon with fixed-length, pairwise
distinct pronunciations (so phone strings segment uniquely), a Markov
successor chain over the morphemes, a seeded corpus for LM estimation,
and zero-noise (or noisy) synthetic utterances.  Non-initial morphemes
carry a "+" prefix so hypotheses reconstruct into words deterministically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from . import acoustic as ac
from . import decoder as dec
from . import graph as gb
from . import metrics
from . import ngram
from .fst import gc_paused

STRATEGIES = ("onthefly", "static", "rescore")

_PHONE_NAMES = [
    "a", "e", "i", "o", "u", "b", "c", "d", "f", "g", "h", "k", "l", "m",
    "n", "p", "q", "r", "s", "t", "v", "w", "x", "y", "z", "sh", "ch", "ng",
    "th", "zh",
]


def build_graphs(lexicon: gb.Lexicon, big: ngram.NGramModel,
                 small: ngram.NGramModel,
                 strategies: Sequence[str] = STRATEGIES) -> dict[str, gb.Fst]:
    """The graphs that ``strategies`` decode with, named as in the size
    report: ``HCLG3``, ``G3neg`` and ``G4`` for ``onthefly`` and
    ``rescore``, ``HCLG4`` for ``static``.  They share one morpheme table,
    with ``#0``, and one phone table."""
    syms = gb.make_morpheme_symbols(big, with_hash=True)
    graphs: dict[str, gb.Fst] = {}
    if {"onthefly", "rescore"} & set(strategies):
        graphs["HCLG3"] = gb.build_search_graph(lexicon, small, None, syms)
        graphs["G3neg"] = gb.negate_weights(gb.lm_to_fst(small, syms, gb.BACKOFF_EPS))
        graphs["G4"] = gb.lm_to_fst(big, syms, gb.BACKOFF_EPS)
    if "static" in strategies:
        phones = graphs["HCLG3"].isyms if graphs else None
        graphs["HCLG4"] = gb.build_search_graph(lexicon, big, phones, syms)
    return graphs


def decode_utterance(strategy: str, graphs: dict[str, gb.Fst],
                     matrix: ac.AcousticMatrix, opts: dec.DecodeOptions,
                     stats: Optional[dec.RelayStats] = None,
                     utt_id: str = "") -> dec.Lattice:
    """One utterance's lattice under ``strategy``, over graphs named as
    ``build_graphs`` names them.  ``onthefly`` searches HCLG3 x G3neg x G4,
    ``static`` searches HCLG4, and ``rescore`` searches HCLG3 and rescores
    the lattice with G3neg and G4; relay counters go to ``stats``."""
    if strategy == "static":
        return dec.decode_static(graphs["HCLG4"], matrix, opts, utt_id=utt_id)
    if strategy == "onthefly":
        return dec.decode_onthefly(graphs["HCLG3"], graphs["G3neg"],
                                   graphs["G4"], matrix, opts, stats,
                                   utt_id=utt_id)
    if strategy == "rescore":
        first = dec.decode_static(graphs["HCLG3"], matrix, opts, utt_id=utt_id)
        return dec.rescore_lattice(first, graphs["G3neg"], graphs["G4"], stats)
    raise ValueError(f"unknown strategy {strategy!r}")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    seed: int = 7
    num_morphemes: int = 50
    suffix_fraction: float = 0.3
    pron_len: int = 3
    num_phones: int = 15
    branching: int = 2
    num_sentences: int = 5000
    sentence_len: tuple[int, int] = (5, 9)
    order: int = 4
    prune_threshold: float = 1e-5
    max_order: int = 3
    num_utterances: int = 20
    utterance_len: tuple[int, int] = (24, 32)
    noise: float = 0.0
    margin: float = ac.DEFAULT_MARGIN
    beam: float = dec.DecodeOptions.beam
    max_active: int = dec.DecodeOptions.max_active
    lattice_beam: float = dec.DecodeOptions.lattice_beam
    acoustic_scale: float = dec.DecodeOptions.acoustic_scale
    strategies: tuple[str, ...] = STRATEGIES
    # Constants, not fields: one 10 ms frame per phone, as the search
    # graphs have no phone self-loops.
    frames_per_phone = 1
    frame_shift_ms = 10.0

    def options(self) -> dec.DecodeOptions:
        return dec.DecodeOptions(**{f.name: getattr(self, f.name)
                                    for f in fields(dec.DecodeOptions)})


@dataclass
class SynthTask:
    lexicon: gb.Lexicon
    morphemes: list[str]
    chain: dict[str, list[str]]
    starts: list[str]
    corpus: list[list[str]]
    utterances: list[tuple[str, list[str]]]  # (utt_id, morpheme sequence)


@gc_paused
def generate_task(cfg: PipelineConfig) -> SynthTask:
    rng = random.Random(cfg.seed)
    phones = _PHONE_NAMES[:cfg.num_phones]
    if len(phones) < cfg.num_phones:
        phones = phones + [f"ph{i}" for i in range(len(phones), cfg.num_phones)]

    capacity = len(phones) ** cfg.pron_len
    if cfg.num_morphemes > capacity:
        raise ValueError(
            f"cannot draw {cfg.num_morphemes} distinct pronunciations from "
            f"{len(phones)} phones at length {cfg.pron_len} ({capacity} possible)")
    num_suffix = int(cfg.num_morphemes * cfg.suffix_fraction)
    if cfg.num_morphemes - num_suffix < 2:
        raise ValueError(
            f"num_morphemes {cfg.num_morphemes} at suffix_fraction "
            f"{cfg.suffix_fraction} leaves fewer than 2 stems "
            f"({cfg.num_morphemes - num_suffix})")
    if cfg.branching > cfg.num_morphemes:
        raise ValueError(f"branching {cfg.branching} exceeds num_morphemes "
                         f"{cfg.num_morphemes}")
    prons: set[tuple[str, ...]] = set()
    morphemes: list[str] = []
    lex = gb.Lexicon()
    for i in range(cfg.num_morphemes):
        while True:
            pron = tuple(rng.choice(phones) for _ in range(cfg.pron_len))
            if pron not in prons:
                prons.add(pron)
                break
        name = "".join(pron)
        if i >= cfg.num_morphemes - num_suffix:
            name = metrics.SUFFIX_MARK + name
        if name in lex.prons:  # two prons could spell the same string
            name = f"{name}{i}"
        morphemes.append(name)
        lex.add(name, pron)

    stems = [m for m in morphemes if not m.startswith(metrics.SUFFIX_MARK)]
    starts = sorted(rng.sample(stems, max(2, len(stems) // 8)))
    chain = {m: sorted(rng.sample(morphemes, cfg.branching)) for m in morphemes}

    def walk(r: random.Random, lo: int, hi: int) -> list[str]:
        n = r.randint(lo, hi)
        cur = r.choice(starts)
        sent = [cur]
        while len(sent) < n:
            cur = r.choice(chain[cur])
            sent.append(cur)
        return sent

    corpus = [walk(rng, *cfg.sentence_len) for _ in range(cfg.num_sentences)]
    # Every lexicon morpheme must be in the LM vocabulary: pad the corpus
    # with coverage sentences for morphemes the random walks never hit.
    seen = {tok for sent in corpus for tok in sent}
    missing = [m for m in morphemes if m not in seen]
    hi = max(cfg.sentence_len)
    while missing:
        chunk, missing = missing[:hi - 1], missing[hi - 1:]
        corpus.append([rng.choice(starts)] + chunk)
    utt_rng = random.Random(cfg.seed + 1)
    utterances = [(f"utt{i:04d}", walk(utt_rng, *cfg.utterance_len))
                  for i in range(cfg.num_utterances)]
    return SynthTask(lex, morphemes, chain, starts, corpus, utterances)


def synthesize_task(cfg: PipelineConfig, task: SynthTask,
                    phones: gb.SymbolTable) -> list[ac.AcousticMatrix]:
    """The cost matrix of each of the task's utterances, as
    ``run_pipeline`` decodes them: the phones of each morpheme's first
    pronunciation, numbered by the search graphs' phone table ``phones``,
    with ``cfg``'s noise and margin, utterance i seeded ``cfg.seed + 1000
    + i``."""
    matrices = []
    for i, (utt_id, morphs) in enumerate(task.utterances):
        ids = [phones.id_of(p) for m in morphs for p in task.lexicon.prons[m][0]]
        matrices.append(ac.synthesize_utterance(
            ids, len(phones) - 1, noise=cfg.noise, seed=cfg.seed + 1000 + i,
            margin=cfg.margin, utt_id=utt_id))
    return matrices


@dataclass
class UttResult:
    utt_id: str
    reference: list[str]
    hypothesis: list[str]
    cost: float


@dataclass
class StrategyResult:
    name: str
    utterances: list[UttResult] = field(default_factory=list)
    wer: float = 0.0
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    decode_seconds: float = 0.0
    audio_seconds: float = 0.0
    graph_arcs: int = 0
    peak_tokens: int = 0

    @property
    def rtf(self) -> float:
        return self.decode_seconds / self.audio_seconds if self.audio_seconds else 0.0


@dataclass
class DecodeReport:
    config: PipelineConfig
    strategies: dict[str, StrategyResult]
    sizes: list[metrics.SizeRow]
    stats: dec.RelayStats

    def size_ratio(self) -> Optional[float]:
        by_name = {r.name: r for r in self.sizes}
        if "HCLG4" not in by_name:
            return None
        denom = sum(by_name[n].arcs for n in ("HCLG3", "G3neg", "G4") if n in by_name)
        return by_name["HCLG4"].arcs / denom if denom else None

    def render(self, include_timing: bool = True) -> str:
        out = ["== decode report =="]
        for name in sorted(self.strategies):
            sr = self.strategies[name]
            for u in sr.utterances:
                words = " ".join(metrics.morphemes_to_words(u.hypothesis))
                out.append(f"{u.utt_id}\t{name}\t{words}\t{u.cost:.4f}")
        out.append("")
        out.append("== graph sizes ==")
        for row in self.sizes:
            out.append(f"{row.name}\tstates={row.states}\tarcs={row.arcs}\tbytes={row.bytes}")
        ratio = self.size_ratio()
        if ratio is not None:
            out.append(f"static/onthefly arc ratio: {ratio:.3f}")
        out.append("")
        out.append("== summary ==")
        for name in sorted(self.strategies):
            sr = self.strategies[name]
            out.append(f"wer[{name}]={sr.wer:.2f}")
            out.append(f"errors[{name}]=S{sr.substitutions}_I{sr.insertions}_D{sr.deletions}")
            out.append(f"graph_arcs[{name}]={sr.graph_arcs}")
            out.append(f"peak_tokens[{name}]={sr.peak_tokens}")
            if include_timing:
                out.append(f"rtf[{name}]={sr.rtf:.3f}")
        if ratio is not None:
            out.append(f"size_ratio={ratio:.6f}")
        out.append(f"relay_eps_output_matches={self.stats.eps_output_matches}")
        return "\n".join(out) + "\n"


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# Integer fields and their least values; the stages check what depends on
# more than one field (distinct pronunciations, at least 2 stems, branching
# <= num_morphemes, max_order <= order).
_INT_FIELDS = {"seed": 0, "num_sentences": 0, "num_utterances": 0,
               "num_morphemes": 1, "pron_len": 1, "num_phones": 1,
               "branching": 1, "order": 1, "max_order": 1}
_REAL_FIELDS = ("suffix_fraction", "prune_threshold", "noise", "margin")


def run_pipeline(cfg: PipelineConfig,
                 stats: Optional[dec.RelayStats] = None) -> DecodeReport:
    """Build LMs and graphs, decode every utterance per strategy, score.

    Malformed length ranges, strategy lists that are malformed, empty or
    repeat a name, unknown strategies, bad decode options, integer fields
    that are not integers or lie below their least values
    (``_INT_FIELDS``), task reals that are not non-negative numbers and a
    prune threshold outside (0, 1) raise ValueError before any stage runs.
    """
    for name, least in _INT_FIELDS.items():
        value = getattr(cfg, name)
        if type(value) is not int or value < least:
            kind = "positive" if least else "non-negative"
            raise ValueError(f"config {name} must be a {kind} integer, "
                             f"not {value!r}")
    for name in _REAL_FIELDS:
        value = getattr(cfg, name)
        if type(value) not in (int, float) or not value >= 0:
            raise ValueError(f"config {name} must be a non-negative number, "
                             f"not {value!r}")
    if not 0 < cfg.prune_threshold < 1:
        raise ValueError("config prune_threshold must lie in (0, 1), "
                         f"not {cfg.prune_threshold!r}")
    for name in ("sentence_len", "utterance_len"):
        span = getattr(cfg, name)
        if not (isinstance(span, (list, tuple)) and len(span) == 2 and
                all(type(n) is int for n in span) and span[0] <= span[1]):
            raise ValueError(f"config {name} must be two integers lo <= hi, "
                             f"not {span!r}")
    if not (isinstance(cfg.strategies, (list, tuple)) and cfg.strategies
            and all(isinstance(s, str) for s in cfg.strategies)
            and len(set(cfg.strategies)) == len(cfg.strategies)):
        raise ValueError("config strategies must be a non-empty list of "
                         f"distinct strategy names, not {cfg.strategies!r}")
    for strategy in cfg.strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one "
                             f"of {', '.join(STRATEGIES)}")
    opts = cfg.options()
    stats = stats if stats is not None else dec.RelayStats()
    task = _stage("generate", generate_task, cfg)
    g4 = _stage("lm-build", ngram.estimate_witten_bell, task.corpus, cfg.order)
    g3 = _stage("lm-prune", ngram.prune_to_small_lm, g4,
                cfg.prune_threshold, cfg.max_order)

    graphs = _stage("graph-build", build_graphs, task.lexicon, g4, g3,
                    cfg.strategies)
    matrices = _stage("synth", synthesize_task, cfg, task,
                      next(iter(graphs.values())).isyms)

    results: dict[str, StrategyResult] = {}
    for strategy in cfg.strategies:
        sr = StrategyResult(strategy)
        for (utt_id, ref_morphs), matrix in zip(task.utterances, matrices):
            t0 = time.perf_counter()
            try:
                lat = decode_utterance(strategy, graphs, matrix, opts, stats,
                                       utt_id)
                hyp, cost = dec.best_path(lat)
            except dec.DecodeError as exc:
                raise StageError(f"decode[{strategy}]", exc) from exc
            sr.decode_seconds += time.perf_counter() - t0
            sr.audio_seconds += matrix.num_frames * cfg.frame_shift_ms / 1000.0
            sr.peak_tokens = max(sr.peak_tokens, lat.peak_tokens)
            sr.utterances.append(UttResult(utt_id, list(ref_morphs), hyp, cost))
        sr.wer, sr.substitutions, sr.insertions, sr.deletions, _ = \
            metrics.corpus_wer((metrics.morphemes_to_words(u.reference),
                                metrics.morphemes_to_words(u.hypothesis))
                               for u in sr.utterances)
        searched = {"onthefly": ("HCLG3", "G3neg", "G4"), "static": ("HCLG4",),
                    "rescore": ("HCLG3",)}[strategy]
        sr.graph_arcs = sum(graphs[name].num_arcs for name in searched)
        results[strategy] = sr

    sizes = _stage("report", metrics.size_report, graphs)
    return DecodeReport(cfg, results, sizes, stats)

