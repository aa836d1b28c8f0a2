"""The benchmark's stage sequence over wfstdec's public API.

Set-up and decoding call the same public functions, in the same order, as
``wfstdec.pipeline.run_pipeline``; a one-shot decode is a real in-process
``wfstdec.cli.main(["decode", ...])`` call.  Every decoded utterance is
checked against an analytic score that does not go through any WFST.
"""

from __future__ import annotations

import contextlib
import gc
import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from wfstdec import acoustic as ac
from wfstdec import cli
from wfstdec import decoder as dec
from wfstdec import fst
from wfstdec import graph as gb
from wfstdec import metrics
from wfstdec import ngram
from wfstdec import pipeline as pl

GRAPH_NAMES = ("HCLG3", "G3neg", "G4", "HCLG4")
ORACLE_TOL = 1e-6
PARITY_TOL = 1e-9
# The CLI prints 4 decimals and reads graphs written with 12 significant
# digits and acoustic costs written with 6 decimals, so its cost may sit
# up to one unit of the last printed digit away from the in-memory decode.
CLI_TOL = 1e-4


@dataclass
class Setup:
    """Everything ``run_pipeline`` builds before its first decode."""

    cfg: pl.PipelineConfig
    task: pl.SynthTask
    g4: ngram.NGramModel
    g3: ngram.NGramModel
    graphs: dict            # GRAPH_NAMES -> Fst
    matrices: list          # AcousticMatrix per utterance
    timer: object           # clock.Stopwatch over the set-up stages
    order: list             # the utterances to decode, in the seed's order

    @property
    def phone_syms(self):
        return self.graphs["HCLG3"].isyms

    def audio_seconds(self, i: int) -> float:
        return self.matrices[i].num_frames * self.cfg.frame_shift_ms / 1000.0


def set_up(cfg: pl.PipelineConfig, order: list[int], tracer, clock) -> Setup:
    sw = clock.stopwatch()   # a segment per stage keeps each scaling local
    with sw:
        task = pl.generate_task(cfg)
    with sw:
        g4 = ngram.estimate_witten_bell(task.corpus, cfg.order)
    with sw:
        g3 = ngram.prune_to_small_lm(g4, cfg.prune_threshold, cfg.max_order)
        syms = gb.make_morpheme_symbols(g4, with_hash=True)
    graphs = {}
    with sw, tracer.span("bench.build.HCLG3"):
        graphs["HCLG3"] = gb.build_search_graph(task.lexicon, g3, None, syms)
    phone_syms = graphs["HCLG3"].isyms
    with sw, tracer.span("bench.build.G3neg"):
        graphs["G3neg"] = gb.negate_weights(
            gb.lm_to_fst(g3, syms, mode=gb.BACKOFF_EPS))
    with sw, tracer.span("bench.build.G4"):
        graphs["G4"] = gb.lm_to_fst(g4, syms, gb.BACKOFF_EPS)
    with sw, tracer.span("bench.build.HCLG4"):
        graphs["HCLG4"] = gb.build_search_graph(task.lexicon, g4, phone_syms, syms)
    matrices = []
    with sw:
        for i, (utt_id, morphs) in enumerate(task.utterances):
            phone_ids = [phone_syms.id_of(p)
                         for m in morphs for p in task.lexicon.prons[m][0]]
            matrices.append(ac.synthesize_utterance(
                phone_ids, len(phone_syms) - 1,
                frames_per_phone=cfg.frames_per_phone, noise=cfg.noise,
                seed=cfg.seed + 1000 + i, margin=cfg.margin, utt_id=utt_id))
    return Setup(cfg, task, g4, g3, graphs, matrices, sw, order)


def copy_graph(g: fst.Fst) -> fst.Fst:
    """A new Fst with the same states, arcs, finals and symbol tables, made
    through the public Fst API.  The decoder memoizes expansions on, and
    keyed by, the graph objects, so a copy of graphs never decoded is as
    cold as freshly built ones."""
    out = fst.Fst(g.isyms, g.osyms)
    out.add_states(g.num_states)
    for state in g.states():
        for arc in g.arcs(state):
            out.add_arc(state, arc)
    for state, weight in g.finals.items():
        out.set_final(state, weight)
    out.set_initial(g.initial)
    if g.input_sorted:
        out.arc_sort_input()
    return out


def fresh_graphs(s: Setup) -> Setup:
    """The set-up on copies of its graphs, for one more cold pass without
    another set-up."""
    return replace(s, graphs={k: copy_graph(g) for k, g in s.graphs.items()})


# -- analytic oracle -------------------------------------------------------

def analytic_cost(s: Setup, i: int, hyp: list[str]) -> Optional[float]:
    """Cost of ``hyp`` on utterance ``i`` without any WFST: the acoustic
    cost along its only alignment plus the big LM's back-off score.

    With one pronunciation per morpheme and a fixed number of frames per
    phone, a hypothesis aligns to the frames in exactly one way; None
    means its phones do not fill the utterance.
    """
    m = s.matrices[i]
    fpp = s.cfg.frames_per_phone
    ids = [s.phone_syms.id_of(p) for w in hyp for p in s.task.lexicon.prons[w][0]]
    if len(ids) * fpp != m.num_frames:
        return None
    cols = np.repeat(np.array(ids, dtype=np.int64) - 1, fpp)
    acoustic = s.cfg.acoustic_scale * float(m.costs[np.arange(m.num_frames), cols].sum())
    return acoustic + gb.cost_from_log10(ngram.score_sentence(s.g4, hyp))


# -- decoding ----------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    strategy: str
    utt_id: str
    kind: str        # "raised", "oracle", "path", "cold", "cli" or "parity"
    detail: str


@dataclass
class Decoded:
    hyp: list[str]
    cost: float
    peak_tokens: int
    lattice_states: int
    lattice_arcs: int
    timer: object = None    # clock.Stopwatch over decode plus best_path


@dataclass
class Pass:
    """One decode of every utterance with every strategy."""

    kind: str                                   # "cold" or "warm"
    audio: list                                 # seconds per utterance, in order
    results: dict = field(default_factory=dict)  # strategy -> [Decoded|None]
    stats: dec.RelayStats = field(default_factory=dec.RelayStats)
    failures: list = field(default_factory=list)  # Failure records

    def rtf(self, strategy: str, raw: bool = False) -> float:
        """Decode plus best_path time (normalised, or wall with ``raw``)
        over audio time, summed over the utterances that decoded."""
        pairs = [(d, a) for d, a in zip(self.results[strategy], self.audio)
                 if d is not None]
        return (sum(d.timer.raw if raw else d.timer.norm for d, _ in pairs)
                / sum(a for _, a in pairs))


def decode_one(s: Setup, strategy: str, i: int, stats: dec.RelayStats) -> Decoded:
    """One utterance, exactly as ``run_pipeline`` decodes it."""
    g = s.graphs
    opts = s.cfg.options()
    utt_id = s.task.utterances[i][0]
    matrix = s.matrices[i]
    if strategy == "onthefly":
        lat = dec.decode_onthefly(g["HCLG3"], g["G3neg"], g["G4"], matrix,
                                  opts, stats, utt_id=utt_id)
    elif strategy == "static":
        lat = dec.decode_static(g["HCLG4"], matrix, opts, utt_id=utt_id)
    else:
        first = dec.decode_static(g["HCLG3"], matrix, opts, utt_id=utt_id)
        lat = dec.rescore_lattice(first, g["G3neg"], g["G4"], stats)
        lat.peak_tokens = first.peak_tokens
    hyp, cost = dec.best_path(lat)
    return Decoded(hyp, cost, lat.peak_tokens, lat.fst.num_states, lat.fst.num_arcs)


def run_pass(s: Setup, kind: str, tracer, clock) -> Pass:
    p = Pass(kind, [s.audio_seconds(i) for i in s.order])
    with tracer.span(f"bench.pass.{kind}"):
        for strategy in s.cfg.strategies:
            got = p.results[strategy] = []
            # A full collection here, untimed, makes the collector's work
            # inside a strategy's decodes independent of what ran before.
            gc.collect()
            with tracer.span(f"bench.strategy.{strategy}"):
                for i in s.order:
                    utt_id = s.task.utterances[i][0]
                    tracer.utt = utt_id
                    timer = clock.stopwatch()
                    try:
                        with timer, tracer.span("bench.utt"):
                            d = decode_one(s, strategy, i, p.stats)
                    except dec.DecodeError as exc:
                        p.failures.append(Failure(strategy, utt_id, "raised", str(exc)))
                        got.append(None)
                        continue
                    finally:
                        tracer.utt = None
                    d.timer = timer
                    got.append(d)
                    want = analytic_cost(s, i, d.hyp)
                    if want is None:
                        p.failures.append(Failure(strategy, utt_id, "oracle",
                                                  "hypothesis does not fill the frames"))
                    elif abs(d.cost - want) > ORACLE_TOL:
                        p.failures.append(Failure(strategy, utt_id, "oracle",
                                                  f"cost {d.cost!r} != analytic {want!r}"))
    if s.cfg.beam >= 1e9 and {"onthefly", "static"} <= set(p.results):
        # Wide open, the one-pass and the static graph search the same
        # space, so their best paths must be identical.
        for i, a, b in zip(s.order, p.results["onthefly"], p.results["static"]):
            if a is not None and b is not None and a.hyp != b.hyp:
                p.failures.append(Failure("onthefly", s.task.utterances[i][0],
                                          "path", "best path differs from static"))
    return p


def check_repeat(s: Setup, first: Pass, p: Pass) -> list[Failure]:
    """Failures where a cold pass on copied graphs differs from the first
    cold pass, on the graphs as built: other results, or other relay memo
    misses, which would mean that the copies were not cold."""
    out = []
    if p.stats != first.stats:
        out.append(Failure("onthefly", "-", "cold",
                           f"relay counters {p.stats} != first cold pass {first.stats}"))
    for strategy, got in p.results.items():
        for i, a, b in zip(s.order, first.results[strategy], got):
            if (a is None) != (b is None) or (
                    a is not None and (a.hyp, a.cost) != (b.hyp, b.cost)):
                out.append(Failure(strategy, s.task.utterances[i][0], "cold",
                                   "differs from the first cold pass"))
    return out


def word_accuracy(s: Setup, p: Pass, strategy: str) -> float:
    """100 - WER, scored the way ``run_pipeline`` scores a strategy."""
    errors = ref_words = 0
    for i, d in zip(s.order, p.results[strategy]):
        ref_w = metrics.morphemes_to_words(s.task.utterances[i][1])
        hyp_w = metrics.morphemes_to_words(d.hyp) if d is not None else []
        _, sub, ins, dele = metrics.wer_score(ref_w, hyp_w)
        errors += sub + ins + dele
        ref_words += len(ref_w)
    return 100.0 - 100.0 * errors / ref_words


# -- files and one-shot CLI calls ------------------------------------------

def write_files(s: Setup, workdir: Path) -> dict[str, Path]:
    """The graph, symbol and acoustic files a CLI user decodes from."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, g in s.graphs.items():
        files[name] = workdir / f"{name}.fst"
        files[name].write_text(fst.write_text_fst(g))
    files["phones"] = workdir / "phones.syms"
    files["phones"].write_text(s.phone_syms.write_text())
    files["morphs"] = workdir / "morphs.syms"
    files["morphs"].write_text(s.graphs["HCLG3"].osyms.write_text())
    for m in (s.matrices[i] for i in s.order):
        files[m.utt_id] = workdir / f"{m.utt_id}.ac"
        files[m.utt_id].write_text(ac.write_acoustic_text(m))
    return files


def cli_argv(s: Setup, files: dict, strategy: str, i: int) -> list[str]:
    cfg = s.cfg
    graph = files["HCLG4" if strategy == "static" else "HCLG3"]
    argv = ["decode", "--strategy", strategy, "--graph", str(graph),
            "--isymbols", str(files["phones"]), "--osymbols", str(files["morphs"]),
            "--acoustic", str(files[s.task.utterances[i][0]]),
            "--beam", repr(cfg.beam), "--max-active", str(cfg.max_active),
            "--lattice-beam", repr(cfg.lattice_beam),
            "--acoustic-scale", repr(cfg.acoustic_scale)]
    if strategy != "static":
        argv += ["--g3neg", str(files["G3neg"]), "--g4", str(files["G4"])]
    return argv


def oneshot(argv: list[str], clock) -> tuple[int, str, object]:
    """One in-process CLI call: (exit code, printed text, its Stopwatch)."""
    out = io.StringIO()
    timer = clock.stopwatch()
    with contextlib.redirect_stdout(out), timer:
        rc = cli.main(argv)
    return rc, out.getvalue(), timer


def check_cli_line(rc: int, text: str, utt_id: str, want: Optional[Decoded]
                   ) -> Optional[str]:
    """None when the CLI printed the in-process result, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if want is None:
        return "no in-process result to compare with"
    fields = text.rstrip("\n").split("\t")
    if len(fields) != 3 or fields[0] != utt_id:
        return f"unexpected output {text!r}"
    if fields[1].split() != want.hyp:
        return f"hypothesis {fields[1]!r} != in-process {' '.join(want.hyp)!r}"
    if abs(float(fields[2]) - want.cost) > CLI_TOL:
        return f"cost {fields[2]} != in-process {want.cost:.4f}"
    return None


# -- parity with the shipped pipeline ----------------------------------------

def pipeline_parity(cfg: pl.PipelineConfig, order: list[int], cold: Pass
                    ) -> tuple[int, list]:
    """(decodes compared, failures) where ``run_pipeline`` disagrees with
    the benchmark's own cold pass over the same config: hypotheses must be
    equal and costs within 1e-9."""
    report = pl.run_pipeline(cfg)
    out = []
    compared = 0
    for strategy in cfg.strategies:
        ran = report.strategies[strategy].utterances
        compared += len(order)
        for u, d in zip((ran[i] for i in order), cold.results[strategy]):
            if d is None or u.hypothesis != d.hyp or abs(u.cost - d.cost) > PARITY_TOL:
                out.append(Failure(strategy, u.utt_id, "parity",
                                   "differs from run_pipeline"))
    return compared, out
