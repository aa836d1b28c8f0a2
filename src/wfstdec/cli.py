"""Command-line interface: batch LM, graph, synthesis and decoding tools."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import acoustic as ac
from . import decoder as dec
from . import graph as gb
from . import metrics
from . import ngram
from . import pipeline
from .fst import FstError, SymbolTable, read_text_fst, write_text_fst


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


def cmd_lm_build(args) -> int:
    corpus = [line.split() for line in _read(args.corpus).splitlines() if line.strip()]
    model = ngram.estimate_witten_bell(corpus, args.order)
    _write(args.output, ngram.write_arpa(model))
    print(f"wrote {args.order}-gram model with "
          f"{sum(model.num_ngrams(n) for n in range(1, args.order + 1))} entries")
    return 0


def cmd_lm_prune(args) -> int:
    model = ngram.parse_arpa(_read(args.lm))
    small = ngram.prune_to_small_lm(model, args.prune_threshold, args.max_order)
    _write(args.output, ngram.write_arpa(small))
    return 0


def cmd_graph_build(args) -> int:
    model = ngram.parse_arpa(_read(args.lm))
    if args.lexicon:
        graph = gb.build_search_graph(gb.Lexicon.parse(_read(args.lexicon)), model)
    else:
        graph = gb.lm_to_fst(model)
    if args.negate:  # an LM graph: argparse refuses it with --lexicon
        graph = gb.negate_weights(graph)
    _write(args.output, write_text_fst(graph))
    if args.isymbols:
        _write(args.isymbols, graph.isyms.write_text())
    if args.osymbols:
        _write(args.osymbols, graph.osyms.write_text())
    print(f"graph: {graph.num_states} states, {graph.num_arcs} arcs")
    return 0


def cmd_synth(args) -> int:
    phone_syms = SymbolTable.read_text(_read(args.phone_symbols))
    phones = [phone_syms.id_of(p) for p in _read(args.phones).split()]
    m = ac.synthesize_utterance(phones, len(phone_syms) - 1,
                                noise=args.noise, seed=args.seed,
                                margin=args.margin, utt_id=args.utt_id)
    _write(args.output, ac.write_acoustic_text(m))
    return 0


def cmd_decode(args) -> int:
    try:
        opts = dec.DecodeOptions(**{f.name: getattr(args, f.name)
                                    for f in fields(dec.DecodeOptions)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    isyms = SymbolTable.read_text(_read(args.isymbols)) if args.isymbols else None
    osyms = SymbolTable.read_text(_read(args.osymbols)) if args.osymbols else None
    graph = read_text_fst(_read(args.graph), isyms, osyms)
    graph.arc_sort_input()
    matrix = ac.read_acoustic_text(_read(args.acoustic))
    graphs = {"HCLG4" if args.strategy == "static" else "HCLG3": graph}
    if args.strategy != "static":
        if not (args.g3neg and args.g4):
            print("error: --g3neg and --g4 are required for this strategy",
                  file=sys.stderr)
            return 2
        for name, path in (("G3neg", args.g3neg), ("G4", args.g4)):
            graphs[name] = read_text_fst(_read(path), osyms, osyms)
            graphs[name].arc_sort_input()
    lat = pipeline.decode_utterance(args.strategy, graphs, matrix, opts,
                                    utt_id=matrix.utt_id)
    hyp, cost = dec.best_path(lat)
    print(f"{matrix.utt_id}\t{' '.join(hyp)}\t{cost:.4f}")
    if args.lattice:
        comments = {s: f"frame {f}" for s, f in enumerate(lat.frames)}
        _write(args.lattice, write_text_fst(lat.fst, comments))
    return 0


def _utterances(text: str, kind: str, empty_ok: bool) -> dict:
    """A score input's tokens by utterance id, in line order; a line with
    an id and no tokens is refused unless ``empty_ok``."""
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        if line.strip():
            uid, *toks = line.split()
            if uid in out:
                raise ValueError(f"{kind} {uid} is given twice")
            if not toks and not empty_ok:
                raise ValueError(f"{kind} {uid} on line {ln} has no tokens")
            out[uid] = toks
    return out


def cmd_score(args) -> int:
    ref_text, hyp_text = _read(args.ref), _read(args.hyp)
    try:
        # An empty hypothesis is a valid answer (its words are deletions);
        # an empty reference has no words to score against.
        refs = _utterances(ref_text, "reference", empty_ok=False)
        hyps = _utterances(hyp_text, "hypothesis", empty_ok=True)
        for uid in hyps:
            if uid not in refs:
                raise ValueError(f"no reference for {uid}")
        for uid in refs:
            if uid not in hyps:
                raise ValueError(f"no hypothesis for {uid}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wer, s, i, d, total_ref = metrics.corpus_wer(
        (refs[uid], toks) for uid, toks in hyps.items())
    print(f"WER {wer:.2f}% ({s + i + d} errors / {total_ref} reference tokens)")
    return 0


def cmd_report(args) -> int:
    cfg = pipeline.PipelineConfig()
    if args.config:
        try:
            data = json.loads(_read(args.config))
        except json.JSONDecodeError as exc:
            print(f"error: config {args.config} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(data, dict):
            print(f"error: config {args.config} must hold a JSON object, "
                  f"not {type(data).__name__}", file=sys.stderr)
            return 2
        for key, value in data.items():
            if key not in {f.name for f in fields(cfg)}:
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return 2
            setattr(cfg, key, value)
    if args.strategy:
        cfg.strategies = tuple(args.strategy)
    try:
        report = pipeline.run_pipeline(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render(include_timing=not args.no_timing))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wfstdec",
        description="WFST toolkit and one-pass morpheme decoder")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = pipeline.PipelineConfig

    p = sub.add_parser("lm-build", help="estimate an ARPA model from a corpus")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--order", type=int, default=defaults.order)
    p.set_defaults(fn=cmd_lm_build)

    p = sub.add_parser("lm-prune", help="prune a big LM into a small LM")
    p.add_argument("lm")
    p.add_argument("output")
    p.add_argument("--prune-threshold", type=float, default=defaults.prune_threshold)
    p.add_argument("--max-order", type=int, default=defaults.max_order)
    p.set_defaults(fn=cmd_lm_prune)

    p = sub.add_parser("graph-build", help="compile LM (and lexicon) into a WFST")
    p.add_argument("--lm", required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--lexicon")
    kind.add_argument("--negate", action="store_true",
                      help="negate the LM graph's weights (no lexicon)")
    p.add_argument("--isymbols")
    p.add_argument("--osymbols")
    p.add_argument("output")
    p.set_defaults(fn=cmd_graph_build)

    p = sub.add_parser("synth", help="synthesize an acoustic cost matrix")
    p.add_argument("phones", help="file with a space-separated phone sequence")
    p.add_argument("phone_symbols")
    p.add_argument("output")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=ac.DEFAULT_MARGIN)
    p.add_argument("--utt-id", default="utt0")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("decode", help="decode one utterance")
    p.add_argument("--strategy", choices=pipeline.STRATEGIES,
                   default="onthefly")
    p.add_argument("--graph", required=True)
    p.add_argument("--g3neg")
    p.add_argument("--g4")
    p.add_argument("--acoustic", required=True)
    p.add_argument("--isymbols")
    p.add_argument("--osymbols")
    p.add_argument("--lattice", help="write the output lattice here")
    for f in fields(dec.DecodeOptions):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("score", help="score hypothesis file against references")
    p.add_argument("hyp")
    p.add_argument("--ref", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("report", help="run the three-strategy comparison")
    p.add_argument("--config", help="JSON file of PipelineConfig overrides")
    p.add_argument("--strategy", action="append",
                   choices=pipeline.STRATEGIES)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (pipeline.StageError, FstError, ngram.NGramError, gb.GraphError,
            ac.AcousticError, dec.DecodeError, metrics.MetricsError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
