"""The builders of whole LMs, tasks and graphs, and the decoders, run
with the cyclic garbage collector paused, leave it as they found it, and
make no reference cycles, so nothing they drop waits for a collection
that never runs."""

import gc
import math
from contextlib import contextmanager

import numpy as np
import pytest

from wfstdec import decoder as dec, fst, graph as gb, ngram, pipeline
from wfstdec.acoustic import AcousticMatrix
from wfstdec.fst import FstError, ParseError, read_text_fst, write_text_fst
from wfstdec.graph import GraphError, Lexicon
from wfstdec.ngram import EOS
from wfstdec.pipeline import PipelineConfig

from conftest import MINI_LEXICON_TEXT


@pytest.fixture(scope="module")
def task(task_models):
    """The default task, its two LMs and its four graphs."""
    t, g4, g3 = task_models
    return t, g4, g3, pipeline.build_graphs(t.lexicon, g4, g3)


# Each paused builder, called on the default task: large enough that the
# same call unpaused starts at least one collection.
BUILDERS = {
    "generate_task": lambda t, g4, g3, gs: pipeline.generate_task(PipelineConfig()),
    "estimate_witten_bell": lambda t, g4, g3, gs: ngram.estimate_witten_bell(t.corpus, 4),
    "prune_to_small_lm": lambda t, g4, g3, gs: ngram.prune_to_small_lm(g4, 1e-5),
    "parse_arpa": lambda t, g4, g3, gs: ngram.parse_arpa(ngram.write_arpa(g4)),
    "lm_to_fst": lambda t, g4, g3, gs: gb.lm_to_fst(g4, gs["G4"].isyms),
    "negate_weights": lambda t, g4, g3, gs: gb.negate_weights(gs["G4"]),
    "compose_standard": lambda t, g4, g3, gs: gb.compose_standard(
        gb.compile_lexicon(t.lexicon, gs["HCLG3"].isyms, gs["G4"].isyms), gs["G4"]),
    "build_search_graph": lambda t, g4, g3, gs: gb.build_search_graph(
        t.lexicon, g3, None, gs["G4"].isyms),
    "connect": lambda t, g4, g3, gs: fst.connect(gs["HCLG4"]),
    "read_text_fst": lambda t, g4, g3, gs: read_text_fst(write_text_fst(gs["G4"])),
}


@contextmanager
def collections_started():
    """The generation of each collection that starts inside the block."""
    started: list[int] = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_pauses_the_collector_and_turns_it_back_on(task, name):
    with collections_started() as started:
        BUILDERS[name](*task)
    assert started == []
    assert gc.isenabled()


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_leaves_a_paused_collector_paused(task, name):
    gc.disable()
    try:
        BUILDERS[name](*task)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _nan_final_model():
    # P(</s> | a) backs off through bow(a) = +inf to log10 P(</s>) = -inf.
    model = ngram.NGramModel(2)
    model.add_entry(("a",), -0.5, math.inf)
    model.add_entry((EOS,), -math.inf)
    model.add_entry(("a", "a"), -0.1)
    return model


FAILING = {
    "build_search_graph": (GraphError, lambda mini: gb.build_search_graph(
        Lexicon.parse(MINI_LEXICON_TEXT + "zzz\tz z\n"), mini)),
    "lm_to_fst": (FstError, lambda mini: gb.lm_to_fst(_nan_final_model())),
    "read_text_fst": (ParseError, lambda mini: read_text_fst("0 1 1 1 0.5\n1 nan\n")),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", FAILING)
def test_error_leaves_the_collector_as_it_was(mini_model, name, enabled):
    error, call = FAILING[name]
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(error):
            call(mini_model)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def _set_up_default_task():
    """Everything the default task's set-up builds, then dropped."""
    task = pipeline.generate_task(PipelineConfig())
    g4 = ngram.estimate_witten_bell(task.corpus, 4)
    g3 = ngram.prune_to_small_lm(g4, 1e-5, 3)
    graphs = pipeline.build_graphs(task.lexicon, g4, g3)
    for g in graphs.values():
        read_text_fst(write_text_fst(g), g.isyms, g.osyms)


def test_builders_make_no_reference_cycles():
    """With the collector off throughout, set-up leaves no unreachable
    objects: all it builds is freed by reference counting once dropped."""
    gc.collect()
    gc.disable()
    try:
        _set_up_default_task()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the decoders ------------------------------------------------------------

@pytest.fixture(scope="module")
def matrix(task):
    """The cost matrix of the default task's first utterance."""
    t, _, _, gs = task
    return pipeline.synthesize_task(PipelineConfig(), t, gs["HCLG3"].isyms)[0]


# Each paused decoder call on the default task's first utterance, made
# from the graphs, the matrix and the first-pass lattices it reads, which
# are made before the call.
DECODERS = {
    "decode_onthefly": lambda gs, m, lats: dec.decode_onthefly(
        gs["HCLG3"], gs["G3neg"], gs["G4"], m),
    "decode_static": lambda gs, m, lats: dec.decode_static(gs["HCLG4"], m),
    "rescore_lattice": lambda gs, m, lats: dec.rescore_lattice(
        lats["HCLG3"], gs["G3neg"], gs["G4"]),
    "best_path": lambda gs, m, lats: dec.best_path(lats["HCLG4"]),
}


@pytest.fixture(scope="module")
def decoded(task, matrix):
    """The graphs, the matrix and the static lattices over HCLG3 and
    HCLG4; every decoder has run once, so the calls below are warm."""
    gs = task[3]
    lats = {k: dec.decode_static(gs[k], matrix) for k in ("HCLG3", "HCLG4")}
    for call in DECODERS.values():
        call(gs, matrix, lats)
    return gs, matrix, lats


@contextmanager
def young_threshold(threshold):
    """Collections start after ``threshold`` allocations, not 700, inside
    the block, and the count starts at 0.  A one-utterance call on the
    default task allocates more than 100 containers but fewer than 700;
    the entry points' own work before the pause (an argument tuple, the
    search space) allocates under 20."""
    old = gc.get_threshold()
    gc.collect()
    gc.set_threshold(threshold, *old[1:])
    try:
        yield
    finally:
        gc.set_threshold(*old)


@pytest.mark.parametrize("name", DECODERS)
def test_decoder_pauses_the_collector_and_turns_it_back_on(decoded, name):
    with young_threshold(100), collections_started() as started:
        DECODERS[name](*decoded)
    assert started == []
    assert gc.isenabled()


@pytest.mark.parametrize("name", DECODERS)
def test_decoder_leaves_a_paused_collector_paused(decoded, name):
    gc.disable()
    try:
        DECODERS[name](*decoded)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _empty_lattice():
    return dec.Lattice(fst.Fst(), [])


FAILING_DECODES = {
    # One phone's costs, where HCLG4 reads more: DecodeError.
    "decode_static": (dec.DecodeError, lambda gs: dec.decode_static(
        gs["HCLG4"], AcousticMatrix("u", np.zeros((2, 1))))),
    # One frame ends inside every pronunciation, so no token reaches a
    # final state: EmptyResultError.
    "decode_onthefly": (dec.EmptyResultError, lambda gs: dec.decode_onthefly(
        gs["HCLG3"], gs["G3neg"], gs["G4"],
        AcousticMatrix("u", np.zeros((1, len(gs["HCLG3"].isyms) - 1))))),
    "rescore_lattice": (dec.EmptyResultError, lambda gs: dec.rescore_lattice(
        _empty_lattice(), gs["G3neg"], gs["G4"])),
    "best_path": (dec.EmptyResultError,
                  lambda gs: dec.best_path(_empty_lattice())),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", FAILING_DECODES)
def test_decode_error_leaves_the_collector_as_it_was(task, name, enabled):
    error, call = FAILING_DECODES[name]
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(error):
            call(task[3])
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("strategy", ["onthefly", "static", "rescore"])
def test_warm_decode_makes_no_reference_cycles(decoded, strategy):
    """With the collector off throughout, a warm decode and its best path
    leave no unreachable objects once the lattice is dropped."""
    gs, m, _ = decoded
    opts = PipelineConfig().options()
    dec.best_path(pipeline.decode_utterance(strategy, gs, m, opts))
    gc.collect()
    gc.disable()
    try:
        dec.best_path(pipeline.decode_utterance(strategy, gs, m, opts))
        assert gc.collect() == 0
    finally:
        gc.enable()
