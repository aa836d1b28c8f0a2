"""The builders of whole LMs, tasks and graphs run with the cyclic garbage
collector paused, leave it as they found it, and make no reference
cycles, so nothing they drop waits for a collection that never runs."""

import gc
import math
from contextlib import contextmanager

import pytest

from wfstdec import fst, graph as gb, ngram, pipeline
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
