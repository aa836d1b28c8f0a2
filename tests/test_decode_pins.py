"""Pinned decode outputs of the default task, for every strategy.

Any change of hypothesis, cost, token count, lattice or relay counter in
a rewrite of the search shows here.  Each strategy's utterances are
summarised as one line per utterance, in three parts pinned by separate
digests: the hypothesis and the repr of its cost, which must not move;
the lattice states and arcs and the SHA-256 of the lattice text, which
move when the search keeps fewer paths; and the peak tokens, which move
when the frame step makes fewer tokens that pruning drops.

The hypothesis digests, and every figure of ``static``, were taken from
the search loop before its tokens were keyed by integer states.  The
on-the-fly and rescoring token and lattice figures were re-pinned when
both stopped expanding paths that back off past a context listing their
morpheme: fewer tokens and lattice arcs, the same hypotheses and costs.
The rescoring lattice figures were re-pinned again when rescoring began
to drop states left on no successful path: its lattices now have the
on-the-fly totals, with the same hypotheses, costs and peak tokens.
The two ``static`` lattice SHA-256 figures were re-pinned when lattices
came to be built by a backward search from the final tokens, which emits
each state's arcs ordered by target state: the arc order moved, with the
same arcs (equal sorted lattice text lines), states, frames, hypotheses
and costs.  The on-the-fly and rescoring lattice texts did not change.
The three peak-token figures, and so the three digests, were re-pinned
when the frame step began to skip arrivals beyond its running cutoff at
states without epsilon-input arcs: the max peak tokens fell from 50, 56
and 54 to 42, 46 and 46, while the hypotheses, costs, lattice states,
arcs and texts (totals 1739/1719 and 2922/3589), relay counters and the
wide-open figures did not move.
The lattice figures and the peak tokens were then split into two digests,
and only the peak-token digests were re-pinned when the frame step's
cutoff moved to the beam, setting aside the arrivals within the lattice
beam beyond it: the max peak tokens fell from 42, 46 and 46 to 8, 10
and 8, while the hypotheses, costs, lattice digests, relay counters and
the wide-open figures did not move.
The on-the-fly peak tokens were re-pinned again when the frame step began
to read HCLG3's back-off arcs as failure transitions, making no token at a
back-off state: the max peak tokens fell from 8 to 7 and the wide-open
peak from 922 to 324, while the hypotheses, costs, lattice digests and
relay counters did not move.
"""

import dataclasses
import hashlib

import pytest

from wfstdec import decoder as dec
from wfstdec.fst import write_text_fst
from wfstdec.pipeline import (PipelineConfig, build_graphs, decode_utterance,
                              synthesize_task)

# strategy -> digest of the per-utterance (hypothesis, repr(cost)) lines.
HYPOTHESES = dict.fromkeys(
    ("onthefly", "static", "rescore"),
    "30e7357b0c9a193e8af899b6e556c400f6efc3ef1941d540b8ed95ca742d43c1")
# strategy -> (digest of the per-utterance (lattice states, lattice arcs,
#              lattice SHA-256) lines, total lattice states, total lattice
#              arcs)
DEFAULT_TASK = {
    "onthefly": ("b604bf971796a78b75f13d787c0c9b80af4d39f7477f90530e9ebc3a0759b928",
                 1739, 1719),
    "static": ("24b115022c8d680afce75c27947d70442eb712f79f470e7aa09e2706422a454f",
               2922, 3589),
    "rescore": ("b604bf971796a78b75f13d787c0c9b80af4d39f7477f90530e9ebc3a0759b928",
                1739, 1719),
}
# strategy -> (digest of the per-utterance peak-token lines, max peak tokens)
PEAK_TOKENS = {
    "onthefly": ("728b135a32b5cc7295bfa5ef7ca63323888db79b78f764c51e4f06c619d515ff",
                 7),
    "static": ("452fc4c5ef6f65d809283b9fa9439e6c932b1e4d6d72e060c75491613bd738a1",
               10),
    "rescore": ("608b3113619adc7322bb16fec59cda624723c32cd051852523fafcf3d53f7e0e",
                8),
}
# Relay counters of the on-the-fly and rescoring decodes of the default
# task on cold graphs, in RelayStats field order; a warm repeat adds 0.
COLD_RELAYS = {"onthefly": (0, 38773, 38773, 0), "rescore": (0, 0, 0, 0)}
# utt0000 decoded with pruning off (beam 1e9), after the rescoring decodes
# above warmed the memo: strategy -> (hypothesis, repr(cost), peak tokens,
# lattice states, lattice arcs, lattice SHA-256, *relay counters).
WIDE_HYP = ("hga uol +dkh +bkb bin fmi aec aec aec hga +kuh ufm uci ggc odh "
            "+hel +nmb bic bga ndb +bkb bin oeg +dkh bdg eef bga")
WIDE_OPEN = {
    "onthefly": (WIDE_HYP, "28.94009033785824", 324, 82, 81,
                 "5fd0e16e56902e0474218b20c58e6edb7eeeda51cd66041deaa7abb668a98c80",
                 0, 69146, 69146, 0),
    "static": (WIDE_HYP, "28.94009033785824", 468, 153, 187,
               "7bde4abf29c054693d0cd81066f24b80bfab1a0f3366d694349cebe756ee0a25",
               0, 0, 0, 0),
    "rescore": (WIDE_HYP, "28.94009033785824", 195, 82, 81,
                "5fd0e16e56902e0474218b20c58e6edb7eeeda51cd66041deaa7abb668a98c80",
                0, 0, 0, 0),
}


def _setup(task_models, cfg):
    task, g4, g3 = task_models
    graphs = build_graphs(task.lexicon, g4, g3)
    return graphs, synthesize_task(cfg, task, graphs["HCLG3"].isyms)


def _summary(lat):
    hyp, cost = dec.best_path(lat)
    text = write_text_fst(lat.fst)
    return (" ".join(hyp), repr(cost), lat.peak_tokens, lat.fst.num_states,
            lat.fst.num_arcs, hashlib.sha256(text.encode()).hexdigest())


def _relays(stats):
    return tuple(getattr(stats, f.name) for f in dataclasses.fields(stats))


def _decode_default_task(task_models):
    """Per-strategy utterance summaries and cold and warm relay counters,
    plus the wide-open summaries."""
    cfg = PipelineConfig()
    opts = cfg.options()
    out = {}
    for strategy in DEFAULT_TASK:
        g, matrices = _setup(task_models, cfg)  # graphs never decoded: a cold memo
        cold, warm = dec.RelayStats(), dec.RelayStats()
        rows = [_summary(decode_utterance(strategy, g, m, opts, cold, m.utt_id))
                for m in matrices]
        for m in matrices:
            decode_utterance(strategy, g, m, opts, warm, m.utt_id)
        out[strategy] = (rows, cold, warm)
    wide = dataclasses.replace(opts, beam=1e9, max_active=10 ** 9)
    out["wide"] = {}
    for strategy in WIDE_OPEN:
        stats = dec.RelayStats()
        lat = decode_utterance(strategy, g, matrices[0], wide, stats)
        out["wide"][strategy] = _summary(lat) + _relays(stats)
    return out


@pytest.fixture(scope="module")
def default_task(task_models):
    return _decode_default_task(task_models)


def _digest(rows):
    lines = "".join("\t".join(map(str, r)) + "\n" for r in rows)
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize("strategy", sorted(HYPOTHESES))
def test_default_task_hypotheses_are_pinned(default_task, strategy):
    rows, _, _ = default_task[strategy]
    assert _digest(r[:2] for r in rows) == HYPOTHESES[strategy]


@pytest.mark.parametrize("strategy", sorted(DEFAULT_TASK))
def test_default_task_decodes_are_pinned(default_task, strategy):
    rows, _, _ = default_task[strategy]
    got = (_digest(r[3:] for r in rows), sum(r[3] for r in rows),
           sum(r[4] for r in rows))
    assert got == DEFAULT_TASK[strategy]


@pytest.mark.parametrize("strategy", sorted(PEAK_TOKENS))
def test_default_task_peak_tokens_are_pinned(default_task, strategy):
    rows, _, _ = default_task[strategy]
    assert (_digest(r[2:3] for r in rows), max(r[2] for r in rows)) \
        == PEAK_TOKENS[strategy]


@pytest.mark.parametrize("strategy", sorted(COLD_RELAYS))
def test_relay_counters_are_pinned(default_task, strategy):
    _, cold, warm = default_task[strategy]
    assert _relays(cold) == COLD_RELAYS[strategy]
    assert warm == dec.RelayStats()


@pytest.mark.parametrize("strategy", sorted(WIDE_OPEN))
def test_wide_open_decode_is_pinned(default_task, strategy):
    assert default_task["wide"][strategy] == WIDE_OPEN[strategy]


def test_onthefly_and_rescore_costs_are_equal(default_task):
    # Rescoring weighs each morpheme arc of a lattice as the on-the-fly
    # frame step weighs its station row, so where every best-path phone
    # costs 0, as on the noise-free default task, the two strategies give
    # each utterance the same float cost, not merely a close one.  Here G3
    # keeps G4's weights and the sums cancel exactly in any order, so the
    # order itself is checked on hand-built weights in test_decoder.py
    # (test_onthefly_and_rescore_sum_each_arc_in_one_order).
    onthefly, rescore = ([float(r[1]) for r in default_task[s][0]]
                         for s in ("onthefly", "rescore"))
    assert onthefly == rescore
    assert len(onthefly) == PipelineConfig().num_utterances
