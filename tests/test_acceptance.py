"""Acceptance gate: one test per shipping criterion.

Each test exercises the system at a stated scale and tolerance and records a
one-line PASS/FAIL verdict that the terminal reporter prints after the run.
"""

import dataclasses
import random
import time
from contextlib import contextmanager

import pytest

from wfstdec.decoder import RelayStats, relay_final, relay_match
from wfstdec.graph import (
    BACKOFF_EPS,
    acceptor_sentence_cost,
    cost_from_log10,
    lm_to_fst,
    make_morpheme_symbols,
    negate_weights,
)
from wfstdec.metrics import wer_score
from wfstdec.ngram import (
    EOS,
    estimate_witten_bell,
    prune_to_small_lm,
    score_sentence,
)
from wfstdec.pipeline import (PipelineConfig, build_graphs, generate_task,
                              run_pipeline)

from test_graph import context_states


@contextmanager
def criterion(record, number, description):
    try:
        yield
    except BaseException:
        record(f"criterion {number}: FAIL — {description}")
        raise
    record(f"criterion {number}: PASS — {description}")


# -- shared expensive fixtures ---------------------------------------------

WIDE_OPEN = dataclasses.replace(
    PipelineConfig(), num_utterances=200, beam=1e9, max_active=10 ** 9,
    lattice_beam=0.5, strategies=("onthefly", "static"))


@pytest.fixture(scope="session")
def wide_open_run():
    """200 zero-noise utterances decoded with pruning disabled, both the
    one-pass ternary strategy and the fully composed static graph."""
    stats = RelayStats()
    t0 = time.perf_counter()
    report = run_pipeline(WIDE_OPEN, stats)
    return report, stats, time.perf_counter() - t0


def _random_sentences(model, count, seed):
    words = sorted(w for w in model.events() if w != EOS)
    rng = random.Random(seed)
    return [[rng.choice(words) for _ in range(rng.randint(3, 8))]
            for _ in range(count)]


# -- criteria ---------------------------------------------------------------

def test_criterion_1_onthefly_matches_static_everywhere(wide_open_run,
                                                        criterion_record):
    report, _, elapsed = wide_open_run
    with criterion(criterion_record, 1,
                   "one-pass ternary decoding reproduces the static big-LM "
                   "graph on 200 utterances (paths identical, costs to 1e-4)"):
        otf = report.strategies["onthefly"].utterances
        sta = report.strategies["static"].utterances
        assert len(otf) == len(sta) == 200
        for a, b in zip(otf, sta):
            assert a.utt_id == b.utt_id
            assert a.hypothesis == b.hypothesis
            assert a.cost == pytest.approx(b.cost, abs=1e-4)
        assert report.strategies["onthefly"].wer == 0.0
        assert report.strategies["static"].wer == 0.0
    criterion_record(f"criterion 1: info — 200/200 paths identical, "
                     f"{elapsed:.0f}s wall")


def _random_model(seed):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(10)]
    corpus = [[rng.choice(vocab) for _ in range(rng.randint(3, 7))]
              for _ in range(rng.randint(10, 18))]
    return estimate_witten_bell(corpus, 3)


def _relay_vs_analytic(model):
    """Compare every relay lookup against the model's own backoff scoring;
    return the deepest relay chain seen."""
    g = lm_to_fst(model, mode=BACKOFF_EPS)
    states = context_states(model)
    words = sorted(w for w in model.events() if w != EOS)
    deepest = 0
    for h, s in states.items():
        if h and h[-1] == EOS:
            continue
        for w in words:
            _, weight, hops = relay_match(g, s, g.isyms.id_of(w))
            assert weight == pytest.approx(
                cost_from_log10(model.score_word(h, w)), abs=1e-6)
            deepest = max(deepest, hops)
    return deepest


def test_criterion_2_relay_weights_are_exact(mini_model, criterion_record):
    with criterion(criterion_record, 2,
                   "relayed matches equal analytic backoff scores to 1e-6, "
                   "including multi-hop chains"):
        assert _relay_vs_analytic(mini_model) >= 1
        multi_hop_models = 0
        for seed in range(50):
            if multi_hop_models == 3:
                break
            if _relay_vs_analytic(_random_model(seed)) >= 2:
                multi_hop_models += 1
        assert multi_hop_models == 3


def _relay_walk(fst, labels):
    """Deterministic backoff walk: total weight of the sentence path."""
    state, total = fst.initial, 0.0
    for lab in labels:
        state, weight, _ = relay_match(fst, state, lab)
        total += weight
    return total + relay_final(fst, state)


def test_criterion_3_negated_small_lm_cancels_exactly(task_models,
                                                      criterion_record):
    with criterion(criterion_record, 3,
                   "small-LM scores and their negation cancel to 1e-6 over "
                   "1000 random sentences"):
        _, _, g3 = task_models
        syms = make_morpheme_symbols(g3, with_hash=True)
        g3fst = lm_to_fst(g3, syms, mode=BACKOFF_EPS)
        g3neg = negate_weights(lm_to_fst(g3, syms, mode=BACKOFF_EPS))
        for sent in _random_sentences(g3, 1000, seed=123):
            labels = [syms.id_of(w) for w in sent]
            total = _relay_walk(g3fst, labels) + _relay_walk(g3neg, labels)
            assert abs(total) < 1e-6


def test_criterion_4_lm_acceptors_are_faithful(task_models, criterion_record):
    with criterion(criterion_record, 4,
                   "compiled LM acceptors reproduce model sentence scores to "
                   "1e-6 over 1000 random sentences per model"):
        _, g4, g3 = task_models
        for model in (g4, g3):
            fst = lm_to_fst(model, mode=BACKOFF_EPS)
            for sent in _random_sentences(model, 1000, seed=456):
                labels = [fst.isyms.id_of(w) for w in sent]
                assert acceptor_sentence_cost(fst, labels) == pytest.approx(
                    cost_from_log10(score_sentence(model, sent)), abs=1e-6)


def test_criterion_5_onthefly_graphs_are_smaller(criterion_record):
    cfg = PipelineConfig(num_morphemes=1000, branching=4, pron_len=4,
                         num_phones=30, num_sentences=20000)
    task = generate_task(cfg)
    g4 = estimate_witten_bell(task.corpus, cfg.order)
    g3 = prune_to_small_lm(g4, cfg.prune_threshold, cfg.max_order)
    g = build_graphs(task.lexicon, g4, g3)
    hclg3, g3neg, g4fst, hclg4 = g["HCLG3"], g["G3neg"], g["G4"], g["HCLG4"]
    onthefly_arcs = hclg3.num_arcs + g3neg.num_arcs + g4fst.num_arcs
    ratio = hclg4.num_arcs / onthefly_arcs
    with criterion(criterion_record, 5,
                   "on a 1000-morpheme 4-gram task the static graph has more "
                   f"arcs than the three on-the-fly graphs together "
                   f"(ratio {ratio:.3f})"):
        assert hclg4.num_arcs > onthefly_arcs
    print(f"\nstatic/onthefly arc ratio: {ratio:.3f} "
          f"({hclg4.num_arcs} vs {hclg3.num_arcs}+{g3neg.num_arcs}"
          f"+{g4fst.num_arcs})")


def test_criterion_6_zero_noise_is_error_free(default_run, criterion_record):
    with criterion(criterion_record, 6,
                   "all three strategies decode noise-free speech at 0.00% "
                   "WER and the scorer matches hand WER goldens"):
        for name in ("onthefly", "static", "rescore"):
            assert default_run.strategies[name].wer == 0.0
        ref = ["aa", "bb", "cc"]
        assert wer_score(ref, ref) == (0.0, 0, 0, 0)
        wer, s, i, d = wer_score(ref, ["aa", "XX", "cc"])
        assert (round(wer, 2), s, i, d) == (33.33, 1, 0, 0)
        wer, s, i, d = wer_score(ref, ["aa", "cc"])
        assert (round(wer, 2), s, i, d) == (33.33, 0, 0, 1)


def test_criterion_7_epsilon_lm_arcs_never_matched_directly(wide_open_run,
                                                            criterion_record):
    _, stats, _ = wide_open_run
    with criterion(criterion_record, 7,
                   "no epsilon-output LM arc is ever taken as a direct match; "
                   "every relay hop follows a failed direct match"):
        assert stats.eps_output_matches == 0
        assert stats.backoff_hops > 0
        assert stats.failed_direct_matches == \
            stats.backoff_hops + stats.dead_relays


def test_criterion_8_reports_are_byte_identical(default_run, criterion_record):
    with criterion(criterion_record, 8,
                   "re-running the full pipeline yields byte-identical "
                   "reports"):
        again = run_pipeline(PipelineConfig())
        assert default_run.render(include_timing=False) == \
            again.render(include_timing=False)
