"""Decoder behavior: relay matching, frame expansion, lattices, strategies."""

import gc
import math
import random
import signal
import weakref
from contextlib import contextmanager
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from wfstdec import decoder
from wfstdec.acoustic import AcousticMatrix, synthesize_utterance
from wfstdec.decoder import (
    BackoffCycleError,
    DecodeError,
    DecodeOptions,
    EmptyResultError,
    Lattice,
    NegativeCycleError,
    ProvenanceError,
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
from wfstdec.fst import (ZERO, Arc, Fst, FstError, SymbolTable, find_arc,
                         write_text_fst)
from wfstdec.graph import (
    BACKOFF_EPS,
    BACKOFF_HASH,
    Lexicon,
    cost_from_log10,
    lm_to_fst,
    make_morpheme_symbols,
    negate_weights,
)
from wfstdec.ngram import (BOS, EOS, NGramModel, estimate_witten_bell,
                           prune_to_small_lm, score_sentence)
from wfstdec.pipeline import (PipelineConfig, build_graphs, decode_utterance,
                              synthesize_task)

from conftest import MINI_LEXICON_TEXT
from test_acceptance import _random_model
from test_oracle import _audio as oracle_audio
from test_oracle import tasks as oracle_tasks
from test_graph import context_states

INF = math.inf


# -- relay matching --------------------------------------------------------

class TestRelayMatch:
    def test_direct_match_no_hops(self, ab_model_eos):
        g = lm_to_fst(ab_model_eos, mode=BACKOFF_EPS)
        states = context_states(ab_model_eos)
        state, weight, hops = relay_match(g, states[("a",)], g.isyms.id_of("b"))
        assert hops == 0
        assert weight == pytest.approx(cost_from_log10(-0.3))
        assert state == states[("b",)]

    def test_backoff_relay_one_hop(self, ab_model_eos):
        g = lm_to_fst(ab_model_eos, mode=BACKOFF_EPS)
        states = context_states(ab_model_eos)
        state, weight, hops = relay_match(g, states[("b",)], g.isyms.id_of("a"))
        assert hops == 1
        assert weight == pytest.approx(cost_from_log10(-0.1) + cost_from_log10(-0.5))

    def test_begin_state_relay(self, mini_model):
        # <s> is followed only by "vix" in the corpus, so "tin" relays once.
        g = lm_to_fst(mini_model, mode=BACKOFF_EPS)
        _, weight, hops = relay_match(g, g.initial, g.isyms.id_of("tin"))
        assert hops == 1
        assert weight == pytest.approx(
            cost_from_log10(mini_model.score_word(("<s>",), "tin")), abs=1e-9)

    def test_epsilon_label_forbidden(self, ab_model_eos):
        g = lm_to_fst(ab_model_eos, mode=BACKOFF_EPS)
        stats = RelayStats()
        with pytest.raises(DecodeError, match="forbidden"):
            relay_match(g, 0, 0, stats)
        assert stats.eps_output_matches == 1

    def test_dead_relay(self):
        fst = Fst()
        fst.add_state()
        fst.add_arc(0, Arc(5, 5, 1.0, 0))
        fst.set_initial(0)
        fst.arc_sort_input()
        stats = RelayStats()
        state, weight, hops = relay_match(fst, 0, 3, stats)
        assert (state, weight, hops) == (-1, INF, 0)
        assert stats.dead_relays == 1
        assert stats.failed_direct_matches == 1

    def test_hop_counters_consistent(self, mini_model):
        g = lm_to_fst(mini_model, mode=BACKOFF_EPS)
        stats = RelayStats()
        words = [w for w in mini_model.events() if w != "</s>"]
        for s in g.states():
            for w in words:
                relay_match(g, s, g.isyms.id_of(w), stats)
        assert stats.backoff_hops + stats.dead_relays == stats.failed_direct_matches
        assert stats.dead_relays == 0  # unigram completeness


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the body runs longer than seconds.

    The timeout is reported as a plain test failure, without a traceback:
    pytest cannot render one taken inside the decoder's loops.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        pytest.fail(str(exc), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _backoff_cycle_lm(length=1):
    """States 0..length-1 in a ring of back-off arcs; only state 0 has a
    word (label 5), so any other label relays around the ring forever."""
    fst = Fst()
    fst.add_states(length)
    fst.add_arc(0, Arc(5, 5, 1.0, 0))
    for s in range(length):
        fst.add_arc(s, Arc(0, 0, 0.1, (s + 1) % length))
        fst.set_final(s, 0.0)
    fst.set_initial(0)
    fst.arc_sort_input()
    return fst


class TestBackoffCycle:
    @pytest.mark.parametrize("length", [1, 3])
    def test_relay_match_raises(self, length):
        g = _backoff_cycle_lm(length)
        with deadline(5), pytest.raises(BackoffCycleError, match="cycle"):
            relay_match(g, 0, 3)

    def test_match_before_the_cycle_raises(self):
        # The relay from state 1 would match label 5 at state 0, before it
        # comes round the ring again; the LM is refused all the same.
        with deadline(5), pytest.raises(BackoffCycleError,
                                        match="from LM state 0 returns"):
            relay_match(_backoff_cycle_lm(3), 1, 5)

    def test_decode_onthefly_raises(self):
        hclg = _one_arc_graph(1, 3, 0.2)
        g3neg = _loop_lm(3, 3, -0.7)
        matrix = synthesize_utterance([1], 1)
        with deadline(5), pytest.raises(BackoffCycleError):
            decode_onthefly(hclg, g3neg, _backoff_cycle_lm(), matrix)
        with deadline(5), pytest.raises(BackoffCycleError):
            decode_onthefly(hclg, _backoff_cycle_lm(2), _loop_lm(3, 3, 0.0),
                            matrix)

    @staticmethod
    def _unreached_cycle_lm():
        """States 1 and 2 back off to each other, and no relay from state
        0 ever reaches them: a decode would succeed."""
        lm = _loop_lm(3, 3, 0.0)
        lm.add_states(2)
        lm.add_arc(1, Arc(0, 0, 0.1, 2))
        lm.add_arc(2, Arc(0, 0, 0.1, 1))
        lm.arc_sort_input()
        return lm

    @pytest.mark.parametrize("entry", [relay_match, relay_final])
    def test_relay_refuses_an_unreached_cycle(self, entry):
        args = (3,) if entry is relay_match else ()
        with pytest.raises(BackoffCycleError,
                           match="from LM state 1 returns to state 1"):
            entry(self._unreached_cycle_lm(), 0, *args)

    @pytest.mark.parametrize("operand", ["G3neg", "G4"])
    def test_unreached_cycle_raises_before_the_first_frame(self, operand):
        lms = {"G3neg": _loop_lm(3, 3, -0.7), "G4": _loop_lm(3, 3, 0.0)}
        lms[operand] = self._unreached_cycle_lm()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder.SearchSpace, "advance", None)  # no frame runs
            with pytest.raises(BackoffCycleError,
                               match=f"from {operand} state 1 returns to state 1"):
                decode_onthefly(_one_arc_graph(1, 3, 0.2), lms["G3neg"],
                                lms["G4"], synthesize_utterance([1], 1))


def _reference_relay(g, state, label, stats):
    """The per-label walk, one find_arc per state: (arc, hop weight, hops,
    state matched at), with arc None and state -1 when the label is dead."""
    acc, hops, q = 0.0, 0, state
    while True:
        a = find_arc(g, q, label)
        if a is not None:
            return a, acc, hops, q
        stats.failed_direct_matches += 1
        b = find_arc(g, q, 0)
        if b is None:
            stats.dead_relays += 1
            return None, INF, hops, -1
        q, acc, hops = b.nextstate, acc + b.weight, hops + 1
        stats.backoff_hops += 1


def _onthefly_graphs(lex, big, small):
    """(HCLG3, G3neg, G4) as ``build_graphs`` makes them."""
    g = build_graphs(lex, big, small, ("onthefly",))
    return g["HCLG3"], g["G3neg"], g["G4"]


def _relay_models(mini_model):
    """(words, G3neg, G4) for the mini model and three random 3-gram models."""
    out = []
    for model in [mini_model] + [_random_model(seed) for seed in (0, 1, 2)]:
        small = prune_to_small_lm(model, threshold=0.45, max_order=2)
        syms = make_morpheme_symbols(model, with_hash=True)
        words = [syms.id_of(w) for w in model.events() if w != EOS]
        out.append((words,
                    negate_weights(lm_to_fst(small, syms, mode=BACKOFF_EPS)),
                    lm_to_fst(model, syms, mode=BACKOFF_EPS)))
    return out


def _listing_lm(words):
    """A one-state acceptor that lists every word at weight 0 and has no
    back-off arc: as a pair's G4, it matches every label G3neg matched at
    once, adding nothing to the pair's hop weight or counters."""
    g = Fst()
    g.add_state()
    for w in words:
        g.add_arc(0, Arc(w, w, 0.0, 0))
    g.set_initial(0)
    g.set_final(0, 0.0)
    g.arc_sort_input()
    return g


def _reference_chain(g, state):
    """The states of the back-off chain from ``state``, found arc by arc."""
    chain = [state]
    while (b := find_arc(g, chain[-1], 0)) is not None:
        chain.append(b.nextstate)
    return chain


def _listed_above_last(g, state):
    """The labels that the back-off chain from ``state`` lists above its
    last state."""
    return {a.ilabel for q in _reference_chain(g, state)[:-1]
            for a in g.arcs(q) if a.ilabel}


class TestBatchedRelay:
    def test_batch_equals_per_label_relay(self, mini_model):
        # Each LM is the G3neg of pairs whose G4 lists every word at one
        # state, so a pair's record of a word is the LM's own relay of it:
        # (state matched at, 0, hop weight).
        for words, g3neg, g4 in _relay_models(mini_model):
            total_hops = 0
            flat = _listing_lm(words)
            for g in (g3neg, g4):
                batch, single, ref = RelayStats(), RelayStats(), RelayStats()
                space = search_space(Fst(), g, flat, batch)
                for s in g.states():
                    pair = space.relays(s, 0, set(words))
                    found = {w: pair.record(w) for w in words}
                    dead = {w for w, r in found.items()
                            if r is decoder._DEAD_RECORD}
                    maps = decoder._DERIVED[g].maps
                    for w in words:
                        got = relay_match(g, s, w, single)
                        a, acc, hops, at = _reference_relay(g, s, w, ref)
                        if a is None:
                            assert w in dead
                            assert got == (-1, INF, hops)
                            continue
                        assert got == (a.nextstate, acc + a.weight, hops)
                        assert found[w] == (at, 0, acc)
                        assert maps[at][w] == a
                assert batch == single == ref
                total_hops += batch.backoff_hops
            assert total_hops > 0

    def test_lm_pair_memo_equals_per_label_relays(self, mini_model):
        backed_off = 0  # matches made after a back-off hop
        for words, g3neg, g4 in _relay_models(mini_model):
            stats, ref = RelayStats(), RelayStats()
            space = search_space(Fst(), g3neg, g4, stats)
            for q2 in g3neg.states():
                for q3 in g4.states():
                    # Two batches, so the second grows the first's groups.
                    space.relays(q2, q3, set(words[::2]))
                    pair = space.relays(q2, q3, set(words))
                    for w in words:
                        record = pair.record(w)
                        e2, acc2, _, at = _reference_relay(g3neg, q2, w, ref)
                        e3 = None
                        if e2 is not None:
                            e3, acc3, _, at3 = _reference_relay(g4, q3, w, ref)
                        if e3 is None:
                            assert record is decoder._DEAD_RECORD
                            continue
                        assert record == (at, at3, acc2 + acc3)
                        if (at, at3) == pair.default[:2]:
                            assert pair.default is record
                        else:
                            assert pair.groups[(at, at3)] is record
                        # The per-arc path reads the label's arcs here.
                        assert space._maps3[record[0]][w] == e2
                        assert space._maps4[record[1]][w] == e3
                        backed_off += at != q2
                    for key, record in pair.groups.items():
                        assert key == record[:2]
            assert stats == ref
        assert backed_off > 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sparse_memo_equals_two_reference_walks(self, data):
        # G3neg and G4 come from two corpora over one vocabulary, of orders
        # 2-5, so each LM lists words the other does not; the labels also
        # take in the #0 symbol, which neither lists, so walks die in both.
        vocab = [f"w{i}" for i in range(data.draw(st.integers(2, 6)))]
        sentence = st.lists(st.sampled_from(vocab), max_size=6)

        def corpus():
            return data.draw(st.lists(sentence, min_size=1, max_size=8))
        big = estimate_witten_bell(corpus(), data.draw(st.integers(2, 5)))
        order = data.draw(st.integers(2, 5))
        small = prune_to_small_lm(
            estimate_witten_bell(corpus(), order),
            data.draw(st.sampled_from([1e-5, 0.05, 0.3])),
            data.draw(st.integers(1, order)))
        syms = SymbolTable()
        for w in vocab + [BACKOFF_HASH]:
            syms.add(w)
        g3neg = negate_weights(lm_to_fst(small, syms, mode=BACKOFF_EPS))
        g4 = lm_to_fst(big, syms, mode=BACKOFF_EPS)
        labels = data.draw(st.permutations(range(1, len(syms))))
        cut = data.draw(st.integers(1, len(labels)))
        # Overlapping batches: the second starts inside the first.
        first, second = set(labels[:cut]), set(labels[cut - 1:])
        stats, ref = RelayStats(), RelayStats()
        space = search_space(Fst(), g3neg, g4, stats)
        for q2 in g3neg.states():
            above2 = _listed_above_last(g3neg, q2)
            for q3 in g4.states():
                above = above2 | _listed_above_last(g4, q3)
                counted = set()  # a label counts on its first ask only
                for batch in (first, second, set(first), second):
                    pair = space.relays(q2, q3, batch)
                    for w in batch - counted:
                        if _reference_relay(g3neg, q2, w, ref)[0] is not None:
                            _reference_relay(g4, q3, w, ref)
                    counted |= batch
                    assert stats == ref
                scratch = RelayStats()
                for w in first | second:
                    record = pair.record(w)
                    e2, acc2, _, at = _reference_relay(g3neg, q2, w, scratch)
                    e3 = None
                    if e2 is not None:
                        e3, acc3, _, at3 = _reference_relay(g4, q3, w, scratch)
                    if e3 is None:
                        assert record is decoder._DEAD_RECORD
                    else:
                        assert record[:2] == (at, at3)
                        assert record[2].hex() == (acc2 + acc3).hex()
                assert pair.records.keys() == (first | second) & above

    def test_hop_weights_sum_left_to_right(self):
        # Both chains back off four times, 4 -> 3 -> 2 -> 1 -> 0, with hop
        # weights whose sums differ when taken from the chain's tail.  Both
        # LMs list morpheme 1 at state 0 alone, so the pair's default
        # record holds it; G3neg lists morpheme 2 at state 1 too, so it
        # has a record of its own, three hops down G3neg's chain.
        hops2, hops4 = [0.1, 0.2, 0.3, 0.4], [0.7, 0.1, 0.2, 0.3]

        def ltr(ws):
            acc = 0.0
            for w in ws:
                acc += w
            return acc

        def tail_first(ws):
            return ltr(reversed(ws))

        for ws in (hops2, hops2[:3], hops4):
            assert ltr(ws) != tail_first(ws)
        g3neg = self._chain_lm(hops2, {0: [(1, -0.25), (2, -0.5)], 1: [(2, -0.75)]})
        g4 = self._chain_lm(hops4, {0: [(1, 0.5), (2, 1.5)]})
        space = search_space(Fst(), g3neg, g4)
        pair = space.relays(4, 4, {1, 2})
        assert pair.record(1) == (0, 0, ltr(hops2) + ltr(hops4))
        assert pair.record(1)[2].hex() == (ltr(hops2) + ltr(hops4)).hex()
        assert pair.record(2)[:2] == (1, 0)
        assert pair.record(2)[2].hex() == (ltr(hops2[:3]) + ltr(hops4)).hex()
        assert (ltr(hops2[:3]) + ltr(hops4)) != \
            (tail_first(hops2[:3]) + tail_first(hops4))
        assert list(pair.records) == [2]
        # A search graph that takes G3neg's four back-off arcs, then reads
        # phone 1 and morpheme 1 at weight 0.5, at no acoustic cost.
        hclg = Fst()
        hclg.add_states(6)
        for s in range(4):
            hclg.add_arc(s, Arc(0, 0, 0.0, s + 1))
        hclg.add_arc(4, Arc(1, 1, 0.5, 5))
        hclg.set_initial(0)
        hclg.set_final(5, 0.0)
        matrix = AcousticMatrix("u", np.zeros((1, 1)))
        want = ((0.5 + -0.25) + 0.5) + (ltr(hops2) + ltr(hops4))
        for lat in (decode_onthefly(hclg, g3neg, g4, matrix),
                    rescore_lattice(decode_static(hclg, matrix), g3neg, g4)):
            assert best_path(lat)[1].hex() == want.hex()

    @staticmethod
    def _chain_lm(hops, lists):
        """An acceptor whose state s > 0 backs off to s - 1 with weight
        ``hops[-s]``, so the chain from the top state takes ``hops`` in
        order; ``lists[s]`` holds state s's (morpheme, weight) arcs, each
        to state 0, which is final."""
        g = Fst()
        g.add_states(len(hops) + 1)
        for s in range(1, len(hops) + 1):
            g.add_arc(s, Arc(0, 0, hops[-s], s - 1))
        for s, arcs in lists.items():
            for label, w in arcs:
                g.add_arc(s, Arc(label, label, w, 0))
        g.set_initial(len(hops))
        g.set_final(0, 0.0)
        g.arc_sort_input()
        return g

    def test_memo_stores_only_labels_listed_above_the_last_states(
            self, task_models):
        # A cold decode of the default task's first utterance.
        space, matrix = _default_task(task_models)
        decode_onthefly(space.graph, space.g3neg, space.g4, matrix)
        pairs = space._pairs
        assert pairs
        stored = expected = defaulted = 0
        for (q2, q3), pair in pairs.items():
            asked = set().union(*pair.asked)
            above = (_listed_above_last(space.g3neg, q2)
                     | _listed_above_last(space.g4, q3))
            last = (_reference_chain(space.g3neg, q2)[-1],
                    _reference_chain(space.g4, q3)[-1])
            assert pair.default[:2] == last
            for w in pair.records:
                assert pair.record(w)[:2] != last
            defaulted += sum(pair.record(w) is pair.default for w in asked)
            stored += len(pair.records)
            expected += len(asked & above)
        assert stored == expected
        assert defaulted > stored > 0


def _transducer_g3neg(olabel):
    """A one-state G3neg whose arc for morpheme 1 outputs olabel."""
    g3neg = Fst()
    g3neg.add_state()
    g3neg.add_arc(0, Arc(1, olabel, -0.4, 0))
    g3neg.set_initial(0)
    g3neg.set_final(0, 0.0)
    g3neg.arc_sort_input()
    return g3neg


class TestAcceptorG3neg:
    """G3neg is read as an acceptor; an arc whose labels differ is
    refused before any relay is made, by decoding and by rescoring."""

    @pytest.mark.parametrize("olabel", [7, 0], ids=["morpheme", "epsilon"])
    def test_decode_onthefly_raises(self, olabel):
        stats = RelayStats()
        with pytest.raises(DecodeError, match="not an acceptor: state 0 has "
                           f"arc 1:{olabel} to state 0"):
            decode_onthefly(_one_arc_graph(1, 1, 0.2), _transducer_g3neg(olabel),
                            _loop_lm(7, 7, 0.5), synthesize_utterance([1], 1),
                            stats=stats)
        assert stats == RelayStats()

    def test_rescore_lattice_raises(self):
        lat = decode_static(_one_arc_graph(1, 1, 0.2), synthesize_utterance([1], 1))
        with pytest.raises(DecodeError, match="not an acceptor: state 0"):
            rescore_lattice(lat, _transducer_g3neg(7), _loop_lm(7, 7, 0.5))


@pytest.mark.parametrize("state", [-1, 2])
@pytest.mark.parametrize("entry", [relay_match, relay_final])
def test_relay_refuses_a_state_out_of_range(entry, state):
    # The last state backs off to state 0, which reads label 5 and is
    # final: a table read at index -1 would return a result.
    fst = Fst()
    fst.add_states(2)
    fst.add_arc(0, Arc(5, 5, 1.0, 0))
    fst.add_arc(1, Arc(0, 0, 0.2, 0))
    fst.set_final(0, 0.3)
    fst.arc_sort_input()
    args = (5,) if entry is relay_match else ()
    with pytest.raises(FstError, match=f"^invalid state id {state}$"):
        entry(fst, state, *args)


class TestAcceptorG4:
    def test_hash_backoff_labels_raise_on_the_default_task(self, task_models):
        # G4 with #0:eps back-off arcs is a transducer.  A sentence with a
        # bigram that G4 does not list backs off in G4: with epsilon
        # back-off labels it decodes to its transcript, with #0 labels the
        # decode is refused instead of scored.
        task, g4model, g3model = task_models
        hclg3, g3neg, g4 = _onthefly_graphs(task.lexicon, g4model, g3model)
        words = sorted(task.lexicon.prons)
        rng = random.Random(0)
        while True:
            sent = [rng.choice(words) for _ in range(6)]
            if any(g4model.entry(pair) is None for pair in zip(sent, sent[1:])):
                break
        phones = hclg3.isyms
        matrix = synthesize_utterance(
            [phones.id_of(p) for m in sent for p in task.lexicon.prons[m][0]],
            len(phones) - 1)
        assert best_path(decode_onthefly(hclg3, g3neg, g4, matrix))[0] == sent
        g4 = lm_to_fst(g4model, g4.isyms, mode=BACKOFF_HASH)
        with pytest.raises(DecodeError, match="^G4 is not an acceptor: state "):
            decode_onthefly(hclg3, g3neg, g4, matrix)


class TestRelayFinal:
    def test_direct_final(self):
        fst = Fst()
        fst.add_state()
        fst.set_final(0, 0.7)
        fst.arc_sort_input()
        assert relay_final(fst, 0) == 0.7

    def test_backoff_to_final(self):
        fst = Fst()
        fst.add_states(2)
        fst.add_arc(0, Arc(0, 0, 0.4, 1))
        fst.set_final(1, 1.0)
        fst.arc_sort_input()
        assert relay_final(fst, 0) == pytest.approx(1.4)

    def test_no_final_anywhere(self):
        fst = Fst()
        fst.add_state()
        fst.add_arc(0, Arc(0, 0, 0.1, 0))  # epsilon self-loop
        fst.arc_sort_input()
        with deadline(5), pytest.raises(BackoffCycleError, match="cycle"):
            relay_final(fst, 0)

    def test_no_final_on_a_longer_cycle(self):
        g = _backoff_cycle_lm(3)
        g.finals.clear()
        with deadline(5), pytest.raises(
                BackoffCycleError,
                match="from LM state 0 returns to state 0"):
            relay_final(g, 1)

    def test_dead_end_without_final(self):
        fst = Fst()
        fst.add_states(2)
        fst.add_arc(0, Arc(0, 0, 0.4, 1))
        fst.arc_sort_input()
        assert relay_final(fst, 0) == ZERO

    def test_final_weights_are_read_after_set_final(self):
        # The LM's record keeps state 0's back-off chain; set_final makes
        # no new graph version, so the record stays, and each call reads
        # the final weights the graph holds now.
        fst = Fst()
        fst.add_states(2)
        fst.add_arc(0, Arc(0, 0, 0.5, 1))
        fst.set_final(1, 1.0)
        fst.arc_sort_input()
        assert relay_final(fst, 0) == 1.5
        version = fst.version
        fst.set_final(1, 2.0)
        assert relay_final(fst, 0) == 2.5
        fst.set_final(0, 0.25)
        assert relay_final(fst, 0) == 0.25
        assert fst.version == version


# -- single-step expansion fixtures ----------------------------------------

def _one_arc_graph(ilabel, olabel, weight):
    fst = Fst()
    fst.add_states(2)
    fst.add_arc(0, Arc(ilabel, olabel, weight, 1))
    fst.set_initial(0)
    fst.set_final(1, 0.0)
    return fst


def _loop_lm(ilabel, olabel, weight):
    fst = Fst()
    fst.add_state()
    fst.add_arc(0, Arc(ilabel, olabel, weight, 0))
    fst.set_initial(0)
    fst.set_final(0, 0.0)
    fst.arc_sort_input()
    return fst


def _tokens(space, *entries):
    """A token dict of fresh tokens: (triple, cost) entries, frame 0."""
    out = {}
    for triple, cost in entries:
        sid = space.state_id(triple)
        out[sid] = [sid, 0, cost]
    return out


def links(tok):
    """(previous token, ilabel, olabel, weight) of each of a token's links,
    which it stores as four consecutive slots after its first three."""
    for i in range(3, len(tok), 4):
        yield tuple(tok[i:i + 4])


def _succ(space, tokens):
    """(triple, cost, link count) of each token, in dict order."""
    return [(space.triple(t[0]), t[2], sum(1 for _ in links(t)))
            for t in tokens.values()]


class TestAdvance:
    def test_epsilon_output_arc_skips_lm(self):
        # Arc a:eps w=1.0, token cost 2.0, acoustic 0.5 -> successor 3.5
        # with the LM pair untouched.
        space = SearchSpace(_one_arc_graph(1, 0, 1.0))
        out = space.advance(_tokens(space, ((0, -1, -1), 2.0)), [INF, 0.5], 1, 8.0)
        [(triple, cost, _)] = _succ(space, out)
        assert cost == pytest.approx(3.5)
        assert triple == (1, -1, -1)

    def test_direct_match_in_both_lms(self):
        # w[e1]=0.2, negated small-LM weight -0.7, big-LM weight 0.65,
        # acoustic 0.5, token cost 2.0 -> 2.65.
        hclg = _one_arc_graph(1, 1, 0.2)
        g3neg = _loop_lm(1, 1, -0.7)
        g4 = _loop_lm(1, 1, 0.65)
        space = search_space(hclg, g3neg, g4)
        out = space.advance(_tokens(space, ((0, 0, 0), 2.0)), [INF, 0.5], 1, 8.0)
        [(triple, cost, _)] = _succ(space, out)
        assert cost == pytest.approx(2.65)
        assert triple == (1, 0, 0)

    def test_dead_branch_dropped(self):
        hclg = _one_arc_graph(1, 1, 0.2)
        g3neg = _loop_lm(2, 2, 0.0)  # no match, no backoff
        g4 = _loop_lm(1, 1, 0.0)
        space = search_space(hclg, g3neg, g4)
        out = space.advance(_tokens(space, ((0, 0, 0), 2.0)), [INF, 0.5], 1, 8.0)
        assert out == {}

    def test_arrivals_combine_by_min(self):
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(0, Arc(1, 0, 1.0, 2))
        fst.add_arc(1, Arc(1, 0, 0.1, 2))
        fst.set_initial(0)
        fst.set_final(2, 0.0)
        space = SearchSpace(fst)
        tokens = _tokens(space, ((0, -1, -1), 2.0), ((1, -1, -1), 1.0))
        out = space.advance(tokens, [INF, 0.0], 1, 8.0)
        [(_, cost, links)] = _succ(space, out)
        assert cost == pytest.approx(1.1)  # min(2.0+1.0, 1.0+0.1)
        assert links == 2  # both arrivals recorded for the lattice

    @pytest.mark.parametrize("onthefly", [False, True])
    def test_cutoff_skips_new_tokens_only_without_epsilon_arcs(self, onthefly):
        # Beam 1.0 and lattice beam 0.5 put the cutoff at 0.0 + 1.0 (plus
        # 1e-9).  States 2 and 3 lie beyond it, state 2 within the lattice
        # beam of it, and state 4 far beyond; only state 4 has an
        # epsilon-input arc, which could bring a path from it back under
        # the beam.  State 2's arrival is set aside: alone it makes no
        # token, but when a later token's cheaper arrival makes one, it is
        # replayed into it as the first link, as the uncut step makes it.
        fst = Fst()
        fst.add_states(6)
        for dst, w in ((1, 0.0), (2, 1.5), (3, 1.6), (4, 5.0)):
            fst.add_arc(0, Arc(1, 1, w, dst))
        fst.add_arc(1, Arc(1, 1, 0.25, 2))
        fst.add_arc(4, Arc(0, 0, -4.5, 5))
        fst.set_initial(0)
        fst.set_final(5, 0.0)
        if onthefly:
            space = search_space(fst, _loop_lm(1, 1, 0.0), _loop_lm(1, 1, 0.0))
        else:
            space = SearchSpace(fst)
        tokens = _tokens(space, (space.triple(space.initial), 0.0))
        made = space.advance(tokens, [INF, 0.0], 1, 0.5, beam=1.0)
        assert [space.triple(t[0])[0] for t in made.values()] == [1, 4]
        everything = space.advance(tokens, [INF, 0.0], 1, 0.5)
        assert [space.triple(t[0])[0] for t in everything.values()] == [1, 2, 3, 4]
        two = dict(tokens)
        two.update(_tokens(space, ((1,) + space.triple(space.initial)[1:], 0.5)))
        made = space.advance(two, [INF, 0.0], 1, 0.5, beam=1.0)
        assert [space.triple(t[0])[0] for t in made.values()] == [1, 4, 2]
        everything = space.advance(two, [INF, 0.0], 1, 0.5)
        sid = next(t[0] for t in made.values() if space.triple(t[0])[0] == 2)
        assert made[sid] == everything[sid]
        assert [lk[0] for lk in links(made[sid])] == list(two.values())
        assert made[sid][2] == 0.75

    @pytest.mark.parametrize("onthefly", [False, True])
    def test_links_are_four_slots_into_this_or_the_previous_frame(
            self, mini, onthefly):
        if onthefly:
            space = search_space(mini["HCLG3"], mini["G3neg"], mini["G4"])
        else:
            space = SearchSpace(mini["HCLG4"])
        matrix = _utt(mini, SENT, noise=1.0, seed=2)
        tokens = {space.initial: [space.initial, 0, 0.0]}
        space.propagate(tokens, 0, 8.0)
        for frame in range(4):
            before = tokens
            tokens = space.advance(before, matrix.padded_row(frame), frame + 1,
                                   8.0)
            space.propagate(tokens, frame + 1, 8.0)
            assert tokens
            for t in tokens.values():
                assert t[1] == frame + 1
                assert len(t) > 3 and (len(t) - 3) % 4 == 0
                for prev, il, ol, w in links(t):
                    assert type(prev) is list
                    assert prev[1] in (frame, frame + 1)
                    made_in = before if prev[1] == frame else tokens
                    assert made_in[prev[0]] is prev
                    assert type(il) is int and type(ol) is int
                    assert type(w) is float

    def test_new_states_without_epsilon_arcs_get_an_empty_table(self):
        # A cold on-the-fly space knows, before expanding a state, that a
        # state over a search-graph state without epsilon-input arcs has
        # none: the cutoff can skip it and propagation never expands it.
        # The epsilon arc reads a morpheme, so it propagates.
        fst = _one_arc_graph(1, 1, 0.2)
        fst.add_arc(0, Arc(0, 1, 0.3, 1))
        space = search_space(fst, _loop_lm(1, 1, 0.0), _loop_lm(1, 1, 0.0))
        space.advance(_tokens(space, ((0, 0, 0), 0.0)), [INF, 0.0], 1, 8.0)
        assert space.eps[space.state_id((0, 0, 0))] is True
        assert space.eps[space.state_id((1, 0, 0))] == ()
        # Both states are at an end of the epsilon arc, so both are made
        # wherever they lie within the lattice beam of the cutoff.
        assert space.ends == [True, True]


class TestProvenance:
    """The G3neg state behind each search-graph state is derived from the
    initial state; a graph that contradicts it is no composition."""

    def test_backoff_where_g3neg_has_none_raises(self):
        # An eps:eps arc from state 0, which the frame step reads as a
        # failure transition.
        fst = _one_arc_graph(0, 0, 0.3)
        space = search_space(fst, _loop_lm(1, 1, 0.0), _loop_lm(1, 1, 0.0))
        with pytest.raises(ProvenanceError, match="no back-off arc"):
            space.advance(_tokens(space, ((0, 0, 0), 0.0)), [INF, 0.0], 1, 8.0)

    def test_propagated_backoff_where_g3neg_has_none_raises(self):
        # Another epsilon arc of the graph reads a morpheme, so the eps:eps
        # arc from state 0 propagates instead.
        fst = _one_arc_graph(0, 0, 0.3)
        fst.add_arc(1, Arc(0, 1, 0.0, fst.add_state()))
        space = search_space(fst, _loop_lm(1, 1, 0.0), _loop_lm(1, 1, 0.0))
        with pytest.raises(ProvenanceError, match="no back-off arc"):
            space.propagate(_tokens(space, ((0, 0, 0), 0.0)), 0, 8.0)

    def test_token_at_an_unreached_state_raises(self):
        fst = _one_arc_graph(1, 1, 0.2)
        fst.add_arc(1, Arc(1, 1, 0.2, 0))
        space = search_space(fst, _loop_lm(1, 1, 0.0), _loop_lm(1, 1, 0.0))
        with pytest.raises(ProvenanceError, match="not reached"):
            space.advance(_tokens(space, ((1, 0, 0), 0.0)), [INF, 0.0], 1, 8.0)


class TestPropagate:
    def test_epsilon_arc_extends_token(self):
        fst = Fst()
        fst.add_states(2)
        fst.add_arc(0, Arc(0, 0, 0.3, 1))
        fst.set_initial(0)
        fst.set_final(1, 0.0)
        space = SearchSpace(fst)
        s = space.propagate(_tokens(space, ((0, -1, -1), 2.0)), 0, 8.0)
        assert s[space.state_id((1, -1, -1))][2] == pytest.approx(2.3)

    def test_chain_closure(self):
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(0, Arc(0, 0, 0.25, 1))
        fst.add_arc(1, Arc(0, 0, 0.25, 2))
        fst.set_initial(0)
        fst.set_final(2, 0.0)
        space = SearchSpace(fst)
        s = space.propagate(_tokens(space, ((0, -1, -1), 0.0)), 0, 8.0)
        assert s[space.state_id((2, -1, -1))][2] == pytest.approx(0.5)

    def test_relayed_epsilon_arc(self):
        # An epsilon-input arc with a morpheme output moves the LM pair
        # and pays both LM weights: 1.0 + 0.2 - 0.7 + 0.65.
        fst = _one_arc_graph(0, 1, 0.2)
        space = search_space(fst, _loop_lm(1, 1, -0.7), _loop_lm(1, 1, 0.65))
        s = space.propagate(_tokens(space, ((0, 0, 0), 1.0)), 0, 8.0)
        assert _succ(space, s)[1] == ((1, 0, 0), pytest.approx(1.15), 1)

    def test_weights_add_in_search_loop_order(self):
        # With 1e-16 below half an ulp of 1.0, (1.0 + w) + gw stays 1.0
        # while 1.0 + (w + gw) does not: every expanded arc, epsilon-input
        # or emitting, carries its graph and LM weights summed, and that
        # sum is added to the cost.  Search graphs give epsilon-input arcs
        # no morpheme, so there the LM weight is 0.0 and the order moves
        # no cost.
        tiny = 1e-16
        space = search_space(_one_arc_graph(0, 1, tiny), _loop_lm(1, 1, tiny),
                             _loop_lm(1, 1, 0.0))
        s = space.propagate(_tokens(space, ((0, 0, 0), 1.0)), 0, 8.0)
        assert _succ(space, s)[1][1] == 1.0 + 2 * tiny > 1.0
        space = search_space(_one_arc_graph(1, 1, tiny), _loop_lm(1, 1, tiny),
                             _loop_lm(1, 1, 0.0))
        out = space.advance(_tokens(space, ((0, 0, 0), 1.0)), [INF, 0.0], 1, 8.0)
        assert _succ(space, out)[0][1] == 1.0 + 2 * tiny > 1.0


def _negative_cycle_graph():
    """0 -eps/-1.0-> 1 -eps/0.5-> 0, and an emitting arc 1 -1/0-> 2."""
    fst = Fst()
    fst.add_states(3)
    fst.add_arc(0, Arc(0, 0, -1.0, 1))
    fst.add_arc(1, Arc(0, 0, 0.5, 0))
    fst.add_arc(1, Arc(1, 0, 0.0, 2))
    fst.set_initial(0)
    fst.set_final(2, 0.0)
    return fst


class TestNegativeCycle:
    def test_static_decode_raises(self):
        with deadline(5), pytest.raises(NegativeCycleError, match="cycle"):
            decode_static(_negative_cycle_graph(), synthesize_utterance([1], 1))

    def test_onthefly_decode_raises(self):
        # The epsilon cycle reads morpheme 1 twice, which both LMs read from
        # state 0 back to it: the on-the-fly space has the cycle too.  (A
        # cycle of back-off arcs needs a G3neg whose back-off chains cycle,
        # which raises BackoffCycleError before the first frame.)
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(0, Arc(0, 1, -1.0, 1))
        fst.add_arc(1, Arc(0, 1, 0.5, 0))
        fst.add_arc(1, Arc(1, 0, 0.0, 2))
        fst.set_initial(0)
        fst.set_final(2, 0.0)
        with deadline(5), pytest.raises(NegativeCycleError, match="cycle"):
            decode_onthefly(fst, _loop_lm(1, 1, 0.0), _loop_lm(1, 1, 0.0),
                            synthesize_utterance([1], 1))

    # A cycle lighter than the default lattice beam (8.0) stays in the
    # lattice as a cycle of links, which best_path relaxes to a fixed point.
    @pytest.mark.parametrize("w", [0.0, 0.5, 5.0, 20.0])
    def test_positive_cycle_converges(self, w):
        g = Fst()
        g.add_states(3)
        g.add_arc(0, Arc(0, 0, w, 1))
        g.add_arc(1, Arc(0, 0, w, 0))
        g.add_arc(1, Arc(1, 0, 0.5, 2))
        g.set_initial(0)
        g.set_final(2, 0.0)
        with deadline(5):
            lat = decode_static(g, synthesize_utterance([1], 1))
            cost = best_path(lat)[1]
        assert cost == pytest.approx(w + 0.5)

    @pytest.mark.parametrize("w", [5.0, 7.5, 8.5])
    def test_two_cycle_within_lattice_beam_keeps_its_paths(self, w):
        # Both frame-1 tokens link into each other through the cycle, and
        # the frame-2 final token links to both.
        g = Fst()
        g.add_states(4)
        g.add_arc(0, Arc(1, 0, 0.0, 1))
        g.add_arc(0, Arc(1, 0, 0.0, 2))
        g.add_arc(1, Arc(0, 0, w, 2))
        g.add_arc(2, Arc(0, 0, w, 1))
        g.add_arc(1, Arc(1, 0, 0.0, 3))
        g.add_arc(2, Arc(1, 0, 0.0, 3))
        g.set_initial(0)
        g.set_final(3, 0.0)
        with deadline(5):
            lat = decode_static(g, synthesize_utterance([1, 1], 1),
                                DecodeOptions(lattice_beam=8.0))
            assert best_path(lat) == ([], 0.0)

    def test_negative_cycle_in_a_lattice_raises(self):
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(0, Arc(1, 0, 0.0, 1))
        fst.add_arc(1, Arc(0, 0, 1.0, 2))
        fst.add_arc(2, Arc(0, 0, -2.0, 1))
        fst.set_initial(0)
        fst.set_final(2, 0.0)
        with deadline(5), pytest.raises(NegativeCycleError, match="lattice"):
            best_path(Lattice(fst, [0, 1, 1]))


def _tie_graph():
    """Four emitting arcs of equal weight from state 0, whose successors
    are reached in the order 3, 2, 1 (descending q1)."""
    fst = Fst()
    fst.add_states(4)
    for q in (3, 2, 1):
        fst.add_arc(0, Arc(1, 0, 0.5, q))
        fst.set_final(q, 0.0)
    fst.set_initial(0)
    return fst


class TestPruneTokens:
    def test_beam_cut(self):
        space = SearchSpace(_tie_graph())
        s = space.prune(_tokens(space, *(((i, -1, -1), c) for i, c in
                                         enumerate([0.0, 4.0, 10.0]))),
                        DecodeOptions(beam=5.0))
        assert sorted(s) == [0, 1]

    def test_max_active_cap(self):
        space = SearchSpace(_tie_graph())
        s = space.prune(_tokens(space, *(((i, -1, -1), c) for i, c in
                                         enumerate([0.3, 0.1, 0.2]))),
                        DecodeOptions(beam=100.0, max_active=2))
        assert sorted(s) == [1, 2]

    def test_returns_the_same_dict_when_nothing_is_cut(self):
        space = SearchSpace(_tie_graph())
        opts = DecodeOptions(beam=5.0)
        tokens = _tokens(space, *(((i, -1, -1), c) for i, c in
                                  enumerate([0.0, 4.0, 5.0])))
        assert space.prune(tokens, opts) is tokens
        tokens = _tokens(space, *(((i, -1, -1), c) for i, c in
                                  enumerate([0.0, 4.0, 5.0, 5.5])))
        kept = space.prune(tokens, opts)
        assert kept is not tokens
        assert list(kept) == [0, 1, 2]
        assert all(kept[k] is tokens[k] for k in kept)
        assert list(tokens) == [0, 1, 2, 3]

    def test_empty_dict_is_returned_as_it_is(self):
        tokens = {}
        assert SearchSpace(_tie_graph()).prune(tokens, DecodeOptions()) is tokens

    def test_options_validated(self):
        with pytest.raises(ValueError, match="positive"):
            DecodeOptions(beam=0.0)
        with pytest.raises(ValueError, match="positive"):
            DecodeOptions(acoustic_scale=-1.0)
        for option in ("beam", "lattice_beam", "acoustic_scale"):
            with pytest.raises(ValueError, match="positive"):
                DecodeOptions(**{option: math.nan})

    def test_static_tie_keeps_smallest_states(self):
        space = SearchSpace(_tie_graph())
        tokens = space.advance(_tokens(space, ((0, -1, -1), 0.0)), [INF, 0.0],
                               1, 8.0)
        assert [space.triple(k) for k in tokens] == \
            [(3, -1, -1), (2, -1, -1), (1, -1, -1)]
        kept = space.prune(tokens, DecodeOptions(max_active=2))
        assert [space.triple(k) for k in kept] == [(1, -1, -1), (2, -1, -1)]

    def test_onthefly_tie_keeps_smallest_triples_not_first_interned(self):
        # Morphemes 5 and 6 lead G3neg to states 2 and 1, which both back
        # off to state 0; the search graph backs off from its states 3 and
        # 2 (composed from G3neg states 2 and 1) to its state 4, and the
        # tokens at 3 and 2, in that order, read state 4's arc to state 1
        # at equal cost: (1, 2, 0) is interned before (1, 1, 0) but loses
        # the tie.
        hclg = Fst()
        hclg.add_states(5)
        hclg.add_arc(0, Arc(1, 5, 0.5, 3))
        hclg.add_arc(0, Arc(1, 6, 0.5, 2))
        hclg.add_arc(2, Arc(0, 0, 0.0, 4))
        hclg.add_arc(3, Arc(0, 0, 0.0, 4))
        hclg.add_arc(4, Arc(1, 0, 0.5, 1))
        hclg.set_initial(0)
        g3neg = Fst()
        g3neg.add_states(3)
        g3neg.add_arc(0, Arc(5, 5, 0.0, 2))
        g3neg.add_arc(0, Arc(6, 6, 0.0, 1))
        g3neg.add_arc(1, Arc(0, 0, 0.0, 0))
        g3neg.add_arc(2, Arc(0, 0, 0.0, 0))
        g3neg.set_initial(0)
        g3neg.arc_sort_input()
        g4 = _loop_lm(5, 5, 0.0)
        g4.add_arc(0, Arc(6, 6, 0.0, 0))
        g4.arc_sort_input()
        space = search_space(hclg, g3neg, g4)
        tokens = space.advance(_tokens(space, ((0, 0, 0), 0.0)), [INF, 0.0],
                               1, 8.0)
        space.propagate(tokens, 1, 8.0)
        tokens = space.advance(tokens, [INF, 0.0], 2, 8.0)
        ids = list(tokens)
        assert ids == sorted(ids)  # interned in the order they were reached
        assert [space.triple(k) for k in ids] == [(1, 2, 0), (1, 1, 0)]
        kept = space.prune(tokens, DecodeOptions(max_active=1))
        assert [space.triple(k) for k in kept] == [(1, 1, 0)]


class TestFinalize:
    def test_only_final_states_survive(self):
        fst = Fst()
        fst.add_states(2)
        fst.set_initial(0)
        fst.set_final(1, 0.75)
        space = SearchSpace(fst)
        tokens = _tokens(space, ((0, -1, -1), 1.0), ((1, -1, -1), 2.0))
        [(tok, fw)] = space.finalize(tokens, "u")
        assert space.triple(tok[0]) == (1, -1, -1)
        assert tok[2] + fw == pytest.approx(2.75)

    def test_empty_raises(self):
        fst = Fst()
        fst.add_state()
        fst.set_initial(0)
        space = SearchSpace(fst)
        with pytest.raises(EmptyResultError):
            space.finalize(_tokens(space, ((0, -1, -1), 0.0)), "u")


def _closure_lattice(space, finals, init_token, opts, utt_id):
    """Reference lattice builder: the backward closure over every ancestor
    token of the final tokens within the bound, suffix costs relaxed in
    topological order over that whole closure, and each state's arcs in
    closure order.  Returns the lattice and whether the sort reached every
    token: on a cycle of links it does not, and loses paths."""
    best = min(t[2] + fw for t, fw in finals)
    bound = best + opts.lattice_beam + 1e-9
    final_of = {id(t): (t, fw) for t, fw in finals if t[2] + fw <= bound}
    nodes = {i: t for i, (t, _) in final_of.items()}
    stack = list(nodes.values())
    while stack:
        for link in links(stack.pop()):
            if id(link[0]) not in nodes:
                nodes[id(link[0])] = link[0]
                stack.append(link[0])
    out_arcs = {i: [] for i in nodes}
    indeg = {}
    for ti, t in nodes.items():
        into = list(links(t))
        if len(into) > 1:
            seen = set()
            unique = []
            for lk in into:
                sig = (id(lk[0]), lk[1], lk[2], round(lk[3], 10))
                if sig not in seen:
                    seen.add(sig)
                    unique.append(lk)
            into = unique
        indeg[ti] = len(into)
        for prev, il, ol, w in into:
            out_arcs[id(prev)].append((ti, il, ol, w))
    order = [i for i, d in indeg.items() if d == 0]
    topo = []
    while order:
        i = order.pop()
        topo.append(i)
        for j, _, _, _ in out_arcs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    beta = dict.fromkeys(nodes, INF)
    for i, (t, fw) in final_of.items():
        beta[i] = fw
    for i in reversed(topo):
        for j, _, _, w in out_arcs[i]:
            beta[i] = min(beta[i], w + beta[j])
    keep = {i for i, t in nodes.items() if t[2] + beta[i] <= bound}
    keep.add(id(init_token))
    ordered = sorted((nodes[i] for i in keep),
                     key=lambda t: (t[1], space.triple(t[0])))
    state_of = {id(t): s for s, t in enumerate(ordered)}
    fst = Fst(space.graph.isyms, space.graph.osyms)
    fst.add_states(len(ordered))
    for i in keep:
        for j, il, ol, w in out_arcs[i]:
            if j in keep and nodes[j][2] + beta[j] <= bound \
                    and nodes[i][2] + w + beta[j] <= bound:
                fst.add_arc(state_of[i], Arc(il, ol, w, state_of[j]))
    for i, (t, fw) in final_of.items():
        fst.set_final(state_of[i], fw)
    fst.set_initial(state_of[id(init_token)])
    lat = Lattice(fst, [t[1] for t in ordered], utt_id)
    return lat, len(topo) == len(nodes)


def _arc_lines(fst):
    return sorted(f"{s} {a.ilabel} {a.olabel} {a.weight!r} {a.nextstate}"
                  for s in fst.states() for a in fst.arcs(s))


@st.composite
def _lattice_cases(draw):
    """A static graph over phones 1 and 2, whose epsilon arcs close cycles
    only through arcs heavier than the lattice beam, a noisy utterance and
    a lattice beam.  Graph weights are quarters, so noise-free path sums
    are exact."""
    beam = draw(st.sampled_from([0.5, 1.0, 2.5, 4.0, 8.0]))
    weight = st.integers(0, 16).map(lambda k: k / 4)
    n = draw(st.integers(2, 6))
    g = Fst()
    g.add_states(n)
    for q in range(n):  # every state can wait a frame
        for phone in (1, 2):
            g.add_arc(q, Arc(phone, 0, draw(weight), q))
    for _ in range(draw(st.integers(1, 3 * n))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        il, ol, w = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(weight)
        if il == 0 and dst <= src:
            w += beam + 0.25
        g.add_arc(src, Arc(il, ol, w, dst))
    for q in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        g.set_final(q, draw(weight))
    g.set_initial(0)
    phones = draw(st.lists(st.integers(1, 2), min_size=1, max_size=5))
    matrix = synthesize_utterance(
        phones, 2, noise=draw(st.sampled_from([0.0, 0.5, 2.0])),
        seed=draw(st.integers(0, 100)))
    return g, matrix, DecodeOptions(lattice_beam=beam)


class TestBuildLattice:
    """The backward-search lattice builder against the full-closure
    reference, on the arguments a static decode passes it."""

    @settings(max_examples=300, deadline=None)
    @given(_lattice_cases())
    def test_backward_search_matches_full_closure(self, case):
        g, matrix, opts = case
        calls = []
        build = decoder._build_lattice

        def spy(*args):
            calls.append(args)
            return build(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder, "_build_lattice", spy)
            try:
                got = decode_static(g, matrix, opts)
            except EmptyResultError:
                assume(False)  # no token reached a final state
        want, sorted_all = _closure_lattice(*calls[0])
        assume(sorted_all)  # the reference loses paths on a cycle of links
        assert got.fst.num_states == want.fst.num_states
        assert got.frames == want.frames
        assert got.fst.initial == want.fst.initial
        assert got.fst.finals == want.fst.finals
        assert _arc_lines(got.fst) == _arc_lines(want.fst)

    def test_initial_token_that_no_link_reaches_keeps_a_bare_state(self):
        # The final token at state 1 has no link, so the backward search
        # never reaches the initial token.  `_build_lattice` still gives it a
        # state, first by frame, which is not within the bound and so
        # gets no arc; the lattice then has no successful path.
        space = SearchSpace(_one_arc_graph(1, 0, 0.0))
        init, last = [0, 0, 0.0], [1, 1, 0.5]
        lat = decoder._build_lattice(space, [(last, 0.0)], init,
                                     DecodeOptions(), "u")
        assert lat.frames == [0, 1]
        assert lat.fst.initial == 0
        assert lat.fst.finals == {1: 0.0}
        assert [list(lat.fst.arcs(s)) for s in range(2)] == [[], []]
        with pytest.raises(EmptyResultError, match="no successful path"):
            best_path(lat)


# -- the frame step's cutoff ------------------------------------------------

def _block_rows(rows, blocks):
    """The rows of a station table or segment kept as ``(rows, blocks)``:
    its rows, or those of its blocks in order."""
    return rows if blocks is None else [r for b in blocks for r in b[2]]


def _lone_plan(space, sid):
    """Every emitting arc of state sid, as a lone token scans them, as (own
    arcs, [(h, station rows), ...]): a static state's row, made on first
    visit, or an on-the-fly state's own arcs, then its station segments,
    each with its hop weight h and the rows of its blocks in order."""
    arcs = space.emit[sid]
    if arcs is not None:
        return arcs, []
    if not isinstance(space, decoder._OnTheFlySpace):
        return space._rows.emit_row(sid), []
    own, segs = space._shared.get(sid) or space._expand_emit(sid)
    return own, [(h, _block_rows(rows, blocks))
                 for _, h, rows, _, blocks in segs]


def _all_arcs(space, sid):
    """The arcs of ``_lone_plan``, in the order a lone token scans them."""
    own, segs = _lone_plan(space, sid)
    return [*own, *(a for _, rows in segs for a in rows)]


def _uncut_advance(self, tokens, frame_costs, frame, slack, beam=INF):
    """Reference frame step without the cutoff or stations: every arrival
    makes or reaches its token.  A token reads its own arcs at the frame's
    costs, and a station segment's rows at the frame's costs plus the
    segment's hop weight h, so each link from them carries h."""
    out = {}
    for tok in tokens.values():
        own, segs = _lone_plan(self, tok[0])
        for h, arcs in [(None, own)] + segs:
            for il, ol, w, nid in arcs:
                ac = frame_costs[il]
                lw = w + (ac if h is None else ac + h)
                nc = tok[2] + lw
                cur = out.get(nid)
                if cur is None:
                    out[nid] = [nid, frame, nc, tok, il, ol, lw]
                elif nc < cur[2]:
                    cur[2] = nc
                    cur.extend((tok, il, ol, lw))
                elif nc <= cur[2] + slack:
                    cur.extend((tok, il, ol, lw))
    return out


def _cut_outcome(decode, uncut):
    """(hypothesis, cost repr, lattice text with frames, peak tokens) of
    decode(), run with the reference frame step if uncut, or the error's
    type and message."""
    with pytest.MonkeyPatch.context() as mp:
        if uncut:
            mp.setattr(decoder.SearchSpace, "advance", _uncut_advance)
        try:
            lat = decode()
            hyp, cost = best_path(lat)
        except DecodeError as exc:
            return type(exc), str(exc)
    comments = {s: f"frame {f}" for s, f in enumerate(lat.frames)}
    return hyp, repr(cost), write_text_fst(lat.fst, comments), lat.peak_tokens


def _assert_cut_equals_uncut(got, want):
    """Equal outcomes, but for peak tokens, which the cutoff only lowers."""
    if len(want) == 4:
        assert got[3] <= want[3]
        got, want = got[:3], want[:3]
    assert got == want


_cut_options = st.builds(
    DecodeOptions, beam=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    lattice_beam=st.sampled_from([0.5, 2.0, 8.0]),
    max_active=st.sampled_from([3, 10 ** 6]))


@st.composite
def _static_cut_cases(draw):
    """A static graph over phones 1-3 whose epsilon arcs weigh -8.0 to 4.0
    but close cycles only through arcs heavy enough that no cycle is
    negative, a noisy utterance with close phone costs, and decode
    options."""
    weight = st.integers(0, 16).map(lambda k: k / 4)
    n = draw(st.integers(2, 8))
    g = Fst()
    g.add_states(n)
    for q in range(n):
        for phone in (1, 2, 3):
            g.add_arc(q, Arc(phone, 0, draw(weight), q))
    for _ in range(draw(st.integers(1, 4 * n))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        il, ol, w = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(weight)
        if il == 0:
            w = w + 8.0 * n if dst <= src else w - 8.0 * draw(st.booleans())
        g.add_arc(src, Arc(il, ol, w, dst))
    for q in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        g.set_final(q, draw(weight))
    g.set_initial(0)
    phones = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    matrix = synthesize_utterance(
        phones, 3, noise=draw(st.sampled_from([0.5, 1.0, 2.0])),
        seed=draw(st.integers(0, 100)),
        margin=draw(st.sampled_from([1.0, 3.0, 12.0])))
    return g, matrix, draw(_cut_options)


@st.composite
def _onthefly_cut_cases(draw, raise_backoffs=True):
    """An on-the-fly task whose small LM may back off with positive log10
    weights (negative epsilon weights in HCLG3) unless ``raise_backoffs``
    is false, a noisy utterance and decode options."""
    big, small, lex, sent = draw(oracle_tasks())
    for gram, e in list(small.ngrams(1)):
        if raise_backoffs and e.backoff is not None and draw(st.booleans()):
            small.add_entry(gram, e.logprob, draw(st.integers(1, 8)) / 10)
    noise = draw(st.sampled_from([0.5, 1.0, 2.0]))
    seed = draw(st.integers(0, 100))
    return big, small, lex, sent, noise, seed, draw(_cut_options)


@st.composite
def _one_frame_meetings(draw):
    """A static graph where frame-0 tokens at states 0 to n-1, at costs
    spread over 0 to 3, reach 2 to 4 shared target states by phone 1
    at weights 0 to 3; the tokens, costliest first, so that later
    tokens lower the cutoff; and (beam, lattice beam).  Set-aside
    arrivals then often meet a later, cheaper one."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(2, 4))
    weight = st.integers(0, 12).map(lambda i: i / 4)
    g = Fst()
    g.add_states(n + k)
    for src in range(n):
        for _ in range(draw(st.integers(2, 5))):
            g.add_arc(src, Arc(1, draw(st.integers(0, 3)), draw(weight),
                               n + draw(st.integers(0, k - 1))))
    g.set_initial(0)
    costs = [draw(weight) for _ in range(n)]
    order = sorted(range(n), key=lambda src: -costs[src])
    tokens = {src: [src, 0, costs[src]] for src in order}
    return (g, tokens, draw(st.sampled_from([0.5, 1.0])),
            draw(st.sampled_from([1.0, 2.0, 4.0])))


class TestCutoff:
    """Decodes with the frame step's cutoff against the uncut reference:
    equal hypotheses, costs, lattices and relay counters."""

    @settings(max_examples=300, deadline=None)
    @given(_static_cut_cases())
    def test_static_decode_equals_uncut(self, case):
        g, matrix, opts = case
        got, want = (_cut_outcome(lambda: decode_static(g, matrix, opts), uncut)
                     for uncut in (False, True))
        _assert_cut_equals_uncut(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_onthefly_cut_cases(),
                     _onthefly_cut_cases(raise_backoffs=False)))
    def test_onthefly_and_rescore_equal_uncut(self, case):
        big, small, lex, sent, noise, seed, opts = case
        runs = []
        for uncut in (False, True):  # each on cold graphs, for the counters
            hclg3, g3neg, g4 = _onthefly_graphs(lex, big, small)
            matrix = oracle_audio(hclg3, lex, sent, noise=noise, seed=seed)
            stats = RelayStats()
            onthefly = _cut_outcome(lambda: decode_onthefly(
                hclg3, g3neg, g4, matrix, opts, stats), uncut)
            rescore = _cut_outcome(lambda: rescore_lattice(
                decode_static(hclg3, matrix, opts), g3neg, g4, stats), uncut)
            runs.append((onthefly, rescore, stats))
        # Drawn LMs may back off at a negative weight; then HCLG3's
        # back-off arcs propagate, and the frame step reads no station of
        # a back-off state.
        event("failure reads" if search_space(hclg3, g3neg, g4)._rows.failure
              else "propagation")
        (got, got_rescore, got_stats), (want, want_rescore, want_stats) = runs
        _assert_cut_equals_uncut(got, want)
        _assert_cut_equals_uncut(got_rescore, want_rescore)
        assert got_stats == want_stats


    @staticmethod
    def _one_frame(arcs, finals):
        """A static graph from state 0 over phone 1, with the given arcs
        (source, ilabel, olabel, weight, target) and finals, and a one-frame
        utterance where phone 1 costs 0."""
        g = Fst()
        g.add_states(1 + max(a[4] for a in arcs))
        for src, il, ol, w, dst in arcs:
            g.add_arc(src, Arc(il, ol, w, dst))
        for q in finals:
            g.set_final(q, 0.0)
        g.set_initial(0)
        return g, AcousticMatrix("u", np.array([[0.0]]))

    def test_set_aside_parallel_arc_keeps_its_place(self):
        # Beam 1.0, lattice beam 2.0.  State 0 reaches state 1 at 0.0, then
        # state 2 by two parallel arcs: at 1.5, beyond the cutoff, so set
        # aside, and at 0.5, which makes the token.  The lattice keeps both
        # arcs in the order the graph lists them, as the uncut step does.
        g, matrix = self._one_frame(
            [(0, 1, 0, 0.0, 1), (0, 1, 1, 1.5, 2), (0, 1, 2, 0.5, 2)], (1, 2))
        opts = DecodeOptions(beam=1.0, lattice_beam=2.0)
        got, want = (_cut_outcome(lambda: decode_static(g, matrix, opts), uncut)
                     for uncut in (False, True))
        _assert_cut_equals_uncut(got, want)
        lines = got[2].splitlines()
        parallel = [line for line in lines if line.split()[2:4] in
                    (["1", "1"], ["1", "2"])]
        assert [line.split()[3] for line in parallel] == ["1", "2"]

    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    def test_epsilon_target_beyond_the_cutoff_is_made(self, sort):
        # Beam 1.0, lattice beam 2.0.  State 0 reaches state 1 at 0.0,
        # state 2 at 1.5, beyond the cutoff, and state 3 at 0.2, whose
        # epsilon arc brings state 2 to 0.3.  State 2 has no epsilon-input
        # arc of its own, but propagation improves its token, so the frame
        # step makes it: its link from state 0 lies within the lattice beam
        # of 0.3.
        g, matrix = self._one_frame(
            [(0, 1, 0, 0.0, 1), (0, 1, 1, 1.5, 2), (0, 1, 0, 0.2, 3),
             (3, 0, 0, 0.1, 2)], (1, 2))
        if sort:
            g.arc_sort_input()
        space = SearchSpace(g)
        assert list(map(bool, space.ends)) == [False, False, True, True]
        steps = []
        for advance in (space.advance, lambda *a: _uncut_advance(space, *a)):
            tokens = {0: [0, 0, 0.0]}
            space.propagate(tokens, 0, 2.0)
            out = advance(tokens, matrix.padded_row(0), 1, 2.0, 1.0)
            space.propagate(out, 1, 2.0)
            t = out[2]
            steps.append((t[2], [(p[0], p[1], il, ol, w)
                                 for p, il, ol, w in links(t)]))
        assert steps[0] == steps[1]
        assert steps[0] == (0.2 + 0.1, [(0, 0, 1, 1, 1.5), (3, 1, 0, 0, 0.1)])
        opts = DecodeOptions(beam=1.0, lattice_beam=2.0)
        got, want = (_cut_outcome(lambda: decode_static(g, matrix, opts), uncut)
                     for uncut in (False, True))
        _assert_cut_equals_uncut(got, want)

    def test_epsilon_target_beyond_the_lattice_beam_is_made(self):
        # Beam 1.0, lattice beam 2.0, so the wide cutoff stands at 3.0 once
        # state 1 is made at 0.0.  State 2, the target of state 3's
        # epsilon arc and the source of none, is reached at 5.0, beyond
        # it.  One flag (an end of an epsilon arc) decides beyond the
        # cutoff, so the step makes state 2's token, as the uncut step
        # does; propagation then improves it to 0.3.
        g, matrix = self._one_frame(
            [(0, 1, 0, 0.0, 1), (0, 1, 1, 5.0, 2), (0, 1, 0, 0.2, 3),
             (3, 0, 0, 0.1, 2)], (1, 2))
        space = SearchSpace(g)
        assert [bool(e) for e in space.eps] == [False, False, False, True]
        assert [bool(e) for e in space.ends] == [False, False, True, True]
        tokens = {0: [0, 0, 0.0]}
        cut, uncut, hits = self._frame_step(space, tokens, 1.0, 2.0)
        assert hits == []
        assert cut[2] == uncut[2] == [2, 1, 5.0, tokens[0], 1, 1, 5.0]
        self._assert_static_decode_equals_uncut(g, matrix)

    # A hit is a state whose arrivals were set aside before a later
    # arrival in the same frame made its token; the frame step rebuilds its
    # set-aside arrivals from the frame's arcs and replays them.  These
    # cases compare the hit's token with the uncut step's, link for link:
    # the lattice builder merges a repeated link and drops one far above
    # its token's cost, so a decode alone would not show a rebuild that
    # repeats or keeps one.

    @staticmethod
    def _frame_step(space, tokens, beam, slack):
        """One frame step from ``tokens`` at phone 1's cost 0, cut and
        uncut, and the hits of each replay in the cut step, sorted."""
        replay = decoder.SearchSpace._replay
        hits = []

        def spy(self, tokens, out, found, *args):
            hits.append(sorted(found))  # before the replay empties it
            replay(self, tokens, out, found, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder.SearchSpace, "_replay", spy)
            cut = space.advance(tokens, [INF, 0.0], 1, slack, beam)
        return cut, _uncut_advance(space, tokens, [INF, 0.0], 1, slack), hits

    @settings(max_examples=200, deadline=None)
    @given(_one_frame_meetings())
    def test_replayed_frames_equal_uncut(self, case):
        g, tokens, beam, slack = case
        cut, uncut, hits = self._frame_step(SearchSpace(g), tokens, beam, slack)
        event("replays" if hits else "no replay")
        _assert_step_equals_uncut(cut, uncut, beam, slack)

        def kept(tok):  # its links within the lattice beam, in order
            return [lk for lk in links(tok) if lk[0][2] + lk[3] <= tok[2] + slack]

        best = min(t[2] for t in uncut.values())
        for sid in chain.from_iterable(hits):
            if uncut[sid][2] <= best + beam:
                assert kept(cut[sid]) == kept(uncut[sid])

    def _assert_static_decode_equals_uncut(self, g, matrix):
        opts = DecodeOptions(beam=1.0, lattice_beam=2.0)
        got, want = (_cut_outcome(lambda: decode_static(g, matrix, opts), uncut)
                     for uncut in (False, True))
        _assert_cut_equals_uncut(got, want)

    def test_rebuild_takes_set_aside_arrivals_from_two_source_tokens(self):
        # Beam 1.0, lattice beam 2.0.  Epsilon arcs give frame 0 tokens at
        # states 0, 1 and 2, all at 0.0.  State 0 reaches state 3 at 0.0;
        # state 1 reaches state 4 at 1.5, beyond the cutoff, and so does
        # state 2 at 1.75, both set aside; state 2 then makes state 4's
        # token at 0.5 and adds a link at 1.0.  The rebuild takes the
        # arrivals of both runs, and stops at the arrival that made the
        # token.
        g, matrix = self._one_frame(
            [(0, 0, 0, 0.0, 1), (0, 0, 0, 0.0, 2), (0, 1, 0, 0.0, 3),
             (1, 1, 1, 1.5, 4), (2, 1, 2, 1.75, 4), (2, 1, 3, 0.5, 4),
             (2, 1, 4, 1.0, 4)], (3, 4))
        space = SearchSpace(g)
        tokens = {0: [0, 0, 0.0]}
        space.propagate(tokens, 0, 2.0)
        assert list(tokens) == [0, 1, 2]
        cut, uncut, hits = self._frame_step(space, tokens, 1.0, 2.0)
        assert hits == [[4]]
        assert cut[4] == uncut[4]
        assert [(p[0], ol, w) for p, _, ol, w in links(cut[4])] == [
            (1, 1, 1.5), (2, 2, 1.75), (2, 3, 0.5), (2, 4, 1.0)]
        self._assert_static_decode_equals_uncut(g, matrix)

    def test_replay_keeps_what_the_uncut_step_keeps(self):
        # Beam 1.0, lattice beam 2.0.  State 0 reaches state 1 at 2.0, so
        # the wide cutoff stands at 2.0 + 3.0, and state 2 at 4.0, which is
        # set aside.  Then state 3 at 0.0 lowers the wide cutoff to 3.0,
        # and state 2's token is made at 0.5.  The set-aside arrival now
        # lies beyond the final wide cutoff, more than the lattice beam
        # above the token; the replay keeps its link, as the uncut step
        # does, and the lattice builder drops it in both.
        g, matrix = self._one_frame(
            [(0, 1, 0, 2.0, 1), (0, 1, 1, 4.0, 2), (0, 1, 0, 0.0, 3),
             (0, 1, 2, 0.5, 2)], (1, 2, 3))
        space = SearchSpace(g)
        cut, uncut, hits = self._frame_step(space, {0: [0, 0, 0.0]},
                                            1.0, 2.0)
        assert hits == [[2]]
        assert [(ol, w) for _, _, ol, w in links(uncut[2])] == [(1, 4.0),
                                                                (2, 0.5)]
        assert cut[2] == uncut[2]
        self._assert_static_decode_equals_uncut(g, matrix)

    def test_rebuild_rescans_station_parts(self):
        # On the fly.  Search-graph state 0, composed from G3neg state 1,
        # backs off at 0.25 to state 1 (G3neg state 0), whose morpheme arcs
        # a token at state 0 reads from the station (1, 0), at hop weight
        # h = 0.25.  Beam 1.0, lattice beam 2.0: the token's own arc makes
        # state 3 at 0.0; then, in the station part, morpheme 2 reaches
        # state 2 at 1.25 + h, set aside, morpheme 3 makes its token at
        # 0.25 + h, and morpheme 2 adds a link at 0.75 + h.
        hclg = Fst()
        hclg.add_states(4)
        for src, arc in ((0, Arc(0, 0, 0.25, 1)), (0, Arc(1, 0, 0.0, 3)),
                         (1, Arc(1, 2, 1.25, 2)), (1, Arc(1, 3, 0.25, 2)),
                         (1, Arc(1, 2, 0.75, 2))):
            hclg.add_arc(src, arc)
        hclg.set_initial(0)
        hclg.set_final(2, 0.0)
        hclg.set_final(3, 0.0)
        g3neg = Fst()
        g3neg.add_states(2)
        for src, arc in ((1, Arc(0, 0, 0.0, 0)), (1, Arc(1, 1, 0.0, 0)),
                         *((0, Arc(m, m, 0.0, 0)) for m in (1, 2, 3))):
            g3neg.add_arc(src, arc)
        g3neg.set_initial(1)
        g3neg.set_final(0, 0.0)
        g3neg.arc_sort_input()
        g4 = _loop_lm(1, 1, 0.0)
        for m in (2, 3):
            g4.add_arc(0, Arc(m, m, 0.0, 0))
        g4.arc_sort_input()
        space = search_space(hclg, g3neg, g4)
        assert space._rows.failure
        tokens = {space.initial: [space.initial, 0, 0.0]}
        cut, uncut, hits = self._frame_step(space, tokens, 1.0, 2.0)
        assert space.emit[space.initial] is None  # it reads a station
        hit = space.state_id((2, 0, 0))
        assert hits == [[hit]]
        assert cut[hit] == uncut[hit]
        assert [(ol, w) for _, _, ol, w in links(cut[hit])] == [
            (2, 1.5), (3, 0.5), (2, 1.0)]
        opts = DecodeOptions(beam=1.0, lattice_beam=2.0)
        matrix = AcousticMatrix("u", np.array([[0.0]]))
        got, want = (_cut_outcome(lambda: decode_onthefly(
            hclg, g3neg, g4, matrix, opts), uncut) for uncut in (False, True))
        _assert_cut_equals_uncut(got, want)


# -- stations: tokens that meet at a back-off state ------------------------

class _CountingRow(list):
    """A frame's costs that count the arcs a frame step scans at them: one
    lookup per arc."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return list.__getitem__(self, i)


def _part_rows(hops, sid):
    """The station rows of the parts ``_meet`` gives state sid's token, in
    the order the frame step scans them: the parts are chained as
    ``(costs, rows, next part, bound, targets)``, the last one's next
    None."""
    part = hops.get(sid)
    while part is not None:
        costs, rows, part, _, _ = part
        yield rows


def _counting_parts(hops):
    """``hops`` with each part's costs, the frame's plus its hop weight, in
    a counting list of its own, and those lists: each counts the arcs the
    frame step scans in its part, none where it drops or sets aside the
    part whole."""
    rows = []

    def chain_of(part):
        if part is None:
            return None
        costs, arcs, rest, bound, targets = part
        rows.append(_CountingRow(costs))
        return (rows[-1], arcs, chain_of(rest), bound, targets)
    return {sid: chain_of(part) for sid, part in hops.items()}, rows


def _counted_advance(space, tokens, row, frame, slack, beam=INF):
    """``space.advance`` over the counting ``row``, and the arcs it scanned:
    the lookups in row, plus those in the costs of each station part,
    which it scans at the frame's costs plus their hop weight, but for
    the replay's rescan of the parts."""
    meet, replay = space._meet, space._replay  # spies on the instance stay
    counted = []

    def counting(tokens, slack, frame_costs):
        plan, hops = meet(tokens, slack, frame_costs)
        hops, rows = _counting_parts(hops)
        counted.extend(rows)
        return plan, hops

    def uncounted(*args):
        before = [r.lookups for r in counted]
        replay(*args)
        for r, n in zip(counted, before):
            r.lookups = n

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space, "_meet", counting)
        mp.setattr(space, "_replay", uncounted)
        out = space.advance(tokens, row, frame, slack, beam)
    return out, row.lookups + sum(r.lookups for r in counted)


def _kept_links(tok, slack):
    """A token's links within ``slack`` of its cost, as a multiset."""
    return sorted((id(prev), il, ol, w) for prev, il, ol, w in links(tok)
                  if prev[2] + w <= tok[2] + slack)


def _assert_step_equals_uncut(got, want, beam, slack):
    """A frame step's tokens against the uncut step's from the same tokens:
    equal costs, tokens missing only beyond the beam of the best, and
    equal links within the lattice beam on every token within the beam."""
    best = min(t[2] for t in want.values())
    assert got.keys() <= want.keys()
    for sid, t in want.items():
        if sid not in got:  # skipped by the cutoff, beyond the beam
            assert t[2] > best + beam
            continue
        assert got[sid][2] == t[2]
        if t[2] <= best + beam:
            assert _kept_links(got[sid], slack) == _kept_links(t, slack)


def _assert_stations_equal_full_scan(space, matrix, opts):
    """Run a decode's frames with the station pass, checking each frame
    against the full scan from the same tokens: equal costs, and equal
    links within the lattice beam, on every token within the beam of the
    frame's best.  Returns the arcs each pass scanned."""
    slack, beam = opts.lattice_beam, opts.beam
    tokens = {space.initial: [space.initial, 0, 0.0]}
    space.propagate(tokens, 0, slack)
    scanned = [0, 0]
    for frame in range(matrix.num_frames):
        got, n = _counted_advance(space, tokens,
                                  _CountingRow(matrix.padded_row(frame)),
                                  frame + 1, slack, beam)
        row = _CountingRow(matrix.padded_row(frame))
        want = _uncut_advance(space, tokens, row, frame + 1, slack)
        scanned[0] += n
        scanned[1] += row.lookups
        if not want:
            break
        _assert_step_equals_uncut(got, want, beam, slack)
        space.propagate(got, frame + 1, slack)
        tokens = space.prune(got, opts)
    return scanned


def _default_task(task_models):
    """The on-the-fly space of the default task, and the cost matrix of its
    first utterance as the pipeline synthesizes it."""
    task, g4model, g3model = task_models
    cfg = PipelineConfig()
    hclg3, g3neg, g4 = _onthefly_graphs(task.lexicon, g4model, g3model)
    space = search_space(hclg3, g3neg, g4)
    return space, synthesize_task(cfg, task, hclg3.isyms)[0]


class TestStations:
    """Tokens whose relays match at one back-off state share the scan of
    that station's arcs; the result equals a scan of every arc."""

    @pytest.mark.parametrize("beam", [INF, 16.0, 4.0])
    @pytest.mark.parametrize("lattice_beam", [0.5, 8.0])
    def test_mini_task_frames_equal_full_scan(self, mini, beam, lattice_beam):
        space = search_space(mini["HCLG3"], mini["G3neg"], mini["G4"])
        opts = DecodeOptions(beam=beam, lattice_beam=lattice_beam)
        for seed in range(3):
            matrix = _utt(mini, SENT, noise=1.0, seed=seed)
            got, full = _assert_stations_equal_full_scan(space, matrix, opts)
            assert got < full if beam == INF else got <= full  # shared

    @settings(max_examples=60, deadline=None)
    @given(_onthefly_cut_cases(), st.booleans())
    def test_drawn_task_frames_equal_full_scan(self, case, wide_open):
        big, small, lex, sent, noise, seed, opts = case
        if wide_open:
            opts = DecodeOptions(beam=INF, max_active=10 ** 9,
                                 lattice_beam=opts.lattice_beam)
        hclg3, g3neg, g4 = _onthefly_graphs(lex, big, small)
        matrix = oracle_audio(hclg3, lex, sent, noise=noise, seed=seed)
        _assert_stations_equal_full_scan(search_space(hclg3, g3neg, g4),
                                         matrix, opts)

    def test_default_task_skips_arcs_wide_open(self, task_models):
        # The default task's first utterance, wide open, with lattice beam
        # 0.5: many histories meet at its stations, as they seldom do on the
        # small drawn tasks.  A spy on the station pass counts the arcs it
        # leaves out of the plans; the full scan reads exactly those more.
        space, matrix = _default_task(task_models)
        meet = space._meet
        skipped = 0

        def spy(tokens, slack, frame_costs):
            nonlocal skipped
            plan, hops = meet(tokens, slack, frame_costs)
            for sid, own in plan.items():
                kept = len(own) + sum(map(len, _part_rows(hops, sid)))
                skipped += len(_all_arcs(space, sid)) - kept
            return plan, hops

        space._meet = spy
        opts = DecodeOptions(beam=INF, max_active=10 ** 9, lattice_beam=0.5)
        got, full = _assert_stations_equal_full_scan(space, matrix, opts)
        assert skipped > 0
        assert full - got == skipped

    @staticmethod
    def _meeting():
        """Search-graph state 0 reads morphemes 1, 2 and 3 on phone 1.  G4
        lists all three at state 0, and morpheme 1 also at state 1, which
        backs off to 0, as state 2 does, both with weight 0.5.  So from
        (0, 0, 1) and (0, 0, 2) morphemes 2 and 3 are relayed to state 0:
        both tokens meet at the station (0, 0) with hop weight 0.5, where
        only (0, 0, 2) holds morpheme 1."""
        hclg = Fst()
        hclg.add_states(4)
        for m in (1, 2, 3):
            hclg.add_arc(0, Arc(1, m, 0.0, m))
            hclg.set_final(m, 0.0)
        hclg.set_initial(0)
        g3neg = Fst()
        g3neg.add_state()
        g4 = Fst()
        g4.add_states(3)
        for m in (1, 2, 3):
            g3neg.add_arc(0, Arc(m, m, 0.0, 0))
            g4.add_arc(0, Arc(m, m, 0.0, 0))
        g4.add_arc(1, Arc(1, 1, 0.0, 1))
        for s in (1, 2):
            g4.add_arc(s, Arc(0, 0, 0.5, 0))
        for g in (g3neg, g4):
            g.set_initial(0)
            g.set_final(0, 0.0)
            g.arc_sort_input()
        return search_space(hclg, g3neg, g4)

    @pytest.mark.parametrize("costs, shared, scans", [
        ((0.0, 8.5), "x", 4), ((0.0, 7.5), "xy", 6), ((8.5, 0.0), "y", 4)],
        ids=["worse-holds-more", "within-the-slack", "worse-holds-less"])
    def test_worse_token_skips_only_labels_held_beyond_the_slack(
            self, costs, shared, scans):
        # Lattice beam 8.0.  Token x at (0, 0, 1) reads morpheme 1 at its
        # own station and 2 and 3 at (0, 0); token y at (0, 0, 2) reads all
        # three at (0, 0).  The worse of them links to the targets of 2 and
        # 3 only within the lattice beam, and y always reads morpheme 1.
        space = self._meeting()
        tokens = _tokens(space, ((0, 0, 1), costs[0]), ((0, 0, 2), costs[1]))
        x, y = tokens.values()
        out, scanned = _counted_advance(space, tokens, _CountingRow([INF, 0.0]),
                                        1, 8.0)
        into = {space.triple(sid): "".join("y" if lk[0] is y else "x"
                                           for lk in links(t))
                for sid, t in out.items()}
        assert into == {(1, 0, 1): "x", (1, 0, 0): "y",
                        (2, 0, 0): shared, (3, 0, 0): shared}
        assert out[space.state_id((1, 0, 0))][2] == costs[1] + 0.5
        assert out[space.state_id((2, 0, 0))][2] == min(costs) + 0.5
        assert scanned == scans
        assert out.keys() == _uncut_advance(space, tokens, [INF, 0.0], 1,
                                            8.0).keys()


# -- blocked station tables: one bound test per phone block ----------------

_BLOCK_PHONES = ("a", "b", "c", "d")


@st.composite
def _blocked_tasks(draw):
    """A task whose small LM's unigram state reads 72 morphemes, 18 after
    each of the phones a-d, so that its station table is kept as blocks of
    rows.  Six of the morphemes after phone a have one phone, so that
    their arcs end at LM states, which are ends of epsilon arcs where
    those propagate.  The big LM is a bigram model with drawn unigrams,
    bigrams and back-off weights.  Where it lists 66 words after <s>, the
    station where its <s> state meets the unigram state is blocked too,
    and the group of a pair there may hold part of it.  The small LM is a
    pruned copy, whose back-off weights are raised above 0 (negative
    epsilon weights in HCLG3, which then propagate) if drawn.  Also a
    sentence of 2-5 morphemes, a noisy utterance with close phone costs,
    and decode options."""
    rnd = draw(st.randoms(use_true_random=False))
    vocab = [f"w{i}" for i in range(72)]
    lex = Lexicon()
    for i, w in enumerate(vocab):
        first = _BLOCK_PHONES[i % 4]
        lex.add(w, [first] if i % 12 == 0 else
                [first, _BLOCK_PHONES[(i // 4) % 4]])
    big = NGramModel(2)
    big.add_entry((BOS,), -99.0, -rnd.randint(1, 10) / 20)
    for w in vocab:
        big.add_entry((w,), -rnd.randint(15, 25) / 10, -rnd.randint(1, 10) / 20)
    big.add_entry((EOS,), -rnd.randint(10, 25) / 10)
    listed = draw(st.sampled_from([6, 66]))  # the words listed after <s>
    for h, n in [(BOS, listed)] + [(h, 6) for h in rnd.sample(vocab, 8)]:
        for w in rnd.sample(vocab + [EOS], n):
            big.add_entry((h, w), -rnd.randint(1, 15) / 10)
    big.validate()
    small = prune_to_small_lm(big, draw(st.sampled_from([0.02, 0.1])), 2)
    if draw(st.booleans()):  # raise_backoffs
        for gram, e in list(small.ngrams(1)):
            if e.backoff is not None and rnd.random() < 0.5:
                small.add_entry(gram, e.logprob, rnd.randint(1, 8) / 10)
    sent = [rnd.choice(vocab) for _ in range(rnd.randint(2, 5))]
    audio = dict(noise=draw(st.sampled_from([0.5, 1.0, 2.0])),
                 seed=rnd.randint(0, 100),
                 margin=draw(st.sampled_from([1.0, 3.0, 12.0])))
    return big, small, lex, sent, audio, draw(_cut_options)


class _Targets:
    """A block's target ids that count the frame step's passes over them:
    the first asks whether any has a token, the second sets them aside."""

    def __init__(self, targets):
        self.targets, self.passes = targets, 0

    def __iter__(self):
        self.passes += 1
        return iter(self.targets)


def _spied_blocks(space):
    """Spies on the space's station pass and replay.  The station pass
    gives each block's part (a part with targets) costs that count
    the arcs scanned in it and targets that count the passes over them.
    Returns a function that classifies the last frame's blocks: (scanned,
    set aside whole, dropped whole, whether it replayed)."""
    meet, replay = space._meet, space._replay
    blocks, replayed = [], []

    def spy_meet(tokens, slack, frame_costs):
        plan, hops = meet(tokens, slack, frame_costs)

        def spied(part):
            if part is None:
                return None
            costs, arcs, rest, bound, targets = part
            if targets is None:  # an unblocked part
                return costs, arcs, spied(rest), bound, targets
            if bound == -INF:
                event("a block with a target at an epsilon end")
            block = (_CountingRow(costs), _Targets(targets))
            blocks.append(block)
            return block[0], arcs, spied(rest), bound, block[1]
        return plan, {sid: spied(part) for sid, part in hops.items()}

    def spy_replay(*args):
        before = [costs.lookups for costs, _ in blocks]
        replayed.append(True)
        replay(*args)
        for (costs, _), n in zip(blocks, before):
            costs.lookups = n

    space._meet, space._replay = spy_meet, spy_replay

    def frame_events():
        scanned = sum(1 for costs, _ in blocks if costs.lookups)
        aside = sum(1 for costs, t in blocks
                    if not costs.lookups and t.passes == 2)
        out = (scanned, aside, len(blocks) - scanned - aside, bool(replayed))
        blocks.clear()
        replayed.clear()
        return out
    return frame_events


class TestBlockedStations:
    """A station table of many rows is kept as blocks, one per run of rows
    that read one phone, with the least station weight and the target ids
    of each.  The frame step drops a block whole where its bound, the
    token's cost plus the least weight plus the phone's cost, lies beyond
    the wide cutoff, sets it aside whole where the bound lies beyond the
    cutoff and no target has a token, and scans it arc by arc otherwise:
    the result is the uncut step's."""

    @settings(max_examples=200, deadline=None)
    @given(_blocked_tasks())
    def test_blocked_frames_equal_uncut(self, case):
        big, small, lex, sent, audio, opts = case
        hclg3, g3neg, g4 = _onthefly_graphs(lex, big, small)
        matrix = oracle_audio(hclg3, lex, sent, **audio)
        space = search_space(hclg3, g3neg, g4)
        event("failure reads" if space._rows.failure else "propagation")
        frame_events = _spied_blocks(space)
        slack, beam = opts.lattice_beam, opts.beam
        tokens = {space.initial: [space.initial, 0, 0.0]}
        space.propagate(tokens, 0, slack)
        for frame in range(matrix.num_frames):
            row = matrix.padded_row(frame)
            got = space.advance(tokens, row, frame + 1, slack, beam)
            scanned, aside, dropped, replayed = frame_events()
            for name, n in (("scanned", scanned), ("set aside whole", aside),
                            ("dropped whole", dropped)):
                if n:
                    event(f"a block {name}")
            if aside and replayed:
                event("a replay after a block set aside whole")
            want = _uncut_advance(space, tokens, row, frame + 1, slack)
            if not want:
                break
            _assert_step_equals_uncut(got, want, beam, slack)
            # Every arrival at an end of a propagating epsilon arc makes a
            # token, beyond the cutoff too.
            assert {sid for sid in want if space.ends[sid]} <= got.keys()
            # And after epsilon propagation, which can bring a token made
            # beyond the cutoff back under the beam.
            space.propagate(got, frame + 1, slack)
            space.propagate(want, frame + 1, slack)
            self._assert_propagated_equal(got, want, beam, slack)
            tokens = space.prune(got, opts)
        assert any(blocks for _, blocks in space._states.stations.values())

    @staticmethod
    def _assert_propagated_equal(got, want, beam, slack):
        """``_assert_step_equals_uncut`` after both steps' tokens were
        propagated: a link's source is then a token of either step, so it
        is named by its state and frame."""
        def kept(tok):
            return sorted((prev[0], prev[1], il, ol, w)
                          for prev, il, ol, w in links(tok)
                          if prev[2] + w <= tok[2] + slack)
        best = min(t[2] for t in want.values())
        assert got.keys() <= want.keys()
        for sid, t in want.items():
            if sid not in got:
                assert t[2] > best + beam
                continue
            assert got[sid][2] == t[2]
            if t[2] <= best + beam:
                assert kept(got[sid]) == kept(t)

    @settings(max_examples=60, deadline=None)
    @given(_blocked_tasks())
    def test_blocked_decodes_equal_uncut(self, case):
        big, small, lex, sent, audio, opts = case
        runs = []
        for uncut in (False, True):  # each on cold graphs, for the counters
            hclg3, g3neg, g4 = _onthefly_graphs(lex, big, small)
            matrix = oracle_audio(hclg3, lex, sent, **audio)
            stats = RelayStats()
            runs.append((_cut_outcome(lambda: decode_onthefly(
                hclg3, g3neg, g4, matrix, opts, stats), uncut), stats))
        (got, got_stats), (want, want_stats) = runs
        _assert_cut_equals_uncut(got, want)
        assert got_stats == want_stats

def _reference_reads(space, g3neg, q1):
    """(state, G3neg state, back-off weight walked) for q1 (weight 0)
    and, where every epsilon-input arc of the search graph is eps:eps with
    a weight of at least 0, depth first in arc order, each state its
    eps:eps arcs reach, found arc by arc: each hop takes G3neg's back-off
    arc and adds the search graph's arc weight, left to right."""
    graph = space.graph
    propagates = any(a.ilabel == 0 and (a.olabel or a.weight < 0)
                     for s in range(graph.num_states) for a in graph.arcs(s))
    reads = []

    def walk(p, g, wb):
        reads.append((p, g, wb))
        if propagates:
            return
        for a in graph.arcs(p):
            if a.ilabel == 0 and a.olabel == 0:
                b = find_arc(g3neg, g, 0)
                walk(a.nextstate, b.nextstate, wb + a.weight)
    walk(q1, space._g3[q1], 0.0)
    return reads


def _reference_emit(space, g3neg, g4, sid):
    """State sid's emitting arcs expanded one arc at a time, over q1 and
    the states its back-off arcs reach (``_reference_reads``), with a
    per-label ``_reference_relay`` for each morpheme arc: (own arcs,
    [[station, h, arcs]]), each arc ``(ilabel, olabel, weight, next
    triple)``, each state's segments in the order of their first arcs, and
    every float as hex, so that equal is bit-identical.  A back-off
    state's ``phone:eps`` arcs weigh ``w + wb``, wb the weight walked to
    it.  A segment's arcs weigh ``(w + G3neg arc weight) + G4 arc
    weight``, and its h is ``acc2 + acc3``, the weights of the two LM
    back-off walks, plus wb at a back-off state."""
    q1, q2, q3 = space.triple(sid)
    n1 = len(space._g3)
    scratch = RelayStats()
    own, segs = [], []
    for p, g, wb in _reference_reads(space, g3neg, q1):
        found = {}
        for il, ol, w, ns in space.graph.arcs(p):
            if not il:
                continue
            if not ol:
                own.append((il, ol, (w + wb).hex(), (ns, q2, q3)))
                continue
            e2, acc2, _, at = _reference_relay(g3neg, q2, ol, scratch)
            if e2 is None or at != g:
                continue
            e3, acc3, _, at3 = _reference_relay(g4, q3, ol, scratch)
            if e3 is None:
                continue
            h = (acc2 + acc3) + wb
            seg = found.setdefault(at3, [p + n1 * at3, h.hex(), []])
            weight = (w + e2.weight) + e3.weight
            seg[2].append((il, ol, weight.hex(),
                           (ns, e2.nextstate, e3.nextstate)))
        segs += found.values()
    return own, segs


def _expansion(space, sid):
    """State sid's emitting arcs as ``_expand_emit`` makes them, in the
    form of ``_reference_emit``."""
    own, segs = space._shared.get(sid) or space._expand_emit(sid)

    def arcs(tab):
        return [(il, ol, w.hex(), space.triple(nid)) for il, ol, w, nid in tab]
    return arcs(own), [[st, h.hex(), arcs(_block_rows(tab, blocks))]
                       for st, h, tab, _, blocks in segs]


class TestStationTables:
    """Each station's arcs are made once, as a table whose rows every LM
    pair meeting there shares, with its hop weight beside them, and a
    token reads the stations of the states its back-off arcs reach: bit
    for bit the per-arc expansion."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_onthefly_cut_cases(raise_backoffs=False),
                     _onthefly_cut_cases()))
    def test_expansion_equals_per_arc_reference(self, case):
        big, small, lex, sent, noise, seed, opts = case
        hclg3, g3neg, g4 = _onthefly_graphs(lex, big, small)
        matrix = oracle_audio(hclg3, lex, sent, noise=noise, seed=seed)
        try:
            decode_onthefly(hclg3, g3neg, g4, matrix, opts)
        except EmptyResultError:
            pass  # the states it interned are checked all the same
        space = search_space(hclg3, g3neg, g4)
        # Drawn LMs may back off at a negative weight; then HCLG3's
        # back-off arcs propagate, and a token reads q1 alone.
        event("failure reads" if space._rows.failure else "propagation")
        for sid in range(len(space._triples)):  # the states the decode interned
            assert _expansion(space, sid) == _reference_emit(space, g3neg, g4, sid)

    def test_onthefly_and_rescore_sum_each_arc_in_one_order(self):
        # Search-graph arc 0 -> 1 reads phone 1 and morpheme 1 with weight
        # 0.1; G3neg lists morpheme 1 at its state 0 with weight 0.1, and
        # G4, starting at state 1, backs off with weight 0.3 to state 0,
        # which lists it with weight 0.4.  These floats sum to a different
        # value in each other order, so both strategies must make the
        # station row's ((w + e2w) + e3w) and then add h.
        self._assert_one_order([(0, Arc(1, 1, 0.1, 1))])

    def test_epsilon_input_morpheme_arcs_sum_in_the_same_order(self):
        # The same morpheme and LMs, read on an epsilon-input arc 0 -> 2
        # before the phone arc 2 -> 1: the per-arc path that expands it
        # must make the same float as a station row plus h.
        self._assert_one_order([(0, Arc(0, 1, 0.1, 2)), (2, Arc(1, 0, 0.0, 1))])

    @staticmethod
    def _assert_one_order(arcs):
        hclg = Fst()
        hclg.add_states(3)
        for s, a in arcs:
            hclg.add_arc(s, a)
        hclg.set_initial(0)
        hclg.set_final(1, 0.0)
        g3neg = _loop_lm(1, 1, 0.1)
        g4 = Fst()
        g4.add_states(2)
        g4.add_arc(0, Arc(1, 1, 0.4, 0))
        g4.add_arc(1, Arc(0, 0, 0.3, 0))
        g4.set_initial(1)
        g4.set_final(0, 0.0)
        g4.arc_sort_input()
        matrix = AcousticMatrix("u", np.zeros((1, 1)))
        costs = [best_path(lat)[1] for lat in (
            decode_onthefly(hclg, g3neg, g4, matrix),
            rescore_lattice(decode_static(hclg, matrix), g3neg, g4))]
        assert costs == [((0.1 + 0.1) + 0.4) + 0.3] * 2

    def test_station_leaves_out_phone_arcs(self):
        # Search-graph state 0 reads phone 1 on a phone:eps arc to state 1
        # and on a morpheme arc to state 2.  The station table of (0, 0)
        # holds the morpheme's row alone; the phone:eps arc is an own arc.
        hclg = Fst()
        hclg.add_states(3)
        hclg.add_arc(0, Arc(1, 0, 0.5, 1))
        hclg.add_arc(0, Arc(1, 5, 0.25, 2))
        hclg.set_initial(0)
        g3neg, g4 = _listing_lm([5]), _listing_lm([5])
        space = search_space(hclg, g3neg, g4)
        sid = space.initial
        own, segs = space._expand_emit(sid)
        assert own == ((1, 0, 0.5, space.state_id((1, 0, 0))),)
        assert space._states.stations == {
            (0, 0): (((1, 5, 0.25, space.state_id((2, 0, 0))),), None)}
        assert _expansion(space, sid) == _reference_emit(space, g3neg, g4, sid)

    def test_each_station_table_is_built_once_and_shared(self, task_models):
        # A cold decode of the default task's first utterance.  The spy
        # records, per station, each table it returns and the LM pairs of
        # the states that read it.
        space, matrix = _default_task(task_models)
        station, expand = decoder._OnTheFlySpace._station, \
            decoder._OnTheFlySpace._expand_emit
        built = {}
        readers = {}
        pairs = []

        def spy_station(self, q1, g, at3):
            fresh = (q1, at3) not in self._states.stations
            rows = station(self, q1, g, at3)
            built[(q1, at3)] = built.get((q1, at3), 0) + fresh
            readers.setdefault(id(rows), (rows, set()))[1].add(pairs[-1])
            return rows

        def spy_emit(self, sid):
            pairs.append(self.triple(sid)[1:])
            try:
                return expand(self, sid)
            finally:
                pairs.pop()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder._OnTheFlySpace, "_station", spy_station)
            mp.setattr(decoder._OnTheFlySpace, "_expand_emit", spy_emit)
            decode_onthefly(space.graph, space.g3neg, space.g4, matrix)
        assert built and set(built.values()) == {1}
        assert len(readers) == len(built) == len(space._states.stations)
        assert max(len(p) for _, p in readers.values()) >= 2
        # Every row of every segment is one of its station's own row
        # objects, in the station's order: no LM pair copies a row.
        n1 = len(space._g3)
        segments = 0
        for own, segs in space._shared.values():
            for st, _, rows, _, blocks in segs:
                kept = iter(_block_rows(
                    *space._states.stations[(st % n1, st // n1)]))
                assert all(any(r is t for t in kept)
                           for r in _block_rows(rows, blocks))
                segments += 1
        assert segments > len(space._states.stations)


# -- back-off arcs read as failure transitions ------------------------------

class TestBackoffReads:
    """An on-the-fly token reads the states that its search-graph state's
    eps:eps back-off arcs reach, in the frame step: no token or link is
    made at a back-off state, and no arc propagates."""

    def test_default_task_tokens_sit_at_their_g3neg_state(self, task_models):
        # Wide open, every token the frame step makes on the default task
        # is at a search-graph state composed from its own G3neg state: a
        # token that backed off would sit at a lower context's state.
        space, matrix = _default_task(task_models)
        opts = DecodeOptions(beam=INF, max_active=10 ** 9)
        tokens = {space.initial: [space.initial, 0, 0.0]}
        made = 0
        for frame in range(matrix.num_frames):
            tokens = space.advance(tokens, matrix.padded_row(frame),
                                   frame + 1, opts.lattice_beam, opts.beam)
            before = list(tokens)
            space.propagate(tokens, frame + 1, opts.lattice_beam)
            assert list(tokens) == before  # propagation has nothing to do
            for sid in tokens:
                q1, q2, _ = space.triple(sid)
                assert space._g3[q1] == q2
            made += len(tokens)
            tokens = space.prune(tokens, opts)
        assert made > matrix.num_frames
        assert not any(space.eps) and not any(space.ends)

    def test_propagate_returns_at_once_where_nothing_propagates(
            self, task_models):
        # The default task's HCLG3 has only eps:eps arcs of weight at least
        # 0, so propagation has no arc: it hands back the token dict
        # without reading a state's epsilon entry.
        space, _ = _default_task(task_models)
        assert space._rows.failure
        tokens = {space.initial: [space.initial, 0, 0.0]}
        space.eps = None  # this space only; a scan of the tokens would fail
        assert space.propagate(tokens, 0, 8.0) is tokens
        assert list(tokens) == [space.initial]

    @staticmethod
    def _two_hop_task(w4, parallel):
        """Search-graph state 0, composed from G3neg state 2, backs off to
        state 1 (G3neg state 1), which backs off to state 2 (G3neg state
        0): a two-hop chain.  State 1 has a phone:eps arc, to state 3,
        which reads morpheme 1; state 2 reads morpheme 2.  G3neg lists
        morpheme 1 at its state 1 and morpheme 2 at its state 0; G4 lists
        both at one state, morpheme 2 at weight w4.  Both paths read phone
        1, then phone 2, and end at state 4.  With ``parallel``, a second,
        dearer back-off arc from state 0 reaches state 1 too, so a token
        at state 0 reads states 1 and 2 twice."""
        hclg = Fst()
        hclg.add_states(6)
        if parallel:
            hclg.add_arc(0, Arc(0, 0, 0.25, 1))
        for src, arc in ((0, Arc(0, 0, 0.2, 1)), (1, Arc(0, 0, 0.1, 2)),
                         (1, Arc(1, 0, 0.05, 3)), (3, Arc(2, 1, 0.6, 4)),
                         (2, Arc(1, 2, 0.7, 5)), (5, Arc(2, 0, 0.0, 4))):
            hclg.add_arc(src, arc)
        hclg.set_initial(0)
        hclg.set_final(4, 0.0)
        g3neg = Fst()
        g3neg.add_states(3)
        for src, arc in ((0, Arc(2, 2, -1.0, 0)), (1, Arc(0, 0, 0.5, 0)),
                         (1, Arc(1, 1, -0.75, 0)), (2, Arc(0, 0, 0.25, 1))):
            g3neg.add_arc(src, arc)
        g3neg.set_initial(2)
        g3neg.set_final(0, 0.0)
        g3neg.arc_sort_input()
        g4 = _loop_lm(1, 1, 0.3)
        g4.add_arc(0, Arc(2, 2, w4, 0))
        g4.arc_sort_input()
        matrix = AcousticMatrix("u", np.array([[0.125, 2.0], [3.0, 0.375]]))
        return hclg, g3neg, g4, matrix

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["chain", "parallel-arcs"])
    @pytest.mark.parametrize("w4, want", [
        (0.4, (["1"], 0.2 + 0.05 + 0.125 + 0.6 + 0.375 + 0.25 - 0.75 + 0.3)),
        (-0.6, (["2"], 0.2 + 0.1 + 0.7 + 0.125 + 0.375 + 0.25 + 0.5 - 1.0
                - 0.6))], ids=["phone-arc-at-the-back-off-state", "two-hops"])
    def test_two_hop_chain_equals_per_arc_reference(self, w4, want, parallel):
        # The reference is the same graph with an epsilon arc that reads a
        # morpheme, from a state no path reaches: its back-off arcs then
        # propagate, arc by arc, and make tokens at the back-off states.
        hclg, g3neg, g4, matrix = self._two_hop_task(w4, parallel)
        reference = self._two_hop_task(w4, parallel)[0]
        reference.add_arc(reference.add_state(), Arc(0, 1, 0.0, 0))
        got, ref = (decode_onthefly(g, g3neg, g4, matrix)
                    for g in (hclg, reference))
        (hyp, cost), (ref_hyp, ref_cost) = best_path(got), best_path(ref)
        assert hyp == ref_hyp == want[0]
        assert cost == pytest.approx(ref_cost, abs=1e-9)
        assert cost == pytest.approx(want[1], abs=1e-9)
        assert got.peak_tokens < ref.peak_tokens
        assert search_space(hclg, g3neg, g4)._rows.failure
        assert not search_space(reference, g3neg, g4)._rows.failure

    def test_negative_backoff_weight_propagates_under_a_narrow_beam(self):
        # State 2 is reached at 5.0, beyond beam 4.0 (and lattice beam 0.5)
        # of the arrival at state 1, but backs off to state 3 at -4.5, where
        # morpheme 1 is read: that path ends at 0.5, the one through state
        # 1 at 2.0.  Read as a failure transition, the back-off arc would be
        # read only by a token at state 2, which the cutoff does not make.
        # So a negative back-off weight keeps the graph's back-off arcs
        # propagating, and the decode is the reference's, whose epsilon arc
        # that reads a morpheme propagates them in any case.
        def task():
            hclg = Fst()
            hclg.add_states(6)
            for src, arc in ((0, Arc(1, 0, 0.0, 1)), (0, Arc(1, 0, 5.0, 2)),
                             (2, Arc(0, 0, -4.5, 3)), (1, Arc(2, 0, 2.0, 4)),
                             (3, Arc(2, 1, 0.0, 5))):
                hclg.add_arc(src, arc)
            hclg.set_initial(0)
            hclg.set_final(4, 0.0)
            hclg.set_final(5, 0.0)
            return hclg
        hclg, reference = task(), task()
        reference.add_arc(reference.add_state(), Arc(0, 1, 0.0, 0))
        g3neg = Fst()
        g3neg.add_states(2)
        g3neg.add_arc(0, Arc(1, 1, 0.0, 0))
        g3neg.add_arc(1, Arc(0, 0, 0.0, 0))
        g3neg.set_initial(1)
        g3neg.set_final(0, 0.0)
        g3neg.set_final(1, 0.0)
        g3neg.arc_sort_input()
        g4 = _loop_lm(1, 1, 0.0)
        matrix = AcousticMatrix("u", np.zeros((2, 2)))
        opts = DecodeOptions(beam=4.0, lattice_beam=0.5)
        assert not search_space(hclg, g3neg, g4)._rows.failure
        got, ref = (best_path(decode_onthefly(g, g3neg, g4, matrix, opts))
                    for g in (hclg, reference))
        assert got[0] == ref[0] == ["1"]
        assert got[1] == pytest.approx(ref[1], abs=1e-9)
        assert got[1] == pytest.approx(0.5, abs=1e-9)


# -- arc rows: made per state on first visit -------------------------------

def _row_form(row):
    """A row's arcs with their types and weights as hex, so that equal is
    bit-identical and made of plain tuples."""
    return [(type(a), a[0], a[1], a[2].hex(), a[3]) for a in row]


def _split_reference(g, s):
    """State s's (emitting, epsilon-input) arcs, split in one eager pass
    over its arcs in order, in the form of ``_row_form``."""
    arcs = [tuple(a) for a in g.arcs(s)]
    return (_row_form([a for a in arcs if a[0]]),
            _row_form([a for a in arcs if not a[0]]))


class _RowCount:
    """Counts the rows ``_Rows`` makes while it is entered."""

    def __enter__(self):
        self.made = 0
        self._mp = pytest.MonkeyPatch()
        missing = decoder._Rows.__missing__

        def spy(rows, s):
            self.made += 1
            return missing(rows, s)
        self._mp.setattr(decoder._Rows, "__missing__", spy)
        return self

    def __exit__(self, *exc):
        self._mp.undo()


def _unreached_label_graph(sort):
    """State 0 reads phone 1 into final state 1; state 2, which no path
    reaches, reads label 99, listed before a smaller label, so that only
    a scan of every arc of an unsorted graph, or of each sorted state's
    last arc, finds it."""
    g = Fst()
    g.add_states(3)
    g.add_arc(0, Arc(1, 0, 0.0, 1))
    g.add_arc(2, Arc(99, 0, 0.0, 1))
    g.add_arc(2, Arc(1, 0, 0.0, 1))
    g.add_arc(2, Arc(0, 0, 0.0, 1))
    g.set_initial(0)
    g.set_final(1)
    if sort:
        g.arc_sort_input()
    return g


class TestLazyRows:
    """A graph's arc rows are made per state, on the first visit, from one
    record per graph version: each equals an eager split of the state's
    arcs, bit for bit and in order."""

    @settings(max_examples=200, deadline=None)
    @given(_static_cut_cases(), st.booleans(), st.data())
    def test_rows_equal_an_eager_split_in_any_visit_order(self, case, sort, data):
        g, _, _ = case
        if sort:
            g.arc_sort_input()
        rows = decoder._rows(g)
        # The one pass before the first frame: flags and the label bound.
        assert rows.emit == [None] * g.num_states
        targets = {a.nextstate for s in g.states() for a in g.arcs(s)
                   if a.ilabel == 0}
        for s in g.states():
            has_eps = any(a.ilabel == 0 for a in g.arcs(s))
            assert rows.eps[s] is True if has_eps else rows.eps[s] == ()
            assert bool(rows.ends[s]) is (has_eps or s in targets)
        assert rows.top == max([a.ilabel for s in g.states()
                                for a in g.arcs(s)], default=0)
        order = data.draw(st.permutations(list(g.states())))
        how = data.draw(st.lists(st.sampled_from(["plan", "emit", "eps"]),
                                 min_size=len(order), max_size=len(order)))
        for s, way in zip(order, how):
            if way == "plan":
                assert rows[s] is rows.emit[s]
            elif way == "emit":
                assert rows.emit_row(s) is rows.emit[s]
            else:
                assert rows.eps_row(s) is rows.eps[s]
            emit, eps = _split_reference(g, s)
            assert _row_form(rows.eps[s]) == eps
            if rows.emit[s] is not None:  # an empty eps row needs no visit
                assert _row_form(rows.emit[s]) == emit
        for s in order:
            assert (_row_form(rows.emit_row(s)), _row_form(rows.eps_row(s))) \
                == _split_reference(g, s)
            assert type(rows.emit[s]) is tuple and type(rows.eps[s]) is tuple
        assert len(rows) == 0  # the plan mapping itself stays empty

    @settings(max_examples=100, deadline=None)
    @given(_static_cut_cases())
    def test_warm_static_decode_makes_no_rows(self, case):
        g, matrix, opts = case
        with _RowCount() as cold:
            first = _cut_outcome(lambda: decode_static(g, matrix, opts), False)
        with _RowCount() as warm:
            again = _cut_outcome(lambda: decode_static(g, matrix, opts), False)
        assert 0 < cold.made <= g.num_states
        assert warm.made == 0
        assert again == first

    def test_cold_static_decode_visits_part_of_the_graph(self, task_models):
        # The default task's HCLG4 and first utterance: a cold decode makes
        # rows for the states it enters only, and a warm repeat makes none.
        task, g4model, g3model = task_models
        graphs = build_graphs(task.lexicon, g4model, g3model, ("static",))
        hclg4 = graphs["HCLG4"]
        matrix = synthesize_task(PipelineConfig(), task, hclg4.isyms)[0]
        with _RowCount() as cold:
            first = best_path(decode_static(hclg4, matrix))
        rows = decoder._DERIVED[hclg4].rows
        made = sum(r is not None for r in rows.emit)
        assert cold.made == made
        assert 0 < made < hclg4.num_states // 2
        with _RowCount() as warm:
            assert best_path(decode_static(hclg4, matrix)) == first
        assert warm.made == 0
        assert decoder._DERIVED[hclg4].rows is rows

    def test_onthefly_rows_serve_the_static_first_pass(self, mini_model):
        # One record per graph version: the rows a cold on-the-fly decode
        # makes over HCLG3 are those rescoring's static first pass reads.
        m = _build_mini(mini_model)
        matrix = _utt(m, SENT)
        decode_onthefly(m["HCLG3"], m["G3neg"], m["G4"], matrix)
        rows = decoder._DERIVED[m["HCLG3"]].rows
        space = search_space(m["HCLG3"], m["G3neg"], m["G4"])
        assert space._rows is rows
        made = [s for s, r in enumerate(rows.emit) if r is not None]
        assert made
        with _RowCount() as count:
            decode_static(m["HCLG3"], matrix)
        assert decoder._DERIVED[m["HCLG3"]].rows is rows
        assert count.made == sum(r is not None for r in rows.emit) - len(made)

    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    def test_label_bound_covers_unreached_states(self, sort):
        g = _unreached_label_graph(sort)
        assert g.input_sorted == sort
        matrix = synthesize_utterance([1], 3, seed=0)
        with pytest.raises(DecodeError, match="input label 99 is outside"):
            decode_static(g, matrix)
        # Raised before the first frame: no row was made.
        assert decoder._DERIVED[g].rows.emit == [None] * g.num_states

    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    def test_epsilon_ends_cover_arcs_listed_after_others(self, sort):
        # State 2's epsilon arc to state 1 is its last arc unsorted, its
        # first sorted: both mark state 1 as an epsilon arc's target.
        ends = decoder._rows(_unreached_label_graph(sort)).ends
        assert list(map(bool, ends)) == [False, True, True]

    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("olabel, weight, failure", [
        (0, 0.0, True), (0, -0.5, False), (3, 0.5, False)],
        ids=["eps:eps", "negative-weight", "morpheme"])
    def test_failure_flag_reads_every_epsilon_arc(self, sort, olabel, weight,
                                                  failure):
        # State 2's second epsilon arc decides the flag: listed after a
        # phone arc and another epsilon arc unsorted, second sorted.
        g = Fst()
        g.add_states(3)
        g.add_arc(0, Arc(1, 0, 0.0, 1))
        g.add_arc(2, Arc(1, 0, 0.0, 1))
        g.add_arc(2, Arc(0, 0, 0.0, 1))
        g.add_arc(2, Arc(0, olabel, weight, 0))
        g.set_initial(0)
        g.set_final(1)
        if sort:
            g.arc_sort_input()
        assert decoder._rows(g).failure is failure

    @pytest.mark.parametrize("change", ["add_arc", "arc_sort_input"])
    def test_mutation_after_a_decode_leaves_no_rows(self, change):
        # State 0 reads phone 1 to final state 1 or, at cost 1.0, phone 2
        # to final state 2, listed first.  A decode makes rows at the
        # graph's version; the change makes a new version, whose decode
        # equals that of a fresh copy.
        g = Fst()
        g.add_states(3)
        g.add_arc(0, Arc(2, 2, 1.0, 2))
        g.add_arc(0, Arc(1, 1, 0.0, 1))
        g.set_initial(0)
        g.set_final(1)
        g.set_final(2)
        matrix = AcousticMatrix("u", np.array([[0.0, 0.5]]))
        before = best_path(decode_static(g, matrix))
        old = decoder._DERIVED[g].rows
        assert old.emit[0] is not None
        if change == "add_arc":
            g.add_arc(0, Arc(2, 3, -2.0, 2))
        else:
            g.arc_sort_input()
        with _RowCount() as count:
            after = best_path(decode_static(g, matrix))
        rows = decoder._DERIVED[g].rows
        assert rows is not old
        assert count.made == sum(r is not None for r in rows.emit)
        for s in g.states():
            if rows.emit[s] is not None:
                assert (_row_form(rows.emit[s]), _row_form(rows.eps_row(s))) \
                    == _split_reference(g, s)
        fresh = TestRelayMemo._copy(g)
        assert after == best_path(decode_static(fresh, matrix))
        if change == "add_arc":
            assert after != before
        else:
            assert rows.emit[0][0][0] == 1  # the sorted order


class TestBestPath:
    def test_exact_tie_is_lexicographic(self):
        syms = SymbolTable()
        for s in ["a", "b", "c"]:
            syms.add(s)
        fst = Fst(syms, syms)
        fst.add_states(4)
        fst.set_initial(0)
        fst.add_arc(0, Arc(1, syms.id_of("a"), 0.0, 1))
        fst.add_arc(1, Arc(1, syms.id_of("b"), 1.0, 2))
        fst.add_arc(1, Arc(1, syms.id_of("c"), 0.0, 3))
        fst.set_final(2, 0.0)
        fst.set_final(3, 1.0)
        lat = Lattice(fst, [0, 1, 2, 2])
        seq, cost = best_path(lat)
        assert seq == ["a", "b"]
        assert cost == pytest.approx(1.0)

    def test_empty_lattice_raises(self):
        with pytest.raises(EmptyResultError):
            best_path(Lattice(Fst(), [], utt_id="u"))

    def test_lattice_without_successful_path_raises(self):
        fst = Fst()
        fst.add_states(2)
        fst.add_arc(0, Arc(1, 0, 0.0, 1))
        fst.set_initial(0)
        with pytest.raises(EmptyResultError, match="no successful path$"):
            best_path(Lattice(fst, [0, 1], utt_id="u"))


# -- end-to-end over the mini-corpus graphs --------------------------------

@pytest.fixture(scope="module")
def mini(mini_model):
    """Mini decoding setup: pruned small LM, big LM, all four graphs."""
    return _build_mini(mini_model)


def _build_mini(mini_model):
    g4model = mini_model
    g3model = prune_to_small_lm(g4model, threshold=0.45, max_order=2)
    assert sum(g3model.num_ngrams(n) for n in (1, 2)) < \
        sum(g4model.num_ngrams(n) for n in (1, 2))
    lex = Lexicon.parse(MINI_LEXICON_TEXT)
    return {"g4model": g4model, "g3model": g3model, "lex": lex,
            **build_graphs(lex, g4model, g3model)}


def _utt(mini, sent, **kwargs):
    phones = mini["HCLG3"].isyms
    ids = [phones.id_of(p) for m in sent for p in mini["lex"].prons[m][0]]
    return synthesize_utterance(ids, len(phones) - 1, **kwargs)


SENT = ["vix", "tin", "cUx"]


class TestEndToEnd:
    def test_onthefly_recovers_transcript_at_big_lm_cost(self, mini):
        lat = decode_onthefly(mini["HCLG3"], mini["G3neg"], mini["G4"],
                              _utt(mini, SENT))
        seq, cost = best_path(lat)
        assert seq == SENT
        want = cost_from_log10(score_sentence(mini["g4model"], SENT))
        assert cost == pytest.approx(want, abs=1e-9)

    def test_static_matches_onthefly(self, mini):
        matrix = _utt(mini, SENT)
        opts = DecodeOptions(beam=1e9, max_active=10 ** 9)
        s1, c1 = best_path(decode_onthefly(mini["HCLG3"], mini["G3neg"],
                                           mini["G4"], matrix, opts))
        s2, c2 = best_path(decode_static(mini["HCLG4"], matrix, opts))
        assert s1 == s2
        assert c1 == pytest.approx(c2, abs=1e-9)

    def test_rescoring_replaces_small_lm_scores(self, mini):
        matrix = _utt(mini, SENT)
        first = decode_static(mini["HCLG3"], matrix)
        assert best_path(first)[1] == pytest.approx(
            cost_from_log10(score_sentence(mini["g3model"], SENT)), abs=1e-9)
        second = rescore_lattice(first, mini["G3neg"], mini["G4"])
        seq, cost = best_path(second)
        assert seq == SENT
        assert cost == pytest.approx(
            cost_from_log10(score_sentence(mini["g4model"], SENT)), abs=1e-9)

    def test_rescoring_keeps_first_pass_peak_tokens(self, mini):
        first = decode_static(mini["HCLG3"], _utt(mini, SENT))
        assert first.peak_tokens > 0
        second = rescore_lattice(first, mini["G3neg"], mini["G4"])
        assert second.peak_tokens == first.peak_tokens

    def test_rescoring_an_empty_lattice_raises(self, mini):
        with pytest.raises(EmptyResultError, match="empty lattice$"):
            rescore_lattice(Lattice(Fst(), [], utt_id="u"), mini["G3neg"],
                            mini["G4"])

    @pytest.mark.parametrize("strategy", ["static", "onthefly"])
    def test_acoustic_scale_equals_scaled_costs(self, mini, strategy):
        matrix = _utt(mini, SENT, noise=1.0, seed=2)
        doubled = AcousticMatrix(matrix.utt_id, matrix.costs * 2.0)
        lats = []
        for m, scale in ((matrix, 2.0), (doubled, 1.0)):
            opts = DecodeOptions(acoustic_scale=scale)
            if strategy == "static":
                lats.append(decode_static(mini["HCLG4"], m, opts))
            else:
                lats.append(decode_onthefly(mini["HCLG3"], mini["G3neg"],
                                            mini["G4"], m, opts))
        got, want = lats
        assert best_path(got) == best_path(want)
        assert got.frames == want.frames
        assert write_text_fst(got.fst) == write_text_fst(want.fst)

    def test_widening_beam_never_hurts(self, mini):
        matrix = _utt(mini, SENT, noise=2.0, seed=3)
        costs = []
        for beam in (2.0, 8.0, 1e9):
            lat = decode_onthefly(mini["HCLG3"], mini["G3neg"], mini["G4"],
                                  matrix, DecodeOptions(beam=beam, max_active=10 ** 6))
            costs.append(best_path(lat)[1])
        assert costs[0] >= costs[1] - 1e-12
        assert costs[1] >= costs[2] - 1e-12

    def test_decode_counters(self, mini):
        stats = RelayStats()
        decode_onthefly(mini["HCLG3"], mini["G3neg"], mini["G4"],
                        _utt(mini, SENT), stats=stats)
        assert stats.eps_output_matches == 0
        assert stats.failed_direct_matches == stats.backoff_hops + stats.dead_relays

    @pytest.mark.parametrize("strategy", ["static", "onthefly", "rescore"])
    def test_lattice_is_sound(self, mini, strategy):
        opts = DecodeOptions(lattice_beam=4.0)
        matrix = _utt(mini, SENT + ["kAn", "vix", "ci"], noise=1.5, seed=8)
        lat = decode_utterance(strategy, mini, matrix, opts)
        fst = lat.fst
        # Frames never decrease along arcs.
        for s in fst.states():
            for a in fst.arcs(s):
                assert lat.frames[a.nextstate] >= lat.frames[s]
        alpha, beta = self._costs(fst)
        best = best_path(lat)[1]
        assert min(alpha[s] + fst.final(s) for s in fst.finals) == \
            pytest.approx(best, abs=1e-9)
        # Every kept state lies on a path within lattice_beam of the best;
        # rescoring does not prune again, so there on a successful path.
        for s in fst.states():
            if strategy == "rescore":
                assert alpha[s] + beta[s] < INF
            else:
                assert alpha[s] + beta[s] <= best + opts.lattice_beam + 1e-6

    @staticmethod
    def _costs(fst):
        """Forward and backward costs of every state of an acyclic fst,
        whatever order its states are numbered in."""
        indeg = [0] * fst.num_states
        for s in fst.states():
            for a in fst.arcs(s):
                indeg[a.nextstate] += 1
        order = [s for s in fst.states() if indeg[s] == 0]
        for s in order:  # grows while it is walked: a topological order
            for a in fst.arcs(s):
                indeg[a.nextstate] -= 1
                if indeg[a.nextstate] == 0:
                    order.append(a.nextstate)
        assert len(order) == fst.num_states
        alpha = [ZERO] * fst.num_states
        alpha[fst.initial] = 0.0
        for s in order:
            for a in fst.arcs(s):
                alpha[a.nextstate] = min(alpha[a.nextstate], alpha[s] + a.weight)
        beta = [fst.final(s) for s in fst.states()]
        for s in reversed(order):
            for a in fst.arcs(s):
                beta[s] = min(beta[s], a.weight + beta[a.nextstate])
        return alpha, beta

    def test_unreachable_final_raises(self):
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(0, Arc(1, 0, 0.0, 1))
        fst.add_arc(1, Arc(1, 0, 0.0, 2))
        fst.set_initial(0)
        fst.set_final(2, 0.0)
        matrix = synthesize_utterance([1], 1)
        with pytest.raises(EmptyResultError):
            decode_static(fst, matrix, utt_id="u")

    def test_missing_initial_state_raises(self):
        with pytest.raises(DecodeError, match="initial"):
            decode_static(Fst(), synthesize_utterance([1], 1))


class TestRelayMemo:
    def test_pinned_cold_counters_and_warm_adds_nothing(self, mini_model):
        # A cold decode on graphs never decoded before; the figures are the
        # per-label, per-hop counts of the one-label-at-a-time relay walk.
        m = _build_mini(mini_model)
        matrix = _utt(m, SENT)
        cold = RelayStats()
        decode_onthefly(m["HCLG3"], m["G3neg"], m["G4"], matrix, stats=cold)
        assert cold == RelayStats(eps_output_matches=0,
                                  failed_direct_matches=41, backoff_hops=41,
                                  dead_relays=0)
        warm = RelayStats()
        decode_onthefly(m["HCLG3"], m["G3neg"], m["G4"], matrix, stats=warm)
        assert warm == RelayStats()

    @staticmethod
    def _decode(m, matrix):
        return best_path(decode_onthefly(m["HCLG3"], m["G3neg"], m["G4"], matrix))

    @staticmethod
    def _copy(g):
        out = Fst(g.isyms, g.osyms)
        out.add_states(g.num_states)
        for s in g.states():
            for a in g.arcs(s):
                out.add_arc(s, a)
        for s, w in g.finals.items():
            out.set_final(s, w)
        out.set_initial(g.initial)
        if g.input_sorted:
            out.arc_sort_input()
        return out

    @pytest.mark.parametrize("operand", ["G3neg", "G4", "HCLG3"],
                             ids=["g3neg", "g4fst", "hclg3"])
    def test_mutated_operand_gives_fresh_scores(self, mini_model, operand):
        m = _build_mini(mini_model)
        matrix = _utt(m, SENT)
        before = self._decode(m, matrix)
        # A cheaper duplicate of every arc leaving the initial state: every
        # path leaves it, so every score changes.
        g = m[operand]
        for a in list(g.arcs(g.initial)):
            g.add_arc(g.initial, a._replace(weight=a.weight - 3.0))
        g.arc_sort_input()
        after = self._decode(m, matrix)
        fresh = {k: self._copy(g) for k, g in m.items()
                 if k in ("HCLG3", "G3neg", "G4")}
        assert after == self._decode(fresh, matrix)
        assert after[1] < before[1] - 2.0

    def test_memo_dies_with_its_graph(self, mini):
        g4 = self._copy(mini["G4"])
        g3neg = self._copy(mini["G3neg"])
        decode_onthefly(mini["HCLG3"], g3neg, g4, _utt(mini, SENT))
        relays = decoder._DERIVED[g4].relays
        assert len(relays) == 1
        del g3neg
        assert len(relays) == 0

    def test_search_space_dies_with_its_graph(self, mini):
        hclg3 = self._copy(mini["HCLG3"])
        decode_onthefly(hclg3, mini["G3neg"], mini["G4"], _utt(mini, SENT))
        spaces = decoder._DERIVED[hclg3].spaces
        assert len(spaces) == 1
        states = weakref.ref(next(iter(spaces.values())))
        n = len(decoder._DERIVED)
        del hclg3, spaces
        assert len(decoder._DERIVED) == n - 1
        assert states() is None

    def test_rescoring_a_warm_space_gives_the_same_lattice(self, mini_model):
        m = _build_mini(mini_model)
        matrix = _utt(m, SENT, noise=1.0, seed=2)
        first = decode_static(m["HCLG3"], matrix,
                              DecodeOptions(beam=30.0, lattice_beam=30.0))
        cold, warm = RelayStats(), RelayStats()
        once = rescore_lattice(first, m["G3neg"], m["G4"], cold)
        twice = rescore_lattice(first, m["G3neg"], m["G4"], warm)
        assert cold != RelayStats()
        assert warm == RelayStats()
        # A decode over a copy of the lattice interns the copy's space
        # states in another order before the rescore walks them.
        copy = Lattice(self._copy(first.fst), first.frames, first.utt_id)
        decode_onthefly(copy.fst, m["G3neg"], m["G4"], matrix)
        thrice = rescore_lattice(copy, m["G3neg"], m["G4"])
        for lat in (twice, thrice):
            assert write_text_fst(lat.fst) == write_text_fst(once.fst)
            assert lat.frames == once.frames

    def test_rescoring_makes_no_arc_tables(self, mini):
        # Rescoring walks the lattice's own arcs: the lattice's record
        # gets its epsilon flags but no arc row, and the rescored lattice
        # is that of a lattice whose rows were all made first.
        first = decode_static(mini["HCLG3"], _utt(mini, SENT, noise=1.0))
        got = rescore_lattice(first, mini["G3neg"], mini["G4"])
        flags = decoder._DERIVED[first.fst].rows
        assert flags.emit == [None] * first.fst.num_states
        assert True in flags.eps
        assert all(e is True or e == () for e in flags.eps)
        copy = Lattice(self._copy(first.fst), first.frames, first.utt_id)
        rows = decoder._rows(copy.fst)
        for s in copy.fst.states():
            rows.emit_row(s)
        assert None not in rows.emit
        want = rescore_lattice(copy, mini["G3neg"], mini["G4"])
        assert write_text_fst(got.fst) == write_text_fst(want.fst)
        assert got.frames == want.frames

    def test_decoding_a_rescored_space_equals_a_cold_decode(self, mini):
        # States interned by rescoring, before the frame step made the arc
        # tables, get the same epsilon entries as states interned after.
        matrix = _utt(mini, SENT, noise=1.0)
        first = decode_static(mini["HCLG3"], matrix)
        rescore_lattice(first, mini["G3neg"], mini["G4"])
        space = search_space(first.fst, mini["G3neg"], mini["G4"])
        assert len(space._triples) > 1
        space.propagate({space.initial: [space.initial, 0, 0.0]}, 0, 8.0)
        for sid, (q1, _, _) in enumerate(space._triples):
            if all(a.ilabel for a in first.fst.arcs(q1)):
                assert space.eps[sid] == ()
        got, want = (decode_onthefly(g, mini["G3neg"], mini["G4"], matrix)
                     for g in (first.fst, self._copy(first.fst)))
        assert write_text_fst(got.fst) == write_text_fst(want.fst)
        assert (got.frames, got.peak_tokens) == (want.frames, want.peak_tokens)

    def test_rescoring_states_die_with_the_lattice(self, mini):
        first = decode_static(mini["HCLG3"], _utt(mini, SENT))
        rescore_lattice(first, mini["G3neg"], mini["G4"])
        rec = weakref.ref(decoder._DERIVED[first.fst])
        assert len(rec().spaces) == 1
        del first
        gc.collect()
        assert rec() is None

    def test_new_version_drops_what_was_derived_from_the_old(self, mini):
        g3neg = self._copy(mini["G3neg"])
        decode_onthefly(mini["HCLG3"], g3neg, mini["G4"], _utt(mini, SENT))
        memo = weakref.ref(
            decoder._DERIVED[mini["G4"]].relays[decoder._DERIVED[g3neg]])
        states = weakref.ref(decoder._DERIVED[mini["HCLG3"]].spaces[memo()])
        g3neg.arc_sort_input()
        decode_onthefly(mini["HCLG3"], g3neg, mini["G4"], _utt(mini, SENT))
        assert memo() is None
        assert states() is None

    def test_resorted_graph_decodes_like_a_fresh_copy(self):
        g = Fst()
        g.add_states(2)
        g.add_arc(0, Arc(2, 2, 0.0, 1))
        g.add_arc(0, Arc(1, 1, 0.0, 1))
        g.set_initial(0)
        g.set_final(1, 0.0)
        matrix = synthesize_utterance([1], 2)
        opts = DecodeOptions(lattice_beam=20.0)
        decode_static(g, matrix, opts)
        g.arc_sort_input()
        assert write_text_fst(decode_static(g, matrix, opts).fst) == \
            write_text_fst(decode_static(self._copy(g), matrix, opts).fst)


class TestMutationAfterDecode:
    """Decodes on warm graphs mutated by add_state, add_states, add_arc
    and arc_sort_input equal decodes over cold arc-by-arc copies of them."""

    GRAPHS = ("HCLG3", "G3neg", "G4", "HCLG4")

    @staticmethod
    def _outcome(m, strategy, matrix):
        """(hypothesis, cost repr, lattice text), or the error's type and
        message."""
        try:
            lat = decode_utterance(strategy, m, matrix, DecodeOptions())
            hyp, cost = best_path(lat)
        except (DecodeError, FstError) as exc:
            return type(exc), str(exc)
        comments = {s: f"frame {f}" for s, f in enumerate(lat.frames)}
        return hyp, repr(cost), write_text_fst(lat.fst, comments)

    def _check(self, m, matrices):
        """Decodes of every strategy equal the fresh copies'; returns the
        strategies that decoded without error."""
        fresh = {k: TestRelayMemo._copy(m[k]) for k in self.GRAPHS}
        decoded = set()
        for strategy in ("onthefly", "static", "rescore"):
            for matrix in matrices:
                got = self._outcome(m, strategy, matrix)
                assert got == self._outcome(fresh, strategy, matrix), strategy
                if len(got) == 3:
                    decoded.add(strategy)
        return decoded

    @pytest.mark.parametrize("seed", range(4))
    def test_decodes_equal_fresh_copies(self, mini_model, seed):
        rng = random.Random(seed)
        m = _build_mini(mini_model)
        matrices = [_utt(m, SENT), _utt(m, SENT, noise=1.5, seed=seed)]
        self._check(m, matrices)  # warm every memo first
        decoded = set()
        for _ in range(30):
            if rng.random() < 0.7:
                g = m[rng.choice(self.GRAPHS)]
                s = rng.choice([s for s in g.states() if g.arcs(s)])
                a = rng.choice(g.arcs(s))
                g.add_arc(s, a._replace(
                    weight=a.weight + rng.choice([-1.5, -0.25, 0.5, 2.0])))
            else:  # an unsorted graph if there is one
                unsorted = [k for k in self.GRAPHS if not m[k].input_sorted]
                m[rng.choice(unsorted or self.GRAPHS)].arc_sort_input()
            decoded |= self._check(m, matrices)
        assert decoded == {"onthefly", "static", "rescore"}

    @pytest.mark.parametrize("grow", ["add_state", "add_states"])
    def test_added_states_give_a_fresh_record(self, mini_model, grow):
        # After a decode, each graph gets new states, which keep sorted arcs
        # sorted; then the search graphs start at one of them.  A record
        # made before the states were added would lack them, and the rows
        # would raise a bare IndexError; a fresh one gives every strategy
        # the fresh copies' outcome, a typed error when nothing is read.
        m = _build_mini(mini_model)
        matrices = [_utt(m, SENT)]
        self._check(m, matrices)  # warm every memo first
        for k in self.GRAPHS:
            g = m[k]
            was_sorted = g.input_sorted
            if grow == "add_state":
                g.add_state()
            else:
                g.add_states(2)
            assert g.input_sorted == was_sorted
        assert self._check(m, matrices) == {"onthefly", "static", "rescore"}
        for k in ("HCLG3", "HCLG4"):
            m[k].set_initial(m[k].num_states - 1)
        assert self._check(m, matrices) == set()
