"""Decoded costs against the analytic back-off recursion.

On noise-free audio, the cost of a decoded path must be the big LM's
``score_sentence`` of its morphemes plus its acoustic cost, to 1e-9.  The
models are drawn so that some listed n-grams cost more than their back-off
routes, where a search graph that backs off past a listed n-gram would
find a cheaper, inexact path.  The small LM need not be nested in the
big one: some draws list small-LM contexts that the big LM does not.

``static`` takes exactly that path: HCLG4's back-off arcs are plain
epsilon arcs (ε semantics, Kaldi's approximation).  Its decoded cost is
checked, to the same tolerance, against the cheapest path spelling its
morphemes through G4 with every back-off arc free to take.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfstdec.acoustic import synthesize_utterance
from wfstdec.decoder import DecodeOptions, EmptyResultError, best_path
from wfstdec.graph import (
    BACKOFF_EPS,
    Lexicon,
    cost_from_log10,
    lm_to_fst,
    make_morpheme_symbols,
)
from wfstdec.fst import ZERO
from wfstdec.ngram import (
    BOS,
    EOS,
    NGramModel,
    parse_arpa,
    prune_to_small_lm,
    score_sentence,
)
from wfstdec.pipeline import build_graphs, decode_utterance

from conftest import LEAKY_ARPA, LEAKY_COST

PHONES = ("x", "y", "z")
WIDE = DecodeOptions(beam=1e9, max_active=10 ** 9, lattice_beam=100.0)


def _audio(hclg3, lex, sent, **kwargs):
    phones = hclg3.isyms
    ids = [phones.id_of(p) for m in sent for p in lex.prons[m][0]]
    return synthesize_utterance(ids, len(phones) - 1, **kwargs)


def _acoustic_cost(lex, hclg3, matrix, hyp):
    """The acoustic cost of hyp's phones, one frame each."""
    phones = [hclg3.isyms.id_of(p) for m in hyp for p in lex.prons[m][0]]
    assert len(phones) == matrix.num_frames
    return sum(float(matrix.costs[t, p - 1]) for t, p in enumerate(phones))


def _oracle_cost(big, lex, hclg3, matrix, hyp):
    """Analytic big-LM cost of hyp plus the acoustic cost of its phones."""
    return (cost_from_log10(score_sentence(big, hyp))
            + _acoustic_cost(lex, hclg3, matrix, hyp))


def eps_sentence_cost(fst, labels):
    """Min path weight spelling the label sequence, with epsilon-input
    (back-off) arcs free to take anywhere: the twin of
    ``acceptor_sentence_cost`` under ε semantics.  LM acceptors have no
    negative epsilon cycles, so each closure ends."""
    def closure(dist):
        work = list(dist)
        while work:
            s = work.pop()
            for a in fst.arcs(s):
                if a.ilabel == 0 and dist[s] + a.weight < dist.get(a.nextstate, ZERO):
                    dist[a.nextstate] = dist[s] + a.weight
                    work.append(a.nextstate)
        return dist

    dist = closure({fst.initial: 0.0})
    for lab in labels:
        step = {}
        for s, d in dist.items():
            for a in fst.arcs(s):
                if a.ilabel == lab and d + a.weight < step.get(a.nextstate, ZERO):
                    step[a.nextstate] = d + a.weight
        dist = closure(step)
    return min((d + fst.final(s) for s, d in dist.items()), default=ZERO)


class TestLeakyBigram:
    """The fixed case: "a b" reads the listed bigram at 4.6052, though
    backing off from "a" to read "b" costs only 3.2236."""

    @pytest.fixture
    def setup(self):
        model = parse_arpa(LEAKY_ARPA)
        lex = Lexicon.parse("a\tx\nb\ty\n")
        graphs = build_graphs(lex, model, model, ("onthefly", "rescore"))
        return graphs, _audio(graphs["HCLG3"], lex, ["a", "b"])

    def test_onthefly_is_exact(self, setup):
        graphs, matrix = setup
        lat = decode_utterance("onthefly", graphs, matrix, DecodeOptions())
        assert best_path(lat) == (["a", "b"], pytest.approx(LEAKY_COST, abs=1e-12))

    def test_rescore_is_exact_with_the_exact_path_in_the_lattice(self, setup):
        graphs, matrix = setup
        lat = decode_utterance("rescore", graphs, matrix,
                               DecodeOptions(lattice_beam=5.0))
        assert best_path(lat) == (["a", "b"], pytest.approx(LEAKY_COST, abs=1e-12))

    def test_rescore_drops_a_lattice_of_leaked_paths(self, setup):
        # Within 0.5 of the first pass's best, only paths that back off
        # past "a b" survive; none of them is a big-LM path.
        graphs, matrix = setup
        with pytest.raises(EmptyResultError, match="all lattice paths dropped"):
            decode_utterance("rescore", graphs, matrix,
                             DecodeOptions(lattice_beam=0.5))


def _cost(draw):
    """A log10 value in tenths: -2.5 .. -0.1."""
    return -draw(st.integers(1, 25)) / 10


def _lm(draw, vocab, order):
    """A bigram or trigram model over ``vocab`` with drawn n-grams,
    probabilities and back-off weights, not normalised."""
    lm = NGramModel(order)
    lm.add_entry((BOS,), -99.0, _cost(draw) / 2)
    for w in vocab:
        lm.add_entry((w,), _cost(draw), _cost(draw) / 2)
    lm.add_entry((EOS,), _cost(draw))
    bigrams = [(h, w) for h in [BOS] + vocab for w in vocab + [EOS]
               if draw(st.booleans())]
    for gram in bigrams:
        backoff = _cost(draw) / 2 if order == 3 and gram[1] != EOS else None
        lm.add_entry(gram, _cost(draw), backoff)
    if order == 3:
        for h in bigrams:
            if h[1] == EOS:
                continue
            for w in draw(st.lists(st.sampled_from(vocab + [EOS]),
                                   max_size=2, unique=True)):
                lm.add_entry(h + (w,), _cost(draw))
    lm.validate()
    return lm


@st.composite
def tasks(draw):
    """(big LM, small LM, lexicon, sentence) over 2-4 morphemes, each with
    one pronunciation of 1-2 phones.  The big LM is a drawn bigram or
    trigram model.  The small LM is the big one (a pruned bigram copy if
    the big one is a trigram model), a pruned bigram copy, or a trigram
    model drawn on its own, which mostly lists contexts that the big LM
    does not: the small LM need not be nested in the big one."""
    vocab = [f"m{i}" for i in range(draw(st.integers(2, 4)))]
    big = _lm(draw, vocab, draw(st.sampled_from([2, 3])))
    kind = draw(st.sampled_from(["big", "pruned", "drawn"]))
    if kind == "drawn":
        small = _lm(draw, vocab, 3)
    elif kind == "pruned" or big.order == 3:
        small = prune_to_small_lm(big, 0.1, 2)
    else:
        small = big
    lex = Lexicon()
    for w in vocab:
        lex.add(w, draw(st.lists(st.sampled_from(PHONES), min_size=1,
                                 max_size=2)))
    sent = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4))
    return big, small, lex, sent


@pytest.mark.parametrize("strategy", ["onthefly", "rescore"])
@settings(max_examples=40, deadline=None)
@given(task=tasks())
def test_decoded_cost_is_the_analytic_big_lm_cost(strategy, task):
    big, small, lex, sent = task
    graphs = build_graphs(lex, big, small, (strategy,))
    matrix = _audio(graphs["HCLG3"], lex, sent)
    hyp, cost = best_path(decode_utterance(strategy, graphs, matrix, WIDE))
    assert cost == pytest.approx(
        _oracle_cost(big, lex, graphs["HCLG3"], matrix, hyp), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(task=tasks())
def test_static_cost_is_the_epsilon_semantics_cost(task):
    big, small, lex, sent = task
    graphs = build_graphs(lex, big, small)
    hclg3, g4 = graphs["HCLG3"], graphs["G4"]
    matrix = _audio(hclg3, lex, sent)
    hyp, cost = best_path(decode_utterance("static", graphs, matrix, WIDE))
    labels = [g4.isyms.id_of(m) for m in hyp]
    assert cost == pytest.approx(eps_sentence_cost(g4, labels)
                                 + _acoustic_cost(lex, hclg3, matrix, hyp),
                                 abs=1e-9)


def test_static_default_task_costs_are_epsilon_semantics(default_run,
                                                         task_models):
    # Noise-free audio, decoded without error: the acoustic cost is 0.
    _, g4, _ = task_models
    g4fst = lm_to_fst(g4, make_morpheme_symbols(g4, with_hash=True),
                      mode=BACKOFF_EPS)
    utts = default_run.strategies["static"].utterances
    assert len(utts) == 20
    for u in utts:
        assert u.hypothesis == u.reference
        labels = [g4fst.isyms.id_of(m) for m in u.hypothesis]
        assert u.cost == pytest.approx(eps_sentence_cost(g4fst, labels),
                                       abs=1e-9)
