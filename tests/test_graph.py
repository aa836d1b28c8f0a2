"""LM acceptors, lexicon transducers, composition, search-graph assembly."""

import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfstdec import ngram
from wfstdec.fst import (
    ZERO,
    Arc,
    Fst,
    FstError,
    SymbolTable,
    connect,
    find_arc,
    weight_times,
    write_text_fst,
)
from wfstdec.graph import (
    BACKOFF_EPS,
    BACKOFF_HASH,
    GraphError,
    Lexicon,
    acceptor_sentence_cost,
    build_search_graph,
    compile_lexicon,
    compose_standard,
    cost_from_log10,
    lm_to_fst,
    make_morpheme_symbols,
    negate_weights,
)
from wfstdec.ngram import BOS, EOS, score_sentence
from wfstdec.pipeline import build_graphs

from conftest import LEAKY_ARPA, LEAKY_COST, MINI_LEXICON_TEXT


def linear_acceptor(tokens, syms):
    """Straight-line acceptor of a token sequence (weight 0 everywhere)."""
    fst = Fst(syms, syms)
    src = fst.add_state()
    fst.set_initial(src)
    for tok in tokens:
        tid = syms.id_of(tok)
        dst = fst.add_state()
        fst.add_arc(src, Arc(tid, tid, 0.0, dst))
        src = dst
    fst.set_final(src, 0.0)
    fst.arc_sort_input()
    return fst


def context_states(model):
    """State ids assigned by lm_to_fst: contexts sorted by (length, tuple)."""
    contexts = sorted(model.contexts(), key=lambda h: (len(h), h))
    return {h: i for i, h in enumerate(contexts)}


def iter_paths(fst, max_arcs=12):
    """All successful paths with at most max_arcs arcs: (in, out, weight)."""
    if fst.initial < 0:
        return
    stack = [(fst.initial, (), (), 0.0, 0)]
    while stack:
        s, il, ol, w, n = stack.pop()
        fw = fst.final(s)
        if fw != ZERO:
            yield il, ol, w + fw
        if n == max_arcs:
            continue
        for a in fst.arcs(s):
            stack.append((a.nextstate,
                          il + ((a.ilabel,) if a.ilabel else ()),
                          ol + ((a.olabel,) if a.olabel else ()),
                          w + a.weight, n + 1))


def language(fst, max_arcs=12):
    """Min-weight map over (input string, output string) pairs."""
    out = {}
    for il, ol, w in iter_paths(fst, max_arcs):
        key = (il, ol)
        if key not in out or w < out[key]:
            out[key] = w
    return out


# Short texts over letters, '#', and the whitespace and line breaks that a
# lexicon line cannot carry.
_LEXICON_TEXT = st.text(alphabet="ab#<> \t\n\r\x0b\x1c\x85\u2028", max_size=3)


class TestLexicon:
    def test_parse_and_write(self):
        lex = Lexicon.parse(MINI_LEXICON_TEXT)
        assert lex.prons["vix"] == [["v", "i", "x"]]
        assert Lexicon.parse(lex.write()).prons == lex.prons

    def test_bad_line(self):
        with pytest.raises(GraphError, match="line 1"):
            Lexicon.parse("justamorpheme\n")

    def test_empty_pronunciation(self):
        with pytest.raises(GraphError, match="empty pronunciation"):
            Lexicon().add("x", [])

    @pytest.mark.parametrize("morpheme, phones, refused", [
        ("", ["a"], "morpheme ''"), (" x", ["a"], "morpheme ' x'"),
        ("a\tb", ["a"], "morpheme 'a\\tb'"), ("x", ["a b"], "phone 'a b'"),
        ("x", ["a", ""], "phone ''"), ("x", ["a\n"], "phone 'a\\n'"),
        ("#x", ["a"], "morpheme '#x' starts with '#'")])
    def test_tokens_a_lexicon_line_cannot_carry(self, morpheme, phones,
                                                refused):
        lex = Lexicon()
        lex.add("y", ["b"])
        with pytest.raises(GraphError, match=f"^{re.escape(refused)}"):
            lex.add(morpheme, phones)
        assert lex.prons == {"y": [["b"]]}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_LEXICON_TEXT, st.lists(_LEXICON_TEXT, max_size=3)),
                    max_size=6))
    def test_what_add_accepts_reads_back(self, entries):
        lex = Lexicon()
        for morpheme, phones in entries:
            try:
                lex.add(morpheme, phones)
            except GraphError:
                pass
        assert Lexicon.parse(lex.write()).prons == lex.prons

    def test_compiled_transducer_spells_words(self):
        lex = Lexicon.parse("vix\tv i x\nci\tc i\n")
        fst = compile_lexicon(lex)
        phones = fst.isyms
        morphs = fst.osyms
        lang = language(fst, max_arcs=5)
        seq = tuple(phones.id_of(p) for p in ["v", "i", "x", "c", "i"])
        out = tuple(morphs.id_of(m) for m in ["vix", "ci"])
        assert lang[(seq, out)] == 0.0

    def test_empty_lexicon_rejected(self):
        with pytest.raises(GraphError, match="empty lexicon"):
            compile_lexicon(Lexicon())


class TestLmToFst:
    def test_begin_state_arcs(self, mini_model):
        # Both corpus sentences start with "vix": exactly one word arc from
        # the sentence-begin state, plus one back-off arc.
        fst = lm_to_fst(mini_model, mode=BACKOFF_EPS)
        states = context_states(mini_model)
        assert fst.initial == states[(BOS,)]
        arcs = fst.arcs(fst.initial)
        assert len(arcs) == 2
        word_arcs = [a for a in arcs if a.ilabel != 0]
        eps_arcs = [a for a in arcs if a.ilabel == 0]
        assert len(word_arcs) == 1 and len(eps_arcs) == 1
        assert fst.isyms.sym_of(word_arcs[0].ilabel) == "vix"
        assert eps_arcs[0].nextstate == states[()]

    def test_direct_path_weights(self, ab_model_eos):
        fst = lm_to_fst(ab_model_eos, mode=BACKOFF_EPS)
        a_id = fst.isyms.id_of("a")
        b_id = fst.isyms.id_of("b")
        arc_a = find_arc(fst, fst.initial, a_id)
        assert arc_a.weight == pytest.approx(cost_from_log10(-0.5))
        arc_b = find_arc(fst, arc_a.nextstate, b_id)
        assert arc_b.weight == pytest.approx(cost_from_log10(-0.3))

    def test_hash_mode_labels_backoff_arcs(self, mini_model):
        fst = lm_to_fst(mini_model, mode=BACKOFF_HASH)
        hash_id = fst.isyms.id_of(BACKOFF_HASH)
        labels = {a.ilabel for s in fst.states() for a in fst.arcs(s)}
        assert hash_id in labels
        assert 0 not in labels

    def test_every_final_weight_finite(self, mini_model):
        fst = lm_to_fst(mini_model)
        for s in fst.states():
            assert math.isfinite(fst.final(s))

    def test_acceptor_matches_sentence_scores(self, mini_model):
        fst = lm_to_fst(mini_model, mode=BACKOFF_EPS)
        rng = random.Random(17)
        words = [w for w in mini_model.events() if w != EOS]
        for _ in range(200):
            sent = [rng.choice(words) for _ in range(rng.randint(1, 6))]
            labels = [fst.isyms.id_of(w) for w in sent]
            got = acceptor_sentence_cost(fst, labels)
            want = cost_from_log10(score_sentence(mini_model, sent))
            assert got == pytest.approx(want, abs=1e-9)

    def test_acceptor_reads_listed_ngram_not_cheaper_backoff(self):
        # The back-off route to "b" after "a" is cheaper than the listed
        # bigram, but the acceptor backs off only where the bigram fails.
        model = ngram.parse_arpa(LEAKY_ARPA)
        fst = lm_to_fst(model, mode=BACKOFF_EPS)
        labels = [fst.isyms.id_of(w) for w in ("a", "b")]
        assert acceptor_sentence_cost(fst, labels) == pytest.approx(
            LEAKY_COST, abs=1e-12)
        assert cost_from_log10(score_sentence(model, ["a", "b"])) == \
            pytest.approx(LEAKY_COST, abs=1e-12)

    def test_unknown_mode(self, mini_model):
        with pytest.raises(GraphError, match="mode"):
            lm_to_fst(mini_model, mode="bogus")

    def test_nan_final_weight_refused(self):
        # P(</s> | a) backs off through bow(a) = +inf to log10 P(</s>) =
        # -inf: the sum is NaN, which no final weight may hold.
        model = ngram.NGramModel(2)
        model.add_entry(("a",), -0.5, math.inf)
        model.add_entry((EOS,), -math.inf)
        model.add_entry(("a", "a"), -0.1)
        assert math.isnan(model.score_word(("a",), EOS))
        with pytest.raises(FstError, match="NaN final weight"):
            lm_to_fst(model, mode=BACKOFF_EPS)


class TestReservedSymbols:
    """``<eps>`` is refused as any token and ``#0`` as an LM token or a
    morpheme: their ids would make word arcs read as back-off arcs, and
    phone arcs as epsilon moves."""

    @staticmethod
    def unigram_model(word):
        model = ngram.NGramModel(1)
        for w in (word, "a", EOS):
            model.add_entry((w,), -0.5)
        return model

    @pytest.mark.parametrize("token", ["<eps>", BACKOFF_HASH])
    @pytest.mark.parametrize("build", [make_morpheme_symbols, lm_to_fst])
    def test_lm_token(self, token, build):
        with pytest.raises(GraphError,
                           match=f"^LM token '{token}' is a reserved symbol$"):
            build(self.unigram_model(token))

    @pytest.mark.parametrize("token", ["<eps>", BACKOFF_HASH])
    def test_lm_token_in_a_given_table(self, token):
        syms = SymbolTable()
        for w in ("a", token):
            syms.add(w)
        with pytest.raises(GraphError, match=f"^LM token '{token}'"):
            lm_to_fst(self.unigram_model(token), syms)

    @pytest.mark.parametrize("token", ["<eps>", BACKOFF_HASH])
    @pytest.mark.parametrize("given", [False, True], ids=["own", "given"])
    def test_morpheme(self, token, given):
        # Built without Lexicon.add, which refuses a morpheme that starts
        # with '#' before compile_lexicon sees it.
        lex = Lexicon({token: [["a"]]})
        phones = morphs = None
        if given:
            phones, morphs = SymbolTable(), SymbolTable()
            phones.add("a")
            morphs.add(token)
        with pytest.raises(GraphError,
                           match=f"^morpheme '{token}' is a reserved symbol$"):
            compile_lexicon(lex, phones, morphs)

    def test_phone(self):
        lex = Lexicon()
        lex.add("x", ["a", "<eps>"])
        with pytest.raises(GraphError,
                           match="^phone '<eps>' is a reserved symbol$"):
            compile_lexicon(lex)

    def test_hash_phone_is_an_ordinary_phone(self):
        lex = Lexicon()
        lex.add("x", [BACKOFF_HASH])
        fst = compile_lexicon(lex)
        assert fst.arcs(0) == [Arc(fst.isyms.id_of(BACKOFF_HASH),
                                   fst.osyms.id_of("x"), 0.0, 0)]


class TestNegate:
    def test_involution(self, mini_model):
        g = lm_to_fst(mini_model)
        gg = negate_weights(negate_weights(g))
        for s in g.states():
            assert gg.arcs(s) == g.arcs(s)
        assert gg.finals == g.finals

    def test_best_path_becomes_worst(self, mini_model):
        # From context "vix", reading "ci": the direct bigram arc beats the
        # back-off route in the positive graph; negation flips the order.
        g = lm_to_fst(mini_model, mode=BACKOFF_EPS)
        states = context_states(mini_model)
        s = states[("vix",)]
        ci = g.isyms.id_of("ci")
        direct = find_arc(g, s, ci).weight
        back = g.arcs(s)
        eps = next(a for a in back if a.ilabel == 0)
        relay = eps.weight + find_arc(g, eps.nextstate, ci).weight
        assert direct < relay
        gn = negate_weights(g)
        assert find_arc(gn, s, ci).weight > \
            next(a for a in gn.arcs(s) if a.ilabel == 0).weight + \
            find_arc(gn, eps.nextstate, ci).weight


class TestCompose:
    def test_linear_acceptor_through_lm(self, ab_model_eos):
        g = lm_to_fst(ab_model_eos, mode=BACKOFF_EPS)
        line = linear_acceptor(["a", "b"], g.isyms)
        comp = compose_standard(line, g)
        lang = language(comp, max_arcs=8)
        seq = tuple(g.isyms.id_of(w) for w in ["a", "b"])
        # Path weight: -ln 10^-0.8 arcs plus the end-context final weight.
        end_final = cost_from_log10(ab_model_eos.score_word(("a", "b"), EOS))
        assert lang[(seq, seq)] == pytest.approx(cost_from_log10(-0.8) + end_final)

    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(23)
        for trial in range(40):
            a = self._random_dag(rng, eps_rate=0.3)
            b = self._random_dag(rng, eps_rate=0.3)
            comp = compose_standard(a, b)
            want = {}
            for il_a, ol_a, wa in iter_paths(a):
                for il_b, ol_b, wb in iter_paths(b):
                    if ol_a != il_b:
                        continue
                    key = (il_a, ol_b)
                    w = wa + wb
                    if key not in want or w < want[key]:
                        want[key] = w
            got = language(comp)
            assert set(got) == set(want), f"trial {trial}"
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-9), f"trial {trial}"

    @staticmethod
    def _random_dag(rng, num_states=5, num_arcs=8, num_labels=2, eps_rate=0.0):
        fst = Fst()
        fst.add_states(num_states)
        for _ in range(num_arcs):
            src = rng.randrange(num_states - 1)
            dst = rng.randrange(src + 1, num_states)
            il = 0 if rng.random() < eps_rate else rng.randint(1, num_labels)
            ol = 0 if rng.random() < eps_rate else rng.randint(1, num_labels)
            fst.add_arc(src, Arc(il, ol, round(rng.uniform(0, 3), 3), dst))
        fst.set_initial(0)
        fst.set_final(num_states - 1, round(rng.uniform(0, 1), 3))
        return fst

    def test_alphabet_mismatch_rejected(self):
        s1 = SymbolTable()
        s1.add("a")
        s2 = SymbolTable()
        s2.add("b")
        left = linear_acceptor(["a"], s1)
        right = linear_acceptor(["b"], s2)
        with pytest.raises(GraphError, match="alphabet mismatch"):
            compose_standard(left, right)


def full_scan_compose(a, b, seen=None):
    """Reference composition: the three-state filter with every left arc
    scanned against the right state's label groups.  ``seen`` collects
    (filter value, whether the left state has more arcs than the right
    state has labels) for each composed state."""
    out = Fst(a.isyms, b.osyms)
    start = (a.initial, b.initial, 0)
    state_of = {start: out.add_state()}
    stack = [start]

    def visit(key):
        s = state_of.get(key)
        if s is None:
            s = out.add_state()
            state_of[key] = s
            stack.append(key)
        return s

    while stack:
        key = stack.pop()
        q1, q2, f = key
        src = state_of[key]
        grp = {}
        for arc in b.arcs(q2):
            grp.setdefault(arc.ilabel, []).append(arc)
        if seen is not None:
            seen.add((f, len(a.arcs(q1)) > len(grp)))
        for a1 in a.arcs(q1):
            if a1.olabel != 0:
                for a2 in grp.get(a1.olabel, ()):
                    dst = visit((a1.nextstate, a2.nextstate, 0))
                    out.add_arc(src, Arc(a1.ilabel, a2.olabel,
                                         weight_times(a1.weight, a2.weight), dst))
            else:
                if f == 0:
                    for a2 in grp.get(0, ()):
                        dst = visit((a1.nextstate, a2.nextstate, 0))
                        out.add_arc(src, Arc(a1.ilabel, a2.olabel,
                                             weight_times(a1.weight, a2.weight), dst))
                if f != 2:
                    dst = visit((a1.nextstate, q2, 1))
                    out.add_arc(src, Arc(a1.ilabel, 0, a1.weight, dst))
        if f != 1:
            for a2 in grp.get(0, ()):
                dst = visit((q1, a2.nextstate, 2))
                out.add_arc(src, Arc(0, a2.olabel, a2.weight, dst))
        wa, wb = a.final(q1), b.final(q2)
        if wa != ZERO and wb != ZERO:
            out.set_final(src, weight_times(wa, wb))
    out.set_initial(0)
    return connect(out)


def graph_text(fst):
    return write_text_fst(fst) if fst.initial >= 0 else ""


HUB_LABELS = 8      # output labels 1..8 of the hub; 9 plays #0


def hub_lexicon(rng):
    """Left operand shaped like a lexicon: a hub state with many arcs
    (repeated output labels, epsilon outputs, tied (ilabel, weight)
    pairs, an eps:#0 self-loop) and short spokes back to it."""
    fst = Fst()
    hub = fst.add_state()
    fst.set_initial(hub)
    fst.set_final(hub, 0.0)
    for _ in range(rng.randint(12, 24)):
        il = rng.randint(1, 4)
        ol = 0 if rng.random() < 0.25 else rng.randint(1, HUB_LABELS)
        w = rng.choice([0.0, 0.5])
        if rng.random() < 0.3:
            fst.add_arc(hub, Arc(il, ol, w, hub))
            continue
        mid = fst.add_state()
        fst.add_arc(hub, Arc(il, ol, w, mid))
        for _ in range(rng.randint(1, 2)):
            ol2 = 0 if rng.random() < 0.7 else rng.randint(1, HUB_LABELS)
            fst.add_arc(mid, Arc(rng.randint(1, 4), ol2, 0.25, hub))
    if rng.random() < 0.7:
        fst.add_arc(hub, Arc(0, HUB_LABELS + 1, 0.0, hub))
    if rng.random() < 0.5:
        fst.arc_sort_input()
    return fst


def sparse_lm(rng, num_states=5):
    """Right operand shaped like an LM: states with one to three input
    labels each, some of them epsilon or #0 back-off arcs."""
    fst = Fst()
    fst.add_states(num_states)
    fst.set_initial(0)
    for s in range(num_states):
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            il = 0 if r < 0.2 else HUB_LABELS + 1 if r < 0.35 \
                else rng.randint(1, HUB_LABELS)
            fst.add_arc(s, Arc(il, il, round(rng.uniform(0, 2), 3),
                               rng.randrange(num_states)))
        if rng.random() < 0.6:
            fst.set_final(s, round(rng.uniform(0, 1), 3))
    return fst


class TestComposeMatchesFullScan:
    def test_hub_operands(self):
        seen = set()
        nonempty = 0
        for seed in range(40):
            rng = random.Random(seed)
            a, b = hub_lexicon(rng), sparse_lm(rng)
            want = graph_text(full_scan_compose(a, b, seen))
            assert graph_text(compose_standard(a, b)) == want, f"seed {seed}"
            nonempty += bool(want)
        assert nonempty >= 30
        # All three filter values, each from a left state with more arcs
        # than the right state has labels and from one with fewer.
        assert seen == {(f, sparse) for f in (0, 1, 2) for sparse in (False, True)}

    def test_lexicon_and_lm(self, mini_model):
        syms = make_morpheme_symbols(mini_model, with_hash=True)
        left = compile_lexicon(Lexicon.parse(MINI_LEXICON_TEXT), None, syms)
        left.add_arc(left.initial, Arc(0, syms.id_of(BACKOFF_HASH), 0.0, left.initial))
        left.arc_sort_input()
        for mode in (BACKOFF_EPS, BACKOFF_HASH):
            g = lm_to_fst(mini_model, syms, mode=mode)
            assert graph_text(compose_standard(left, g)) == \
                graph_text(full_scan_compose(left, g))


# SHA-256 of write_text_fst of the default PipelineConfig task's search
# graphs.  A change to graph building that renumbers states or reorders
# arcs changes decode tie-breaks; it must show up here and be deliberate.
SEARCH_GRAPH_SHA256 = {
    "HCLG3": "83d268ad2279e9d66b78fafa791fa91aa942cc2a29c41b6fb386bf2737ee639a",
    "HCLG4": "faa35784c413f0641ebef76fd361a1d6143dce1223a4fa6c9118cc398c0fb117",
}


def test_default_task_search_graphs_are_pinned(task_models):
    task, g4, g3 = task_models
    graphs = build_graphs(task.lexicon, g4, g3)
    got = {name: hashlib.sha256(write_text_fst(graphs[name]).encode()).hexdigest()
           for name in SEARCH_GRAPH_SHA256}
    assert got == SEARCH_GRAPH_SHA256


# SHA-256 of every set-up output of the default task, with each float as
# float.hex so that no rounding hides a changed bit: the two LMs' entries
# and the four graphs' arcs (in list order), finals and initial states.
SETUP_BIT_SHA256 = {
    "g4": "9bed389c20969cf0f9e64544d6712326c8dda081ee12feab7a269506513633f7",
    "g3": "5c9fa0617fb02d717c8a7204abbfdead35cff17fac24eaed4065684fef77c2fc",
    "HCLG3": "d06fb03189e8c21d268d96f2c09452c6c2d022319d81f2260ec492caa02930bb",
    "G3neg": "4f3ec11bacdef522826b70b11c55b641f184d5e17060b89fe518a1e93d1e6bfc",
    "G4": "5baccbdd5a0e0207f9da8bf2028358f602734d93469c5b0b3efa9048c8ad3bb0",
    "HCLG4": "a4be974788899b24644deeb95b6ae900f3e383655f3df3bc8b52e850f39020b7",
}


def model_bits(model):
    h = hashlib.sha256()
    for n in range(1, model.order + 1):
        for gram, e in sorted(model.ngrams(n)):
            bow = "-" if e.backoff is None else e.backoff.hex()
            h.update(f"{' '.join(gram)}\t{e.logprob.hex()}\t{bow}\n".encode())
    return h.hexdigest()


def graph_bits(g):
    h = hashlib.sha256(f"{g.num_states} {g.initial}\n".encode())
    for s in g.states():
        for a in g.arcs(s):
            h.update(f"{s} {a.nextstate} {a.ilabel} {a.olabel} {a.weight.hex()}\n".encode())
    for s, w in sorted(g.finals.items()):
        h.update(f"{s} {w.hex()}\n".encode())
    return h.hexdigest()


def test_default_task_setup_outputs_are_bit_pinned(task_models):
    task, g4, g3 = task_models
    got = {"g4": model_bits(g4), "g3": model_bits(g3)}
    got.update((name, graph_bits(g))
               for name, g in build_graphs(task.lexicon, g4, g3).items())
    assert got == SETUP_BIT_SHA256


class TestSearchGraph:
    def test_accepts_exactly_lexical_phone_strings(self, mini_model):
        lex = Lexicon.parse(MINI_LEXICON_TEXT)
        graph = build_search_graph(lex, mini_model)
        phones = graph.isyms
        # A phone realization of an in-LM morpheme sequence is accepted at
        # the sentence score plus zero lexicon weight.
        for sent in (["vix", "tin"], ["vix", "ci"], ["cUx", "kAn", "vix"]):
            labels = [phones.id_of(p) for m in sent for p in lex.prons[m][0]]
            got = acceptor_sentence_cost(graph, labels)
            want = cost_from_log10(score_sentence(mini_model, sent))
            assert got == pytest.approx(want, abs=1e-9)
        # A phone string spelling no morpheme sequence is rejected.
        bad = [phones.id_of(p) for p in ["v", "i", "v"]]
        assert acceptor_sentence_cost(graph, bad) == ZERO

    def test_bigger_lm_gives_bigger_graph(self, mini_corpus):
        from wfstdec.ngram import estimate_witten_bell, prune_to_small_lm
        lex = Lexicon.parse(MINI_LEXICON_TEXT)
        big = estimate_witten_bell(mini_corpus * 3, 3)
        small = prune_to_small_lm(big, 0.3, 2)
        syms = make_morpheme_symbols(big, with_hash=True)
        g_big = build_search_graph(lex, big, None, syms)
        g_small = build_search_graph(lex, small, None, syms)
        assert g_big.num_arcs > g_small.num_arcs

    def test_lexicon_must_be_in_vocabulary(self, mini_model):
        lex = Lexicon.parse(MINI_LEXICON_TEXT + "zzz\tz z\n")
        with pytest.raises(GraphError, match="missing from the LM vocabulary"):
            build_search_graph(lex, mini_model)

    def test_lm_that_never_ends_gives_an_empty_composition(self):
        # </s> has probability 0, so no path through G is successful.
        model = ngram.parse_arpa(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n-inf\t</s>\n"
            "-99\t<s>\n\n\\end\\\n")
        lex = Lexicon()
        lex.add("a", ("x",))
        with pytest.raises(GraphError, match="^empty composition"):
            build_search_graph(lex, model)

    def test_backoff_surfaces_as_double_epsilon(self, mini_model):
        lex = Lexicon.parse(MINI_LEXICON_TEXT)
        graph = build_search_graph(lex, mini_model)
        assert any(a.ilabel == 0 and a.olabel == 0
                   for s in graph.states() for a in graph.arcs(s))
        # No #0 labels survive on the output tape.
        hash_id = graph.osyms.id_of(BACKOFF_HASH)
        assert all(a.olabel != hash_id
                   for s in graph.states() for a in graph.arcs(s))
