"""Back-off n-gram models: estimation, scoring, ARPA round trip, pruning.

The Witten-Bell checks compare against an independent hand oracle written
directly from the interpolation formula over the mini-corpus counts.
"""

import math
import random
import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wfstdec.ngram import (
    BOS,
    EOS,
    NGramEntry,
    NGramError,
    NGramModel,
    OOVError,
    estimate_witten_bell,
    parse_arpa,
    prune_to_small_lm,
    score_sentence,
    write_arpa,
)

from conftest import MINI_CORPUS


def conditional_mass(model, context):
    """Sum of P(w | context) over the full event space."""
    return sum(10.0 ** model.score_word(context, w) for w in model.events())


# -- independent oracle: interpolated Witten-Bell on the mini corpus -------

def _mini_counts():
    uni: dict[str, int] = {}
    bi: dict[tuple[str, str], int] = {}
    for sent in MINI_CORPUS:
        toks = [BOS] + sent + [EOS]
        for w in toks[1:]:
            uni[w] = uni.get(w, 0) + 1
        for a, b in zip(toks, toks[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
    return uni, bi


def _oracle_p1(word: str) -> float:
    uni, _ = _mini_counts()
    n1 = sum(uni.values())
    t1 = len(uni)
    v = len(uni)
    return (uni.get(word, 0) + t1 / v) / (n1 + t1)


def _oracle_p2(prev: str, word: str) -> float:
    """P(word | prev): interpolated if the bigram is seen, else bow * P1."""
    uni, bi = _mini_counts()
    seen = {b: c for (a, b), c in bi.items() if a == prev}
    total = sum(seen.values())
    types = len(seen)
    if word in seen:
        return (seen[word] + types * _oracle_p1(word)) / (total + types)
    kept = sum((seen[w] + types * _oracle_p1(w)) / (total + types) for w in seen)
    kept_low = sum(_oracle_p1(w) for w in seen)
    bow = (1.0 - kept) / (1.0 - kept_low)
    return bow * _oracle_p1(word)


class TestWittenBell:
    def test_mini_corpus_vocabulary(self, mini_model):
        assert mini_model.order == 2
        assert mini_model.vocabulary == {
            "vix", "ci", "tin", "cUx", "ti", "kAn", BOS, EOS}

    def test_smoothed_bigram_below_count_ratio(self, mini_model):
        # c(vix ci)/c(vix) = 2/4; smoothing must pull the estimate strictly
        # below that ratio while keeping it positive.
        p = 10.0 ** mini_model.score_word(("vix",), "ci")
        assert 0.0 < p < 0.5

    def test_bigram_matches_hand_oracle(self, mini_model):
        # (c + T*P1(ci)) / (c(vix) + T) with c=2, T=2, c(vix)=4, P1(ci)=3/21.
        assert _oracle_p2("vix", "ci") == pytest.approx(8.0 / 21.0, abs=1e-12)
        for prev in ["vix", "ci", "tin", "cUx", "ti", "kAn", BOS]:
            for word in ["vix", "ci", "tin", "cUx", "ti", "kAn", EOS]:
                got = 10.0 ** mini_model.score_word((prev,), word)
                assert got == pytest.approx(_oracle_p2(prev, word), abs=1e-9), \
                    f"P({word}|{prev})"

    def test_unigram_matches_hand_oracle(self, mini_model):
        for word in ["vix", "ci", "tin", "cUx", "ti", "kAn", EOS]:
            got = 10.0 ** mini_model.score_word((), word)
            assert got == pytest.approx(_oracle_p1(word), abs=1e-12)

    def test_sentence_score_matches_hand_oracle(self, mini_model):
        sent = ["vix", "tin", "cUx"]
        expect = (math.log10(_oracle_p2(BOS, "vix"))
                  + math.log10(_oracle_p2("vix", "tin"))
                  + math.log10(_oracle_p2("tin", "cUx"))
                  + math.log10(_oracle_p2("cUx", EOS)))
        got = score_sentence(mini_model, sent)
        assert math.isfinite(got)
        assert got == pytest.approx(expect, abs=1e-9)

    def test_conditional_mass_sums_to_one(self, mini_model):
        for ctx in sorted(mini_model.contexts()):
            assert conditional_mass(mini_model, ctx) == pytest.approx(1.0, abs=1e-9)

    def test_higher_order_mass_sums_to_one(self, mini_corpus):
        model = estimate_witten_bell(mini_corpus, 3)
        for ctx in sorted(model.contexts()):
            assert conditional_mass(model, ctx) == pytest.approx(1.0, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(NGramError, match="empty corpus"):
            estimate_witten_bell([], 2)

    def test_bad_order_rejected(self):
        with pytest.raises(NGramError, match="order"):
            estimate_witten_bell([["a"]], 0)

    @pytest.mark.parametrize("token", ["a b", "", "x\ty", "u\n"])
    def test_tokens_arpa_cannot_carry_refused(self, token):
        # Estimated, "a b" made ARPA text that parse_arpa refused.
        with pytest.raises(NGramError, match=re.escape(repr(token))):
            estimate_witten_bell([["c", token]], 2)


class TestEntries:
    @pytest.mark.parametrize("logprob, backoff", [
        (math.nan, None), (math.nan, -0.2), (-0.5, math.nan)])
    def test_nan_refused(self, logprob, backoff):
        model = NGramModel(2)
        with pytest.raises(NGramError, match="NaN"):
            model.add_entry(("a",), logprob, backoff)
        assert model.entry(("a",)) is None and not model.vocabulary

    @pytest.mark.parametrize("gram", [("",), ("a b",), ("a", "x\ty"),
                                      ("\u2028",)])
    def test_tokens_arpa_cannot_carry_refused(self, gram):
        model = NGramModel(2)
        with pytest.raises(NGramError, match=re.escape(repr(gram[-1]))):
            model.add_entry(gram, -0.5)
        assert model.entry(gram) is None and not model.vocabulary

    def test_infinities_accepted(self):
        model = NGramModel(2)
        model.add_entry(("a",), -math.inf, math.inf)
        model.add_entry(("b",), math.inf, -math.inf)
        assert model.entry(("a",)) == NGramEntry(-math.inf, math.inf)
        assert model.entry(("b",)) == NGramEntry(math.inf, -math.inf)


class TestScoring:
    def test_interior_score_with_listed_bigram(self, ab_model):
        # P(a) * P(b|a): -0.5 + -0.3.
        total = ab_model.score_word((), "a") + ab_model.score_word(("a",), "b")
        assert total == pytest.approx(-0.8, abs=1e-12)

    def test_interior_score_through_backoff(self, ab_model):
        # P(b) * bow(b) * P(a): -0.7 + (-0.1 + -0.5).
        total = ab_model.score_word((), "b") + ab_model.score_word(("b",), "a")
        assert total == pytest.approx(-1.3, abs=1e-12)

    def test_context_truncated_to_model_order(self, ab_model):
        assert ab_model.score_word(("b", "a"), "b") == pytest.approx(-0.3)

    def test_oov_raises(self, ab_model):
        with pytest.raises(OOVError):
            ab_model.score_word((), "zzz")


class TestArpa:
    TRIVIAL = """\\data\\
ngram 1=2

\\1-grams:
-0.5\ta
-0.7\tb

\\end\\
"""

    def test_parse_trivial(self):
        model = parse_arpa(self.TRIVIAL)
        assert model.order == 1
        assert model.num_ngrams(1) == 2
        assert model.entry(("a",)).logprob == -0.5
        assert model.entry(("b",)).logprob == -0.7

    def test_round_trip(self, mini_model):
        again = parse_arpa(write_arpa(mini_model))
        assert again.order == mini_model.order
        for n in (1, 2):
            assert again.num_ngrams(n) == mini_model.num_ngrams(n)
            for gram, e in mini_model.ngrams(n):
                e2 = again.entry(gram)
                assert e2.logprob == pytest.approx(e.logprob, abs=1e-6)
                if e.backoff is None:
                    assert e2.backoff is None
                else:
                    assert e2.backoff == pytest.approx(e.backoff, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_is_exact_on_a_six_decimal_grid(self, data):
        # Every token add_entry accepts, and every value on the grid that
        # write_arpa prints, reads back as it was written.
        order = data.draw(st.integers(1, 3))
        vocab = data.draw(st.lists(st.text(min_size=1, max_size=4).filter(
            lambda t: t.split() == [t]), min_size=1, max_size=5, unique=True))
        grams = data.draw(st.sets(st.lists(
            st.sampled_from(vocab), min_size=1, max_size=order).map(tuple),
            min_size=1, max_size=12))
        value = st.integers(-10 ** 8, 10 ** 8).map(lambda k: k / 1e6)
        model = NGramModel(order)
        for gram in sorted({g[:n] for g in grams for n in range(1, len(g) + 1)}):
            backoff = (data.draw(st.none() | value) if len(gram) < order
                       else None)
            model.add_entry(gram, data.draw(value), backoff)

        def table(m):
            return [{g: (e.logprob.hex(),
                         None if e.backoff is None else e.backoff.hex())
                     for g, e in m.ngrams(n)} for n in range(1, m.order + 1)]

        again = parse_arpa(write_arpa(model))
        assert again.order == order and again.vocabulary == model.vocabulary
        assert table(again) == table(model)

    def test_count_mismatch_rejected(self):
        bad = self.TRIVIAL.replace("ngram 1=2", "ngram 1=3")
        with pytest.raises(NGramError, match="declares 3"):
            parse_arpa(bad)

    def test_repeated_ngram_rejected(self):
        # Three lines for three declared 1-grams, but "a" twice.
        bad = self.TRIVIAL.replace("ngram 1=2", "ngram 1=3").replace(
            "-0.7\tb", "-0.7\tb\n-0.9\ta")
        with pytest.raises(NGramError, match="^line 7: repeated 1-gram 'a'$"):
            parse_arpa(bad)

    def test_no_count_declarations_rejected(self):
        with pytest.raises(NGramError, match="^no ngram count declarations$"):
            parse_arpa("\\data\\\n\\1-grams:\n-0.5\ta\n\\end\\\n")

    def test_missing_header_rejected(self):
        with pytest.raises(NGramError, match="data"):
            parse_arpa("\\1-grams:\n-0.5 a\n\\end\\\n")

    def test_undeclared_section_rejected(self):
        bad = self.TRIVIAL.replace("\\end\\", "\\2-grams:\n-0.2\ta b\n\n\\end\\")
        with pytest.raises(NGramError, match="not declared"):
            parse_arpa(bad)

    @pytest.mark.parametrize("old, new, where", [
        ("ngram 1=2", "ngram 1=two", "line 2: bad count declaration"),
        ("ngram 1=2", "ngram 1", "line 2: bad count declaration"),
        ("\\1-grams:", "\\one-grams:", "line 4: bad section header"),
        ("-0.5\ta", "-0.5x\ta", "line 5: bad number"),
        ("-0.7\tb", "-0.7\tb\tnone", "line 6: bad number"),
        ("\\1-grams:", "-0.1\tc\n\\1-grams:",
         "line 4: unexpected line outside a section"),
        ("-0.7\tb", "-0.7\tb c d", "line 6: bad 1-gram line"),
    ], ids=["count", "count-without-equals", "section-header", "logprob",
            "backoff", "outside-section", "field-count"])
    def test_bad_numbers_name_the_line(self, old, new, where):
        with pytest.raises(NGramError, match=f"^{where}"):
            parse_arpa(self.TRIVIAL.replace(old, new))

    BIGRAM = """\\data\\
ngram 1=2
ngram 2=1

\\1-grams:
-0.5\ta\t-0.2
-0.7\tb

\\2-grams:
-0.3\ta b

\\end\\
"""

    @pytest.mark.parametrize("old, new, where", [
        ("-0.5\ta\t-0.2", "nan\ta\t-0.2", "line 6: NaN"),
        ("-0.5\ta\t-0.2", "-0.5\ta\tNaN", "line 6: NaN"),
        ("-0.3\ta b", "nan\ta b", "line 10: NaN"),
    ], ids=["logprob", "backoff", "bigram"])
    def test_nan_names_the_line(self, old, new, where):
        with pytest.raises(NGramError, match=f"^{where}"):
            parse_arpa(self.BIGRAM.replace(old, new))

    def test_infinities_accepted(self):
        model = parse_arpa(self.BIGRAM.replace("-0.5\ta\t-0.2", "-inf\ta\tinf"))
        assert model.entry(("a",)) == NGramEntry(-math.inf, math.inf)

    def test_backoff_chain_validated(self):
        model = NGramModel(2)
        model.add_entry(("a",), -0.5)
        model.add_entry(("b", "a"), -0.3)  # context "b" never listed
        with pytest.raises(NGramError, match="back-off chain"):
            model.validate()


class TestPruning:
    def test_drops_low_probability_entries(self, mini_corpus):
        big = estimate_witten_bell(mini_corpus * 20, 3)
        small = prune_to_small_lm(big, threshold=0.49, max_order=2)
        assert small.order == 2
        # Unigrams survive untouched.
        assert small.num_ngrams(1) == big.num_ngrams(1)
        assert small.num_ngrams(2) < big.num_ngrams(2)
        for gram, e in small.ngrams(2):
            assert 10.0 ** e.logprob >= 0.49
        small.validate()

    def test_pruned_mass_still_sums_to_one(self, mini_corpus):
        big = estimate_witten_bell(mini_corpus, 3)
        small = prune_to_small_lm(big, threshold=0.1, max_order=3)
        for ctx in sorted(small.contexts()):
            assert conditional_mass(small, ctx) == pytest.approx(1.0, abs=1e-9)

    def test_kept_probabilities_unchanged(self, mini_corpus):
        big = estimate_witten_bell(mini_corpus, 3)
        small = prune_to_small_lm(big, threshold=1e-5, max_order=2)
        for gram, e in small.ngrams(2):
            assert e.logprob == big.entry(gram).logprob

    def test_bad_arguments(self, mini_model):
        with pytest.raises(NGramError, match="max_order"):
            prune_to_small_lm(mini_model, 1e-5, 3)
        with pytest.raises(NGramError, match="threshold"):
            prune_to_small_lm(mini_model, 0.0)

    def test_random_models_score_all_events(self, mini_corpus):
        # Pruning must never break scoring totality.
        rng = random.Random(3)
        big = estimate_witten_bell(mini_corpus * 3, 4)
        small = prune_to_small_lm(big, 1e-3, 3)
        events = small.events()
        for _ in range(200):
            ctx = tuple(rng.choice(events) for _ in range(rng.randrange(3)))
            w = rng.choice(events)
            assert math.isfinite(small.score_word(ctx, w))


# -- bulk estimation against a per-n-gram reference -------------------------

def _reference_witten_bell(corpus, order):
    """estimate_witten_bell written the plain way: each order counted from
    the corpus, one add_entry per n-gram, and every back-off from the
    back-off recursion."""
    counts = [Counter(chain.from_iterable(zip(*(t[j:] for j in range(n)))
                                          for t in ([BOS, *s, EOS] for s in corpus)))
              for n in range(order + 1)]
    del counts[1][(BOS,)]
    events = sorted({g[0] for g in counts[1]})
    model = NGramModel(order)
    n1, t1 = sum(counts[1].values()), len(counts[1])
    for w in events:
        model.add_entry((w,), math.log10((counts[1][(w,)] + t1 / len(events)) / (n1 + t1)))
    if order > 1:
        model.add_entry((BOS,), -99.0)
    for n in range(2, order + 1):
        ctx_total, ctx_types = Counter(), Counter()
        for gram, c in counts[n].items():
            ctx_total[gram[:-1]] += c
            ctx_types[gram[:-1]] += 1
        for gram, c in sorted(counts[n].items()):
            p_low = 10.0 ** model.entry(gram[1:]).logprob
            t = ctx_types[gram[:-1]]
            model.add_entry(gram, math.log10((c + t * p_low) / (ctx_total[gram[:-1]] + t)))
    _reference_backoffs(model)
    return model


def _reference_backoffs(model):
    for n in range(2, model.order + 1):
        by_ctx = {}
        for gram, _ in model.ngrams(n):
            by_ctx.setdefault(gram[:-1], []).append(gram[-1])
        for h, words in by_ctx.items():
            num = den = 1.0
            for w in words:
                num -= 10.0 ** model.entry(h + (w,)).logprob
                den -= 10.0 ** model.score_word(h[1:], w)
            if den <= 1e-12 or num <= 1e-12:
                bow = 1.0 if num <= 1e-12 else 1e-12
            else:
                bow = num / den
            model.add_entry(h, model.entry(h).logprob, math.log10(bow))


def _reference_prune(model, threshold, max_order):
    kept = [set() for _ in range(max_order + 1)]
    kept[1] = {g for g, _ in model.ngrams(1)}
    for n in range(2, max_order + 1):
        kept[n] = {g for g, e in model.ngrams(n) if 10.0 ** e.logprob >= threshold}
    for n in range(max_order, 2, -1):
        kept[n - 1].update(g[:-1] for g in kept[n])
    out = NGramModel(max_order)
    for n in range(1, max_order + 1):
        for gram in sorted(kept[n]):
            out.add_entry(gram, model.entry(gram).logprob)
    _reference_backoffs(out)
    return out


def lm_bits(model):
    """Every entry in insertion order, floats as float.hex, and the
    vocabulary: equal only when the two models are bit-identical."""
    return (model.order, sorted(model.vocabulary),
            [[(gram, e.logprob.hex(), None if e.backoff is None else e.backoff.hex())
              for gram, e in model.ngrams(n)] for n in range(1, model.order + 1)])


def _suffix_dropped(model):
    """Whether some entry's suffix is unlisted, so a back-off weight reads
    P(w | h[1:]) through the back-off recursion."""
    return any(gram[1:] not in dict(model.ngrams(n - 1))
               for n in range(2, model.order + 1) for gram, _ in model.ngrams(n))


@st.composite
def _estimation_cases(draw):
    sentence = st.lists(st.sampled_from("abcde"), max_size=6)
    corpus = draw(st.lists(sentence, min_size=1, max_size=12))
    order = draw(st.integers(1, 5))
    max_order = draw(st.integers(1, order))
    threshold = draw(st.sampled_from([1e-5, 0.05, 0.2, 0.35, 0.5, 0.8]))
    return corpus, order, max_order, threshold


class TestBulkEstimation:
    @settings(max_examples=300, deadline=None)
    @given(_estimation_cases())
    def test_bit_identical_to_per_ngram_reference(self, case):
        corpus, order, max_order, threshold = case
        big = estimate_witten_bell(corpus, order)
        assert lm_bits(big) == lm_bits(_reference_witten_bell(corpus, order))
        small = prune_to_small_lm(big, threshold, max_order)
        assert lm_bits(small) == lm_bits(_reference_prune(big, threshold, max_order))
        event("suffix dropped" if _suffix_dropped(small) else "suffixes listed")

    def test_pruning_can_drop_a_suffix(self):
        # The property's fallback case, pinned: pruning at 0.5 keeps the
        # trigram a c </s> (P = 0.65) but not its suffix c </s>.
        corpus = [["a", "b"], ["a", "c"], ["c", "a", "d"], ["c", "a", "e"]]
        big = estimate_witten_bell(corpus, 3)
        small = prune_to_small_lm(big, 0.5, 3)
        assert _suffix_dropped(small)
        assert lm_bits(small) == lm_bits(_reference_prune(big, 0.5, 3))
