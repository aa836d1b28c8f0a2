"""WER alignment, morpheme-to-word reconstruction, size reporting."""

import random

import pytest

from wfstdec.fst import Arc, Fst
from wfstdec.metrics import (
    MetricsError,
    corpus_wer,
    morphemes_to_words,
    size_report,
    wer_score,
)


class TestWer:
    def test_identical_is_zero(self):
        assert wer_score(["a", "b", "c"], ["a", "b", "c"]) == (0.0, 0, 0, 0)

    def test_one_substitution(self):
        wer, s, i, d = wer_score(["a", "b", "c"], ["a", "x", "c"])
        assert wer == pytest.approx(100.0 / 3)
        assert (s, i, d) == (1, 0, 0)

    def test_one_deletion(self):
        wer, s, i, d = wer_score(["a", "b", "c"], ["a", "c"])
        assert wer == pytest.approx(100.0 / 3)
        assert (s, i, d) == (0, 0, 1)

    def test_one_insertion(self):
        wer, s, i, d = wer_score(["a", "b"], ["a", "x", "b"])
        assert (s, i, d) == (0, 1, 0)

    def test_corpus_wer_sums_errors_over_reference_tokens(self):
        pairs = [(["a", "b", "c"], ["a", "x", "c"]), (["d"], ["d", "e"])]
        assert corpus_wer(pairs) == (50.0, 1, 1, 0, 4)
        assert corpus_wer(iter(pairs)) == corpus_wer(pairs)
        assert corpus_wer([]) == (0.0, 0, 0, 0, 0)

    def test_self_score_zero_on_random_sequences(self):
        rng = random.Random(2)
        for _ in range(50):
            x = [rng.choice("abcd") for _ in range(rng.randint(1, 10))]
            assert wer_score(x, x) == (0.0, 0, 0, 0)

    def test_invariant_under_renaming(self):
        ref = ["a", "b", "b", "c"]
        hyp = ["a", "c", "b"]
        renamed = {"a": "x", "b": "y", "c": "z"}
        direct = wer_score(ref, hyp)
        mapped = wer_score([renamed[t] for t in ref], [renamed[t] for t in hyp])
        assert direct == mapped

    def test_error_counts_consistent_with_edit_distance(self):
        rng = random.Random(8)
        for _ in range(100):
            ref = [rng.choice("ab") for _ in range(rng.randint(1, 6))]
            hyp = [rng.choice("ab") for _ in range(rng.randint(0, 6))]
            wer, s, i, d = wer_score(ref, hyp)
            assert wer == pytest.approx(100.0 * (s + i + d) / len(ref))
            # Alignment bookkeeping must balance the length difference.
            assert len(hyp) == len(ref) - d + i

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricsError, match="empty reference"):
            wer_score([], ["a"])


class TestWordReconstruction:
    def test_two_morpheme_word(self):
        assert morphemes_to_words(["vix", "+ci"]) == ["vixci"]

    def test_mixed_sequence(self):
        assert morphemes_to_words(["vix", "+tin", "cUx", "+ti"]) == \
            ["vixtin", "cUxti"]

    def test_unmarked_tokens_pass_through(self):
        assert morphemes_to_words(["vix", "ci"]) == ["vix", "ci"]

    def test_initial_suffix_flagged_word_initial(self):
        assert morphemes_to_words(["+ci", "vix"]) == ["ci", "vix"]

    def test_empty(self):
        assert morphemes_to_words([]) == []


class TestSizeReport:
    def test_counts_and_bytes(self):
        fst = Fst()
        fst.add_states(2)
        fst.set_initial(0)
        fst.add_arc(0, Arc(1, 1, 0.5, 1))
        fst.set_final(1, 0.0)
        [row] = size_report({"G": fst})
        assert row.name == "G"
        assert row.states == 2
        assert row.arcs == 1
        assert row.bytes > 0

    def test_empty_fst(self):
        [row] = size_report({"E": Fst()})
        assert row.states == 0 and row.arcs == 0 and row.bytes == 0
