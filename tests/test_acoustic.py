"""Synthetic acoustic front end: synthesis, access, text round trip."""

import math
import re

import numpy as np
import pytest

from wfstdec.acoustic import (
    AcousticError,
    AcousticMatrix,
    read_acoustic_text,
    synthesize_utterance,
    write_acoustic_text,
)


class TestSynthesis:
    def test_zero_cost_spells_the_phones(self):
        m = synthesize_utterance([2, 1, 3], num_symbols=3)
        assert m.num_frames == 3
        for t, p in enumerate([2, 1, 3]):
            row = m.costs[t]
            assert row[p - 1] == 0.0
            others = [row[j] for j in range(3) if j != p - 1]
            assert all(c == pytest.approx(12.0) for c in others)

    def test_frames_per_phone(self):
        m = synthesize_utterance([1, 2], num_symbols=2, frames_per_phone=3)
        assert m.num_frames == 6
        assert np.argmin(m.costs, axis=1).tolist() == [0, 0, 0, 1, 1, 1]

    def test_seeded_noise_is_deterministic(self):
        a = synthesize_utterance([1, 2, 1], 4, noise=0.5, seed=9)
        b = synthesize_utterance([1, 2, 1], 4, noise=0.5, seed=9)
        c = synthesize_utterance([1, 2, 1], 4, noise=0.5, seed=10)
        assert np.array_equal(a.costs, b.costs)
        assert not np.array_equal(a.costs, c.costs)

    def test_validation(self):
        with pytest.raises(AcousticError, match="empty"):
            synthesize_utterance([], 3)
        with pytest.raises(AcousticError, match="outside"):
            synthesize_utterance([4], 3)
        with pytest.raises(AcousticError, match="frames_per_phone"):
            synthesize_utterance([1], 3, frames_per_phone=0)
        with pytest.raises(AcousticError, match="noise"):
            synthesize_utterance([1], 3, noise=-1.0)
        with pytest.raises(AcousticError, match="seed"):
            synthesize_utterance([1], 3, seed=-1)
        for margin in (-3.0, math.nan):
            with pytest.raises(AcousticError, match="margin"):
                synthesize_utterance([1], 3, margin=margin)


class TestAccess:
    def test_padded_row_is_symbol_indexed(self):
        m = synthesize_utterance([2], 3)
        row = m.padded_row(0)
        assert row[0] == math.inf
        assert row[2] == 0.0

    def test_matrix_must_be_finite(self):
        with pytest.raises(AcousticError, match="finite"):
            AcousticMatrix("u", np.array([[math.inf]]))


class TestTextFormat:
    def test_round_trip(self):
        m = synthesize_utterance([1, 3, 2], 3, noise=0.25, seed=4, utt_id="u7")
        again = read_acoustic_text(write_acoustic_text(m))
        assert again.utt_id == "u7"
        assert np.allclose(again.costs, m.costs, atol=1e-6)

    @pytest.mark.parametrize("utt_id", ["", "a b", "x\ty", " u", "u\n"])
    def test_ids_the_header_cannot_carry_are_refused(self, utt_id):
        # Written, each made a header that read_acoustic_text refuses or
        # reads as another id.
        m = synthesize_utterance([1], 2, utt_id=utt_id)
        with pytest.raises(AcousticError, match=re.escape(repr(utt_id))):
            write_acoustic_text(m)

    def test_header_validated(self):
        with pytest.raises(AcousticError, match="header"):
            read_acoustic_text("bogus\n1 2\n")
        with pytest.raises(AcousticError, match="declares"):
            read_acoustic_text("utt u frames 2 symbols 2\n0 0\n")
