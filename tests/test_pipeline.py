"""Synthetic-task generation and the end-to-end pipeline driver."""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from wfstdec import pipeline
from wfstdec.decoder import (DecodeOptions, EmptyResultError, RelayStats,
                             best_path, decode_onthefly, decode_static,
                             rescore_lattice)
from wfstdec.fst import write_text_fst
from wfstdec.metrics import SUFFIX_MARK
from wfstdec.pipeline import (
    STRATEGIES,
    DecodeReport,
    PipelineConfig,
    StageError,
    build_graphs,
    decode_utterance,
    generate_task,
    run_pipeline,
)

from test_decoder import SENT, _build_mini, _utt

SMALL = PipelineConfig(num_morphemes=12, num_phones=8, num_sentences=400,
                       num_utterances=6, utterance_len=(6, 10),
                       sentence_len=(4, 7))


class TestGenerateTask:
    def test_pronunciations_unique_and_fixed_length(self):
        task = generate_task(SMALL)
        prons = [tuple(p) for m in task.morphemes for p in task.lexicon.prons[m]]
        assert len(prons) == len(set(prons)) == SMALL.num_morphemes
        assert all(len(p) == SMALL.pron_len for p in prons)

    def test_suffix_fraction(self):
        task = generate_task(SMALL)
        suffixes = [m for m in task.morphemes if m.startswith(SUFFIX_MARK)]
        assert len(suffixes) == int(SMALL.num_morphemes * SMALL.suffix_fraction)
        assert not any(s in task.starts for s in suffixes)

    def test_corpus_covers_every_morpheme(self):
        task = generate_task(SMALL)
        seen = {tok for sent in task.corpus for tok in sent}
        assert seen == set(task.morphemes)

    def test_utterances_follow_the_chain(self):
        task = generate_task(SMALL)
        for _, morphs in task.utterances:
            assert morphs[0] in task.starts
            for prev, cur in zip(morphs, morphs[1:]):
                assert cur in task.chain[prev]

    def test_deterministic(self):
        a, b = generate_task(SMALL), generate_task(SMALL)
        assert a.corpus == b.corpus
        assert a.utterances == b.utterances
        assert a.lexicon.prons == b.lexicon.prons

    def test_seed_changes_output(self):
        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert generate_task(other).corpus != generate_task(SMALL).corpus

    def test_impossible_lexicon_rejected(self):
        bad = dataclasses.replace(SMALL, num_morphemes=100, num_phones=3,
                                  pron_len=2)
        with pytest.raises(ValueError, match="distinct pronunciations"):
            generate_task(bad)


@pytest.fixture(scope="module")
def small_report():
    return run_pipeline(SMALL)


class TestRunPipeline:
    def test_zero_noise_is_error_free_for_all_strategies(self, small_report):
        assert sorted(small_report.strategies) == ["onthefly", "rescore", "static"]
        for sr in small_report.strategies.values():
            assert sr.wer == 0.0
            assert (sr.substitutions, sr.insertions, sr.deletions) == (0, 0, 0)

    def test_strategies_agree_on_paths(self, small_report):
        per_strategy = {
            name: [(u.utt_id, u.hypothesis) for u in sr.utterances]
            for name, sr in small_report.strategies.items()}
        assert per_strategy["onthefly"] == per_strategy["static"]
        assert per_strategy["onthefly"] == per_strategy["rescore"]

    def test_costs_agree_across_strategies(self, small_report):
        by_id = lambda sr: {u.utt_id: u.cost for u in sr.utterances}
        otf = by_id(small_report.strategies["onthefly"])
        for name in ("static", "rescore"):
            other = by_id(small_report.strategies[name])
            for uid, cost in otf.items():
                assert cost == pytest.approx(other[uid], abs=1e-6)

    def test_report_is_reproducible(self, small_report):
        again = run_pipeline(SMALL)
        assert small_report.render(include_timing=False) == \
            again.render(include_timing=False)

    def test_default_report_text_is_pinned(self, default_run):
        # Criterion 8 compares two runs of the same code; this pin also
        # catches a change that moves the default report between commits.
        # Re-pinned when the frame step's cutoff moved to the beam: only
        # the three peak_tokens lines changed (42, 46, 46 -> 8, 8, 10).
        # Re-pinned when the on-the-fly frame step began to read back-off
        # arcs as failure transitions: only peak_tokens[onthefly] changed
        # (8 -> 7).
        text = default_run.render(include_timing=False)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9da41dc50ca1e30cdda1cc19d5a2fab13b411ac82e80f8aae340a7447dedfdeb"

    def test_size_rows_present(self, small_report):
        names = [r.name for r in small_report.sizes]
        assert {"HCLG3", "HCLG4", "G3neg", "G4"} <= set(names)
        ratio = small_report.size_ratio()
        assert ratio is not None and ratio > 0

    def test_size_ratio_absent_without_static_graph(self):
        cfg = dataclasses.replace(SMALL, num_utterances=2,
                                  strategies=("onthefly",))
        report = run_pipeline(cfg)
        assert report.size_ratio() is None
        assert "size_ratio" not in report.render()

    def test_stage_failures_are_labelled(self):
        bad = dataclasses.replace(SMALL, num_morphemes=10 ** 6)
        with pytest.raises(StageError, match="generate"):
            run_pipeline(bad)

    def test_decode_failures_are_labelled(self, monkeypatch):
        def no_path(strategy, *args):
            raise EmptyResultError("utt0000", "no token reaches a final state")
        monkeypatch.setattr(pipeline, "decode_utterance", no_path)
        cfg = dataclasses.replace(SMALL, num_utterances=1,
                                  strategies=("rescore",))
        with pytest.raises(StageError, match=r"^stage 'decode\[rescore\]' "
                           "failed: .*no token reaches a final state$") as info:
            run_pipeline(cfg)
        assert isinstance(info.value.cause, EmptyResultError)

    def test_render_ends_with_counter_line(self, small_report):
        text = small_report.render(include_timing=False)
        assert text.endswith("relay_eps_output_matches=0\n")
        assert "rtf[" not in text
        assert "rtf[onthefly]" in small_report.render(include_timing=True)


class TestBuildGraphs:
    def test_builds_only_the_graphs_of_the_strategies(self, mini_model):
        m = _build_mini(mini_model)
        build = lambda *s: build_graphs(m["lex"], m["g4model"], m["g3model"], s)
        assert list(build("onthefly")) == ["HCLG3", "G3neg", "G4"]
        static = build("static")
        assert list(static) == ["HCLG4"]
        assert write_text_fst(static["HCLG4"]) == write_text_fst(m["HCLG4"])


class TestDecodeUtterance:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_equals_the_direct_decoder_calls(self, mini_model, strategy):
        m, g = _build_mini(mini_model), _build_mini(mini_model)  # both cold
        matrix = _utt(m, SENT, noise=1.0, seed=2)
        opts = DecodeOptions(beam=30.0, lattice_beam=30.0)
        via, direct = RelayStats(), RelayStats()
        got = decode_utterance(strategy, m, matrix, opts, via, "u")
        if strategy == "onthefly":
            want = decode_onthefly(g["HCLG3"], g["G3neg"], g["G4"], matrix,
                                   opts, direct, utt_id="u")
        elif strategy == "static":
            want = decode_static(g["HCLG4"], matrix, opts, utt_id="u")
        else:
            want = rescore_lattice(decode_static(g["HCLG3"], matrix, opts,
                                                 utt_id="u"),
                                   g["G3neg"], g["G4"], direct)
        assert (write_text_fst(got.fst), got.frames, got.peak_tokens,
                got.utt_id) == (write_text_fst(want.fst), want.frames,
                                want.peak_tokens, want.utt_id)
        assert via == direct and (via != RelayStats()) == (strategy != "static")

    def test_unknown_strategy(self, mini_model):
        m = _build_mini(mini_model)
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            decode_utterance("bogus", m, _utt(m, SENT), DecodeOptions())


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    out = capsys.readouterr().out
    assert out.startswith(ns["report"].render())
    hyp, cost = best_path(ns["lat"])
    assert hyp == ns["task"].utterances[0][1]
    assert out.endswith(f"{(hyp, cost)}\n")
