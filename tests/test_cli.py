"""Command-line interface: end-to-end file-based workflow and error exits."""

import json

import pytest

from wfstdec import pipeline
from wfstdec.cli import main
from wfstdec.fst import SymbolTable, write_text_fst
from wfstdec.graph import BACKOFF_HASH, lm_to_fst, negate_weights
from wfstdec.ngram import parse_arpa

from conftest import MINI_CORPUS, MINI_LEXICON_TEXT
from test_decoder import deadline


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """All artifacts of the build->synth->decode chain, made via the CLI."""
    d = tmp_path_factory.mktemp("cli")
    (d / "corpus.txt").write_text(
        "\n".join(" ".join(s) for s in MINI_CORPUS * 20) + "\n")
    (d / "lexicon.txt").write_text(MINI_LEXICON_TEXT)
    (d / "phones.txt").write_text("v i x t i n c U x\n")
    steps = [
        ["lm-build", str(d / "corpus.txt"), str(d / "g4.arpa"), "--order", "2"],
        ["lm-prune", str(d / "g4.arpa"), str(d / "g3.arpa"),
         "--prune-threshold", "0.55", "--max-order", "2"],
        ["graph-build", "--lm", str(d / "g3.arpa"),
         "--lexicon", str(d / "lexicon.txt"),
         "--isymbols", str(d / "phones.syms"),
         "--osymbols", str(d / "morphs.syms"), str(d / "hclg3.fst")],
        ["graph-build", "--lm", str(d / "g4.arpa"),
         "--lexicon", str(d / "lexicon.txt"), str(d / "hclg4.fst")],
        ["graph-build", "--lm", str(d / "g3.arpa"), "--negate",
         str(d / "g3neg.fst")],
        ["graph-build", "--lm", str(d / "g4.arpa"), str(d / "g4.fst")],
        ["synth", str(d / "phones.txt"), str(d / "phones.syms"),
         str(d / "utt.ac")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return d


def _decode_argv(d, strategy):
    graph = "hclg4.fst" if strategy == "static" else "hclg3.fst"
    argv = ["decode", "--strategy", strategy, "--graph", str(d / graph),
            "--acoustic", str(d / "utt.ac"),
            "--isymbols", str(d / "phones.syms"),
            "--osymbols", str(d / "morphs.syms")]
    if strategy != "static":
        argv += ["--g3neg", str(d / "g3neg.fst"), "--g4", str(d / "g4.fst")]
    return argv


class TestWorkflow:
    def test_lm_build_reports_entry_count(self, workdir, capsys):
        code, out, _ = run(capsys, "lm-build", str(workdir / "corpus.txt"),
                           str(workdir / "rebuilt.arpa"), "--order", "2")
        assert code == 0
        assert "2-gram model" in out

    def test_pruned_model_is_smaller(self, workdir):
        big = (workdir / "g4.arpa").read_text()
        small = (workdir / "g3.arpa").read_text()
        assert len(small.splitlines()) < len(big.splitlines())

    @pytest.mark.parametrize("strategy", ["onthefly", "static", "rescore"])
    def test_decode_recovers_transcript(self, workdir, capsys, strategy):
        code, out, _ = run(capsys, *_decode_argv(workdir, strategy))
        assert code == 0
        uid, words, _cost = out.strip().split("\t")
        assert uid == "utt0"
        assert words == "vix tin cUx"

    def test_strategies_report_equal_costs(self, workdir, capsys):
        costs = []
        for strategy in ("onthefly", "static", "rescore"):
            _, out, _ = run(capsys, *_decode_argv(workdir, strategy))
            costs.append(float(out.strip().split("\t")[2]))
        assert costs[0] == pytest.approx(costs[1], abs=1e-3)
        assert costs[0] == pytest.approx(costs[2], abs=1e-3)

    def test_decode_writes_lattice(self, workdir, capsys, tmp_path):
        lat = tmp_path / "utt.lat"
        code, _, _ = run(capsys, *_decode_argv(workdir, "static"),
                         "--lattice", str(lat))
        assert code == 0
        assert "frame" in lat.read_text()

    def test_score_perfect_and_one_substitution(self, workdir, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("utt0 vix tin cUx\n")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("utt0 vix tin cUx\n")
        code, out, _ = run(capsys, "score", str(hyp), "--ref", str(ref))
        assert code == 0 and "WER 0.00%" in out
        hyp.write_text("utt0 vix ci cUx\n")
        code, out, _ = run(capsys, "score", str(hyp), "--ref", str(ref))
        assert code == 0 and "WER 33.33%" in out

    def test_report_is_deterministic(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "num_morphemes": 10, "num_phones": 8, "num_sentences": 150,
            "num_utterances": 3, "utterance_len": [5, 8],
            "sentence_len": [4, 6]}))
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "report", "--config", str(cfg),
                               "--no-timing")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "wer[onthefly]=0.00" in outs[0]
        assert "wer[static]=0.00" in outs[0]
        assert "wer[rescore]=0.00" in outs[0]

    def test_report_strategy_overrides_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "num_morphemes": 10, "num_phones": 8, "num_sentences": 150,
            "num_utterances": 3, "utterance_len": [5, 8],
            "sentence_len": [4, 6], "strategies": ["onthefly", "rescore"]}))
        code, out, _ = run(capsys, "report", "--config", str(cfg),
                           "--strategy", "static", "--no-timing")
        assert code == 0
        assert "wer[static]=0.00" in out
        assert "onthefly" not in out and "rescore" not in out


class TestErrors:
    def test_onthefly_requires_both_lms(self, workdir, capsys):
        argv = _decode_argv(workdir, "onthefly")
        i = argv.index("--g3neg")
        code, _, err = run(capsys, *argv[:i])
        assert code == 2
        assert "--g3neg" in err

    def test_negative_synth_seed(self, workdir, capsys, tmp_path):
        out_path = tmp_path / "o.ac"
        code, out, err = run(capsys, "synth", str(workdir / "phones.txt"),
                             str(workdir / "phones.syms"), str(out_path),
                             "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: seed must be non-negative\n"
        assert not out_path.exists()

    def test_negative_synth_margin(self, workdir, capsys, tmp_path):
        # A negative margin would make the scheduled phone the dearest.
        out_path = tmp_path / "o.ac"
        code, out, err = run(capsys, "synth", str(workdir / "phones.txt"),
                             str(workdir / "phones.syms"), str(out_path),
                             "--margin", "-3")
        assert (code, out) == (1, "")
        assert err == "error: margin must be non-negative\n"
        assert not out_path.exists()

    def test_backoff_cycle_in_big_lm(self, workdir, capsys, tmp_path):
        cyclic = tmp_path / "cyclic.fst"
        cyclic.write_text("0\t0\t0\t0\t0.5\n0\t0\n")  # back-off self-loop
        argv = _decode_argv(workdir, "onthefly")
        argv[argv.index("--g4") + 1] = str(cyclic)
        with deadline(10):
            code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error: back-off cycle" in err

    def test_backoff_cycle_without_final_in_big_lm(self, workdir, capsys,
                                                   tmp_path):
        # One state with a self-loop per symbol id: id 0 (<eps>) is a
        # back-off self-loop and every morpheme matches directly, so only
        # the end-of-utterance relay to a final weight walks the cycle.
        ids = [line.split()[1] for line in
               (workdir / "morphs.syms").read_text().splitlines()]
        cyclic = tmp_path / "cyclic.fst"
        cyclic.write_text("".join(f"0\t0\t{i}\t{i}\t0.5\n" for i in ids))
        argv = _decode_argv(workdir, "onthefly")
        argv[argv.index("--g4") + 1] = str(cyclic)
        with deadline(10):
            code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error: back-off cycle" in err

    def test_negative_epsilon_cycle_in_search_graph(self, workdir, capsys,
                                                    tmp_path):
        # 0 -eps/-1.0-> 1 -eps/0.5-> 0 ahead of the real graph's start.
        text = (workdir / "hclg4.fst").read_text()
        first = text.split("\t", 1)[0]
        cyclic = tmp_path / "cyclic.fst"
        n = 1 + max(int(f) for line in text.splitlines()
                    for f in line.split()[:2 if len(line.split()) == 5 else 1])
        cyclic.write_text(f"{n}\t{n + 1}\t0\t0\t-1.0\n"
                          f"{n + 1}\t{n}\t0\t0\t0.5\n"
                          f"{n + 1}\t{first}\t0\t0\t0.0\n" + text)
        argv = _decode_argv(workdir, "static")
        argv[argv.index("--graph") + 1] = str(cyclic)
        with deadline(10):
            code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error: negative-weight epsilon cycle" in err

    @pytest.mark.parametrize("strategy", ["onthefly", "rescore"])
    def test_search_graph_not_composed_with_g3neg(self, workdir, capsys,
                                                  tmp_path, strategy):
        # Two morphemes lead from state 0 to state 1, but to two different
        # G3neg states: the graph is no lexicon-LM composition with G3neg.
        # Rescoring meets the two arcs in the first-pass lattice.
        def sym_id(table, sym):
            return next(line.split()[1] for line in
                        (workdir / table).read_text().splitlines()
                        if line.split()[0] == sym)
        v = sym_id("phones.syms", "v")
        a, b = sym_id("morphs.syms", "vix"), sym_id("morphs.syms", "tin")
        graph = tmp_path / "hclg3.fst"
        graph.write_text(f"0\t1\t{v}\t{a}\t0.0\n0\t1\t{v}\t{b}\t0.0\n1\t0.0\n")
        g3neg = tmp_path / "g3neg.fst"
        g3neg.write_text(f"0\t1\t{a}\t{a}\t0.0\n0\t2\t{b}\t{b}\t0.0\n"
                         "0\t0.0\n1\t0.0\n2\t0.0\n")
        # One frame of phone v, so the first pass decodes the graph.
        (tmp_path / "v.txt").write_text("v\n")
        utt = tmp_path / "v.ac"
        assert main(["synth", str(tmp_path / "v.txt"),
                     str(workdir / "phones.syms"), str(utt)]) == 0
        argv = _decode_argv(workdir, strategy)
        argv[argv.index("--graph") + 1] = str(graph)
        argv[argv.index("--g3neg") + 1] = str(g3neg)
        argv[argv.index("--acoustic") + 1] = str(utt)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: search graph state 1 is reached from "
                              "G3neg states 1 and 2")
        assert out == ""

    @staticmethod
    def _decode_with_hash_backoff_labels(workdir, capsys, tmp_path, lm,
                                         strategy):
        """Decode with the LM behind --<lm> built with #0:eps back-off
        arcs, which make it a transducer."""
        model = parse_arpa((workdir / ("g3.arpa" if lm == "g3neg" else
                                       "g4.arpa")).read_text())
        syms = SymbolTable.read_text((workdir / "morphs.syms").read_text())
        fst = lm_to_fst(model, syms, mode=BACKOFF_HASH)
        path = tmp_path / f"{lm}.fst"
        path.write_text(write_text_fst(
            negate_weights(fst) if lm == "g3neg" else fst))
        argv = _decode_argv(workdir, strategy)
        argv[argv.index(f"--{lm}") + 1] = str(path)
        return run(capsys, *argv)

    @pytest.mark.parametrize("strategy", ["onthefly", "rescore"])
    def test_g3neg_with_hash_backoff_labels(self, workdir, capsys, tmp_path,
                                            strategy):
        # The relay refuses a transducer instead of scoring it.
        code, out, err = self._decode_with_hash_backoff_labels(
            workdir, capsys, tmp_path, "g3neg", strategy)
        assert code == 1
        assert err.startswith("error: G3neg is not an acceptor: state ")
        assert out == ""

    @pytest.mark.parametrize("strategy", ["onthefly", "rescore"])
    def test_g4_with_hash_backoff_labels(self, workdir, capsys, tmp_path,
                                         strategy):
        code, out, err = self._decode_with_hash_backoff_labels(
            workdir, capsys, tmp_path, "g4", strategy)
        assert code == 1
        assert err.startswith("error: G4 is not an acceptor: state ")
        assert out == ""

    @pytest.mark.parametrize("label, message", [
        (-1, "line 1: negative label in '0 1 -1 0 0.5'"),
        (99, "search graph input label 99 is outside the acoustic matrix's "
             "2 symbols"),
    ], ids=["negative", "too-large"])
    def test_label_outside_the_acoustic_matrix(self, capsys, tmp_path,
                                               label, message):
        graph = tmp_path / "graph.fst"
        graph.write_text(f"0 1 {label} 0 0.5\n1 0\n")
        utt = tmp_path / "utt.ac"
        utt.write_text("utt u frames 1 symbols 2\n0.0 1.0\n")
        code, out, err = run(capsys, "decode", "--strategy", "static",
                             "--graph", str(graph), "--acoustic", str(utt))
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("option, value", [
        ("--beam", "-1"), ("--beam", "nan"), ("--lattice-beam", "-1"),
        ("--acoustic-scale", "-1"), ("--max-active", "0")])
    def test_bad_decode_option(self, capsys, tmp_path, option, value):
        # Rejected before any file is read: these files do not exist.
        argv = ["decode", "--graph", str(tmp_path / "missing.fst"),
                "--acoustic", str(tmp_path / "missing.ac"), option, value]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: all decode options must be positive\n"
        assert out == ""

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "lm-build", str(tmp_path / "nope.txt"),
                           str(tmp_path / "o.arpa"))
        assert code == 1
        assert "error" in err

    def test_malformed_lm(self, capsys, tmp_path):
        bad = tmp_path / "bad.arpa"
        bad.write_text("this is not a model\n")
        code, _, err = run(capsys, "graph-build", "--lm", str(bad),
                           str(tmp_path / "o.fst"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("token", ["<eps>", "#0"])
    def test_reserved_lm_token(self, capsys, tmp_path, token):
        # Once written as 0:0, an <eps> word arc passed for a back-off arc.
        lm = tmp_path / "g.arpa"
        lm.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n"
                      f"-0.5\t{token}\n-0.5\ta\n-0.5\t</s>\n\n\\end\\\n")
        out_fst = tmp_path / "o.fst"
        code, out, err = run(capsys, "graph-build", "--lm", str(lm),
                             str(out_fst))
        assert (code, out) == (1, "")
        assert err == f"error: LM token '{token}' is a reserved symbol\n"
        assert not out_fst.exists()

    @pytest.mark.parametrize("name, text", [
        ("graph", "0\t1\t1\t1\theavy\n1\t0\n"),
        ("graph", "0\t1\t1\t1\t0.5\n1\tnan\n"),
        ("isymbols", "a\t0\nb\t1\n"),
    ], ids=["non-numeric-weight", "nan-final-weight", "id-0-not-eps"])
    def test_malformed_decode_input(self, workdir, capsys, tmp_path, name,
                                    text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        argv = _decode_argv(workdir, "static")
        argv[argv.index(f"--{name}") + 1] = str(bad)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: line ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("edit, where", [
        (lambda lines: [lines[0], "abc " + lines[1].split(" ", 1)[1]]
         + lines[2:], "line 2: bad cost"),
        (lambda lines: [lines[0].replace("frames 9", "frames nine")]
         + lines[1:], "line 1: bad frame or symbol count"),
        (lambda lines: lines[:2] + [lines[2].rsplit(" ", 1)[0]] + lines[3:],
         "line 3: "),
    ], ids=["cost", "frame-count", "short-row"])
    def test_malformed_acoustic_names_the_line(self, workdir, capsys,
                                               tmp_path, edit, where):
        lines = (workdir / "utt.ac").read_text().splitlines()
        bad = tmp_path / "bad.ac"
        bad.write_text("\n".join(edit(lines)) + "\n")
        argv = _decode_argv(workdir, "static")
        argv[argv.index("--acoustic") + 1] = str(bad)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {where}") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("lines, where", [
        (("ngram 1=x",), "line 2: bad count declaration"),
        (("ngram 1=1", "", "\\1-grams:", "-0.5x\tvix"), "line 5: bad number"),
        (("ngram 1=1", "", "\\1-grams:", "-0.5\tvix\tnone"),
         "line 5: bad number"),
    ], ids=["count", "logprob", "backoff"])
    def test_malformed_arpa_names_the_line(self, capsys, tmp_path, lines,
                                           where):
        bad = tmp_path / "bad.arpa"
        bad.write_text("\n".join(("\\data\\",) + lines + ("", "\\end\\")) + "\n")
        code, out, err = run(capsys, "graph-build", "--lm", str(bad),
                             str(tmp_path / "o.fst"))
        assert code == 1
        assert err.startswith(f"error: {where}") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("text, message", [
        ('{"seed": ', "is not valid JSON: Expecting value: line 1 column 10 "
         "(char 9)"),
        ("[1, 2]", "must hold a JSON object, not list"),
    ], ids=["truncated", "list"])
    def test_config_not_a_json_object(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "report", "--config", str(cfg))
        assert code == 2
        assert err == f"error: config {cfg} {message}\n"
        assert out == ""

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        code, _, err = run(capsys, "report", "--config", str(cfg))
        assert code == 2
        assert "bogus_knob" in err

    @pytest.mark.parametrize("config, message", [
        ({"beam": -1}, "all decode options must be positive"),
        ({"beam": "wide"}, "decode option beam must be a number, not 'wide'"),
        ({"max_active": 2.5},
         "decode option max_active must be an integer, not 2.5"),
        ({"strategies": ["bogus"]}, "unknown strategy 'bogus'; expected one "
         "of onthefly, static, rescore"),
        ({"sentence_len": 5},
         "config sentence_len must be two integers lo <= hi, not 5"),
        ({"utterance_len": [5]},
         "config utterance_len must be two integers lo <= hi, not [5]"),
        ({"utterance_len": [9, 5]},
         "config utterance_len must be two integers lo <= hi, not [9, 5]"),
        ({"strategies": "static"}, "config strategies must be a non-empty "
         "list of distinct strategy names, not 'static'"),
        ({"strategies": []}, "config strategies must be a non-empty list of "
         "distinct strategy names, not []"),
        ({"strategies": ["static", "static"]}, "config strategies must be a "
         "non-empty list of distinct strategy names, not ['static', 'static']"),
        ({"noise": -1}, "config noise must be a non-negative number, not -1"),
        ({"seed": 1.5}, "config seed must be a non-negative integer, not 1.5"),
        ({"num_utterances": "5"},
         "config num_utterances must be a non-negative integer, not '5'"),
        # A constant of PipelineConfig, not a field.
        ({"frames_per_phone": 0}, "unknown config key 'frames_per_phone'"),
        ({"frames_per_phone": 2}, "unknown config key 'frames_per_phone'"),
        ({"prune_threshold": 1},
         "config prune_threshold must lie in (0, 1), not 1"),
        # Attributes of PipelineConfig that are not fields.
        ({"options": 1}, "unknown config key 'options'"),
        ({"__class__": 1}, "unknown config key '__class__'"),
    ], ids=["negative", "not-a-number", "fractional-max-active",
            "unknown-strategy", "scalar-length", "short-length",
            "reversed-length", "strategies-not-a-list", "no-strategies",
            "repeated-strategy", "negative-noise",
            "fractional-seed", "string-count", "zero-frames-per-phone",
            "held-phones", "prune-threshold-one", "method", "dunder"])
    def test_bad_config_value(self, capsys, tmp_path, monkeypatch, config,
                              message):
        def no_stage(cfg):
            raise AssertionError("a stage ran")
        monkeypatch.setattr(pipeline, "generate_task", no_stage)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "report", "--config", str(cfg))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_repeated_strategy_flag(self, capsys):
        code, out, err = run(capsys, "report", "--strategy", "static",
                             "--strategy", "static")
        assert (code, out) == (2, "")
        assert err.startswith("error: config strategies must be a non-empty")

    @pytest.mark.parametrize("argv", [
        "graph-build --lm g3.arpa --lexicon lexicon.txt --negate o.fst",
        "synth phones.txt phones.syms o.ac --frames-per-phone 2",
    ], ids=["negated-search-graph", "frames-per-phone"])
    def test_refused_arguments(self, workdir, capsys, monkeypatch, argv):
        # --negate is for LM graphs only; synth writes one frame per phone.
        monkeypatch.chdir(workdir)
        with pytest.raises(SystemExit, match="^2$"):
            main(argv.split())
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("config, message", [
        ({"num_morphemes": 100, "num_phones": 2, "pron_len": 2},
         "cannot draw 100 distinct pronunciations from 2 phones at length 2 "
         "(4 possible)"),
        ({"branching": 60}, "branching 60 exceeds num_morphemes 50"),
        ({"num_morphemes": 1}, "num_morphemes 1 at suffix_fraction 0.3 "
         "leaves fewer than 2 stems (1)"),
        ({"num_morphemes": 10, "suffix_fraction": 0.9}, "num_morphemes 10 "
         "at suffix_fraction 0.9 leaves fewer than 2 stems (1)"),
    ], ids=["pronunciations", "branching", "one-morpheme", "suffixes"])
    def test_failed_stage(self, capsys, tmp_path, config, message):
        # Field conflicts are found before any draw, not as a sampling error.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "report", "--config", str(cfg))
        assert code == 1
        assert err == f"error: stage 'generate' failed: {message}\n"
        assert out == ""

    def test_score_without_reference(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("utt0 vix\n")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("uttX vix\n")
        code, _, err = run(capsys, "score", str(hyp), "--ref", str(ref))
        assert code == 2
        assert "uttX" in err

    @pytest.mark.parametrize("refs,hyps,message", [
        ("utt0 a b c\nutt1 d e f g\n", "utt0 a b c\n",
         "no hypothesis for utt1"),
        ("utt0 a b c\n", "utt0 a b c\nutt0 a b c\n",
         "hypothesis utt0 is given twice"),
        ("utt0 a b c\nutt0 d e\n", "utt0 a b c\n",
         "reference utt0 is given twice"),
    ], ids=["missing-hypothesis", "hypothesis-twice", "reference-twice"])
    def test_score_counts_each_reference_once(self, capsys, tmp_path, refs,
                                              hyps, message):
        ref = tmp_path / "ref.txt"
        ref.write_text(refs)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text(hyps)
        code, out, err = run(capsys, "score", str(hyp), "--ref", str(ref))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_score_refuses_an_empty_reference(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("utt1 a b\nutt0\n")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("utt0 a\nutt1 a b\n")
        code, out, err = run(capsys, "score", str(hyp), "--ref", str(ref))
        assert code == 2
        assert err == "error: reference utt0 on line 2 has no tokens\n"
        assert out == ""
        # An empty hypothesis is scored: both reference words are deletions.
        ref.write_text("utt0 a b\n")
        hyp.write_text("utt0\n")
        code, out, err = run(capsys, "score", str(hyp), "--ref", str(ref))
        assert code == 0
        assert out == "WER 100.00% (2 errors / 2 reference tokens)\n"
