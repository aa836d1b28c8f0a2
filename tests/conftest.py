"""Shared fixtures: the mini morpheme corpus, hand-built models, the
default task's models and report, and the acceptance-summary reporter."""

from __future__ import annotations

import gc

import pytest

from wfstdec.ngram import (
    EOS,
    NGramModel,
    estimate_witten_bell,
    prune_to_small_lm,
)
from wfstdec.pipeline import PipelineConfig, generate_task, run_pipeline

# Two-sentence morpheme corpus; both sentences begin with "vix".
MINI_CORPUS = [
    ["vix", "ci", "vix", "tin", "cUx", "ti"],
    ["vix", "tin", "cUx", "kAn", "vix", "ci"],
]

# Phone spellings of the corpus morphemes (single-letter phones).
MINI_LEXICON_TEXT = (
    "vix\tv i x\n"
    "ci\tc i\n"
    "tin\tt i n\n"
    "cUx\tc U x\n"
    "ti\tt i\n"
    "kAn\tk A n\n"
)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test after which the cyclic garbage collector is off, as a
    builder that leaked its pause would leave it; turn it back on so the
    tests after it run as usual."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic garbage collector was left disabled")


@pytest.fixture(scope="session")
def mini_corpus():
    return [list(s) for s in MINI_CORPUS]


@pytest.fixture(scope="session")
def mini_model():
    """Witten-Bell 2-gram estimated from the mini corpus."""
    return estimate_witten_bell(MINI_CORPUS, 2)


@pytest.fixture(scope="session")
def default_run():
    """The default pipeline's report: 20 noise-free utterances, all three
    strategies."""
    return run_pipeline(PipelineConfig())


@pytest.fixture(scope="session")
def task_models():
    """The default synthetic task's big LM and its pruned small LM."""
    task = generate_task(PipelineConfig())
    g4 = estimate_witten_bell(task.corpus, 4)
    g3 = prune_to_small_lm(g4, 1e-5, 3)
    return task, g4, g3


def make_ab_model(with_eos: bool = False) -> NGramModel:
    """Order-2 fixture: log10 P(a)=-0.5 bow(a)=-0.2, P(b)=-0.7 bow(b)=-0.1,
    P(b|a)=-0.3.  With with_eos, end-of-sentence has probability one so
    acceptor final weights vanish at the root context."""
    m = NGramModel(2)
    m.add_entry(("a",), -0.5, -0.2)
    m.add_entry(("b",), -0.7, -0.1)
    m.add_entry(("a", "b"), -0.3)
    if with_eos:
        m.add_entry((EOS,), 0.0)
    return m


# A bigram model whose listed "a b" costs more than its back-off route:
# log10 P(b | a) = -1.5 against bow(a) + P(b) = -0.9.  The exact cost of
# the sentence "a b" is -ln 10^(-0.2 - 1.5 - 0.3) = 4.605170185988092; a
# graph that backs off past the listed bigram gives 3.2236 instead.
LEAKY_ARPA = """\\data\\
ngram 1=4
ngram 2=3

\\1-grams:
-99\t<s>\t-0.3
-0.5\ta\t-0.4
-0.5\tb\t-0.2
-0.6\t</s>

\\2-grams:
-0.2\t<s> a
-1.5\ta b
-0.3\tb </s>

\\end\\
"""
LEAKY_COST = 4.605170185988092


@pytest.fixture
def ab_model():
    return make_ab_model()


@pytest.fixture
def ab_model_eos():
    return make_ab_model(with_eos=True)


# -- acceptance criterion reporting ----------------------------------------

_CRITERION_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_record():
    def record(line: str) -> None:
        _CRITERION_LINES.append(line)
    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
