"""Evaluation utilities: WER alignment, word reconstruction, graph sizes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fst import Fst, write_text_fst


class MetricsError(ValueError):
    pass


def wer_score(reference: Sequence[str], hypothesis: Sequence[str]
              ) -> tuple[float, int, int, int]:
    """(WER percent, substitutions, insertions, deletions).

    Minimal edit distance with unit costs; ties prefer substitution over
    insertion over deletion.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise MetricsError("empty reference")
    n, m = len(ref), len(hyp)
    # dist[i][j]: cost of aligning ref[:i] with hyp[:j].
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            ins = dist[i][j - 1] + 1
            dele = dist[i - 1][j] + 1
            dist[i][j] = min(sub, ins, dele)
    s = i_cnt = d = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                s += 1
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            i_cnt += 1
            j -= 1
        else:
            d += 1
            i -= 1
    wer = 100.0 * (s + i_cnt + d) / n
    return wer, s, i_cnt, d


def corpus_wer(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]
               ) -> tuple[float, int, int, int, int]:
    """``wer_score`` summed over (reference, hypothesis) pairs: (WER
    percent, substitutions, insertions, deletions, reference tokens)."""
    s = i = d = n = 0
    for reference, hypothesis in pairs:
        _, s1, i1, d1 = wer_score(reference, hypothesis)
        s, i, d, n = s + s1, i + i1, d + d1, n + len(reference)
    return (100.0 * (s + i + d) / n if n else 0.0), s, i, d, n


SUFFIX_MARK = "+"


def morphemes_to_words(morphemes: Sequence[str]) -> list[str]:
    """Join suffix-marked morphemes onto the preceding word-initial one.

    A suffix-marked token in initial position is flagged word-initial
    rather than rejected.
    """
    words: list[str] = []
    for tok in morphemes:
        if tok.startswith(SUFFIX_MARK) and words:
            words[-1] += tok[len(SUFFIX_MARK):]
        else:
            words.append(tok.lstrip(SUFFIX_MARK))
    return words


@dataclass(frozen=True)
class SizeRow:
    name: str
    states: int
    arcs: int
    bytes: int


def size_report(fsts: dict[str, Fst]) -> list[SizeRow]:
    rows = []
    for name, fst in fsts.items():
        nbytes = len(write_text_fst(fst).encode()) if fst.num_states else 0
        rows.append(SizeRow(name, fst.num_states, fst.num_arcs, nbytes))
    return rows
