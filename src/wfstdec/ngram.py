"""ARPA back-off n-gram models: parsing, estimation, scoring, pruning.

Probabilities are stored as log10 values exactly as in the ARPA format;
conversion to negative natural-log costs happens when a model is compiled
into an acceptor (see graph.py).

The scorer implements the standard back-off recursion

    P(w | h) = p(h, w)                    if (h, w) is listed,
             = bow(h) * P(w | h[1:])      otherwise,

with bow(h) = 1 for contexts carrying no explicit back-off weight.  This
recursion is the analytic ground truth that both the compiled acceptors
and the decoder's relay matching must reproduce.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .fst import gc_paused

BOS = "<s>"
EOS = "</s>"

# log10 stand-in for "probability zero" on the sentence-begin unigram.
_BOS_LOGPROB = -99.0

_PREFIX = itemgetter(slice(None, -1))  # an n-gram's context, gram[:-1]


class NGramError(ValueError):
    pass


class OOVError(NGramError):
    def __init__(self, token: str):
        super().__init__(f"out-of-vocabulary token {token!r}")
        self.token = token


class NGramEntry(NamedTuple):
    logprob: float
    backoff: Optional[float] = None


def _check_token(token: str) -> None:
    """Refuse a token that ARPA text cannot carry: an empty one, or one
    with whitespace, where ``parse_arpa`` splits a line's fields."""
    if token.split() != [token]:
        raise NGramError(f"token {token!r} is empty or holds whitespace, "
                         "which ARPA text cannot carry")


class NGramModel:
    """Back-off n-gram model addressed by token tuples."""

    def __init__(self, order: int):
        if order < 1:
            raise NGramError(f"order must be >= 1, got {order}")
        self.order = order
        # _grams[n] maps an n-tuple of tokens to its entry, n = 1..order.
        self._grams: list[dict[tuple[str, ...], NGramEntry]] = [
            {} for _ in range(order + 1)
        ]
        self.vocabulary: set[str] = set()

    def add_entry(self, gram: Sequence[str], logprob: float,
                  backoff: Optional[float] = None) -> None:
        gram = tuple(gram)
        n = len(gram)
        if not 1 <= n <= self.order:
            raise NGramError(f"entry order {n} outside 1..{self.order}")
        if backoff is not None and n == self.order:
            raise NGramError(f"back-off weight on highest-order entry {gram}")
        if math.isnan(logprob) or (backoff is not None and math.isnan(backoff)):
            raise NGramError(f"NaN log-probability or back-off weight on {gram}")
        for token in gram:
            _check_token(token)
        self._grams[n][gram] = NGramEntry(logprob, backoff)
        self.vocabulary.update(gram)

    def entry(self, gram: Sequence[str]) -> Optional[NGramEntry]:
        gram = tuple(gram)
        n = len(gram)
        if not 1 <= n <= self.order:
            return None
        return self._grams[n].get(gram)

    def ngrams(self, n: int) -> Iterable[tuple[tuple[str, ...], NGramEntry]]:
        return self._grams[n].items()

    def num_ngrams(self, n: int) -> int:
        return len(self._grams[n])

    def events(self) -> list[str]:
        """Tokens the model can predict: the vocabulary minus <s>."""
        return sorted(self.vocabulary - {BOS})

    def contexts(self) -> set[tuple[str, ...]]:
        """All context tuples: the empty context, every entry prefix, and
        every entry with an explicit back-off weight."""
        out = {()}
        for n in range(2, self.order + 1):
            out.update(map(_PREFIX, self._grams[n]))
        for n in range(1, self.order):
            out.update(gram for gram, e in self._grams[n].items() if e.backoff is not None)
        return out

    def score_word(self, context: Sequence[str], word: str) -> float:
        """log10 P(word | context) via back-off recursion."""
        if word not in self.vocabulary:
            raise OOVError(word)
        h = tuple(context)
        if self.order > 1:
            h = h[-(self.order - 1):]
        else:
            h = ()
        return self._backoff_score(h, word)

    def _backoff_score(self, h: tuple[str, ...], word: str) -> float:
        """score_word for a context ``h`` already cut to the model's order."""
        grams = self._grams
        total = 0.0
        while True:
            e = grams[len(h) + 1].get(h + (word,))
            if e is not None:
                return total + e.logprob
            if not h:
                raise OOVError(word)
            ce = grams[len(h)].get(h)
            if ce is not None and ce.backoff is not None:
                total += ce.backoff
            h = h[1:]

    def validate(self) -> None:
        """Check back-off chain closure; raise listing the first offender."""
        for n in range(2, self.order + 1):
            for gram in self._grams[n]:
                if gram[:-1] not in self._grams[n - 1]:
                    raise NGramError(
                        "missing back-off chain: context "
                        f"{' '.join(gram[:-1])!r} of {' '.join(gram)!r} is not listed"
                    )


def score_sentence(model: NGramModel, tokens: Sequence[str]) -> float:
    """log10 probability of a sentence of interior tokens.

    Sentence markers are implicit: the context starts at <s> and the </s>
    probability is included at the end.
    """
    ctx: tuple[str, ...] = (BOS,) if model.order > 1 else ()
    total = 0.0
    for tok in tokens:
        total += model.score_word(ctx, tok)
        if model.order > 1:
            ctx = (ctx + (tok,))[-(model.order - 1):]
    total += model.score_word(ctx, EOS)
    return total


# -- ARPA serialization ----------------------------------------------------

@gc_paused
def parse_arpa(text: str) -> NGramModel:
    """Parse standard ARPA text into a model; validates section counts."""
    lines = text.splitlines()
    counts: dict[int, int] = {}
    i = 0
    while i < len(lines) and lines[i].strip() != "\\data\\":
        i += 1
    if i == len(lines):
        raise NGramError("missing \\data\\ header")
    i += 1
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("ngram "):
            i += 1
            try:
                n_str, cnt_str = line[len("ngram "):].split("=")
                counts[int(n_str)] = int(cnt_str)
            except ValueError:
                raise NGramError(f"line {i}: bad count declaration {line!r}") from None
        else:
            break
    if not counts:
        raise NGramError("no ngram count declarations")
    order = max(counts)
    model = NGramModel(order)
    seen: dict[int, int] = {n: 0 for n in counts}
    current_n = None
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "\\end\\":
            current_n = None
            break
        m = line
        if m.startswith("\\") and m.endswith("-grams:"):
            try:
                current_n = int(m[1:-len("-grams:")])
            except ValueError:
                raise NGramError(f"line {i}: bad section header {line!r}") from None
            if current_n not in counts:
                raise NGramError(f"section \\{current_n}-grams: not declared in \\data\\")
            continue
        if current_n is None:
            raise NGramError(f"line {i}: unexpected line outside a section: "
                             f"{line!r}")
        parts = line.split()
        if len(parts) not in (current_n + 1, current_n + 2):
            raise NGramError(f"line {i}: bad {current_n}-gram line: {line!r}")
        try:
            logprob = float(parts[0])
            backoff = float(parts[-1]) if len(parts) == current_n + 2 else None
        except ValueError:
            raise NGramError(f"line {i}: bad number in {line!r}") from None
        gram = parts[1:current_n + 1]
        if model.entry(gram) is not None:
            raise NGramError(f"line {i}: repeated {current_n}-gram "
                             f"{' '.join(gram)!r}")
        try:
            model.add_entry(gram, logprob, backoff)
        except NGramError as exc:
            raise NGramError(f"line {i}: {exc}") from None
        seen[current_n] += 1
    for n, declared in counts.items():
        if seen[n] != declared:
            raise NGramError(
                f"\\data\\ declares {declared} {n}-grams but section lists {seen[n]}"
            )
    model.validate()
    return model


def write_arpa(model: NGramModel) -> str:
    out = ["\\data\\"]
    for n in range(1, model.order + 1):
        out.append(f"ngram {n}={model.num_ngrams(n)}")
    for n in range(1, model.order + 1):
        out.append("")
        out.append(f"\\{n}-grams:")
        for gram in sorted(model._grams[n]):
            e = model._grams[n][gram]
            line = f"{e.logprob:.6f}\t{' '.join(gram)}"
            if e.backoff is not None:
                line += f"\t{e.backoff:.6f}"
            out.append(line)
    out.append("")
    out.append("\\end\\")
    return "\n".join(out) + "\n"


# -- estimation ------------------------------------------------------------

@gc_paused
def estimate_witten_bell(corpus: Sequence[Sequence[str]], order: int) -> NGramModel:
    """Estimate a back-off model with Witten-Bell smoothing.

    Seen n-grams get interpolated Witten-Bell probabilities; back-off
    weights are derived from the leftover mass so every context's
    distribution over the event space sums to one exactly.

    Only the highest order is counted from the corpus.  Every lower-order
    n-gram of a sentence is the prefix of the (n+1)-gram at its position,
    except the sentence's last n tokens, so each lower order's counts are
    the next order's counts summed by context plus those suffixes.
    """
    if not corpus:
        raise NGramError("empty corpus")
    if order < 1:
        raise NGramError(f"order must be >= 1, got {order}")
    sents = [[BOS, *sent, EOS] for sent in corpus]
    # counts[n] counts the n-grams of every sentence, each sentence's being
    # the zip of its n shifted copies; for n >= 2, totals[n] and types[n]
    # give each context's token and type counts among them.
    counts: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(order + 1)]
    totals: list[dict[tuple[str, ...], int]] = [{} for _ in range(order + 1)]
    types: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(order + 1)]
    counts[order].update(chain.from_iterable(
        zip(*(t[j:] for j in range(order))) for t in sents))
    for n in range(order, 1, -1):
        total = totals[n]
        for gram, c in counts[n].items():
            h = gram[:-1]
            total[h] = total.get(h, 0) + c
        types[n] = Counter(map(_PREFIX, counts[n]))
        counts[n - 1].update(total)
        counts[n - 1].update(tuple(t[1 - n:]) for t in sents if len(t) >= n - 1)
    del counts[1][(BOS,)]  # <s> is never a predicted event

    events = sorted(g[0] for g in counts[1])
    for w in events:  # every corpus token is counted as a unigram
        _check_token(w)
    v = len(events)
    model = NGramModel(order)
    grams = model._grams

    # Each order's entries are written whole.  They pass add_entry's
    # checks by construction: every probability is a positive finite
    # float, so no log is NaN; only _assign_backoffs sets back-offs, and
    # only below the top order; and every token of a counted n-gram is
    # counted as a unigram, so the vocabulary is the unigrams', each token
    # checked above.

    # Unigrams: interpolate with a uniform base over the event space.
    n1 = sum(counts[1].values())
    t1 = len(counts[1])
    grams[1] = {(w,): NGramEntry(math.log10((counts[1][(w,)] + t1 / v) / (n1 + t1)))
                for w in events}
    if order > 1:
        grams[1][(BOS,)] = NGramEntry(_BOS_LOGPROB)
    model.vocabulary.update(w for (w,) in grams[1])

    # Higher orders, bottom-up; lower-order entries are already in place.
    for n in range(2, order + 1):
        p_low = {g: 10.0 ** e.logprob for g, e in grams[n - 1].items()}
        count, total, type_count = counts[n], totals[n], types[n]
        table = grams[n]
        for gram in sorted(count):
            h = gram[:-1]
            t = type_count[h]
            table[gram] = NGramEntry(
                math.log10((count[gram] + t * p_low[gram[1:]]) / (total[h] + t)))

    _assign_backoffs(model)
    model.validate()
    return model


def _assign_backoffs(model: NGramModel) -> None:
    """Set back-off weights on every entry that serves as a context.

    bow(h) = (1 - sum of listed P(w|h)) / (1 - sum of P(w|h[1:]) over the
    same words), which makes each context distribution sum to one given
    that the next-lower order does.  Both sums run over each context's
    words in the entries' order.  P(w|h[1:]) is the listed entry h[1:]+w
    where there is one (as always after estimation) and the back-off
    recursion where pruning dropped it.
    """
    grams = model._grams
    # prob[n] maps each listed n-gram to 10 ** its log-probability.
    prob = [{g: 10.0 ** e.logprob for g, e in table.items()} for table in grams]
    for n in range(2, model.order + 1):
        lower, p_low = grams[n - 1], prob[n - 1]
        num: dict[tuple[str, ...], float] = {}
        den: dict[tuple[str, ...], float] = {}
        for gram, p in prob[n].items():
            h = gram[:-1]
            pl = p_low.get(gram[1:])
            if pl is None:
                pl = 10.0 ** model._backoff_score(h[1:], gram[-1])
            num[h] = num.get(h, 1.0) - p
            den[h] = den.get(h, 1.0) - pl
        for h, hn in num.items():
            hd = den[h]
            if hd <= 1e-12 or hn <= 1e-12:
                bow = 1.0 if hn <= 1e-12 else 1e-12
            else:
                bow = hn / hd
            old = lower.get(h)
            if old is None:
                raise NGramError(f"context {h} has no entry")
            lower[h] = NGramEntry(old.logprob, math.log10(bow))


# -- pruning ---------------------------------------------------------------

@gc_paused
def prune_to_small_lm(model: NGramModel, threshold: float = 1e-5,
                      max_order: Optional[int] = None) -> NGramModel:
    """Drop high orders and low-probability entries; renormalize back-offs.

    Unigrams are never pruned so back-off scoring stays total.  An entry
    that is a context of a kept higher-order entry is kept regardless of
    its probability, preserving back-off chain closure.
    """
    if max_order is None:
        max_order = model.order
    if not 1 <= max_order <= model.order:
        raise NGramError(f"max_order {max_order} outside 1..{model.order}")
    if not 0.0 < threshold < 1.0:
        raise NGramError(f"threshold {threshold} outside (0, 1)")
    kept: list[set[tuple[str, ...]]] = [set() for _ in range(max_order + 1)]
    kept[1] = set(model._grams[1])
    for n in range(2, max_order + 1):
        kept[n] = {g for g, e in model.ngrams(n) if 10.0 ** e.logprob >= threshold}
    for n in range(max_order, 2, -1):
        for gram in kept[n]:
            kept[n - 1].add(gram[:-1])

    # Each order's entries are written whole.  Their log-probabilities are
    # the source's, which held no NaN, and only _assign_backoffs sets
    # back-offs, below the top order; the vocabulary is every kept token,
    # as add_entry would collect it.
    out = NGramModel(max_order)
    for n in range(1, max_order + 1):
        src = model._grams[n]
        out._grams[n] = {gram: NGramEntry(src[gram].logprob) for gram in sorted(kept[n])}
        out.vocabulary.update(chain.from_iterable(out._grams[n]))
    _assign_backoffs(out)
    out.validate()
    return out

