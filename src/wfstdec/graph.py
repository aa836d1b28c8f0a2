"""Compiling LMs and lexicons into WFSTs and composing search graphs.

The LM acceptor has one state per context; word arcs carry the word on
both tapes with weight -ln P(word | context) and back-off arcs carry the
back-off penalty with an epsilon (or #0) input label.  End-of-sentence
probabilities become final weights, with the back-off relay folded in so
every context state has a finite final weight.

The desk-scale search graph is lexicon o grammar with single-symbol
monophone emissions: each phone arc consumes exactly one acoustic frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .fst import (
    EPSILON_SYM,
    ZERO,
    Arc,
    Fst,
    FstError,
    SymbolTable,
    connect,
    gc_paused,
    weight_times,
)
from .ngram import BOS, EOS, NGramModel

LN10 = math.log(10.0)

BACKOFF_EPS = "eps"
BACKOFF_HASH = "#0"


class GraphError(ValueError):
    pass


@dataclass
class Lexicon:
    """Morpheme pronunciations over context-independent phones."""

    prons: dict[str, list[list[str]]] = field(default_factory=dict)

    def add(self, morpheme: str, phones: Sequence[str]) -> None:
        """Add a pronunciation.  A token that ``write`` could not write so
        that ``parse`` reads it back raises GraphError, and the lexicon is
        left as it was: an empty token, one with whitespace, and a
        morpheme that starts with ``#``, which ``parse`` takes for a
        comment line."""
        phones = list(phones)
        if not phones:
            raise GraphError(f"morpheme {morpheme!r} has an empty pronunciation")
        for token, kind in [(morpheme, "morpheme")] + [(p, "phone") for p in phones]:
            if token.split() != [token]:
                raise GraphError(f"{kind} {token!r} is empty or holds whitespace, "
                                 "which a lexicon line cannot carry")
        if morpheme.startswith("#"):
            raise GraphError(f"morpheme {morpheme!r} starts with '#', which "
                             "marks a comment line in a lexicon")
        self.prons.setdefault(morpheme, []).append(phones)

    def phones(self) -> list[str]:
        out = set()
        for prons in self.prons.values():
            for p in prons:
                out.update(p)
        return sorted(out)

    @classmethod
    def parse(cls, text: str) -> "Lexicon":
        lex = cls()
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2 or not parts[1].split():
                raise GraphError(f"line {ln}: bad lexicon line {raw!r}")
            lex.add(parts[0], parts[1].split())
        return lex

    def write(self) -> str:
        lines = []
        for m in sorted(self.prons):
            for p in self.prons[m]:
                lines.append(f"{m}\t{' '.join(p)}")
        return "\n".join(lines) + "\n"


def cost_from_log10(logprob: float) -> float:
    """ARPA log10 value -> natural-log cost."""
    return -logprob * LN10


def _check_token(token: str, kind: str) -> None:
    """Refuse ``<eps>`` as any token, and ``#0`` as an LM token or a
    morpheme: their ids would read as epsilon or as the back-off symbol."""
    if token == EPSILON_SYM or (token == BACKOFF_HASH and kind != "phone"):
        raise GraphError(f"{kind} {token!r} is a reserved symbol")


def make_morpheme_symbols(model: NGramModel, with_hash: bool = False) -> SymbolTable:
    syms = SymbolTable()
    for w in model.events():
        if w != EOS:
            _check_token(w, "LM token")
            syms.add(w)
    if with_hash:
        syms.add(BACKOFF_HASH)
    return syms


@gc_paused
def lm_to_fst(model: NGramModel, syms: Optional[SymbolTable] = None,
              mode: str = BACKOFF_EPS) -> Fst:
    """Compile a back-off model into a context-state acceptor.

    mode "eps" gives back-off arcs epsilon input labels (for the
    on-the-fly decoder's relay matching); mode "#0" labels them with the
    disambiguation symbol instead (for static composition).
    """
    if mode not in (BACKOFF_EPS, BACKOFF_HASH):
        raise GraphError(f"unknown back-off label mode {mode!r}")
    if syms is None:
        syms = make_morpheme_symbols(model, with_hash=(mode == BACKOFF_HASH))
    backoff_ilabel = 0
    if mode == BACKOFF_HASH:
        backoff_ilabel = syms.add(BACKOFF_HASH)

    contexts = sorted(sorted(model.contexts()), key=len)  # by (len(h), h)
    state_of = {h: s for s, h in enumerate(contexts)}
    # The arc lists are assembled directly, and each arc is made with
    # tuple.__new__, skipping Arc's Python-level constructor: every label
    # comes from syms (each word's id looked up once), every state from
    # state_of, and each weight is cost_from_log10's, inline.  No weight
    # is NaN, since no entry's log-probability or back-off is (add_entry
    # refuses them, and the estimators make none).  An arc goes to the
    # longest suffix of its history that is a state.
    arcs: list[list[Arc]] = [[] for _ in contexts]
    word_id: dict[str, int] = {}
    max_ctx = model.order - 1
    for n in range(1, model.order + 1):
        for gram, e in model.ngrams(n):
            w = gram[-1]
            src = state_of.get(gram[:-1])
            if src is None or w in (BOS, EOS):
                continue
            wid = word_id.get(w)
            if wid is None:
                _check_token(w, "LM token")
                wid = word_id[w] = syms.id_of(w)
            seq = gram[-max_ctx:] if max_ctx > 0 else ()
            dst = state_of.get(seq)
            while dst is None:
                seq = seq[1:]
                dst = state_of.get(seq)
            arcs[src].append(tuple.__new__(Arc, (wid, wid, -e.logprob * LN10, dst)))
    for src, h in enumerate(contexts):
        if not h:
            continue
        e = model.entry(h)
        bow = e.backoff if e is not None and e.backoff is not None else 0.0
        seq = h[1:]
        dst = state_of.get(seq)
        while dst is None:
            seq = seq[1:]
            dst = state_of.get(seq)
        arcs[src].append(tuple.__new__(Arc, (backoff_ilabel, 0, -bow * LN10, dst)))
    finals = {state_of[h]: cost_from_log10(model.score_word(h, EOS)) for h in contexts}
    if any(map(math.isnan, finals.values())):  # back-off sums of inf and -inf
        raise FstError("NaN final weight")

    init = (BOS,) if (BOS,) in state_of else ()
    fst = Fst._adopt(syms, syms, arcs, finals, state_of[init])
    fst.arc_sort_input()
    return fst


@gc_paused
def negate_weights(g: Fst) -> Fst:
    """Same topology with every arc and final weight negated."""
    out = Fst._adopt(
        g.isyms, g.osyms,
        [[tuple.__new__(Arc, (il, ol, w if w == ZERO else -w, dst))
          for il, ol, w, dst in state_arcs] for state_arcs in g._arcs],
        {s: w if w == ZERO else -w for s, w in g.finals.items()},
        g.initial)
    out.arc_sort_input()
    return out


def compile_lexicon(lex: Lexicon, phone_syms: Optional[SymbolTable] = None,
                    morph_syms: Optional[SymbolTable] = None) -> Fst:
    """Phones-in, morphemes-out transducer closed under concatenation.

    Each pronunciation runs from the loop state back to the loop state,
    emitting the morpheme on its first phone arc.
    """
    if not lex.prons:
        raise GraphError("empty lexicon")
    if phone_syms is None:
        phone_syms = SymbolTable()
        for p in lex.phones():
            phone_syms.add(p)
    if morph_syms is None:
        morph_syms = SymbolTable()
        for m in sorted(lex.prons):
            morph_syms.add(m)
    fst = Fst(phone_syms, morph_syms)
    loop = fst.add_state()
    fst.set_initial(loop)
    fst.set_final(loop, 0.0)
    for m in sorted(lex.prons):
        _check_token(m, "morpheme")
        mid = morph_syms.id_of(m)
        for pron in lex.prons[m]:
            src = loop
            for i, phone in enumerate(pron):
                _check_token(phone, "phone")
                pid = phone_syms.id_of(phone)
                olabel = mid if i == 0 else 0
                dst = loop if i == len(pron) - 1 else fst.add_state()
                fst.add_arc(src, Arc(pid, olabel, 0.0, dst))
                src = dst
    fst.arc_sort_input()
    return fst


def _check_alphabets(a: Fst, b: Fst) -> None:
    if a.osyms is None or b.isyms is None or a.osyms is b.isyms:
        return
    amap = dict(a.osyms.symbols())
    bmap = dict(b.isyms.symbols())
    if amap != bmap:
        raise GraphError("composition alphabet mismatch: "
                         "left output symbols differ from right input symbols")


@gc_paused
def compose_standard(a: Fst, b: Fst) -> Fst:
    """Standard composition with the three-state epsilon filter.

    Filter value 0 admits anything, 1 follows a left-only epsilon move,
    2 a right-only move; 1 and 2 block the opposite lone move so each
    logical path has a single epsilon interleaving.

    Each pair of states is matched from the side with fewer arcs, so the
    cost follows the arcs emitted rather than the left arcs scanned (a
    lexicon's word-boundary state has one arc per morpheme, an LM state
    a handful); the result is the same either way, down to state and arc
    order.
    """
    _check_alphabets(a, b)
    if a.initial < 0 or b.initial < 0:
        return Fst(a.isyms, b.osyms)
    # The operands' lists are read directly, and the output's arc lists
    # and finals are assembled directly, each arc made with tuple.__new__,
    # skipping Arc's Python-level constructor: its states are made here,
    # and its labels and weights come from checked operands.  A paired
    # arc's weight is weight_times of the two, inline (of two non-NaN
    # weights it is never NaN).
    arcs_a, arcs_b = a._arcs, b._arcs
    finals_a, finals_b = a.finals, b.finals
    start = (a.initial, b.initial, 0)
    state_of = {start: 0}
    stack = [start]
    out_arcs: list[list[Arc]] = [[]]
    finals: dict[int, float] = {}
    # Right-side arcs grouped by input label per state, built lazily.
    b_groups: dict[int, dict[int, list[Arc]]] = {}

    # Left-side arc positions grouped by output label per state, built
    # lazily; the epsilon-output positions are the list under label 0.
    a_index: dict[int, dict[int, list[int]]] = {}

    def new_state(key) -> int:
        s = state_of[key] = len(out_arcs)
        out_arcs.append([])
        stack.append(key)
        return s

    while stack:
        key = stack.pop()
        q1, q2, f = key
        row = out_arcs[state_of[key]]
        grp = b_groups.get(q2)
        if grp is None:
            grp = b_groups[q2] = {}
            for arc in arcs_b[q2]:
                grp.setdefault(arc.ilabel, []).append(arc)
        arcs1 = arcs_a[q1]
        if len(arcs1) > len(grp):
            # Match from the sparser right side: only the left arcs whose
            # output label the right state reads can match, besides the
            # epsilon-output ones.  Visiting them in their list order
            # emits exactly what the full scan emits, in the same order.
            ix = a_index.get(q1)
            if ix is None:
                ix = a_index[q1] = {0: []}
                for i, arc in enumerate(arcs1):
                    ix.setdefault(arc.olabel, []).append(i)
            pos = list(ix[0])
            for label in grp:
                if label:
                    pos += ix.get(label, ())
            pos.sort()
            arcs1 = [arcs1[i] for i in pos]
        for a1 in arcs1:
            if a1.olabel != 0:
                for a2 in grp.get(a1.olabel, ()):
                    nkey = (a1.nextstate, a2.nextstate, 0)
                    dst = state_of.get(nkey)
                    if dst is None:
                        dst = new_state(nkey)
                    w1, w2 = a1.weight, a2.weight
                    row.append(tuple.__new__(Arc, (
                        a1.ilabel, a2.olabel,
                        ZERO if w1 == ZERO or w2 == ZERO else w1 + w2, dst)))
            else:
                # Paired epsilon move (resets the filter).
                if f == 0:
                    for a2 in grp.get(0, ()):
                        nkey = (a1.nextstate, a2.nextstate, 0)
                        dst = state_of.get(nkey)
                        if dst is None:
                            dst = new_state(nkey)
                        w1, w2 = a1.weight, a2.weight
                        row.append(tuple.__new__(Arc, (
                            a1.ilabel, a2.olabel,
                            ZERO if w1 == ZERO or w2 == ZERO else w1 + w2, dst)))
                # Left-only epsilon move.
                if f != 2:
                    nkey = (a1.nextstate, q2, 1)
                    dst = state_of.get(nkey)
                    if dst is None:
                        dst = new_state(nkey)
                    row.append(tuple.__new__(Arc, (a1.ilabel, 0, a1.weight, dst)))
        if f != 1:
            for a2 in grp.get(0, ()):
                nkey = (q1, a2.nextstate, 2)
                dst = state_of.get(nkey)
                if dst is None:
                    dst = new_state(nkey)
                row.append(tuple.__new__(Arc, (0, a2.olabel, a2.weight, dst)))
        wa, wb = finals_a.get(q1, ZERO), finals_b.get(q2, ZERO)
        if wa != ZERO and wb != ZERO:
            finals[state_of[key]] = weight_times(wa, wb)
    return connect(Fst._adopt(a.isyms, b.osyms, out_arcs, finals, 0))


@gc_paused
def build_search_graph(lex: Lexicon, model: NGramModel,
                       phone_syms: Optional[SymbolTable] = None,
                       morph_syms: Optional[SymbolTable] = None) -> Fst:
    """Trimmed L o G with phone inputs and morpheme outputs.

    G is compiled with #0-labelled back-off arcs and L gets an eps:#0
    self-loop at its word-boundary state, so the composition never pairs
    two bare epsilons; the back-off arcs surface as eps:eps arcs in the
    result.
    """
    if morph_syms is None:
        morph_syms = make_morpheme_symbols(model, with_hash=True)
    lm_vocab = set(model.vocabulary)
    for m in lex.prons:
        if m not in lm_vocab:
            raise GraphError(f"lexicon morpheme {m!r} missing from the LM vocabulary")
    left = compile_lexicon(lex, phone_syms, morph_syms)
    hash_id = morph_syms.add(BACKOFF_HASH)
    left.add_arc(left.initial, Arc(0, hash_id, 0.0, left.initial))
    left.arc_sort_input()
    g = lm_to_fst(model, morph_syms, mode=BACKOFF_HASH)
    graph = compose_standard(left, g)
    if graph.num_states == 0:
        raise GraphError("empty composition: lexicon and LM share no usable vocabulary")
    graph.arc_sort_input()
    return graph


def acceptor_sentence_cost(fst: Fst, labels: Sequence[int]) -> float:
    """Min path weight spelling the label sequence, with epsilon-input
    (back-off) arcs taken as failure transitions.

    As in the decoder's relay matching, an epsilon arc is followed only
    from a state that has no arc for the next label, or, after the last
    label, no final weight; so a listed n-gram is never bypassed by a
    cheaper back-off route.  Requires the no-negative-epsilon-cycle
    property that LM acceptors have by construction.
    """
    if fst.initial < 0:
        return ZERO

    def relay(dist: dict[int, float], stops) -> dict[int, float]:
        """The states where walks from ``dist`` stop: each walk follows
        epsilon arcs until it reaches a state for which ``stops`` holds."""
        out: dict[int, float] = {}
        best = dict(dist)
        work = list(dist.items())
        while work:
            s, d = work.pop()
            if d > best[s]:
                continue
            if stops(s):
                out[s] = d
                continue
            for a in fst.arcs(s):
                if a.ilabel == 0:
                    nd = d + a.weight
                    if nd < best.get(a.nextstate, ZERO) - 1e-15:
                        best[a.nextstate] = nd
                        work.append((a.nextstate, nd))
        return out

    dist = {fst.initial: 0.0}
    for lab in labels:
        here = relay(dist, lambda s: any(a.ilabel == lab for a in fst.arcs(s)))
        dist = {}
        for s, d in here.items():
            for a in fst.arcs(s):
                if a.ilabel == lab:
                    nd = d + a.weight
                    if nd < dist.get(a.nextstate, ZERO):
                        dist[a.nextstate] = nd
        if not dist:
            return ZERO
    ends = relay(dist, fst.is_final)
    return min((d + fst.final(s) for s, d in ends.items()), default=ZERO)
