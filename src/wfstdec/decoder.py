"""One-pass token-passing Viterbi beam search with on-the-fly ternary
composition.

The on-the-fly decoder walks the small-LM search graph while matching
every non-epsilon output morpheme in the negated small LM and then in the
big LM.  Epsilon-labelled LM arcs never take part in that matching; they
are traversed only as back-off relays after a direct match fails, and
each relay hop's weight is folded into the branch's graph weight.  With
the negated small-LM scores cancelling the scores baked into the search
graph, the surviving path weights equal big-LM scores exactly.

The static decoder runs the identical search loop with the trivial LM
side (no relay operands).
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .acoustic import AcousticMatrix
from .fst import ZERO, Arc, Fst, SymbolTable, arc_map, find_arc

_INF = ZERO
_NO_STATE = -1


class DecodeError(RuntimeError):
    pass


class BackoffCycleError(DecodeError):
    """An LM's back-off arcs form a cycle, so a relay walk never ends."""


class EmptyResultError(DecodeError):
    def __init__(self, utt_id: str, reason: str):
        super().__init__(f"utterance {utt_id!r}: {reason}")
        self.utt_id = utt_id


@dataclass
class DecodeOptions:
    beam: float = 16.0
    max_active: int = 7000
    lattice_beam: float = 8.0
    acoustic_scale: float = 1.0

    def __post_init__(self):
        if self.beam <= 0 or self.max_active <= 0 or self.lattice_beam <= 0 \
                or self.acoustic_scale <= 0:
            raise ValueError("all decode options must be positive")


@dataclass
class RelayStats:
    """Instrumentation for the forbidden-epsilon discipline."""

    eps_output_matches: int = 0
    failed_direct_matches: int = 0
    backoff_hops: int = 0
    dead_relays: int = 0


class Token:
    """A live hypothesis: graph-state triple, Viterbi cost, traceback."""

    __slots__ = ("key", "cost", "frame", "back", "links")

    def __init__(self, key, cost, frame, back):
        self.key = key
        self.cost = cost
        self.frame = frame
        self.back = back          # best incoming (prev, ilabel, olabel, weight)
        self.links = [back] if back else []


TokenList = dict  # state triple (q1, q2, q3) -> Token


def _relay_walk(g: Fst, state: int, labels, stats: Optional[RelayStats],
                counts: Optional[dict] = None) -> tuple[dict, int]:
    """Back-off relay walk for a set of labels at once.

    Follows the back-off chain from ``state``; at each state on it, every
    label not yet matched is looked up in the state's arc map.  Returns
    ({label: (matched arc, accumulated hop weight, hops)}, hops taken by
    the labels left dead).  ``stats`` counts per label and per hop, as if
    each label walked alone; ``counts`` gives labels that stand for more
    than one lookup.  A back-off chain longer than the graph has states
    is a cycle and raises BackoffCycleError.
    """
    found = {}
    todo = set(labels)
    acc = 0.0
    hops = 0
    q = state
    while True:
        amap = arc_map(g, q)
        hit = todo & amap.keys()
        if hit:
            for lab in hit:
                found[lab] = (amap[lab], acc, hops)
            todo -= hit
            if not todo:
                return found, hops
        b = amap.get(0)
        if stats is not None:
            n = len(todo) if counts is None else sum(counts[lab] for lab in todo)
            stats.failed_direct_matches += n
            if b is None:
                stats.dead_relays += n
            else:
                stats.backoff_hops += n
        if b is None:
            return found, hops
        q = b.nextstate
        acc += b.weight
        hops += 1
        if hops >= g.num_states:
            raise BackoffCycleError(
                f"back-off cycle: no back-off chain from state {state} ends "
                f"within {g.num_states} states")


def relay_match(g: Fst, state: int, label: int,
                stats: Optional[RelayStats] = None) -> tuple[int, float, int]:
    """Match a label from a context state, relaying through back-off arcs.

    Returns (target state, accumulated weight, hop count); a dead result
    is (-1, +inf, hops) and means the calling branch must be dropped.
    """
    if label == 0:
        if stats is not None:
            stats.eps_output_matches += 1
        raise DecodeError("relay matching an epsilon label is forbidden")
    found, hops = _relay_walk(g, state, (label,), stats)
    r = found.get(label)
    if r is None:
        return _NO_STATE, _INF, hops
    a, acc, hops = r
    return a.nextstate, acc + a.weight, hops


def relay_final(g: Fst, state: int) -> float:
    """Final weight of a state, following back-off arcs if it has none.

    A back-off chain that returns to a state before reaching a final one
    is a cycle and raises BackoffCycleError.
    """
    q = state
    acc = 0.0
    seen = set()
    while True:
        w = g.final(q)
        if w != ZERO:
            return acc + w
        if q in seen:
            raise BackoffCycleError(
                f"back-off cycle: the back-off chain from state {state} "
                f"returns to state {q} without reaching a final state")
        seen.add(q)
        b = find_arc(g, q, 0)
        if b is None:
            return _INF
        acc += b.weight
        q = b.nextstate


class _TernaryMatcher:
    """LM-side expansion of algorithm branches 12-38, with memoization.

    The memo lives on the big-LM graph, in ``g4._relay_caches``: a weak-key
    map from each G3neg it was used with to that pair's memo, which has two
    layers, both shared across decodes of the same graphs:

    - per LM pair ``(q2, q3)``, a dict from morpheme to its relay result
      ``(q2', q3', weight)``, or False when the branch is dead.  A new
      pair's labels are resolved in one batched walk per LM (the labels
      of one search-graph state at a time);
    - per search graph (a weak-key map again), the fully expanded
      emitting arcs of each search-state triple (the lazily composed
      graph).

    ``add_arc`` on any operand invalidates what depends on it: the pair
    memo records the ``sort_stamp`` of both LMs, which ``add_arc`` clears,
    and the triple expansions record the search graph's arc lists, which
    ``add_arc`` drops; a stale part is discarded on the next decode.  Weak
    keys keep a dead graph's memo from being reused for a new graph at the
    same ``id()``.  ``stats`` counts per label and per back-off hop, on
    memo misses only, so a warm decode adds nothing to it.
    """

    def __init__(self, g3neg: Fst, g4: Fst, stats: RelayStats):
        self.g3neg = g3neg
        self.g4 = g4
        self.stats = stats
        self.lm_init = (g3neg.initial, g4.initial)
        caches = getattr(g4, "_relay_caches", None)
        if caches is None:
            caches = g4._relay_caches = weakref.WeakKeyDictionary()
        stamps = (g3neg.sort_stamp, g4.sort_stamp)
        memo = caches.get(g3neg)
        if memo is None or memo[0] != stamps:
            memo = caches[g3neg] = (stamps, {}, weakref.WeakKeyDictionary())
        _, self._pairs, self._triples = memo

    def triple_cache(self, hclg3: Fst) -> dict:
        arcs = _graph_cache(hclg3)
        cache = self._triples.get(hclg3)
        if cache is None or cache[0] is not arcs:
            cache = self._triples[hclg3] = (arcs, {})
        return cache[1]

    def relays(self, q2: int, q3: int, labels: set) -> dict:
        """The LM pair's memo, with every label in ``labels`` resolved."""
        memo = self._pairs.get((q2, q3))
        if memo is None:
            memo = self._pairs[(q2, q3)] = {}
        missing = labels - memo.keys()
        if missing:
            self._resolve(q2, q3, missing, memo)
        return memo

    def expand(self, q2: int, q3: int, olabel: int):
        """(q2', q3', graph weight) for one morpheme, or False if dead."""
        memo = self._pairs.get((q2, q3))
        res = memo.get(olabel) if memo is not None else None
        if res is None:
            res = self.relays(q2, q3, {olabel})[olabel]
        return res

    def _resolve(self, q2: int, q3: int, labels: set, memo: dict) -> None:
        found2, _ = _relay_walk(self.g3neg, q2, labels, self.stats)
        for lab in labels - found2.keys():
            memo[lab] = False
        out = {}  # morpheme -> its G3neg match's output label, for G4
        for lab, (e2, acc2, _) in found2.items():
            if e2.olabel == 0:
                # Matched arc with epsilon output: the big LM is not consulted.
                memo[lab] = (e2.nextstate, q3, acc2 + e2.weight)
            else:
                out[lab] = e2.olabel
        if not out:
            return
        targets = set(out.values())
        counts = None
        if len(targets) < len(out):
            counts = dict.fromkeys(targets, 0)
            for ol in out.values():
                counts[ol] += 1
        found3, _ = _relay_walk(self.g4, q3, targets, self.stats, counts)
        for lab, ol in out.items():
            r3 = found3.get(ol)
            if r3 is None:
                memo[lab] = False
            else:
                e2, acc2, _ = found2[lab]
                e3, acc3, _ = r3
                memo[lab] = (e2.nextstate, e3.nextstate,
                             acc2 + e2.weight + acc3 + e3.weight)

    def final_weight(self, q2: int, q3: int) -> float:
        w2 = relay_final(self.g3neg, q2)
        w3 = relay_final(self.g4, q3)
        if w2 == _INF or w3 == _INF:
            return _INF
        return w2 + w3


class _StaticMatcher:
    """Trivial LM side: morphemes pass through with no extra weight."""

    lm_init = (_NO_STATE, _NO_STATE)

    def triple_cache(self, hclg3: Fst) -> dict:
        cache = getattr(hclg3, "_static_triples", None)
        if cache is None:
            cache = hclg3._static_triples = {}
        return cache

    def relays(self, q2: int, q3: int, labels: set) -> dict:
        return dict.fromkeys(labels, (q2, q3, 0.0))

    def expand(self, q2: int, q3: int, olabel: int):
        return (q2, q3, 0.0)

    def final_weight(self, q2: int, q3: int) -> float:
        return 0.0


def _graph_cache(fst: Fst):
    """Per-state arc tuples split into emitting and epsilon-input lists."""
    cache = getattr(fst, "_decoder_cache", None)
    if cache is None:
        emit = []
        eps = []
        for s in fst.states():
            e = []
            z = []
            for a in fst.arcs(s):
                (z if a.ilabel == 0 else e).append(
                    (a.ilabel, a.olabel, a.weight, a.nextstate))
            emit.append(tuple(e))
            eps.append(tuple(z))
        cache = (emit, eps)
        fst._decoder_cache = cache
    return cache


def _push(out: TokenList, key, cost, prev: Token, il: int, ol: int,
          link_w: float, frame: int, link_slack: float) -> Optional[Token]:
    """Tropical-combine a token arrival; returns the token on improvement."""
    link = (prev, il, ol, link_w)
    tok = out.get(key)
    if tok is None:
        tok = Token(key, cost, frame, link)
        out[key] = tok
        return tok
    if cost < tok.cost:
        tok.cost = cost
        tok.back = link
        tok.links.append(link)
        return tok
    if cost <= tok.cost + link_slack:
        tok.links.append(link)
    return None


def advance_emitting_ternary(hclg3: Fst, g3neg: Optional[Fst], g4: Optional[Fst],
                             s_last: TokenList, frame_costs: Sequence[float],
                             stats: Optional[RelayStats] = None,
                             frame: int = 0,
                             lattice_slack: float = 8.0) -> TokenList:
    """One frame of forward expansion over non-epsilon-input graph arcs.

    frame_costs is indexable by emitting symbol id (index 0 is unused).
    Passing g3neg and g4 as None gives the static search loop.
    """
    if stats is None:
        stats = RelayStats()
    matcher = _TernaryMatcher(g3neg, g4, stats) if g3neg is not None else _StaticMatcher()
    return _advance(hclg3, matcher, s_last, frame_costs, frame, lattice_slack)


def _advance(hclg3: Fst, matcher, s_last: TokenList,
             frame_costs: Sequence[float], frame: int,
             lattice_slack: float) -> TokenList:
    out: TokenList = {}
    out_get = out.get
    tcache = matcher.triple_cache(hclg3)
    tcache_get = tcache.get
    for tok in s_last.values():
        key = tok.key
        cost = tok.cost
        arcs = tcache_get(key)
        if arcs is None:
            arcs = tcache[key] = _expand_triple(hclg3, matcher, key)
        for il, ol, base_w, nkey in arcs:
            link_w = base_w + frame_costs[il]
            nc = cost + link_w
            cur = out_get(nkey)
            if cur is None:
                out[nkey] = Token(nkey, nc, frame, (tok, il, ol, link_w))
            elif nc < cur.cost:
                cur.cost = nc
                cur.back = (tok, il, ol, link_w)
                cur.links.append(cur.back)
            elif nc <= cur.cost + lattice_slack:
                cur.links.append((tok, il, ol, link_w))
    return out


def _expand_triple(hclg3: Fst, matcher, key) -> tuple:
    """Resolve a triple's emitting arcs once: (ilabel, olabel, graph+LM
    weight, successor triple), with dead relay branches dropped."""
    emit, _ = _graph_cache(hclg3)
    q1, q2, q3 = key
    out = emit[q1]
    lm = None
    arcs = []
    for il, ol, w, ns in out:
        if ol == 0:
            arcs.append((il, ol, w, (ns, q2, q3)))
        else:
            if lm is None:
                lm = matcher.relays(q2, q3, {o for _, o, _, _ in out if o})
            r = lm[ol]
            if r is False:
                continue
            nq2, nq3, gw = r
            arcs.append((il, ol, w + gw, (ns, nq2, nq3)))
    return tuple(arcs)


def propagate_nonemitting(hclg3: Fst, g3neg: Optional[Fst], g4: Optional[Fst],
                          s: TokenList, stats: Optional[RelayStats] = None,
                          frame: int = 0, lattice_slack: float = 8.0) -> TokenList:
    """Close a token list under epsilon-input search-graph arcs in place."""
    if stats is None:
        stats = RelayStats()
    matcher = _TernaryMatcher(g3neg, g4, stats) if g3neg is not None else _StaticMatcher()
    return _propagate(hclg3, matcher, s, frame, lattice_slack)


def _propagate(hclg3: Fst, matcher, s: TokenList, frame: int,
               lattice_slack: float) -> TokenList:
    _, eps = _graph_cache(hclg3)
    work = [t for t in s.values() if eps[t.key[0]]]
    while work:
        tok = work.pop()
        q1, q2, q3 = tok.key
        cost = tok.cost
        for il, ol, w, ns in eps[q1]:
            if ol == 0:
                nt = _push(s, (ns, q2, q3), cost + w, tok, il, ol, w,
                           frame, lattice_slack)
            else:
                r = matcher.expand(q2, q3, ol)
                if r is False:
                    continue
                nq2, nq3, gw = r
                nt = _push(s, (ns, nq2, nq3), cost + w + gw, tok, il, ol,
                           w + gw, frame, lattice_slack)
            if nt is not None and eps[nt.key[0]]:
                work.append(nt)
    return s


def prune_tokens(s: TokenList, opts: DecodeOptions) -> TokenList:
    """Beam pruning around the best cost, then a max-active cap."""
    if not s:
        return s
    best = min(t.cost for t in s.values())
    cutoff = best + opts.beam
    kept = {k: t for k, t in s.items() if t.cost <= cutoff}
    if len(kept) > opts.max_active:
        top = heapq.nsmallest(opts.max_active,
                              kept.items(), key=lambda kv: (kv[1].cost, kv[0]))
        kept = dict(top)
    return kept


def finalize_utterance(s: TokenList, hclg3: Fst, g3neg: Optional[Fst],
                       g4: Optional[Fst], utt_id: str = "",
                       stats: Optional[RelayStats] = None) -> TokenList:
    """Fold final weights of all operand graphs into the surviving tokens.

    Returns fresh tokens whose back link carries the final weight, so the
    underlying frame tokens stay valid for lattice construction.
    """
    if stats is None:
        stats = RelayStats()
    matcher = _TernaryMatcher(g3neg, g4, stats) if g3neg is not None else _StaticMatcher()
    return finalize_utterance_with(s, hclg3, matcher, utt_id)


# -- lattices --------------------------------------------------------------

@dataclass
class Lattice:
    """Acyclic hypothesis graph; states are (triple, frame) tokens."""

    fst: Fst
    frames: list[int]
    best_cost: float
    utt_id: str = ""
    peak_tokens: int = 0


def _build_lattice(final_tokens: TokenList, init_token: Token,
                   opts: DecodeOptions, isyms: Optional[SymbolTable],
                   osyms: Optional[SymbolTable], utt_id: str) -> Lattice:
    best = min(t.cost for t in final_tokens.values())
    bound = best + opts.lattice_beam + 1e-9
    finals = {}
    for ft in final_tokens.values():
        if ft.cost <= bound:
            under, _, _, fw = ft.back
            finals[id(under)] = (under, fw)

    # Backward closure over traceback links.
    nodes: dict[int, Token] = {}
    stack = [t for t, _ in finals.values()]
    for t in stack:
        nodes[id(t)] = t
    while stack:
        t = stack.pop()
        for prev, _, _, _ in t.links:
            if prev is not None and id(prev) not in nodes:
                nodes[id(prev)] = prev
                stack.append(prev)

    # Forward adjacency and suffix costs (reverse topological relaxation).
    out_arcs: dict[int, list[tuple[int, int, int, float]]] = {i: [] for i in nodes}
    indeg: dict[int, int] = {i: 0 for i in nodes}
    for t in nodes.values():
        seen_links = set()
        for prev, il, ol, w in t.links:
            if prev is None or id(prev) not in nodes:
                continue
            sig = (id(prev), il, ol, round(w, 10))
            if sig in seen_links:
                continue
            seen_links.add(sig)
            out_arcs[id(prev)].append((id(t), il, ol, w))
            indeg[id(t)] += 1
    order = [i for i, d in indeg.items() if d == 0]
    topo = []
    indeg2 = dict(indeg)
    while order:
        i = order.pop()
        topo.append(i)
        for j, _, _, _ in out_arcs[i]:
            indeg2[j] -= 1
            if indeg2[j] == 0:
                order.append(j)
    beta = {i: _INF for i in nodes}
    for i, (t, fw) in finals.items():
        beta[i] = fw
    for i in reversed(topo):
        b = beta[i]
        for j, _, _, w in out_arcs[i]:
            cand = w + beta[j]
            if cand < b:
                b = cand
        beta[i] = b

    keep = {i for i, t in nodes.items() if t.cost + beta[i] <= bound}
    keep.add(id(init_token))
    ordered = sorted((nodes[i] for i in keep), key=lambda t: (t.frame, t.key))
    fst = Fst(isyms, osyms)
    state_of = {}
    frames = []
    for t in ordered:
        state_of[id(t)] = fst.add_state()
        frames.append(t.frame)
    for i in keep:
        t = nodes[i]
        for j, il, ol, w in out_arcs[i]:
            if j in keep and nodes[j].cost + beta[j] <= bound \
                    and nodes[i].cost + w + beta[j] <= bound:
                fst.add_arc(state_of[i], Arc(il, ol, w, state_of[j]))
    for i, (t, fw) in finals.items():
        if i in keep:
            fst.set_final(state_of[i], fw)
    fst.set_initial(state_of[id(init_token)])
    return Lattice(fst, frames, best, utt_id)


def best_path(lat: Lattice) -> tuple[list[str], float]:
    """Min-cost lattice path: (morpheme sequence, cost).

    Exact cost ties resolve to the lexicographically smallest output.
    """
    fst = lat.fst
    if fst.num_states == 0 or fst.initial < 0:
        raise EmptyResultError(lat.utt_id, "empty lattice")
    indeg = [0] * fst.num_states
    for s in fst.states():
        for a in fst.arcs(s):
            indeg[a.nextstate] += 1
    order = [s for s in fst.states() if indeg[s] == 0]
    best: dict[int, tuple[float, tuple[str, ...]]] = {fst.initial: (0.0, ())}
    topo = []
    while order:
        s = order.pop()
        topo.append(s)
        for a in fst.arcs(s):
            indeg[a.nextstate] -= 1
            if indeg[a.nextstate] == 0:
                order.append(a.nextstate)

    def sym(ol: int) -> str:
        return fst.osyms.sym_of(ol) if fst.osyms is not None else str(ol)

    for s in topo:
        if s not in best:
            continue
        cost, seq = best[s]
        for a in fst.arcs(s):
            nseq = seq if a.olabel == 0 else seq + (sym(a.olabel),)
            cand = (cost + a.weight, nseq)
            cur = best.get(a.nextstate)
            if cur is None or cand < cur:
                best[a.nextstate] = cand
    winner = None
    for s, w in fst.finals.items():
        if s in best:
            cost, seq = best[s]
            cand = (cost + w, seq)
            if winner is None or cand < winner:
                winner = cand
    if winner is None:
        raise EmptyResultError(lat.utt_id, "lattice has no successful path")
    return list(winner[1]), winner[0]


# -- full decodes ----------------------------------------------------------

def _decode(hclg3: Fst, matcher, acoustic: AcousticMatrix,
            opts: DecodeOptions, utt_id: str) -> Lattice:
    if hclg3.initial < 0:
        raise DecodeError("search graph has no initial state")
    q2, q3 = matcher.lm_init
    init = Token((hclg3.initial, q2, q3), 0.0, 0, None)
    tokens: TokenList = {init.key: init}
    slack = opts.lattice_beam
    _propagate(hclg3, matcher, tokens, 0, slack)
    scale = opts.acoustic_scale
    peak = len(tokens)
    for frame in range(acoustic.num_frames):
        row = acoustic.padded_row(frame)
        if scale != 1.0:
            row = [c * scale for c in row]
        tokens = _advance(hclg3, matcher, tokens, row, frame + 1, slack)
        if not tokens:
            raise EmptyResultError(utt_id or acoustic.utt_id,
                                   f"no surviving token at frame {frame}")
        _propagate(hclg3, matcher, tokens, frame + 1, slack)
        if len(tokens) > peak:
            peak = len(tokens)
        tokens = prune_tokens(tokens, opts)
    finals = finalize_utterance_with(tokens, hclg3, matcher,
                                     utt_id or acoustic.utt_id)
    lat = _build_lattice(finals, init, opts, hclg3.isyms, hclg3.osyms,
                         utt_id or acoustic.utt_id)
    lat.peak_tokens = peak
    return lat


def finalize_utterance_with(s: TokenList, hclg3: Fst, matcher,
                            utt_id: str) -> TokenList:
    out: TokenList = {}
    for key, tok in s.items():
        q1, q2, q3 = tok.key
        w1 = hclg3.final(q1)
        if w1 == ZERO:
            continue
        wlm = matcher.final_weight(q2, q3)
        if wlm == _INF:
            continue
        fw = w1 + wlm
        out[key] = Token(tok.key, tok.cost + fw, tok.frame, (tok, 0, 0, fw))
    if not out:
        raise EmptyResultError(utt_id, "no token reaches a final state")
    return out


def decode_onthefly(hclg3: Fst, g3neg: Fst, g4: Fst, acoustic: AcousticMatrix,
                    opts: Optional[DecodeOptions] = None,
                    stats: Optional[RelayStats] = None,
                    utt_id: str = "") -> Lattice:
    """Ternary on-the-fly decode over HCLG3 with G3- and G4 relays."""
    opts = opts or DecodeOptions()
    stats = stats if stats is not None else RelayStats()
    matcher = _TernaryMatcher(g3neg, g4, stats)
    return _decode(hclg3, matcher, acoustic, opts, utt_id)


def decode_static(graph: Fst, acoustic: AcousticMatrix,
                  opts: Optional[DecodeOptions] = None,
                  utt_id: str = "") -> Lattice:
    """Plain one-pass decode over a fully composed search graph."""
    opts = opts or DecodeOptions()
    return _decode(graph, _StaticMatcher(), acoustic, opts, utt_id)


def rescore_lattice(lat: Lattice, g3neg: Fst, g4: Fst,
                    stats: Optional[RelayStats] = None) -> Lattice:
    """Replace first-pass LM scores along lattice paths with big-LM scores.

    Applies the same relay matching as the on-the-fly decoder to the
    lattice's morpheme outputs; paths whose morphemes cannot be matched
    (out of vocabulary) are dropped.
    """
    stats = stats if stats is not None else RelayStats()
    matcher = _TernaryMatcher(g3neg, g4, stats)
    src = lat.fst
    if src.num_states == 0 or src.initial < 0:
        raise EmptyResultError(lat.utt_id, "empty lattice")
    out = Fst(src.isyms, src.osyms)
    start = (src.initial, g3neg.initial, g4.initial)
    state_of = {start: out.add_state()}
    frames = [lat.frames[src.initial]]
    stack = [start]
    while stack:
        key = stack.pop()
        s, q2, q3 = key
        cur = state_of[key]
        for a in src.arcs(s):
            if a.olabel == 0:
                nkey = (a.nextstate, q2, q3)
                w = a.weight
            else:
                r = matcher.expand(q2, q3, a.olabel)
                if r is False:
                    continue
                nq2, nq3, gw = r
                nkey = (a.nextstate, nq2, nq3)
                w = a.weight + gw
            ns = state_of.get(nkey)
            if ns is None:
                ns = out.add_state()
                state_of[nkey] = ns
                frames.append(lat.frames[a.nextstate])
                stack.append(nkey)
            out.add_arc(cur, Arc(a.ilabel, a.olabel, w, ns))
        fw = src.final(s)
        if fw != ZERO:
            wlm = matcher.final_weight(q2, q3)
            if wlm != _INF:
                out.set_final(cur, fw + wlm)
    out.set_initial(0)
    if not out.finals:
        raise EmptyResultError(lat.utt_id, "all lattice paths dropped in rescoring")
    res = Lattice(out, frames, 0.0, lat.utt_id)
    res.best_cost = best_path(res)[1]
    return res
