"""One-pass token-passing Viterbi beam search with on-the-fly ternary
composition.

The on-the-fly decoder walks the small-LM search graph while matching
every non-epsilon output morpheme in the negated small LM and then in the
big LM.  Both LMs are acceptors, so G4 reads the morpheme G3neg matched.
Epsilon-labelled LM arcs never take part in that matching; they are
traversed only as back-off relays after a direct match fails, and each
relay hop's weight is folded into the branch's graph weight.

The search graph's own back-off arcs would let a path back off and then
read a morpheme that the higher context lists, at the cheaper back-off
score.  So each search-graph state carries the G3neg state it was
composed from, and a morpheme arc is followed from LM state q2 only when
G3 reads that morpheme at that back-off depth: when the relay from q2,
which matches at the first state on the back-off chain that lists the
morpheme, matches it at that very state.  A final weight counts only at
q2 itself.  With that filter, and the negated small-LM scores
cancelling the scores baked into the search graph, the surviving path
weights equal big-LM scores exactly.

That filter gives the search graph's ``eps:eps`` back-off arcs the
meaning of failure transitions (Allauzen, Mohri & Roark, ACL 2003;
OpenFst's ``PhiMatcher``): a path reads a morpheme at a back-off state
only where the higher context does not list it.  So the on-the-fly frame
step reads them as such.  A token at search-graph state q1 reads the
arcs of q1 and of every state its back-off arcs reach, each at the
HCLG3 back-off weight walked to it, and no token or link is made at a
back-off state.  Where every epsilon-input arc of the search graph is
``eps:eps`` with a weight of at least 0, as in the pipeline's HCLG3, no
arc is left to propagate: a path through a back-off state then costs no
less than the token at q1 it leaves, so the cutoff and pruning that drop
that token lose no path under the beam.  A graph with a negative
back-off weight, which could bring a path from a token beyond the beam
back under it, or with epsilon-input arcs that read morphemes,
propagates all of them, as the static decoder does.

Back-off states act as relay stations.  Tokens of many histories back
off to one search-graph state q1, and their relays match most morphemes
at one G4 state at3: from the station (q1, at3) they read the same arcs
to the same targets, at weights that differ by the hop weight h of their
back-off walks (the two LMs' walks, plus HCLG3's), less the morphemes
each matched higher on its chains.  So a station's rows are made once,
each weighted by the search graph and the two LM arcs alone, and every
LM pair that meets there shares them: a pair keeps references to the
rows of its morphemes, and the frame step adds its hop weight h to the
frame's acoustic costs, once per frame and h, not to each row.  The
frame step takes a station's tokens in order of cost + h, and a token
skips the arcs of each morpheme that a token more than the lattice beam
(plus rounding slack) cheaper already read there: its arrival could set
no cost and make no link the lattice keeps.  So the result is that of a
scan of every arc.

The frame step cuts new tokens at the beam, as Kaldi's does: an arrival
beyond the best so far plus the beam makes a token only at a state that
a propagating epsilon arc leaves or enters, where propagation can still
improve it (on the pipeline's HCLG3, at none).  Elsewhere an arrival
within the lattice beam of that cutoff is set aside: its target goes
into a set.  In the rare frame where a later, cheaper arrival makes a
token at a set-aside state, one rescan of the frame's arcs makes the
set-aside arrivals there again, and they are replayed into the token
before its first link.  So the tokens and their links within
the lattice beam are those of a cutoff at the beam plus the lattice
beam, less the tokens pruning would drop.

Lattice rescoring walks the same on-the-fly search space with a
first-pass lattice in place of the search graph, so the arc, filter and
final rules are written once.  The static decoder runs the identical
search loop with the trivial LM side (no relay operands, no stations).
"""

from __future__ import annotations

import heapq
import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter
from typing import Optional, Sequence

from .acoustic import AcousticMatrix
from .fst import ZERO, Arc, Fst, FstError, _connect, gc_paused

_INF = ZERO
_NO_STATE = -1
# A dead branch's record in the relay memo; its match states are no states.
_DEAD_RECORD = (_NO_STATE, _NO_STATE, ZERO)
# The station segments of a static space's tokens: it has none.
_NO_HOPS: dict = {}
# Slack on the lattice bound, and so on the frame step's cutoff, which
# must skip only tokens the lattice builder's bound would drop anyway.
_TOL = 1e-9


class DecodeError(RuntimeError):
    pass


class BackoffCycleError(DecodeError):
    """An LM's back-off arcs form a cycle, so a relay walk never ends."""


class NegativeCycleError(DecodeError):
    """A search graph has a negative-weight epsilon cycle, so epsilon
    propagation would improve costs forever."""


class ProvenanceError(DecodeError):
    """A search graph is not the composition of a lexicon with the small
    LM behind G3neg: one of its states is reached from two G3neg states,
    or it backs off where G3neg has no back-off arc."""


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
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(
                    f"decode option {name} must be a number, not {value!r}")
        if not isinstance(self.max_active, numbers.Integral):
            raise ValueError("decode option max_active must be an integer, "
                             f"not {self.max_active!r}")
        if not all(v > 0 for v in vars(self).values()):  # NaN fails too
            raise ValueError("all decode options must be positive")


@dataclass
class RelayStats:
    """Instrumentation for the forbidden-epsilon discipline."""

    eps_output_matches: int = 0
    failed_direct_matches: int = 0
    backoff_hops: int = 0
    dead_relays: int = 0


def _chain(g: Fst, state: int) -> list:
    """The back-off chain from ``state`` in LM g: ``(state, hop weight,
    label map)`` for each state on it, the last (the state with no
    back-off arc) last.  A state's hop weight is the sum of the back-off
    weights on the way to it, taken left to right from ``state``, as a
    relay walks; its label map goes from input label to its first arc in
    sorted order, the arc ``find_arc`` returns, and is made on first use.
    ``_lm`` has checked that the chain ends."""
    rec = _lm(g)
    maps, back = rec.maps, rec.back
    chain = []
    acc = 0.0
    q = state
    while True:
        amap = maps.get(q)
        if amap is None:
            # Reversed, so the first arc of each label in sorted order wins.
            amap = maps[q] = {a.ilabel: a for a in reversed(g.arcs(q))}
        chain.append((q, acc, amap))
        b = back[q]
        if b is None:
            return chain
        q = b.nextstate
        acc += b.weight


def _depth(chain: list, label: int) -> int:
    """How many back-off hops a relay of ``label`` down ``chain`` takes
    before it matches: ``len(chain)`` when no state on it lists the label."""
    for depth, (_, _, amap) in enumerate(chain):
        if label in amap:
            return depth
    return len(chain)


def relay_match(g: Fst, state: int, label: int,
                stats: Optional[RelayStats] = None) -> tuple[int, float, int]:
    """Match a label from a context state, relaying through back-off arcs.

    Returns (target state, accumulated weight, hop count); a dead result
    is (-1, +inf, hops) and means the calling branch must be dropped.  An
    LM with a back-off cycle anywhere raises BackoffCycleError.
    """
    if stats is None:
        stats = RelayStats()
    if label == 0:
        stats.eps_output_matches += 1
        raise DecodeError("relay matching an epsilon label is forbidden")
    chain = _chain(g, state)
    hops = _depth(chain, label)
    stats.failed_direct_matches += hops
    if hops == len(chain):
        hops -= 1
        stats.backoff_hops += hops
        stats.dead_relays += 1
        return _NO_STATE, _INF, hops
    stats.backoff_hops += hops
    _, acc, amap = chain[hops]
    a = amap[label]
    return a.nextstate, acc + a.weight, hops


def relay_final(g: Fst, state: int) -> float:
    """Final weight of a state, following back-off arcs if it has none.
    An LM with a back-off cycle anywhere raises BackoffCycleError."""
    back = _lm(g).back
    if not 0 <= state < len(back):
        raise FstError(f"invalid state id {state}")
    q = state
    acc = 0.0
    while True:
        w = g.final(q)
        if w != ZERO:
            return acc + w
        b = back[q]
        if b is None:
            return _INF
        acc += b.weight
        q = b.nextstate


# -- what the decoder derives from graphs ----------------------------------

class _Derived:
    """What the decoder derived from one graph at one version: its arc
    rows (``_Rows``, made when a decode first needs them); as an LM, its
    back-off arcs and label maps (None until ``_lm`` has checked it); as a
    G4, the relay memo of each G3neg, keyed by G3neg's record; as a search
    graph or a rescored lattice, its on-the-fly states, keyed by the relay
    memo they were expanded with.  The keys are weak, so what is keyed by a
    record or memo goes with it.  No record holds a graph.
    """

    def __init__(self, version: int):
        self.version = version
        self.rows: Optional[_Rows] = None
        self.back: Optional[list] = None
        self.maps: Optional[dict] = None
        self.relays = weakref.WeakKeyDictionary()
        self.spaces = weakref.WeakKeyDictionary()


# Graph -> its record.  Weak keys keep a collected graph's record from
# being lent to a new graph at the same id(), and a copy starts cold.
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _derived(fst: Fst) -> _Derived:
    """The graph's record at its current version; no other code reads a
    graph's ``version``.  After ``add_arc`` or ``arc_sort_input`` the graph
    gets a new record."""
    rec = _DERIVED.get(fst)
    if rec is None or rec.version != fst.version:
        rec = _DERIVED[fst] = _Derived(fst.version)
    return rec


class _RelayMemo:
    """The relay results of one (G3neg, G4) pair, shared across decodes:
    one ``_Pair`` per LM pair ``(q2, q3)``."""

    def __init__(self):
        self.pairs: dict = {}


class _Pair:
    """The relay results of one LM pair ``(q2, q3)``, filled one label set
    at a time.  A label's record is ``(at, at3, h)``: G3neg matched it at
    state ``at`` on q2's back-off chain and G4 at ``at3`` on q3's, and
    ``h = acc2 + acc3``, the hop weights of the two walks; a dead label's
    is ``_DEAD_RECORD``.  Its two LM arcs are those the label maps of
    G3neg's state ``at`` and G4's state ``at3`` hold.

    Only the labels that a chain lists above its last state (the state
    with no back-off arc) have records of their own, in ``records``; one
    record object per ``(at, at3)``, kept in ``groups``, serves all the
    labels of a group.  Every other label relays to both last states:
    ``default``, ``(last2, last3, h)``, is its record where both last
    states list it, whose label maps ``last`` holds, and it is dead where
    either does not.  ``asked`` holds the label sets the pair was asked
    with, not their labels.  ``record`` is the one reader of a label's
    record, for asked labels."""

    __slots__ = ("default", "last", "records", "groups", "asked")

    def __init__(self, last2: tuple, last3: tuple):
        (at, acc2, map2), (at3, acc3, map3) = last2, last3
        self.default = (at, at3, acc2 + acc3)
        self.last = (map2, map3)
        self.records, self.groups, self.asked = {}, {}, []

    def record(self, label: int) -> tuple:
        """An asked label's record."""
        record = self.records.get(label)
        if record is None:
            map2, map3 = self.last
            if label in map2 and label in map3:
                return self.default
            return _DEAD_RECORD
        return record


class _States:
    """An on-the-fly space's interned states and their expanded arcs
    (``shared`` holds the emitting arcs of each state with station
    segments); per search-graph state the G3neg state it was composed
    from; the station tables, keyed ``(q1, at3)``, and for a station
    whose default segments leave rows out, ``rows_of[(q1, at3)]``: each
    morpheme's row indexes in its table; per search-graph state q1 whose
    emitting arcs a state expanded, ``q1_arcs[q1]``: its ``phone:eps``
    arcs, the morphemes its other arcs read, and the index of each
    morpheme's first arc, and ``reads[q1]``: what a token there reads
    (see ``_OnTheFlySpace._reads``).
    """

    def __init__(self, graph: Fst):
        self.emit, self.eps, self.triples, self.ids = [], [], [], {}
        self.ends = []
        self.shared, self.stations, self.rows_of, self.q1_arcs = {}, {}, {}, {}
        self.reads = {}
        self.g3 = [_NO_STATE] * graph.num_states


def _lm(g: Fst, name: str = "LM") -> _Derived:
    """An LM's record.  The first call at a graph version checks that the
    arcs are input-sorted (else FstError) and makes the back-off table,
    which checks the rest, and only then gives the record its label maps;
    so the walks need no guard, and a graph that fails is checked again."""
    rec = _derived(g)
    if rec.back is None:
        if not g.input_sorted:
            raise FstError("arc lookup requires input-sorted arcs (call arc_sort_input)")
        rec.back = _backoff_table(g, name)
        rec.maps = {}
    return rec


def _backoff_table(g: Fst, name: str) -> list:
    """Each state's back-off arc or None, from one pass over an LM.  The
    relays walk G4 with the labels G3neg matched, so an arc whose labels
    differ (``#0:eps``, say) raises DecodeError.  No label is negative, so
    a back-off arc comes first in its input-sorted state.  A back-off
    chain that returns to a state raises BackoffCycleError, even where no
    decode goes; each state is walked once, marked with the state its walk
    began from."""
    back = []
    # The live lists, read without a call per state, as _Rows reads them.
    for s, arcs in enumerate(g._arcs):
        for a in arcs:
            if a[0] != a[1]:  # faster than the named fields
                raise DecodeError(
                    f"{name} is not an acceptor: state {s} has arc "
                    f"{a.ilabel}:{a.olabel} to state {a.nextstate}")
        back.append(arcs[0] if arcs and not arcs[0][0] else None)
    walked = [_NO_STATE] * len(back)
    for s in range(len(back)):
        q = s
        while walked[q] == _NO_STATE:
            walked[q] = s
            b = back[q]
            if b is None:
                break
            q = b.nextstate
        else:
            if walked[q] == s:
                raise BackoffCycleError(
                    f"back-off cycle: the back-off chain from {name} state "
                    f"{s} returns to state {q}")
    return back


class _Rows(dict):
    """The arc rows of one graph at one version, made per state on first
    visit.  ``emit[s]`` is None until state s is visited, then its
    emitting arcs; ``eps[s]`` is True where s has epsilon-input arcs and
    its row is not made yet, then that row, and () where it has none.  A
    row holds the state's arcs in order as plain tuples (ilabel, olabel,
    weight, nextstate), not the graph's ``Arc`` objects: CPython 3.11
    unpacks an exact tuple on a fast path that a named tuple misses, which
    made the ``large-vocab`` static decode about 20% slower.  ``top`` is
    the largest emitting input label (0 if none).  ``ends[s]`` is true
    where s is at either end of an epsilon-input arc, where epsilon
    propagation can make or improve a token after the frame step; it
    starts as a copy of the epsilon flags.

    The epsilon flags and ``top`` come from one pass before the first
    frame: from each state's first and last arc where the graph is
    input-sorted, else from every arc.  ``ends`` comes from the arcs of
    the states with epsilon-input arcs: from the first alone where the
    graph is input-sorted and the second is not epsilon-input, else from
    every arc.  The mapping itself stays empty:
    indexing it with state s makes both of s's rows and returns the
    emitting one, so it is the static space's plan for the frame step.
    It holds the graph's arc lists, not the graph.
    """

    def __init__(self, fst: Fst):
        super().__init__()
        # The live lists, read without a call per state; rows copy them.
        lists = self._lists = fst._arcs
        self.emit = [None] * len(lists)
        first = itemgetter(0)
        sort = self._sorted = fst.input_sorted
        if sort:
            self.eps = [True if a and not a[0][0] else () for a in lists]
            self.top = max(map(first, map(itemgetter(-1), filter(None, lists))),
                           default=0)
        else:
            self.eps = [True if 0 in map(first, a) else () for a in lists]
            self.top = max(map(first, chain.from_iterable(lists)), default=0)
        ends = self.ends = self.eps.copy()
        for arcs in compress(lists, self.eps):
            if sort and (len(arcs) == 1 or arcs[1][0]):  # one epsilon arc
                ends[arcs[0][3]] = True
            else:
                for a in arcs:
                    if not a[0]:
                        ends[a[3]] = True

    def __missing__(self, s: int) -> tuple:
        arcs = self._lists[s]
        if self.eps[s]:
            self.eps[s] = tuple([tuple(a) for a in arcs if not a[0]])
            arcs = [a for a in arcs if a[0]]
        row = self.emit[s] = tuple(map(tuple, arcs))
        return row

    def emit_row(self, s: int) -> tuple:
        """State s's emitting row, made if s was not visited."""
        row = self.emit[s]
        return self[s] if row is None else row

    def eps_row(self, s: int) -> tuple:
        """State s's epsilon-input row, made if it is not yet."""
        if self.eps[s] is True:
            self.__missing__(s)
        return self.eps[s]

    @cached_property
    def failure(self) -> bool:
        """Whether every epsilon-input arc is ``eps:eps`` with a weight of
        at least 0, so that an on-the-fly space may read them as failure
        transitions (see ``_OnTheFlySpace``).  Worked out on first use, as
        the static space never asks; an input-sorted state's epsilon-input
        arcs come first."""
        for arcs in compress(self._lists, self.eps):
            for a in arcs:
                if a[0]:
                    if self._sorted:
                        break
                elif a[1] or a[2] < 0:
                    return False
        return True


def _rows(fst: Fst) -> _Rows:
    """The graph's rows at its current version, made on first use."""
    rec = _derived(fst)
    if rec.rows is None:
        rec.rows = _Rows(fst)
    return rec.rows


# -- search spaces and the search loop -------------------------------------
#
# A token is one flat list, [state id, frame, cost, prev, ilabel, olabel,
# weight, prev, ilabel, olabel, weight, ...]: each link is four slots
# (previous token, ilabel, olabel, link weight), with no object of its own,
# and the links are every arrival that set the cost or came within the
# lattice slack of it.
# Token dicts map state ids to tokens, in the order the tokens were made.

class SearchSpace:
    """Integer search states over one search graph and one LM side.

    ``emit[i]`` holds state i's emitting arcs and ``eps[i]`` its
    epsilon-input arcs, each ``(ilabel, olabel, graph+LM weight, next
    id)``; ``triple(i)`` is the state's ``(q1, q2, q3)``, which orders the
    max-active cut and the lattice states.  The frame steps below are the
    search loop of both decoders.  This class is the static space: the ids
    are the graph's own states, with the trivial LM side, and its tables
    are the graph's ``_Rows``, so a state's arcs are copied when a decode
    first visits it.
    """

    def __init__(self, graph: Fst):
        self.graph = graph
        self._rows = _rows(graph)
        self.emit, self.eps = self._rows.emit, self._rows.eps
        self.ends = self._rows.ends
        self.initial = graph.initial

    def triple(self, sid: int) -> tuple:
        return (sid, _NO_STATE, _NO_STATE)

    def state_id(self, triple: tuple) -> int:
        return triple[0]

    def final_weight(self, sid: int) -> float:
        return self.graph.final(sid) + 0.0  # plus the trivial LM's

    def advance(self, tokens: dict, frame_costs: Sequence[float], frame: int,
                slack: float, beam: float = _INF) -> dict:
        """One frame of forward expansion over emitting arcs.

        frame_costs is indexable by emitting symbol id (index 0 is unused).
        A token whose ``emit`` entry is None scans the arcs ``_meet`` plans
        for it: its own arcs, then the rows of each station segment it
        keeps at the frame's costs plus the segment's hop weight h.  So a
        link from a shared row carries h in its weight, and the token's
        cost plus that weight is the arrival's cost.  The parts come
        chained, ``(costs, rows, next part)``, and the last restores the
        frame's costs.  One inner loop serves every token: a token without
        parts pays only the test that it has none, and no arc or link pays
        for them.
        An arrival makes a new token when its cost is within the cutoff,
        the best arrival so far plus ``beam + _TOL``.  Beyond the cutoff,
        within ``slack`` of it, an arrival makes one only where its state
        is at an end of an epsilon arc that propagates (``ends``), as
        propagation can make or improve a token there after this step; at
        any other state it is set aside: its target goes into a set.
        Where a later arrival makes a token at a set-aside state (a hit),
        ``_replay`` makes the set-aside arrivals there again from the
        frame's arcs and puts them into that token.
        An on-the-fly space that reads back-off arcs as failure
        transitions propagates no arc, so there every such arrival is set
        aside.  Without a later arrival, the state's token would cost more
        than the final best plus ``beam``, so pruning would drop it.
        Beyond ``slack`` of the cutoff an arrival makes no new token where
        its state has no propagating epsilon arcs: such a token costs more
        than the final best plus ``beam``; no epsilon arc can bring a
        descendant of it back under the beam; and its link into a kept
        token lies more than ``slack`` (the lattice beam) above that
        token's cost, so the lattice builder would drop the link.  So the
        tokens, and each one's links within ``slack`` of its cost, are
        those of a cutoff at ``beam + slack + _TOL`` (see README, "The
        frame step's cutoff"), less tokens pruning drops.
        """
        out = {}
        get = out.get
        aside = set()  # the targets of set-aside arrivals
        add = aside.add
        emit, eps, ends = self.emit, self.eps, self.ends
        plan, hops = self._meet(tokens, slack, frame_costs)
        margin = beam + _TOL
        wide = beam + slack + _TOL
        best = limit = far = _INF
        costs = frame_costs
        rest = None  # a token's parts still to scan
        for tok in tokens.values():
            arcs = emit[tok[0]]
            if arcs is None:
                arcs = plan[tok[0]]
                rest = hops.get(tok[0])
            cost = tok[2]
            while True:
                for il, ol, bw, nid in arcs:
                    lw = bw + costs[il]
                    nc = cost + lw
                    cur = get(nid)
                    if cur is None:
                        if nc > limit:
                            if nc > far:
                                if not eps[nid]:
                                    continue
                            elif not ends[nid]:
                                add(nid)
                                continue
                        elif nc < best:
                            best = nc
                            limit = nc + margin
                            far = nc + wide
                        out[nid] = [nid, frame, nc, tok, il, ol, lw]
                    elif nc < cur[2]:
                        cur[2] = nc
                        cur += tok, il, ol, lw
                        if nc < best:
                            best = nc
                            limit = nc + margin
                            far = nc + wide
                    elif nc <= cur[2] + slack:
                        cur += tok, il, ol, lw
                if rest:
                    costs, arcs, rest = rest
                    continue
                break  # the one test a token without parts pays
        # Most frames replay nothing: a test in C of whether any set-aside
        # state has a token comes first.
        if aside and not aside.isdisjoint(out):
            self._replay(tokens, out, out.keys() & aside, plan, hops,
                         frame_costs, far, slack)
        return out

    def _replay(self, tokens: dict, out: dict, hits: set, plan: dict,
                hops: dict, frame_costs: Sequence[float], far: float,
                slack: float) -> None:
        """Put the arrivals set aside at ``hits``, the states where a later
        arrival made a token, into those tokens, in place; ``hits`` is
        emptied.  The frame's tokens scan their arcs again in ``advance``'s
        order (own arcs, then the station parts in ``hops``), and the scan
        of a hit stops at the arrival that made its token, its first link.
        Every earlier arrival there was set aside or lay beyond the wide
        cutoff in force when it came, and that cutoff only falls; so those
        within ``far``, the frame's final wide cutoff, were set aside.
        Those beyond it are dropped, as ``advance`` drops an arrival beyond
        the wide cutoff in force: its link would lie more than ``slack``
        above any token ``prune`` keeps.  Each kept arrival is tested as
        ``advance`` tests one: the first sets the running cost, a lower
        cost sets it again, and a cost within ``slack`` of it adds a link.
        The links go before the token's first link: all cost more than the
        arrival that made the token, so that arrival still sets its cost,
        and the links after it were tested against that cost."""
        emit = self.emit
        runs = {}  # hit state id -> [running cost, links...]
        for tok in tokens.values():
            cost = tok[2]
            costs, arcs, rest = frame_costs, emit[tok[0]], None
            if arcs is None:
                arcs, rest = plan[tok[0]], hops.get(tok[0])
            while True:
                for il, ol, bw, nid in arcs:
                    if nid not in hits:
                        continue
                    lw = bw + costs[il]
                    first = out[nid]
                    if (first[3] is tok and first[4] == il
                            and first[5] == ol and first[6] == lw):
                        hits.discard(nid)
                        continue
                    nc = cost + lw
                    if nc > far:
                        continue
                    run = runs.get(nid)
                    if run is None:
                        runs[nid] = [nc, tok, il, ol, lw]
                    elif nc < run[0]:
                        run[0] = nc
                        run += tok, il, ol, lw
                    elif nc <= run[0] + slack:
                        run += tok, il, ol, lw
                if not rest:
                    break
                costs, arcs, rest = rest
            if not hits:
                break
        for nid, run in runs.items():
            out[nid][3:3] = run[1:]

    def _meet(self, tokens: dict, slack: float,
              frame_costs: Sequence[float]) -> tuple[dict, dict]:
        """For the tokens whose ``emit`` entry is None, by state id, the own
        arcs each scans this frame and, for those that keep station rows,
        the chain of parts it scans after them.  The static space has no
        stations: its plan is the graph's rows, which make a state's row
        when the frame step first reads it."""
        return self._rows, _NO_HOPS

    def _expand_eps(self, sid: int) -> tuple:
        """State sid's epsilon-input arcs, made on first visit."""
        return self._rows.eps_row(sid)

    def propagate(self, tokens: dict, frame: int, slack: float) -> dict:
        """Close a token dict under epsilon-input arcs, in place.

        Each improvement records how many epsilon arcs the improving path
        has.  A path with more arcs than there are tokens repeats a state,
        and since every step on it was a strict improvement the repeated
        loop has negative weight: NegativeCycleError.
        """
        eps = self.eps
        get = tokens.get
        depth = {}
        work = [t for t in tokens.values() if eps[t[0]]]
        while work:
            tok = work.pop()
            sid = tok[0]
            arcs = eps[sid]
            if arcs is True:
                arcs = self._expand_eps(sid)
            cost = tok[2]
            d = depth.get(sid, 0) + 1
            for il, ol, w, nid in arcs:
                nc = cost + w
                cur = get(nid)
                if cur is None:
                    cur = tokens[nid] = [nid, frame, nc, tok, il, ol, w]
                elif nc < cur[2]:
                    cur[2] = nc
                    cur += tok, il, ol, w
                    if d > len(tokens):
                        raise NegativeCycleError(
                            "negative-weight epsilon cycle in the search graph "
                            f"through state {self.triple(nid)[0]}")
                else:
                    if nc <= cur[2] + slack:
                        cur += tok, il, ol, w
                    continue
                depth[nid] = d
                if eps[nid]:
                    work.append(cur)
        return tokens

    def prune(self, tokens: dict, opts: DecodeOptions) -> dict:
        """Beam pruning around the best cost, then a max-active cap; cost
        ties at the cap keep the smallest (q1, q2, q3).  When neither cuts
        a token, ``tokens`` itself is returned."""
        if not tokens:
            return tokens
        costs = [t[2] for t in tokens.values()]
        cutoff = min(costs) + opts.beam
        if max(costs) <= cutoff:
            kept = tokens
        else:
            kept = {k: t for k, t in tokens.items() if t[2] <= cutoff}
        if len(kept) > opts.max_active:
            triple = self.triple
            kept = dict(heapq.nsmallest(
                opts.max_active, kept.items(),
                key=lambda kv: (kv[1][2], triple(kv[0]))))
        return kept

    def finalize(self, tokens: dict, utt_id: str) -> list:
        """(token, final weight) for every token at a final state."""
        out = [(t, fw) for t in tokens.values()
               if (fw := self.final_weight(t[0])) != _INF]
        if not out:
            raise EmptyResultError(utt_id, "no token reaches a final state")
        return out


class _OnTheFlySpace(SearchSpace):
    """Triples (q1, q2, q3) of a search graph and both LMs, interned as
    they are reached, for on-the-fly decoding and lattice rescoring.  A
    state's emitting and epsilon arcs are expanded separately, when the
    search loop first needs each; until then ``emit[i]`` is None and
    ``eps[i]`` True, or an empty table where no epsilon arc propagates
    from the search-graph state.  A state whose morpheme arcs reach
    stations keeps ``emit[i]`` None and, in ``_shared``, its own arcs and
    its segments of the stations' shared rows.

    The G3neg state of a search-graph state (``_g3``) is derived while
    expanding: a ``phone:eps`` arc keeps it, an ``eps:eps`` arc takes
    G3neg's back-off arc from it, and a morpheme arc takes the relay's
    G3neg target (the morpheme was matched directly there).  A morpheme
    arc from (q1, q2, q3) is followed only when the relay from q2 matched
    it at ``_g3[q1]``: the search graph reads it there, so it is listed
    there, and the relay matches at the first state on q2's back-off
    chain that lists it.  A final weight counts only where
    ``_g3[q1] == q2``.  ``stats`` counts per label and per back-off
    hop, on relay memo misses only, so a warm decode adds nothing to it.

    Where every epsilon-input arc of the search graph is ``eps:eps`` with
    a weight of at least 0 (``_Rows.failure``; see the module docstring
    for why the sign matters), the frame step reads those back-off arcs as
    failure transitions: a state's emitting arcs are those of q1 and of
    the states q1's back-off arcs reach (``_reads``), so no token sits
    at a back-off state, and every state's ``eps`` entry is empty and its
    ``ends`` entry false.  Otherwise a new state over q1 takes both from
    the graph's ``_Rows`` flags, and every epsilon arc propagates.
    Rescoring walks a lattice's own arcs, back-off arcs too, with
    ``expand_arcs``, and makes no row.
    """

    def __init__(self, graph: Fst, g3neg: Fst, g4: Fst,
                 stats: Optional[RelayStats], memo: _RelayMemo,
                 states: _States):
        self.graph, self.g3neg, self.g4 = graph, g3neg, g4
        self._rows = _rows(graph)
        self.stats = stats if stats is not None else RelayStats()
        self._pairs = memo.pairs
        self._maps3, self._maps4 = _lm(g3neg).maps, _lm(g4).maps
        self._states = states
        self.emit, self.eps, self._shared = states.emit, states.eps, states.shared
        self.ends = states.ends
        self._triples, self._ids, self._g3 = states.triples, states.ids, states.g3
        if graph.initial >= 0:
            self._g3[graph.initial] = g3neg.initial
            self.initial = self.state_id(
                (graph.initial, g3neg.initial, g4.initial))

    def triple(self, sid: int) -> tuple:
        return self._triples[sid]

    def state_id(self, triple: tuple) -> int:
        sid = self._ids.get(triple)
        if sid is None:
            sid = self._ids[triple] = len(self._triples)
            self._triples.append(triple)
            self.emit.append(None)
            if self._rows.failure:
                self.eps.append(())
                self.ends.append(False)
            else:
                self.eps.append(True if self._rows.eps[triple[0]] else ())
                self.ends.append(self._rows.ends[triple[0]])
        return sid

    def propagate(self, tokens: dict, frame: int, slack: float) -> dict:
        """Where the space reads back-off arcs as failure transitions, no
        arc propagates: ``tokens`` as it is, without a scan."""
        if self._rows.failure:
            return tokens
        return super().propagate(tokens, frame, slack)

    def final_weight(self, sid: int) -> float:
        q1, q2, q3 = self._triples[sid]
        w1 = self.graph.final(q1)
        if w1 == ZERO or self._g3[q1] != q2:
            return _INF
        return w1 + (relay_final(self.g3neg, q2) + relay_final(self.g4, q3))

    def _expand_eps(self, sid: int) -> tuple:
        """Expand state sid's epsilon-input arcs, once."""
        q1 = self._triples[sid][0]
        arcs = self.eps[sid] = tuple(self.expand_arcs(
            sid, self._rows.eps_row(q1)))
        return arcs

    def _expand_emit(self, sid: int) -> tuple:
        """Expand state sid's emitting arcs, once, as (own arcs, station
        segments), over the search-graph states a token at q1 reads (see
        ``_reads``): q1, then those its back-off arcs reach, each with the
        HCLG3 back-off weight wb walked to it.  The own arcs are their
        ``phone:eps`` arcs, each weighing ``w + wb``.  Their
        morpheme arcs that the LM pair (q2, q3) matched at the state's
        G3neg state and at G4 state at3 form a segment ``[station, h, rows,
        None]``, the None a cache for ``_labels``: h is the pair's hop
        weight ``acc2 + acc3``, plus wb at a back-off state, and rows are
        the station's own row objects with those morphemes (the station's
        table itself when it keeps them all), so no arc is copied or
        weighted per pair.  The default group's rows are slices of its
        table around the rows of the morphemes with records of their own.
        A station (p, at3) is numbered ``p + (search-graph states) * at3``,
        and each state's segments are ordered by their first arc.  A state
        with segments keeps them in ``_shared`` and its ``emit`` entry
        stays None."""
        q1, q2, q3 = self._triples[sid]
        reads = self._reads(q1)
        own = []
        for p, g, wb, phones, _, _ in reads:
            for il, ol, w, ns in phones:
                self._reach(ns, g)
                own.append((il, ol, w + wb, self.state_id((ns, q2, q3))))
        own = tuple(own)
        segs = []
        n1 = len(self._g3)
        for p, g, wb, _, labels, first in reads:
            if not labels:
                continue
            pair = self.relays(q2, q3, labels)
            record = pair.record
            found = []
            for (at, at3), group in pair.groups.items():
                if at != g:
                    continue
                table = self._station(p, g, at3)
                rows = [r for r in table if record(r[1]) is group]
                if rows:
                    rows = table if len(rows) == len(table) else tuple(rows)
                    found.append([p + n1 * at3, group[2] + wb, rows, None])
            at, at3, h = pair.default
            if at == g:
                table = self._station(p, g, at3)
                rows = self._default_rows(p, at3, table, pair.records)
                if rows:
                    found.append([p + n1 * at3, h + wb, rows, None])
            found.sort(key=lambda seg: first[seg[2][0][1]])
            segs += found
        if not segs:
            self.emit[sid] = own
            return own, ()
        split = self._shared[sid] = (own, tuple(segs))
        return split

    def _reads(self, q1: int) -> tuple:
        """What a token at search-graph state q1 reads in the frame step: a
        read ``(p, g, wb, phone:eps arcs, morphemes, first arc of each
        morpheme)`` for q1 (wb 0), then for each state p its ``eps:eps``
        back-off arcs reach, depth first, once per path.  They are read as
        failure transitions, as OpenFst's ``PhiMatcher`` reads them: p's
        G3neg state g is G3neg's back-off target, the filter lets a token
        read at p only the morphemes its relay matched at g (those q1's
        context does not list), and wb sums the HCLG3 back-off weights
        walked, left to right.  Where the graph's epsilon arcs propagate,
        q1 alone is read.  Made once per q1, not once per LM pair; a
        back-off where G3neg has none, or a state reached from two G3neg
        states, raises ProvenanceError."""
        found = self._states.reads.get(q1)
        if found is not None:
            return found
        reads = []
        work = [(q1, self._g3_of(q1), 0.0)]
        while work:
            p, g, wb = work.pop()
            reads.append((p, g, wb) + self._q1_arcs(p))
            if not self._rows.failure:
                break
            arcs = self._rows.eps_row(p)
            if arcs:
                ng = self.backoff(g, p)
                for _, _, w, ns in reversed(arcs):
                    self._reach(ns, ng)
                    work.append((ns, ng, wb + w))
        found = self._states.reads[q1] = tuple(reads)
        return found

    def _default_rows(self, q1: int, at3: int, table: tuple,
                      records: dict) -> tuple:
        """The rows of the station (q1, at3) whose morphemes have no record
        of their own in ``records``: its table, or slices of it around the
        rows of the morphemes that do, joined.  Each morpheme's row
        indexes are found once per station, when a pair first leaves rows
        out."""
        if not records:
            return table
        key = (q1, at3)
        rows_of = self._states.rows_of.get(key)
        if rows_of is None:
            rows_of = self._states.rows_of[key] = {}
            for k, r in enumerate(table):
                rows_of.setdefault(r[1], []).append(k)
        cut = sorted([k for label in rows_of.keys() & records.keys()
                      for k in rows_of[label]])
        if not cut:
            return table
        parts, start = [], 0
        for k in cut:
            parts.append(table[start:k])
            start = k + 1
        parts.append(table[start:])
        return tuple(chain.from_iterable(parts))

    def _q1_arcs(self, q1: int) -> tuple:
        """Search-graph state q1's ``phone:eps`` arcs, the morphemes its
        other emitting arcs read, and the index of each morpheme's first
        arc; made once per q1, not once per LM pair."""
        derived = self._states.q1_arcs.get(q1)
        if derived is None:
            row = self._rows.emit_row(q1)
            first = {}
            for k, a in enumerate(row):
                if a[1] and a[1] not in first:
                    first[a[1]] = k
            derived = self._states.q1_arcs[q1] = (
                [a for a in row if not a[1]], set(first), first)
        return derived

    def _station(self, q1: int, g: int, at3: int) -> tuple:
        """The table of the station (q1, at3): a row ``(ilabel, olabel,
        station weight, next id)`` for each emitting arc of q1 whose
        morpheme G3neg lists at g, q1's G3neg state, and G4 lists at at3,
        its station weight ``(w + G3neg arc weight) + G4 arc weight``.
        Every LM pair that meets there shares these rows.  Made once, when
        the first pair meets there, which interns each row's next state and
        checks its G3neg state."""
        key = (q1, at3)
        stations = self._states.stations
        rows = stations.get(key)
        if rows is not None:
            return rows
        map3, map4 = self._maps3[g], self._maps4[at3]
        rows = []
        for il, ol, w, ns in self._rows.emit[q1]:
            if not ol:
                continue
            e2, e3 = map3.get(ol), map4.get(ol)
            if e2 is None or e3 is None:
                continue
            ng = e2.nextstate
            self._reach(ns, ng)
            rows.append((il, ol, (w + e2.weight) + e3.weight,
                         self.state_id((ns, ng, e3.nextstate))))
        rows = stations[key] = tuple(rows)
        return rows

    def _meet(self, tokens: dict, slack: float,
              frame_costs: Sequence[float]) -> tuple[dict, dict]:
        """The arcs each token with station segments scans this frame: its
        own arcs, then what it keeps of its segments, in the order of the
        stations met, as a chain of parts ``(costs, rows, next part)``.  A
        kept segment's costs are the frame's plus its h, made once per
        frame and h; the chain ends with ``(frame_costs, (), None)``, which
        restores the frame's costs.

        Tokens that read search-graph state q1, at it or through back-off
        arcs, and whose relays match morphemes at one G4 state at3 meet at
        the station (q1, at3): they read the same arcs to the same
        targets, at weights that differ only by the hop weight ``h`` of
        their back-off walks, less the labels each matched higher on its
        chains.  Each segment enters its station with key
        ``cost + h``, and the station's entries are taken in key order.  An
        entry skips the arcs of labels that an earlier entry held at a key
        more than ``slack + 2 * _TOL`` lower: there, each arrival would
        cost more than the earlier one's plus ``slack``, so it could set no
        cost, make no link the lattice bound keeps, and, if the earlier
        one was cut, make no token.  ``2 * _TOL`` covers the rounding
        between a key and an arrival's cost.
        """
        emit, shared = self.emit, self._shared
        plan, hops = {}, {}
        stations = {}
        get = stations.get
        for sid in tokens:
            if emit[sid] is not None:
                continue
            split = shared.get(sid)
            if split is None:
                split = self._expand_emit(sid)
                if not split[1]:
                    continue
            plan[sid], segs = split
            cost = tokens[sid][2]
            for seg in segs:
                met = get(seg[0])
                if met is None:
                    stations[seg[0]] = [(cost + seg[1], sid, seg)]
                else:
                    met.append((cost + seg[1], sid, seg))
        margin = slack + 2 * _TOL
        shifted = {}  # h -> the frame's costs plus h
        restore = (frame_costs, (), None)

        def keep(sid, h, rows):
            costs = shifted.get(h)
            if costs is None:
                costs = shifted[h] = [c + h for c in frame_costs]
            hops[sid] = (costs, rows, hops.get(sid, restore))

        # Taken last first, so that a token's parts, each put before those
        # it has, come in the order its stations were met.
        for met in reversed(stations.values()):
            if len(met) == 1:
                _, sid, seg = met[0]
                keep(sid, seg[1], seg[2])
                continue
            # State ids break key ties.  A state has two entries only where
            # its back-off arcs reach one state twice; their segments then
            # differ by h or are alike.
            met.sort()
            covered = j = 0  # labels held by entries j' < j, as a bit mask
            for key, sid, seg in met:
                held = key - margin
                while met[j][0] < held:
                    covered |= _labels(met[j][2])
                    j += 1
                if not covered:
                    keep(sid, seg[1], seg[2])
                elif _labels(seg) | covered != covered:
                    keep(sid, seg[1], tuple(
                        [a for a in seg[2] if not (covered >> a[1]) & 1]))
        return plan, hops

    def expand_arcs(self, sid: int, graph_arcs) -> list:
        """(ilabel, olabel, graph+LM weight, next id) for each of state
        sid's ``graph_arcs`` (ilabel, olabel, weight, next graph state)
        that survives, in order.  One batch relays the labels of all arcs;
        the counters count per label, as if each arc were relayed alone.
        A morpheme arc reads its two LM arcs from the label maps of its
        group's record, as the station tables do, and weighs ``((w + G3neg
        arc weight) + G4 arc weight) + h``, its station row's weight plus
        the pair's hop weight: the weight of the frame step's link from
        that row where the arc's phone costs nothing.  So on such paths
        rescoring a lattice and decoding on the fly make the same floats."""
        q1, q2, q3 = self._triples[sid]
        g = self._g3_of(q1)
        labels = {a[1] for a in graph_arcs if a[1]}
        if labels:
            record = self.relays(q2, q3, labels).record
            maps3, maps4 = self._maps3, self._maps4
        arcs = []
        for il, ol, w, ns in graph_arcs:
            if ol == 0:
                ng = g if il else self.backoff(g, q1)
                nq2, nq3, w = q2, q3, w + 0.0
            else:
                at, at3, h = record(ol)
                if at != g:
                    continue
                e2, e3 = maps3[g][ol], maps4[at3][ol]
                ng = nq2 = e2.nextstate
                nq3 = e3.nextstate
                w = ((w + e2.weight) + e3.weight) + h
            self._reach(ns, ng)
            arcs.append((il, ol, w, self.state_id((ns, nq2, nq3))))
        return arcs

    def _reach(self, ns: int, ng: int) -> None:
        """Record that search-graph state ns is reached from G3neg state
        ng.  A state reached from two G3neg states raises ProvenanceError:
        the search graph is no composition with G3neg."""
        seen = self._g3[ns]
        if seen != ng:
            if seen != _NO_STATE:
                raise ProvenanceError(
                    f"search graph state {ns} is reached from G3neg states "
                    f"{seen} and {ng}: the search graph is not a composition "
                    "with G3neg")
            self._g3[ns] = ng

    def _g3_of(self, q1: int) -> int:
        """The G3neg state search-graph state q1 was composed from."""
        g = self._g3[q1]
        if g == _NO_STATE:
            raise ProvenanceError(
                f"search graph state {q1} was not reached from the initial "
                "state, so its G3neg state is unknown")
        return g

    def backoff(self, g: int, q1: int) -> int:
        """G3neg's back-off target from g, where search-graph state q1,
        composed from g, takes an epsilon back-off arc."""
        b = _lm(self.g3neg).back[g]
        if b is None:
            raise ProvenanceError(
                f"search graph state {q1} backs off from G3neg state {g}, "
                "which has no back-off arc")
        return b.nextstate

    def relays(self, q2: int, q3: int, labels: set) -> _Pair:
        """The LM pair's memo, with every label in ``labels`` resolved.

        A new pair takes its default record from the last states of q2's
        G3neg chain and q3's G4 chain.  Of the labels not asked before,
        those that a chain lists above its last state are walked one at a
        time down both chains and get records of their own; the rest
        relay to both last states, and their counts come from set sizes:
        how many each last state does not list.  ``stats`` counts per
        label and per hop, as if each label walked alone.
        """
        pair = self._pairs.get((q2, q3))
        if pair is None:
            chain2, chain3 = _chain(self.g3neg, q2), _chain(self.g4, q3)
            pair = self._pairs[(q2, q3)] = _Pair(chain2[-1], chain3[-1])
            new = labels
        else:
            new = labels.difference(*pair.asked)
            if not new:
                return pair
            chain2, chain3 = _chain(self.g3neg, q2), _chain(self.g4, q3)
        pair.asked.append(labels)
        n2, n3 = len(chain2), len(chain3)
        above = set()
        for _, _, amap in chain2[:-1] + chain3[:-1]:
            above |= amap.keys() & new
        hops = dead = 0
        records, groups = pair.records, pair.groups
        for label in above:
            d2 = _depth(chain2, label)
            d3 = _depth(chain3, label) if d2 < n2 else n3
            if d2 == n2 or d3 == n3:
                records[label] = _DEAD_RECORD
                hops += n2 - 1 if d2 == n2 else d2 + n3 - 1
                dead += 1
                continue
            hops += d2 + d3
            at, acc2, _ = chain2[d2]
            at3, acc3, _ = chain3[d3]
            record = groups.get((at, at3))
            if record is None:
                record = groups[(at, at3)] = (at, at3, acc2 + acc3)
            records[label] = record
        rest = len(new) - len(above)
        if rest:
            # The rest walk to q2's last state; those it lists on to q3's.
            map2, map3 = pair.last
            dead2 = new.difference(map2)
            dead3 = new.difference(map3)
            dead3 -= dead2
            if above:
                dead2 -= above
                dead3 -= above
            hops += rest * (n2 - 1) + (rest - len(dead2)) * (n3 - 1)
            dead += len(dead2) + len(dead3)
        stats = self.stats
        stats.failed_direct_matches += hops + dead
        stats.backoff_hops += hops
        stats.dead_relays += dead
        return pair


def _labels(seg: list) -> int:
    """A station segment's labels as a bit mask, made when a station first
    needs them."""
    labels = seg[3]
    if labels is None:
        labels = 0
        for a in seg[2]:
            labels |= 1 << a[1]
        seg[3] = labels
    return labels


def search_space(graph: Fst, g3neg: Fst, g4: Fst,
                 stats: Optional[RelayStats] = None) -> _OnTheFlySpace:
    """The on-the-fly space over graph (HCLG3 or a first-pass lattice) and
    both LMs, with ``stats`` counting its relay memo misses.  The LM
    pair's memo is kept in G4's record under G3neg's, so it lasts while
    both records do; the space's states are kept in graph's record under
    the memo.  A static space is ``SearchSpace(graph)``."""
    key = _lm(g3neg, "G3neg")
    relays = _lm(g4, "G4").relays
    memo = relays.get(key)
    if memo is None:
        memo = relays[key] = _RelayMemo()
    spaces = _derived(graph).spaces
    states = spaces.get(memo)
    if states is None:
        states = spaces[memo] = _States(graph)
    return _OnTheFlySpace(graph, g3neg, g4, stats, memo, states)


# -- lattices --------------------------------------------------------------

@dataclass
class Lattice:
    """Hypothesis graph; states are (triple, frame) tokens, and ``frames``
    holds each state's frame.  An epsilon-input arc stays in its frame and
    an emitting arc goes to the next.

    ``peak_tokens`` is the most tokens the decode made in one frame,
    before pruning.  An arrival beyond the frame step's cutoff, the best
    so far plus the beam, made none unless an epsilon arc that propagates
    leaves or enters its state; its state's token was made only if
    another arrival within the cutoff made it.  An on-the-fly decode makes
    no token at a back-off state.  A rescored lattice keeps its first pass's
    figure.
    """

    fst: Fst
    frames: list[int]
    utt_id: str = ""
    peak_tokens: int = 0


def _build_lattice(space: SearchSpace, finals: list, init_token: list,
                   opts: DecodeOptions, utt_id: str) -> Lattice:
    """The tokens and links on paths within ``lattice_beam`` of the best
    final cost, as a lattice whose states are numbered by (frame, triple).

    A backward search from the final tokens within that bound, a frame at a
    time from the last, follows a link only if its source's cost plus its
    weight plus its target's beta (best cost on to a final weight) is within
    the bound, and visits a same-frame token again when its beta falls, so
    its work scales with the kept lattice.  As a kept token's best suffix
    stays within the bound, it keeps the tokens a closure over every
    ancestor keeps (cost plus beta within the bound, and the initial token),
    each with the same beta, as the same float.  A state's arcs are ordered
    by target state, then by link order.
    """
    best = min([t[2] + fw for t, fw in finals])
    bound = best + opts.lattice_beam + _TOL
    ends = [(t, fw) for t, fw in finals if t[2] + fw <= bound]
    found = [t for t, _ in ends]  # tokens by search index
    index = {id(t): k for k, t in enumerate(found)}
    beta = [fw for _, fw in ends]
    arrivals = {}  # search index -> its links that pass the arc test
    work = list(range(len(found)))
    while work:
        older = []  # search indexes of the frame before, in the order found
        while work:
            k = work.pop()
            t = found[k]
            b = beta[k]
            into = arrivals[k] = []  # the last visit sees the final beta
            for i in range(3, len(t), 4):
                prev, w = t[i], t[i + 3]
                if prev[2] + w + b > bound:
                    continue
                into.append(t[i:i + 4])
                c = w + b
                p = index.get(id(prev))
                if p is None:
                    p = index[id(prev)] = len(found)
                    found.append(prev)
                    beta.append(c)
                    (work if prev[1] == t[1] else older).append(p)
                elif c < beta[p]:  # cycles have non-negative weight: this ends
                    beta[p] = c
                    if prev[1] == t[1]:
                        work.append(p)
        work = older

    init = index.setdefault(id(init_token), len(found))
    if init == len(found):
        found.append(init_token)
        beta.append(_INF)
    kept = [t[2] + b <= bound for t, b in zip(found, beta)]
    ordered = [k for k in range(len(found)) if kept[k] or k == init]
    ordered.sort(key=lambda k: (found[k][1], space.triple(found[k][0])))
    state = {k: s for s, k in enumerate(ordered)}
    arcs: list[list[Arc]] = [[] for _ in ordered]
    for j, k in enumerate(ordered):
        if not kept[k]:
            continue
        links = arrivals[k]
        # A source token expanded twice repeats its links to this token.
        if len(links) > 1 and len({id(lk[0]) for lk in links}) < len(links):
            unique = {}
            for lk in links:
                unique.setdefault((id(lk[0]), lk[1], lk[2], round(lk[3], 10)), lk)
            links = unique.values()
        for prev, il, ol, w in links:
            s = state.get(index[id(prev)])
            if s is not None:
                arcs[s].append(Arc(il, ol, w, j))
    fst = Fst._adopt(space.graph.isyms, space.graph.osyms, arcs,
                     {state[k]: fw for k, (_, fw) in enumerate(ends)},
                     state[init])
    return Lattice(fst, [found[k][1] for k in ordered], utt_id)


@gc_paused
def best_path(lat: Lattice) -> tuple[list[str], float]:
    """Min-cost lattice path: (morpheme sequence, cost).

    No arc goes to an earlier frame, so the states are relaxed a frame at
    a time, each frame's in FIFO order until none improves: exact on
    cycles and with negative weights.  As in ``propagate``, an improving
    path with more arcs within a frame than the lattice has states repeats
    a state on a negative-weight cycle: NegativeCycleError.  Exact cost
    ties resolve to the lexicographically smallest output.
    """
    fst = lat.fst
    if fst.num_states == 0 or fst.initial < 0:
        raise EmptyResultError(lat.utt_id, "empty lattice")
    frames = lat.frames
    sym = fst.osyms.sym_of if fst.osyms is not None else str
    best: dict[int, tuple[float, tuple[str, ...]]] = {fst.initial: (0.0, ())}
    pending = {frames[fst.initial]: [fst.initial]}  # frame -> its FIFO
    depth = {fst.initial: 0}  # queued state -> arcs in its frame on its path
    while pending:
        f = min(pending)
        work = pending.pop(f)
        for s in work:  # takes in the states appended while it runs
            d = depth.pop(s) + 1
            cost, seq = best[s]
            for _, ol, w, t in fst.arcs(s):
                cand = (cost + w, seq + (sym(ol),) if ol else seq)
                cur = best.get(t)
                if cur is None or cand < cur:
                    best[t] = cand
                    if frames[t] == f:
                        if d > fst.num_states:
                            raise NegativeCycleError(
                                "negative-weight epsilon cycle in the lattice "
                                f"through state {t}")
                        if t not in depth:
                            work.append(t)
                        depth[t] = d
                    elif t not in depth:
                        pending.setdefault(frames[t], []).append(t)
                        depth[t] = 0
    ends = [(best[s][0] + w, best[s][1])
            for s, w in fst.finals.items() if s in best]
    if not ends:
        raise EmptyResultError(lat.utt_id, "lattice has no successful path")
    cost, seq = min(ends)
    return list(seq), cost


# -- full decodes ----------------------------------------------------------

@gc_paused
def _decode(space: SearchSpace, acoustic: AcousticMatrix,
            opts: DecodeOptions, utt_id: str) -> Lattice:
    if space.graph.initial < 0:
        raise DecodeError("search graph has no initial state")
    top = space._rows.top
    if top > acoustic.num_symbols:
        raise DecodeError(f"search graph input label {top} is outside the "
                          f"acoustic matrix's {acoustic.num_symbols} symbols")
    utt_id = utt_id or acoustic.utt_id
    init = [space.initial, 0, 0.0]
    tokens = {init[0]: init}
    slack = opts.lattice_beam
    space.propagate(tokens, 0, slack)
    scale = opts.acoustic_scale
    peak = len(tokens)
    for frame in range(acoustic.num_frames):
        row = acoustic.padded_row(frame)
        if scale != 1.0:
            row = [c * scale for c in row]
        tokens = space.advance(tokens, row, frame + 1, slack, opts.beam)
        if not tokens:
            raise EmptyResultError(utt_id, f"no surviving token at frame {frame}")
        space.propagate(tokens, frame + 1, slack)
        if len(tokens) > peak:
            peak = len(tokens)
        tokens = space.prune(tokens, opts)
    lat = _build_lattice(space, space.finalize(tokens, utt_id), init, opts, utt_id)
    lat.peak_tokens = peak
    return lat


def decode_onthefly(hclg3: Fst, g3neg: Fst, g4: Fst, acoustic: AcousticMatrix,
                    opts: Optional[DecodeOptions] = None,
                    stats: Optional[RelayStats] = None,
                    utt_id: str = "") -> Lattice:
    """Ternary on-the-fly decode over HCLG3 with G3- and G4 relays."""
    space = search_space(hclg3, g3neg, g4, stats)
    return _decode(space, acoustic, opts or DecodeOptions(), utt_id)


def decode_static(graph: Fst, acoustic: AcousticMatrix,
                  opts: Optional[DecodeOptions] = None,
                  utt_id: str = "") -> Lattice:
    """Plain one-pass decode over a fully composed search graph."""
    return _decode(SearchSpace(graph), acoustic, opts or DecodeOptions(),
                   utt_id)


@gc_paused
def rescore_lattice(lat: Lattice, g3neg: Fst, g4: Fst,
                    stats: Optional[RelayStats] = None) -> Lattice:
    """Replace first-pass LM scores along lattice paths with big-LM scores.

    A depth-first walk of the on-the-fly search space over the lattice
    (whose ``eps:eps`` arcs are HCLG3's back-off arcs), numbering states
    as it finds them.  Paths whose morphemes cannot be matched (out of
    vocabulary), or that back off past a context listing their morpheme,
    are dropped, and so is every state then left on no successful path.
    The space comes from ``search_space``, so its states are kept in the
    lattice's own record, which goes with the lattice.
    """
    src = lat.fst
    if src.num_states == 0 or src.initial < 0:
        raise EmptyResultError(lat.utt_id, "empty lattice")
    space = search_space(src, g3neg, g4, stats)
    state = {space.initial: 0}  # space id -> output state
    arcs, finals = [[]], {}  # by output state
    frames = [lat.frames[src.initial]]
    stack = [space.initial]
    while stack:
        sid = stack.pop()
        s = state[sid]
        for il, ol, w, nid in space.expand_arcs(
                sid, src.arcs(space.triple(sid)[0])):
            t = state.get(nid)
            if t is None:
                t = state[nid] = len(arcs)
                arcs.append([])
                frames.append(lat.frames[space.triple(nid)[0]])
                stack.append(nid)
            arcs[s].append(Arc(il, ol, w, t))
        fw = space.final_weight(sid)
        if fw != _INF:
            finals[s] = fw
    if not finals:
        raise EmptyResultError(lat.utt_id, "all lattice paths dropped in rescoring")
    out, keep = _connect(Fst._adopt(src.isyms, src.osyms, arcs, finals, 0))
    return Lattice(out, [frames[s] for s in keep], lat.utt_id, lat.peak_tokens)
