"""Weighted finite-state transducers over the tropical semiring.

Weights are plain floats holding costs in the negative-log (natural log)
domain.  The semiring zero is +inf and annihilates under ``times``; the
semiring one is 0.0.  NaN weights are rejected at arc/final insertion.
"""

from __future__ import annotations

import functools
import gc
import math
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, TypeVar

ZERO = math.inf
ONE = 0.0

EPSILON = 0
EPSILON_SYM = "<eps>"


class FstError(ValueError):
    pass


class ParseError(FstError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_F = TypeVar("_F", bound=Callable)


def gc_paused(fn: _F) -> _F:
    """Run ``fn`` with the cyclic garbage collector off, then turn it back on.

    For the calls that build a whole LM, task or graph, and for the
    decodes (``decoder._decode``, ``rescore_lattice`` and ``best_path``).
    What they build is never garbage and holds no cycles, yet a build is
    hundreds of thousands of containers, and each full collection during
    it walks all of them (an ``Arc`` is a tuple subclass, which the
    collector never untracks); a decode makes a list per token and
    tuples per arc it reads, enough to start a young collection every few
    frames of a pass without pruning.  A call made while the collector is
    already off, as a builder nested in another is, leaves it off; an
    error leaves it as it was found.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return paused  # type: ignore[return-value]


def weight_times(a: float, b: float) -> float:
    """Tropical extend: a + b, with +inf annihilating."""
    if a == ZERO or b == ZERO:
        return ZERO
    return a + b


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


_ILABEL_WEIGHT = itemgetter(0, 2)  # an arc's (ilabel, weight)


class SymbolTable:
    """Bijective symbol <-> id map with id 0 reserved for epsilon."""

    def __init__(self):
        self._sym2id = {EPSILON_SYM: EPSILON}
        self._id2sym = {EPSILON: EPSILON_SYM}

    def __len__(self) -> int:
        return len(self._sym2id)

    def __contains__(self, sym: str) -> bool:
        return sym in self._sym2id

    def add(self, sym: str) -> int:
        """The symbol's id, added if new.  A symbol that ``write_text``
        could not write so that ``read_text`` reads it back raises
        FstError, and the table is left as it was: an empty one, and one
        with whitespace."""
        sid = self._sym2id.get(sym)
        if sid is None:
            if sym.split() != [sym]:
                raise FstError(f"symbol {sym!r} is empty or holds whitespace, "
                               "which a symbol table line cannot carry")
            sid = len(self._sym2id)
            self._sym2id[sym] = sid
            self._id2sym[sid] = sym
        return sid

    def id_of(self, sym: str) -> int:
        try:
            return self._sym2id[sym]
        except KeyError:
            raise FstError(f"unknown symbol {sym!r}") from None

    def sym_of(self, sid: int) -> str:
        try:
            return self._id2sym[sid]
        except KeyError:
            raise FstError(f"unknown symbol id {sid}") from None

    def has_id(self, sid: int) -> bool:
        return sid in self._id2sym

    def symbols(self):
        return iter(self._sym2id.items())

    def write_text(self) -> str:
        lines = [f"{s}\t{i}" for s, i in sorted(self._sym2id.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + "\n"

    @classmethod
    def read_text(cls, text: str) -> "SymbolTable":
        table = cls()
        entries = []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError(ln, f"bad symbol line {raw!r}")
            sym, sid = parts[0], int(parts[1])
            entries.append((ln, sym, sid))
        entries.sort(key=lambda e: e[2])
        for ln, sym, sid in entries:
            if sid == EPSILON:
                if sym != EPSILON_SYM:
                    raise ParseError(ln, f"id 0 must be {EPSILON_SYM!r}, got {sym!r}")
                continue
            got = table.add(sym)
            if got != sid:
                raise ParseError(ln, f"non-contiguous id {sid} for {sym!r}")
        return table


class Fst:
    """Mutable WFST builder; treated as immutable once handed to consumers.

    The states and arcs change only through ``add_state``,
    ``add_states``, ``add_arc`` and ``arc_sort_input``, and each call bumps
    ``version``; ``arcs(state)`` returns the live list,
    which callers must not modify.  The graph keeps nothing derived from
    its arcs: a table derived from them records the version it was built
    at and is rebuilt when the version differs.
    """

    def __init__(self, isyms: Optional[SymbolTable] = None, osyms: Optional[SymbolTable] = None):
        self._arcs: list[list[Arc]] = []
        self.initial: int = -1
        self.finals: dict[int, float] = {}
        self.isyms = isyms
        self.osyms = osyms
        self.version = 0
        self._sorted_at: Optional[int] = None  # version of the last arc_sort_input

    @classmethod
    def _adopt(cls, isyms: Optional[SymbolTable], osyms: Optional[SymbolTable],
               arcs: list[list[Arc]], finals: dict[int, float], initial: int) -> "Fst":
        """An Fst that takes over ``arcs`` and ``finals`` as they are.

        For builders whose states, labels and weights are valid by
        construction: it skips the per-arc checks of ``add_arc`` and
        ``set_final``.
        """
        out = cls(isyms, osyms)
        out._arcs = arcs
        out.finals = finals
        out.initial = initial
        return out

    # -- structure ---------------------------------------------------------

    def add_state(self) -> int:
        self.add_states(1)
        return len(self._arcs) - 1

    def add_states(self, n: int) -> None:
        self._arcs.extend([] for _ in range(n))
        if self._sorted_at == self.version:  # no arcs: sorted arcs stay sorted
            self._sorted_at += 1
        self.version += 1

    @property
    def num_states(self) -> int:
        return len(self._arcs)

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def states(self) -> Iterable[int]:
        return range(len(self._arcs))

    def arcs(self, state: int) -> list[Arc]:
        self._check_state(state)
        return self._arcs[state]

    def add_arc(self, state: int, arc: Arc) -> None:
        self._check_state(state)
        self._check_state(arc.nextstate)
        if arc.ilabel < 0 or arc.olabel < 0 or math.isnan(arc.weight):
            raise FstError("NaN arc weight" if math.isnan(arc.weight) else
                           f"negative label in arc {arc.ilabel}:{arc.olabel}")
        self._arcs[state].append(arc)
        self.version += 1

    def set_initial(self, state: int) -> None:
        self._check_state(state)
        self.initial = state

    def set_final(self, state: int, weight: float = ONE) -> None:
        self._check_state(state)
        if math.isnan(weight):
            raise FstError("NaN final weight")
        self.finals[state] = weight

    def final(self, state: int) -> float:
        return self.finals.get(state, ZERO)

    def is_final(self, state: int) -> bool:
        return state in self.finals

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self._arcs):
            raise FstError(f"invalid state id {state}")

    # -- matching ----------------------------------------------------------

    def arc_sort_input(self) -> None:
        """Sort every arc list by (ilabel, weight); required by find_arc."""
        for arcs in self._arcs:
            arcs.sort(key=_ILABEL_WEIGHT)
        self.version += 1
        self._sorted_at = self.version

    @property
    def input_sorted(self) -> bool:
        """Whether the arcs are sorted at the current version."""
        return self._sorted_at == self.version


def find_arc(fst: Fst, state: int, ilabel: int) -> Optional[Arc]:
    """Lowest-weight arc with the given input label, or None.

    The arc list must be input-sorted; ties on ilabel resolve to the
    minimum-weight arc because sorting is by (ilabel, weight).
    """
    arcs = fst.arcs(state)
    if not fst.input_sorted:
        raise FstError("arc lookup requires input-sorted arcs (call arc_sort_input)")
    for a in arcs:
        if a.ilabel >= ilabel:
            return a if a.ilabel == ilabel else None
    return None


# -- serialization ---------------------------------------------------------

def write_text_fst(fst: Fst, state_comments: Optional[dict[int, str]] = None) -> str:
    """Arc lines "src dst ilabel olabel weight" (tab separated), then final lines.

    As in OpenFst, the first line names the initial state: its arcs are
    written first, or its final line when it has no arcs.  A state is
    known to the text only by an arc or a final line of its own, so an
    initial state with neither, or one that an arc enters, would not read
    back: FstError.
    """
    if fst.initial < 0:
        raise FstError("fst has no initial state")
    if not fst.arcs(fst.initial) and not fst.is_final(fst.initial):
        raise FstError(f"initial state {fst.initial} has no arcs and is not final")
    rows = fst._arcs
    unknown = {s for s, row in enumerate(rows) if not row} - fst.finals.keys()
    if unknown:
        for row in rows:
            for a in row:
                if a.nextstate in unknown:
                    raise FstError(f"state {a.nextstate} has an arc into it "
                                   "but no arcs and is not final")
    order = [fst.initial] + [s for s in fst.states() if s != fst.initial]
    out = []
    if state_comments:
        for s in order:
            if s in state_comments:
                out.append(f"# state {s} {state_comments[s]}")
    arcs = [f"{s}\t{a.nextstate}\t{a.ilabel}\t{a.olabel}\t{a.weight:.12g}"
            for s in order for a in fst.arcs(s)]
    finals = [f"{s}\t{fst.final(s):.12g}" for s in order if fst.is_final(s)]
    if not fst.arcs(fst.initial):  # then finals[0] is its line
        arcs.insert(0, finals.pop(0))
    return "\n".join(out + arcs + finals) + "\n"


@gc_paused
def read_text_fst(text: str, isyms: Optional[SymbolTable] = None,
                  osyms: Optional[SymbolTable] = None) -> Fst:
    """Parse the text format written by write_text_fst.

    The first line, arc or final, names the initial state.  Each line is
    checked as it is read, for everything that ``add_arc`` and
    ``set_final`` check, so an error names its line; the arc lists (in line
    order) and the finals are then handed to the graph whole.
    """
    arcs: list[tuple[int, int, Arc]] = []  # (lineno, src, arc)
    finals: dict[int, float] = {}
    initial = -1
    max_state = -1
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        try:
            if len(parts) in (4, 5):
                src, dst = int(parts[0]), int(parts[1])
                il, ol = int(parts[2]), int(parts[3])
                w = float(parts[4]) if len(parts) == 5 else 0.0
            elif len(parts) == 2:
                src, w = int(parts[0]), float(parts[1])
                dst = il = ol = None
            else:
                raise ValueError(f"expected 2, 4 or 5 fields, got {len(parts)}")
        except ValueError as exc:
            raise ParseError(ln, f"malformed line {raw!r}: {exc}") from None
        if src < 0 or (dst is not None and dst < 0):
            raise ParseError(ln, f"negative state id in {raw!r}")
        if initial < 0:
            initial = src
        if dst is None:
            if math.isnan(w):
                raise ParseError(ln, "NaN final weight")
            finals[src] = w
            max_state = max(max_state, src)
            continue
        if il < 0 or ol < 0:
            raise ParseError(ln, f"negative label in {raw!r}")
        if isyms is not None and not isyms.has_id(il):
            raise ParseError(ln, f"unknown input symbol id {il}")
        if osyms is not None and not osyms.has_id(ol):
            raise ParseError(ln, f"unknown output symbol id {ol}")
        if math.isnan(w):
            raise ParseError(ln, "NaN weight")
        arcs.append((ln, src, Arc(il, ol, w, dst)))
        max_state = max(max_state, src, dst)
    if initial < 0:
        raise ParseError(0, "empty fst body")
    known = {src for _, src, _ in arcs} | finals.keys()
    for ln, _, arc in arcs:
        if arc.nextstate not in known:
            raise ParseError(ln, f"dangling nextstate {arc.nextstate}")
    state_arcs: list[list[Arc]] = [[] for _ in range(max_state + 1)]
    for _, src, arc in arcs:
        state_arcs[src].append(arc)
    return Fst._adopt(isyms, osyms, state_arcs, finals, initial)


# -- trimming --------------------------------------------------------------

@gc_paused
def connect(fst: Fst) -> Fst:
    """Remove states not on a successful initial -> final path."""
    return _connect(fst)[0]


def _connect(fst: Fst) -> tuple[Fst, list[int]]:
    """connect(fst), and the states it keeps, in fst's numbering."""
    n = fst.num_states
    if fst.initial < 0 or n == 0:
        return Fst(fst.isyms, fst.osyms), []
    arcs = fst._arcs
    fwd = [False] * n
    stack = [fst.initial]
    fwd[fst.initial] = True
    while stack:
        s = stack.pop()
        for a in arcs[s]:
            if not fwd[a.nextstate]:
                fwd[a.nextstate] = True
                stack.append(a.nextstate)
    radj: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        for a in arcs[s]:
            radj[a.nextstate].append(s)
    bwd = [False] * n
    stack = [s for s in fst.finals if fwd[s]]
    for s in stack:
        bwd[s] = True
    while stack:
        s = stack.pop()
        for p in radj[s]:
            if not bwd[p]:
                bwd[p] = True
                stack.append(p)
    keep = [s for s in fst.states() if fwd[s] and bwd[s]]
    if not keep or not bwd[fst.initial]:
        return Fst(fst.isyms, fst.osyms), []
    if len(keep) == n:
        # Copied even though nothing is trimmed.  A list built by appends
        # (as compose_standard's are) has spare room and lies where the
        # build left it; its copy is allocated at its length, in state
        # order.  On the 1000-morpheme task, handing the lists over saved
        # 4% of set-up and 7 MB of peak RSS, but decoding over HCLG4 ran
        # 6-7% slower, warm and cold.
        out = Fst._adopt(fst.isyms, fst.osyms, [list(state_arcs) for state_arcs in arcs],
                         dict(fst.finals), fst.initial)
    else:
        remap = [-1] * n
        for i, s in enumerate(keep):
            remap[s] = i
        out = Fst._adopt(fst.isyms, fst.osyms,
                         [[tuple.__new__(Arc, (il, ol, w, remap[dst]))
                           for il, ol, w, dst in arcs[s] if remap[dst] >= 0]
                          for s in keep],
                         {remap[s]: w for s, w in fst.finals.items() if remap[s] >= 0},
                         remap[fst.initial])
    if fst.input_sorted:
        out.arc_sort_input()
    return out, keep
