"""In-memory span recording around the public calls of each wfstdec layer.

Spans are taken from the benchmark's side only: while a traced unit runs,
the public functions listed in TRACED are swapped for wrappers in every
``wfstdec`` module that binds them (so calls made inside ``cli.main`` or
``run_pipeline`` are seen too), and the originals are put back when the
unit ends.  Nothing in ``src/wfstdec`` is edited.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

# layer -> public names whose calls become spans named "<layer>.<name>".
# "Class.method" entries wrap a method on the class itself.
TRACED = {
    "pipeline": ["generate_task"],
    "ngram": ["estimate_witten_bell", "prune_to_small_lm"],
    "graph": ["make_morpheme_symbols", "build_search_graph", "lm_to_fst",
              "negate_weights", "compile_lexicon", "compose_standard"],
    "fst": ["read_text_fst", "write_text_fst", "connect",
            "Fst.arc_sort_input", "SymbolTable.read_text",
            "SymbolTable.write_text"],
    "acoustic": ["synthesize_utterance", "read_acoustic_text",
                 "write_acoustic_text"],
    "decoder": ["decode_onthefly", "decode_static", "rescore_lattice",
                "best_path"],
    "metrics": ["wer_score", "morphemes_to_words", "size_report"],
    "cli": ["main"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    utt: Optional[str]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store; spans are recorded only inside ``tracing()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.utt: Optional[str] = None   # utterance id stamped on new spans
        self._stack: list[int] = []
        self._active = False

    @contextmanager
    def span(self, name: str):
        if not self._active:
            yield
            return
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.utt))
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def tracing(self):
        """Record spans, with every TRACED function wrapped, until exit."""
        import wfstdec
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wfstdec" or n.startswith("wfstdec.")]
        for layer, names in TRACED.items():
            home = getattr(wfstdec, layer)
            for name in names:
                span_name = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(span_name, orig.__func__))
                    else:
                        new = self._wrap(span_name, orig)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, name)
                new = self._wrap(span_name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, new)
                            undo.append((mod, attr, orig))
        self._active = True
        try:
            yield
        finally:
            self._active = False
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    @contextmanager
    def paused(self):
        """Record no spans until exit: for the benchmark's own work, such
        as copying graphs, that calls traced functions."""
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active

    # -- derived figures ---------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - c
        return out

    def totals(self, root: str, name: str, within: Optional[str] = None,
               parent: Optional[str] = None) -> list[float]:
        """Seconds in spans called ``name`` summed per span called ``root``
        that encloses them, one value per ``root`` span in recording order.

        ``within`` also requires an enclosing span of that name, ``parent``
        an immediate parent of that name.
        """
        per_root: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s.name == root:
                per_root.setdefault(i, 0.0)
        for i, s in enumerate(self.spans):
            if s.name != name or (
                    parent is not None and self.spans[s.parent].name != parent):
                continue
            r = None
            inside = within is None
            p = s.parent
            while p >= 0:
                pn = self.spans[p].name
                if pn == within:
                    inside = True
                if pn == root:
                    r = p
                    break
                p = self.spans[p].parent
            if r is not None and inside:
                per_root[r] += s.seconds
        return [per_root[i] for i in sorted(per_root)]

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "utt": s.utt} for s in self.spans]
