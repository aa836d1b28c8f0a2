"""Synthetic acoustic front end: frame cost matrices in place of a DNN."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_MARGIN = 12.0


class AcousticError(ValueError):
    pass


@dataclass(frozen=True)
class AcousticMatrix:
    """Per-frame negative-log-likelihood costs for emitting symbols 1..S.

    costs has shape (T, S); column j holds symbol id j+1 (epsilon has no
    acoustic cost and no column).
    """

    utt_id: str
    costs: np.ndarray

    def __post_init__(self):
        if self.costs.ndim != 2:
            raise AcousticError("costs must be a T x S matrix")
        if not np.all(np.isfinite(self.costs)):
            raise AcousticError("acoustic costs must be finite")

    @property
    def num_frames(self) -> int:
        return self.costs.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.costs.shape[1]

    def padded_row(self, frame: int) -> list[float]:
        """Frame costs indexable directly by symbol id (index 0 unused)."""
        if not 0 <= frame < self.num_frames:
            raise AcousticError(f"frame {frame} out of range")
        return [math.inf] + self.costs[frame].tolist()


def synthesize_utterance(phone_sequence: Sequence[int], num_symbols: int,
                         frames_per_phone: int = 1, noise: float = 0.0,
                         seed: int = 0, margin: float = DEFAULT_MARGIN,
                         utt_id: str = "") -> AcousticMatrix:
    """Deterministic cost matrix whose zero-cost symbols spell the phones.

    Every frame gives the scheduled phone cost 0 and all other symbols a
    non-negative margin, perturbed by seeded Gaussian noise when noise > 0.
    """
    phones = list(phone_sequence)
    if not phones:
        raise AcousticError("empty phone sequence")
    if frames_per_phone < 1:
        raise AcousticError("frames_per_phone must be >= 1")
    for p in phones:
        if not 1 <= p <= num_symbols:
            raise AcousticError(f"phone id {p} outside 1..{num_symbols}")
    if noise < 0:
        raise AcousticError("noise must be non-negative")
    if seed < 0:
        raise AcousticError("seed must be non-negative")
    if not margin >= 0:  # NaN fails too
        raise AcousticError("margin must be non-negative")
    t = len(phones) * frames_per_phone
    rng = np.random.default_rng(seed)
    costs = np.full((t, num_symbols), margin)
    if noise > 0:
        costs = costs + noise * rng.standard_normal((t, num_symbols))
    for i, p in enumerate(phones):
        for k in range(frames_per_phone):
            costs[i * frames_per_phone + k, p - 1] = 0.0
    return AcousticMatrix(utt_id, costs)


def write_acoustic_text(m: AcousticMatrix) -> str:
    """The text format that read_acoustic_text reads.  An utterance id
    that its header cannot carry (empty, or with whitespace, where the
    reader splits the header's fields) raises AcousticError."""
    if m.utt_id.split() != [m.utt_id]:
        raise AcousticError(f"utterance id {m.utt_id!r} is empty or holds "
                            "whitespace, which the acoustic header cannot carry")
    header = f"utt {m.utt_id} frames {m.num_frames} symbols {m.num_symbols}"
    rows = [" ".join(f"{c:.6f}" for c in row) for row in m.costs]
    return header + "\n" + "\n".join(rows) + "\n"


def read_acoustic_text(text: str) -> AcousticMatrix:
    """Parse the text format written by write_acoustic_text.

    A malformed header or row raises AcousticError naming its line.
    """
    lines = [(ln, raw) for ln, raw in enumerate(text.splitlines(), 1)
             if raw.strip()]
    if not lines:
        raise AcousticError("empty acoustic file")
    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 6 or parts[0] != "utt" or parts[2] != "frames" or parts[4] != "symbols":
        raise AcousticError(f"line {ln}: bad acoustic header {header!r}")
    try:
        utt_id, t, s = parts[1], int(parts[3]), int(parts[5])
    except ValueError:
        raise AcousticError(
            f"line {ln}: bad frame or symbol count in {header!r}") from None
    if t < 1 or s < 1:
        raise AcousticError(f"line {ln}: frame and symbol counts must be positive")
    if len(lines) - 1 != t:
        raise AcousticError(f"header declares {t} frames but {len(lines) - 1} rows follow")
    rows = []
    for ln, raw in lines[1:]:
        fields = raw.split()
        if len(fields) != s:
            raise AcousticError(
                f"line {ln}: {len(fields)} costs where the header declares {s} symbols")
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise AcousticError(f"line {ln}: bad cost in {raw!r}") from None
    return AcousticMatrix(utt_id, np.array(rows))
