"""Start-Gap wear leveling for PCM (Qureshi et al. [42]).

PCM cells endure a bounded number of writes, so hot lines must be rotated
across the physical array.  Start-Gap does this with two registers and no
remap table: a *gap* line is kept empty, and every ``psi`` writes the gap
moves one slot (copying its neighbour into it), slowly rotating the whole
logical-to-physical mapping.  The paper cites it both for lifetime and
because the rotation obscures physical addresses from wear-based attacks.

The model tracks per-physical-line write counts so tests and the example
can measure the wear-flattening effect on the skewed (hot-block) write
streams the SecPB drains produce.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class StartGapWearLeveler:
    """Start-Gap remapping over a region of ``lines`` physical lines.

    Physical capacity is ``lines + 1`` (one gap line).  Addresses are
    region-relative line numbers in ``[0, lines)``.

    Args:
        lines: logical lines in the region.
        psi: writes between gap movements (the paper's psi, e.g. 100).
    """

    def __init__(self, lines: int, psi: int = 100, start_offset: int = 0):
        if lines < 1:
            raise ValueError("region needs at least one line")
        if psi < 1:
            raise ValueError("psi must be >= 1")
        self.lines = lines
        self.psi = psi
        # start: rotation amount; gap: physical index of the empty line.
        self.start = start_offset % lines
        self.gap = lines  # physical slots are [0, lines]; last starts empty
        self.writes_since_move = 0
        self.total_writes = 0
        self.gap_moves = 0
        self.physical_writes: np.ndarray = np.zeros(lines + 1, dtype=np.int64)

    # Mapping ------------------------------------------------------------

    def physical_of(self, logical: int) -> int:
        """Current physical slot of a logical line."""
        if not 0 <= logical < self.lines:
            raise IndexError(f"logical line {logical} outside region")
        physical = (logical + self.start) % self.lines
        if physical >= self.gap:
            # Slots at/after the gap are shifted down by one position.
            physical += 1
        return physical

    # Writes --------------------------------------------------------------

    def write(self, logical: int) -> int:
        """Record one write; returns the physical slot written.

        Every ``psi`` writes the gap moves one slot toward lower indices
        (wrapping), costing one extra line copy (also counted as wear).
        """
        physical = self.physical_of(logical)
        self.physical_writes[physical] += 1
        self.total_writes += 1
        self.writes_since_move += 1
        if self.writes_since_move >= self.psi:
            self._move_gap()
            self.writes_since_move = 0
        return physical

    def _move_gap(self) -> None:
        target = (self.gap - 1) % (self.lines + 1)
        # Copy the neighbour into the gap (one physical write of wear).
        self.physical_writes[self.gap] += 1
        self.gap = target
        self.gap_moves += 1
        if self.gap == self.lines:
            # The gap completed a full rotation: start advances by one.
            self.start = (self.start + 1) % self.lines

    # Metrics --------------------------------------------------------------

    @property
    def max_line_writes(self) -> int:
        return int(self.physical_writes.max())

    @property
    def mean_line_writes(self) -> float:
        return float(self.physical_writes.mean())

    def wear_ratio(self) -> float:
        """max/mean per-line writes — 1.0 is perfectly level."""
        mean = self.mean_line_writes
        if mean == 0:
            return 1.0
        return self.max_line_writes / mean


def simulate_wear(
    write_stream: List[int],
    lines: int,
    psi: int = 100,
) -> Dict[str, float]:
    """Run a write stream with and without Start-Gap; report wear metrics."""
    leveled = StartGapWearLeveler(lines, psi)
    raw = np.zeros(lines, dtype=np.int64)
    for logical in write_stream:
        leveled.write(logical % lines)
        raw[logical % lines] += 1
    raw_max = int(raw.max())
    raw_mean = float(raw.mean()) if lines else 0.0
    return {
        "leveled_wear_ratio": leveled.wear_ratio(),
        "raw_wear_ratio": (raw_max / raw_mean) if raw_mean else 1.0,
        "leveled_max_writes": leveled.max_line_writes,
        "raw_max_writes": raw_max,
        "gap_moves": leveled.gap_moves,
        "write_overhead": leveled.gap_moves / max(1, leveled.total_writes),
    }
