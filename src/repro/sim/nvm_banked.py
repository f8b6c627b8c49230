"""Banked PCM timing: banks, queues, and read-priority scheduling.

The headline simulator abstracts the NVM write path as a single drain
engine, which is accurate while the device keeps up (gem5's PCM model is
multi-banked, so per-bank latency rarely bottlenecks drains).  This module
provides the detailed device model for the ablation that *checks* that
abstraction: ``Table I``'s PCM latencies and 128-entry write queue, split
across independent banks.

Scheduling follows the classic NVM-controller policy: reads have priority
(they stall the core) until the write queue crosses a high watermark, at
which point writes drain ahead of reads until a low watermark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .config import SystemConfig
from .engine import BusyResource
from .stats import StatsCollector


@dataclass(frozen=True)
class BankedNVMParams:
    """Device geometry for the banked model."""

    banks: int = 16
    write_high_watermark: float = 0.8
    write_low_watermark: float = 0.4

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ValueError("need at least one bank")
        if not 0.0 <= self.write_low_watermark < self.write_high_watermark <= 1.0:
            raise ValueError("watermarks must satisfy 0 <= low < high <= 1")


class BankedNVM:
    """Timing-only banked PCM with bounded queues.

    Requests are issued through :meth:`read` / :meth:`write`, which return
    ``(queue_wait, completion_time)``.  Writes are absorbed by the write
    queue (near-zero acceptance wait) until it saturates; reads queue only
    behind their bank.  Latencies are the system's own
    ``nvm_read_cycles`` / ``nvm_write_cycles``, the conversion every
    simulator reads.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        params: Optional[BankedNVMParams] = None,
        stats: Optional[StatsCollector] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.params = params if params is not None else BankedNVMParams()
        self.stats = stats if stats is not None else StatsCollector()
        self.read_cycles = self.config.nvm_read_cycles
        self.write_cycles = self.config.nvm_write_cycles
        self._banks: List[BusyResource] = [
            BusyResource(f"bank{i}") for i in range(self.params.banks)
        ]
        # Outstanding write completions (the write queue contents).
        self._write_completions: List[float] = []
        self._draining_writes = False

    # Internals -------------------------------------------------------------

    def _bank_of(self, block_addr: int) -> BusyResource:
        return self._banks[block_addr % self.params.banks]

    def _prune(self, now: float) -> None:
        alive = [t for t in self._write_completions if t > now]
        if len(alive) != len(self._write_completions):
            self._write_completions[:] = alive

    def _write_pressure(self, now: float) -> bool:
        """True when writes must drain ahead of reads."""
        self._prune(now)
        capacity = self.config.nvm.write_queue_entries
        occupancy = len(self._write_completions)
        if self._draining_writes:
            if occupancy <= capacity * self.params.write_low_watermark:
                self._draining_writes = False
        elif occupancy >= capacity * self.params.write_high_watermark:
            self._draining_writes = True
        return self._draining_writes

    # Requests ---------------------------------------------------------------

    def read(self, now: float, block_addr: int) -> Tuple[float, float]:
        """Issue a read; returns (wait_before_data, completion_time)."""
        self.stats.add("bnvm.reads")
        bank = self._bank_of(block_addr)
        if self._write_pressure(now):
            # Reads yield while the write queue drains.
            self.stats.add("bnvm.read_blocked_by_writes")
            now = max(now, min(self._write_completions))
        wait, completion = bank.request(now, self.read_cycles)
        return wait, completion

    def write(self, now: float, block_addr: int) -> Tuple[float, float]:
        """Issue a write; returns (acceptance_wait, array_completion).

        Acceptance is immediate while the write queue has room; a full
        queue stalls the writer until the oldest write completes.
        """
        self.stats.add("bnvm.writes")
        self._prune(now)
        acceptance_wait = 0.0
        if len(self._write_completions) >= self.config.nvm.write_queue_entries:
            oldest = min(self._write_completions)
            acceptance_wait = max(0.0, oldest - now)
            now = max(now, oldest)
            self._prune(now)
            self.stats.add("bnvm.write_queue_stalls")
        bank = self._bank_of(block_addr)
        _, completion = bank.request(now, self.write_cycles)
        self._write_completions.append(completion)
        return acceptance_wait, completion

    # Throughput probes ------------------------------------------------------

    def sustained_write_bandwidth(self) -> float:
        """Blocks per cycle the device sustains across all banks."""
        return self.params.banks / self.write_cycles
