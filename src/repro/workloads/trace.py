"""Memory-reference trace format for the trace-driven simulator.

A :class:`Trace` is a columnar record of a core's memory references:

* ``is_store[i]``   — True for stores, False for loads;
* ``block_addr[i]`` — 64-byte-block address of the reference (never
  negative: the simulator's load schedule reserves negative values for
  its own events);
* ``gap[i]``        — non-memory instructions retired since the previous
  memory reference (models the compute between memory ops, from which the
  baseline retire rate and PPTI-style densities emerge).

Columns are NumPy arrays, which keeps million-reference traces compact and
lets generators build them vectorized; the simulator iterates them once.
Traces round-trip to ``.npz`` files for reuse across experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np


@dataclass
class Trace:
    """A columnar memory-reference trace (see module docstring)."""

    name: str
    is_store: np.ndarray
    block_addr: np.ndarray
    gap: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.is_store)
        if len(self.block_addr) != n or len(self.gap) != n:
            raise ValueError(
                "trace columns must have equal length: "
                f"{n}, {len(self.block_addr)}, {len(self.gap)}"
            )
        if n and self.gap.min() < 0:
            raise ValueError("instruction gaps must be non-negative")
        if n and self.block_addr.min() < 0:
            raise ValueError("block addresses must be non-negative")

    def __len__(self) -> int:
        return len(self.is_store)

    @property
    def num_stores(self) -> int:
        return int(self.is_store.sum())

    @property
    def num_loads(self) -> int:
        return len(self) - self.num_stores

    @property
    def instructions(self) -> int:
        """Total instructions: every memory op is 1 instruction + its gap."""
        return int(self.gap.sum()) + len(self)

    @property
    def stores_per_kilo_instructions(self) -> float:
        """Store density — the input-side bound on PPTI."""
        instructions = self.instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * self.num_stores / instructions

    def columns(self) -> Tuple[List[bool], List[int], List[int]]:
        """The (is_store, block_addr, gap) columns as Python lists.

        Shared by every caller, so they must not be mutated.
        """
        # .tolist() converts to Python scalars once, which is markedly
        # faster than indexing numpy arrays element-wise in a loop.  The
        # materialized columns are memoized: experiment sweeps iterate the
        # same trace once per scheme, and rebuilding million-element lists
        # per simulation dominated iteration cost.  Traces are treated as
        # immutable after construction (head()/concat() return copies), so
        # the memo can never go stale.
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = (
                self.is_store.tolist(),
                self.block_addr.tolist(),
                self.gap.tolist(),
            )
            self.__dict__["_columns"] = cached
        return cached

    def iter_ops(self) -> Iterator[Tuple[bool, int, int]]:
        """Yield (is_store, block_addr, gap) per reference, in order."""
        return zip(*self.columns())

    def head(self, n: int) -> "Trace":
        """First ``n`` references (for quick tests)."""
        return Trace(
            f"{self.name}[:{n}]",
            self.is_store[:n].copy(),
            self.block_addr[:n].copy(),
            self.gap[:n].copy(),
        )

    # Persistence ------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the trace to an ``.npz`` file."""
        np.savez_compressed(
            path,
            name=np.array(self.name),
            is_store=self.is_store,
            block_addr=self.block_addr,
            gap=self.gap,
        )

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            return cls(
                name=str(data["name"]),
                is_store=data["is_store"],
                block_addr=data["block_addr"],
                gap=data["gap"],
            )

    @classmethod
    def from_ops(cls, name: str, ops: Iterator[Tuple[bool, int, int]]) -> "Trace":
        """Build a trace from an iterable of (is_store, block_addr, gap)."""
        rows = list(ops)
        if rows:
            stores, addrs, gaps = zip(*rows)
        else:
            stores, addrs, gaps = (), (), ()
        return cls(
            name,
            np.array(stores, dtype=bool),
            np.array(addrs, dtype=np.int64),
            np.array(gaps, dtype=np.int32),
        )

    def concat(self, other: "Trace") -> "Trace":
        """This trace followed by another (e.g. warmup + measured region)."""
        return Trace(
            f"{self.name}+{other.name}",
            np.concatenate([self.is_store, other.is_store]),
            np.concatenate([self.block_addr, other.block_addr]),
            np.concatenate([self.gap, other.gap]),
        )
