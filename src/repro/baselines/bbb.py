"""The insecure BBB baseline (Alshboul et al. [4]).

BBB is the paper's performance baseline: a battery-backed persist buffer
that makes stores persistent on entry, with **no** encryption, MACs or
integrity tree anywhere.  Every Table IV / Fig. 6 slowdown is relative to
this system.

Timing-wise, BBB is :class:`~repro.core.simulator.SecurePersistencySimulator`
with ``scheme=None``; this module adds the explicit constructor plus a
small functional model used by tests to show what BBB *loses*: after a
crash its PM contents are recoverable but sit in plaintext, exposed to the
threat model's physical attacker.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.controller import TimingCalibration
from ..core.schemes import COBCM
from ..core.secpb import SecPB
from ..sim.config import CACHE_BLOCK_BYTES, SystemConfig
from ..sim.nvm import NonVolatileMemory
from ..sim.stats import SimulationResult
from ..core.simulator import SecurePersistencySimulator
from ..workloads.trace import Trace


def make_bbb_simulator(
    config: Optional[SystemConfig] = None,
    calibration: Optional[TimingCalibration] = None,
) -> SecurePersistencySimulator:
    """The insecure BBB timing baseline."""
    return SecurePersistencySimulator(
        config=config, scheme=None, calibration=calibration
    )


def run_bbb(
    trace: Trace,
    config: Optional[SystemConfig] = None,
    calibration: Optional[TimingCalibration] = None,
    warmup_frac: float = 0.0,
) -> SimulationResult:
    """Simulate one trace under insecure BBB."""
    return make_bbb_simulator(config, calibration).run(trace, warmup_frac)


class PlaintextPersistentSystem:
    """Functional BBB: persistent, crash-recoverable, but unprotected.

    Stores enter a battery-backed buffer and drain to PM **in plaintext**.
    Recovery trivially succeeds — and so does the attacker's PM scan,
    which is the gap SecPB exists to close.
    """

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config if config is not None else SystemConfig()
        self.nvm = NonVolatileMemory()
        self.pb = SecPB(self.config.secpb, COBCM)
        self.expected: Dict[int, bytes] = {}

    def store(self, block_addr: int, data: bytes) -> None:
        """Persist one plaintext block through the buffer."""
        if len(data) != CACHE_BLOCK_BYTES:
            raise ValueError("stores are block-granular (64 B)")
        if self.pb.full and self.pb.lookup(block_addr) is None:
            drained = self.pb.drain_oldest()
            self._write_back(drained.block_addr, drained.plaintext)
        self.pb.write(block_addr, plaintext=data)
        self.expected[block_addr] = bytes(data)
        while self.pb.above_high_watermark:
            drained = self.pb.drain_oldest()
            self._write_back(drained.block_addr, drained.plaintext)

    def _write_back(self, block_addr: int, plaintext: Optional[bytes]) -> None:
        if plaintext is None:
            raise RuntimeError("functional drain without data")
        self.nvm.write_block(block_addr, plaintext)

    def crash(self) -> int:
        """Battery drains the buffer; returns entries drained."""
        entries = self.pb.drain_all()
        for entry in entries:
            self._write_back(entry.block_addr, entry.plaintext)
        return len(entries)

    def recover(self) -> Dict[int, bytes]:
        """Post-crash PM contents for the persisted blocks (all plaintext)."""
        return {
            addr: self.nvm.read_block(addr) for addr in self.expected
        }

    def attacker_scan(self) -> Dict[int, bytes]:
        """The physical attacker reads PM: identical to :meth:`recover`.

        With BBB there is no confidentiality — the scan yields every
        persisted value verbatim.  (Contrast with
        :class:`~repro.core.crash.SecurePersistentSystem`, where the scan
        yields ciphertext.)
        """
        return self.recover()
