"""Tests for repro.sim.nvm."""

import pytest

from repro.sim.config import NVMConfig, SystemConfig
from repro.sim.nvm import ZERO_BLOCK, NonVolatileMemory


def blk(byte):
    return bytes([byte]) * 64


class TestNVM:
    def test_unwritten_block_reads_zero(self):
        assert NonVolatileMemory().read_block(123) == ZERO_BLOCK

    def test_write_then_read(self):
        nvm = NonVolatileMemory()
        nvm.write_block(5, blk(0xAB))
        assert nvm.read_block(5) == blk(0xAB)

    def test_write_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="block-granular"):
            NonVolatileMemory().write_block(0, b"short")

    def test_corrupt_block_changes_content_silently(self):
        nvm = NonVolatileMemory()
        nvm.write_block(1, blk(1))
        reads_before = nvm.stats.get("nvm.reads")
        nvm.corrupt_block(1, blk(2))
        assert nvm.read_block(1) == blk(2)
        # corruption is the attacker's doing: no write accounting
        assert nvm.stats.get("nvm.writes") == 1
        assert nvm.stats.get("nvm.reads") == reads_before + 1

    def test_corrupt_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            NonVolatileMemory().corrupt_block(0, b"x")

    def test_timing_from_table1(self):
        # Table I's 55 ns read / 150 ns write at the 4 GHz core clock; the
        # trace simulators read these cycle counts from the system config.
        cfg = SystemConfig(clock_ghz=4.0, nvm=NVMConfig())
        assert (cfg.nvm.read_ns, cfg.nvm.write_ns) == (55.0, 150.0)
        assert cfg.nvm_read_cycles == 220
        assert cfg.nvm_write_cycles == 600

    def test_len_counts_written_blocks(self):
        nvm = NonVolatileMemory()
        nvm.write_block(1, blk(1))
        nvm.write_block(2, blk(2))
        nvm.write_block(1, blk(3))
        assert len(nvm) == 2

    def test_written_blocks_snapshot_is_copy(self):
        nvm = NonVolatileMemory()
        nvm.write_block(1, blk(1))
        snap = nvm.written_blocks()
        snap[2] = blk(2)
        assert len(nvm) == 1

