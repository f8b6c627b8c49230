"""Tests for repro.sim.nvm_banked and repro.sim.wear."""

import numpy as np
import pytest

from repro.security.metadata_cache import MetadataCaches
from repro.sim.config import SystemConfig
from repro.sim.nvm_banked import BankedNVM, BankedNVMParams
from repro.sim.wear import StartGapWearLeveler, simulate_wear


class TestBankedNVMParams:
    def test_invalid_banks(self):
        with pytest.raises(ValueError):
            BankedNVMParams(banks=0)

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError):
            BankedNVMParams(write_high_watermark=0.3, write_low_watermark=0.5)


class TestBankedNVM:
    def test_latencies_from_table1(self):
        nvm = BankedNVM()
        assert nvm.read_cycles == 220
        assert nvm.write_cycles == 600

    def test_latencies_follow_the_system_clock(self):
        """The device converts Table I's nanoseconds as the simulators do."""
        config = SystemConfig(clock_ghz=3.0)
        nvm = BankedNVM(config)
        assert nvm.write_cycles == config.nvm_write_cycles == 450
        assert nvm.read_cycles == config.nvm_read_cycles == 165
        # A cold counter-cache access misses: its 2 cycles plus an NVM read.
        assert MetadataCaches(config).access_counter(0) == 2 + 165

    def test_single_bank_serializes(self):
        nvm = BankedNVM(params=BankedNVMParams(banks=1))
        _, c1 = nvm.read(0.0, 0)
        wait, c2 = nvm.read(0.0, 1)
        assert c1 == 220
        assert wait == 220
        assert c2 == 440

    def test_different_banks_parallel(self):
        nvm = BankedNVM(params=BankedNVMParams(banks=4))
        _, c1 = nvm.read(0.0, 0)
        wait, c2 = nvm.read(0.0, 1)  # different bank
        assert wait == 0
        assert c1 == c2 == 220

    def test_write_acceptance_immediate_until_queue_full(self):
        nvm = BankedNVM(params=BankedNVMParams(banks=1))
        waits = [nvm.write(0.0, i)[0] for i in range(128)]
        assert all(w == 0.0 for w in waits)
        wait, _ = nvm.write(0.0, 999)
        assert wait > 0.0
        assert nvm.stats.get("bnvm.write_queue_stalls") == 1

    def test_read_priority_yields_under_write_pressure(self):
        nvm = BankedNVM(params=BankedNVMParams(banks=1))
        for i in range(110):  # > 0.8 * 128 watermark
            nvm.write(0.0, i)
        nvm.read(0.0, 0)
        assert nvm.stats.get("bnvm.read_blocked_by_writes") == 1

    def test_sustained_write_bandwidth(self):
        nvm = BankedNVM(params=BankedNVMParams(banks=16))
        assert nvm.sustained_write_bandwidth() == pytest.approx(16 / 600)

    def test_banked_bandwidth_covers_secpb_drain_rate(self):
        """The abstraction check: worst-suite drain demand (gamess, PPTI
        ~50/ki at ~1 kc/ki -> 0.05 blocks/cycle) stays under the banked
        device's sustained write bandwidth."""
        demand_blocks_per_cycle = 0.05
        assert BankedNVM().sustained_write_bandwidth() > demand_blocks_per_cycle * 0.5


class TestStartGap:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StartGapWearLeveler(0)
        with pytest.raises(ValueError):
            StartGapWearLeveler(10, psi=0)

    def test_mapping_is_a_permutation(self):
        leveler = StartGapWearLeveler(lines=10, psi=3)
        for _ in range(200):
            physical = {leveler.physical_of(i) for i in range(10)}
            assert len(physical) == 10
            assert leveler.gap not in physical
            leveler.write(0)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            StartGapWearLeveler(4).physical_of(4)

    def test_gap_moves_every_psi_writes(self):
        leveler = StartGapWearLeveler(lines=8, psi=5)
        for _ in range(25):
            leveler.write(3)
        assert leveler.gap_moves == 5

    def test_hot_line_rotates_physically(self):
        """The same logical line lands on many physical slots over time."""
        leveler = StartGapWearLeveler(lines=16, psi=2)
        slots = set()
        for _ in range(600):
            slots.add(leveler.write(7))
        assert len(slots) > 8

    def test_wear_flattening_on_skewed_stream(self):
        """Start-Gap must dramatically flatten a single-hot-line stream."""
        rng = np.random.default_rng(3)
        hot = [0] * 5000
        background = rng.integers(0, 64, size=1000).tolist()
        stream = hot + background
        rng.shuffle(stream)
        metrics = simulate_wear(stream, lines=64, psi=10)
        assert metrics["leveled_wear_ratio"] < 0.25 * metrics["raw_wear_ratio"]
        assert metrics["leveled_max_writes"] < 0.5 * metrics["raw_max_writes"]

    def test_write_overhead_is_one_over_psi(self):
        metrics = simulate_wear(list(range(1000)), lines=64, psi=100)
        assert metrics["write_overhead"] == pytest.approx(0.01, abs=0.002)
