"""Tests for the Sec. IV-A coalescing-optimization ablation flag."""

import dataclasses

from repro.core.controller import SecPBController
from repro.core.schemes import get_scheme
from repro.core.secpb import SecPBEntry
from repro.core.simulator import SecurePersistencySimulator
from repro.security.metadata_cache import MetadataCaches
from repro.sim.config import SystemConfig
from repro.workloads.synthetic import zipf_trace


def coalescing_config(coalescing: bool) -> SystemConfig:
    """Table I with ``secpb.value_independent_coalescing`` set."""
    config = SystemConfig()
    return dataclasses.replace(
        config,
        secpb=dataclasses.replace(config.secpb, value_independent_coalescing=coalescing),
    )


def controller(coalescing: bool):
    config = coalescing_config(coalescing)
    return SecPBController(config, get_scheme("cm"), MetadataCaches(config))


class TestControllerFlag:
    def test_default_coalesced_store_is_free_under_cm(self):
        ctl = controller(coalescing=True)
        assert ctl.price_coalesced_store(0.0, SecPBEntry(0)) == 0.0

    def test_disabled_coalescing_reruns_bmt_per_store(self):
        ctl = controller(coalescing=False)
        ctl.mdc.access_counter(0)  # warm
        assert ctl.price_coalesced_store(0.0, SecPBEntry(0)) >= 320
        bmt_updates, _ = ctl.metadata_counts(new_entries=0, coalesced=1, drains=0)
        assert bmt_updates == 1

    def test_disabled_coalescing_counts_every_store(self):
        ctl = controller(coalescing=False)
        bmt_updates, _ = ctl.metadata_counts(new_entries=0, coalesced=5, drains=0)
        assert bmt_updates == 5


class TestEndToEnd:
    def test_optimization_speeds_up_eager_schemes(self):
        """The paper's claim: without once-per-residency coalescing the
        eager schemes pay the BMT root update on every store."""
        trace = zipf_trace(
            num_ops=3000,
            working_set_blocks=300,
            zipf_alpha=0.8,
            store_fraction=0.8,
            burst_length=8,
            mean_gap=1.0,
            seed=13,
            name="coalesce-heavy",
        )
        with_opt = SecurePersistencySimulator(
            coalescing_config(True), get_scheme("cm")
        ).run(trace)
        without_opt = SecurePersistencySimulator(
            coalescing_config(False), get_scheme("cm")
        ).run(trace)
        assert without_opt.cycles > 1.5 * with_opt.cycles
        assert without_opt.stats["bmt.root_updates"] > 4 * with_opt.stats[
            "bmt.root_updates"
        ]

    def test_flag_does_not_affect_cobcm(self):
        """COBCM has no eager steps: the flag must be a no-op."""
        trace = zipf_trace(2000, 300, store_fraction=0.7, seed=13)
        a = SecurePersistencySimulator(
            coalescing_config(True), get_scheme("cobcm")
        ).run(trace)
        b = SecurePersistencySimulator(
            coalescing_config(False), get_scheme("cobcm")
        ).run(trace)
        assert a.cycles == b.cycles
