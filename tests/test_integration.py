"""Cross-layer integration tests: functional and timing layers agree.

The functional system (:class:`SecurePersistentSystem`) and the timing
simulator (:class:`SecurePersistencySimulator`) implement the same SecPB
structure and drain policy; driving both with the same reference stream
must produce the same *structural* behaviour (allocations, coalescing),
even though one computes real crypto and the other prices cycles.
"""

import pytest

from repro.core.crash import SecurePersistentSystem
from repro.core.schemes import SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.workloads.synthetic import zipf_trace
from repro.workloads.trace import Trace


@pytest.fixture(scope="module")
def store_trace():
    """A stores-only trace (the functional system only takes stores)."""
    base = zipf_trace(
        num_ops=1200,
        working_set_blocks=150,
        zipf_alpha=0.7,
        store_fraction=1.0,
        burst_length=3,
        mean_gap=2.0,
        seed=31,
        name="integration",
    )
    return base


class TestStructuralAgreement:
    @pytest.mark.parametrize("scheme_name", ["cobcm", "cm", "nogap"])
    def test_allocation_counts_match(self, store_trace, scheme_name):
        """Same stream, same buffer geometry -> same allocation count in
        the functional system and the timing simulator."""
        scheme = get_scheme(scheme_name)

        functional = SecurePersistentSystem(scheme)
        for is_store, block, _ in store_trace.iter_ops():
            assert is_store
            functional.store(block, bytes([block % 256]) * 64)
        functional_allocs = functional.secpb.stats.get("secpb.allocations")

        timing = SecurePersistencySimulator(scheme=scheme).run(store_trace)
        assert timing.stats["secpb.allocations"] == functional_allocs
        assert timing.stats["secpb.writes"] == len(store_trace)

    def test_functional_recovery_after_timing_equivalent_stream(self, store_trace):
        """The stream the timing model prices is fully recoverable in the
        functional model — timing and correctness describe one design."""
        functional = SecurePersistentSystem(get_scheme("bcm"))
        latest = {}
        for _, block, _ in store_trace.iter_ops():
            payload = bytes([(block * 31) % 256]) * 64
            functional.store(block, payload)
            latest[block] = payload
        functional.crash()
        recovery = functional.recover()
        assert recovery.ok, recovery.failure_summary()
        assert recovery.blocks_checked == len(latest)


class TestSchemeInvariance:
    def test_coalescing_statistics_are_scheme_independent(self, store_trace):
        """PPTI/NWPE are properties of the buffer and workload, not of the
        metadata scheme (Fig. 8's flat rows)."""
        reference = None
        for name in SPECTRUM_ORDER:
            result = SecurePersistencySimulator(scheme=get_scheme(name)).run(
                store_trace
            )
            key = (
                result.stats["secpb.allocations"],
                result.stats["secpb.writes"],
            )
            if reference is None:
                reference = key
            assert key == reference, name

    def test_instructions_are_scheme_independent(self, store_trace):
        counts = {
            name: SecurePersistencySimulator(scheme=get_scheme(name))
            .run(store_trace)
            .instructions
            for name in SPECTRUM_ORDER
        }
        assert len(set(counts.values())) == 1


class TestTraceEquivalence:
    def test_saved_trace_reproduces_cycles(self, store_trace, tmp_path):
        """Save/load round-trips produce bit-identical simulations."""
        path = str(tmp_path / "t.npz")
        store_trace.save(path)
        loaded = Trace.load(path)
        sim = SecurePersistencySimulator(scheme=get_scheme("cm"))
        a = sim.run(store_trace)
        b = SecurePersistencySimulator(scheme=get_scheme("cm")).run(loaded)
        assert a.cycles == b.cycles
