"""Byte-identical golden-output equivalence of the optimized simulator.

The checked-in ``tests/data/golden_*.json`` files were produced by the
pre-optimization simulator (``tools/regen_golden.py``).  These tests
re-run the same sweeps — all six schemes plus the insecure BBB baseline,
serially and through a 4-worker process pool — and require the canonical
JSON serialization to match the goldens **byte for byte**.  Any drift,
down to the last ulp of a float counter, is a regression of the hot-path
work's central guarantee.
"""

from __future__ import annotations

import pytest

from . import golden


def _golden_bytes(filename: str) -> str:
    path = golden.GOLDEN_DIR / filename
    if not path.exists():
        pytest.fail(
            f"missing golden file {path}; run tools/regen_golden.py "
            "(only legitimate when simulator semantics intentionally change)"
        )
    return path.read_text()


class TestGoldenEquivalence:
    def test_table4_serial_matches_golden(self):
        assert golden.build_table4(jobs=1) == _golden_bytes("golden_table4.json")

    def test_table4_parallel_matches_golden(self):
        # --jobs 4: the pool path must serialize to the very same bytes.
        assert golden.build_table4(jobs=4) == _golden_bytes("golden_table4.json")

    def test_fig8_serial_matches_golden(self):
        assert golden.build_fig8(jobs=1) == _golden_bytes("golden_fig8.json")

    def test_fig8_parallel_matches_golden(self):
        assert golden.build_fig8(jobs=4) == _golden_bytes("golden_fig8.json")

    def test_per_scheme_runs_match_golden(self):
        # Full SimulationResult per scheme + BBB, including every raw
        # counter — the strictest artifact: cycles, PPTI/NWPE, cache and
        # metadata-cache hit/miss counts, drain/backflow accounting.
        assert golden.build_runs() == _golden_bytes("golden_runs.json")

    def test_baselines_match_golden(self):
        # The same full results for SP (full height and the Fig. 9 BMF
        # cuts), flush-based persistency (strict and epoch-32, plain and
        # secure) and non-speculative CM: every single-core timing model
        # shares the trace loop, so each one is pinned here.
        assert golden.build_baselines() == _golden_bytes("golden_baselines.json")

    def test_multicore_matches_golden(self):
        # Full multi-core results (makespan, per-core cycles, every
        # counter) for BBB and every scheme over 1/2/4/8 cores and two
        # SecPB sizes, plus a mix whose shortest core ends inside warmup:
        # the shared engines, migration and flush costs are pinned here.
        assert golden.build_multicore() == _golden_bytes("golden_multicore.json")

    def test_inexact_calibration_matches_golden(self):
        # The default calibration's clock addends sum exactly in any
        # order, so the goldens above cannot see a change of summation
        # order.  These runs (Table I, a 2-entry SecPB that backflows
        # often, four cores) are at a calibration whose sums round.
        assert golden.build_inexact() == _golden_bytes("golden_inexact.json")
