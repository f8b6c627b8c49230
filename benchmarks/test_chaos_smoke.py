"""Quick chaos smoke: the environment-fault gate on every PR.

Marked ``quick`` so CI (and ``make ci``) exercises the envfault plane's
two checker modes in seconds: the systematic sweep enumerates every
torn journal prefix and partially-applied artifact write (plus an
ENOSPC mid-campaign and a worker SIGKILL storm) against the reduced
campaign spec, and a two-iteration seeded soak injects random OS faults
and grades the recovery.  Both must report zero invariant violations
and leave zero ``/dev/shm`` trace-segment residue.
"""

from __future__ import annotations

import glob

import pytest

from repro.envfault.check import soak_check, systematic_check
from repro.runtime.shm import segment_prefix

pytestmark = pytest.mark.quick


def _assert_clean(report, save_result, name):
    assert report.ok, report.render()
    assert report.states > 0
    assert not glob.glob(f"/dev/shm/{segment_prefix()}*")
    save_result(name, report.render())


def test_systematic_sweep_holds_invariants(tmp_path, save_result):
    report = systematic_check(str(tmp_path), jobs=2)
    assert report.faults_fired > 0  # the sweep actually injected faults
    _assert_clean(report, save_result, "chaos_systematic")


def test_seeded_soak_holds_invariants(tmp_path, save_result):
    # Seed chosen so the soak actually fires a fault (many seeds draw
    # plans whose sites never execute in a 3-op campaign).
    report = soak_check(
        str(tmp_path), seed=7, ops=3, minutes=1.0, jobs=2,
        max_iterations=2,
    )
    assert report.states == 2
    assert report.faults_fired > 0
    _assert_clean(report, save_result, "chaos_soak")
