"""Shared fixtures for the SecPB reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.schemes import SCHEMES, SPECTRUM_ORDER
from repro.sim.config import SystemConfig
from repro.workloads.synthetic import zipf_trace

# The result memo and execution-plane fixtures live in the root conftest.py.


@pytest.fixture
def config():
    """The paper's default configuration (Table I)."""
    return SystemConfig()


@pytest.fixture
def small_config():
    """A small SecPB configuration for fast structural tests."""
    import dataclasses

    base = SystemConfig()
    return dataclasses.replace(
        base, secpb=dataclasses.replace(base.secpb, entries=8)
    )


@pytest.fixture(params=SPECTRUM_ORDER)
def scheme(request):
    """Parameterized over all six schemes, laziest first."""
    return SCHEMES[request.param]


@pytest.fixture
def write_heavy_trace():
    """A small, deterministic write-heavy trace."""
    return zipf_trace(
        num_ops=4000,
        working_set_blocks=2000,
        zipf_alpha=0.6,
        store_fraction=0.7,
        burst_length=2,
        mean_gap=2.0,
        seed=7,
        name="write-heavy",
    )


def block(byte: int) -> bytes:
    """A 64-byte block filled with one byte value."""
    return bytes([byte % 256]) * 64


@pytest.fixture
def make_block():
    return block
