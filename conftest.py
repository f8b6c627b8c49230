"""Fixtures shared by every pytest suite in the repository.

``tests/``, ``benchmarks/`` and ``bench/`` can run in one pytest process,
in any order; these keep one test's or module's state out of the next.
The package is imported inside the fixtures: ``bench/`` puts ``src`` on
the import path itself when its test module is collected.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _fresh_result_memo():
    """Start every test with an empty run_jobs result memo.

    Otherwise a test's simulations could be answered by an earlier
    test's, so counters, comparisons and timings would depend on test
    order.
    """
    from repro.analysis.runner import clear_result_memo

    clear_result_memo()


@pytest.fixture(autouse=True, scope="module")
def _release_execution_plane():
    """Tear down the warm pool and owned shm segments after each module.

    Parallel sweeps keep both alive for the life of the process; a later
    module in the same pytest process (e.g. a chaos soak's ``/dev/shm``
    residue check) must not inherit them.
    """
    yield
    from repro.runtime.pool import shutdown_shared_pool
    from repro.runtime.shm import cleanup_shared_registry

    shutdown_shared_pool()
    cleanup_shared_registry()
