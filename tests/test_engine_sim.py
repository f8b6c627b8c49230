"""Tests for repro.sim.engine — busy resource, bounded pipeline."""

import pytest

from repro.sim.engine import BoundedPipeline, BusyResource


class TestBusyResource:
    def test_idle_resource_serves_immediately(self):
        res = BusyResource("r")
        wait, completion = res.request(now=10, service_cycles=5)
        assert wait == 0
        assert completion == 15

    def test_busy_resource_queues(self):
        res = BusyResource("r")
        res.request(0, 100)
        wait, completion = res.request(10, 5)
        assert wait == 90
        assert completion == 105

    def test_serialization_order_is_fifo(self):
        res = BusyResource("r")
        completions = [res.request(0, 10)[1] for _ in range(3)]
        assert completions == [10, 20, 30]

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            BusyResource("r").request(0, -1)


class TestBoundedPipeline:
    def test_no_stall_below_depth(self):
        pipe = BoundedPipeline("sb", depth=2)
        assert pipe.push(now=0, completion=100) == 0
        assert pipe.push(now=1, completion=101) == 0

    def test_stall_when_full(self):
        pipe = BoundedPipeline("sb", depth=2)
        pipe.push(0, 100)
        pipe.push(0, 200)
        stall = pipe.push(0, 300)
        assert stall == 100  # waits for the oldest completion

    def test_completed_entries_retire(self):
        pipe = BoundedPipeline("sb", depth=1)
        pipe.push(0, 10)
        # at t=20 the previous op has retired: no stall
        assert pipe.push(20, 30) == 0

    def test_stall_releases_oldest_only(self):
        pipe = BoundedPipeline("sb", depth=2)
        pipe.push(0, 10)
        pipe.push(0, 50)
        stall = pipe.push(0, 60)
        assert stall == 10
        # after the implied wait to t=10, one slot freed; next push at
        # t=10 must wait for the op completing at 50.
        stall = pipe.push(10, 70)
        assert stall == 40

    def test_decreasing_completion_rejected(self):
        """The window is a FIFO: completions must arrive in order."""
        pipe = BoundedPipeline("sb", depth=4)
        pipe.push(0, 100)
        pipe.push(0, 100)
        with pytest.raises(ValueError):
            pipe.push(0, 50)

    def test_occupancy_tracks_outstanding(self):
        pipe = BoundedPipeline("sb", depth=4)
        pipe.push(0, 10)
        pipe.push(0, 20)
        assert pipe.occupancy == 2
