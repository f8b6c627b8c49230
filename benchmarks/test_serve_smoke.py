"""Quick serve smoke: the serving-frontend gate on every PR.

Marked ``quick`` so CI (and ``make ci``) exercises the in-process
serving engine in seconds: a 100-request seeded burst against an
undersized queue must partition into accepted/shed deterministically,
every accepted result must be byte-identical to running the same jobs
directly through :func:`repro.analysis.runner.run_jobs`, and a drain
must journal the queued remainder so :func:`repro.serve.execute_drained`
replays it bit-for-bit.  The socket transport and SIGTERM path ride the
same core and are covered end-to-end by ``tools/serve_smoke.sh``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import clear_result_memo, run_jobs
from repro.serve import (
    InProcessClient,
    ServeConfig,
    ServerCore,
    build_jobs,
    execute_drained,
    results_payload,
    seeded_burst,
)

pytestmark = pytest.mark.quick

QUEUE_DEPTH = 6
BURST = 100


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def test_overload_partition_deterministic_and_replayable(
    tmp_path, save_result
):
    partitions = []
    for attempt in range(2):
        core = ServerCore(ServeConfig(queue_depth=QUEUE_DEPTH, workers=2))
        client = InProcessClient(core)
        accepted = [
            request.id
            for request in seeded_burst(2023, BURST, num_ops=200)
            if client.send(request) is None
        ]
        partitions.append(tuple(accepted))
        if attempt:
            continue
        # First pass only: drain the admitted queue into a journal and
        # replay it — the replay must be byte-identical to a direct run.
        journal = tmp_path / "drain.jsonl"
        assert core.drain(journal) == QUEUE_DEPTH
        replayed = execute_drained(journal, workers=2)
        requests = {
            r.id: r for r in seeded_burst(2023, BURST, num_ops=200)
        }
        for request_id, results in replayed.items():
            jobs = build_jobs(requests[request_id])
            clear_result_memo()  # the reference must simulate, too
            reference = results_payload(
                jobs,
                run_jobs(
                    jobs,
                    workers=2 if len(jobs) > 1 else 1,
                    on_error="raise",
                    retries=0,
                ),
            )
            assert _canon(results) == _canon(reference), request_id
    assert partitions[0] == partitions[1]
    assert len(partitions[0]) == QUEUE_DEPTH
    save_result(
        "serve_smoke",
        "\n".join(
            [
                f"burst={BURST} queue_depth={QUEUE_DEPTH}",
                f"accepted={','.join(partitions[0])}",
                f"shed={BURST - QUEUE_DEPTH}",
                "replay=byte-identical",
            ]
        ),
    )
