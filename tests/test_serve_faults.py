"""Fault injection against the serve layer.

Four failure families, each asserting the recovery contract rather
than mere survival:

* **worker killed mid-shard** — the fleet respawns the pool, resumes
  from the job checkpoint, and the final report is bit-identical to
  an undisturbed run's;
* **torn checkpoint / journal tails** — a kill mid-write leaves a
  partial final line; reload drops exactly that line and the resumed
  run still reproduces the clean result;
* **malformed job documents** — rejected at the door with a
  ``serve_error``, never entering the queue or the journal;
* **SIGTERM mid-job + restart** — a real server subprocess is killed
  while a job runs; the restarted server resumes it and serves a
  ``job_result`` byte-identical to an uninterrupted server's.
"""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.serve import ServeApp, ServeConfig, WorkerFleet
from repro.serve.app import _http_request

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

SWEEP_PARAMS = dict(
    per_values=[0.004, 0.008],
    error_kind="x",
    shots=12,
    windows=3,
    seed=29,
    shard_shots=3,
    engine="framesim",
)


def sweep_fingerprint(report):
    """The deterministic content of a ParallelSweepReport."""
    payload = report.sweep.to_json_dict()
    payload["committed"] = report.committed_shards
    return json.dumps(payload, sort_keys=True)


class TestWorkerDeath:
    def test_killed_worker_respawns_and_result_is_identical(
        self, tmp_path
    ):
        reference_fleet = WorkerFleet(workers=2)
        try:
            reference = reference_fleet.run_sweep_job(
                checkpoint=str(tmp_path / "ref.jsonl"), **SWEEP_PARAMS
            )
        finally:
            reference_fleet.shutdown()

        fleet = WorkerFleet(workers=2, max_respawns=3)
        try:
            fleet.warm()
            # Kill one live worker, then run: the pool notices the
            # death on first dispatch, breaks, and the fleet must
            # respawn and re-enter the sweep against its checkpoint.
            victim = next(iter(fleet._pool._processes))
            os.kill(victim, signal.SIGKILL)
            report = fleet.run_sweep_job(
                checkpoint=str(tmp_path / "fault.jsonl"),
                **SWEEP_PARAMS,
            )
            assert fleet.respawns >= 1
            assert sweep_fingerprint(report) == sweep_fingerprint(
                reference
            )
        finally:
            fleet.shutdown()

    def test_kill_mid_flight_still_converges(self, tmp_path):
        """SIGKILL landing while shards are executing."""
        import threading

        reference_fleet = WorkerFleet(workers=2)
        try:
            reference = reference_fleet.run_sweep_job(
                checkpoint=str(tmp_path / "ref.jsonl"), **SWEEP_PARAMS
            )
        finally:
            reference_fleet.shutdown()

        fleet = WorkerFleet(workers=2, max_respawns=3)
        outcome = {}

        def run():
            try:
                outcome["report"] = fleet.run_sweep_job(
                    checkpoint=str(tmp_path / "fault.jsonl"),
                    **SWEEP_PARAMS,
                )
            except Exception as error:  # pragma: no cover - fail path
                outcome["error"] = error

        try:
            fleet.warm()
            pids = list(fleet._pool._processes)
            worker = threading.Thread(target=run)
            worker.start()
            os.kill(pids[0], signal.SIGKILL)
            worker.join(timeout=120)
            assert not worker.is_alive()
            assert "error" not in outcome, outcome.get("error")
            assert sweep_fingerprint(
                outcome["report"]
            ) == sweep_fingerprint(reference)
        finally:
            fleet.shutdown()

    def test_respawn_budget_exhaustion_raises(self):
        from concurrent.futures.process import BrokenProcessPool

        fleet = WorkerFleet(workers=1, max_respawns=0)
        try:
            fleet.warm()
            os.kill(next(iter(fleet._pool._processes)), signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                fleet.run_decode(
                    {
                        "x_rounds": [[[0, 0, 0, 0]] * 3],
                        "z_rounds": [[[0, 0, 0, 0]] * 3],
                    }
                )
        finally:
            fleet.shutdown()


class TestTornTails:
    def test_torn_checkpoint_tail_resumes_bit_identically(
        self, tmp_path
    ):
        fleet = WorkerFleet(workers=1)
        try:
            clean = fleet.run_sweep_job(
                checkpoint=str(tmp_path / "clean.jsonl"),
                **SWEEP_PARAMS,
            )
            # A second checkpoint interrupted mid-write: keep a prefix
            # of whole records plus a torn final line.
            source = (tmp_path / "clean.jsonl").read_text()
            lines = source.splitlines(keepends=True)
            torn = tmp_path / "torn.jsonl"
            torn.write_text(
                "".join(lines[: len(lines) // 2]) + lines[-1][:25]
            )
            resumed = fleet.run_sweep_job(
                checkpoint=str(torn), **SWEEP_PARAMS
            )
            assert sweep_fingerprint(resumed) == sweep_fingerprint(
                clean
            )
        finally:
            fleet.shutdown()

    def test_torn_journal_tail_recovers_remaining_jobs(self, tmp_path):
        async def scenario():
            spool = tmp_path / "spool"
            config = ServeConfig(
                port=0, workers=1, spool=str(spool)
            )
            app = ServeApp(config)
            server = await app.start()
            host, port = server.sockets[0].getsockname()[:2]
            await _http_request(
                host, port, "POST", "/v1/jobs",
                {
                    "job_id": "keeper",
                    "job_kind": "decode",
                    "params": {
                        "x_rounds": [[[0, 0, 0, 0]] * 3],
                        "z_rounds": [[[0, 0, 0, 0]] * 3],
                    },
                },
            )
            while True:
                _, doc = await _http_request(
                    host, port, "GET", "/v1/jobs/keeper", None
                )
                if doc["state"] == "done":
                    break
                await asyncio.sleep(0.02)
            app.request_stop()
            await app.run_until_stopped(server)

        asyncio.run(scenario())
        journal = tmp_path / "spool" / "jobs.jsonl"
        with open(journal, "a") as handle:
            handle.write('{"kind": "job_event", "event": "subm')

        async def restarted():
            app = ServeApp(
                ServeConfig(
                    port=0, workers=1,
                    spool=str(tmp_path / "spool"),
                )
            )
            job = app.queue.get("keeper")
            assert job is not None
            assert job.state == "done"
            app.fleet.shutdown()
            if app._journal is not None:
                app._journal.close()

        asyncio.run(restarted())


class TestMalformedDocuments:
    def test_rejections_never_touch_queue_or_journal(self, tmp_path):
        async def scenario():
            spool = tmp_path / "spool"
            app = ServeApp(
                ServeConfig(port=0, workers=1, spool=str(spool))
            )
            server = await app.start()
            host, port = server.sockets[0].getsockname()[:2]
            bad_bodies = [
                {"params": {}},  # no job_kind
                {"job_kind": "ler"},  # no params
                {"job_kind": "mystery", "params": {}},
                {"job_kind": "ler", "params": {}, "extra": 1},
                {"job_kind": "ler", "params": {}},  # missing rate
                {
                    "job_kind": "ler",
                    "params": {"physical_error_rate": 2.0},
                },
                {
                    "job_kind": "sweep",
                    "params": {"per_values": []},
                },
                {
                    "job_kind": "decode",
                    "params": {
                        "x_rounds": [[0]],  # not 3-d
                        "z_rounds": [[0]],
                    },
                },
                {
                    "job_kind": "decode",
                    "params": {
                        # ragged shapes
                        "x_rounds": [[[0, 0], [0]]],
                        "z_rounds": [[[0, 0, 0, 0]] * 3],
                    },
                },
                {
                    "job_kind": "ler",
                    "params": {
                        "physical_error_rate": 0.01,
                        "engine": "abacus",
                    },
                },
                {
                    "job_kind": "ler",
                    "params": {
                        "physical_error_rate": 0.01,
                        "shard_shots": 0,
                    },
                },
            ]
            for body in bad_bodies:
                status, doc = await _http_request(
                    host, port, "POST", "/v1/jobs", body
                )
                assert status == 400, body
                assert doc["kind"] == "serve_error"
            assert len(app.queue) == 0
            app.request_stop()
            await app.run_until_stopped(server)

        asyncio.run(scenario())
        # Nothing was journalled: rejected documents must not leave
        # any durable trace that a restart could resurrect.
        journal = tmp_path / "spool" / "jobs.jsonl"
        assert (
            not journal.exists()
            or journal.read_text().strip() == ""
        )


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port, method, path, body=None, timeout=30):
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=timeout
    )
    try:
        payload = (
            json.dumps(body, sort_keys=True) if body is not None
            else None
        )
        connection.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _wait_for_server(port, deadline=60):
    limit = time.time() + deadline
    while time.time() < limit:
        try:
            status, _ = _request(port, "GET", "/v1/health", timeout=5)
            if status == 200:
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError(f"server on port {port} never became healthy")


def _spawn_server(port, spool):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--workers", "2",
            "--spool", str(spool),
        ],
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


#: Long enough to survive a SIGTERM landing mid-run (~10s of shards).
BIG_JOB = {
    "job_id": "big",
    "job_kind": "sweep",
    "params": {
        "per_values": [0.004, 0.008],
        "shots": 96,
        "windows": 6,
        "shard_shots": 4,
        "seed": 37,
    },
}


def _run_job_to_completion(port, spool_dir):
    """Submit BIG_JOB on a fresh server and return its result doc."""
    server = _spawn_server(port, spool_dir)
    try:
        _wait_for_server(port)
        status, _ = _request(port, "POST", "/v1/jobs", BIG_JOB)
        assert status == 200
        deadline = time.time() + 300
        while time.time() < deadline:
            _, doc = _request(port, "GET", "/v1/jobs/big")
            if doc["state"] in ("done", "failed", "cancelled"):
                assert doc["state"] == "done", doc
                break
            time.sleep(0.2)
        _, result = _request(port, "GET", "/v1/jobs/big/result")
        return result
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover
            server.kill()
            server.wait()


@pytest.mark.slow
def test_sigterm_mid_job_then_restart_is_bit_identical(tmp_path):
    """The acceptance scenario: kill -TERM mid-job, restart, compare."""
    # Reference: the same job on an undisturbed server.
    reference = _run_job_to_completion(
        _free_port(), tmp_path / "reference-spool"
    )

    # Interrupted: SIGTERM while the job is RUNNING.
    port = _free_port()
    spool = tmp_path / "spool"
    first = _spawn_server(port, spool)
    try:
        _wait_for_server(port)
        status, _ = _request(port, "POST", "/v1/jobs", BIG_JOB)
        assert status == 200
        deadline = time.time() + 120
        checkpoint = spool / "checkpoints" / "big.jsonl"
        while time.time() < deadline:
            _, doc = _request(port, "GET", "/v1/jobs/big")
            if doc["state"] == "running" and checkpoint.exists():
                break  # mid-job: shards have started committing
            time.sleep(0.05)
        else:  # pragma: no cover - job finished too fast
            pytest.fail("job never reached a mid-run state")
    finally:
        first.send_signal(signal.SIGTERM)
        first.wait(timeout=60)

    # Restart over the same spool: the journal re-enqueues the job
    # and its checkpoint turns the re-run into a resume.
    port = _free_port()
    second = _spawn_server(port, spool)
    try:
        _wait_for_server(port)
        deadline = time.time() + 300
        while time.time() < deadline:
            _, doc = _request(port, "GET", "/v1/jobs/big")
            if doc["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.2)
        assert doc["state"] == "done", doc
        _, resumed = _request(port, "GET", "/v1/jobs/big/result")
    finally:
        second.send_signal(signal.SIGTERM)
        second.wait(timeout=60)

    assert resumed == reference

    # The server restart actually recovered (rather than re-ran from
    # scratch): its boot line reports the resumed job.
    output = second.stdout.read() if second.stdout else ""
    assert "1 jobs resumed" in output
