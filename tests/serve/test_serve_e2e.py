"""End-to-end serving: the real CLI over stdin, and bit-identity at n=1e3.

The bit-identity contract is the serving daemon's core correctness
claim: feeding events through sources, queues, windows, and the apply
loop must land on exactly the placement that direct ``session.apply``
of the same coalesced batches produces.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.changeset import ChangeSet
from repro.core.config import NovaConfig
from repro.core.optimizer import Nova
from repro.serve import IterableSource, ServeLoop, ServeSettings
from repro.topology.dynamics import churn_event_stream
from repro.topology.event_codec import decode_event_dict, encode_event_line
from repro.topology.latency import DenseLatencyMatrix
from repro.workloads.synthetic import synthetic_opp_workload

from tests.serve.conftest import churn_events, placement_signature

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def serve_command(*extra):
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--workload",
        "synthetic",
        "--nodes",
        "120",
        "--seed",
        "3",
        "--window-ms",
        "100",
        "--max-batch",
        "50",
        *extra,
    ]


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def event_lines(count, nodes=120, seed=3, stream_seed=5):
    workload = synthetic_opp_workload(nodes, seed=seed)
    stream = churn_event_stream(workload.topology, workload.plan, seed=stream_seed)
    return [encode_event_line(next(stream)) for _ in range(count)]


class TestServeCli:
    def test_stdin_run_applies_archives_and_exits_zero(self, tmp_path):
        lines = event_lines(120) + ["definitely not an event"]
        deltas = tmp_path / "deltas.jsonl"
        dead = tmp_path / "dead.jsonl"
        status = tmp_path / "status.json"
        result = subprocess.run(
            serve_command(
                "--exit-on-eof",
                "--save-deltas",
                str(deltas),
                "--dead-letter",
                str(dead),
                "--status-file",
                str(status),
                "--status-interval",
                "0",
            ),
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        final = json.loads(status.read_text())
        assert final["events"]["ingested"] == 121
        assert final["events"]["applied"] == 120
        assert final["events"]["dead_lettered"] == 1
        dead_records = [
            json.loads(line) for line in dead.read_text().splitlines()
        ]
        assert dead_records[0]["reason"] == "malformed"
        assert dead_records[0]["raw"] == "definitely not an event"
        archived = [
            json.loads(line) for line in deltas.read_text().splitlines()
        ]
        assert sum(len(entry["events"]) for entry in archived) == 120

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        status = tmp_path / "status.json"
        process = subprocess.Popen(
            serve_command(
                "--status-file", str(status), "--status-interval", "0.5"
            ),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
        )
        try:
            for line in event_lines(60):
                process.stdin.write(line + "\n")
            process.stdin.flush()
            deadline = time.monotonic() + 60.0
            applied = 0
            while time.monotonic() < deadline:
                if status.exists():
                    applied = json.loads(status.read_text())["events"]["applied"]
                    if applied >= 60:
                        break
                time.sleep(0.1)
            assert applied >= 60, "daemon never applied the piped events"
            # stdin stays open: the daemon must be idling, not exiting.
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=60)
            assert code == 0, process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)

    def test_bad_flags_rejected_before_planning(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--window-ms",
                "0",
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert result.returncode == 2
        assert "window_ms" in result.stderr

    def test_unknown_source_rejected(self):
        result = subprocess.run(
            serve_command("--source", "carrier-pigeon:coop"),
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert result.returncode == 2
        assert "unknown source" in result.stderr


@pytest.mark.slow
class TestBitIdentity:
    def test_served_placement_matches_direct_apply_n1000(self):
        """Daemon path == direct ``session.apply`` of the same batches."""
        nodes, seed = 1000, 9

        def fresh_session():
            # Each session gets its own workload instance: churn events
            # mutate the topology/plan in place during apply, so sharing
            # one workload across sessions would cross-contaminate them.
            workload = synthetic_opp_workload(nodes, seed=seed)
            latency = DenseLatencyMatrix.from_topology(workload.topology)
            return Nova(NovaConfig(seed=seed)).optimize(
                workload.topology,
                workload.plan,
                workload.matrix,
                latency=latency,
            )

        event_source = synthetic_opp_workload(nodes, seed=seed)
        stream = churn_event_stream(
            event_source.topology, event_source.plan, seed=21
        )
        events = [next(stream) for _ in range(300)]

        served = fresh_session()
        loop = ServeLoop(
            served,
            [IterableSource(events)],
            # A distant time trigger makes windowing deterministic: every
            # window is count-triggered at exactly 25 events.
            ServeSettings(
                window_ms=600_000.0,
                max_batch=25,
                queue_size=512,
                exit_on_eof=True,
                status_interval_s=0,
            ),
            status_stream=io.StringIO(),
        )
        assert loop.run() == 0
        assert loop.stats.events_applied == 300
        assert loop.stats.events_dead_lettered == 0
        served_signature = placement_signature(served)

        # Replay the daemon's own archived batches through a fresh
        # session, directly — no queue, no windows, no loop.
        batches = [
            [decode_event_dict(event) for event in entry["events"]]
            for entry in loop.deltas.entries
        ]
        assert [len(batch) for batch in batches] == [25] * 12
        control = fresh_session()
        for batch in batches:
            control.apply(ChangeSet(batch))
        control_signature = placement_signature(control)

        assert served_signature == control_signature

    def test_served_placement_matches_direct_apply_small(self, small_instance):
        """The same contract, fast, on the shared 80-node instance."""
        workload, session = small_instance
        events = churn_events(workload, 60, seed=13)
        loop = ServeLoop(
            session,
            [IterableSource(events)],
            ServeSettings(
                window_ms=600_000.0,
                max_batch=15,
                queue_size=128,
                exit_on_eof=True,
                status_interval_s=0,
            ),
            status_stream=io.StringIO(),
        )
        assert loop.run() == 0
        served_signature = placement_signature(session)

        workload2 = synthetic_opp_workload(80, seed=5)
        latency2 = DenseLatencyMatrix.from_topology(workload2.topology)
        control = Nova(NovaConfig(seed=5)).optimize(
            workload2.topology,
            workload2.plan,
            workload2.matrix,
            latency=latency2,
        )
        for entry in loop.deltas.entries:
            batch = [
                decode_event_dict(event) for event in entry["events"]
            ]
            control.apply(ChangeSet(batch))
        assert placement_signature(control) == served_signature
