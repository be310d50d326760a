"""Graceful shutdown: stop requests drain queue + in-flight window."""

import io
import json
import threading
import time

from repro.serve import (
    DeadLetterArchive,
    DeltaArchive,
    IterableSource,
    ServeLoop,
    ServeSettings,
)
from repro.topology.event_codec import decode_event_dict

from tests.serve.conftest import churn_events


def run_in_thread(loop):
    result = {}

    def target():
        result["code"] = loop.run()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestGracefulDrain:
    def test_stop_drains_in_flight_window_and_archives_deltas(
        self, small_instance, tmp_path
    ):
        """Events buffered but unapplied at stop time still apply + archive."""
        workload, session = small_instance
        events = churn_events(workload, 9)
        loop = ServeLoop(
            session,
            [IterableSource(events)],
            # Triggers that cannot fire on their own: the 9 events sit in
            # the in-flight window until the stop request drains them.
            ServeSettings(
                window_ms=600_000.0,
                max_batch=1_000,
                queue_size=64,
                status_interval_s=0,
            ),
            deltas=DeltaArchive(tmp_path / "deltas.jsonl"),
            dead_letters=DeadLetterArchive(tmp_path / "dead.jsonl"),
            status_file=tmp_path / "status.json",
            status_stream=io.StringIO(),
        )
        thread, result = run_in_thread(loop)
        assert wait_until(lambda: loop.stats.events_ingested == 9)
        assert loop.stats.events_applied == 0  # nothing has triggered yet
        loop.request_stop("test-stop")
        thread.join(20.0)
        assert not thread.is_alive()
        assert result["code"] == 0
        assert loop.stop_reason == "test-stop"
        assert loop.stats.events_applied == 9
        assert loop.stats.windows_applied == 1

        # The pending window's PlanDelta reached the archive file.
        entries = [
            json.loads(line)
            for line in (tmp_path / "deltas.jsonl").read_text().splitlines()
        ]
        assert len(entries) == 1
        assert len(entries[0]["events"]) == 9
        # The batch may coalesce duplicates internally: all 9 staged,
        # possibly fewer executed.
        assert entries[0]["delta"]["events_staged"] == 9
        assert 0 < entries[0]["delta"]["events_applied"] <= 9
        # Archived wire-form events decode back to the applied batch.
        decoded = [decode_event_dict(event) for event in entries[0]["events"]]
        assert decoded == events

        # The final status report landed in the status file.
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["events"]["applied"] == 9
        assert status["windows"]["applied"] == 1

    def test_drain_chunks_leftovers_at_max_batch(self, small_instance):
        workload, session = small_instance
        events = churn_events(workload, 25)
        loop = ServeLoop(
            session,
            [IterableSource(events)],
            ServeSettings(
                window_ms=600_000.0,
                max_batch=10,
                queue_size=64,
                status_interval_s=0,
            ),
            status_stream=io.StringIO(),
        )
        thread, result = run_in_thread(loop)
        assert wait_until(lambda: loop.stats.events_ingested == 25)
        loop.request_stop()
        thread.join(20.0)
        assert result["code"] == 0
        assert loop.stats.events_applied == 25
        # Drained windows respect the batch bound (10 + 10 + 5).
        sizes = [len(entry["events"]) for entry in loop.deltas.entries]
        assert sum(sizes) == 25
        assert max(sizes) <= 10

    def test_exit_on_eof_drains_everything(self, small_instance):
        workload, session = small_instance
        events = churn_events(workload, 17)
        loop = ServeLoop(
            session,
            [IterableSource(events)],
            ServeSettings(
                window_ms=50.0,
                max_batch=5,
                queue_size=64,
                exit_on_eof=True,
                status_interval_s=0,
            ),
            status_stream=io.StringIO(),
        )
        assert loop.run() == 0
        assert loop.stop_reason == "eof"
        assert loop.stats.events_applied == 17

    def test_max_windows_bounds_the_run(self, small_instance):
        workload, session = small_instance
        events = churn_events(workload, 60)
        loop = ServeLoop(
            session,
            [IterableSource(events)],
            ServeSettings(
                window_ms=600_000.0,
                max_batch=10,
                queue_size=256,
                max_windows=2,
                status_interval_s=0,
            ),
            status_stream=io.StringIO(),
        )
        assert loop.run() == 0
        assert loop.stop_reason == "max-windows"
        assert loop.stats.windows_applied == 2
        assert loop.stats.events_applied == 20
