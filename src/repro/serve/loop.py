"""The serving loop: a long-lived daemon over one ``NovaSession``.

``python -m repro serve`` instantiates this machinery: sources feed raw
JSONL lines into a bounded :class:`IngressQueue`; the loop thread
decodes nothing (ingestion threads decode and dead-letter malformed
lines at the door), admits events into a
:class:`~repro.serve.window.CoalescingWindow` after validating each one
against the projected batch state, and applies every closed window as
**one** transactional ``session.apply(ChangeSet)`` batch through the
:class:`WindowApplier`. The event lifecycle::

    source ──lines──▶ ingress (decode, dead-letter malformed, backpressure)
           ──events─▶ window (validate-or-dead-letter, close on time|count)
           ──batch──▶ session.apply → PlanDelta ──▶ delta archive + monitor

Backpressure: when ingestion outruns planning the queue fills, and the
configured :data:`OverflowPolicy` decides — ``block`` stalls the
producer (natural pipe backpressure), ``coalesce`` compacts the queued
events with the ChangeSet engine's own coalescing rules (last-wins,
subsumption, annihilation) before resorting to blocking, and ``shed``
drops the newest event into the dead-letter archive with a structured
``shed`` record.

Failure: a window whose ``session.apply`` raises has already been rolled
back bit-identically by the session journal; the loop retries once at
half window size (each half is its own transactional batch) and
dead-letters the events of any half that fails again. Nothing kills the
loop short of a signal.

Shutdown: SIGINT/SIGTERM (or :meth:`ServeLoop.request_stop`) stop the
sources, drain the queue and the in-flight window through the same
apply path (archiving their ``PlanDelta``s), write a final status
report, and close the archives. A drained exit returns 0.
"""

from __future__ import annotations

import signal
import threading
import time
from pathlib import Path
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, TextIO, Union

from repro.common.errors import OptimizationError, ReproError
from repro.core.changeset import ChangeSet, PlanDelta
from repro.core.serialization import plan_delta_to_dict
from repro.serve.deadletter import (
    DeadLetterArchive,
    DeltaArchive,
    REASON_APPLY_FAILED,
    REASON_MALFORMED,
    REASON_REJECTED,
    REASON_SHED,
)
from repro.serve.sources import EventSource
from repro.serve.status import ServeStats, StatusPlane
from repro.serve.window import CoalescingWindow, WindowPolicy
from repro.topology.dynamics import BatchState, ChurnEvent, event_to_dict
from repro.topology.event_codec import EventDecodeError, decode_event_line

#: Overflow policies for the bounded ingress queue.
OVERFLOW_BLOCK = "block"
OVERFLOW_COALESCE = "coalesce"
OVERFLOW_SHED = "shed"
OVERFLOW_POLICIES = (OVERFLOW_BLOCK, OVERFLOW_COALESCE, OVERFLOW_SHED)

#: Idle poll granularity of the loop thread (seconds). Bounds how late a
#: stop request or status tick can be noticed while no events arrive.
_IDLE_POLL_S = 0.2


class IngressQueue:
    """A bounded, policy-governed event queue between ingestion and loop.

    ``put`` runs on ingestion threads and applies the overflow policy;
    ``get`` runs on the loop thread with a timeout (the window's time
    trigger). ``coalesce`` compacts the queued events in place using
    :meth:`ChangeSet.coalesced` — the same rules the engine would apply
    inside the batch, just paid earlier, under pressure.
    """

    def __init__(
        self,
        maxsize: int,
        policy: str = OVERFLOW_BLOCK,
        on_shed: Optional[Callable[[ChurnEvent], None]] = None,
        on_coalesced: Optional[Callable[[int], None]] = None,
    ) -> None:
        if maxsize < 1:
            raise OptimizationError(
                f"ingress queue size must be at least 1, got {maxsize!r}"
            )
        if policy not in OVERFLOW_POLICIES:
            raise OptimizationError(
                f"unknown overflow policy {policy!r}; "
                f"choose from {OVERFLOW_POLICIES}"
            )
        self.maxsize = maxsize
        self.policy = policy
        self._on_shed = on_shed
        self._on_coalesced = on_coalesced
        self._items: Deque[ChurnEvent] = deque()  # shared-under: _cond
        self._cond = threading.Condition()

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    def _compact_locked(self) -> int:
        """Coalesce queued events in place; returns how many were dropped."""
        before = len(self._items)
        compacted = ChangeSet(self._items).coalesced()
        dropped = before - len(compacted)
        if dropped > 0:
            self._items.clear()
            self._items.extend(compacted)
            if self._on_coalesced is not None:
                self._on_coalesced(dropped)
        return dropped

    def put(
        self,
        event: ChurnEvent,
        stopping: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Enqueue under the overflow policy; False means the event was shed.

        While the daemon is stopping, a blocked producer is admitted
        over capacity rather than stranded — the drain consumes the
        queue immediately after.
        """
        with self._cond:
            while len(self._items) >= self.maxsize:
                if self.policy == OVERFLOW_SHED:
                    if self._on_shed is not None:
                        self._on_shed(event)
                    return False
                if self.policy == OVERFLOW_COALESCE:
                    if self._compact_locked() > 0:
                        self._cond.notify_all()
                        continue
                if stopping is not None and stopping():
                    break
                self._cond.wait(0.05)
            self._items.append(event)
            self._cond.notify_all()
            return True

    def get(self, timeout: Optional[float]) -> Optional[ChurnEvent]:
        """Pop the oldest event, waiting up to ``timeout``; None on timeout."""
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if not self._items:
                return None
            event = self._items.popleft()
            self._cond.notify_all()
            return event

    def drain(self) -> List[ChurnEvent]:
        """Take everything currently queued (shutdown path)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return items


@dataclass
class AppliedWindow:
    """One successful batch application (possibly a retry half)."""

    window: int
    events: List[ChurnEvent]
    delta: PlanDelta
    elapsed_s: float
    retry: bool = False


class WindowApplier:
    """Applies closed windows as transactional batches, with recovery.

    Shared by the daemon loop and the ``replay`` CLI (which drives it in
    ``strict`` mode: a failed batch raises after rollback instead of
    being retried/dead-lettered), so both commands apply churn through
    the exact same code path.
    """

    def __init__(
        self,
        session: Any,
        stats: Optional[ServeStats] = None,
        dead_letters: Optional[DeadLetterArchive] = None,
        deltas: Optional[DeltaArchive] = None,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        self.session = session
        self.stats = stats if stats is not None else ServeStats()
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterArchive()
        )
        self.deltas = deltas if deltas is not None else DeltaArchive()
        self._lock = lock if lock is not None else threading.RLock()

    def _apply_once(
        self, events: List[ChurnEvent], window: int, retry: bool
    ) -> AppliedWindow:
        with self._lock:
            started = time.perf_counter()
            delta = self.session.apply(ChangeSet(events))
            elapsed = time.perf_counter() - started
        self.session.overload_monitor.apply_delta(delta)
        self.stats.note_window_applied(len(events), elapsed)
        self.deltas.record(
            window=window,
            events=[event_to_dict(event) for event in events],
            delta=plan_delta_to_dict(delta),
            elapsed_s=elapsed,
            retry=retry,
        )
        return AppliedWindow(window, events, delta, elapsed, retry=retry)

    def apply(
        self, events: List[ChurnEvent], window: int, strict: bool = False
    ) -> List[AppliedWindow]:
        """Apply one window; returns the successful applications.

        On failure the session has already rolled back bit-identically
        (the ChangeSet journal); in non-strict mode the window is
        retried once at half size, and events of a half that fails again
        are dead-lettered with reason ``apply-failed``.
        """
        if not events:
            return []
        try:
            return [self._apply_once(events, window, retry=False)]
        except Exception as error:
            if strict:
                raise
            self.stats.note_retry()
            applied: List[AppliedWindow] = []
            mid = len(events) // 2
            halves = [half for half in (events[:mid], events[mid:]) if half]
            for half in halves:
                try:
                    applied.append(self._apply_once(half, window, retry=True))
                except Exception as retry_error:
                    self.stats.note_window_failed(len(half))
                    for event in half:
                        self.dead_letters.record(
                            REASON_APPLY_FAILED,
                            retry_error,
                            event=event_to_dict(event),
                            window=window,
                        )
            if not applied:
                # Both halves (or the unsplittable single event) failed;
                # the first error is the root record for observability.
                self.dead_letters.record(
                    REASON_APPLY_FAILED,
                    f"window {window} failed outright: {error}",
                    window=window,
                )
            return applied


@dataclass
class ServeSettings:
    """Tunables of one serving run (the CLI flags, structured)."""

    window_ms: float = 250.0
    max_batch: int = 128
    queue_size: int = 1024
    overflow: str = OVERFLOW_BLOCK
    status_interval_s: float = 5.0
    #: Stop after this many applied windows (None = unbounded).
    max_windows: Optional[int] = None
    #: Stop (and drain) once every source reports EOF and the queue is
    #: empty — the filter-style mode tests, benchmarks, and generator
    #: pipes use. A true daemon keeps serving after stdin closes.
    exit_on_eof: bool = False
    extra: Dict = field(default_factory=dict)

    def window_policy(self) -> WindowPolicy:
        return WindowPolicy(window_ms=self.window_ms, max_batch=self.max_batch)


class ServeLoop:
    """The daemon: owns the session, the sources, and the serving thread."""

    def __init__(
        self,
        session: Any,
        sources: List[EventSource],
        settings: Optional[ServeSettings] = None,
        dead_letters: Optional[DeadLetterArchive] = None,
        deltas: Optional[DeltaArchive] = None,
        status_file: Optional[Union[str, Path]] = None,
        status_stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not sources:
            raise OptimizationError("serve needs at least one event source")
        self.session = session
        self.sources = sources
        self.settings = settings if settings is not None else ServeSettings()
        self.stats = ServeStats(clock=clock)
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterArchive()
        )
        self.deltas = deltas if deltas is not None else DeltaArchive()
        self._clock = clock
        self._session_lock = threading.RLock()
        self.queue = IngressQueue(
            self.settings.queue_size,
            policy=self.settings.overflow,
            on_shed=self._on_shed,
            on_coalesced=self.stats.note_coalesced_away,
        )
        self.window = CoalescingWindow(self.settings.window_policy())
        self.applier = WindowApplier(
            session,
            stats=self.stats,
            dead_letters=self.dead_letters,
            deltas=self.deltas,
            lock=self._session_lock,
        )
        self.status = StatusPlane(
            session,
            self.stats,
            queue_depth=lambda: self.queue.depth,
            queue_size=self.settings.queue_size,
            status_file=status_file,
            interval_s=self.settings.status_interval_s,
            stream=status_stream,
            clock=clock,
        )
        self._stop = threading.Event()
        self._stop_reason: Optional[str] = None
        self._eof_sources: set = set()  # shared-under: _eof_lock
        self._eof_lock = threading.Lock()
        self._window_index = 0
        self._batch_state: Optional[BatchState] = None

    # -- control --------------------------------------------------------
    def request_stop(self, reason: str = "requested") -> None:
        """Ask the loop to drain and exit (signal-handler safe)."""
        if self._stop_reason is None:
            self._stop_reason = reason
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def _signal_handler(self, signum: int, frame: object) -> None:
        self.request_stop(signal.Signals(signum).name)

    def _on_shed(self, event: ChurnEvent) -> None:
        self.stats.note_shed()
        self.dead_letters.record(
            REASON_SHED,
            "ingress queue full under shed policy",
            event=event_to_dict(event),
        )

    def _note_eof(self, source: EventSource) -> None:
        with self._eof_lock:
            self._eof_sources.add(source.name)

    def _all_sources_done(self) -> bool:
        with self._eof_lock:
            return len(self._eof_sources) >= len(self.sources)

    # -- ingestion (source threads) -------------------------------------
    def _ingest(self, raw: str, origin: str) -> None:
        """Decode one raw line; malformed input dead-letters at the door."""
        try:
            event = decode_event_line(raw)
        except EventDecodeError as error:
            self.stats.note_ingested()
            self.stats.note_rejected()
            self.dead_letters.record(REASON_MALFORMED, error, raw=raw)
            return
        self.stats.note_ingested()
        self.queue.put(event, stopping=self._stop.is_set)

    # -- the loop thread ------------------------------------------------
    def _admit(self, event: ChurnEvent, now: float) -> bool:
        """Validate against the projected batch state; window or dead-letter.

        The state is seeded from the live session when a window opens and
        folded forward per admitted event — the same acceptance rule
        ``session.apply`` enforces, applied early so one bad event
        dead-letters alone instead of failing its whole window.
        """
        if self.window.is_empty:
            self._batch_state = BatchState.of_session(self.session)
        try:
            event.validate(self._batch_state)
        except ReproError as error:
            self.stats.note_rejected()
            self.dead_letters.record(
                REASON_REJECTED,
                error,
                event=event_to_dict(event),
                window=self._window_index,
            )
            return False
        self.window.append(event, now)
        return True

    def _flush_window(self) -> None:
        events = self.window.close()
        if not events:
            return
        index = self._window_index
        self._window_index += 1
        self.applier.apply(events, index)

    def _windows_exhausted(self) -> bool:
        limit = self.settings.max_windows
        return limit is not None and self.stats.windows_applied >= limit

    def _poll_timeout(self, now: float) -> float:
        remaining = self.window.remaining_s(now)
        if remaining is None:
            return _IDLE_POLL_S
        return min(remaining, _IDLE_POLL_S) if remaining > 0 else 0.0

    def run(self, install_signals: bool = False) -> int:
        """Serve until stopped; returns the process exit code (0 = drained).

        ``install_signals`` registers SIGINT/SIGTERM handlers that
        trigger the graceful drain (only legal — and only attempted —
        on the main thread).
        """
        previous: Dict[int, object] = {}
        if install_signals and threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, self._signal_handler)
        try:
            for source in self.sources:
                source.start(
                    self._ingest,
                    on_eof=self._note_eof,
                    status_provider=self._locked_snapshot,
                )
            while not self._stop.is_set():
                now = self._clock()
                event = self.queue.get(self._poll_timeout(now))
                now = self._clock()
                if event is not None:
                    self._admit(event, now)
                if self.window.should_close(now):
                    self._flush_window()
                    if self._windows_exhausted():
                        self.request_stop("max-windows")
                if (
                    self.settings.exit_on_eof
                    and self._all_sources_done()
                    and self.queue.depth == 0
                ):
                    self.request_stop("eof")
                self.status.maybe_emit()
            return self._drain()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.dead_letters.close()
            self.deltas.close()

    def _locked_snapshot(self) -> Dict:
        """A status snapshot consistent with in-flight window applies."""
        with self._session_lock:
            return self.status.snapshot()

    def _drain(self) -> int:
        """Stop sources, flush queue + in-flight window, final report."""
        for source in self.sources:
            source.stop()
        apply_leftovers = not self._windows_exhausted()
        if apply_leftovers:
            now = self._clock()
            for event in self.queue.drain():
                if self._admit(event, now) and len(
                    self.window
                ) >= self.window.policy.max_batch:
                    self._flush_window()
            self._flush_window()
        self.status.emit()
        for source in self.sources:
            source.join(timeout=1.0)
        return 0

    # -- conveniences ---------------------------------------------------
    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def snapshot(self) -> Dict:
        """The on-demand status document (thread-safe)."""
        return self._locked_snapshot()
