"""Outside-in tracing: host self time and sim-time spans per layer.

Nothing here edits the program. :class:`Tracer` replaces layer entry
points on their classes with wrappers for one traced run and puts the
originals back afterwards:

* synchronous entry points get host self time (:class:`HostClock`) —
  a wrapped call's duration minus the part its wrapped callees cover —
  plus a call count;
* coroutine entry points (``TransactionManager.run`` and the commit
  strategies' ``commit``) get sim-time spans with a cause link: a
  commit span's cause is its transaction's span, a copier or control
  transaction's cause is the recovery of its site that was running when
  it started. Recovery spans (power-on to operational) are rebuilt from
  the :class:`~repro.core.recovery.RecoveryRecord` list after the run.

Spans stay in memory and are written once, at the end of the run.
Host time no wrapper covers is ``unattributed``; it is what the kernel
loop and every unwrapped function cost, so self times plus unattributed
add up to the traced wall by construction, and :meth:`HostClock.check`
proves the nesting arithmetic behind it.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import json
import pathlib
import time
import typing

#: (layer, module, class, method) of every host-timed entry point.
HOST_ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("net", "repro.net.network", "Network", "send"),
    ("net", "repro.net.rpc", "RpcNode", "call"),
    ("txn", "repro.txn.locks", "LockManager", "acquire"),
    ("txn", "repro.txn.locks", "LockManager", "release_all"),
    ("txn", "repro.txn.locks", "LockManager", "kill_waiter"),
    ("txn", "repro.txn.locks", "LockManager", "wait_edges"),
    ("wal", "repro.wal.wal", "SiteWal", "flush"),
    ("wal", "repro.wal.wal", "SiteWal", "checkpoint"),
    ("wal", "repro.wal.log", "RedoLog", "append"),
    ("storage", "repro.storage.stable", "StableStorage", "put"),
    ("storage", "repro.storage.stable", "StableStorage", "get"),
    ("storage", "repro.storage.copies", "CopyStore", "apply_write"),
    ("mvcc", "repro.mvcc.store", "MultiVersionStore", "read_at"),
    ("mvcc", "repro.mvcc.store", "MultiVersionStore", "sweep"),
    ("histories", "repro.histories.recorder", "HistoryRecorder", "record_read"),
    ("histories", "repro.histories.recorder", "HistoryRecorder", "record_write"),
)


class HostClock:
    """Self time per entry point, from a stack of child-time accumulators.

    ``self_ns[key]`` is the time spent in calls to ``key`` minus the time
    spent in wrapped calls made from inside them. The bottom of the
    stack accumulates the duration of outermost wrapped calls, so
    ``covered_ns`` is the wrapped part of the wall.
    """

    def __init__(self) -> None:
        self.self_ns: collections.Counter = collections.Counter()
        self.calls: collections.Counter = collections.Counter()
        self._stack = [0]

    @property
    def covered_ns(self) -> int:
        return self._stack[0]

    def wrap(self, key: str, fn: typing.Callable) -> typing.Callable:
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[key] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[key] += 1

        return timed

    def call(self, key: str, fn: typing.Callable, *args, **kwargs):
        return self.wrap(key, fn)(*args, **kwargs)

    def seconds(self, key: str) -> float:
        return self.self_ns[key] / 1e9

    def check(self, wall_ns: int) -> None:
        """Self times must add up to the covered time, inside the wall."""
        if len(self._stack) != 1:
            raise AssertionError(f"host clock stack not unwound: {self._stack}")
        total = sum(self.self_ns.values())
        if total != self.covered_ns or self.covered_ns > wall_ns:
            raise AssertionError(
                f"self times {total} ns, covered {self.covered_ns} ns, "
                f"wall {wall_ns} ns"
            )


@dataclasses.dataclass
class SimSpan:
    """A sim-time interval at one site, with the span that caused it."""

    span_id: int
    name: str
    site: int
    start: float
    end: float | None = None
    cause: int | None = None
    kind: str = ""
    txn_id: str = ""
    status: str = "open"


def _until_done(span: SimSpan, kernel, body: typing.Generator) -> typing.Generator:
    """Drive ``body`` and close ``span`` with its end instant and outcome.

    A body dropped unfinished (its process was discarded) stays open and
    is marked truncated.
    """
    try:
        result = yield from body
    except GeneratorExit:
        span.status = "truncated"
        raise
    except BaseException:
        span.end, span.status = kernel.now, "aborted"
        raise
    span.end, span.status = kernel.now, "committed"
    return result


def stable_key_class(key: str) -> str:
    """Which durable structure a stable-storage key belongs to."""
    if key == "wal.meta":
        return "meta"
    if key.startswith("wal.seg"):
        return "segment"
    if key == "wal.ckpt":
        return "ckpt"
    return "other"


class Tracer:
    """Installs the wrappers for one traced run (use as a context manager)."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.spans: list[SimSpan] = []
        self.stable_bytes: collections.Counter = collections.Counter()
        self.lock_grants = 0
        self.lock_waits = 0
        self.versions_peak = 0
        self._lock_managers: list = []
        self._by_txn: dict[str, SimSpan] = {}
        self._saved: list[tuple[type, str, object]] = []

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, module, cls_name, method in HOST_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self.clock.wrap(
                f"{layer}.{cls_name}.{method}", self._observed(method, cls.__dict__[method])
            ))
        from repro.txn.commit import AsyncQuorumCommit, Sync2pcCommit
        from repro.txn.locks import LockManager
        from repro.txn.manager import TransactionManager

        self._patch(TransactionManager, "run", self._span_run(TransactionManager.run))
        for strategy in (Sync2pcCommit, AsyncQuorumCommit):
            self._patch(strategy, "commit", self._span_commit(strategy.commit))
        init = LockManager.__init__

        def register(manager, *args, **kwargs):
            init(manager, *args, **kwargs)
            self._lock_managers.append(manager)

        self._patch(LockManager, "__init__", register)
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def collect_locks(self) -> None:
        """Add up the lock managers built since the last call (one system's:
        a crash replaces a site's manager, so the live ones miss counts)."""
        for manager in self._lock_managers:
            self.lock_grants += manager.stats_grants
            self.lock_waits += manager.stats_waits
        self._lock_managers.clear()

    def _patch(self, cls: type, name: str, replacement: typing.Callable) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _observed(self, method: str, fn: typing.Callable) -> typing.Callable:
        """Counting taps that need the call's arguments or result."""
        if method == "put":
            stable_bytes = self.stable_bytes

            def put(storage, key, value):
                size = fn(storage, key, value)
                stable_bytes[stable_key_class(key)] += size
                return size

            return put
        if method == "sweep":
            def sweep(store):
                self.versions_peak = max(self.versions_peak, store.versions_retained())
                return fn(store)

            return sweep
        return fn

    # -- sim-time spans -------------------------------------------------------

    def _open(self, name: str, site: int, now: float, **fields) -> SimSpan:
        span = SimSpan(len(self.spans) + 1, name, site, now, **fields)
        self.spans.append(span)
        return span

    def _span_run(self, run: typing.Callable) -> typing.Callable:
        from repro.txn.transaction import TxnKind

        by_txn = self._by_txn

        def traced_run(tm, program, kind=TxnKind.USER, parent_span=None):
            span = self._open("txn.run", tm.site_id, tm.kernel.now, kind=kind.value)

            def tapped(ctx):
                span.txn_id = ctx.txn.txn_id
                by_txn[span.txn_id] = span
                return (yield from program(ctx))

            return (yield from _until_done(
                span, tm.kernel, run(tm, tapped, kind=kind, parent_span=parent_span)
            ))

        return traced_run

    def _span_commit(self, commit: typing.Callable) -> typing.Callable:
        def traced_commit(strategy, ctx, *args, **kwargs):
            tm = strategy.tm
            cause = self._by_txn.get(ctx.txn.txn_id)
            span = self._open(
                "txn.commit", tm.site_id, tm.kernel.now,
                cause=cause.span_id if cause is not None else None,
                txn_id=ctx.txn.txn_id,
            )
            return (yield from _until_done(
                span, tm.kernel, commit(strategy, ctx, *args, **kwargs)
            ))

        return traced_commit

    def link_recoveries(self, records, since: int = 0) -> None:
        """Add recovery spans and point copier/control spans at them.

        Only spans from index ``since`` on (one system's run) are linked.
        """
        run_spans = self.spans[since:]
        recoveries = [
            self._open(
                "core.recovery", record.site_id, record.power_on_at,
                end=record.operational_at, status="operational"
                if record.operational_at is not None else "open",
            )
            for record in records
        ]
        for span in run_spans:
            if span.name != "txn.run" or span.kind not in ("copier", "control"):
                continue
            for recovery in recoveries:
                if recovery.site != span.site or recovery.start > span.start:
                    continue
                # A copier belongs to the latest recovery of its site; a
                # control transaction only to one still in progress.
                if span.kind == "copier" or (
                    recovery.end is None or span.start <= recovery.end
                ):
                    span.cause = recovery.span_id

    def sim_durations(self, name: str, kind: str | None = None) -> list[float]:
        return [
            span.end - span.start
            for span in self.spans
            if span.name == name and span.end is not None
            and (kind is None or span.kind == kind)
        ]

    def write(self, path: pathlib.Path, header: dict) -> None:
        """Write the run's spans (one JSON object per line) at exit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(dataclasses.asdict(span)) + "\n")
