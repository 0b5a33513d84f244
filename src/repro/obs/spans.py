"""Causal spans and timeline instants, recorded in sim-time.

A :class:`Span` is one timed unit of work (a transaction, an RPC, a lock
wait, a copier refresh, a recovery run). Spans form a tree via
``parent_id``; the tree crosses sites because the RPC layer stamps the
caller's span id onto the :class:`~repro.net.messages.Message` envelope
and the serving site opens a child span under it — that is how remote DM
work is attributed to the originating transaction.

An :class:`Instant` is a zero-duration timeline event (site crash,
power-on, operational announcement, transaction finish). Readers filter
:attr:`SpanRecorder.instants` directly (``examples/operations_dashboard.py``
prints it as an incident timeline); the exporters emit it alongside the
spans.

Cost model: recording is opt-in twice over. ``enabled`` gates spans,
``timeline_on`` gates instants, and every instrumentation hook checks its
gate before allocating anything — with both off (the default) a traced
code path pays one attribute read and one branch, and the kernel event
loop pays nothing at all.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class Span:
    """One timed unit of work. ``end`` stays ``None`` while open."""

    __slots__ = ("span_id", "parent_id", "name", "category", "site_id",
                 "start", "end", "txn_id", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str,
        site_id: int,
        start: float,
        txn_id: str | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.site_id = site_id
        self.start = start
        self.end: float | None = None
        self.txn_id = txn_id
        self.attrs: dict[str, object] | None = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        record = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "site": self.site_id,
            "start": self.start,
            "end": self.end,
        }
        if self.txn_id is not None:
            record["txn_id"] = self.txn_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:.3f}"
        return f"<Span #{self.span_id} {self.category}/{self.name} @{self.site_id} {state}>"


class Instant:
    """A zero-duration timeline event."""

    __slots__ = ("name", "category", "site_id", "time", "detail")

    def __init__(
        self, name: str, category: str, site_id: int, time: float, detail: str = ""
    ) -> None:
        self.name = name
        self.category = category
        self.site_id = site_id
        self.time = time
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "site": self.site_id,
            "time": self.time,
            "detail": self.detail,
        }


class SpanRecorder:
    """Collects the span tree and the instant timeline of one system."""

    def __init__(
        self, kernel: "Kernel", enabled: bool = False, timeline: bool = False
    ) -> None:
        self.kernel = kernel
        self.enabled = enabled
        self.timeline_on = timeline
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self._next_id = 1
        self._txn_roots: dict[str, int] = {}

    # -- spans ----------------------------------------------------------------

    def start(
        self,
        name: str,
        category: str,
        site_id: int,
        parent: int | None = None,
        txn_id: str | None = None,
    ) -> Span:
        """Open a span now; finish it with :meth:`finish`."""
        span = Span(
            self._next_id, parent, name, category, site_id,
            self.kernel.now, txn_id=txn_id,
        )
        self._next_id += 1
        self.spans.append(span)
        if txn_id is not None and parent is None:
            self._txn_roots[txn_id] = span.span_id
        return span

    def finish(self, span: Span, **attrs: object) -> None:
        """Close ``span`` at the current sim-time, attaching ``attrs``."""
        if span.end is None:
            span.end = self.kernel.now
        if attrs:
            if span.attrs is None:
                span.attrs = {}
            span.attrs.update(attrs)

    def annotate(self, span: Span, **attrs: object) -> None:
        """Attach ``attrs`` to ``span`` without touching its end time.

        Unlike :meth:`finish` this is safe on a span that must stay open
        (e.g. marking the client-ack moment on a transaction root whose
        drain is still in flight).
        """
        if attrs:
            if span.attrs is None:
                span.attrs = {}
            span.attrs.update(attrs)

    def finish_open(self, **attrs: object) -> list[Span]:
        """Close every still-open span at the current sim-time.

        Called when a simulation drains (harness ``quiesce``, the traced
        scenario dispatcher): a span left open at the horizon — an
        in-flight drain, a 2PC blocked on a dead coordinator — is real
        protocol history and must survive into the exports rather than
        being dropped or mis-measured. Each closed span is tagged
        ``truncated=True`` so downstream analysis (critpath, the trace
        viewer) can tell a horizon cut from a genuine finish. Returns the
        spans it closed; idempotent.
        """
        closed: list[Span] = []
        for span in self.spans:
            if span.end is None:
                span.end = self.kernel.now
                if span.attrs is None:
                    span.attrs = {}
                span.attrs["truncated"] = True
                if attrs:
                    span.attrs.update(attrs)
                closed.append(span)
        return closed

    def complete(
        self,
        name: str,
        category: str,
        site_id: int,
        start: float,
        parent: int | None = None,
        txn_id: str | None = None,
        **attrs: object,
    ) -> Span:
        """Record an already-finished span (e.g. a lock wait, post-grant)."""
        span = Span(self._next_id, parent, name, category, site_id, start, txn_id=txn_id)
        self._next_id += 1
        span.end = self.kernel.now
        if attrs:
            span.attrs = dict(attrs)
        self.spans.append(span)
        return span

    def root_of(self, txn_id: str) -> int | None:
        """The root span id of ``txn_id``, if it was recorded."""
        return self._txn_roots.get(txn_id)

    # -- instants -------------------------------------------------------------

    def instant(
        self, name: str, category: str, site_id: int, detail: str = ""
    ) -> None:
        self.instants.append(
            Instant(name, category, site_id, self.kernel.now, detail)
        )
