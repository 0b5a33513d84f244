"""System-wide observability: metrics registry + causal spans + exporters.

One :class:`Observability` object travels with each
:class:`~repro.system.DatabaseSystem` (created implicitly when none is
passed in). It bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` — always live, because
  its cost model is pull-based (components register *collectors* that
  scrape counters they keep anyway) plus rare push updates;
* a :class:`~repro.obs.spans.SpanRecorder` — spans and timeline instants
  are **off by default** and enabled per run (``repro trace``,
  :meth:`Observability.enable_timeline`), so the hot paths pay a
  single branch when disabled.

Exporters (`repro.obs.export`) turn a recorder into JSONL or a Chrome
``chrome://tracing`` file; `repro.obs.report` computes the
recovery-timeline report (MTTR, time-to-nominally-up vs
time-to-fully-current, drain curves). See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import typing

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.spans import Instant, Span, SpanRecorder

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
    "TimeSeries",
]


class Observability:
    """The instrumentation bundle carried by one system."""

    def __init__(
        self, kernel: "Kernel", spans: bool = False, timeline: bool = False
    ) -> None:
        self.kernel = kernel
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(kernel, enabled=spans, timeline=timeline)
        #: The attached protocol auditor (repro.audit), or None. Hot
        #: paths only ever test this for None-ness.
        self.audit: typing.Any = None
        #: The attached windowed time-series sampler
        #: (:func:`repro.obs.timeseries.attach_sampler`), or None. Off by
        #: default; exporters and the recovery-timeline report pick it up
        #: when present.
        self.sampler: typing.Any = None
        #: The attached host-CPU profiler
        #: (:func:`repro.obs.profiler.attach_profiler`), or None. The
        #: kernel dispatch loop tests its *own* handle for None-ness;
        #: this one is for reports and the ``repro profile`` CLI.
        self.profiler: typing.Any = None
        #: The attached happens-before race detector
        #: (:func:`repro.sanitize.hb.attach_detector`), or None. The
        #: kernel and the hooked protocol modules test their own handles
        #: for None-ness; this one is for ``repro schedfuzz`` reports.
        self.sanitizer: typing.Any = None

    @property
    def spans_on(self) -> bool:
        """True when span recording is enabled (checked on hot paths)."""
        return self.spans.enabled

    @property
    def timeline_on(self) -> bool:
        """True when instant/timeline recording is enabled."""
        return self.spans.timeline_on

    def enable_spans(self) -> None:
        self.spans.enabled = True

    def enable_timeline(self) -> None:
        self.spans.timeline_on = True
