"""The simulation event loop and virtual clock."""

from __future__ import annotations

import heapq
import typing

from repro.errors import SimError, UnhandledFailure
from repro.sim.events import F_CANCELLED, F_PROCESSED, Future, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry


class Callback:
    """A lightweight scheduled callback: a heap entry, not a future.

    Hot paths (``call_soon``, RPC timeout expiry, lock wait backstops)
    schedule thousands of these per simulated second; unlike a
    :class:`~repro.sim.events.Future` there is no name, no value, no
    callback list and no unhandled-failure bookkeeping — just a function
    and its arguments.

    ``cancel()`` is lazy: the entry stays in the heap and is skipped when
    it reaches the top, which is O(1) instead of an O(n) re-heapify. This
    is what makes per-call RPC timeouts affordable — the common case is a
    reply arriving first and the timer dying untouched.
    """

    __slots__ = ("fn", "args", "_flags")

    #: Class-level sentinel: with a profiler attached the drain loop
    #: reads ``entry._callbacks`` to form the run signature. ``None``
    #: here means "a Callback — use ``entry.fn`` instead" (a Future's
    #: ``_callbacks`` is never ``None`` while it sits in the heap).
    _callbacks: typing.Any = None

    def __init__(
        self, fn: typing.Callable[..., None], args: tuple[object, ...]
    ) -> None:
        self.fn = fn
        self.args = args
        self._flags = 0

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return (self._flags & F_CANCELLED) != 0

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self._flags = F_CANCELLED

    def _process(self) -> None:
        self.fn(*self.args)

    def __repr__(self) -> str:
        state = "cancelled" if self._flags & F_CANCELLED else "scheduled"
        return f"<Callback {getattr(self.fn, '__name__', self.fn)!r} {state}>"


#: A heap entry: ``(time, insertion seq, event)``, ordered by time then seq.
_Entry = tuple[float, int, Future | Callback]


class _Processed:
    """The drain stop of :meth:`Kernel.step`: born processed, so the
    loop stops after its first live event."""

    __slots__ = ()
    _flags = F_PROCESSED


_ONE_EVENT = _Processed()


class Kernel:
    """A deterministic discrete-event scheduler.

    Time is a float starting at 0.0 and only moves forward. Events scheduled
    for the same instant are processed in scheduling order (FIFO), which
    makes runs fully deterministic for a fixed seed.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry` exposed as
        :attr:`rng`.
    """

    __slots__ = (
        "_now", "_heap", "_seq", "rng", "_unhandled", "events_processed",
        "_prof", "_tiebreak", "_sanitize",
    )

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._heap: list[_Entry] = []
        self._seq = 0
        self.rng = RngRegistry(seed)
        self._unhandled: list[Future] = []
        #: Count of entries dispatched by the drain loop (skipped
        #: cancelled entries excluded); the per-event basis of the
        #: bytecode budgets in the tier-1 tests.
        self.events_processed = 0
        #: The attached host-CPU profiler
        #: (:class:`repro.obs.profiler.HostProfiler`), or None. When set,
        #: the drain loop reads the profiler's host clock at run
        #: boundaries — the kernel itself never imports a wall clock
        #: (REP001).
        self._prof: typing.Any = None
        #: Attached tie-break policy
        #: (:class:`repro.sanitize.policy.TieBreakPolicy`), or None. When
        #: set, same-timestamp heap batches are resolved by the policy
        #: instead of insertion order.
        self._tiebreak: typing.Any = None
        #: Attached schedule sanitizer
        #: (:class:`repro.sanitize.hb.RaceDetector`), or None. When set,
        #: every heap push and every dispatch is reported so the detector
        #: can thread vector clocks along scheduling edges.
        self._sanitize: typing.Any = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, event: Future | Callback, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1
        if self._sanitize is not None:
            self._sanitize.on_scheduled(self._seq - 1)

    def schedule_callback(
        self, delay: float, fn: typing.Callable[..., None], *args: object
    ) -> Callback:
        """Run ``fn(*args)`` after ``delay``; returns a cancellable handle.

        This is the cheap path for internal machinery (timers that are
        usually cancelled, zero-delay dispatch). Processes cannot wait on
        the handle — use :meth:`timeout` for that.
        """
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        entry = Callback(fn, args)
        heapq.heappush(self._heap, (self._now + delay, self._seq, entry))
        self._seq += 1
        if self._sanitize is not None:
            self._sanitize.on_scheduled(self._seq - 1)
        return entry

    def call_soon(
        self, fn: typing.Callable[..., None], *args: object, delay: float = 0.0
    ) -> Callback:
        """Run ``fn(*args)`` at the current time (or after ``delay``)."""
        return self.schedule_callback(delay, fn, *args)

    # -- sanitizer seams -----------------------------------------------------

    def set_tiebreak(self, policy: typing.Any) -> None:
        """Attach (or with ``None`` detach) a same-timestamp tie-break policy.

        The policy (:mod:`repro.sanitize.policy`) decides which member of
        a batch of live entries ready at the same instant runs next.
        Entries scheduled at distinct times, and entries scheduled *by*
        a running dispatch (they did not exist when the batch formed),
        are never reordered — only genuinely concurrent ties are.
        """
        self._tiebreak = policy

    def set_sanitizer(self, sanitizer: typing.Any) -> None:
        """Attach (or with ``None`` detach) a schedule sanitizer.

        The sanitizer (:class:`repro.sanitize.hb.RaceDetector`) is told
        about every heap push (:meth:`~RaceDetector.on_scheduled`) and
        bracketed around every dispatch, which is how happens-before
        scheduling edges are threaded.
        """
        self._sanitize = sanitizer

    # -- factories ---------------------------------------------------------------

    def event(self, name: str = "") -> Future:
        """Create a new pending future."""
        return Future(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a future that succeeds ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: typing.Generator[Future, object, object], name: str = ""
    ) -> Process:
        """Start a new simulated process running ``generator``."""
        return Process(self, generator, name=name)

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries at the top of the heap are discarded as a side
        effect (they are invisible either way).
        """
        heap = self._heap
        while heap and heap[0][2]._flags & F_CANCELLED:
            heapq.heappop(heap)
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time.

        Cancelled entries encountered on the way are discarded without
        advancing the clock; if only cancelled entries remained, the call
        returns having processed nothing.
        """
        if not self._heap:
            raise SimError("step() on an empty event queue")
        self._drain(None, _ONE_EVENT)

    def run(self, until: float | Future | None = None) -> object:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a float — run until virtual time reaches it (clock ends exactly
          there);
        * a :class:`Future` — run until it is processed, returning its value
          (or raising its exception).
        """
        if isinstance(until, Future):
            # The caller observes success/failure through ``until.value``
            # below, so a failure of the target is not "unhandled".
            until.defuse()
            if not until.processed:
                self._drain(None, until)
            if not until.processed:
                raise SimError(f"event queue exhausted before {until!r} was processed")
            return until.value
        self._drain(until, None)
        if until is not None and self._now < until:
            self._now = float(until)
        return None

    def _drain(self, until: float | None, stop: Future | _Processed | None) -> None:
        """The one drain loop behind :meth:`run` and :meth:`step`.

        Dispatches live entries until the heap is empty, the next entry
        lies past ``until``, or ``stop`` has been processed. Each
        instrument is picked up once per drain and tested inline, so
        any combination composes:

        * the tie-break policy is the pop function (:meth:`_pop_tie`);
        * the profiler reads its host clock at *run boundaries*: a run
          is a maximal stretch of consecutive events sharing one
          dispatch signature (a Future's waiter list, a Callback's
          ``fn``), so a storm of bare timeouts costs two clock reads in
          total. Each boundary read closes one run and opens the next,
          so the charges tile ``dispatch_wall_s`` exactly;
        * the race detector brackets every dispatch.
        """
        heap = self._heap
        pop: typing.Callable[[list[_Entry]], _Entry] = (
            heapq.heappop if self._tiebreak is None else self._pop_tie
        )
        san = self._sanitize
        prof = self._prof
        cur_sig: typing.Any = None
        cur_entry: typing.Any = None
        if prof is not None:
            clock = prof.clock
            run_start = self.events_processed
            loop_start = prev = clock()
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                when, seq, entry = pop(heap)
                if entry._flags & F_CANCELLED:
                    continue
                if prof is not None:
                    sig = entry._callbacks
                    if sig is None:
                        sig = entry.fn  # type: ignore[union-attr]
                    if sig is not cur_sig:
                        if cur_entry is not None:
                            now = clock()
                            prof.charge(cur_sig, cur_entry, now - prev,
                                        self.events_processed - run_start)
                            prev = now
                            run_start = self.events_processed
                        # The first live event opens its run without a
                        # clock read, so the pre-loop sliver lands in it.
                        cur_sig = sig
                        cur_entry = entry
                self._now = when
                self.events_processed += 1
                if san is None:
                    entry._process()
                else:
                    san.begin_dispatch(seq)
                    try:
                        entry._process()
                    finally:
                        san.end_dispatch()
                if self._unhandled:
                    self._raise_unhandled()
                if stop is not None and stop._flags & F_PROCESSED:
                    break
        finally:
            if prof is not None:
                now = clock()
                # With no live event the sliver is booked to the kernel
                # (``None`` signature) so the charges still tile the loop.
                prof.charge(cur_sig, cur_entry, now - prev,
                            self.events_processed - run_start)
                prof.dispatch_wall_s += now - loop_start

    def _pop_tie(self, heap: list[_Entry]) -> _Entry:
        """``heapq.heappop`` with same-instant ties settled by the policy.

        A cancelled head is returned as is, for the drain loop to skip.
        A live head anchors its instant: every further live entry at
        that exact time joins the batch, the policy picks one, and the
        rest go back under their original ``(time, seq)`` keys, so an
        index-0 choice reproduces FIFO order exactly.
        """
        pop = heapq.heappop
        head = pop(heap)
        when = head[0]
        if head[2]._flags & F_CANCELLED or not heap or heap[0][0] != when:
            return head
        batch = [head]
        while heap and heap[0][0] == when:
            item = pop(heap)
            if not item[2]._flags & F_CANCELLED:
                batch.append(item)
        if len(batch) == 1:
            return head
        chosen = batch.pop(self._tiebreak.choose(len(batch)))
        for item in batch:
            heapq.heappush(heap, item)
        return chosen

    def _report_unhandled(self, event: Future) -> None:
        self._unhandled.append(event)

    def _raise_unhandled(self) -> typing.NoReturn:
        failed = list(self._unhandled)
        self._unhandled.clear()
        primary = failed[0]
        if len(failed) == 1:
            message = f"unobserved failure in {primary!r}"
        else:
            others = ", ".join(repr(event) for event in failed[1:])
            message = (
                f"{len(failed)} unobserved failures in one event: "
                f"{primary!r} (also: {others})"
            )
        error = UnhandledFailure(message)
        error.failures = tuple(event.exception for event in failed)  # type: ignore[attr-defined]
        raise error from primary.exception
