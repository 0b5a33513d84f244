"""The correctness gate every measured run must pass.

* 1SR over the database items (:func:`check_one_sr`) and Theorem 3
  (:func:`check_theorem3`) hold on the run's history.
* After quiesce every copy of every item agrees in value and version at
  all sites, no copy is marked unreadable, no site is still recovering
  and no async drain is left open.
* The RMW ledger balances: every client transaction's writes are counted
  by a wrapper around ``TransactionManager.submit``; an acknowledged
  transaction adds one to each item it wrote, an attempt that ended any
  other way adds one to the item's in-doubt count. The final value of
  every item lies between its acknowledged count and acknowledged plus
  in-doubt.
"""

from __future__ import annotations

import collections
import weakref

from repro.core.nominal import db_item_filter
from repro.histories import check_one_sr, check_theorem3


class GateFailure(Exception):
    """A correctness check failed; the message names workload, seed, check."""

    def __init__(self, workload: str, seed: int, check: str, detail: str) -> None:
        super().__init__(f"{workload} seed={seed}: check {check!r} failed: {detail}")
        self.check = check


class _WriteTap:
    """A transaction context that notes which items the program writes."""

    def __init__(self, ctx, written: list[str]) -> None:
        self._ctx = ctx
        self._written = written

    def write(self, item, value):
        self._written.append(item)
        return self._ctx.write(item, value)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class Ledger:
    """Counts client writes by outcome (see the module docstring).

    It also counts attempts: the first submission of a program is an
    attempt, a later submission of the same program is a client retry.
    """

    def __init__(self) -> None:
        self.acked: collections.Counter = collections.Counter()
        self.in_doubt: collections.Counter = collections.Counter()
        self.retries = 0
        self._seen: weakref.WeakSet = weakref.WeakSet()
        self._open: dict[int, list[str]] = {}

    def attach(self, system) -> None:
        for tm in system.tms.values():
            tm.submit = self._wrap(tm.submit, tapped=True)
            tm.submit_ro = self._wrap(tm.submit_ro, tapped=False)

    def _wrap(self, submit, tapped: bool):
        def wrapped(program, *args, **kwargs):
            if program in self._seen:
                self.retries += 1
            else:
                self._seen.add(program)
            if not tapped:
                return submit(program, *args, **kwargs)
            written: list[str] = []

            def counted(ctx):
                return (yield from program(_WriteTap(ctx, written)))

            proc = submit(counted, *args, **kwargs)
            key = id(written)
            self._open[key] = written
            proc.add_callback(lambda event: self._settle(key, event.ok))
            return proc

        return wrapped

    def _settle(self, key: int, ok: bool) -> None:
        written = self._open.pop(key)
        (self.acked if ok else self.in_doubt).update(written)

    def close(self) -> None:
        """Attempts that never finished count as in doubt."""
        for key in list(self._open):
            self._settle(key, False)


def verify(system, clock) -> tuple[object, object]:
    """The two history checks, timed through ``clock``."""
    one_sr = clock.call(
        "histories.check_one_sr", check_one_sr, system.recorder,
        item_filter=db_item_filter,
    )
    theorem3 = clock.call("histories.check_theorem3", check_theorem3, system.recorder)
    return one_sr, theorem3


def check(
    workload: str, seed: int, system, ledger: Ledger, one_sr, theorem3, where: str = ""
) -> None:
    """Raise :class:`GateFailure` on the first check that does not hold.

    ``where`` locates the run inside the round (for the message).
    """

    def fail(name: str, detail: str) -> None:
        raise GateFailure(workload, seed, name, f"{where}: {detail}" if where else detail)

    if not one_sr.ok:
        fail("1sr", f"{one_sr.method}: {one_sr.detail}")
    if not theorem3.ok:
        fail("theorem3", f"{theorem3.method}: {theorem3.detail}")
    cluster = system.cluster
    for site_id in cluster.site_ids:
        site = cluster.site(site_id)
        if not site.is_operational:
            fail("all-sites-up", f"site {site_id} is {site.status.value}")
        stats = system.tms[site_id].stats
        if site.crash_count == 0 and stats.drains_spawned != stats.drains_completed:
            fail(
                "drains-closed",
                f"site {site_id}: {stats.drains_spawned - stats.drains_completed} "
                "async drains still open",
            )
    for item in sorted(system.catalog.items()):
        states = {
            site_id: cluster.site(site_id).copies.get(item)
            for site_id in system.catalog.sites_of(item)
        }
        for site_id, copy in states.items():
            if copy.unreadable:
                fail("no-unreadable", f"{item} unreadable at site {site_id}")
        seen = {(repr(copy.value), copy.version) for copy in states.values()}
        if len(seen) != 1:
            fail("copies-agree", f"{item}: {sorted(seen)}")
    ledger.close()
    for item in system.items:
        if not db_item_filter(item):
            continue
        value = system.copy_value(system.catalog.sites_of(item)[0], item)
        low, high = ledger.acked[item], ledger.acked[item] + ledger.in_doubt[item]
        if not isinstance(value, int) or not low <= value <= high:
            fail(
                "rmw-ledger",
                f"{item} = {value!r}, expected {low} acked "
                f"(+{ledger.in_doubt[item]} in doubt)",
            )
