"""The benchmark's workloads: what each one builds, drives and breaks.

Every workload runs 4 fully replicated sites with read-modify-write
transactions, ``rpc_timeout=10`` and the harness defaults for latency
(1.0) and failure detection (5.0). The seed picks the transaction
programs, the arrival times and (through the kernel) every tie-break;
the schedule of failures is fixed per workload.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.harness.runner import build_scheme
from repro.sim.rng import RngRegistry
from repro.txn.config import TxnConfig
from repro.workload import (
    ClientPool,
    FailureEvent,
    FailureSchedule,
    OpenLoopClient,
    WorkloadGenerator,
    WorkloadSpec,
)

N_SITES = 4
RPC_TIMEOUT = 10.0
#: Closed loop: one client per site, each thinking this long between
#: transactions.
N_CLIENTS = 4
THINK_TIME = 0.5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A round runs ``replicas`` independent systems, each with its own
    seed and a load window of ``duration`` sim units, and pools their
    counts, so no one seed's contention pattern dominates (in one long
    window it would). ``loop`` is ``"closed"`` (a :class:`ClientPool`,
    one client per site) or ``"open"`` (an :class:`OpenLoopClient` at
    ``rate`` arrivals per sim unit, homed at site 1).
    """

    name: str
    why: str
    spec: WorkloadSpec
    commit_mode: str
    duration: float
    loop: str
    failures: typing.Callable[[float], list[FailureEvent]]
    replicas: int = 1
    rate: float = 0.0


def _no_failures(_duration: float) -> list[FailureEvent]:
    return []


def _rolling(duration: float) -> list[FailureEvent]:
    """Sites 2, 3, 4 crash in turn, one down at a time; site 1 never.

    Each outage lasts 60 sim units, long enough to miss updates, and the
    next crash waits 200 sim units, by when the previous site is
    operational and fully current again (about 25 and 90 sim units after
    power-on). The last crash leaves 200 sim units of the window for its
    recovery.
    """
    events: list[FailureEvent] = []
    crash_at, turn = 100.0, 0
    while crash_at + 200.0 <= duration:
        site = 2 + turn % 3
        events.append(FailureEvent(crash_at, "crash", site))
        events.append(FailureEvent(crash_at + 60.0, "power_on", site))
        crash_at += 200.0
        turn += 1
    return events


def _one_outage(duration: float) -> list[FailureEvent]:
    """Site 3 is down for the middle fifth of the window."""
    return list(FailureSchedule.single_outage(3, 0.3 * duration, 0.2 * duration))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="write-soak",
            why=(
                "steady-state commit path (2PC/rpc batching, locks, WAL group "
                "commit, stable storage) does nearly all the work; no failures, "
                "so copier/recovery/control do none"
            ),
            spec=WorkloadSpec(n_items=256, ops_per_txn=3, write_fraction=0.8),
            commit_mode="async_quorum",
            duration=200.0,
            replicas=6,
            loop="closed",
            failures=_no_failures,
        ),
        Workload(
            name="rolling-recovery",
            why=(
                "sites 2-4 crash in turn under open-loop load at site 1, so the "
                "section 3.4 recovery, control transactions and copier refreshes "
                "dominate; copier-heavy histories are the costliest to verify"
            ),
            spec=WorkloadSpec(n_items=128, ops_per_txn=3, write_fraction=0.6),
            commit_mode="sync_2pc",
            duration=700.0,
            replicas=5,
            loop="open",
            rate=0.5,
            failures=_rolling,
        ),
        Workload(
            name="snapshot-read-mix",
            why=(
                "90% lock-free snapshot reads on a zipf-skewed hot set plus one "
                "mid-run outage: the mvcc read path and writer lock contention "
                "do the work, while WAL and stable storage stay light"
            ),
            spec=WorkloadSpec(
                n_items=64, ops_per_txn=4, write_fraction=0.5, zipf_s=0.9,
                ro_fraction=0.9,
            ),
            commit_mode="sync_2pc",
            duration=200.0,
            replicas=20,
            loop="closed",
            failures=_one_outage,
        ),
    )
}


def build(workload: Workload, seed: int):
    """The booted system for ``workload`` on a fresh kernel."""
    return build_scheme(
        "rowaa", seed, N_SITES, workload.spec.initial_items(),
        txn_config=TxnConfig(
            rpc_timeout=RPC_TIMEOUT, commit_mode=workload.commit_mode
        ),
    )


def start_load(workload: Workload, system, seed: int):
    """Apply the failure schedule and start the clients.

    Returns the client; its ``stats`` is a
    :class:`~repro.workload.client.ClientStats`.
    """
    rngs = RngRegistry(seed)
    generator = WorkloadGenerator(workload.spec, rngs.stream("workload.generator"))
    events = workload.failures(workload.duration)
    if events:
        FailureSchedule(events).apply(system)
    if workload.loop == "open":
        client = OpenLoopClient(system, generator, rate=workload.rate, home_sites=[1])
    else:
        client = ClientPool(
            system, generator, n_clients=N_CLIENTS, think_time=THINK_TIME,
            retries=2, per_client_streams=True,
        )
    client.start(workload.duration)
    return client
