"""Shared plumbing for the experiment modules."""

from __future__ import annotations

import hashlib
import typing

from repro.baselines import (
    StrictROWA,
    build_directory_system,
    build_naive_system,
    build_quorum_system,
    build_rowa_system,
    build_rowaa_system,
    build_spooler_system,
)
from repro.net.latency import ConstantLatency
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.storage.catalog import Catalog
from repro.system import DatabaseSystem
from repro.txn.config import TxnConfig

SCHEME_BUILDERS: dict[str, typing.Callable[..., DatabaseSystem]] = {
    "rowaa": build_rowaa_system,
    "rowa": build_rowa_system,
    "quorum": build_quorum_system,
    "naive": build_naive_system,
    "directories": build_directory_system,
    "spooler": build_spooler_system,
}

DEFAULT_LATENCY = 1.0
DEFAULT_DETECTION = 5.0


def build_scheme(
    scheme: str,
    seed: int,
    n_sites: int,
    items: dict[str, object],
    catalog: Catalog | None = None,
    txn_config: TxnConfig | None = None,
    **kwargs: typing.Any,
) -> tuple[Kernel, DatabaseSystem]:
    """One booted system of the named scheme on a fresh kernel."""
    kernel = Kernel(seed=seed)
    builder = SCHEME_BUILDERS[scheme]
    system = builder(
        kernel,
        n_sites,
        items,
        catalog=catalog,
        latency=ConstantLatency(DEFAULT_LATENCY),
        detection_delay=DEFAULT_DETECTION,
        config=txn_config if txn_config is not None else TxnConfig(rpc_timeout=25.0),
        **kwargs,
    )
    return kernel, system


def build_traced_scheme(
    scheme: str,
    seed: int,
    n_sites: int,
    items: dict[str, object],
    catalog: Catalog | None = None,
    txn_config: TxnConfig | None = None,
    audit: bool = False,
    sample_period: float | None = None,
    profile: bool = False,
    schedule: typing.Any = None,
    races: bool = False,
    **kwargs: typing.Any,
) -> tuple[Kernel, DatabaseSystem, Observability]:
    """Like :func:`build_scheme`, but with spans + timeline recording on.

    Used by ``repro trace`` / ``repro metrics``: the returned
    :class:`~repro.obs.Observability` carries the span tree, timeline
    instants, and metrics registry for export after the scenario runs.
    With ``audit=True`` (``repro audit``) a
    :class:`~repro.audit.ProtocolAuditor` is attached before any load
    runs; its alert log rides on ``obs.audit``. With ``sample_period``
    set, a windowed time-series sampler
    (:func:`repro.obs.timeseries.attach_sampler`) ticks at that period
    from boot; it rides on ``obs.sampler``. With ``profile=True``
    (``repro profile``) a host-CPU profiler
    (:func:`repro.obs.profiler.attach_profiler`) instruments the kernel
    dispatch loop from here on; it rides on ``obs.profiler``.

    With ``schedule`` set to a
    :class:`~repro.sanitize.policy.ScheduleSpec`, the kernel's
    same-timestamp tie-breaks are resolved by the spec's policy
    (``repro schedfuzz``); the policy is attached *before* the system is
    built so boot-time ties are perturbed too. With ``races=True`` a
    happens-before race detector
    (:func:`repro.sanitize.hb.attach_detector`) rides on
    ``obs.sanitizer`` — the caller owns tearing the global access seam
    down (:func:`repro.sanitize.hooks.clear`) when the run finishes.
    """
    kernel = Kernel(seed=seed)
    if schedule is not None:
        from repro.sanitize.policy import attach_policy

        attach_policy(kernel, schedule)
    obs = Observability(kernel, spans=True, timeline=True)
    if races:
        from repro.sanitize.hb import attach_detector

        obs.sanitizer = attach_detector(kernel)
    builder = SCHEME_BUILDERS[scheme]
    system = builder(
        kernel,
        n_sites,
        items,
        catalog=catalog,
        latency=ConstantLatency(DEFAULT_LATENCY),
        detection_delay=DEFAULT_DETECTION,
        config=txn_config if txn_config is not None else TxnConfig(rpc_timeout=25.0),
        obs=obs,
        **kwargs,
    )
    if audit:
        from repro.audit import attach_auditor

        attach_auditor(system)
    if sample_period is not None:
        from repro.obs.timeseries import attach_sampler

        attach_sampler(system, sample_period)
    if profile:
        from repro.obs.profiler import attach_profiler

        attach_profiler(system)
    return kernel, system, obs


def replicated_catalog(
    n_sites: int, items: typing.Iterable[str], replication: int, seed: int
) -> Catalog:
    """Random ``replication``-way placement over ``n_sites``.

    The placement draws from a dedicated :class:`RngRegistry` stream, so
    it is independent of every other consumer of randomness: the same
    seed yields the same catalog no matter what else an experiment draws
    before or after building it.
    """
    rng = RngRegistry(seed).stream("harness.placement")
    return Catalog.random_placement(
        list(range(1, n_sites + 1)), items, replication, rng
    )


def cell_seed(*parts: object) -> int:
    """Deterministic seed for one experiment cell.

    Unlike ``hash()``, whose value for strings is salted per interpreter
    (``PYTHONHASHSEED``), this is stable across processes and runs — a
    cell gets the same seed whether it executes serially, inside a
    worker pool, or in a fresh interpreter tomorrow.
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def settle(kernel: Kernel, system: DatabaseSystem, duration: float) -> None:
    """Advance the clock (detector, control transactions, copiers)."""
    kernel.run(until=kernel.now + duration)


def quiesce(kernel: Kernel, system: DatabaseSystem, grace: float = 500.0) -> None:
    """Power every down site back on and let everything drain."""
    for site_id in system.cluster.site_ids:
        if system.cluster.site(site_id).is_down:
            system.power_on(site_id)
    kernel.run(until=kernel.now + grace)
    system.stop()
    kernel.run(until=kernel.now + 10)
    # Span hygiene: anything still open at the horizon (an in-flight
    # drain, a 2PC blocked past the grace window) is closed and tagged
    # truncated=True rather than dropped from the exports.
    system.obs.spans.finish_open()


def closed_loop_rmw(
    n_txns: int, commit_mode: str = "sync_2pc", n_clients: int = 4
) -> tuple[DatabaseSystem, float]:
    """Closed-loop read-modify-write clients on private items, 3 sites.

    Each of ``n_clients`` clients (homes round-robin) runs ``n_txns //
    n_clients`` increments of its own item back to back, under strict
    ROWA at unit latency, so no run aborts or retries. Returns the
    stopped system and the sim time of the last client ack; async
    drains get 200 more units to finish.
    """
    per_client = n_txns // n_clients
    kernel = Kernel(seed=0)
    system = DatabaseSystem(
        kernel, 3, {f"X{c}": 0 for c in range(n_clients)},
        strategy_factory=lambda _s: StrictROWA(),
        latency=ConstantLatency(1.0),
        config=TxnConfig(commit_mode=commit_mode),
    )
    system.boot()

    def client(c: int) -> typing.Generator:
        item = f"X{c}"

        def increment(ctx: typing.Any) -> typing.Generator:
            value = yield from ctx.read(item)
            yield from ctx.write(item, value + 1)

        for _ in range(per_client):
            yield from system.tms[1 + c % 3].run(increment)

    for proc in [kernel.process(client(c)) for c in range(n_clients)]:
        kernel.run(proc)
    elapsed = kernel.now
    kernel.run(until=kernel.now + 200.0)
    system.stop()
    for c in range(n_clients):
        assert system.copy_value(1, f"X{c}") == per_client
    return system, elapsed
