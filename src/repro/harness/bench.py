"""Self-timed microbench suite with a persisted perf trajectory.

``python -m repro bench`` runs a handful of kernel/protocol
microbenchmarks (best-of-N wall timing, no external dependencies) and
records the results as one entry in a trajectory file
(``BENCH_kernel.json`` by default). The trajectory is the project's
performance memory: each entry is a labelled snapshot of the same
metrics on some machine, so a regression shows up as a ratio between
the last committed entry and a fresh run — which is exactly what the
CI gate checks (``--check`` fails on a >30% drop in kernel event
throughput by default).

Trajectory schema::

    {
      "benchmark": "kernel",
      "entries": [
        {
          "label": "fast-path",
          "timestamp": "2026-08-06T12:00:00Z",
          "quick": false,
          "metrics": {
            "kernel_events_per_s": 650000.0,
            "kernel_events_obs_off_per_s": 645000.0,
            "kernel_events_sampled_per_s": 640000.0,
            "kernel_events_profiled_per_s": 638000.0,
            "timeout_churn_per_s": 800000.0,
            "copier_refresh_per_s": 12.5,
            "copier_refresh_audited_per_s": 12.0,
            "txn_throughput_per_s": 1.6,
            "txn_throughput_async_per_s": 4.9,
            "txn_commit_p50": 9.0,
            "txn_commit_p99": 9.0,
            "txn_commit_p50_async": 3.0,
            "txn_commit_p99_async": 3.0,
            "ro_read_throughput_per_s": 95000.0,
            "txn_wall_per_s": 2600.0,
            "txn_wall_mvcc_off_per_s": 2650.0
          },
          "obs": {
            "copier_refresh": {"...": "global metrics snapshot"},
            "profile": {"copier_refresh": {"net": 0.6, "...": "..."}}
          }
        }
      ]
    }

Metrics are throughputs (bigger is better) except the ``txn_commit_*``
latency percentiles (sim-time units, smaller is better); machines
differ, so only ratios between wall-clock entries produced on the same
machine are meaningful. The ``txn_throughput*`` and ``txn_commit*``
family is measured in *simulated* time (see
:func:`bench_txn_throughput`) and is therefore deterministic and
comparable across machines — the sync/async pair is the headline
commit-mode comparison. The
``obs`` field carries the global metrics-registry snapshot of the
system-level benches (``repro.obs``), and the gap between
``kernel_events_per_s`` and its ``_obs_off`` twin is the instrumentation
overhead with tracing disabled — ``--check`` bounds it at 5%. The
``txn_wall_per_s`` / ``txn_wall_mvcc_off_per_s`` pair plays the same
role for the multiversion store's write hooks (``repro.mvcc``): the
wall-clock RMW bench with snapshot support on vs off, gated under the
same 5% bound; ``ro_read_throughput_per_s`` tracks the snapshot-read
service rate itself. ``kernel_events_profiled_per_s`` is the host-CPU
profiler's twin (``repro profile``'s attribution view, run-length
batched clock reads), gated under the same 5% bound, and the
``obs.profile`` map records where the system-level benches actually
spend CPU per subsystem — compared advisorily across entries by
``--check`` (see :func:`share_drift`).
"""

from __future__ import annotations

import json
import time
import typing

from repro.obs import hostclock
from repro.sim.kernel import Kernel

#: The metric the regression gate checks by default: the kernel's raw
#: schedule-and-drain event throughput, the denominator of every
#: simulated second in the repository.
GATE_METRIC = "kernel_events_per_s"


def _best_of(fn: typing.Callable[[], int], repeats: int) -> float:
    """Best (events/second) over ``repeats`` runs of ``fn``.

    ``fn`` returns the number of units it processed; best-of-N is the
    standard way to suppress scheduler noise on busy machines. Wall
    time comes from :mod:`repro.obs.hostclock`, the sanctioned
    monotonic-clock seam (``time`` here is only for trajectory
    timestamps).
    """
    best = 0.0
    for _ in range(repeats):
        start = hostclock.now()
        units = fn()
        wall = hostclock.now() - start
        if wall > 0:
            best = max(best, units / wall)
    return best


def bench_kernel_events(n: int = 10_000, repeats: int = 10) -> float:
    """Schedule-and-drain throughput: ``n`` staggered timeouts."""

    def run() -> int:
        kernel = Kernel(seed=0)
        for index in range(n):
            kernel.timeout(index % 97)
        kernel.run()
        return kernel.events_processed

    return _best_of(run, repeats)


def bench_kernel_events_obs_off(n: int = 10_000, repeats: int = 10) -> float:
    """The kernel-events workload with a (disabled) observability bundle.

    The metrics registry is pull-based and spans are off, so the drain
    loop must be doing byte-for-byte the same work as in
    :func:`bench_kernel_events`. The ratio of the two metrics is the
    instrumentation overhead that ``bench --check`` bounds (<5% by
    default) — it guards against someone ever putting a per-event hook
    into the hot loop.
    """
    from repro.obs import Observability

    def run() -> int:
        kernel = Kernel(seed=0)
        obs = Observability(kernel)  # spans/timeline disabled

        def collect_kernel() -> dict:
            return {
                ("kernel.events_processed", None): float(kernel.events_processed)
            }

        obs.registry.add_collector(collect_kernel)
        for index in range(n):
            kernel.timeout(index % 97)
        kernel.run()
        assert obs.registry.snapshot()["global"]["kernel.events_processed"] > 0
        return kernel.events_processed

    return _best_of(run, repeats)


def bench_kernel_events_sampled(n: int = 10_000, repeats: int = 10) -> float:
    """The kernel-events workload with a *live* windowed sampler attached.

    The time-series twin of :func:`bench_kernel_events_obs_off`: here the
    sampler's periodic timer is actually running (one callback per period
    reading a probe), which is everything the ``repro latency`` tooling
    adds to a simulation — critical-path attribution itself is pure
    post-processing over already-recorded spans. The gap against
    :func:`bench_kernel_events` is the ``latency_attribution_overhead``
    that ``--check`` bounds under the same <5% gate as the rest of the
    observability layer.
    """
    from repro.obs.timeseries import WindowedSampler

    def run() -> int:
        kernel = Kernel(seed=0)
        sampler = WindowedSampler(kernel, period=5.0)
        sampler.add_delta("ts.events", lambda: float(kernel.events_processed))
        for index in range(n):
            kernel.timeout(index % 97)
        sampler.start()
        kernel.run(until=97.0)  # the last staggered timeout fires at 96
        sampler.stop()
        kernel.run()
        assert sampler.windows >= 19  # the timer genuinely ticked
        return kernel.events_processed

    return _best_of(run, repeats)


def bench_kernel_events_profiled(n: int = 10_000, repeats: int = 10) -> float:
    """The kernel-events workload with the host-CPU profiler attached.

    The profiled twin of :func:`bench_kernel_events`: the kernel's
    drain loop reads the host clock at *run boundaries* (signature
    changes) rather than per event. The gap against the plain number
    is the ``profiler_overhead`` that ``--check`` bounds under the same <5% gate as the rest of the
    observability layer — it guards the run-length batching that makes
    ``repro profile`` affordable (a naive per-event clock read costs
    ~16% on this workload).
    """
    from repro.obs.profiler import HostProfiler

    def run() -> int:
        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)
        for index in range(n):
            kernel.timeout(index % 97)
        kernel.run()
        assert profiler.total_events == kernel.events_processed
        return kernel.events_processed

    # One discarded warmup run (see bench_txn_wall): the profiler's
    # branch of the drain loop pays the adaptive interpreter's
    # specialization cost on its first execution — measured at ~10% on
    # a cold first run vs ~2% warm, enough to randomly trip the
    # overhead gate.
    run()
    return _best_of(run, repeats)


def bench_timeout_churn(n: int = 10_000, repeats: int = 10) -> float:
    """RPC-style timeout churn: schedule ``n`` timers, cancel 90%.

    This is the hot pattern of the RPC layer: nearly every call's
    timeout timer is cancelled when the reply lands first. Lazy
    cancellation makes the cancel O(1) and the drain skip dead entries.
    """

    def run() -> int:
        kernel = Kernel(seed=0)
        timers = [
            kernel.schedule_callback(5.0 + (index % 13), _noop)
            for index in range(n)
        ]
        for index, timer in enumerate(timers):
            if index % 10 != 0:
                timer.cancel()
        kernel.run()
        return n  # n schedule ops + n/10 live fires is the unit of work

    return _best_of(run, repeats)


def _noop() -> None:
    return None


def bench_copier_refresh(
    n_items: int = 16, repeats: int = 3, snapshots: dict | None = None,
    audit: bool = False, profile_shares: dict | None = None,
) -> float:
    """Copier renovation throughput: stale copies refreshed per second.

    End-to-end: crash a site, commit ``n_items`` updates it misses,
    power it back on, and drain the eager copiers. When ``snapshots`` is
    given, the last run's global metrics snapshot is stored under
    ``"copier_refresh"`` — the trajectory keeps it so a throughput shift
    can be traced to a behaviour shift (more aborts, more messages)
    rather than guessed at.

    ``audit=True`` runs the same scenario with the online protocol
    auditor attached (``copier_refresh_audited_per_s`` in the suite):
    the gap against the plain number is the price of live invariant
    checking, recorded in the trajectory but not gated — the <5%
    ``--max-overhead`` gate covers the auditor-*off* path, which stays
    hook-free.

    ``profile_shares``, if given, attaches a host-CPU profiler and
    fills the dict with the run's per-subsystem CPU shares (see
    :func:`profile_shares`); such runs are for attribution, not timing.
    """
    from repro.baselines import build_rowaa_system
    from repro.net.latency import ConstantLatency
    from repro.txn.config import TxnConfig

    def run() -> int:
        kernel = Kernel(seed=0)
        system = build_rowaa_system(
            kernel, 3, {f"X{i}": 0 for i in range(n_items)},
            latency=ConstantLatency(1.0), config=TxnConfig(),
        )
        profiler = None
        if profile_shares is not None:
            from repro.obs.profiler import HostProfiler

            profiler = HostProfiler()
            profiler.attach(kernel)
        if audit:
            from repro.audit import attach_auditor

            attach_auditor(system)
        system.crash(3)
        kernel.run(until=kernel.now + 40)

        def write_program(item, value):
            def program(ctx):
                yield from ctx.write(item, value)
            return program

        for index in range(n_items):
            kernel.run(
                system.submit_with_retry(1, write_program(f"X{index}", index),
                                         attempts=4)
            )
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 2000)
        system.stop()
        copied = system.copiers[3].stats.copies_performed
        assert copied >= n_items
        if snapshots is not None:
            snapshots["copier_refresh"] = system.obs.registry.snapshot()["global"]
        if profiler is not None and profile_shares is not None:
            profile_shares.clear()
            profile_shares.update(
                {label: round(share, 4) for label, share in profiler.shares().items()}
            )
        return copied

    return _best_of(run, repeats)


def bench_txn_throughput(
    n_txns: int = 200,
    n_clients: int = 4,
    commit_mode: str = "sync_2pc",
    snapshots: dict | None = None,
) -> dict:
    """Closed-loop replicated read-modify-write load, one commit mode.

    ``n_clients`` concurrent clients (homes round-robined over the
    sites) each run ``n_txns // n_clients`` RMW transactions on a
    private item, back to back: the moment one transaction is acked the
    next begins. Throughput is measured in *simulated* seconds — client
    transactions completed per sim-time unit from boot to the last
    client ack — so the number is deterministic and machine-independent:
    it isolates exactly what the commit path costs in network rounds
    (2PC batching, pipelined prepares, quorum ack-early), not how fast
    the host interpreter is. Disjoint write sets keep the comparison
    free of abort/retry noise.

    Returns ``{"throughput": txns per sim second, "p50": ..., "p99":
    ...}`` where the percentiles are over begin-to-client-ack latency
    (``TmStats.ack_latencies``) in sim-time units. With ``snapshots``,
    the run's global metrics snapshot lands under
    ``"txn_throughput[_<mode>]"`` — it carries the ``rpc.batches`` /
    ``rpc.decisions_piggybacked`` counters that explain a throughput
    shift.
    """
    from repro.baselines import StrictROWA
    from repro.harness.metrics import percentile
    from repro.net.latency import ConstantLatency
    from repro.system import DatabaseSystem
    from repro.txn.config import TxnConfig

    per_client = max(1, n_txns // n_clients)
    kernel = Kernel(seed=0)
    system = DatabaseSystem(
        kernel, 3, {f"X{c}": 0 for c in range(n_clients)},
        strategy_factory=lambda _s: StrictROWA(),
        latency=ConstantLatency(1.0),
        config=TxnConfig(commit_mode=commit_mode),
    )
    system.boot()

    def client(c: int):
        item = f"X{c}"
        home = 1 + c % len(system.tms)

        def increment(ctx):
            value = yield from ctx.read(item)
            yield from ctx.write(item, value + 1)

        for _ in range(per_client):
            yield from system.tms[home].run(increment)

    procs = [
        kernel.process(client(c), name=f"bench-client{c}")
        for c in range(n_clients)
    ]
    for proc in procs:
        kernel.run(proc)
    elapsed = kernel.now  # last client ack; drains may still be open
    kernel.run(until=kernel.now + 200.0)  # let async drains finish
    system.stop()
    for c in range(n_clients):
        assert system.copy_value(1, f"X{c}") == per_client
    latencies = [
        latency
        for tm in system.tms.values()
        for latency in tm.stats.ack_latencies
    ]
    if snapshots is not None:
        key = "txn_throughput" + (
            "" if commit_mode == "sync_2pc" else f"_{commit_mode}"
        )
        snapshots[key] = system.obs.registry.snapshot()["global"]
    return {
        "throughput": per_client * n_clients / elapsed,
        "p50": percentile(latencies, 50),
        "p99": percentile(latencies, 99),
    }


def bench_ro_read_throughput(
    n_txns: int = 300, batch: int = 8, repeats: int = 3
) -> float:
    """Snapshot-read service rate: RO item reads served per wall second.

    Closed loop of ``beginRO`` transactions at one site, each reading a
    ``batch`` of items at its pinned cut. The whole path is lock-free
    and local (one ``dm.read_snapshot`` round against the multiversion
    store), so this measures exactly the per-read cost of the version
    chains — binary-search floor lookup plus the audit/stats hooks.
    Wall-clock: sim-time throughput is meaningless here because local
    serves complete without advancing the clock.
    """
    from repro.baselines import StrictROWA
    from repro.net.latency import ConstantLatency
    from repro.system import DatabaseSystem
    from repro.txn.config import TxnConfig

    def run() -> int:
        kernel = Kernel(seed=0)
        items = {f"X{i}": 0 for i in range(batch)}
        system = DatabaseSystem(
            kernel, 3, items,
            strategy_factory=lambda _s: StrictROWA(),
            latency=ConstantLatency(1.0), config=TxnConfig(),
        )
        system.boot()

        def write_all(ctx):
            for item in items:
                yield from ctx.write(item, 1)

        kernel.run(system.submit(1, write_all))
        names = tuple(items)

        def ro_loop():
            for _ in range(n_txns):
                def ro_program(ctx):
                    values = yield from ctx.read_many(names)
                    return values
                yield from system.tms[1].run_ro(ro_program)

        kernel.run(kernel.process(ro_loop(), name="bench-ro"))
        system.stop()
        served = system.mvcc[1].stats.ro_served
        assert served >= n_txns * batch
        return served

    return _best_of(run, repeats)


def bench_txn_wall(
    n_txns: int = 200, n_clients: int = 4, mvcc: bool = True,
    repeats: int = 3, profile_shares: dict | None = None,
) -> float:
    """Wall-clock RMW commit rate with the mvcc write hooks on or off.

    The same closed-loop load as :func:`bench_txn_throughput`, timed in
    *wall* seconds: the sim-time twin cannot see the version-chain
    observe hook's cost because it runs between events. The on/off pair
    is the writer-overhead gate (:func:`ro_overhead_fraction`): snapshot
    reads must not tax the RW write path by more than ``--max-overhead``.
    ``profile_shares`` works as in :func:`bench_copier_refresh`.
    """
    from repro.baselines import StrictROWA
    from repro.net.latency import ConstantLatency
    from repro.system import DatabaseSystem
    from repro.txn.config import TxnConfig

    per_client = max(1, n_txns // n_clients)

    def run() -> int:
        kernel = Kernel(seed=0)
        system = DatabaseSystem(
            kernel, 3, {f"X{c}": 0 for c in range(n_clients)},
            strategy_factory=lambda _s: StrictROWA(),
            latency=ConstantLatency(1.0),
            config=TxnConfig(mvcc=mvcc),
        )
        profiler = None
        if profile_shares is not None:
            from repro.obs.profiler import HostProfiler

            profiler = HostProfiler()
            profiler.attach(kernel)
        system.boot()

        def client(c: int):
            item = f"X{c}"
            home = 1 + c % len(system.tms)

            def increment(ctx):
                value = yield from ctx.read(item)
                yield from ctx.write(item, value + 1)

            for _ in range(per_client):
                yield from system.tms[home].run(increment)

        procs = [
            kernel.process(client(c), name=f"bench-wall{c}")
            for c in range(n_clients)
        ]
        for proc in procs:
            kernel.run(proc)
        system.stop()
        if profiler is not None and profile_shares is not None:
            profile_shares.clear()
            profile_shares.update(
                {label: round(share, 4) for label, share in profiler.shares().items()}
            )
        return per_client * n_clients

    # One discarded warmup run: the on/off twins are compared as a
    # ratio, and the first time this code path executes in a process it
    # pays the adaptive-interpreter specialization cost — measured at
    # up to ~20% on the first twin, ~0 once warm. Self-warming keeps
    # the gate honest regardless of which twin the suite times first.
    run()
    return _best_of(run, repeats)


def ro_overhead_fraction(metrics: dict) -> float | None:
    """Writer-side cost of the mvcc subsystem on the RMW commit bench.

    ``1 - on/off``: the fraction of wall-clock transaction throughput
    lost to maintaining version chains on every committed write
    (``txn_wall_per_s`` vs its ``_mvcc_off`` twin). Clamped at 0;
    ``None`` when either metric is missing.
    """
    with_mvcc = metrics.get("txn_wall_per_s")
    without = metrics.get("txn_wall_mvcc_off_per_s")
    if not with_mvcc or not without:
        return None
    return max(0.0, 1.0 - with_mvcc / without)


def overhead_fraction(metrics: dict) -> float | None:
    """Instrumentation overhead on the kernel-events bench.

    ``1 - obs_off/plain``: the fraction of kernel event throughput lost
    to carrying a disabled observability bundle. Negative values (noise
    in the bundle's favour) are clamped to 0. ``None`` when either
    metric is missing.
    """
    plain = metrics.get("kernel_events_per_s")
    with_obs = metrics.get("kernel_events_obs_off_per_s")
    if not plain or not with_obs:
        return None
    return max(0.0, 1.0 - with_obs / plain)


def attribution_overhead_fraction(metrics: dict) -> float | None:
    """Live-sampler overhead on the kernel-events bench.

    ``1 - sampled/plain``: the fraction of kernel event throughput lost
    to a running :class:`~repro.obs.timeseries.WindowedSampler` timer —
    the cost of the ``repro latency`` telemetry when it is switched on.
    Clamped at 0; ``None`` when either metric is missing.
    """
    plain = metrics.get("kernel_events_per_s")
    sampled = metrics.get("kernel_events_sampled_per_s")
    if not plain or not sampled:
        return None
    return max(0.0, 1.0 - sampled / plain)


def profiler_overhead_fraction(metrics: dict) -> float | None:
    """Host-CPU-profiler overhead on the kernel-events bench.

    ``1 - profiled/plain``: the fraction of kernel event throughput
    lost to the drain loop's run-length-batched profiler clock reads —
    the cost of ``repro profile``'s attribution view when it is on.
    Clamped at 0; ``None`` when either metric is missing.
    """
    plain = metrics.get("kernel_events_per_s")
    profiled = metrics.get("kernel_events_profiled_per_s")
    if not plain or not profiled:
        return None
    return max(0.0, 1.0 - profiled / plain)


def profile_shares(quick: bool = False) -> dict:
    """Per-subsystem host-CPU shares of the two system-level workloads.

    Runs a small copier-refresh recovery and a short RMW commit loop
    with a :class:`~repro.obs.profiler.HostProfiler` attached and
    records where the interpreter actually spends its time (shares
    rounded to 4 decimals). Stored under the trajectory entry's
    ``obs.profile`` key; ``bench --check`` compares it against the
    baseline entry and prints *advisory* drift lines (see
    :func:`share_drift`) — shares move with interpreter version and
    workload tuning, so they inform rather than gate. Untimed: these
    runs exist for attribution, not throughput.
    """
    copier: dict = {}
    bench_copier_refresh(
        n_items=4 if quick else 8, repeats=1, profile_shares=copier
    )
    txn: dict = {}
    bench_txn_wall(
        n_txns=20 if quick else 60, repeats=1, profile_shares=txn
    )
    return {"copier_refresh": copier, "txn_rmw": txn}


def share_drift(
    baseline: dict, current: dict, threshold: float = 0.10
) -> list[str]:
    """Advisory CPU-share drift lines between two ``obs.profile`` maps.

    Reports every subsystem whose share of a common workload moved by
    more than ``threshold`` (10 points by default) in either direction.
    Advisory only: the lines are printed by ``bench --check`` but never
    fail the gate.
    """
    lines = []
    for workload in sorted(set(baseline) & set(current)):
        old_map = baseline[workload] or {}
        new_map = current[workload] or {}
        for label in sorted(set(old_map) | set(new_map)):
            old = float(old_map.get(label, 0.0))
            new = float(new_map.get(label, 0.0))
            if abs(new - old) > threshold:
                lines.append(
                    f"profile share drift {workload}/{label}: "
                    f"{old:.1%} -> {new:.1%}  (advisory)"
                )
    return lines


def run_suite(quick: bool = False, snapshots: dict | None = None) -> dict:
    """Run every microbench; returns ``{metric: value}``.

    ``snapshots``, if given, is filled with the global metrics snapshot
    of the system-level benches (see :func:`bench_copier_refresh`) plus
    the per-subsystem host-CPU shares under ``"profile"`` (see
    :func:`profile_shares`).
    """
    n_txns = 60 if quick else 200
    sync = bench_txn_throughput(
        n_txns=n_txns, commit_mode="sync_2pc", snapshots=snapshots
    )
    async_q = bench_txn_throughput(
        n_txns=n_txns, commit_mode="async_quorum", snapshots=snapshots
    )
    commit_metrics = {
        "txn_throughput_per_s": sync["throughput"],
        "txn_throughput_async_per_s": async_q["throughput"],
        "txn_commit_p50": sync["p50"],
        "txn_commit_p99": sync["p99"],
        "txn_commit_p50_async": async_q["p50"],
        "txn_commit_p99_async": async_q["p99"],
    }
    mvcc_metrics = {
        "ro_read_throughput_per_s": bench_ro_read_throughput(
            n_txns=100 if quick else 300, repeats=2 if quick else 3
        ),
        "txn_wall_per_s": bench_txn_wall(
            n_txns=n_txns, mvcc=True, repeats=2 if quick else 3
        ),
        "txn_wall_mvcc_off_per_s": bench_txn_wall(
            n_txns=n_txns, mvcc=False, repeats=2 if quick else 3
        ),
    }
    if snapshots is not None:
        snapshots["profile"] = profile_shares(quick=quick)
    if quick:
        return {
            "kernel_events_per_s": bench_kernel_events(n=4_000, repeats=3),
            "kernel_events_obs_off_per_s": bench_kernel_events_obs_off(
                n=4_000, repeats=3
            ),
            "kernel_events_sampled_per_s": bench_kernel_events_sampled(
                n=4_000, repeats=3
            ),
            "kernel_events_profiled_per_s": bench_kernel_events_profiled(
                n=4_000, repeats=3
            ),
            "timeout_churn_per_s": bench_timeout_churn(n=4_000, repeats=3),
            "copier_refresh_per_s": bench_copier_refresh(
                n_items=8, repeats=1, snapshots=snapshots
            ),
            "copier_refresh_audited_per_s": bench_copier_refresh(
                n_items=8, repeats=1, audit=True
            ),
            **commit_metrics,
            **mvcc_metrics,
        }
    return {
        "kernel_events_per_s": bench_kernel_events(),
        "kernel_events_obs_off_per_s": bench_kernel_events_obs_off(),
        "kernel_events_sampled_per_s": bench_kernel_events_sampled(),
        "kernel_events_profiled_per_s": bench_kernel_events_profiled(),
        "timeout_churn_per_s": bench_timeout_churn(),
        "copier_refresh_per_s": bench_copier_refresh(snapshots=snapshots),
        "copier_refresh_audited_per_s": bench_copier_refresh(audit=True),
        **commit_metrics,
        **mvcc_metrics,
    }


# -- trajectory persistence ----------------------------------------------------


def load_trajectory(path: str) -> dict:
    """Read a trajectory file; an empty skeleton if absent/corrupt."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {"benchmark": "kernel", "entries": []}
    data.setdefault("entries", [])
    return data


def append_entry(
    path: str,
    metrics: dict,
    label: str,
    quick: bool = False,
    snapshots: dict | None = None,
) -> dict:
    """Append one labelled run to the trajectory at ``path``."""
    trajectory = load_trajectory(path)
    entry = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "metrics": {key: round(value, 1) for key, value in metrics.items()},
    }
    if snapshots:
        entry["obs"] = snapshots
    trajectory["entries"].append(entry)
    with open(path, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    return entry


def compare(
    baseline_metrics: dict,
    metrics: dict,
    max_regression: float = 0.30,
    gate_metric: str = GATE_METRIC,
) -> tuple[bool, str]:
    """Regression verdict of ``metrics`` against ``baseline_metrics``.

    Returns ``(ok, report)``; ``ok`` is False when the gate metric lost
    more than ``max_regression`` of its baseline value. Other metrics
    are reported but advisory (end-to-end benches are noisier).
    """
    lines = []
    ok = True
    for key in sorted(set(baseline_metrics) | set(metrics)):
        old = baseline_metrics.get(key)
        new = metrics.get(key)
        if not old or new is None:
            lines.append(f"{key}: baseline n/a, now {new}")
            continue
        ratio = new / old
        marker = ""
        if key == gate_metric and ratio < 1.0 - max_regression:
            ok = False
            marker = f"  << REGRESSION (>{max_regression:.0%} drop)"
        lines.append(f"{key}: {old:.1f} -> {new:.1f}  ({ratio:.2f}x){marker}")
    return ok, "\n".join(lines)


def latest_entry(trajectory: dict, quick: bool | None = None) -> dict | None:
    """The most recent entry, optionally filtered by quick/full mode."""
    for entry in reversed(trajectory.get("entries", [])):
        if quick is None or bool(entry.get("quick")) == quick:
            return entry
    entries = trajectory.get("entries", [])
    return entries[-1] if entries else None
