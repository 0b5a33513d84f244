"""One measured round of one workload, run in a process of its own.

``python3 -m perfbench.scenario --workload NAME --seed N [--traced]``
runs the workload's independent replicas one after another (each builds
its system, drives the load window, quiesces, verifies and gates), pools
them, and prints one JSON object: the deterministic results (``det``:
sim-time and count metrics, identical for a fixed seed), the host-time
results (``host``) and, when traced, the per-layer metrics (``layers``).
:mod:`perfbench.run` starts one of these per round, one after another,
so every round pays its own imports and set-up and its peak resident set
is its own.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import json
import math
import pathlib
import resource
import sys
import time

# Before the system under test is imported: set-up time counts from here
# when the parent passes no spawn instant.
_STARTED = time.monotonic()

from perfbench import gate, layers, workloads  # noqa: E402
from repro.harness.runner import cell_seed, quiesce  # noqa: E402
from repro.obs.metrics import percentile  # noqa: E402

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Message kinds reported one by one, each with its ``.reply``; the rest
#: are summed as ``other``.
MSG_KINDS = (
    "dm.write", "dm.prepare", "dm.commit", "dm.read", "dm.release", "dm.abort",
    "rpc.batch",
)
#: Abort reasons reported one by one; the rest are summed as ``other``.
ABORT_REASONS = (
    "deadlock-detected", "rpc-timeout", "session-mismatch", "copy-unreadable",
    "transaction-error",
)


class DrainWatch:
    """Remembers each recovery's drain instant before the next resets it.

    ``CopierService.drained_at`` holds the moment the site's last
    unreadable mark cleared, and a new recovery resets it; wrapping the
    reset on each copier instance keeps every value.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.before_reset: dict[int, list] = {site: [] for site in system.copiers}
        for site_id, copier in system.copiers.items():
            copier.reset_drain_marker = self._wrap(site_id, copier)

    def _wrap(self, site_id, copier):
        original = copier.reset_drain_marker

        def reset():
            self.before_reset[site_id].append(copier.drained_at)
            original()

        return reset

    def times(self) -> tuple[list[float], list[float]]:
        """Power-on to operational, and power-on to fully current."""
        operational, current = [], []
        for site_id, manager in self.system.recoveries.items():
            drains = self.before_reset[site_id][1:]
            drains.append(self.system.copiers[site_id].drained_at)
            for record, drained in zip(manager.records, drains):
                if record.time_to_operational is not None:
                    operational.append(record.time_to_operational)
                if drained is not None and drained >= record.power_on_at:
                    current.append(drained - record.power_on_at)
        return operational, current


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """The highest of p99 or p90 with at least ten samples ranked beyond it.

    Returns (value, percentile, samples ranked beyond). Counting ranks
    (those of :func:`repro.obs.metrics.percentile`) rather than strictly
    larger values makes the choice depend on the sample count alone, not
    on ties. Falls back to p90 when neither qualifies.
    """
    n = len(latencies)

    def beyond(pct: int) -> int:
        return n - 1 - int(math.floor(pct / 100 * (n - 1) + 0.5)) if n else 0

    pct = 99 if beyond(99) >= 10 else 90
    return percentile(latencies, pct), pct, beyond(pct)


def _per(count: float, base: float, scale: float = 1.0) -> float:
    return count * scale / base if base else 0.0


class Pool:
    """Raw counts and samples summed over a round's replicas."""

    def __init__(self) -> None:
        self.n = collections.Counter()
        self.aborts = collections.Counter()
        self.msgs = collections.Counter()
        self.latencies: list[float] = []
        self.operational: list[float] = []
        self.current: list[float] = []
        self.ops_retained = 0

    def add(self, workload, system, client, ledger, watch, start: dict) -> None:
        n = self.n
        stats = client.stats
        for field in ("attempted", "committed", "aborted", "refused", "ro_attempted",
                      "ro_committed", "ro_aborted", "ro_refused"):
            n[field] += getattr(stats, field)
        self.latencies += (
            collections.Counter(stats.latencies) - collections.Counter(stats.ro_latencies)
        ).elements()
        operational, current = watch.times()
        self.operational += operational
        self.current += current
        sites = [system.cluster.site(site_id) for site_id in system.cluster.site_ids]
        network = system.cluster.network.stats
        n["window"] += workload.duration
        n["sent"] += network.sent
        n["bytes_sent"] += network.bytes_sent
        n["dropped"] += network.dropped
        self.msgs.update(network.by_kind)
        n["stable_bytes"] += sum(s.stable.bytes_written for s in sites) - start["stable"]
        n["puts"] += sum(s.stable.writes for s in sites) - start["puts"]
        n["events"] += system.kernel.events_processed - start["events"]
        for tm in system.tms.values():
            n["tm_finished"] += tm.stats.committed + tm.stats.aborted
            self.aborts.update(tm.stats.aborts_by_reason)
        n["victims"] += system.deadlock_detector.victims_chosen
        for site in sites:
            wal = site.wal.stats
            n["wal_records"] += wal.records_appended
            n["flushes"] += wal.flushes
            n["records_flushed"] += wal.records_flushed
            n["checkpoints"] += wal.checkpoints
            n["crashes"] += site.crash_count
            n["rpc_batched_calls"] += site.rpc.stats_batched_calls
        for copier in system.copiers.values():
            c = copier.stats
            n["copies_performed"] += c.copies_performed
            n["copies_skipped"] += c.copies_skipped_version
            n["refreshes"] += c.copies_performed + c.copies_skipped_version + c.resurrections
            n["copier_aborts"] += c.copier_aborts
        records = system.recovery_records()
        n["recoveries"] += len(records)
        n["marked"] += sum(r.marked_items for r in records)
        n["type1"] += sum(r.type1_attempts for r in records)
        n["type2"] += sum(r.type2_runs for r in records) + sum(
            c.type2_committed + c.type2_aborted for c in system.controls.values()
        )
        n["session_rejections"] += system.obs.registry.value("dm.session_mismatch")
        n["unreadable_rejections"] += sum(
            dm.stats_unreadable_rejections for dm in system.dms.values()
        )
        for store in system.mvcc.values():
            n["ro_served"] += store.stats.ro_served
            n["ro_served_stale"] += store.stats.ro_served_stale
            n["gc_reclaimed"] += store.stats.gc_reclaimed
            n["gc_sweeps"] += store.stats.gc_sweeps
        n["ops"] += len(system.recorder.ops)
        self.ops_retained = max(self.ops_retained, len(system.recorder.ops))
        n["retries"] += ledger.retries

    def metrics(self) -> dict:
        """The deterministic metrics: end to end, then per layer."""
        n, committed = self.n, self.n["committed"]
        tail_value, tail_pct, tail_beyond = tail(self.latencies)
        by_kind = {
            kind: self.msgs[kind] + self.msgs[f"{kind}.reply"] for kind in MSG_KINDS
        }
        kinds = {f"net.msgs.{kind}_per_commit": _per(count, committed)
                 for kind, count in by_kind.items()}
        kinds["net.msgs.other_per_commit"] = _per(
            n["sent"] - sum(by_kind.values()), committed
        )
        reasons = {f"txn.tm.abort.{reason}_frac": _per(self.aborts[reason], n["tm_finished"])
                   for reason in ABORT_REASONS}
        reasons["txn.tm.abort.other_frac"] = _per(
            sum(self.aborts.values()) - sum(self.aborts[r] for r in ABORT_REASONS),
            n["tm_finished"],
        )
        failed_frac = _per(n["aborted"] + n["refused"], n["attempted"])
        return {
            # Failure accounting, with its bases.
            **{field: n[field] for field in (
                "attempted", "committed", "aborted", "refused", "ro_attempted",
                "ro_committed", "ro_aborted", "ro_refused", "tm_finished",
            )},
            "aborts_by_reason": dict(sorted(self.aborts.items())),
            # End to end, sim time and counts.
            "ack_p50_sim": percentile(self.latencies, 50),
            "ack_tail_sim": tail_value,
            "ack_tail_pct": tail_pct,
            "ack_tail_beyond": tail_beyond,
            "ack_samples": len(self.latencies),
            "goodput_per_ksim": _per(committed, n["window"], 1000.0),
            "failed_frac": failed_frac,
            "operational_p50_sim": percentile(self.operational, 50),
            "operational_n": len(self.operational),
            "fully_current_p50_sim": percentile(self.current, 50),
            "fully_current_n": len(self.current),
            "msgs_per_commit": _per(n["sent"], committed),
            "wire_bytes_per_commit": _per(n["bytes_sent"], committed),
            "stable_bytes_per_commit": _per(n["stable_bytes"], committed),
            # Per layer, exact from public stats.
            "sim.events_per_commit": _per(n["events"], committed),
            **kinds,
            "net.dropped_frac": _per(n["dropped"], n["sent"]),
            "net.rpc_batched_calls": n["rpc_batched_calls"],
            "txn.deadlock.victims_per_kcommit": _per(n["victims"], committed, 1000.0),
            **reasons,
            "wal.records_per_commit": _per(n["wal_records"], committed),
            "wal.flushes_per_commit": _per(n["flushes"], committed),
            "wal.records_per_flush": _per(n["records_flushed"], n["flushes"]),
            "wal.checkpoints_per_kcommit": _per(n["checkpoints"], committed, 1000.0),
            "storage.stable.puts_per_commit": _per(n["puts"], committed),
            "core.copier.refreshes_per_recovery": _per(n["refreshes"], n["recoveries"]),
            "core.copier.useful_frac": _per(
                n["copies_performed"], n["copies_performed"] + n["copies_skipped"]
            ),
            "core.copier.aborts_per_refresh": _per(n["copier_aborts"], n["refreshes"]),
            "core.recovery.recoveries": n["recoveries"],
            "core.recovery.operational_p50_sim": percentile(self.operational, 50),
            "core.recovery.fully_current_p50_sim": percentile(self.current, 50),
            "core.recovery.marked_per_recovery": _per(n["marked"], n["recoveries"]),
            "core.recovery.type1_attempts_per_recovery": _per(n["type1"], n["recoveries"]),
            "core.control.type2_runs_per_crash": _per(n["type2"], n["crashes"]),
            "core.session.rejections_per_kcommit": _per(
                n["session_rejections"], committed, 1000.0
            ),
            "core.unreadable.rejections_per_kcommit": _per(
                n["unreadable_rejections"], committed, 1000.0
            ),
            "mvcc.reads_served_per_commit": _per(n["ro_served"], committed),
            "mvcc.stale_served_frac": _per(n["ro_served_stale"], n["ro_served"]),
            "mvcc.gc_reclaimed_per_sweep": _per(n["gc_reclaimed"], n["gc_sweeps"]),
            "histories.ops_per_commit": _per(n["ops"], committed),
            "histories.ops_retained": self.ops_retained,
            "workload.failed_frac": failed_frac,
            "workload.retries_per_commit": _per(n["retries"], committed),
            "workload.ro_refused_frac": _per(n["ro_refused"], n["ro_attempted"]),
        }


def replica_seeds(workload: workloads.Workload, seed: int) -> list[int]:
    """The independent seeds of one round's replicas, fixed by ``seed``."""
    return [
        cell_seed("perfbench", workload.name, seed, index)
        for index in range(workload.replicas)
    ]


def run_round(
    workload: workloads.Workload, seed: int, traced: bool, spawned_at: float
) -> dict:
    """Run one round; raises :class:`gate.GateFailure` on a failed check."""
    clock = layers.HostClock()
    tracer = layers.Tracer(clock) if traced else None
    with tracer if tracer is not None else contextlib.nullcontext():
        return _run(workload, seed, clock, tracer, spawned_at)


def _run(workload, seed, clock, tracer, spawned_at) -> dict:
    pool = Pool()
    host = collections.Counter()
    stable_split = collections.Counter()
    setup_s = None
    for index, replica_seed in enumerate(replica_seeds(workload, seed)):
        tb = time.perf_counter_ns()
        kernel, system = workloads.build(workload, replica_seed)
        ledger = gate.Ledger()
        ledger.attach(system)
        watch = DrainWatch(system)
        client = workloads.start_load(workload, system, replica_seed)
        sites = [system.cluster.site(site_id) for site_id in system.cluster.site_ids]
        start = {
            "stable": sum(site.stable.bytes_written for site in sites),
            "puts": sum(site.stable.writes for site in sites),
            "events": kernel.events_processed,
        }
        if tracer is not None:
            stable_split.subtract(tracer.stable_bytes)
            spans_before = len(tracer.spans)
        if setup_s is None:
            setup_s = time.monotonic() - spawned_at
        t0 = time.perf_counter_ns()
        kernel.run(until=workload.duration)
        quiesce(kernel, system)
        # The simulate phase pays for collecting its own cyclic garbage,
        # so a collection does not land in the checkers' time by chance.
        gc.collect()
        t1 = time.perf_counter_ns()
        one_sr, theorem3 = gate.verify(system, clock)
        t2 = time.perf_counter_ns()
        gate.check(
            workload.name, seed, system, ledger, one_sr, theorem3,
            where=f"replica {index} (seed {replica_seed})",
        )
        host["sim_ns"] += t1 - t0
        host["verify_ns"] += t2 - t1
        host["wall_ns"] += t2 - tb
        pool.add(workload, system, client, ledger, watch, start)
        if tracer is not None:
            stable_split.update(tracer.stable_bytes)
            tracer.collect_locks()
            tracer.link_recoveries(system.recovery_records(), since=spans_before)

    det = pool.metrics()
    committed = det["committed"]
    sim_s = host["sim_ns"] / 1e9
    result = {
        "workload": workload.name,
        "seed": seed,
        "det": det,
        "host": {
            "setup_s": setup_s,
            "sim_s": sim_s,
            "wall_s": host["wall_ns"] / 1e9,
            "one_sr_s": clock.seconds("histories.check_one_sr"),
            "theorem3_s": clock.seconds("histories.check_theorem3"),
            "verify_s": host["verify_ns"] / 1e9,
            "host_commits_per_s": committed / sim_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, clock, host["wall_ns"], det, stable_split)
        tracer.write(
            OUT_DIR / f"spans-{workload.name}-{seed}.jsonl",
            {"workload": workload.name, "seed": seed, "wall_ns": host["wall_ns"],
             "self_ns": dict(clock.self_ns), "calls": dict(clock.calls)},
        )
    return result


def _layer_metrics(tracer, clock, wall_ns: int, det: dict, stable_split) -> dict:
    """Per-layer metrics that need the wrappers: shares of the traced wall
    and counts taken at the entry points."""
    clock.check(wall_ns)
    committed = det["committed"]

    def share(*keys: str) -> float:
        return sum(clock.self_ns[key] for key in keys) / wall_ns

    rpc_calls = clock.calls["net.RpcNode.call"]
    grants, waits = tracer.lock_grants, tracer.lock_waits
    commit_rounds = tracer.sim_durations("txn.commit")
    refresh = tracer.sim_durations("txn.run", kind="copier")
    return {
        "sim.unattributed_share": (wall_ns - clock.covered_ns) / wall_ns,
        "net.rpc_calls_per_commit": _per(rpc_calls, committed),
        "net.rpc_batched_frac": _per(det["net.rpc_batched_calls"], rpc_calls),
        "net.send_self_share": share("net.Network.send", "net.RpcNode.call"),
        "txn.locks.grants_per_commit": _per(grants, committed),
        "txn.locks.wait_frac": _per(waits, grants),
        "txn.locks.self_share": share(
            *(key for key in clock.self_ns if key.startswith("txn.LockManager."))
        ),
        "txn.tm.commit_round_sim": _per(sum(commit_rounds), len(commit_rounds)),
        "wal.flush_self_share": share(
            "wal.SiteWal.flush", "wal.SiteWal.checkpoint", "wal.RedoLog.append"
        ),
        "storage.stable.meta_bytes_per_commit": _per(stable_split["meta"], committed),
        "storage.stable.segment_bytes_per_commit": _per(stable_split["segment"], committed),
        "storage.stable.ckpt_bytes_per_commit": _per(stable_split["ckpt"], committed),
        "storage.stable.put_self_share": share(
            "storage.StableStorage.put", "storage.StableStorage.get"
        ),
        "storage.copies.applies_per_commit": _per(
            clock.calls["storage.CopyStore.apply_write"], committed
        ),
        "core.copier.refresh_sim": _per(sum(refresh), len(refresh)),
        "mvcc.versions_retained_peak": tracer.versions_peak,
        "mvcc.read_self_share": share(
            "mvcc.MultiVersionStore.read_at", "mvcc.MultiVersionStore.sweep"
        ),
        "histories.record_self_share": share(
            "histories.HistoryRecorder.record_read",
            "histories.HistoryRecorder.record_write",
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--spawned-at", type=float, default=_STARTED,
        help="time.monotonic() at which the parent started this process",
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        result = run_round(workload, args.seed, args.traced, args.spawned_at)
    except gate.GateFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
