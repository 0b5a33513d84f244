"""Microbenchmarks of the substrates themselves (real multi-round runs).

These measure the *simulator's* throughput, not the protocol: how many
virtual events, lock operations, RPC round trips, and checker runs a
second of wall time buys. Useful for sizing experiments and for
catching performance regressions in the kernel. Wall-clock numbers
compare only on one machine::

    pytest benchmarks/test_microbench.py --benchmark-autosave
    pytest benchmarks/test_microbench.py --benchmark-compare \
        --benchmark-compare-fail=min:30%

The commit-mode pair is measured in simulated time instead, so it is an
exact assertion that holds on any machine.
"""

import pytest

from repro.baselines import StrictROWA
from repro.harness.metrics import percentile
from repro.harness.runner import closed_loop_rmw
from repro.histories import HistoryRecorder, check_one_sr
from repro.net import ConstantLatency, Network, RpcNode
from repro.sim import Kernel
from repro.system import DatabaseSystem
from repro.txn import LockManager, LockMode, TxnConfig


def test_kernel_event_throughput(benchmark):
    """Schedule-and-drain 10k timeout events."""

    def run():
        kernel = Kernel(seed=0)
        for index in range(10_000):
            kernel.timeout(index % 97)
        kernel.run()
        return kernel.now

    assert benchmark(run) > 0


def test_process_switch_throughput(benchmark):
    """Two processes ping-ponging through 2k queue handoffs."""

    def run():
        from repro.sim import Queue

        kernel = Kernel(seed=0)
        ping, pong = Queue(kernel), Queue(kernel)

        def left():
            for index in range(1000):
                ping.put(index)
                yield pong.get()

        def right():
            for _ in range(1000):
                value = yield ping.get()
                pong.put(value)

        kernel.process(left())
        kernel.process(right())
        kernel.run()
        return True

    assert benchmark(run)


def test_timeout_cancellation_churn(benchmark):
    """10k scheduled timers, 90% cancelled before firing.

    The RPC layer's dominant pattern: a per-call timeout timer that is
    almost always cancelled because the reply lands first. Exercises
    the lazy-cancellation path — cancel is O(1), dead entries are
    skipped at pop time and never count as processed events.
    """

    def noop():
        return None

    def run():
        kernel = Kernel(seed=0)
        timers = [
            kernel.schedule_callback(5.0 + (index % 13), noop)
            for index in range(10_000)
        ]
        for index, timer in enumerate(timers):
            if index % 10 != 0:
                timer.cancel()
        kernel.run()
        return kernel.events_processed

    assert benchmark(run) == 1000


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audited"])
def test_copier_refresh_throughput(benchmark, audit):
    """Crash a site, miss 16 updates, recover, drain the copiers.

    ``audited`` runs the same recovery under the online protocol
    auditor: the gap between the two is the price of live invariant
    checking.
    """
    from repro.audit import attach_auditor
    from repro.baselines import build_rowaa_system

    n_items = 16

    def write_program(item, value):
        def program(ctx):
            yield from ctx.write(item, value)

        return program

    def run():
        kernel = Kernel(seed=0)
        system = build_rowaa_system(
            kernel, 3, {f"X{i}": 0 for i in range(n_items)},
            latency=ConstantLatency(1.0), config=TxnConfig(),
        )
        if audit:
            attach_auditor(system)
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        for index in range(n_items):
            kernel.run(
                system.submit_with_retry(
                    1, write_program(f"X{index}", index), attempts=4
                )
            )
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 2000)
        system.stop()
        return system.copiers[3].stats.copies_performed

    assert benchmark(run) >= n_items


def test_lock_manager_throughput(benchmark):
    """5k uncontended acquire/release cycles."""

    def run():
        kernel = Kernel(seed=0)
        manager = LockManager(kernel, site_id=1)
        for index in range(5000):
            txn = f"T{index}@1"
            manager.acquire(txn, f"item{index % 50}", LockMode.X)
            manager.release_all(txn)
        kernel.run()
        return manager.stats_grants

    assert benchmark(run) == 5000


def test_rpc_roundtrip_throughput(benchmark):
    """500 sequential remote echo calls."""

    def run():
        kernel = Kernel(seed=0)
        network = Network(kernel, latency=ConstantLatency(0.1))
        a = RpcNode(kernel, network, 1)
        b = RpcNode(kernel, network, 2)
        a.start()
        b.start()
        b.register("echo", lambda payload, src: payload)

        def caller():
            for index in range(500):
                got = yield a.call(2, "echo", index)
                assert got == index
            return True

        return kernel.run(kernel.process(caller()))

    assert benchmark(run)


def test_transaction_throughput_3sites(benchmark):
    """200 sequential replicated read-modify-write transactions."""
    system, _ = benchmark(closed_loop_rmw, 200, n_clients=1)
    assert system.copy_value(1, "X0") == 200


@pytest.mark.parametrize("n_txns", [60, 200])
def test_async_quorum_triples_sync_2pc_throughput(n_txns):
    """Sync 2PC acks after three round trips (write, prepare, commit: 6
    units at unit latency); async quorum pipelines the prepare into the
    write and acks once a majority is prepared (2 units). README's
    commit-mode comparison rests on this."""

    def run(commit_mode):
        system, elapsed = closed_loop_rmw(n_txns, commit_mode)
        acks = [ack for tm in system.tms.values() for ack in tm.stats.ack_latencies]
        return n_txns / elapsed, percentile(acks, 50), percentile(acks, 99)

    sync, fast = run("sync_2pc"), run("async_quorum")
    assert sync == pytest.approx((2 / 3, 6.0, 6.0))
    assert fast == (2.0, 2.0, 2.0)
    assert fast[0] / sync[0] == pytest.approx(3.0)


def test_snapshot_read_service_rate(benchmark):
    """300 read-only transactions of 8 snapshot reads each at one site.

    The whole path is lock-free and local, so it measures the per-read
    cost of the version chains. Local serves do not advance the clock,
    so only wall time can measure it.
    """
    names = tuple(f"X{i}" for i in range(8))

    def run():
        kernel = Kernel(seed=0)
        system = DatabaseSystem(
            kernel, 3, dict.fromkeys(names, 0),
            strategy_factory=lambda _s: StrictROWA(),
            latency=ConstantLatency(1.0), config=TxnConfig(),
        )
        system.boot()

        def write_all(ctx):
            for item in names:
                yield from ctx.write(item, 1)

        kernel.run(system.submit(1, write_all))

        def ro_program(ctx):
            return (yield from ctx.read_many(names))

        def ro_loop():
            for _ in range(300):
                yield from system.tms[1].run_ro(ro_program)

        kernel.run(kernel.process(ro_loop()))
        system.stop()
        return system.mvcc[1].stats.ro_served

    assert benchmark(run) >= 300 * len(names)


def test_one_sr_checker_throughput(benchmark):
    """Check a 300-transaction serial history."""

    recorder = HistoryRecorder()
    time = 0.0
    for seq in range(1, 301):
        txn = f"T{seq}@1"
        time += 1.0
        item = f"X{seq % 10}"
        recorder.record_read(time, txn, seq, "user", item, 1,
                             version_seq=max(0, seq - 10),
                             version_ts=max(0.0, time - 10),
                             version_commit=max(0, seq - 10))
        recorder.record_write(time, txn, seq, "user", item, 1,
                              version_seq=seq, version_ts=time,
                              version_commit=seq)
        recorder.mark_committed(txn)

    def run():
        return check_one_sr(recorder).ok

    assert benchmark(run)
