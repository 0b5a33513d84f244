"""Restart-by-replay: power-on reconstructs purely from checkpoint + log.

Every site owns a WAL: the restore path resets the in-memory store and
rebuilds it, rather than letting committed copies survive a crash in
memory ("stable by construction"). These tests corrupt the volatile
structures while the site is down to prove nothing "magically survives".
"""

import functools

import pytest

from repro.baselines.spooler import SpoolerSystem
from repro.baselines.systems import DirectorySystem
from repro.core import RowaaConfig, RowaaSystem
from repro.mvcc import MultiVersionStore
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.storage.copies import Version
from repro.storage.stable import StableStorage
from repro.txn import TxnConfig
from repro.wal import SiteWal, WalConfig
from repro.wal.log import CHECKPOINT_KEY
from repro.wal.wal import load_checkpoint
from tests.core.conftest import write_program


def build_wal_system(
    seed=11, wal_config=None, rowaa_config=None, items=None, txn_config=None
):
    kernel = Kernel(seed=seed)
    system = RowaaSystem(
        kernel,
        n_sites=3,
        items=items if items is not None else {"X": 0, "Y": 0, "Z": 0},
        latency=ConstantLatency(1.0),
        rowaa_config=rowaa_config if rowaa_config is not None else RowaaConfig(),
        config=txn_config if txn_config is not None else TxnConfig(rpc_timeout=30.0),
        wal_config=wal_config,
    )
    system.boot()
    return kernel, system


_SYSTEM_KINDS = {
    "2pl": RowaaSystem,
    "to": functools.partial(RowaaSystem, concurrency="to"),
    "spooler": SpoolerSystem,
    "directory": DirectorySystem,
}


class TestGenesis:
    @pytest.mark.parametrize("kind", list(_SYSTEM_KINDS))
    def test_boot_writes_a_genesis_checkpoint_everywhere(self, kind):
        system = _SYSTEM_KINDS[kind](
            Kernel(seed=11), n_sites=3, items={"X": 0, "Y": 0},
            latency=ConstantLatency(1.0),
        )
        system.boot()
        for site_id in system.cluster.site_ids:
            site = system.cluster.site(site_id)
            assert isinstance(site.wal, SiteWal)
            assert site.wal.stats.checkpoints >= 1
            assert site.stable.get(CHECKPOINT_KEY) is not None


class TestRestartByReplay:
    def test_restart_survives_corrupted_volatile_state(self):
        """The old shortcut path is deliberately poisoned while down."""
        kernel, system = build_wal_system(seed=12)
        kernel.run(system.submit(1, write_program("X", 7)))
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit(1, write_program("Y", 8)))
        # Corrupt everything the legacy path would have read back.
        victim = system.cluster.site(3)
        victim.copies.reset()
        victim.copies.create("X", -999)
        victim.copies.install("Y", -999, Version(999.0, 10**9, 0))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        system.stop()
        assert victim.wal.stats.replays == 1
        for item in ("X", "Y", "Z"):
            assert system.copy_value(3, item) == system.copy_value(1, item)
            assert (
                victim.copies.get(item).version
                == system.cluster.site(1).copies.get(item).version
            )
        assert system.unreadable_counts()[3] == 0

    def test_unreadable_marks_are_durable(self):
        """Marks set during recovery survive a crash mid-recovery."""
        kernel, system = build_wal_system(seed=13)
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit(1, write_program("X", 1)))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        # Fully recovered. Crash again and also nuke the volatile store:
        # the durable image must still carry the *cleared* marks.
        system.crash(3)
        victim = system.cluster.site(3)
        victim.copies.reset()
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        system.stop()
        assert system.unreadable_counts()[3] == 0
        assert system.copy_value(3, "X") == 1

    def test_group_commit_loses_nothing_in_clean_runs(self):
        kernel, system = build_wal_system(seed=14)
        for value in range(5):
            kernel.run(system.submit(1, write_program("X", value)))
        system.crash(2)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(2))
        kernel.run(until=kernel.now + 200)
        system.stop()
        for site_id in system.cluster.site_ids:
            wal = system.cluster.site(site_id).wal
            # Every commit group-flushed before acknowledging: a crash
            # between transactions finds an empty volatile tail.
            assert wal.stats.records_lost_unflushed == 0

    def test_checkpoints_bound_replay_work(self):
        kernel, system = build_wal_system(
            seed=15, wal_config=WalConfig(checkpoint_every=8, retain_records=16)
        )
        for value in range(30):
            kernel.run(system.submit(1, write_program("X", value)))
        site = system.cluster.site(1)
        assert site.wal.stats.checkpoints >= 2
        assert site.wal.checkpoint_lag < 30
        system.crash(1)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(1))
        kernel.run(until=kernel.now + 200)
        system.stop()
        # Replay touched only the post-checkpoint suffix, not the epoch.
        assert site.wal.stats.records_replayed <= site.wal.config.checkpoint_every + 16
        assert system.copy_value(1, "X") == 29


def _full_mvcc_payload(store):
    """Every chain record, the image's version included."""
    return {
        "cut": store.stale_cut,
        "chains": [
            (
                item,
                [
                    (rec.version.ts, rec.version.commit, rec.version.seq, rec.value)
                    for rec in store.chain(item).records
                ],
            )
            for item in sorted(store._chains)
        ],
    }


class TestIncrementalCheckpoints:
    """A restore from a base plus deltas rebuilds exactly what a restore
    from one full image (every chain record included) rebuilds."""

    @staticmethod
    def _restored_states():
        kernel, system = build_wal_system(
            seed=16,
            wal_config=WalConfig(checkpoint_every=4, retain_records=8),
            # Mostly clean items, so several deltas build up on a base.
            items={f"X{i}": 0 for i in range(40)} | {"Y": 0},
            txn_config=TxnConfig(rpc_timeout=20.0, commit_mode="async_quorum"),
        )
        states = []

        def capture(site):
            copies, wal = site.copies, site.wal
            states.append((
                site.site_id,
                kernel.now,
                len(load_checkpoint(site.stable)[1]),
                [
                    (name, copy.value, copy.version, copy.unreadable)
                    for name, copy in ((name, copies.get(name)) for name in copies.items())
                ],
                site.stable.get("session.last"),
                site.stable.get("session.started_at"),
                sorted(wal.unresolved_prepares().items()),
                wal.restore_high_commit,
                site.mvcc.digest_state(),
            ))

        for site_id in system.cluster.site_ids:
            site = system.cluster.site(site_id)
            site.power_on_hooks.append(functools.partial(capture, site))

        def stalls(ctx):
            yield from ctx.write("Y", -1)  # prepared everywhere, undecided
            yield kernel.timeout(60)  # past the crash, before the restore

        value = 0
        for crashed, up in ((3, (1, 2)), (2, (1, 3)), (3, (1, 2)), (1, (2, 3))):
            for _ in range(5):
                for home in up:
                    value += 1
                    kernel.run(system.submit(home, write_program(f"X{value % 12}", value)))
            if crashed == 3 and value < 20:
                system.submit(1, stalls)
                kernel.run(until=kernel.now + 10)
            system.crash(crashed)
            kernel.run(until=kernel.now + 40)
            kernel.run(system.power_on(crashed))
            kernel.run(until=kernel.now + 150)
        system.stop()
        return states

    def test_base_plus_deltas_restores_what_one_full_image_restores(self, monkeypatch):
        incremental = self._restored_states()
        with monkeypatch.context() as patch:
            # Every checkpoint a full base, carrying every chain record.
            patch.setattr(StableStorage, "size_of", lambda self, key: 0)
            patch.setattr(MultiVersionStore, "checkpoint_payload", _full_mvcc_payload)
            full = self._restored_states()
        assert len(incremental) == 4
        # The incremental run restored through deltas; the full one never.
        assert any(deltas for _s, _t, deltas, *_rest in incremental)
        assert not any(deltas for _s, _t, deltas, *_rest in full)
        # Including in-doubt prepares re-armed at restore.
        assert any(prepares for *_head, prepares, _h, _m in incremental)
        strip = [(site, now, *rest) for site, now, _deltas, *rest in incremental]
        assert strip == [(site, now, *rest) for site, now, _deltas, *rest in full]
