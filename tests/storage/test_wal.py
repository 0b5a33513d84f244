"""Unit tests for the durability subsystem: RedoLog, SiteWal, StableStorage."""

from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site
from repro.storage.copies import Version
from repro.storage.stable import StableStorage
from repro.wal import RedoLog, SiteWal, WalConfig
from repro.wal.determinism import site_durable_state
from repro.wal.log import CHECKPOINT_KEY, META_KEY, SEGMENT_PREFIX, delta_key
from repro.wal.wal import load_checkpoint


def v(commit, ts=None):
    return Version(float(commit) if ts is None else ts, commit, 0)


class TestStableStorageIsolation:
    """Satellite: values cross a serialize boundary on put AND get."""

    def test_put_snapshots_value(self):
        stable = StableStorage()
        value = {"a": [1, 2]}
        stable.put("k", value)
        value["a"].append(3)  # mutating after put must not alter stable state
        assert stable.get("k") == {"a": [1, 2]}

    def test_get_returns_private_copies(self):
        stable = StableStorage()
        stable.put("k", [1, 2])
        first = stable.get("k")
        first.append(3)
        assert stable.get("k") == [1, 2]

    def test_bytes_written_counts_serialized_size(self):
        stable = StableStorage()
        size = stable.put("k", "x" * 100)
        assert size > 100
        assert stable.bytes_written == size
        stable.put("k2", "y")
        assert stable.bytes_written > size
        assert stable.writes == 2

    def test_size_of_and_delete(self):
        stable = StableStorage()
        stable.put("k", 1)
        assert stable.size_of("k") > 0
        assert "k" in stable
        stable.delete("k")
        assert stable.size_of("k") == 0
        assert "k" not in stable


class TestRedoLog:
    def test_lsns_strictly_increase(self):
        log = RedoLog(StableStorage())
        records = [log.append("write", item="X", value=i, version=v(i)) for i in (1, 2, 3)]
        assert [r.lsn for r in records] == [1, 2, 3]
        assert log.high_commit == 3

    def test_flush_is_one_segment_write(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in (1, 2, 3):
            log.append("write", item="X", value=i, version=v(i))
        writes_before = stable.writes
        assert log.flush() == 3
        # One segment blob and no metadata write: the group-commit cost.
        assert stable.writes == writes_before + 1
        assert log.durable_lsn == 3
        assert log.buffered == 0

    def test_records_after_in_lsn_order(self):
        log = RedoLog(StableStorage())
        for i in range(1, 7):
            log.append("write", item="X", value=i, version=v(i))
            if i % 2 == 0:
                log.flush()  # three segments of two records each
        lsns = [r.lsn for r in log.records_after(2)]
        assert lsns == [3, 4, 5, 6]

    def test_discard_unflushed_reissues_lsns(self):
        log = RedoLog(StableStorage())
        log.append("write", item="X", value=1, version=v(1))
        log.flush()
        log.append("write", item="X", value=2, version=v(2))
        assert log.discard_unflushed() == 1
        record = log.append("write", item="X", value=3, version=v(3))
        assert record.lsn == 2  # the lost LSN was never durable

    def test_discard_unflushed_forgets_lost_commits(self):
        stable = StableStorage()
        log = RedoLog(stable)
        log.append("write", item="X", value=1, version=v(1))
        log.flush()
        log.append("write", item="X", value=9, version=v(9))
        assert log.high_commit == 9
        log.discard_unflushed()
        # Commit 9 never became durable: nothing may claim it.
        assert log.high_commit == 1
        assert RedoLog(stable).high_commit == 1

    def test_flush_writes_no_metadata(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in (1, 2):
            log.append("write", item="X", value=i, version=v(i))
            log.flush()
        log.append("write", item="X", value=3, version=v(3))
        log.discard_unflushed()
        assert META_KEY not in stable
        # Each key names its LSN range and the durable high commit.
        assert sorted(k for k in stable.keys() if k.startswith(SEGMENT_PREFIX)) == [
            f"{SEGMENT_PREFIX}1-1@1", f"{SEGMENT_PREFIX}2-2@2",
        ]

    def test_truncate_persists_meta_even_when_nothing_dropped(self):
        stable = StableStorage()
        log = RedoLog(stable)
        log.append("write", item="X", value=1, version=v(1))
        log.flush()
        writes_before = stable.writes
        assert log.truncate(0) == 0
        assert stable.writes == writes_before + 1
        assert stable.get(META_KEY)["truncated_through_lsn"] == 0

    def test_truncate_drops_whole_segments_and_tracks_commits(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in range(1, 5):
            log.append("write", item="X" if i < 3 else "Y", value=i, version=v(i))
            log.flush()  # one record per segment
        assert log.truncate(2) == 2
        assert log.truncated_through_lsn == 2
        assert log.truncated_max_commit == 2
        assert log.truncated_commit_by_item == {"X": 2}
        assert [r.lsn for r in log.records_after(0)] == [3, 4]
        # Truncation below the watermark is a no-op.
        assert log.truncate(1) == 0
        # The dropped segment blobs are gone from stable storage.
        segment_keys = [k for k in stable.keys() if k.startswith(SEGMENT_PREFIX)]
        assert len(segment_keys) == 2

    def test_meta_roundtrip_survives_reload(self):
        stable = StableStorage()
        log = RedoLog(stable)
        for i in range(1, 4):
            log.append("write", item="X", value=i, version=v(i))
            log.flush()  # one record per segment so truncate(1) can bite
        log.truncate(1)
        reloaded = RedoLog(stable)  # fresh instance over the same stable store
        assert reloaded.next_lsn == log.next_lsn
        assert reloaded.durable_lsn == log.durable_lsn
        assert reloaded.segments == log.segments
        assert reloaded.truncated_commit_by_item == {"X": 1}
        assert reloaded.high_commit == 3
        assert [r.value for r in reloaded.records_after(0)] == [2, 3]


def make_site(wal_config=None):
    kernel = Kernel(seed=3)
    net = Network(kernel, latency=ConstantLatency(1.0))
    return Site(kernel, net, 1, wal_config=wal_config)


class TestSiteWal:
    def test_journal_hooked_into_copy_store(self):
        site = make_site()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 5, v(1))
        site.copies.mark_unreadable("X")
        site.copies.clear_unreadable("X")
        assert site.wal.stats.records_appended == 3
        kinds = [r.kind for r in site.wal.log._buffer]
        assert kinds == ["write", "mark", "clear"]

    def test_group_commit_one_flush_per_commit(self):
        site = make_site()
        for name in ("X", "Y", "Z"):
            site.copies.create(name, 0)
        for i, name in enumerate(("X", "Y", "Z"), start=1):
            site.copies.apply_write(name, i, v(i))
        site.wal.on_commit()  # the whole "transaction" in one segment
        assert site.wal.stats.flushes == 1
        assert site.wal.stats.records_flushed == 3
        assert site.wal.stats.bytes_flushed > 0

    def test_checkpoint_truncates_behind_retention(self):
        site = make_site(WalConfig(checkpoint_every=4, retain_records=2))
        site.copies.create("X", 0)
        for i in range(1, 7):
            site.copies.apply_write("X", i, v(i))
            site.wal.on_commit()
        assert site.wal.stats.checkpoints >= 1
        assert site.wal.log.truncated_records > 0
        # The retained tail still serves the shipping window.
        retained = list(site.wal.log.records_after(site.wal.log.truncated_through_lsn))
        assert retained

    def test_crash_drops_volatile_tail(self):
        site = make_site()
        site.power_on()
        site.become_operational()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.copies.apply_write("X", 2, v(2))  # never flushed
        site.crash()
        assert site.wal.stats.records_lost_unflushed == 1
        assert site.wal.log.buffered == 0

    def test_restore_without_checkpoint_is_noop(self):
        site = make_site()
        site.copies.create("X", 7)
        assert site.wal.restore() is None
        assert site.copies.get("X").value == 7  # legacy semantics kept

    def test_restore_rebuilds_from_checkpoint_and_replay(self):
        site = make_site(WalConfig(checkpoint_every=1000, retain_records=1000))
        site.copies.create("X", 0)
        site.copies.create("Y", 0)
        site.copies.apply_write("X", 1, v(1))
        site.copies.apply_write("Y", 1, v(2))
        site.wal.on_commit()
        site.wal.checkpoint()
        # Post-checkpoint activity lives only in the log.
        site.copies.apply_write("X", 9, v(3))
        site.wal.on_commit()
        site.copies.mark_unreadable("Y")
        site.wal.flush()
        site.stable.put("session.last", 4)
        site.wal.log_session(4)
        # Corrupt ALL volatile state: restore must not consult it.
        site.copies.reset()
        site.copies.create("X", -999)
        result = site.wal.restore()
        assert result is not None
        assert result.records_replayed >= 3
        assert site.copies.get("X").value == 9
        assert site.copies.get("X").version == v(3)
        assert not site.copies.get("X").unreadable
        assert site.copies.get("Y").unreadable
        assert site.stable.get("session.last") == 4
        assert site.wal.restore_high_commit == 3

    def test_power_on_restores_only_after_a_crash(self):
        site = make_site()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        site.power_on()  # installation boot: no crash yet, no replay
        assert site.wal.stats.replays == 0
        site.become_operational()
        site.copies.apply_write("X", 2, v(2))
        site.wal.on_commit()
        site.crash()
        site.copies.get("X").value = -1  # simulate volatile corruption
        site.power_on()
        assert site.wal.stats.replays == 1
        assert site.copies.get("X").value == 2

    def test_checkpoint_high_commit_excludes_lost_commit(self):
        site = make_site()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        site.power_on()
        site.become_operational()
        site.copies.apply_write("X", 9, v(9))  # never flushed
        site.crash()
        site.power_on()
        assert site.copies.get("X").version == v(1)
        assert site.wal.restore_high_commit == 1
        site.wal.checkpoint()
        # The log-ship anchor must not claim the commit the crash lost.
        assert load_checkpoint(site.stable)[0]["high_commit"] == 1

    def test_checkpoint_key_layout(self):
        site = make_site()
        site.copies.create("X", 0)
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        checkpoint = site.stable.get(CHECKPOINT_KEY)
        assert checkpoint["lsn"] == site.wal.log.durable_lsn
        assert checkpoint["items"]["X"] == (1, v(1), False)
        assert site.stable.get(META_KEY) is not None

    def test_later_checkpoints_are_deltas_of_what_changed(self):
        site = make_site()
        for i in range(20):
            site.copies.create(f"X{i}", 0)
        site.wal.checkpoint()  # the first checkpoint is a base
        site.copies.apply_write("X0", 5, v(5))
        site.wal.on_commit()
        site.wal.checkpoint()
        lsn = site.wal.log.durable_lsn
        delta = site.stable.get(delta_key(lsn))
        assert delta["lsn"] == lsn
        assert delta["items"] == {"X0": (5, v(5), False)}
        assert site.stable.get(CHECKPOINT_KEY)["items"]["X0"] == (0, Version.initial(), False)
        assert load_checkpoint(site.stable)[0]["items"]["X0"] == (5, v(5), False)
        assert (site.wal.stats.checkpoints, site.wal.stats.base_folds) == (2, 1)

    def test_durable_state_digests_the_base_and_every_delta(self):
        site = make_site()
        for name in ("X", "Y", "Z"):
            site.copies.create(name, 0)
        site.wal.checkpoint()
        site.copies.apply_write("X", 1, v(1))
        site.wal.on_commit()
        site.wal.checkpoint()
        _checkpoint, deltas = load_checkpoint(site.stable)
        state = site_durable_state(site)
        assert [key for key, _blob in state["checkpoint_blobs"]] == [CHECKPOINT_KEY, *deltas]
        assert len(deltas) == 1
        delta = site.stable.get(deltas[0])
        delta["items"]["X"] = (2, v(1), False)
        site.stable.put(deltas[0], delta)
        assert site_durable_state(site) != state
