"""Counter gate for the WAL group-commit and checkpoint cost model.

A small 4-site workload runs with every stable put counted by key class.
Each :meth:`SiteWal.flush` that makes records durable must cost exactly
one put (its segment) plus, when it triggers a checkpoint, one
checkpoint put (a delta or a base) and one ``wal.meta`` put; over the
whole run ``wal.meta`` puts equal checkpoints. The checkpoint tests pin
what a delta costs and what a restart reads.
"""

import collections

from repro.harness.runner import build_scheme, quiesce
from repro.mvcc.store import version_key
from repro.storage.stable import StableStorage
from repro.wal import SiteWal, WalConfig
from repro.wal.log import CHECKPOINT_KEY, META_KEY, SEGMENT_PREFIX
from repro.wal.wal import load_checkpoint
from tests.core.conftest import write_program


def key_class(key):
    if key == META_KEY:
        return "meta"
    if key.startswith(SEGMENT_PREFIX):
        return "segment"
    if key.startswith(CHECKPOINT_KEY):  # the base and every delta
        return "ckpt"
    return "other"


def _run_workload(wal_config, n_items=6):
    """Writes from every site, a crash of site 3, writes while it is down."""
    items = {f"X{i}": 0 for i in range(n_items)}
    kernel, system = build_scheme(
        "rowaa", seed=4, n_sites=4, items=items, wal_config=wal_config,
    )
    for round_ in range(6):
        for site_id in (1, 2, 3, 4):
            kernel.run(system.submit(site_id, write_program(f"X{round_}", site_id)))
    system.crash(3)
    kernel.run(until=kernel.now + 30)  # past failure detection
    for site_id in (1, 2, 4):
        kernel.run(system.submit(site_id, write_program("X0", 10 + site_id)))
    quiesce(kernel, system, grace=400.0)
    system.stop()
    return system


def test_one_put_per_flush_and_one_meta_put_per_checkpoint(monkeypatch):
    puts = collections.Counter()
    real_put, real_flush = StableStorage.put, SiteWal.flush
    flush_costs = []

    def counting_put(self, key, value):
        puts[key_class(key)] += 1
        return real_put(self, key, value)

    def counting_flush(self):
        before, checkpoints = puts.copy(), self.stats.checkpoints
        flushed = real_flush(self)
        cost = puts - before
        flush_costs.append((flushed, self.stats.checkpoints - checkpoints, cost))
        return flushed

    monkeypatch.setattr(StableStorage, "put", counting_put)
    monkeypatch.setattr(SiteWal, "flush", counting_flush)
    system = _run_workload(WalConfig(checkpoint_every=8, retain_records=4))

    durable_flushes = [entry for entry in flush_costs if entry[0]]
    assert len(durable_flushes) > 20
    for _flushed, checkpoints, cost in durable_flushes:
        assert cost == collections.Counter(
            segment=1, ckpt=checkpoints, meta=checkpoints
        )
    total_checkpoints = sum(
        system.cluster.site(site_id).wal.stats.checkpoints
        for site_id in system.cluster.site_ids
    )
    assert any(checkpoints for _f, checkpoints, _c in durable_flushes)
    assert puts["meta"] == total_checkpoints


def test_live_deltas_never_outweigh_the_base_and_the_payload_never_repeats_the_image(
    monkeypatch,
):
    observed = []
    real_checkpoint = SiteWal.checkpoint

    def checked_checkpoint(self):
        lsn = real_checkpoint(self)
        stable = self.site.stable
        checkpoint, deltas = load_checkpoint(stable)
        assert checkpoint["lsn"] == lsn
        assert sum(stable.size_of(key) for key in deltas) <= stable.size_of(CHECKPOINT_KEY)
        images = {
            name: version_key(version)
            for name, (_value, version, _unreadable) in checkpoint["items"].items()
        }
        for item, records in (checkpoint["mvcc"] or {"chains": []})["chains"]:
            assert records
            assert all((ts, commit) != images[item] for ts, commit, _s, _v in records)
        observed.append(len(deltas))
        return lsn

    monkeypatch.setattr(SiteWal, "checkpoint", checked_checkpoint)
    # Mostly clean items: the base outweighs several deltas.
    system = _run_workload(WalConfig(checkpoint_every=8, retain_records=4), n_items=40)
    # Both kinds of checkpoint happened: deltas, and bases folding them.
    assert max(observed) >= 2
    assert observed.count(0) > len(system.cluster.site_ids)
    for site_id in system.cluster.site_ids:
        stats = system.cluster.site(site_id).wal.stats
        assert 1 <= stats.base_folds < stats.checkpoints
        assert stats.checkpoint_bytes > 0


def _delta_bytes(n_clean, k_dirty):
    """Bytes of one delta with ``k_dirty`` written items at a site that
    also holds ``n_clean`` items the delta does not touch."""
    items = {f"D{i}": 0 for i in range(k_dirty)}
    items.update({f"C{i}": 0 for i in range(n_clean)})
    kernel, system = build_scheme("rowaa", seed=4, n_sites=2, items=items)
    site = system.cluster.site(1)
    site.wal.checkpoint()  # a base at the current LSN: nothing dirty yet
    for i in range(k_dirty):
        kernel.run(system.submit(1, write_program(f"D{i}", 100 + i)))
    folds, spent = site.wal.stats.base_folds, site.wal.stats.checkpoint_bytes
    site.wal.checkpoint()
    assert site.wal.stats.base_folds == folds  # a delta, not a base
    system.stop()
    return site.wal.stats.checkpoint_bytes - spent


def test_delta_bytes_follow_the_dirty_items_not_the_site_size():
    for k_dirty in (1, 2):
        assert _delta_bytes(6, k_dirty) == _delta_bytes(600, k_dirty)
    assert _delta_bytes(6, 1) < _delta_bytes(6, 2)


def test_restart_reads_no_segment_behind_the_checkpoint(monkeypatch):
    reads = collections.Counter()
    restores = {}
    real_get, real_restore = StableStorage.get, SiteWal.restore

    def counting_get(self, key, default=None):
        if key.startswith(SEGMENT_PREFIX):
            reads[id(self)] += 1
        return real_get(self, key, default)

    def counted_restore(self):
        stable = self.site.stable
        checkpoint, _deltas = load_checkpoint(stable)
        after = [
            key for key in stable.keys()
            if key.startswith(SEGMENT_PREFIX)
            and int(key.partition("-")[2].partition("@")[0]) > checkpoint["lsn"]
        ]
        retained = sum(1 for key in stable.keys() if key.startswith(SEGMENT_PREFIX))
        reads.clear()
        result = real_restore(self)
        restores[self.site.site_id] = (reads[id(stable)], len(after), retained - len(after))
        return result

    monkeypatch.setattr(StableStorage, "get", counting_get)
    monkeypatch.setattr(SiteWal, "restore", counted_restore)
    _run_workload(WalConfig(checkpoint_every=8, retain_records=64))
    assert set(restores) == {3}
    got, after, behind = restores[3]
    assert behind > 0  # the retained tail is there, and left unread
    assert after > 0
    assert got == after
