"""Counter gate for the WAL group-commit cost model.

A small 4-site workload runs with every stable put counted by key class.
Each :meth:`SiteWal.flush` that makes records durable must cost exactly
one put (its segment) plus, when it triggers a checkpoint, the
checkpoint image and one ``wal.meta`` put; over the whole run
``wal.meta`` puts equal checkpoints.
"""

import collections

from repro.harness.runner import build_scheme, quiesce
from repro.storage.stable import StableStorage
from repro.wal import SiteWal, WalConfig
from repro.wal.log import CHECKPOINT_KEY, META_KEY, SEGMENT_PREFIX
from tests.core.conftest import write_program


def key_class(key):
    if key == META_KEY:
        return "meta"
    if key.startswith(SEGMENT_PREFIX):
        return "segment"
    if key == CHECKPOINT_KEY:
        return "ckpt"
    return "other"


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
    items = {f"X{i}": 0 for i in range(6)}
    kernel, system = build_scheme(
        "rowaa", seed=4, n_sites=4, items=items,
        wal_config=WalConfig(checkpoint_every=8, retain_records=4),
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
