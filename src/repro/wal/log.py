"""The append-only redo log, group-committed through stable storage.

Layout in the site's :class:`~repro.storage.stable.StableStorage`:

* ``wal.seg.<first>-<last>@<high>`` — one *segment* per group commit:
  the records with LSNs ``first..last``; ``high`` is the log's durable
  high-commit watermark once they are durable. Every :meth:`flush` is
  exactly one stable write (the group-commit cost model), and the key
  names carry the whole segment directory and the watermark, so a
  restart unpickles no segment to rebuild either;
* ``wal.meta`` — truncation state only (watermarks and truncated
  commits), written by :meth:`truncate` once per checkpoint and never
  on the commit path;
* ``wal.ckpt`` — the checkpoint *base*, a full image, and
  ``wal.ckpt.delta.<lsn>`` — the incremental checkpoints taken since
  (written by :class:`~repro.wal.wal.SiteWal`, not here).

Invariants:

* LSNs are strictly increasing; a record is *durable* iff
  ``lsn <= durable_lsn`` (everything above sits in the volatile append
  buffer and is lost by a crash — the owner counts those losses);
* segments partition the durable LSN range ``(truncated_through,
  durable_lsn]`` in order, so a restart derives ``durable_lsn`` from
  the directory;
* ``truncated_max_commit`` is the highest commit sequence number among
  ever-truncated write records: a catch-up request anchored at or below
  it cannot be served completely from the log and must fall back to
  per-item copy.
"""

from __future__ import annotations

import typing

from repro.storage.stable import StableStorage
from repro.wal.records import LogRecord

META_KEY = "wal.meta"
SEGMENT_PREFIX = "wal.seg."
#: The checkpoint base; also the prefix of every checkpoint key.
CHECKPOINT_KEY = "wal.ckpt"
DELTA_PREFIX = "wal.ckpt.delta."

#: The :class:`RedoLog` attributes persisted in ``wal.meta``.
_META_FIELDS = (
    "truncated_through_lsn", "truncated_max_commit", "truncated_records",
    "truncated_commit_by_item",
)


def _segment_key(first: int, last: int, high: int) -> str:
    return f"{SEGMENT_PREFIX}{first}-{last}@{high}"


def delta_key(lsn: int) -> str:
    """The stable key of the incremental checkpoint taken at ``lsn``."""
    return f"{DELTA_PREFIX}{lsn}"


def _write_commits(records: typing.Iterable[LogRecord]) -> list[tuple[str | None, int]]:
    """``(item, commit)`` of every versioned write record."""
    return [
        (record.item, record.version.commit)
        for record in records
        if record.kind == "write" and record.version is not None
    ]


class RedoLog:
    """Per-site append-only redo log over a :class:`StableStorage`."""

    def __init__(self, stable: StableStorage) -> None:
        self.stable = stable
        self._buffer: list[LogRecord] = []
        self.next_lsn = 1
        self.durable_lsn = 0
        #: Segment directory: ``(first_lsn, last_lsn, high_commit)`` in
        #: LSN order, exactly what the segment keys carry.
        self.segments: list[tuple[int, int, int]] = []
        self.truncated_through_lsn = 0
        self.truncated_max_commit = 0
        self.truncated_records = 0
        #: Per-item highest commit sequence ever truncated (write records
        #: only). Lets a catch-up server gate precisely: only truncated
        #: commits of items the *requester* hosts can invalidate a stream.
        self.truncated_commit_by_item: dict[str, int] = {}
        self.high_commit = 0  # max Version.commit among durable+buffered writes
        self._durable_high_commit = 0  # ... among durable writes only
        self.load_meta()

    def load_meta(self) -> None:
        """Re-sync in-memory state from stable storage (restart path).

        Reads ``wal.meta`` and the segment key names; no segment blob.
        """
        meta = self.stable.get(META_KEY)
        if meta is not None:  # absent until the first truncation
            for field, value in typing.cast(dict, meta).items():
                setattr(self, field, value)
        segments = []
        for key in self.stable.keys():
            if key.startswith(SEGMENT_PREFIX):
                lsns, _, high = key[len(SEGMENT_PREFIX):].partition("@")
                first, _, last = lsns.partition("-")
                segments.append((int(first), int(last), int(high)))
        self.segments = sorted(segments)
        last_lsn = high = 0
        if self.segments:
            _first, last_lsn, high = self.segments[-1]
        self.durable_lsn = max(self.truncated_through_lsn, last_lsn)
        self.next_lsn = self.durable_lsn + 1
        self.high_commit = self._durable_high_commit = max(self.truncated_max_commit, high)

    # -- appending ------------------------------------------------------------

    def append(
        self,
        kind: str,
        item: str | None = None,
        value: object = None,
        version=None,
        session: int | None = None,
        session_started_at: float | None = None,
        txn_id: str | None = None,
        txn_seq: int = 0,
        coordinator: int | None = None,
        participants: tuple[int, ...] = (),
        applied_sites: tuple[int, ...] = (),
        missed_sites: tuple[int, ...] = (),
        outcome: str | None = None,
    ) -> LogRecord:
        """Append one record to the volatile tail; durable at next flush."""
        record = LogRecord(
            lsn=self.next_lsn,
            kind=kind,
            item=item,
            value=value,
            version=version,
            session=session,
            session_started_at=session_started_at,
            txn_id=txn_id,
            txn_seq=txn_seq,
            coordinator=coordinator,
            participants=participants,
            applied_sites=applied_sites,
            missed_sites=missed_sites,
            outcome=outcome,
        )
        self.next_lsn += 1
        if kind == "write" and version is not None:
            self.high_commit = max(self.high_commit, version.commit)
        self._buffer.append(record)
        return record

    def flush(self) -> int:
        """Group-commit the buffered tail as one segment; returns count."""
        if not self._buffer:
            return 0
        records = tuple(self._buffer)
        first, last, high = records[0].lsn, records[-1].lsn, self.high_commit
        self.stable.put(_segment_key(first, last, high), records)
        self.segments.append((first, last, high))
        self.durable_lsn = last
        self._durable_high_commit = self.high_commit
        self._buffer.clear()
        return len(records)

    def discard_unflushed(self) -> int:
        """Crash path: drop the volatile tail; returns records lost."""
        lost = len(self._buffer)
        self._buffer.clear()
        # Re-issue the lost LSNs, and forget the lost commits: nothing
        # durable ever carried them.
        self.next_lsn = self.durable_lsn + 1
        self.high_commit = self._durable_high_commit
        return lost

    # -- reading --------------------------------------------------------------

    def records_after(self, lsn: int) -> typing.Iterator[LogRecord]:
        """Durable records with ``record.lsn > lsn``, in LSN order."""
        for first, last, high in self.segments:
            if last <= lsn:
                continue
            records = typing.cast(tuple, self.stable.get(_segment_key(first, last, high), ()))
            for record in records:
                if record.lsn > lsn:
                    yield record

    # -- truncation -----------------------------------------------------------

    def truncate(self, through_lsn: int) -> int:
        """Drop whole segments whose records all have ``lsn <= through_lsn``.

        Returns the number of records dropped. Tracks the highest commit
        sequence number ever truncated so catch-up requests anchored
        behind it can be refused (they would silently miss updates), and
        persists the truncation state, even when nothing was dropped.
        """
        dropped = 0
        keep: list[tuple[int, int, int]] = []
        for first, last, high in self.segments:
            if last > through_lsn:
                keep.append((first, last, high))
                continue
            key = _segment_key(first, last, high)
            records = typing.cast(tuple, self.stable.get(key, ()))
            for item, commit in _write_commits(records):
                self.truncated_max_commit = max(self.truncated_max_commit, commit)
                if item is not None:
                    self.truncated_commit_by_item[item] = max(
                        self.truncated_commit_by_item.get(item, 0), commit
                    )
            dropped += len(records)
            self.stable.delete(key)
            self.truncated_through_lsn = last
        self.segments = keep
        self.truncated_records += dropped
        self.stable.put(META_KEY, {field: getattr(self, field) for field in _META_FIELDS})
        return dropped

    @property
    def buffered(self) -> int:
        """Records appended but not yet durable."""
        return len(self._buffer)
