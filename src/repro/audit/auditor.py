"""The online protocol auditor.

:class:`ProtocolAuditor` subscribes to the existing observability
streams (spans, metrics collectors) plus the narrow read-only taps the
TM/DM/WAL expose (``finish_hooks``, ``access_audit_hooks``,
``read_audit_hooks``, ``commit_apply_hooks``, ``flush_hooks``,
``checkpoint_hooks``, site crash/power-on hooks and the cluster's
recovered hook) and continuously evaluates the paper's invariants while
a simulation runs:

1. **online 1SR** — an incremental serialization-graph (candidate
   1-STG over DB items, §4) grown per committed transaction; the first
   cycle is a critical ``onesr.cycle`` alert;
2. **session coherence** (§3.1/§3.3) — a served physical operation
   whose ``expected`` tag differs from ``as[k]`` fires
   ``session.check``; a committed original control write installing a
   non-fresh ``NS[k]`` value fires ``session.ns_monotonic`` (skipped
   when session numbers are deliberately recycled via
   ``session_modulus``);
3. **missing-list conservatism** (§5) — the auditor maintains an
   omniscient oracle of the latest committed version per logical item
   (fed by commit applications); an *unmarked* stale copy at a site
   that just became operational fires ``missinglist.conservatism``, and
   a database read actually served from a stale unmarked copy fires
   ``oracle.stale_read``;
4. **ROWAA write coverage** (§2/§3.2) — a committed user transaction
   whose logical write did not fan out to every copy nominally up in
   its NS-view fires ``rowaa.write_coverage``;
5. **WAL/durable coherence** — per-site durable-LSN monotonicity
   (``wal.durable_monotonic``), checkpoint ≤ durable LSN
   (``wal.checkpoint_bound``), and replay fidelity: at crash time the
   auditor fingerprints the state reconstructible from checkpoint + log
   (its own ~30-line mirror of ``SiteWal.restore``), and at power-on
   the restored copies/session must hash identically
   (``wal.replay_fingerprint``);
6. **multiversion snapshot reads** (``repro.mvcc``) — the auditor
   mirrors every site's committed version history (fed by the same
   commit applications as the oracle) and checks each served snapshot
   read against it: a read above its transaction's pinned cut, or one
   that is not the *newest* version at-or-below the cut in the site's
   own history, fires ``mvcc.snapshot_consistency``; a GC sweep that
   reclaims the floor version of an active pinned cut (or a chain's
   newest version) fires ``mvcc.gc_pinned``. The consistency rule is
   deliberately site-local: with asymmetric local/remote delivery the
   global oracle is *ahead* of a correct snapshot, so comparing against
   it would false-positive (see DESIGN.md "Snapshot reads");
7. **quorum commit soundness** (``commit_mode="async_quorum"``) — a
   committed async transaction whose durably prepared write sites fall
   short of the per-item majority rule fires ``quorum.majority``; a
   drain that gives up on a write site which *never crashed* since the
   decision fires ``quorum.drain_uncovered`` — the give-up path is only
   sound when the lagging site's copies are covered by recovery marks,
   which presupposes a crash/recovery, so abandoning a continuously-up
   site would lose the write permanently.

Liveness watchdogs run as a periodic kernel process (warning severity,
so they never trip the critical-only CI gate): a nominally-up site
whose non-NS unreadable count stops draining
(``liveness.drain_stall``), a copier service with pending work but
frozen counters (``liveness.copier_starved``), a 2PC span open past a
configurable sim-time budget (``liveness.twopc_overrun``), and an
async-drain span open past its own budget
(``liveness.drain_overrun``).

All hooks are read-only: the auditor never mutates protocol state, and
every hook list it populates is empty (one falsy test) when no auditor
is attached.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import typing

from repro.audit.alerts import Alert, AlertLog
from repro.core.nominal import db_item_filter, is_ns_item, ns_site
from repro.histories import OnlineOneStg
from repro.txn.transaction import Transaction, TxnKind, TxnStatus
from repro.wal.log import CHECKPOINT_KEY, DELTA_PREFIX

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.site import Site
    from repro.storage.copies import Version
    from repro.system import DatabaseSystem


@dataclasses.dataclass
class AuditConfig:
    """Watchdog cadence and sim-time budgets."""

    watchdog_interval: float = 25.0
    #: An operational site's non-NS unreadable count must change within
    #: this budget while nonzero.
    drain_stall_budget: float = 400.0
    #: A copier service with pending items must advance some counter
    #: within this budget.
    copier_stall_budget: float = 400.0
    #: A 2PC span may stay open at most this long (needs spans enabled).
    twopc_budget: float = 200.0
    #: An async-quorum drain span may stay open at most this long
    #: (retries across site outages make drains slower than 2PC rounds).
    drain_budget: float = 400.0


def _vkey(version: "Version") -> tuple[float, int]:
    """Version order: the (ts, commit) pair. Commit numbers are unique,
    so this is the order :class:`~repro.histories.OnlineOneStg` keeps
    writers in (its trailing writer-seq tie-break never decides)."""
    return (version.ts, version.commit)


class ProtocolAuditor:
    """Live invariant monitoring over one :class:`DatabaseSystem`."""

    def __init__(
        self, system: "DatabaseSystem", config: AuditConfig | None = None
    ) -> None:
        self.system = system
        self.config = config if config is not None else AuditConfig()
        self.kernel = system.kernel
        self.obs = system.obs
        self.recorder = system.recorder
        self.alerts = AlertLog()
        self.checks = 0  # invariant evaluations performed
        self.stg = OnlineOneStg(
            self.recorder, item_filter=db_item_filter, on_cycle=self._on_cycle
        )
        #: Omniscient oracle: latest committed version per logical item.
        self._oracle: dict[str, "Version"] = {}
        #: Per-site committed version history, ``(site, item) -> sorted
        #: [(vkey, Version)]``: every version ever applied at that site,
        #: surviving GC — the reference the snapshot-consistency rule
        #: resolves cuts against.
        self._site_versions: dict[tuple[int, str], list[tuple[tuple, "Version"]]] = {}
        #: NS freshness: site -> (last nonzero announcement, announcing txn).
        self._ns_announced: dict[int, tuple[int, str]] = {}
        rowaa_config = getattr(system, "rowaa_config", None)
        self._session_modulus = getattr(rowaa_config, "session_modulus", None)
        self._check_coverage = rowaa_config is not None
        # WAL coherence state.
        self._durable_lsn_seen: dict[int, int] = {}
        self._pre_crash_fp: dict[int, str] = {}
        # Watchdog episodes: site -> (observation, since, already alerted).
        self._drain_state: dict[int, tuple[int, float, bool]] = {}
        self._copier_state: dict[int, tuple[tuple, float, bool]] = {}
        self._open_2pc: dict[int, typing.Any] = {}
        self._open_drains: dict[int, typing.Any] = {}
        self._span_cursor = 0
        #: Async commit decisions: txn_id -> {write site -> crash_count
        #: at decision time}, consumed by the matching drain hook.
        self._quorum_epochs: dict[str, dict[int, int]] = {}
        self._stopped = False
        self._wire()

    # -- wiring ---------------------------------------------------------------

    def _wire(self) -> None:
        system = self.system
        self.obs.audit = self
        for tm in system.tms.values():
            tm.finish_hooks.append(self._on_txn_finish)
            tm.drain_hooks.append(self._on_drain_done)
        for site_id, dm in system.dms.items():
            dm.access_audit_hooks.append(self._access_hook(site_id))
            dm.read_audit_hooks.append(self._read_hook(site_id))
            dm.commit_apply_hooks.append(self._apply_hook(site_id))
            ro_hooks = getattr(dm, "ro_read_audit_hooks", None)
            if ro_hooks is not None:
                ro_hooks.append(self._ro_read_hook(site_id))
        for site_id, store in getattr(system, "mvcc", {}).items():
            store.gc_hooks.append(self._gc_hook(site_id))
        for site in system.cluster.sites.values():
            site.crash_hooks.append(self._crash_hook(site))
            site.power_on_hooks.append(self._power_on_hook(site))
            site.wal.flush_hooks.append(self._wal_hook(site))
            site.wal.checkpoint_hooks.append(self._wal_hook(site))
        system.cluster.recovered_hooks.append(self._on_recovered)
        self.obs.registry.add_collector(self._collect)
        self._watchdog_proc = self.kernel.process(
            self._watchdog(), name="protocol-auditor"
        )

    def stop(self) -> None:
        """Stop the watchdog process (hook-driven checks stay live)."""
        self._stopped = True

    # -- alert plumbing -------------------------------------------------------

    def _alert(self, rule: str, severity: str, message: str, **kwargs) -> Alert | None:
        return self.alerts.record(
            rule, severity, self.kernel.now, message, **kwargs
        )

    # -- (1) online 1SR -------------------------------------------------------

    def _pump(self) -> None:
        self.stg.pump()

    def _on_cycle(self, txn_id: str, cycle: list) -> None:
        nodes = sorted({node for edge in cycle for node in edge[:2]})
        self._alert(
            "onesr.cycle",
            "critical",
            "serialization graph cycle: the committed history is not "
            "certifiably one-serializable (§4)",
            txn_ids=tuple(nodes),
            details={"closing_txn": txn_id, "cycle": [list(e) for e in cycle]},
        )

    # -- (2) session coherence ------------------------------------------------

    def _access_hook(self, site_id: int):
        def hook(expected: int | None, privileged: bool, actual: int) -> None:
            self.checks += 1
            if not privileged and expected is not None and expected != actual:
                self._alert(
                    "session.check",
                    "critical",
                    "physical operation served with a stale session tag: "
                    f"expected={expected} but as[{site_id}]={actual} (§3.1)",
                    site=site_id,
                    details={"expected": expected, "actual": actual},
                    dedupe_key=(site_id, expected, actual),
                )

        return hook

    def _ns_check(
        self, site_id: int, txn_id: str, item: str, value: object
    ) -> None:
        if not isinstance(value, int) or value == 0:
            return  # type-2 exclusion writes (0) carry no freshness claim
        if self._session_modulus is not None:
            return  # deliberately recycled session numbers
        k = ns_site(item)
        last = self._ns_announced.get(k)
        if last is not None:
            last_value, last_txn = last
            if value < last_value or (value == last_value and txn_id != last_txn):
                self._alert(
                    "session.ns_monotonic",
                    "critical",
                    f"control transaction installed NS[{k}]={value}, not "
                    f"fresher than {last_value} announced by {last_txn} (§3.3)",
                    site=site_id,
                    txn_ids=(txn_id,),
                    details={"ns_site": k, "value": value, "previous": last_value},
                    dedupe_key=(k, value, txn_id),
                )
                return
        self._ns_announced[k] = (value, txn_id)

    # -- (3) oracle / missing-list conservatism -------------------------------

    def _read_hook(self, site_id: int):
        def hook(item: str, version: "Version") -> None:
            self.checks += 1
            latest = self._oracle.get(item)
            if latest is not None and _vkey(version) < _vkey(latest):
                self._alert(
                    "oracle.stale_read",
                    "critical",
                    f"read of {item} served a stale unmarked copy "
                    f"(version commit {version.commit} < oracle "
                    f"{latest.commit}): unreadable marks do not cover the "
                    "truly-stale copies (§5)",
                    site=site_id,
                    details={
                        "item": item,
                        "served_commit": version.commit,
                        "latest_commit": latest.commit,
                    },
                    dedupe_key=(site_id, item, version.commit),
                )

        return hook

    def _apply_hook(self, site_id: int):
        def hook(
            txn_id: str,
            kind: str,
            txn_seq: int,
            item: str,
            value: object,
            version: "Version",
            overridden: bool,
        ) -> None:
            self.checks += 1
            latest = self._oracle.get(item)
            if latest is None or _vkey(version) > _vkey(latest):
                self._oracle[item] = version
            self._record_site_version(site_id, item, version)
            if kind == "control" and not overridden and is_ns_item(item):
                self._ns_check(site_id, txn_id, item, value)
            self._pump()

        return hook

    # -- (6) multiversion snapshot reads --------------------------------------

    def _record_site_version(
        self, site_id: int, item: str, version: "Version"
    ) -> None:
        """Append to the site's committed version history (sorted, deduped)."""
        history = self._site_versions.setdefault((site_id, item), [])
        entry = (_vkey(version), version)
        index = bisect.bisect_left(history, entry[0], key=lambda e: e[0])
        if index < len(history) and history[index][0] == entry[0]:
            return
        history.insert(index, entry)

    def _site_floor(
        self, site_id: int, item: str, cut: tuple
    ) -> tuple[float, int]:
        """The newest vkey at-or-below ``cut`` ever applied at the site
        (the implicit initial version is the baseline)."""
        floor = (0.0, 0)  # Version.initial()
        history = self._site_versions.get((site_id, item), [])
        index = bisect.bisect_right(history, cut, key=lambda e: e[0])
        if index > 0:
            floor = history[index - 1][0]
        return floor

    def _ro_read_hook(self, site_id: int):
        def hook(item: str, version: "Version", cut: tuple) -> None:
            """Every snapshot read must serve exactly the site's newest
            committed version at-or-below the transaction's pinned cut.

            Site-local on purpose: local commits apply instantly while
            remote COMMITs ride the network, so the *global* latest at
            the cut may not have reached this site yet — that is the
            staleness the cut's ``D`` floor accounts for, not a bug.
            """
            self.checks += 1
            served = _vkey(version)
            if served > cut:
                self._alert(
                    "mvcc.snapshot_consistency",
                    "critical",
                    f"snapshot read of {item} served commit "
                    f"{version.commit} above the transaction's pinned cut "
                    f"(ts {cut[0]:g}): the snapshot is not a committed "
                    "prefix",
                    site=site_id,
                    details={
                        "item": item,
                        "served": list(served),
                        "cut": list(cut),
                    },
                    dedupe_key=(site_id, item, served, "above-cut"),
                )
                return
            expected = self._site_floor(site_id, item, cut)
            if served != expected:
                self._alert(
                    "mvcc.snapshot_consistency",
                    "critical",
                    f"snapshot read of {item} served commit "
                    f"{version.commit}, not the site's newest committed "
                    f"version at-or-below the cut (expected commit "
                    f"{expected[1]}): reads at one cut are not a single "
                    "committed prefix",
                    site=site_id,
                    details={
                        "item": item,
                        "served": list(served),
                        "expected": list(expected),
                        "cut": list(cut),
                    },
                    dedupe_key=(site_id, item, served, expected),
                )

        return hook

    def _gc_hook(self, site_id: int):
        def hook(item, removed, pins, chain_before) -> None:
            """GC must never reclaim a pinned cut's floor version, nor a
            chain's newest version (the floor of every future cut)."""
            self.checks += 1
            removed_keys = {_vkey(v) for v in removed}
            keys_before = [_vkey(v) for v in chain_before]
            if keys_before and keys_before[-1] in removed_keys:
                self._alert(
                    "mvcc.gc_pinned",
                    "critical",
                    f"GC reclaimed the newest version of {item} "
                    f"(commit {chain_before[-1].commit}): even an empty "
                    "pin set must keep the chain head",
                    site=site_id,
                    details={"item": item, "removed": len(removed)},
                    dedupe_key=(site_id, item, keys_before[-1]),
                )
            for pin in pins:
                index = bisect.bisect_right(keys_before, tuple(pin))
                if index == 0:
                    continue
                floor = keys_before[index - 1]
                if floor in removed_keys:
                    self._alert(
                        "mvcc.gc_pinned",
                        "critical",
                        f"GC reclaimed the floor version of {item} for an "
                        f"active pinned snapshot (cut ts {pin[0]:g}): the "
                        "pinned reader would now miss its version",
                        site=site_id,
                        details={
                            "item": item,
                            "pin": list(pin),
                            "floor": list(floor),
                        },
                        dedupe_key=(site_id, item, tuple(pin), floor),
                    )

        return hook

    def _on_recovered(self, site_id: int) -> None:
        """Operational instant: unreadable marks must cover stale copies."""
        site = self.system.cluster.sites[site_id]
        for item in site.copies.items():
            if is_ns_item(item):
                continue
            self.checks += 1
            copy = site.copies.get(item)
            latest = self._oracle.get(item)
            if latest is None or copy.unreadable:
                continue
            if _vkey(copy.version) < _vkey(latest):
                self._alert(
                    "missinglist.conservatism",
                    "critical",
                    f"site became operational with an unmarked stale copy of "
                    f"{item} (commit {copy.version.commit} < oracle "
                    f"{latest.commit}): identification under-populated the "
                    "missing set (§5)",
                    site=site_id,
                    details={
                        "item": item,
                        "copy_commit": copy.version.commit,
                        "latest_commit": latest.commit,
                    },
                    dedupe_key=(site_id, item, copy.version.commit),
                )

    # -- (4) ROWAA write coverage ---------------------------------------------

    def _on_txn_finish(self, txn: Transaction) -> None:
        if (
            self._check_coverage
            and txn.kind is TxnKind.USER
            and txn.status is TxnStatus.COMMITTED
            and txn.logical_writes
        ):
            catalog = self.system.catalog
            for item, targets in txn.logical_writes:
                self.checks += 1
                required = {
                    s
                    for s in catalog.sites_of(item)
                    if txn.view.get(s, 0) != 0
                }
                missing = required.difference(targets)
                if missing:
                    self._alert(
                        "rowaa.write_coverage",
                        "critical",
                        f"committed write of {item} skipped nominally-up "
                        f"copies at sites {sorted(missing)} (§2 "
                        "write-all-available)",
                        site=txn.home_site,
                        txn_ids=(txn.txn_id,),
                        details={
                            "item": item,
                            "missing": sorted(missing),
                            "targets": sorted(targets),
                        },
                    )
        if (
            txn.kind is TxnKind.USER
            and txn.status is TxnStatus.COMMITTED
            and txn.commit_mode == "async_quorum"
        ):
            self._check_quorum(txn)
        self._pump()

    # -- (6) quorum commit soundness ------------------------------------------

    def _check_quorum(self, txn: Transaction) -> None:
        """Recompute the majority rule for a committed async transaction.

        The auditor derives ``needed`` independently from the catalog
        rather than trusting ``txn.quorum_needed``, so a bug in
        ``quorum_needed`` itself is caught too. It also snapshots each
        write site's crash epoch at decision time for the matching
        drain-completion check.
        """
        self.checks += 1
        catalog = self.system.catalog
        needed = 1
        for item in txn.written_items:
            residents = catalog.sites_of(item)
            if residents:
                needed = max(needed, len(residents) // 2 + 1)
        if txn.wrote_sites:
            needed = min(needed, len(txn.wrote_sites))
        prepared = txn.prepared_sites & txn.wrote_sites
        if len(prepared) < needed:
            self._alert(
                "quorum.majority",
                "critical",
                f"async commit decided with {len(prepared)} durably "
                f"prepared write sites, below the per-item majority "
                f"threshold of {needed}",
                site=txn.home_site,
                txn_ids=(txn.txn_id,),
                details={
                    "prepared": sorted(prepared),
                    "write_sites": sorted(txn.wrote_sites),
                    "needed": needed,
                },
            )
        sites = self.system.cluster.sites
        self._quorum_epochs[txn.txn_id] = {
            site_id: sites[site_id].crash_count
            for site_id in txn.wrote_sites
            if site_id in sites
        }

    def _on_drain_done(
        self, txn: Transaction, acked: tuple[int, ...], lost: tuple[int, ...]
    ) -> None:
        """A drain gave up on ``lost`` — sound only under crash cover.

        The drain's give-up path delegates a lagging site to recovery
        (stable decision record + marks + ``wal.ship``), which only
        runs if the site actually went down. A lost site whose crash
        epoch never moved since the decision — it stayed up the whole
        time — has no recovery coming: the committed write would be
        silently missing from a live copy.
        """
        epochs = self._quorum_epochs.pop(txn.txn_id, {})
        for site_id in lost:
            self.checks += 1
            site = self.system.cluster.sites.get(site_id)
            if site is None:
                continue
            if not site.is_down and site.crash_count == epochs.get(site_id, -1):
                self._alert(
                    "quorum.drain_uncovered",
                    "critical",
                    f"async drain of {txn.txn_id} abandoned site {site_id} "
                    "which never crashed since the decision: the write is "
                    "missing there with no recovery pass coming",
                    site=site_id,
                    txn_ids=(txn.txn_id,),
                    details={
                        "lost": sorted(lost),
                        "acked": sorted(acked),
                        "decision_epoch": epochs.get(site_id),
                    },
                )

    # -- (5) WAL / durable coherence ------------------------------------------

    def _wal_hook(self, site: "Site"):
        def hook() -> None:
            self.checks += 1
            wal = site.wal
            lsn = wal.log.durable_lsn
            seen = self._durable_lsn_seen.get(site.site_id, 0)
            if lsn < seen:
                self._alert(
                    "wal.durable_monotonic",
                    "critical",
                    f"durable LSN regressed from {seen} to {lsn}",
                    site=site.site_id,
                    details={"seen": seen, "lsn": lsn},
                    dedupe_key=(site.site_id, lsn),
                )
            else:
                self._durable_lsn_seen[site.site_id] = lsn
            if wal.last_checkpoint_lsn > lsn:
                self._alert(
                    "wal.checkpoint_bound",
                    "critical",
                    f"checkpoint LSN {wal.last_checkpoint_lsn} exceeds "
                    f"durable LSN {lsn}",
                    site=site.site_id,
                    details={
                        "checkpoint_lsn": wal.last_checkpoint_lsn,
                        "durable_lsn": lsn,
                    },
                    dedupe_key=(site.site_id, wal.last_checkpoint_lsn),
                )

        return hook

    def _crash_hook(self, site: "Site"):
        def hook() -> None:
            # Registered after the WAL's own crash hook, so the volatile
            # tail is already discarded: this hashes exactly the durable
            # image restore must rebuild.
            fingerprint = self._durable_fingerprint(site)
            if fingerprint is not None:
                self._pre_crash_fp[site.site_id] = fingerprint

        return hook

    def _power_on_hook(self, site: "Site"):
        def hook() -> None:
            # Site.power_on runs wal.restore() before these hooks fire.
            expected = self._pre_crash_fp.pop(site.site_id, None)
            if expected is None:
                return
            self.checks += 1
            actual = self._state_fingerprint(site)
            if actual != expected:
                self._alert(
                    "wal.replay_fingerprint",
                    "critical",
                    "restored state diverges from the pre-crash durable "
                    "image (checkpoint + log replay is not faithful)",
                    site=site.site_id,
                    details={"expected": expected, "actual": actual},
                )

        return hook

    def _durable_fingerprint(self, site: "Site") -> str | None:
        """Hash of the state reconstructible from checkpoint + log.

        An independent mirror of :meth:`SiteWal.restore` (same record
        semantics, no shared code) so replay bugs can't hide in a shared
        implementation: the base, then every delta above the base LSN,
        then the log after the newest of them.
        """
        stable = site.stable
        checkpoint = typing.cast("dict | None", stable.get(CHECKPOINT_KEY))
        if checkpoint is None:
            return None
        # Deltas above the base, ordered by the LSN their blobs record.
        deltas = sorted(
            (
                typing.cast(dict, stable.get(key))
                for key in stable.keys()
                if key.startswith(DELTA_PREFIX)
            ),
            key=lambda delta: delta["lsn"],
        )
        items = dict(checkpoint["items"])
        header = checkpoint
        for delta in deltas:
            if delta["lsn"] > checkpoint["lsn"]:
                items.update(delta["items"])
                header = delta
        session_last = header["session_last"]
        session_started = header["session_started_at"]
        for record in site.wal.log.records_after(header["lsn"]):
            if record.kind == "write":
                items[record.item] = (record.value, record.version, False)
            elif record.kind == "mark":
                if record.item in items:
                    value, version, _ = items[record.item]
                    items[record.item] = (value, version, True)
            elif record.kind == "clear":
                if record.item in items:
                    value, version, _ = items[record.item]
                    items[record.item] = (value, version, False)
            elif record.kind == "session":
                session_last = record.session
                if record.session_started_at is not None:
                    session_started = record.session_started_at
        return self._fingerprint(items, session_last, session_started)

    def _state_fingerprint(self, site: "Site") -> str:
        """Hash of the live copies + stable session state (post-restore)."""
        items = {}
        for name in site.copies.items():
            copy = site.copies.get(name)
            items[name] = (copy.value, copy.version, copy.unreadable)
        return self._fingerprint(
            items,
            site.stable.get("session.last", 0),
            site.stable.get("session.started_at"),
        )

    @staticmethod
    def _fingerprint(
        items: dict, session_last: object, session_started: object
    ) -> str:
        digest = hashlib.sha256()
        for name in sorted(items):
            value, version, unreadable = items[name]
            normalized = tuple(version) if version is not None else None
            digest.update(
                repr((name, value, normalized, bool(unreadable))).encode()
            )
        digest.update(repr(("session", session_last, session_started)).encode())
        return digest.hexdigest()

    # -- liveness watchdogs ---------------------------------------------------

    def _watchdog(self) -> typing.Generator:
        while not self._stopped:
            yield self.kernel.timeout(self.config.watchdog_interval)
            if self._stopped:
                return
            now = self.kernel.now
            self._watch_drain(now)
            self._watch_copiers(now)
            self._watch_spans(now)

    def _unreadable_count(self, site: "Site") -> int:
        return sum(
            1 for item in site.copies.unreadable_items() if not is_ns_item(item)
        )

    def _watch_drain(self, now: float) -> None:
        for site_id, site in self.system.cluster.sites.items():
            count = self._unreadable_count(site)
            state = self._drain_state.get(site_id)
            if not site.is_operational or count == 0 or (
                state is not None and state[0] != count
            ):
                self._drain_state[site_id] = (count, now, False)
                continue
            if state is None:
                self._drain_state[site_id] = (count, now, False)
                continue
            _, since, alerted = state
            if not alerted and now - since >= self.config.drain_stall_budget:
                self._alert(
                    "liveness.drain_stall",
                    "warning",
                    f"{count} unreadable copies have not drained for "
                    f"{now - since:.0f} sim-time units at an operational site",
                    site=site_id,
                    details={"count": count, "stalled_for": now - since},
                )
                self._drain_state[site_id] = (count, since, True)

    def _watch_copiers(self, now: float) -> None:
        for site_id, copier in getattr(self.system, "copiers", {}).items():
            site = self.system.cluster.sites[site_id]
            pending = self._unreadable_count(site)
            signature = dataclasses.astuple(copier.stats)
            state = self._copier_state.get(site_id)
            if not site.is_operational or pending == 0 or (
                state is not None and state[0] != signature
            ):
                self._copier_state[site_id] = (signature, now, False)
                continue
            if state is None:
                self._copier_state[site_id] = (signature, now, False)
                continue
            _, since, alerted = state
            if not alerted and now - since >= self.config.copier_stall_budget:
                self._alert(
                    "liveness.copier_starved",
                    "warning",
                    f"copier made no progress for {now - since:.0f} sim-time "
                    f"units with {pending} copies pending",
                    site=site_id,
                    details={"pending": pending, "starved_for": now - since},
                )
                self._copier_state[site_id] = (signature, since, True)

    def _watch_spans(self, now: float) -> None:
        """Budget 2PC and async-drain spans (one shared cursor pass)."""
        if not self.obs.spans_on:
            return
        spans = self.obs.spans.spans
        while self._span_cursor < len(spans):
            span = spans[self._span_cursor]
            self._span_cursor += 1
            if span.end is not None:
                continue
            if span.category == "2pc":
                self._open_2pc[span.span_id] = span
            elif span.category == "drain":
                self._open_drains[span.span_id] = span
        self._budget_spans(
            now, self._open_2pc, self.config.twopc_budget,
            "liveness.twopc_overrun", "2PC",
        )
        self._budget_spans(
            now, self._open_drains, self.config.drain_budget,
            "liveness.drain_overrun", "async drain",
        )

    def _budget_spans(
        self,
        now: float,
        open_spans: dict[int, typing.Any],
        budget: float,
        rule: str,
        label: str,
    ) -> None:
        for span_id, span in list(open_spans.items()):
            if span.end is not None:
                del open_spans[span_id]
            elif now - span.start > budget:
                self._alert(
                    rule,
                    "warning",
                    f"{label} open for {now - span.start:.0f} sim-time units "
                    f"(budget {budget:.0f})",
                    site=span.site_id,
                    txn_ids=(span.txn_id,) if span.txn_id else (),
                    span_id=span_id,
                    details={"open_for": now - span.start},
                )
                del open_spans[span_id]

    # -- metrics / reporting --------------------------------------------------

    def _collect(self) -> dict:
        return {
            ("audit.alerts", None): float(len(self.alerts.alerts)),
            ("audit.alerts_critical", None): float(self.alerts.count("critical")),
            ("audit.alerts_warning", None): float(self.alerts.count("warning")),
            ("audit.checks", None): float(self.checks),
            ("audit.graph_txns", None): float(self.stg.graph.number_of_nodes()),
            ("audit.graph_edges", None): float(self.stg.graph.number_of_edges()),
        }

    def summary(self) -> dict:
        """Auditor section of the recovery-timeline report."""
        self._pump()
        return {
            "alerts": len(self.alerts.alerts),
            "critical": self.alerts.count("critical"),
            "warning": self.alerts.count("warning"),
            "by_rule": {
                rule: len(alerts) for rule, alerts in self.alerts.by_rule().items()
            },
            "checks": self.checks,
            "graph": self.stg.stats,
        }


def attach_auditor(
    system: "DatabaseSystem", config: AuditConfig | None = None
) -> ProtocolAuditor:
    """Attach a :class:`ProtocolAuditor` to a built (idle) system.

    Idempotent: a system audits at most once. Attach after construction
    and before driving load — the graph and oracle assume they observe
    every commit.
    """
    existing = system.obs.audit
    if existing is not None:
        return existing
    return ProtocolAuditor(system, config)
