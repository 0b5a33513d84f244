"""Crash-replay determinism check (CI gate).

Runs two log-shipping recoveries twice with the same seed — the traced
scenario and E9's truncating cell, which checkpoints every four commits
— and asserts the durable outcome is **byte-identical**: per-site final
LSNs, the segment directory, the serialized truncation metadata and
checkpoint blobs (the base and every delta), the reconstructed copies
(value, version, unreadable mark), and the stable session state. Any
nondeterminism in the journal/replay path — record ordering,
fuzzy-checkpoint contents, truncation watermarks — shows up as a digest
mismatch here long before it shows up as a flaky recovery.

Usage::

    python -m repro.wal.determinism [--seed N] [--cross-schedule]

Exit code 0 on byte-identical runs, 1 on divergence.

``--cross-schedule`` asserts a *robustness* property instead of a
reproducibility one: the crash/resume scenario (E2) run under two
different same-timestamp tie-break salts (see
:mod:`repro.sanitize.policy`) must converge to **identical committed
state fingerprints** — same values, same unreadable marks, same stable
session numbers. Unlike the byte-level digest above, physical version
stamps and WAL layout are excluded: legal schedules may commit the same
values in a different physical order, and that is not a divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import typing

from repro.wal.log import CHECKPOINT_KEY, META_KEY


def site_durable_state(site: typing.Any) -> dict:
    """Everything that must be reproducible about one site's durability."""
    wal = site.wal
    return {
        "durable_lsn": wal.log.durable_lsn,
        "next_lsn": wal.log.next_lsn,
        "truncated_through": wal.log.truncated_through_lsn,
        "segments": list(wal.log.segments),
        "meta_blob": site.stable._blobs.get(META_KEY),
        # The base and every delta: together they are the checkpoint.
        "checkpoint_blobs": sorted(
            (key, blob)
            for key, blob in site.stable._blobs.items()
            if key.startswith(CHECKPOINT_KEY)
        ),
        "session_last": site.stable.get("session.last"),
        "copies": sorted(
            (name, copy.value, tuple(copy.version), copy.unreadable)
            for name, copy in (
                (name, site.copies.get(name)) for name in site.copies.items()
            )
        ),
        # Multiversion chain image (repro.mvcc): the rebuilt version
        # chains and the durable snapshot cut must replay identically too.
        "mvcc": site.mvcc.digest_state() if site.mvcc is not None else None,
    }


def _durable_states(system: typing.Any) -> dict:
    return {
        site_id: site_durable_state(system.cluster.site(site_id))
        for site_id in system.cluster.site_ids
    }


def run_digest(seed: int) -> tuple[str, dict]:
    """One scenario run -> (hex digest, per-site summary for diagnostics).

    Two recoveries are digested: the traced log-shipping scenario, and
    E9's truncating grid cell (``checkpoint_every=4, retain_records=0``),
    whose sites take several checkpoints each — base folds, live deltas
    and log truncation — so the checkpoint path is covered too.
    """
    from repro.harness.experiments.e9_catchup import _run_outage, traced_scenario

    _kernel, system, _obs, summary = traced_scenario(seed)
    truncating = _run_outage(seed, 3, 12, 12, "log_ship", True)[1]
    state = {
        "traced": _durable_states(system),
        "truncating": _durable_states(truncating),
    }
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    lsns = {
        run: {site_id: entry["durable_lsn"] for site_id, entry in sites.items()}
        for run, sites in state.items()
    }
    return hashlib.sha256(blob).hexdigest(), {"summary": summary, "lsns": lsns}


def check(seed: int = 3) -> bool:
    """Run twice, compare. Prints a verdict; True iff byte-identical."""
    first, info_a = run_digest(seed)
    second, info_b = run_digest(seed)
    print(f"run 1: digest={first[:16]} lsns={info_a['lsns']}")
    print(f"run 2: digest={second[:16]} lsns={info_b['lsns']}")
    if first == second:
        print(f"crash-replay determinism: OK (seed={seed})")
        return True
    print(f"crash-replay determinism: DIVERGED (seed={seed})  << REGRESSION")
    return False


def cross_schedule_digest(seed: int, salt: int) -> tuple[str, int]:
    """One E2 run under shuffle ``salt`` -> (fingerprint, choice points).

    Salt 0 runs the canonical (FIFO) schedule with the tie-break seam
    engaged, so the comparison also covers the seam itself.
    """
    from repro.obs.scenarios import run_traced
    from repro.sanitize.fingerprint import fingerprint, system_state
    from repro.sanitize.policy import ScheduleSpec

    mode = "canonical" if salt == 0 else "shuffle"
    run = run_traced("e2", seed=seed, schedule=ScheduleSpec(mode=mode, salt=salt))
    # strict_values: E2 is a single-writer recovery drill, so even the
    # committed *values* must be schedule-independent — a stronger claim
    # than the agreement-partition gate schedfuzz applies to contended
    # workloads.
    return (
        fingerprint(system_state(run.system, strict_values=True)),
        len(run.kernel._tiebreak.decisions),
    )


def check_cross_schedule(seed: int = 3, salts: tuple[int, ...] = (0, 1, 2)) -> bool:
    """Same seed, different tie-break salts, identical committed state."""
    digests = []
    for salt in salts:
        digest, choices = cross_schedule_digest(seed, salt)
        label = "canonical" if salt == 0 else f"shuffle[{salt}]"
        print(f"{label}: fingerprint={digest[:16]} choice_points={choices}")
        digests.append(digest)
    if len(set(digests)) == 1:
        print(f"cross-schedule determinism: OK (seed={seed}, "
              f"{len(salts)} schedules)")
        return True
    print(f"cross-schedule determinism: DIVERGED (seed={seed})  << REGRESSION")
    return False


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert crash-replay recovery is byte-identical "
        "across same-seed runs."
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--cross-schedule", action="store_true",
        help="instead: assert E2 committed state is identical across "
        "perturbed same-timestamp tie-break schedules",
    )
    args = parser.parse_args(argv)
    if args.cross_schedule:
        return 0 if check_cross_schedule(args.seed) else 1
    return 0 if check(args.seed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
