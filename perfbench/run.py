"""Run the repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Options: ``--workload`` (``write-soak``, ``rolling-recovery``,
``snapshot-read-mix`` or ``all``), ``--seed`` (the workload seed: same
seed, same inputs), ``--seconds`` (how long to keep measuring) and
``--trace`` (0: end-to-end metrics; 1: per-layer metrics from traced
rounds).

A run is a sequence of rounds, one after another, each a fresh process
(:mod:`perfbench.scenario`) that builds the system, drives the load
window, quiesces, verifies and gates. Rounds repeat until ``--seconds``
have passed (at least three untraced rounds; with ``--trace 1`` the
rounds alternate untraced and traced, at least one of each). Host-time
metrics are medians over the untraced rounds; sim-time and count
metrics are exact and must be identical in every round, traced or not,
which is the benchmark's determinism and tracing-fidelity check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (client transactions attempted over all
rounds), ``failed`` (client transactions whose outcome broke a check;
a run with any such exits non-zero before printing) and ``metrics``.
Aborts and refusals are protocol outcomes, not failures: they are
counted in the failure accounting and in ``workload.failed_frac``. Any
failed check exits non-zero, naming the workload, the seed and the
check.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("write-soak", "rolling-recovery", "snapshot-read-mix")
MIN_UNTRACED_ROUNDS = 3
#: A run starts no round after this many seconds, so it ends well inside
#: the 180 s a run may take.
ROUND_START_LIMIT_S = 120.0
ROUND_TIMEOUT_S = 170.0

#: The end-to-end metrics: (name, unit, better, source). ``host`` values
#: are medians over untraced rounds; ``det`` values are exact.
END_TO_END = (
    ("host_commits_per_s", "txn/s", "higher", "host"),
    ("verify_s", "s", "lower", "host"),
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
    ("ack_p50_sim", "sim", "lower", "det"),
    ("ack_tail_sim", "sim", "lower", "det"),
    ("goodput_per_ksim", "txn/ksim", "higher", "det"),
    ("failed_frac", "ratio", "lower", "det"),
    ("operational_p50_sim", "sim", "lower", "det"),
    ("fully_current_p50_sim", "sim", "lower", "det"),
    ("msgs_per_commit", "msgs", "lower", "det"),
    ("wire_bytes_per_commit", "bytes", "lower", "det"),
    ("stable_bytes_per_commit", "bytes", "lower", "det"),
)
#: End-to-end metrics that are printed but left out of the JSON result,
#: which holds only metrics that every workload measures and that are
#: steady from seed to seed: write-soak has no recoveries (so no recovery
#: times) and too few aborts for a steady failed fraction, and host
#: throughput and the checkers' host time follow the machine's speed,
#: which on a shared 2-core VM drifted by 30-40% within one set of ten
#: runs, more than the largest allowed bound. Their per-layer twins carry
#: them; compare host time between two commits with alternating paired
#: runs instead.
#: The value is the key of the sample count printed beside the metric.
UNBOUNDED = {
    "host_commits_per_s": "",
    "verify_s": "",
    "failed_frac": "attempted",
    "operational_p50_sim": "operational_n",
    "fully_current_p50_sim": "fully_current_n",
}

#: The per-layer metrics: (name, unit, better).
PER_LAYER = (
    ("sim.host_commits_per_s", "txn/s", "higher"),
    ("sim.events_per_commit", "events/commit", "lower"),
    ("sim.unattributed_share", "ratio", "lower"),
    *(
        (f"net.msgs.{kind}_per_commit", "msgs/commit", "lower")
        for kind in (
            "dm.write", "dm.prepare", "dm.commit", "dm.read", "dm.release",
            "dm.abort", "rpc.batch", "other",
        )
    ),
    ("net.dropped_frac", "ratio", "lower"),
    ("net.rpc_calls_per_commit", "calls/commit", "lower"),
    ("net.rpc_batched_frac", "ratio", "higher"),
    ("net.send_self_share", "ratio", "lower"),
    ("txn.locks.grants_per_commit", "grants/commit", "lower"),
    ("txn.locks.wait_frac", "ratio", "lower"),
    ("txn.locks.self_share", "ratio", "lower"),
    ("txn.deadlock.victims_per_kcommit", "1/kcommit", "lower"),
    *(
        (f"txn.tm.abort.{reason}_frac", "ratio", "lower")
        for reason in (
            "deadlock-detected", "rpc-timeout", "session-mismatch",
            "copy-unreadable", "transaction-error", "other",
        )
    ),
    ("txn.tm.commit_round_sim", "sim", "lower"),
    ("wal.records_per_commit", "records/commit", "lower"),
    ("wal.flushes_per_commit", "flushes/commit", "lower"),
    ("wal.records_per_flush", "records/flush", "higher"),
    ("wal.checkpoints_per_kcommit", "1/kcommit", "lower"),
    ("wal.flush_self_share", "ratio", "lower"),
    ("storage.stable.puts_per_commit", "puts/commit", "lower"),
    ("storage.stable.meta_bytes_per_commit", "bytes/commit", "lower"),
    ("storage.stable.segment_bytes_per_commit", "bytes/commit", "lower"),
    ("storage.stable.ckpt_bytes_per_commit", "bytes/commit", "lower"),
    ("storage.stable.put_self_share", "ratio", "lower"),
    ("storage.copies.applies_per_commit", "applies/commit", "lower"),
    ("core.copier.refreshes_per_recovery", "count", "lower"),
    ("core.copier.useful_frac", "ratio", "higher"),
    ("core.copier.aborts_per_refresh", "ratio", "lower"),
    ("core.copier.refresh_sim", "sim", "lower"),
    ("core.recovery.recoveries", "count", "lower"),
    ("core.recovery.operational_p50_sim", "sim", "lower"),
    ("core.recovery.fully_current_p50_sim", "sim", "lower"),
    ("core.recovery.marked_per_recovery", "count", "lower"),
    ("core.recovery.type1_attempts_per_recovery", "count", "lower"),
    ("core.control.type2_runs_per_crash", "count", "lower"),
    ("core.session.rejections_per_kcommit", "1/kcommit", "lower"),
    ("core.unreadable.rejections_per_kcommit", "1/kcommit", "lower"),
    ("mvcc.reads_served_per_commit", "reads/commit", "higher"),
    ("mvcc.stale_served_frac", "ratio", "lower"),
    ("mvcc.versions_retained_peak", "count", "lower"),
    ("mvcc.gc_reclaimed_per_sweep", "count", "higher"),
    ("mvcc.read_self_share", "ratio", "lower"),
    ("histories.ops_per_commit", "ops/commit", "lower"),
    ("histories.ops_retained", "count", "lower"),
    ("histories.verify_s", "s", "lower"),
    ("histories.one_sr_s", "s", "lower"),
    ("histories.theorem3_s", "s", "lower"),
    ("histories.record_self_share", "ratio", "lower"),
    ("workload.failed_frac", "ratio", "lower"),
    ("workload.retries_per_commit", "retries/commit", "lower"),
    ("workload.ro_refused_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class CheckFailed(Exception):
    """A benchmark-level check failed (the message names it)."""


def spawn_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one round in a fresh process and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # The kernel's event count depends on the string-hash seed: the
    # determinism check found rolling-recovery rounds of one seed that
    # dispatch an event or two more (of ~80k) under some hash seeds than
    # under others, with every other metric equal. A fixed hash seed keeps
    # rounds comparable; the defect stays visible as an expected failure
    # in perfbench/tests.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, "-m", "perfbench.scenario",
        "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(time.monotonic()),
    ]
    if traced:
        command.append("--traced")
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise CheckFailed(f"{workload} seed={seed}: round timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise CheckFailed(
            f"{workload} seed={seed}: round exited with code {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _differences(a: dict, b: dict) -> list[str]:
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All rounds of one workload, checked for determinism and fidelity."""
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED_ROUNDS) and (
            not trace or traced
        )
        if (enough and elapsed >= seconds) or (
            untraced and elapsed >= ROUND_START_LIMIT_S
        ):
            break
        want_traced = trace and len(traced) < len(untraced)
        result = spawn_round(workload, seed, want_traced, ROUND_TIMEOUT_S)
        (traced if want_traced else untraced).append(result)
    reference = untraced[0]["det"]
    for index, result in enumerate(untraced[1:] + traced):
        diff = _differences(reference, result["det"])
        if diff:
            check = "tracing-fidelity" if index >= len(untraced) - 1 else "determinism"
            raise CheckFailed(
                f"{workload} seed={seed}: check {check!r} failed: "
                f"sim-time/count metrics differ between rounds: {diff[:8]}"
            )
    return {"workload": workload, "seed": seed, "untraced": untraced, "traced": traced}


def _median(rounds: list[dict], section: str, key: str) -> float:
    return statistics.median(r[section][key] for r in rounds)


def end_to_end(run: dict) -> dict[str, float]:
    det = run["untraced"][0]["det"]
    return {
        name: _median(run["untraced"], "host", name) if source == "host" else det[name]
        for name, _unit, _better, source in END_TO_END
    }


def per_layer(run: dict) -> dict[str, float]:
    det = run["untraced"][0]["det"]
    traced = run["traced"]
    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in det:
            values[name] = det[name]
        elif name in ("sim.host_commits_per_s", "histories.verify_s"):
            values[name] = _median(run["untraced"], "host", name.split(".", 1)[1])
        elif name in ("histories.one_sr_s", "histories.theorem3_s"):
            values[name] = _median(traced, "host", name.split(".", 1)[1])
        elif name == "trace.overhead_frac":
            values[name] = (
                _median(traced, "host", "wall_s") / _median(run["untraced"], "host", "wall_s")
                - 1.0
            )
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    return values


def check_traffic(run: dict, write_soak_stable: float | None) -> None:
    """The separation each workload claims (traced runs)."""
    name, seed = run["workload"], run["seed"]
    det = run["untraced"][0]["det"]
    recoveries = det["core.recovery.recoveries"]
    refreshes = det["core.copier.refreshes_per_recovery"] * recoveries
    problems = []
    if name == "write-soak" and (recoveries or refreshes):
        problems.append(f"{recoveries} recoveries and {refreshes} copier refreshes")
    if name == "rolling-recovery" and not (recoveries and refreshes):
        problems.append(f"{recoveries} recoveries and {refreshes} copier refreshes")
    if name == "snapshot-read-mix":
        if write_soak_stable is not None and not (
            det["stable_bytes_per_commit"] * 10 <= write_soak_stable
        ):
            problems.append(
                f"stable bytes per commit {det['stable_bytes_per_commit']:.0f} not 10x "
                f"below write-soak's {write_soak_stable:.0f}"
            )
        if not det["mvcc.reads_served_per_commit"] > 0:
            problems.append("no snapshot reads served")
    if problems:
        raise CheckFailed(f"{name} seed={seed}: check 'traffic' failed: {'; '.join(problems)}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_tables(run: dict, trace: bool) -> None:
    det = run["untraced"][0]["det"]
    rounds = f"{len(run['untraced'])} untraced + {len(run['traced'])} traced rounds"
    print(f"== {run['workload']} seed={run['seed']} ({rounds})")
    print(
        f"  accounting: attempted={det['attempted']} committed={det['committed']} "
        f"aborted={det['aborted']} refused={det['refused']} | "
        f"RO attempted={det['ro_attempted']} committed={det['ro_committed']} "
        f"aborted={det['ro_aborted']} refused={det['ro_refused']} | "
        f"RW attempted={det['attempted'] - det['ro_attempted']} "
        f"committed={det['committed'] - det['ro_committed']}"
    )
    print(
        f"  TM transactions finished={det['tm_finished']} "
        f"aborts by reason={det['aborts_by_reason']}"
    )
    values = end_to_end(run)
    for name, unit, better, _source in END_TO_END:
        note = ""
        if name == "ack_tail_sim":
            note = (
                f"  (p{det['ack_tail_pct']}, {det['ack_tail_beyond']} of "
                f"{det['ack_samples']} beyond)"
            )
        elif UNBOUNDED.get(name):
            count = det[UNBOUNDED[name]]
            note = f"  (n={count})" if count else "  (n=0: does not apply)"
        print(f"  {name:<28} {_fmt(values[name]):>14} {unit:<9} {better}{note}")
    if trace:
        layer = per_layer(run)
        print("  -- per layer (traced)")
        for name, unit, _better in PER_LAYER:
            print(f"  {name:<44} {_fmt(layer[name]):>14} {unit}")
        meta = _per_cent(
            layer["storage.stable.meta_bytes_per_commit"], det["stable_bytes_per_commit"]
        )
        theorem3 = _per_cent(
            layer["histories.theorem3_s"],
            layer["histories.one_sr_s"] + layer["histories.theorem3_s"],
        )
        print(
            f"  -- observations: WAL meta is {meta} of stable bytes; "
            f"Theorem 3 is {theorem3} of verify time"
        )


def _per_cent(part: float, whole: float) -> str:
    return f"{100 * part / whole:.0f}%" if whole else "n/a"


def result_line(runs: list[dict], trace: bool) -> dict:
    """The JSON result; with several workloads, names get a workload prefix."""
    metrics = {}
    for run in runs:
        if trace:
            units = {name: unit for name, unit, _better in PER_LAYER}
            values = per_layer(run)
        else:
            units = {name: unit for name, unit, _better, _source in END_TO_END}
            values = {
                name: value for name, value in end_to_end(run).items()
                if name not in UNBOUNDED
            }
        prefix = f"{run['workload']}/" if len(runs) > 1 else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(
        r["det"]["attempted"] for run in runs for r in run["untraced"] + run["traced"]
    )
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the system under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    runs: list[dict] = []
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, trace)
            runs.append(run)
            write_soak = next((r for r in runs if r["workload"] == "write-soak"), None)
            if trace and name == "snapshot-read-mix" and write_soak is None:
                probe = spawn_round("write-soak", args.seed, False, ROUND_TIMEOUT_S)
                write_soak = {"untraced": [probe]}
            if trace or args.workload == "all":
                check_traffic(
                    run,
                    write_soak["untraced"][0]["det"]["stable_bytes_per_commit"]
                    if write_soak is not None else None,
                )
            print_tables(run, trace)
    except CheckFailed as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(runs, trace), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
