"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro e1 [--seed 3] [--scale small|full] [--jobs 4]
    python -m repro all --scale small --jobs 4 --bench-out BENCH_grid.json
    python -m repro trace --experiment e2 --out trace.json [--jsonl spans.jsonl]
    python -m repro metrics --experiment e2 [--out metrics.json]
    python -m repro audit --experiment e2 [--out alerts.jsonl]
    python -m repro latency --experiment e10 [--out budget.json] [--series ts.jsonl]
    python -m repro profile --experiment e11 [--sample] [--folded f.txt]
        [--speedscope s.json] [--out prof.json]
    python -m repro schedfuzz --experiment e2 [--schedules 8] [--races]
        [--out schedules.json | --replay schedules.json]

Each experiment prints the table documented in EXPERIMENTS.md; ``small``
scale finishes in a few seconds per experiment, ``full`` matches the
recorded tables. ``--jobs N`` fans the (scheme × seed × config) cell
grid across a process pool — results are identical to a serial run
(cells are pure functions of their arguments).

``trace`` and ``metrics`` run one small traced scenario of an experiment
(spans + timeline on; see :mod:`repro.obs.scenarios`) and export the
observability stream: ``trace`` writes a Chrome trace-event file for
chrome://tracing or https://ui.perfetto.dev (plus optionally the raw
JSONL stream), ``metrics`` a metrics-registry snapshot; both print the
recovery-timeline report.

``latency`` runs a traced scenario with the windowed time-series
sampler on and prints the critical-path **latency budget**
(:mod:`repro.obs.critpath`): end-to-end ack latency decomposed into
lock wait / execution / WAL stall / network / prepare wait / decision
broadcast, with p50/p99 and share-of-total per category, plus the
per-outage throughput troughs (:mod:`repro.obs.timeseries`). For
``--experiment e10`` it runs *both* commit modes (async fast path and
the sync baseline) so the budget tables line up side by side;
``--out`` saves the machine-readable JSON and ``--series`` the sampled
time-series JSONL.

``profile`` runs a traced scenario with the **host-CPU profiler**
attached to the kernel dispatch loop (:mod:`repro.obs.profiler`):
exclusive host CPU attributed per subsystem (kernel/net/tm/dm/locks/
wal/copier/mvcc/audit/obs/workload), printed as a table whose rows sum
to the dispatch wall time. ``--folded``/``--speedscope`` export the
*sim-time* flamegraph collapsed from the span tree; ``--sample`` adds
``sys.setprofile`` host folded stacks; ``--out`` saves everything as
JSON. The profiler's own cost is pinned by exact bytecode and
clock-read counts in the tier-1 tests (``tests/obs/test_profiler.py``).

``audit`` runs the same traced scenario under the online protocol
auditor (:mod:`repro.audit`): live 1-STG cycle detection, session
coherence, missing-list conservatism, ROWAA write coverage, WAL/durable
coherence, and liveness watchdogs. It exports the structured alert
stream as JSONL, prints the auditor summary table and the
recovery-timeline report, and exits non-zero when any **critical**
alert fired — which is exactly the CI audit gate.

``schedfuzz`` runs the schedule-space sanitizer (:mod:`repro.sanitize`):
K perturbed schedules of one traced scenario — same seed, shuffled
same-timestamp tie-breaks — each compared against the canonical run on
committed-state fingerprint and audit-alert signature. A divergence
means the protocol's outcome depended on an arbitrary scheduling
tie-break; the failing decision list is then delta-debugged down to a
minimal replayable schedule and exported (``--out``) as a JSON artifact
that ``--replay`` re-runs. ``--races`` additionally attaches the
happens-before race detector (vector clocks over simulated strands) to
the perturbed runs.

``lint`` runs replint (:mod:`repro.lint`), the AST-based static
analysis enforcing the same invariants the auditor checks dynamically
(determinism, protocol isolation, durable-write discipline) over *all*
code paths. Exit 0 clean or baseline-only, 1 on new findings, 2 on
usage errors — see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
import typing

from repro.harness.experiments import (
    e1_availability,
    e2_resume,
    e3_overhead,
    e4_copiers,
    e5_identification,
    e6_multifailure,
    e7_control_cost,
    e8_serializability,
    e9_catchup,
    e10_commit_modes,
    e11_snapshot_reads,
)

Runner = typing.Callable[..., object]

EXPERIMENTS: dict[str, dict] = {
    "e1": {
        "module": e1_availability,
        "title": "availability vs failed sites",
        "full": dict(n_sites=5, replication=3, n_items=12, max_failed=4,
                     load_duration=300.0),
        "small": dict(n_sites=4, replication=2, n_items=8, max_failed=2,
                      load_duration=150.0),
    },
    "e2": {
        "module": e2_resume,
        "title": "recovery latency vs missed updates",
        "full": dict(n_items=24, missed_updates=(0, 8, 24, 48)),
        "small": dict(n_items=12, missed_updates=(0, 6, 12)),
    },
    "e3": {
        "module": e3_overhead,
        "title": "failure-free overhead",
        "full": dict(site_counts=(3, 5, 7), load_duration=400.0, repeats=3),
        "small": dict(site_counts=(3,), load_duration=200.0, repeats=1),
    },
    "e4": {
        "module": e4_copiers,
        "title": "copier scheduling strategies",
        "full": dict(n_items=24, stale_fraction=0.5, read_duration=500.0),
        "small": dict(n_items=12, stale_fraction=0.5, read_duration=250.0),
    },
    "e5": {
        "module": e5_identification,
        "title": "out-of-date identification policies",
        "full": dict(n_items=24, update_fractions=(0.125, 0.5, 1.0)),
        "small": dict(n_items=12, update_fractions=(0.25, 1.0)),
    },
    "e6": {
        "module": e6_multifailure,
        "title": "multiple/cascading failures",
        "full": dict(trials=6),
        "small": dict(trials=2),
    },
    "e7": {
        "module": e7_control_cost,
        "title": "control/status maintenance cost",
        "full": dict(item_counts=(4, 16, 48)),
        "small": dict(item_counts=(4, 16)),
    },
    "e8": {
        "module": e8_serializability,
        "title": "one-serializability under failures",
        "full": dict(trials=5, duration=800.0),
        "small": dict(trials=2, duration=400.0),
    },
    "e9": {
        "module": e9_catchup,
        "title": "catch-up transport: log-shipping vs item copy",
        "full": dict(n_items=24, missed_updates=(4, 16, 48)),
        "small": dict(n_items=12, missed_updates=(4, 12)),
    },
    "e10": {
        "module": e10_commit_modes,
        "title": "commit modes: sync 2PC vs async quorum",
        "full": dict(trials=4, duration=600.0),
        "small": dict(trials=2, duration=300.0),
    },
    "e11": {
        "module": e11_snapshot_reads,
        "title": "snapshot reads vs lock-based reads under failures",
        "full": dict(trials=4, duration=600.0),
        "small": dict(trials=2, duration=300.0),
    },
}


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for Bhargava & Ruan (1986), "
        "'Site Recovery in Replicated Distributed Database Systems'.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e1..e11), 'all', 'list', 'trace', "
        "'metrics', 'audit', 'latency', 'profile', 'schedfuzz', or 'lint'",
    )
    parser.add_argument("--seed", type=int, default=3, help="master seed")
    parser.add_argument(
        "--scale", choices=("small", "full"), default="small",
        help="parameter scale (default: small)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan experiment cells across N worker processes",
    )
    parser.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="append per-cell wall times to this grid trajectory file",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="trace/metrics/audit/latency/profile/schedfuzz/lint: write "
        "this run's output to a standalone file (trace default: "
        "trace.json; audit default: alerts.jsonl)",
    )
    # trace/metrics/audit/latency/profile options (ignored elsewhere).
    parser.add_argument(
        "--experiment", dest="scenario", default="e2", metavar="EID",
        help="trace/metrics/audit/latency/profile: which experiment's "
        "traced scenario to run (default: e2; latency runs both commit "
        "modes for e10)",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="trace: also write the raw JSONL span/metric stream here",
    )
    parser.add_argument(
        "--sample-period", type=float, default=None, metavar="T",
        help="trace/latency: attach the windowed time-series sampler "
        "with this period in sim-time units (latency default: 10)",
    )
    parser.add_argument(
        "--series", default=None, metavar="PATH",
        help="latency: write the sampled time series as JSONL here "
        "(both modes appended for e10)",
    )
    # profile-only options (ignored by the other subcommands).
    parser.add_argument(
        "--sample", action="store_true",
        help="profile: also run the sys.setprofile host-stack sampler "
        "over the scenario (slow; folded stacks land in --out)",
    )
    parser.add_argument(
        "--folded", default=None, metavar="PATH",
        help="profile: write the sim-time flamegraph as flamegraph.pl "
        "collapsed folded stacks",
    )
    parser.add_argument(
        "--speedscope", default=None, metavar="PATH",
        help="profile: write the sim-time flamegraph as speedscope JSON "
        "(open at https://www.speedscope.app)",
    )
    # schedfuzz-only options (ignored by the other subcommands).
    parser.add_argument(
        "--schedules", type=int, default=8, metavar="K",
        help="schedfuzz: number of perturbed schedules (default: 8)",
    )
    parser.add_argument(
        "--races", action="store_true",
        help="schedfuzz: attach the happens-before race detector to the "
        "perturbed runs (reports ride on the artifact; they never gate)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="schedfuzz: skip delta-debugging the failing decision list",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=48, metavar="N",
        help="schedfuzz: max scenario re-runs spent shrinking (default 48)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="schedfuzz: re-run the minimal schedule from a previously "
        "exported artifact instead of fuzzing",
    )
    # lint-only options (ignored by the other subcommands).
    parser.add_argument(
        "--json", action="store_true",
        help="lint: emit the machine-readable JSON report",
    )
    parser.add_argument(
        "--path", action="append", default=None, metavar="PATH",
        help="lint: file or directory to analyse (repeatable; default: "
        "the installed repro package sources)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="lint: comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="lint: grandfathering baseline file "
        "(default: replint_baseline.json)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="lint: rewrite the baseline from the current findings",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint: only analyse files that differ from the given git ref "
        "(default ref: HEAD); untracked files are included",
    )
    return parser


def run_one(
    name: str, seed: int, scale: str, jobs: int | None = None,
    bench_out: str | None = None,
) -> None:
    """Run one experiment and print its table."""
    from repro.harness import parallel

    spec = EXPERIMENTS[name]
    params = dict(spec[scale])
    params["seed"] = seed
    start = time.time()
    table, timings = parallel.run_experiment(spec["module"], params, jobs=jobs)
    wall = time.time() - start
    print(table.render())
    print(f"({name} at scale={scale}, seed={seed}, jobs={jobs or 1}, "
          f"{wall:.1f}s wall)\n")
    if bench_out:
        parallel.write_grid_trajectory(
            bench_out, timings, label=f"{name}@{scale}", jobs=jobs,
            extra={"wall_s": round(wall, 4), "seed": seed},
        )


def run_all(
    seed: int, scale: str, jobs: int | None, bench_out: str | None
) -> None:
    """Run the whole E1–E8 grid, pooling every cell together."""
    from repro.harness import parallel

    specs = []
    for name, spec in EXPERIMENTS.items():
        params = dict(spec[scale])
        params["seed"] = seed
        specs.append((name, spec["module"], params))
    start = time.time()
    tables, timings = parallel.run_grid(specs, jobs=jobs)
    wall = time.time() - start
    for name, table in tables.items():
        print(table.render())
        print()
    print(f"(all at scale={scale}, seed={seed}, jobs={jobs or 1}, "
          f"{wall:.1f}s wall)")
    if bench_out:
        parallel.write_grid_trajectory(
            bench_out, timings, label=f"all@{scale}", jobs=jobs,
            extra={"wall_s": round(wall, 4), "seed": seed},
        )


def run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: traced scenario -> Chrome trace file."""
    from repro.obs.export import export_chrome_trace, export_jsonl
    from repro.obs.report import recovery_timeline, render_recovery_timeline
    from repro.obs.scenarios import run_traced

    try:
        run = run_traced(
            args.scenario, seed=args.seed, sample_period=args.sample_period
        )
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    label = f"{run.experiment}@seed={args.seed}"
    out = args.out or "trace.json"
    n_events = export_chrome_trace(run.obs, out, label=label)
    recorder = run.obs.spans
    print(f"{out}: {n_events} trace events ({len(recorder.spans)} spans, "
          f"{len(recorder.instants)} instants) — open in chrome://tracing "
          "or https://ui.perfetto.dev")
    if args.jsonl:
        n_lines = export_jsonl(run.obs, args.jsonl, label=label)
        print(f"{args.jsonl}: {n_lines} JSONL lines")
    for key, value in run.summary.items():
        print(f"{key}: {value}")
    print()
    print(render_recovery_timeline(recovery_timeline(run.system)))
    return 0


def run_metrics(args: argparse.Namespace) -> int:
    """The ``metrics`` subcommand: traced scenario -> registry snapshot."""
    from repro.obs.export import export_metrics_json
    from repro.obs.report import recovery_timeline, render_recovery_timeline
    from repro.obs.scenarios import run_traced

    try:
        run = run_traced(args.scenario, seed=args.seed)
    except ValueError as exc:
        print(f"metrics: {exc}", file=sys.stderr)
        return 2
    if args.out:
        export_metrics_json(
            run.obs, args.out, label=f"{run.experiment}@seed={args.seed}"
        )
        print(f"wrote metrics snapshot to {args.out}")
    snapshot = run.obs.registry.snapshot()
    for name in sorted(snapshot["global"]):
        print(f"{name}: {snapshot['global'][name]}")
    print()
    print(render_recovery_timeline(recovery_timeline(run.system)))
    return 0


def run_latency(args: argparse.Namespace) -> int:
    """The ``latency`` subcommand: critical-path budget + time series.

    Runs the traced scenario with the windowed sampler attached, prints
    the per-category latency budget and per-outage throughput troughs.
    ``--experiment e10`` runs both commit modes (``e10`` async,
    ``e10sync`` baseline) back to back on the same seed. Exit status:
    0 on success, 2 on an unknown experiment name.
    """
    import json

    from repro.obs.critpath import latency_budget, render_latency_budget
    from repro.obs.scenarios import run_traced
    from repro.obs.timeseries import (
        export_series_jsonl,
        outage_stats,
        render_outage_stats,
    )

    period = args.sample_period if args.sample_period is not None else 10.0
    paired = {"e10": ["e10sync", "e10"], "e11": ["e11sync", "e11"]}
    scenarios = paired.get(args.scenario, [args.scenario])
    budgets: dict[str, dict] = {}
    troughs: dict[str, dict] = {}
    for index, scenario in enumerate(scenarios):
        try:
            run = run_traced(scenario, seed=args.seed, sample_period=period)
        except ValueError as exc:
            print(f"latency: {exc}", file=sys.stderr)
            return 2
        label = f"{scenario}@seed={args.seed}"
        mode = run.summary.get("commit_mode")
        print(f"== {scenario}" + (f" ({mode})" if mode else ""))
        budget = latency_budget(run.obs)
        budgets[scenario] = budget
        print(render_latency_budget(budget))
        sampler = run.obs.sampler
        if sampler is not None and sampler.windows:
            stats = outage_stats(sampler)
            troughs[scenario] = stats
            for line in render_outage_stats(stats):
                print(line)
            if args.series:
                n_lines = export_series_jsonl(
                    sampler, args.series, label=label, append=index > 0
                )
                print(f"{args.series}: +{n_lines} JSONL lines")
        print()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "experiment": args.scenario,
                    "seed": args.seed,
                    "sample_period": period,
                    "budgets": budgets,
                    "throughput": troughs,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote latency budget to {args.out}")
    return 0


def run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: host-CPU attribution + flamegraphs.

    Runs the traced scenario with the host-CPU profiler attached to
    the kernel dispatch loop and prints the per-subsystem attribution
    table (also folded into the recovery-timeline report for any
    profiled run). ``--folded`` / ``--speedscope`` export the sim-time
    flamegraph collapsed from the span tree; ``--sample`` additionally
    traces host stacks via ``sys.setprofile``; ``--out`` saves the
    machine-readable JSON. Exit status: 0 on success, 2 on an unknown
    experiment name.
    """
    import json

    from repro.obs.profiler import (
        StackSampler,
        export_folded,
        export_speedscope,
        folded_stacks,
        render_profile,
    )
    from repro.obs.report import recovery_timeline, render_recovery_timeline
    from repro.obs.scenarios import run_traced

    sampler = StackSampler() if args.sample else None
    try:
        if sampler is not None:
            sampler.start()
        try:
            run = run_traced(args.scenario, seed=args.seed, profile=True)
        finally:
            if sampler is not None:
                sampler.stop()
    except ValueError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    report = run.obs.profiler.report()
    print(render_profile(report))
    label = f"{run.experiment}@seed={args.seed}"
    sim_folded = folded_stacks(run.obs.spans)
    if args.speedscope:
        n_stacks = export_speedscope(run.obs.spans, args.speedscope, label=label)
        print(f"{args.speedscope}: speedscope profile, {n_stacks} sim-time "
              "stacks — open at https://www.speedscope.app")
    if args.folded:
        n_lines = export_folded(sim_folded, args.folded)
        print(f"{args.folded}: {n_lines} folded sim-time stacks "
              "(flamegraph.pl collapsed format)")
    if sampler is not None:
        for stack, seconds in sampler.top(5):
            print(f"host {seconds:.4f}s  {';'.join(stack[-4:])}")
    if args.out:
        document: dict = {
            "experiment": run.experiment,
            "seed": args.seed,
            "host": report,
            "sim_folded": [
                {"stack": list(stack), "sim_time": value}
                for stack, value in sorted(sim_folded.items())
            ],
        }
        if sampler is not None:
            document["host_folded"] = [
                {"stack": list(stack), "cpu_s": value}
                for stack, value in sorted(sampler.folded().items())
            ]
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote profile to {args.out}")
    for key, value in run.summary.items():
        print(f"{key}: {value}")
    print()
    timeline = recovery_timeline(run.system)
    timeline.pop("profile", None)  # the table already led the output
    print(render_recovery_timeline(timeline))
    return 0


def run_schedfuzz(args: argparse.Namespace) -> int:
    """The ``schedfuzz`` subcommand: the schedule-space sanitizer.

    Runs the canonical schedule of the traced scenario under the
    auditor, then K perturbed schedules of the same seed with the
    kernel's same-timestamp tie-breaks shuffled, and compares committed
    state fingerprints and audit-alert signatures. On divergence the
    failing decision list is delta-debugged to a minimal replayable
    schedule. ``--out`` saves the JSON artifact; ``--replay`` re-runs a
    saved artifact's minimal schedule. Exit status: 0 when every
    perturbed schedule converges (and a replayed artifact still
    diverges — reproducing is the replay's *success*), 1 on divergence
    (or a replay that no longer reproduces), 2 on usage errors.
    """
    import json

    from repro.sanitize.fuzz import replay_artifact, schedfuzz

    if args.replay is not None:
        try:
            with open(args.replay) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"schedfuzz: cannot read {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        if "divergence" not in document:
            print(f"schedfuzz: {args.replay} records no divergence; "
                  "nothing to replay", file=sys.stderr)
            return 2
        experiment = document.get("experiment", args.scenario)
        seed = int(document.get("seed", args.seed))
        try:
            canonical, replayed, diverged = replay_artifact(
                experiment, seed, document
            )
        except ValueError as exc:
            print(f"schedfuzz: {exc}", file=sys.stderr)
            return 2
        print(f"replay {experiment} seed={seed}: canonical "
              f"{canonical.fingerprint[:16]} vs replayed "
              f"{replayed.fingerprint[:16]}")
        if diverged:
            print("divergence reproduced")
            return 0
        print("divergence did NOT reproduce", file=sys.stderr)
        return 1

    if args.schedules < 1:
        print("schedfuzz: --schedules must be >= 1", file=sys.stderr)
        return 2
    try:
        result = schedfuzz(
            args.scenario, seed=args.seed, schedules=args.schedules,
            shrink=not args.no_shrink, races=args.races,
            shrink_budget=args.shrink_budget,
        )
    except ValueError as exc:
        print(f"schedfuzz: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.artifact(), handle, indent=2)
            handle.write("\n")
        print(f"wrote schedule artifact to {args.out}")
    return 1 if result.diverged else 0


def run_audit(args: argparse.Namespace) -> int:
    """The ``audit`` subcommand: traced scenario under the auditor.

    Exit status: 0 when no critical alert fired, 1 on any critical
    alert (the CI audit gate), 2 on an unknown experiment name.
    """
    from repro.obs.report import recovery_timeline, render_recovery_timeline
    from repro.obs.scenarios import run_traced

    try:
        run = run_traced(args.scenario, seed=args.seed, audit=True)
    except ValueError as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return 2
    auditor = run.obs.audit
    summary = auditor.summary()
    out = args.out or "alerts.jsonl"
    n_lines = auditor.alerts.export_jsonl(
        out, label=f"{run.experiment}@seed={args.seed}"
    )
    print(f"{out}: {n_lines} JSONL lines")
    print(auditor.alerts.render_summary())
    for key, value in run.summary.items():
        print(f"{key}: {value}")
    print()
    print(render_recovery_timeline(recovery_timeline(run.system)))
    if auditor.alerts.has_critical:
        print(
            f"audit: {summary['critical']} critical alert(s)  << VIOLATION",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    name = args.experiment.lower()
    if name == "list":
        for key, spec in EXPERIMENTS.items():
            print(f"{key}  {spec['title']}")
        return 0
    if name == "trace":
        return run_trace(args)
    if name == "metrics":
        return run_metrics(args)
    if name == "audit":
        return run_audit(args)
    if name == "latency":
        return run_latency(args)
    if name == "profile":
        return run_profile(args)
    if name == "schedfuzz":
        return run_schedfuzz(args)
    if name == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    if name == "all":
        run_all(args.seed, args.scale, args.jobs, args.bench_out)
        return 0
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    run_one(name, args.seed, args.scale, jobs=args.jobs,
            bench_out=args.bench_out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
