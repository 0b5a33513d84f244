"""An operator's view of an incident: live trace + post-mortem report.

Runs a mixed workload through a double-failure incident and prints what
an on-call operator would want: a structured event timeline (site
lifecycle, control transactions, recoveries) and the per-site /
abort-reason / network report tables.

Run:  python examples/operations_dashboard.py
"""

import random

from repro.core import RowaaSystem
from repro.harness.report import full_report
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec


def main():
    kernel = Kernel(seed=404)
    spec = WorkloadSpec(n_items=16, ops_per_txn=3, write_fraction=0.4)
    system = RowaaSystem(
        kernel,
        n_sites=4,
        items=spec.initial_items(),
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
    )
    system.boot()
    system.obs.enable_timeline()  # record site lifecycle + txn finishes

    pool = ClientPool(
        system,
        WorkloadGenerator(spec, random.Random(2)),
        n_clients=6,
        think_time=3.0,
        retries=2,
    )
    pool.start(600.0)

    def incident():
        yield kernel.timeout(120.0)
        system.crash(3)                      # first failure
        yield kernel.timeout(60.0)
        system.crash(4)                      # second failure, overlapping
        yield kernel.timeout(80.0)
        yield system.power_on(3)             # 3 recovers while 4 is down
        yield kernel.timeout(100.0)
        yield system.power_on(4)

    kernel.process(incident())
    kernel.run(until=700.0)
    system.stop()
    kernel.run(until=720.0)

    print("=== incident timeline (protocol events) ===")
    for event in system.obs.spans.instants:
        if event.category == "txn":
            continue  # user transactions: protocol events only
        detail = f"  {event.detail}" if event.detail else ""
        print(f"[t={event.time:9.1f}] site {event.site_id}: "
              f"{event.category}/{event.name}{detail}")
    print()
    print("=== post-mortem report ===")
    print(full_report(system))
    print()
    stats = pool.stats
    print(f"client availability through the incident: {stats.availability:.3f} "
          f"({stats.committed}/{stats.attempted} committed, "
          f"{stats.refused} refused at down sites)")


if __name__ == "__main__":
    main()
