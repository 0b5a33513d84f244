"""The kernel's one drain loop: every driver and instrument mix agrees.

``run()``, ``run(until=t)``, ``run(future)`` and ``step()`` share one
loop, and the profiler, the tie-break policy and the race detector are
inline tests inside it. So one scripted heap must dispatch in the same
order, and count the same events, whichever way it is drained and
whatever is attached.
"""

import pytest

from repro.obs import Observability
from repro.obs.profiler import HostProfiler
from repro.sanitize import hooks
from repro.sanitize.hb import attach_detector, detach_detector
from repro.sanitize.policy import ScheduleSpec, attach_policy
from repro.sim import Kernel
from tests.bytecodes import PINNED, count_bytecodes, staggered_timeouts


def _scripted(kernel, log):
    """Staggered timeouts with ties, cancelled heads and a looping process.

    Returns the process, whose value is the number of its resumes.
    """

    def record(label):
        log.append((kernel.now, label))

    dead = kernel.schedule_callback(0.0, record, "dead-head")
    dead.cancel()
    for index in range(12):
        timeout = kernel.timeout(float(index % 4), index)
        timeout.add_callback(lambda fut: record(f"t{fut.value}"))
    kernel.timeout(2.0).cancel()
    for index in range(3):
        kernel.schedule_callback(float(index), record, f"cb{index}")
    kernel.schedule_callback(1.0, record, "dead-tie").cancel()

    def ticker():
        resumes = 0
        for _ in range(5):
            yield kernel.timeout(1.0)
            resumes += 1
            record(f"p{resumes}")
            kernel.call_soon(record, f"soon{resumes}")
        return resumes

    return kernel.process(ticker(), name="ticker")


def _drive(kernel, proc, driver):
    if driver == "run":
        kernel.run()
    elif driver == "run_until":
        kernel.run(until=1.5)
        assert kernel.now == 1.5
        kernel.run(until=100.0)
    elif driver == "run_future":
        assert kernel.run(proc) == 5
        kernel.run()
    else:
        while kernel.peek() != float("inf"):
            kernel.step()


DRIVERS = ["run", "run_until", "run_future", "step"]
INSTRUMENTS = ["none", "profiler", "canonical", "detector", "all"]


def _dispatch(driver, instrument):
    kernel = Kernel(seed=0)
    log = []
    profiler = None
    if instrument in ("profiler", "all"):
        profiler = HostProfiler()
        profiler.attach(kernel)
    if instrument in ("canonical", "all"):
        attach_policy(kernel, ScheduleSpec(mode="canonical"))
    if instrument in ("detector", "all"):
        attach_detector(kernel)
    try:
        proc = _scripted(kernel, log)
        _drive(kernel, proc, driver)
    finally:
        detach_detector(kernel)
    return kernel, log, profiler


def test_scripted_heap_is_nontrivial():
    kernel, log, _ = _dispatch("run", "none")
    labels = [label for _, label in log]
    assert "dead-head" not in labels and "dead-tie" not in labels
    assert [t for t, _ in log] == sorted(t for t, _ in log)
    # Same-instant ties run in scheduling order.
    assert labels[:4] == ["t0", "t4", "t8", "cb0"]
    assert labels.count("p5") == 1 and kernel.events_processed > len(log)


@pytest.mark.parametrize("instrument", INSTRUMENTS)
@pytest.mark.parametrize("driver", DRIVERS)
def test_every_driver_and_instrument_dispatch_alike(driver, instrument):
    reference, reference_log, _ = _dispatch("run", "none")
    kernel, log, profiler = _dispatch(driver, instrument)
    assert log == reference_log
    assert kernel.events_processed == reference.events_processed
    if profiler is not None:
        assert profiler.total_events == kernel.events_processed
        assert profiler.total_cpu_s == pytest.approx(
            profiler.dispatch_wall_s, rel=0.01
        )


def test_profiler_policy_and_detector_compose_on_e2():
    from repro.obs.scenarios import run_traced

    run = run_traced(
        "e2", seed=1, profile=True,
        schedule=ScheduleSpec(mode="shuffle", salt=5), races=True,
    )
    profiler = run.obs.profiler
    assert run.kernel.events_processed > 0
    assert profiler.total_events == run.kernel.events_processed
    assert profiler.total_cpu_s == pytest.approx(
        profiler.dispatch_wall_s, rel=0.01
    )
    assert run.obs.sanitizer.accesses_checked > 0
    assert run.kernel._tiebreak.decisions


def _kernel_opcodes_per_event(kernel, n=400):
    """Kernel bytecodes executed per event on kernel-events."""
    staggered_timeouts(kernel, n)
    return count_bytecodes(kernel.run) / kernel.events_processed


def _detached_sanitizer(kernel):
    attach_policy(kernel, ScheduleSpec(mode="canonical"))
    attach_detector(kernel)
    detach_detector(kernel)
    kernel.set_tiebreak(None)
    assert hooks.ACTIVE is None


def _disabled_observability(kernel):
    # The registry is pull-based and spans are off.
    obs = Observability(kernel)
    obs.registry.add_collector(
        lambda: {("kernel.events_processed", None): float(kernel.events_processed)}
    )
    return obs


@pytest.mark.parametrize(
    "instrument", [_detached_sanitizer, _disabled_observability],
    ids=["detached-sanitizer", "disabled-observability"],
)
def test_idle_instrument_costs_no_bytecode(instrument):
    fresh = _kernel_opcodes_per_event(Kernel(seed=0))
    kernel = Kernel(seed=0)
    obs = instrument(kernel)
    assert _kernel_opcodes_per_event(kernel) == fresh
    if obs is not None:
        assert obs.registry.snapshot()["global"]["kernel.events_processed"] == 400


@pytest.mark.skipif(not PINNED, reason="bytecode counts are pinned for CPython 3.11")
def test_kernel_events_bytecode_budget():
    # Draining 2,000 staggered timeouts: 63.0 bytecodes per event in the
    # kernel's own files. A hot-loop change updates this pin.
    kernel = staggered_timeouts(Kernel(seed=0), 2000)
    assert count_bytecodes(kernel.run) == 126_046
    assert kernel.events_processed == 2000
