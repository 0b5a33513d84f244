"""Self-tests of the benchmark: determinism, gate, record.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
Workload windows are shrunk so each scenario takes well under a second.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import gate, layers, run, scenario, workloads
from repro.harness.runner import quiesce

ROOT = pathlib.Path(__file__).resolve().parents[2]
TINY = {"write-soak": 120.0, "rolling-recovery": 320.0, "snapshot-read-mix": 300.0}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], duration=TINY[name], replicas=2)


def round_of(name: str, seed: int = 5, traced: bool = False) -> dict:
    return scenario.run_round(tiny(name), seed, traced, time.monotonic())


def test_same_seed_twice_gives_identical_deterministic_metrics():
    first = round_of("snapshot-read-mix")
    second = round_of("snapshot-read-mix")
    assert first["det"] == second["det"]
    assert first["det"]["committed"] > 0


def test_other_seed_gives_other_inputs():
    assert round_of("write-soak", seed=5)["det"] != round_of("write-soak", seed=6)["det"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_passes_gate_and_tracing_is_faithful(name):
    untraced = round_of(name)
    traced = round_of(name, traced=True)
    assert traced["det"] == untraced["det"]
    layers = traced["layers"]
    assert 0.0 <= layers["sim.unattributed_share"] < 1.0
    assert layers["storage.stable.put_self_share"] > 0.0
    if name == "rolling-recovery":
        assert untraced["det"]["core.recovery.recoveries"] >= 1
        assert untraced["det"]["fully_current_n"] >= 1
    if name == "write-soak":
        assert untraced["det"]["core.recovery.recoveries"] == 0


def _quiesced(name: str, seed: int = 5):
    workload = dataclasses.replace(tiny(name), replicas=1)
    kernel, system = workloads.build(workload, seed)
    ledger = gate.Ledger()
    ledger.attach(system)
    workloads.start_load(workload, system, seed)
    kernel.run(until=workload.duration)
    quiesce(kernel, system)
    return system, ledger


def _gate(system, ledger, seed: int = 5) -> None:
    one_sr, theorem3 = gate.verify(system, layers.HostClock())
    gate.check("write-soak", seed, system, ledger, one_sr, theorem3)


def test_gate_passes_on_an_untouched_run():
    system, ledger = _quiesced("write-soak")
    _gate(system, ledger)
    assert sum(ledger.acked.values()) > 0


def test_gate_fails_when_one_copy_is_corrupted_after_quiesce():
    system, ledger = _quiesced("write-soak")
    system.cluster.site(2).copies.get("X7").value += 100
    with pytest.raises(gate.GateFailure) as failure:
        _gate(system, ledger)
    assert failure.value.check == "copies-agree"
    assert "write-soak seed=5" in str(failure.value)


def test_gate_fails_when_an_acknowledged_increment_is_lost():
    system, ledger = _quiesced("write-soak")
    item = next(item for item, count in ledger.acked.items() if count)
    for site_id in system.catalog.sites_of(item):
        system.cluster.site(site_id).copies.get(item).value -= 1
    with pytest.raises(gate.GateFailure) as failure:
        _gate(system, ledger)
    assert failure.value.check == "rmw-ledger"


@pytest.mark.xfail(strict=True, reason="kernel event count depends on the string-hash seed")
def test_event_count_does_not_depend_on_the_hash_seed():
    code = (
        "import dataclasses, time\n"
        "from perfbench import scenario, workloads\n"
        "w = dataclasses.replace(workloads.WORKLOADS['rolling-recovery'], replicas=1)\n"
        "print(scenario.run_round(w, 12, False, time.monotonic())['det']"
        "['sim.events_per_commit'])\n"
    )
    counts = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=120,
            env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "3")
    }
    assert len(counts) == 1, counts


def test_tail_percentile_depends_on_sample_count_only():
    assert scenario.tail([1.0] * 500)[1] == 90
    value, pct, beyond = scenario.tail([float(i) for i in range(2000)])
    assert (pct, beyond) == (99, 20) and value == 1979.0


def test_benchmark_json_matches_the_runner_and_the_record():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads((ROOT / "perfbench" / "record.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(record["workloads"]) == set(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    expected = {
        name: (unit, better) for name, unit, better, _source in run.END_TO_END
        if name not in run.UNBOUNDED
    }
    assert {name: (m["unit"], m["better"]) for name, m in e2e.items()} == expected
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {name: (unit, better) for name, unit, better in run.PER_LAYER}
    assert set(record["per_layer"]) == set(layer)
    for name, entry in record["per_layer"].items():
        for target in entry["targets"]:
            assert target["metric"] in dict((n, u) for n, u, _b, _s in run.END_TO_END)
            assert target["workload"] in (*run.WORKLOADS, "all")


def test_runner_fails_without_the_system_under_test(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "write-soak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
