"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them from
rotting. Each runs in-process via runpy (same interpreter, fresh
``__main__`` namespace) with stdout captured.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


def test_examples_directory_is_complete():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    out = run_example(name, capsys)
    assert len(out) > 50  # it actually reported something


def test_quickstart_outcomes(capsys):
    out = run_example("quickstart.py", capsys)
    assert "site 3 recovered" in out
    assert "one-serializable: True" in out


def test_paper_example_outcomes(capsys):
    out = run_example("paper_example.py", capsys)
    assert "one-serializable:        False" in out  # naive scheme
    assert "one-serializable: True" in out  # rowaa

def test_bank_ledger_invariants(capsys):
    out = run_example("bank_ledger.py", capsys)
    assert "all replicas converged" in out
    assert "one-serializable: True" in out


def test_partition_demo_outcomes(capsys):
    out = run_example("partition_demo.py", capsys)
    assert "aborted: rpc-timeout" in out  # ROWAA blocked, safe
    assert "consistent, no recovery needed" in out


def test_operations_dashboard_timeline(capsys):
    out = run_example("operations_dashboard.py", capsys)
    timeline = out.split("=== post-mortem report ===")[0]
    assert "site 3: site/crash" in timeline
    assert "site 4: site/power-on" in timeline
    assert "control/commit" in timeline
    assert "txn/" not in timeline  # user transactions filtered out
