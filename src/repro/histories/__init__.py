"""Execution histories and the §4 serializability theory.

* :class:`~repro.histories.recorder.HistoryRecorder` — collects the
  committed physical reads/writes of a run (reads carry the version they
  observed, i.e. the writer they read from).
* :mod:`repro.histories.graphs` — the two §4 graphs, one construction
  each: :class:`~repro.histories.graphs.OnlineOneStg`, the incremental
  copier-aware one-serializability testing graph (1-STG) that both the
  online auditor and the offline checker pump, and
  :func:`~repro.histories.graphs.linear_conflict_graph`, the conflict
  graph in linear size.
* :mod:`repro.histories.checker` — acyclicity-based SR and 1-SR checks
  used as test oracles (Theorems 1, 2 and the §4 Corollary).
"""

from repro.histories.checker import CheckResult, check_one_sr, check_sr, check_theorem3
from repro.histories.graphs import OnlineOneStg, linear_conflict_graph
from repro.histories.recorder import HistoryRecorder, Op, OpType

__all__ = [
    "CheckResult",
    "HistoryRecorder",
    "OnlineOneStg",
    "Op",
    "OpType",
    "check_one_sr",
    "check_sr",
    "check_theorem3",
    "linear_conflict_graph",
]
