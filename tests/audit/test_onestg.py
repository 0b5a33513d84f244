"""Unit tests for the incremental 1-STG engine the auditor pumps online
(hand-fed histories)."""

from repro.histories import OnlineOneStg
from repro.histories.recorder import INITIAL_TXN, HistoryRecorder


def _stg(recorder, cycles):
    return OnlineOneStg(recorder, on_cycle=lambda txn, cycle: cycles.append((txn, cycle)))


class TestIncrementalGraph:
    def test_serial_history_stays_acyclic(self):
        rec = HistoryRecorder()
        cycles = []
        stg = _stg(rec, cycles)
        # T1 writes X, T2 reads it from T1: T0 -> T1 -> T2.
        rec.record_write(1.0, "T1@1", 1, "user", "X", 1, 1, 10.0, 1)
        rec.mark_committed("T1@1")
        stg.pump()
        rec.record_read(2.0, "T2@2", 2, "user", "X", 1, 1, 10.0, 1)
        rec.mark_committed("T2@2")
        stg.pump()
        assert not stg.cycle_found
        assert cycles == []
        assert stg.graph.has_edge(INITIAL_TXN, "T1@1")  # write order
        assert stg.graph.has_edge("T1@1", "T2@2")  # read-from

    def test_write_skew_cycle_fires_once_and_freezes(self):
        rec = HistoryRecorder()
        cycles = []
        stg = _stg(rec, cycles)
        # Classic write skew: T1 reads X@initial, writes Y; T2 reads
        # Y@initial, writes X; both commit. Read-before edges close the
        # cycle T1 -> T2 -> T1.
        rec.record_read(1.0, "T1@1", 1, "user", "X", 1, 0)
        rec.record_read(1.0, "T2@2", 2, "user", "Y", 2, 0)
        rec.record_write(2.0, "T1@1", 1, "user", "Y", 2, 1, 10.0, 1)
        rec.record_write(2.0, "T2@2", 2, "user", "X", 1, 2, 11.0, 2)
        rec.mark_committed("T1@1")
        rec.mark_committed("T2@2")
        stg.pump()
        assert stg.cycle_found
        assert len(cycles) == 1
        _txn, cycle = cycles[0]
        nodes = {node for edge in cycle for node in edge[:2]}
        assert {"T1@1", "T2@2"} <= nodes
        # Frozen: further pumps never re-fire.
        rec.record_write(3.0, "T3@3", 3, "user", "Z", 1, 3, 12.0, 3)
        rec.mark_committed("T3@3")
        stg.pump()
        assert len(cycles) == 1

    def test_undecided_ops_buffer_until_outcome(self):
        rec = HistoryRecorder()
        stg = _stg(rec, [])
        rec.record_write(1.0, "T1@1", 1, "user", "X", 1, 1, 10.0, 1)
        stg.pump()
        assert stg.stats["pending_txns"] == 1
        assert not stg.graph.has_node("T1@1")
        rec.mark_committed("T1@1")
        stg.pump()
        assert stg.stats["pending_txns"] == 0
        assert stg.graph.has_edge(INITIAL_TXN, "T1@1")

    def test_aborted_ops_dropped(self):
        rec = HistoryRecorder()
        stg = _stg(rec, [])
        rec.record_write(1.0, "T1@1", 1, "user", "X", 1, 1, 10.0, 1)
        rec.mark_aborted("T1@1")
        stg.pump()
        assert stg.stats["pending_txns"] == 0
        assert not stg.graph.has_node("T1@1")

    def test_copier_ops_excluded(self):
        rec = HistoryRecorder()
        stg = _stg(rec, [])
        rec.record_write(1.0, "T1@1", 1, "user", "X", 1, 1, 10.0, 1)
        rec.mark_committed("T1@1")
        # A copier re-applies T1's version at site 2: same version_seq,
        # different txn_seq, kind "copier" — no new node, no new order slot.
        rec.record_write(2.0, "C5@5", 5, "copier", "X", 2, 1, 10.0, 1)
        rec.mark_committed("C5@5")
        stg.pump()
        assert not stg.graph.has_node("C5@5")

    def test_mid_chain_insertion_keeps_transitive_edge(self):
        rec = HistoryRecorder()
        cycles = []
        stg = _stg(rec, cycles)
        # A (commit 1) and B (commit 3) arrive first; W (commit 2) lands
        # between them afterwards. The A->B edge stays (implied by
        # A->W->B); no spurious cycle.
        rec.record_write(1.0, "A@1", 1, "user", "X", 1, 1, 10.0, 1)
        rec.record_write(3.0, "B@3", 3, "user", "X", 1, 3, 30.0, 3)
        rec.mark_committed("A@1")
        rec.mark_committed("B@3")
        stg.pump()
        rec.record_write(2.0, "W@2", 2, "user", "X", 2, 2, 20.0, 2)
        rec.mark_committed("W@2")
        stg.pump()
        assert stg.graph.has_edge("A@1", "W@2")
        assert stg.graph.has_edge("W@2", "B@3")
        assert stg.graph.has_edge("A@1", "B@3")  # kept, transitively implied
        assert not stg.cycle_found

    def test_item_filter_scopes_graph(self):
        rec = HistoryRecorder()
        stg = OnlineOneStg(rec, item_filter=lambda item: item == "X")
        rec.record_write(1.0, "T1@1", 1, "user", "X", 1, 1, 10.0, 1)
        rec.record_write(1.0, "T2@1", 2, "user", "NS[1]", 1, 2, 11.0, 2)
        rec.mark_committed("T1@1")
        rec.mark_committed("T2@1")
        stg.pump()
        assert stg.graph.has_node("T1@1")
        assert not stg.graph.has_node("T2@1")
        assert stg.stats["ops_observed"] == 2

    def test_advance_feeds_without_checking(self):
        rec = HistoryRecorder()
        cycles = []
        stg = _stg(rec, cycles)
        rec.record_read(1.0, "T1@1", 1, "user", "X", 1, 0)
        rec.record_read(1.0, "T2@2", 2, "user", "Y", 2, 0)
        rec.record_write(2.0, "T1@1", 1, "user", "Y", 2, 1, 10.0, 1)
        rec.record_write(2.0, "T2@2", 2, "user", "X", 1, 2, 11.0, 2)
        rec.mark_committed("T1@1")
        rec.mark_committed("T2@2")
        assert stg.advance() == {"T1@1", "T2@2"}
        assert stg.graph.has_edge("T1@1", "T2@2")
        assert stg.graph.has_edge("T2@2", "T1@1")
        assert not stg.cycle_found and cycles == []
