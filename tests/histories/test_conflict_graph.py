"""Exact edge counts for the linear conflict graph.

The CG keeps one edge from each copy's last writer to every later op and
one from each reader since that write to the next writer, so its size
is linear in the ops — not one edge per conflicting pair.
"""

from repro.histories import HistoryRecorder, check_theorem3, linear_conflict_graph
from repro.obs.scenarios import run_traced


def test_reads_between_writes_cost_linear_edges():
    """One copy, W writers, R distinct readers after each write."""
    writers, readers_per_write = 4, 5
    recorder = HistoryRecorder()
    seq = 0
    for w in range(writers):
        seq += 1
        writer_seq = seq
        recorder.record_write(float(seq), f"W{w}@1", seq, "user", "X", 1, seq, float(seq), seq)
        recorder.mark_committed(f"W{w}@1")
        for r in range(readers_per_write):
            seq += 1
            reader = f"R{w}.{r}@1"
            recorder.record_read(float(seq), reader, seq, "user", "X", 1, writer_seq)
            recorder.mark_committed(reader)
    graph = linear_conflict_graph(recorder)
    # writer -> each reader after it, each reader -> the next writer,
    # writer -> next writer.
    expected = (
        writers * readers_per_write
        + (writers - 1) * readers_per_write
        + (writers - 1)
    )
    assert graph.number_of_edges() == expected == 38
    assert graph.number_of_nodes() == writers * (readers_per_write + 1)
    # One edge per conflicting pair: each writer precedes every later
    # writer and every later reader, and each reader every later writer
    # — 6 + 50 + 30 edges here, growing as R·W² where the above is 2·R·W.
    pairwise = sum(
        (writers - 1 - w) + (writers - w) * readers_per_write
        + readers_per_write * (writers - 1 - w)
        for w in range(writers)
    )
    assert pairwise == 86

def test_e10_theorem3_graph_size_is_pinned():
    """The traced E10 run at seed 1: 772 edges (2,794 pairwise)."""
    recorder = run_traced("e10", seed=1).system.recorder
    graph = linear_conflict_graph(recorder)
    assert graph.number_of_edges() == 772
    assert check_theorem3(recorder).ok
