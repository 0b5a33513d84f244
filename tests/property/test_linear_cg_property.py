"""Property test: the linear conflict graph answers like the pairwise CG.

The reference below is the textbook conflict graph — one edge per pair
of conflicting ops on a copy, in record order. On random multi-site
histories of read-modify-write transactions, some of them aborted, the
linear construction must have the same nodes, the same transitive
closure and therefore the same acyclicity verdict.
"""

import hypothesis.strategies as st
import networkx
from hypothesis import given, settings

from repro.histories import HistoryRecorder, linear_conflict_graph
from repro.histories.recorder import OpType

ITEMS = ["X", "Y", "NS[1]"]
SITES = [1, 2, 3]


def pairwise_conflict_graph(recorder):
    graph = networkx.DiGraph()
    per_copy = {}
    for op in recorder.committed_ops():
        graph.add_node(op.txn_id)
        per_copy.setdefault((op.item, op.site), []).append(op)
    for ops in per_copy.values():
        for i, earlier in enumerate(ops):
            for later in ops[i + 1:]:
                if earlier.txn_id != later.txn_id and OpType.WRITE in (earlier.op, later.op):
                    graph.add_edge(earlier.txn_id, later.txn_id)
    return graph


@st.composite
def multi_site_histories(draw):
    """Interleaved ops of up to 6 transactions; RMW steps read an item
    at some sites and write it at others; each txn commits or aborts."""
    recorder = HistoryRecorder()
    n_txns = draw(st.integers(min_value=1, max_value=6))
    names = [f"T{seq}@{draw(st.sampled_from(SITES))}" for seq in range(1, n_txns + 1)]
    steps = draw(st.lists(st.integers(0, n_txns - 1), min_size=1, max_size=24))
    for time, index in enumerate(steps):
        txn, seq = names[index], index + 1
        item = draw(st.sampled_from(ITEMS))
        sites = draw(st.lists(st.sampled_from(SITES), min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):  # read-modify-write
            recorder.record_read(float(time), txn, seq, "user", item, sites[0], 0)
            for site in sites:
                recorder.record_write(float(time), txn, seq, "user", item, site, seq)
        else:
            recorder.record_read(float(time), txn, seq, "user", item, sites[-1], 0)
    for txn in names:
        if draw(st.booleans()) or txn == names[0]:
            recorder.mark_committed(txn)
        else:
            recorder.mark_aborted(txn)
    return recorder


@given(recorder=multi_site_histories())
@settings(max_examples=200, deadline=None)
def test_linear_cg_has_the_pairwise_closure(recorder):
    linear = linear_conflict_graph(recorder)
    reference = pairwise_conflict_graph(recorder)
    assert set(linear.nodes) == set(reference.nodes)
    assert set(linear.edges) <= set(reference.edges)
    assert set(networkx.transitive_closure(linear).edges) == set(
        networkx.transitive_closure(reference).edges
    )
    assert networkx.is_directed_acyclic_graph(linear) == (
        networkx.is_directed_acyclic_graph(reference)
    )
