"""Property-based tests for the §4 history checker.

Ground truth by construction:

* a history generated by *executing* random transactions serially
  against a one-copy database and then fanning writes out to random
  subsets of copies IS one-serializable — the checker must accept it;
* swapping the observed read provenance to a non-adjacent writer
  generally breaks equivalence — the exhaustive checker must agree with
  a brute-force reference implementation on small histories.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.histories import HistoryRecorder, OnlineOneStg, check_one_sr
from repro.histories.checker import _search_serial_order
from repro.histories.recorder import INITIAL_TXN, OpType

ITEMS = ["X", "Y", "Z"]
SITES = [1, 2, 3]


@st.composite
def serial_histories(draw):
    """Execute N random transactions serially; log physical ops."""
    n_txns = draw(st.integers(min_value=1, max_value=6))
    recorder = HistoryRecorder()
    last_writer = {item: (0, 0.0, 0) for item in ITEMS}  # seq, ts, commit
    commit_counter = itertools.count(1)
    time = 0.0
    for seq in range(1, n_txns + 1):
        txn_id = f"T{seq}@1"
        time += 1.0
        n_ops = draw(st.integers(min_value=1, max_value=3))
        for _ in range(n_ops):
            item = draw(st.sampled_from(ITEMS))
            is_write = draw(st.booleans())
            if is_write:
                commit = next(commit_counter)
                sites = draw(
                    st.lists(st.sampled_from(SITES), min_size=1, max_size=3,
                             unique=True)
                )
                for site in sites:
                    recorder.record_write(
                        time, txn_id, seq, "user", item, site,
                        version_seq=seq, version_ts=time, version_commit=commit,
                    )
                last_writer[item] = (seq, time, commit)
            else:
                w_seq, w_ts, w_commit = last_writer[item]
                site = draw(st.sampled_from(SITES))
                recorder.record_read(
                    time, txn_id, seq, "user", item, site,
                    version_seq=w_seq, version_ts=w_ts, version_commit=w_commit,
                )
        recorder.mark_committed(txn_id)
    return recorder


@given(recorder=serial_histories())
@settings(max_examples=150, deadline=None)
def test_serial_executions_are_one_sr(recorder):
    verdict = check_one_sr(recorder)
    assert verdict.ok, verdict


def brute_force_one_sr(recorder) -> bool:
    """Reference: try every permutation of committed non-copier txns.

    READ-FROM and the version order are derived from ``recorder.ops``
    here, so the reference shares no code with the checker's engine.
    """
    ops = [op for op in recorder.ops if op.txn_id in recorder.committed]
    txns = sorted({op.txn_id for op in ops if op.kind != "copier"})
    original = {0: INITIAL_TXN}
    versions: dict[str, dict[tuple, str]] = {}
    for op in ops:
        if op.op is OpType.WRITE and op.version_seq == op.txn_seq:
            original[op.txn_seq] = op.txn_id
            if op.kind != "copier":
                versions.setdefault(op.item, {})[op.version_key] = op.txn_id
    reads = {txn: set() for txn in txns}
    for op in ops:
        if op.op is OpType.READ and op.txn_id in reads:
            writer = original[op.version_seq]
            if writer != op.txn_id:
                reads[op.txn_id].add((op.item, writer))
    order = {
        item: [INITIAL_TXN] + [by_key[key] for key in sorted(by_key)]
        for item, by_key in versions.items()
    }
    writes = {txn: set() for txn in txns}
    final = {}
    for item, writers in order.items():
        final[item] = writers[-1]
        for writer in writers:
            if writer in writes:
                writes[writer].add(item)
    for perm in itertools.permutations(txns):
        state = {item: INITIAL_TXN for item in order}
        ok = True
        for txn in perm:
            for item, writer in reads[txn]:
                if state.get(item, INITIAL_TXN) != writer:
                    ok = False
                    break
            if not ok:
                break
            for item in writes[txn]:
                state[item] = txn
        if ok and all(state[item] == final[item] for item in final):
            return True
    return not txns  # empty history is trivially 1-SR


@st.composite
def arbitrary_small_histories(draw):
    """Unconstrained small histories — may or may not be 1-SR."""
    recorder = HistoryRecorder()
    n_txns = draw(st.integers(min_value=1, max_value=4))
    commit_counter = itertools.count(1)
    versions: dict[str, list[tuple[int, float, int]]] = {item: [(0, 0.0, 0)] for item in ITEMS}
    time = 0.0
    for seq in range(1, n_txns + 1):
        txn_id = f"T{seq}@1"
        time += 1.0
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            item = draw(st.sampled_from(ITEMS))
            if draw(st.booleans()):
                commit = next(commit_counter)
                recorder.record_write(
                    time, txn_id, seq, "user", item, draw(st.sampled_from(SITES)),
                    version_seq=seq, version_ts=time, version_commit=commit,
                )
                versions[item].append((seq, time, commit))
            else:
                # Read ANY existing version of the item (possibly stale —
                # this is what makes the history possibly non-1SR).
                w_seq, w_ts, w_commit = draw(st.sampled_from(versions[item]))
                recorder.record_read(
                    time, txn_id, seq, "user", item, draw(st.sampled_from(SITES)),
                    version_seq=w_seq, version_ts=w_ts, version_commit=w_commit,
                )
        recorder.mark_committed(txn_id)
    return recorder


@given(recorder=arbitrary_small_histories())
@settings(max_examples=150, deadline=None)
def test_exhaustive_checker_matches_brute_force(recorder):
    expected = brute_force_one_sr(recorder)
    stg = OnlineOneStg(recorder)
    stg.advance()
    actual = _search_serial_order(stg) is not None
    assert actual == expected
    # And the layered checker never *rejects* a 1-SR history:
    if expected:
        assert check_one_sr(recorder).ok
