"""Property test: a reloaded RedoLog equals the live one.

Random sequences of append, flush, truncate and discard_unflushed run
against one log; whenever its volatile tail is empty, a fresh
:class:`RedoLog` over the same stable storage must rebuild exactly the
live log's durable state from the stable keys alone.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.storage import Version
from repro.storage.stable import StableStorage
from repro.wal import RedoLog

ops = st.one_of(
    st.tuples(
        st.just("append"),
        st.sampled_from(["write", "mark", "session"]),
        st.sampled_from(["X", "Y", "Z"]),
        st.integers(min_value=1, max_value=50),
    ),
    st.tuples(st.just("flush")),
    # Retention 0 truncates every segment behind the durable LSN.
    st.tuples(st.just("truncate"), st.sampled_from([0, 0, 1, 3, 8])),
    st.tuples(st.just("discard")),
)


def durable_view(log):
    return {
        "next_lsn": log.next_lsn,
        "durable_lsn": log.durable_lsn,
        "segments": list(log.segments),
        "truncated_through_lsn": log.truncated_through_lsn,
        "truncated_max_commit": log.truncated_max_commit,
        "truncated_records": log.truncated_records,
        "truncated_commit_by_item": dict(log.truncated_commit_by_item),
        "high_commit": log.high_commit,
        "records": list(log.records_after(0)),
    }


class TestRedoLogReload:
    @given(sequence=st.lists(ops, max_size=40), crash_at_end=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_reload_equals_live(self, sequence, crash_at_end):
        stable = StableStorage()
        log = RedoLog(stable)
        for op in sequence:
            if op[0] == "append":
                _, kind, item, commit = op
                if kind == "write":
                    log.append(kind, item=item, value=commit,
                               version=Version(float(commit), commit, 0))
                elif kind == "mark":
                    log.append(kind, item=item)
                else:
                    log.append(kind, session=commit)
            elif op[0] == "flush":
                log.flush()
            elif op[0] == "truncate":
                log.truncate(log.durable_lsn - op[1])
            else:
                log.discard_unflushed()
            if not log.buffered:
                assert durable_view(RedoLog(stable)) == durable_view(log)
        if crash_at_end:
            log.discard_unflushed()
        else:
            log.flush()
        assert durable_view(RedoLog(stable)) == durable_view(log)
