"""Property test: READ-FROM provenance through arbitrary copier chains.

§4 redefines READ-FROM so that reading a copier-renovated copy counts
as reading from the *original* writer. We build histories where values
propagate through random chains of copiers (copy of a copy of a copy…)
and check that:

* the checker resolves every read to the original writer;
* the resulting histories are one-serializable;
* copier transactions never appear in the one-copy history.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.histories import HistoryRecorder, OnlineOneStg, check_one_sr

SITES = [1, 2, 3, 4]


@st.composite
def copier_chain_histories(draw):
    recorder = HistoryRecorder()
    commit_counter = itertools.count(1)
    time = 0.0
    seq = 0

    # A writer installs version v of X at site 1.
    seq += 1
    writer_seq = seq
    time += 1.0
    writer_commit = next(commit_counter)
    recorder.record_write(time, f"T{seq}@1", seq, "user", "X", 1,
                          version_seq=writer_seq, version_ts=time,
                          version_commit=writer_commit)
    recorder.mark_committed(f"T{seq}@1")
    version = (writer_seq, time, writer_commit)

    # A chain of copiers relays that version site to site.
    chain_length = draw(st.integers(min_value=1, max_value=4))
    current_site = 1
    for _ in range(chain_length):
        seq += 1
        time += 1.0
        target = draw(st.sampled_from([s for s in SITES if s != current_site]))
        copier = f"P{seq}@{target}"
        v_seq, v_ts, v_commit = version
        recorder.record_read(time, copier, seq, "copier", "X", current_site,
                             version_seq=v_seq, version_ts=v_ts,
                             version_commit=v_commit)
        recorder.record_write(time + 0.5, copier, seq, "copier", "X", target,
                              version_seq=v_seq, version_ts=v_ts,
                              version_commit=v_commit)
        recorder.mark_committed(copier)
        current_site = target

    # A reader finally reads the relayed copy.
    seq += 1
    time += 1.0
    reader = f"T{seq}@{current_site}"
    v_seq, v_ts, v_commit = version
    recorder.record_read(time, reader, seq, "user", "X", current_site,
                         version_seq=v_seq, version_ts=v_ts,
                         version_commit=v_commit)
    recorder.mark_committed(reader)
    return recorder, f"T{writer_seq}@1", reader


def one_stg(recorder):
    stg = OnlineOneStg(recorder)
    stg.advance()
    return stg


@given(data=copier_chain_histories())
@settings(max_examples=100, deadline=None)
def test_provenance_resolves_through_chains(data):
    recorder, writer, reader = data
    stg = one_stg(recorder)
    assert stg._readers == {("X", writer): {reader}}
    assert stg.graph.has_edge(writer, reader)


@given(data=copier_chain_histories())
@settings(max_examples=100, deadline=None)
def test_chain_histories_are_one_sr(data):
    recorder, _writer, _reader = data
    assert check_one_sr(recorder).ok


@given(data=copier_chain_histories())
@settings(max_examples=100, deadline=None)
def test_copiers_absent_from_one_copy_graph(data):
    recorder, _writer, _reader = data
    graph = one_stg(recorder).graph
    assert not any(node.startswith("P") for node in graph.nodes)
