"""Graph constructions from §4 of the paper.

* :class:`OnlineOneStg` — the candidate 1-STG, the only one in the
  repo: READ-FROM edges (original-writer provenance, copier-aware),
  write-order edges oriented by version (commit) order, and the induced
  read-before edges. By the §4 Corollary, acyclicity certifies
  one-serializability. The online auditor pumps it as transactions
  commit; the offline :func:`~repro.histories.checker.check_one_sr`
  pumps it once over a finished history.
* :func:`linear_conflict_graph` — the CG: committed transactions,
  ordered by their conflicting physical operations on each copy.
  Histories with acyclic CGs (the class DCP/DSR) are serializable
  (Theorem 1), and Theorem 3 states that under the paper's algorithm
  the CG *with respect to DB ∪ NS* is a 1-STG *with respect to DB*.

Both graphs are :class:`networkx.DiGraph` whose nodes are transaction
ids.
"""

from __future__ import annotations

import bisect
import typing

import networkx

from repro.histories.recorder import INITIAL_TXN, HistoryRecorder, Op, OpType

#: Sort key placing the implicit initial transaction before every real
#: version: real versions carry a positive commit sequence number.
_INITIAL_KEY = (-1.0, -1, -1)

VersionKey = tuple[float, int, int]

ItemFilter = typing.Callable[[str], bool]
CycleHook = typing.Callable[[str, list], None]


class OnlineOneStg:
    """Incrementally maintained candidate 1-STG over committed txns.

    The op stream is the omniscient :class:`HistoryRecorder`; a cursor
    is pumped forward over it. Ops of undecided transactions are
    buffered; aborted ones are dropped; committed ones contribute:

    (i)   READ-FROM edges ``writer -> reader`` (original-writer
          provenance, copier readers and self-reads excluded);
    (ii)  write-order edges between version-order neighbours of each
          logical item, ordered by :attr:`Op.version_key` (non-copier
          original writes only; the implicit initial transaction opens
          every chain). On a mid-chain insertion the stale neighbour
          edge is *kept*: it is implied by transitivity, so it can never
          manufacture a cycle that the refined chain lacks;
    (iii) read-before edges ``reader -> later writer``, maintained from
          both ends — a new reader points at all current later writers,
          a new writer receives an edge from every reader of an earlier
          version.

    Every edge added for transaction T is incident to T, so any new
    cycle passes through a transaction processed in the current pump;
    :meth:`pump` runs one ``networkx.find_cycle`` per such transaction,
    which keeps online detection exact and incremental. The first cycle
    fires ``on_cycle`` once and freezes further checking (the graph is
    already uncertifiable). :meth:`advance` feeds without checking, for
    callers that test the whole graph once.
    """

    def __init__(
        self,
        recorder: HistoryRecorder,
        item_filter: ItemFilter | None = None,
        on_cycle: CycleHook | None = None,
    ) -> None:
        self.recorder = recorder
        self.item_filter = item_filter
        self.on_cycle = on_cycle
        self.graph = networkx.DiGraph()
        self.graph.add_node(INITIAL_TXN)
        self.cycle_found = False
        self._cursor = 0
        self._observed = 0  # ops seen by the cursor, pre-filter
        self._pending: dict[str, list[Op]] = {}
        #: Per item: committed original writers in version order, as a
        #: parallel (sorted keys, txn ids) pair of lists.
        self._order_keys: dict[str, list[VersionKey]] = {}
        self._order_txns: dict[str, list[str]] = {}
        #: (item, writer) -> readers that READ-item-FROM writer.
        self._readers: dict[tuple[str, str], set[str]] = {}
        self._writer_key: dict[tuple[str, str], VersionKey] = {}

    # -- feeding --------------------------------------------------------------

    def pump(self) -> set[str]:
        """Advance, then look for a cycle through each touched txn."""
        touched = self.advance()
        if touched and not self.cycle_found:
            self._check_cycles(touched)
        return touched

    def advance(self) -> set[str]:
        """Feed new recorder ops into the graph; returns txns that gained edges."""
        touched: set[str] = set()
        ops = self.recorder.ops
        committed = self.recorder.committed
        aborted = self.recorder.aborted
        while self._cursor < len(ops):
            op = ops[self._cursor]
            self._cursor += 1
            self._observed += 1
            if self.item_filter is not None and not self.item_filter(op.item):
                continue
            if op.txn_id in committed:
                self._process(op, touched)
            elif op.txn_id not in aborted:
                self._pending.setdefault(op.txn_id, []).append(op)
        for txn_id in list(self._pending):
            if txn_id in committed:
                for op in self._pending.pop(txn_id):
                    self._process(op, touched)
            elif txn_id in aborted:
                del self._pending[txn_id]
        return touched

    # -- edge maintenance -----------------------------------------------------

    def _order_of(self, item: str) -> tuple[list[VersionKey], list[str]]:
        keys = self._order_keys.get(item)
        if keys is None:
            keys = self._order_keys[item] = [_INITIAL_KEY]
            self._order_txns[item] = [INITIAL_TXN]
            self._writer_key[(item, INITIAL_TXN)] = _INITIAL_KEY
        return keys, self._order_txns[item]

    def _process(self, op: Op, touched: set[str]) -> None:
        if op.op is OpType.READ:
            self._process_read(op, touched)
        else:
            self._process_write(op, touched)

    def _process_read(self, op: Op, touched: set[str]) -> None:
        if op.kind == "copier":
            return  # copiers are not transactions of the 1C history
        try:
            writer = self.recorder.writer_of_seq(op.version_seq)
        except KeyError:
            return
        reader = op.txn_id
        if writer == reader:
            return
        self.graph.add_edge(writer, reader)
        touched.add(reader)
        self._readers.setdefault((op.item, writer), set()).add(reader)
        key = self._writer_key.get((op.item, writer))
        if key is None:
            return  # writer wrote through copier provenance chains only
        keys, txns = self._order_of(op.item)
        pos = bisect.bisect_right(keys, key)
        for later in txns[pos:]:
            if later != reader:
                self.graph.add_edge(reader, later)

    def _process_write(self, op: Op, touched: set[str]) -> None:
        if op.version_seq != op.txn_seq or op.kind == "copier":
            return  # not an original write: no write-order position
        writer = op.txn_id
        if (op.item, writer) in self._writer_key:
            return  # same logical write applied at another copy
        key = op.version_key
        keys, txns = self._order_of(op.item)
        pos = bisect.bisect_left(keys, key)
        keys.insert(pos, key)
        txns.insert(pos, writer)
        self._writer_key[(op.item, writer)] = key
        self.graph.add_edge(txns[pos - 1], writer)
        if pos + 1 < len(txns):
            self.graph.add_edge(writer, txns[pos + 1])
        for earlier in txns[:pos]:
            for reader in self._readers.get((op.item, earlier), ()):
                if reader != writer:
                    self.graph.add_edge(reader, writer)
        touched.add(writer)

    # -- cycle detection ------------------------------------------------------

    def _check_cycles(self, touched: set[str]) -> None:
        # Sorted so the same cycle is reported for a given seed no matter
        # how txn-id hashes land across interpreter runs.
        for txn_id in sorted(touched):
            try:
                cycle = networkx.find_cycle(self.graph, source=txn_id)
            except networkx.NetworkXNoCycle:
                continue
            self.cycle_found = True
            if self.on_cycle is not None:
                self.on_cycle(txn_id, list(cycle))
            return

    # -- introspection --------------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        return {
            "ops_observed": self._observed,
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
            "pending_txns": len(self._pending),
        }


def linear_conflict_graph(
    recorder: HistoryRecorder, item_filter: ItemFilter | None = None
) -> networkx.DiGraph:
    """The conflict graph over committed transactions, in linear size.

    Record order is conflict order: reads are logged at execution and
    writes at commit application, and under strict 2PL conflicting
    operations on a copy are totally ordered by their lock grants, which
    the log order reflects. One pass keeps, per copy, the last writer
    and the readers since that write, and adds an edge from the last
    writer to each later op and from each of those readers to the next
    writer. Each such edge joins two conflicting ops in order, and every
    conflicting pair is joined by a path of them, so the graph has the
    transitive closure (hence the acyclicity) of the one-edge-per-pair
    CG with O(ops) edges instead of O(ops²) per copy.
    """
    graph = networkx.DiGraph()
    last_writer: dict[tuple[str, int], str] = {}
    readers: dict[tuple[str, int], list[str]] = {}
    for op in recorder.committed_ops():
        if item_filter is not None and not item_filter(op.item):
            continue
        txn = op.txn_id
        graph.add_node(txn)
        copy = (op.item, op.site)
        writer = last_writer.get(copy)
        if writer is not None and writer != txn:
            graph.add_edge(writer, txn)
        if op.op is OpType.READ:
            readers.setdefault(copy, []).append(txn)
            continue
        for reader in readers.pop(copy, ()):
            if reader != txn:
                graph.add_edge(reader, txn)
        last_writer[copy] = txn
    return graph
