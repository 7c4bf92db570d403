"""The write-ahead query journal: checkpointed crash recovery.

The paper leans on Ray's lineage-based task recovery for long queries;
this repository's substitute is a durable **per-node completion log**. As
the Luna executor finishes each plan node, the node's output is encoded
and appended to the query's journal file with an ``fsync`` — write-ahead
discipline: a node is only *checkpointed* once its record is durable, so
a process that dies mid-query can be anywhere between two checkpoints
and the journal is still a consistent prefix of the execution.

Recovery (:meth:`repro.luna.luna.Luna.resume`) rebuilds the context from
the same deterministic inputs, loads the journal, verifies the stored
plan fingerprint (the :func:`~repro.execution.materialize.stable_fingerprint`
discipline shared with DiskCache ``.fp`` sidecars), replays completed
nodes from their stored outputs, and re-executes only the nodes past the
last durable checkpoint.

Journal format (JSON lines, one record per line):

* ``{"type": "begin", "query_id", "question", "index", "plan_json",
  "fingerprint", "error_policy"}`` — written before the first node runs.
* ``{"type": "node", "index", "operation", "value"}`` — one per completed
  plan node, in execution order. ``value`` is the node's output under the
  codec below.
* ``{"type": "commit", "answer"}`` — the query finished; the stored
  answer lets tooling audit resumed-vs-uninterrupted byte equality.
* ``{"type": "shard", "shard", "fingerprint", "documents", "positions"}``
  — one per completed cluster shard (scatter/gather segments checkpoint
  at shard granularity, so a resumed query re-runs only lost shards).
  The fingerprint binds the record to one (sub-plan, partition) pair;
  records from a different plan or corpus are ignored on resume.

Value codec: documents round-trip through the Document dict codec (the
same one DiskCache uses), tuples are tagged (JSON has no tuple), lists
and dicts recurse, scalars pass through.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..docmodel.document import Document
from ..execution.materialize import stable_fingerprint
from ..observability.metrics import MetricsRegistry, get_registry


class JournalError(RuntimeError):
    """The journal is missing, corrupt, or inconsistent with the plan."""


def plan_json_fingerprint(plan_json: str) -> str:
    """Fingerprint of a serialized logical plan.

    Folded through :func:`stable_fingerprint` (parsed first, so JSON
    whitespace never changes the digest) — the same primitive that stamps
    materialization sidecars and serving-cache keys.
    """
    return stable_fingerprint([json.loads(plan_json)])


def encode_value(value: Any) -> Any:
    """Encode one node output into JSON-able form (see module codec)."""
    if isinstance(value, Document):
        return {"__document__": value.to_dict()}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {"__dict__": {str(k): encode_value(v) for k, v in value.items()}}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "__document__" in value:
            return Document.from_dict(value["__document__"])
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__dict__" in value:
            return {k: decode_value(v) for k, v in value["__dict__"].items()}
        return value
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


@dataclass
class JournalState:
    """Everything recoverable about one journaled query."""

    query_id: str
    question: str = ""
    index: str = ""
    plan_json: str = ""
    fingerprint: str = ""
    error_policy: str = ""
    #: Node index -> decoded output, for every durably checkpointed node.
    completed: Dict[int, Any] = field(default_factory=dict)
    #: Operation name per checkpointed node (for counters/reports).
    operations: Dict[int, str] = field(default_factory=dict)
    committed: bool = False
    answer: Any = None
    #: Shard id -> {"fingerprint", "documents", "positions"} for every
    #: durably checkpointed cluster shard (see ClusterCoordinator).
    shards: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def last_checkpoint(self) -> int:
        """Highest checkpointed node index (-1 when none)."""
        return max(self.completed, default=-1)


class QueryJournal:
    """Durable per-query write-ahead log under one directory.

    One ``<query_id>.journal.jsonl`` file per query. Appends are
    flushed and fsynced before returning, so :meth:`node_complete`
    returning means the checkpoint survives ``os._exit`` (the chaos
    kill mode relies on exactly this).
    """

    def __init__(
        self, root: "Path | str", registry: Optional[MetricsRegistry] = None
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.registry = registry if registry is not None else get_registry()
        self._m_records = self.registry.counter("lifecycle.journal_records")
        self._m_begins = self.registry.counter("lifecycle.journal_begins")
        self._m_commits = self.registry.counter("lifecycle.journal_commits")
        self._m_shards = self.registry.counter("lifecycle.journal_shards")
        self._lock = threading.Lock()

    def path(self, query_id: str) -> Path:
        """The journal file for one query."""
        if not query_id or "/" in query_id or query_id.startswith("."):
            raise ValueError(f"invalid query_id {query_id!r}")
        return self.root / f"{query_id}.journal.jsonl"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def begin(
        self,
        query_id: str,
        *,
        question: str,
        index: str,
        plan_json: str,
        error_policy: str = "",
    ) -> str:
        """Open the query's log with its identity record; returns the
        plan fingerprint recorded for resume validation. A pre-existing
        journal for the same query id is truncated (fresh attempt)."""
        fingerprint = plan_json_fingerprint(plan_json)
        record = {
            "type": "begin",
            "query_id": query_id,
            "question": question,
            "index": index,
            "plan_json": plan_json,
            "fingerprint": fingerprint,
            "error_policy": error_policy,
        }
        self._append(query_id, record, truncate=True)
        self._m_begins.inc()
        return fingerprint

    def node_complete(
        self, query_id: str, index: int, operation: str, value: Any
    ) -> None:
        """Durably checkpoint one node's output (write-ahead: the call
        returns only after the record is fsynced)."""
        self._append(
            query_id,
            {
                "type": "node",
                "index": index,
                "operation": operation,
                "value": encode_value(value),
            },
        )

    def shard_complete(
        self,
        query_id: str,
        shard_id: int,
        *,
        fingerprint: str,
        documents: List[Document],
        positions: List[int],
    ) -> None:
        """Durably checkpoint one cluster shard's output.

        Same write-ahead contract as :meth:`node_complete`; the
        fingerprint covers the shard sub-plan *and* the partition map,
        so resume never replays a shard of a different plan or corpus.
        """
        self._append(
            query_id,
            {
                "type": "shard",
                "shard": int(shard_id),
                "fingerprint": fingerprint,
                "documents": [encode_value(d) for d in documents],
                "positions": [int(p) for p in positions],
            },
        )
        self._m_shards.inc()

    def commit(self, query_id: str, answer: Any) -> None:
        """Record that the query finished, with its final answer."""
        self._append(
            query_id, {"type": "commit", "answer": encode_value(answer)}
        )
        self._m_commits.inc()

    def _append(
        self, query_id: str, record: Dict[str, Any], truncate: bool = False
    ) -> None:
        line = json.dumps(record, sort_keys=True)
        path = self.path(query_id)
        with self._lock:
            with open(path, "w" if truncate else "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        self._m_records.inc()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self, query_id: str) -> JournalState:
        """Parse one query's journal into a :class:`JournalState`.

        A truncated trailing line (the process died mid-append) is
        discarded: write-ahead means the record it half-wrote was never
        considered durable.
        """
        path = self.path(query_id)
        if not path.exists():
            raise JournalError(f"no journal for query {query_id!r} in {self.root}")
        state = JournalState(query_id=query_id)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail write: everything before it stands
                kind = record.get("type")
                if kind == "begin":
                    state.question = record.get("question", "")
                    state.index = record.get("index", "")
                    state.plan_json = record.get("plan_json", "")
                    state.fingerprint = record.get("fingerprint", "")
                    state.error_policy = record.get("error_policy", "")
                elif kind == "node":
                    node_index = int(record["index"])
                    state.completed[node_index] = decode_value(record["value"])
                    state.operations[node_index] = record.get("operation", "")
                elif kind == "commit":
                    state.committed = True
                    state.answer = decode_value(record.get("answer"))
                elif kind == "shard":
                    state.shards[int(record["shard"])] = {
                        "fingerprint": record.get("fingerprint", ""),
                        "documents": [
                            decode_value(d) for d in record.get("documents", [])
                        ],
                        "positions": [int(p) for p in record.get("positions", [])],
                    }
        if not state.plan_json and not state.shards:
            # Shard-only journals (a coordinator checkpointing a bare
            # segment) have no begin record and are still loadable.
            raise JournalError(
                f"journal for query {query_id!r} has no begin record"
            )
        return state
