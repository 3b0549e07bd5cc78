"""The v2 public API layer: handles, batches, relation views, specs.

This package is the peer-centric, transactional surface the rest of the
library is wired through.  The layering (documented in DESIGN.md) is::

    repro.api      handles / batches / views / declarative specs   (you)
    repro.core     CDSS state machine, edit logs, update exchange
    repro.datalog  engine + planners          repro.provenance  semirings
    repro.schema   tgds + internal schema     repro.storage     instances

Entry points:

* :class:`PeerHandle` / :class:`TrustScope` — returned by
  ``CDSS.add_peer`` / ``CDSS.peer``; scoped editing, reading and trust.
* :class:`Batch` — ``with peer.batch() as tx:`` transactional edits,
  applied to the edit logs atomically on clean exit.
* :class:`RelationView` — lazy instance views with filtering (structured
  predicates push down to indexed probes), certain-answer restriction and
  per-row provenance.
* :class:`Query` / :func:`col` / :func:`param` — the composable query
  surface; ``cdss.prepare(query)`` and ``cdss.prepare_program(text)``
  return a :class:`PreparedQuery` (planned + compiled once,
  parameterized execution through the engine plan cache) whose :meth:`~PreparedQuery.execute` yields a lazy
  :class:`AnswerSet` with ``certain`` / ``with_nulls`` / ``annotated``
  answer modes.
* :class:`SystemSpec` (+ :class:`PeerSpec`, :class:`MappingSpec`,
  :class:`RelationSpec`, :class:`EditSpec`) — declarative configuration
  with JSON round-trip; ``python -m repro run spec.json`` executes one,
  ``python -m repro query spec.json 'ans(x) :- R(x)'`` queries one.
"""

from .batch import Batch, BatchError
from .handles import PeerHandle, TrustScope
from .query import (
    AnswerSet,
    Comparison,
    Condition,
    PreparedQuery,
    Query,
    col,
    param,
)
from .spec import (
    DurabilitySpec,
    EditSpec,
    MappingSpec,
    PeerSpec,
    RelationSpec,
    SpecError,
    SystemSpec,
)
from .views import RelationView

__all__ = [
    "AnswerSet",
    "Batch",
    "BatchError",
    "Comparison",
    "Condition",
    "DurabilitySpec",
    "EditSpec",
    "MappingSpec",
    "PeerHandle",
    "PeerSpec",
    "PreparedQuery",
    "Query",
    "RelationSpec",
    "RelationView",
    "SpecError",
    "SystemSpec",
    "TrustScope",
    "col",
    "param",
]
